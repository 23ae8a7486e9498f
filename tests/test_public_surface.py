"""The public surface holds only what the package or its README uses.

Every name in ``cpfkit.__all__`` must be referred to by package code outside
its own definition and outside ``__init__.py``, or be named in a code span or
code block of README.md.  A helper that only the tests use belongs in
``tests/helpers.py``.  References are read with ``ast``, so a docstring or a
comment that mentions a name does not count, and neither does an import.
"""

import ast
import re
from pathlib import Path

import cpfkit

_ROOT = Path(__file__).resolve().parent.parent
_PACKAGE = _ROOT / "src" / "cpfkit"


def _bound_by(statement) -> set:
    """The module-level names a top-level statement defines."""
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        return {statement.name}
    if isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return set()


def package_references() -> set:
    """Module-level names of the package's modules that their code refers
    to outside the statement defining them: as a name where the module
    defines or imports it, or as an attribute of a sibling module."""
    found = set()
    for path in sorted(_PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        body = ast.parse(path.read_text(encoding="utf-8")).body
        imports = [s for s in body if isinstance(s, ast.ImportFrom) and s.level]
        modules = {a.asname or a.name for s in imports if s.module is None for a in s.names}
        names = {a.asname or a.name for s in imports for a in s.names}
        names |= set().union(*map(_bound_by, body))
        for statement in body:
            if isinstance(statement, (ast.Import, ast.ImportFrom)):
                continue
            own = _bound_by(statement)
            for node in ast.walk(statement):
                if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                        and node.id in names and node.id not in own):
                    found.add(node.id)
                elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                        and node.value.id in modules):
                    found.add(node.attr)
    return found


def readme_names() -> set:
    """Identifiers in the code spans and code blocks of README.md."""
    text = (_ROOT / "README.md").read_text(encoding="utf-8")
    code = re.findall(r"```.*?```|`[^`\n]+`", text, flags=re.S)
    return set(re.findall(r"[A-Za-z_]\w*", " ".join(code)))


def test_every_public_name_is_used_by_the_package_or_the_readme():
    unused = set(cpfkit.__all__) - package_references() - readme_names()
    assert not unused, sorted(unused)


def test_a_docstring_mention_is_not_a_reference():
    # protocols.build_probe's docstring says "tensor product"; tensor is a test helper
    assert "tensor" in (_PACKAGE / "protocols.py").read_text(encoding="utf-8")
    assert "tensor" not in package_references()
