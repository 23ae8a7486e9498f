"""One SHA-256 over the benchmark workloads' ops replayed through the CLI.

A refactor that claims byte-identical behaviour runs this on the code before
and after the change and compares the two digests.  The ops are those of
every workload in ``bench/workloads.py``'s WORKLOADS at each seed given, the
module loaded from its path and used as it is; each op runs in this process
through ``cpfkit.cli.main``, and its argv, exit code, stdout and stderr all
enter the digest.  Usage, from the repository root:

    PYTHONPATH=src python tests/tools/replay_digest.py --seeds 3 11

Point PYTHONPATH at another checkout's ``src`` to digest that code with the
same ops.  The digest is the last line printed; the op count comes before
it, and before that one digest per op class (``op.cls``), over the same
parts of that class's ops only, so a change that alters known ops shows
which classes moved.  ``--chunk N`` sets ``cpfkit.protocols._CHUNK`` to N
cells before the replay, so that maps of more than N evaluated cells run in
several chunks and their ``--workers`` threads really run; the digest must
not move.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import sys
from pathlib import Path

import cpfkit.cli
import cpfkit.protocols

_WORKLOADS = Path(__file__).resolve().parents[2] / "bench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("cpfkit_bench_workloads", _WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def replay(seeds) -> tuple:
    """(number of ops, hex digest, {op class: hex digest}) of every workload
    at each seed."""
    workloads = load_workloads()
    digest, count, classes = hashlib.sha256(), 0, {}
    for seed in seeds:
        for workload in workloads.WORKLOADS:
            for op in workloads.generate(workload, seed):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        code = cpfkit.cli.main(list(op.argv))
                    except Exception as exc:  # an escaped exception is part of the behaviour
                        code = f"{type(exc).__name__}: {exc}"
                by_class = classes.setdefault(op.cls, hashlib.sha256())
                for part in ("\0".join(op.argv), str(code), out.getvalue(), err.getvalue()):
                    for target in (digest, by_class):
                        target.update(part.encode())
                        target.update(b"\0\0")
                count += 1
    return count, digest.hexdigest(), {cls: d.hexdigest() for cls, d in sorted(classes.items())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[3, 11])
    parser.add_argument("--chunk", type=int, default=cpfkit.protocols._CHUNK,
                        help="cells per chunk of a pair or kappa search (default %(default)s)")
    args = parser.parse_args(argv)
    if args.chunk < 1:
        parser.error(f"--chunk must be at least 1, got {args.chunk}")
    cpfkit.protocols._CHUNK = args.chunk
    count, digest, classes = replay(args.seeds)
    for cls, class_digest in classes.items():
        print(f"{cls} {class_digest}")
    print(f"{count} ops")
    print(digest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
