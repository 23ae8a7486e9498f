"""Count the ``cpfkit.errors.check`` calls of the benchmark workloads.

Replays one pass of every workload in ``bench/workloads.py``'s WORKLOADS at
each seed given, loaded as ``replay_digest.py`` loads it, through
``cpfkit.cli.main`` in this process, and prints the number of ``check``
calls per workload, then per calling function (module.qualname) with the
fields it checked.  Checks made in the worker threads of a map count too.
Usage, from the repository root:

    PYTHONPATH=src python tests/tools/count_checks.py --seeds 7

Point PYTHONPATH at another checkout's ``src`` to count that code's checks
with the same ops.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
from collections import Counter
from pathlib import Path

import cpfkit.cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))  # the tests' helpers

from helpers import counting_checks  # noqa: E402
from replay_digest import load_workloads  # noqa: E402


def count(workloads, workload: str, seed: int) -> tuple:
    """(number of ops, list of (caller, field), one per check call) of one
    pass of ``workload`` at ``seed``."""
    ops = workloads.generate(workload, seed)
    with counting_checks(callers=True) as calls:
        for op in ops:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                cpfkit.cli.main(list(op.argv))
    return len(ops), calls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[3, 11])
    args = parser.parse_args(argv)
    workloads = load_workloads()
    for seed in args.seeds:
        for workload in workloads.WORKLOADS:
            ops, calls = count(workloads, workload, seed)
            print(f"{workload} seed {seed}: {len(calls)} checks in {ops} ops")
            by_caller = Counter(caller for caller, _ in calls)
            for caller, total in by_caller.most_common():
                fields = Counter(field for c, field in calls if c == caller)
                detail = ", ".join(f"{f} {n}" for f, n in sorted(fields.items()))
                print(f"  {total:7d}  {caller}  ({detail})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
