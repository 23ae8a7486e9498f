"""Exit code, peak RSS and CPU time of one ``cpfkit`` command.

Runs ``python -m cpfkit.cli`` with the arguments given in a child process,
its stdout discarded and its stderr passed through, and prints the child's
exit code, its peak resident set size in MiB and its user plus system CPU
seconds, both from ``resource.getrusage(RUSAGE_CHILDREN)`` once it has
exited (on Linux, which reports ru_maxrss in KiB).  The child inherits the
environment, so PYTHONPATH picks the checkout, as for ``replay_digest.py``.
Usage, from the repository root:

    PYTHONPATH=src python tests/tools/peak_rss.py sweep --m 5 --variable eta_t \\
        --start 0 --stop 1 --points 100000 --eta-b 0.4 --ns 5 --protocols idler_free
"""

from __future__ import annotations

import resource
import subprocess
import sys


def measure(argv) -> tuple:
    """(exit code, peak RSS in MiB, CPU seconds) of ``cpfkit.cli`` on ``argv``."""
    child = subprocess.run([sys.executable, "-m", "cpfkit.cli", *argv],
                           stdout=subprocess.DEVNULL, check=False)
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return child.returncode, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime


def main(argv=None) -> int:
    code, peak_mb, cpu_s = measure(sys.argv[1:] if argv is None else argv)
    print(f"exit {code}")
    print(f"peak_rss_mb {peak_mb:.1f}")
    print(f"cpu_s {cpu_s:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
