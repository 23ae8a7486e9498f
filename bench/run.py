"""cpfkit benchmark: one client runs a seeded op list through cpfkit.cli.main.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload mixed_map --seed 1 --seconds 55 --trace 0

``--trace 0`` times the workload and reports the end-to-end metrics;
``--trace 1`` runs each op once untraced and once traced, interleaved, and
reports the per-layer metrics.  Every op's output is checked.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; lines before it starting with
``#`` record the environment and the sample counts.
"""

from __future__ import annotations

import os

# Pin the numeric libraries to one thread before numpy loads, so that the
# ops' own --workers is the only parallelism.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("CPFKIT_WORKERS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

import checker  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# a percentile is reported only with at least this many samples beyond it
MIN_BEYOND = 10
# timed passes run until --seconds is used up, at least this many
MIN_PASSES = 5

_SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import cpfkit.cli\n"
    "cpfkit.cli.build_parser()\n"
    "print(time.process_time(), time.clock_gettime(time.CLOCK_MONOTONIC) - float(sys.argv[2]))\n"
    "print(cpfkit.cli.__file__)\n"
)

# Runs a workload's ops once, unchecked, with their output sent to
# os.devnull, and prints the process's peak RSS in KiB.  It imports only
# cpfkit and the op generator, so the figure is the program's own.
_PEAK_RSS_CODE = (
    "import os, resource, sys\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "import cpfkit.cli, workloads\n"
    "out, sys.stdout = sys.stdout, open(os.devnull, 'w')\n"
    "sys.stderr = open(os.devnull, 'w')\n"
    "codes = [cpfkit.cli.main(list(op.argv))\n"
    "         for op in workloads.generate(sys.argv[3], int(sys.argv[4]))]\n"
    "out.write(f'{codes.count(0)} {len(codes)} '\n"
    "          f'{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}\\n')\n"
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def percentile(samples, q: float):
    """Linear-interpolated q-quantile and the number of samples above it.

    The value is None when fewer than MIN_BEYOND samples lie beyond it."""
    xs = sorted(samples)
    if not xs:
        return None, 0
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    value = xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
    beyond = sum(1 for x in xs if x > value)
    return (value if beyond >= MIN_BEYOND else None), beyond


def measure_setup(runs: int, warm_up: bool = False) -> list:
    """(CPU, wall) times from spawning a fresh interpreter until ``import
    cpfkit.cli`` and ``build_parser()`` finish, over sequential children.

    With ``warm_up``, one discarded child first compiles the byte code."""
    times = []
    for i in range(runs + warm_up):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, str(SRC), repr(start)],
            capture_output=True, text=True, timeout=120, check=False,
        )
        lines = proc.stdout.split()
        if proc.returncode != 0 or len(lines) != 3 or not _inside_src(lines[2]):
            raise BenchError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
        if i or not warm_up:
            times.append((float(lines[0]), float(lines[1])))
    return times


def measure_peak_rss(workload: str, seed: int) -> float:
    """Peak RSS in MiB of a child that runs the op list once, unchecked."""
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS_CODE, str(SRC), str(Path(__file__).parent),
         workload, str(seed)],
        capture_output=True, text=True, timeout=170, check=False,
    )
    fields = proc.stdout.split()
    if proc.returncode != 0 or len(fields) != 3 or fields[0] != fields[1]:
        raise BenchError(f"peak-RSS child failed: {proc.stdout.strip()} "
                         f"{proc.stderr.strip()[-500:]}")
    return int(fields[2]) / 1024.0


def _inside_src(path: str) -> bool:
    return Path(path).resolve().is_relative_to(SRC.resolve())


def import_cli():
    """Import cpfkit.cli from this checkout's sources, never an installed copy."""
    if not (SRC / "cpfkit" / "cli.py").is_file():
        raise BenchError(f"no cpfkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cpfkit.cli

    if not _inside_src(cpfkit.cli.__file__):
        raise BenchError(f"imported {cpfkit.cli.__file__}, not the checkout's copy")
    return cpfkit.cli


def git_revision() -> str:
    """HEAD of the checkout, read from .git without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, n_ops: int) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "ops": n_ops,
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "numpy": numpy.__version__, "blas": blas, "git": git_revision(),
        "threads_env": {v: os.environ[v] for v in ("OMP_NUM_THREADS",
                                                    "OPENBLAS_NUM_THREADS")},
    }


class Runner:
    """Runs ops in-process and checks every output.

    An op is checked in full the first time; a repeat must reproduce the
    checked output byte for byte.  Checking happens outside the timed span."""

    def __init__(self, cli):
        self.cli = cli
        self.digests = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run(self, op) -> tuple:
        """Run and check one op; its (wall, CPU) time in seconds."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start, cpu_start = time.perf_counter(), time.process_time()
            try:
                code = self.cli.main(list(op.argv))
            except Exception as exc:  # an escaped exception is a failed op
                code = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start, time.process_time() - cpu_start
        self.attempted += 1
        text = out.getvalue()
        digest = hashlib.blake2b(text.encode(), digest_size=16).digest()
        known = self.digests.get(op.argv)
        if known is not None:
            same = code == 0 and digest == known
            problems = [] if same else [f"exit code {code} or output differs from before"]
        else:
            problems = checker.check(op, code, text)
            if not problems:
                self.digests[op.argv] = digest
        if problems:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append((op.cls, " ".join(op.argv), problems[:3],
                                      err.getvalue()[-300:]))
        return elapsed


def run_timed(runner, ops, seconds: float):
    """Warm up with one op, then repeat passes over the op list while the
    next pass still fits in the time.  One set-up child runs after each
    pass, so that the set-up samples are spread over the run.

    Returns each op's (wall, CPU) samples and the set-up children's
    (CPU, wall) times, in seconds."""
    start = time.perf_counter()
    runner.run(ops[0])
    setup_times = measure_setup(0, warm_up=True)
    samples = [[] for _ in ops]
    while True:
        pass_start = time.perf_counter()
        for i, op in enumerate(ops):
            samples[i].append(runner.run(op))
        setup_times += measure_setup(1)
        now = time.perf_counter()
        if len(samples[0]) >= MIN_PASSES and now + (now - pass_start) - start > seconds:
            return samples, setup_times


def run_traced(runner, ops, tracer):
    """One pass, each op untraced and traced back to back in alternating
    order, so that slow and fast phases of the machine hit both sides alike.
    The pass count is fixed, so the counts repeat exactly."""
    runner.run(ops[0])
    walls = {False: 0.0, True: 0.0}
    for i, op in enumerate(ops):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                with tracer.installed():
                    walls[True] += runner.run(op)[0]
            else:
                walls[False] += runner.run(op)[0]
    return walls[True], walls[False]


def measure(args, runner, ops) -> dict:
    """Run the workload; the metrics as name -> (value, unit)."""
    if args.trace:
        tracer = Tracer()
        traced, untraced = run_traced(runner, ops, tracer)
        print("# trace absent " + json.dumps(tracer.absent))
        print("# trace counts " + json.dumps(tracer.counts()))
        return tracer.metrics(traced, untraced)

    peak_mb = measure_peak_rss(args.workload, args.seed)
    samples, setup_times = run_timed(runner, ops, args.seconds)
    # Times are CPU time (user + system, all threads).  On a shared virtual
    # machine the host takes the CPU away for stretches of seconds to
    # minutes (steal time); wall time counts those stretches and CPU time
    # does not.  cpu_s is the op list's CPU time in a typical pass: the
    # median over passes of the summed op times.  An op's time is its median
    # over the passes, and the percentiles are taken over the ops.
    cpu = [[c for _, c in s] for s in samples]
    passes = [sum(s[p] for s in cpu) for p in range(len(cpu[0]))]
    wall_passes = [sum(s[p][0] for s in samples) for p in range(len(cpu[0]))]
    op_ms = [statistics.median(s) * 1e3 for s in cpu]
    p50, beyond50 = percentile(op_ms, 0.5)
    p90, beyond90 = percentile(op_ms, 0.9)
    print("# samples " + json.dumps({
        "ops": len(op_ms), "passes": len(passes),
        "op_cpu_p50_ms_beyond": beyond50, "op_cpu_p90_ms_beyond": beyond90,
        "setup_runs": len(setup_times)}))
    print("# wall " + json.dumps({
        "wall_s": statistics.median(wall_passes),
        "setup_wall_s": statistics.median(w for _, w in setup_times)}))
    if p50 is None or p90 is None:
        raise BenchError(f"too few ops ({len(op_ms)}) for p50 and p90")
    return {
        "setup_s": (statistics.median(c for c, _ in setup_times), "s"),
        "cpu_s": (statistics.median(passes), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "op_cpu_p50_ms": (p50, "ms"),
        "op_cpu_p90_ms": (p90, "ms"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        cli = import_cli()
        ops = workloads.generate(args.workload, args.seed)
        runner = Runner(cli)
        print("# env " + json.dumps(environment(args, len(ops))), flush=True)
        metrics = measure(args, runner, ops)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    for cls, command, problems, stderr in runner.problems:
        print(f"# failed {cls}: {command}\n#   {problems}\n#   {stderr!r}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
