"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each workload runs closed-loop in this one
process with workers=1 and one BLAS thread, in whole rounds of its fixed
operation list, until --seconds have passed. Every output is checked (see
checks.py). The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with --trace 0, the per-layer metrics of a traced run with --trace 1.
"""

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Set before numpy loads (workloads.py imports it). At the default thread
# count on 2 cores one n = ell = 48 transfer log-determinant takes about 0.6 s
# against 0.07 s at one thread: the benchmark would time thread hand-off, not
# the program.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
OUT_DIR = CHECKOUT / ".perfbench_out"
WORKLOAD_NAMES = ("transfer-logpot", "dense-esd")
# setup_s is the median over this many fresh processes.
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 60


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def load_workloads():
    """Import the benchmark's workloads and, through them, the package under src/."""
    src = CHECKOUT / "src"
    if not (src / "blocktri" / "__init__.py").is_file():
        raise ImportError(f"no blocktri package under {src}")
    sys.path.insert(0, str(src))
    import workloads

    return workloads


def warm_up(workload) -> None:
    """One untimed, unchecked experiment: the first operation of round 0."""
    workload.round(0)[0].call()


def measure_setup(args) -> float:
    """Median time from process start, through the imports, to the end of the warm-up experiment."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=CHECKOUT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        # perf_counter is CLOCK_MONOTONIC, shared by parent and child.
        samples.append(float(proc.stdout.split()[-1]) - t0)
    return statistics.median(samples)


def measure(workload, seconds: float, tracer=None):
    """Closed-loop whole rounds; with a tracer, odd rounds are traced and even ones not.

    Returns the time of every untraced call summed, the times of the calls
    that count toward the median (by traced or not), the item counts, the
    problems and the number of traced rounds.
    """
    busy = 0.0
    times = {False: [], True: []}
    attempted = failed = 0
    problems = []
    rounds = traced_rounds = 0
    start = time.perf_counter()
    while rounds < (2 if tracer else 1) or time.perf_counter() - start < seconds:
        traced = tracer is not None and rounds % 2 == 1
        for op in workload.round(rounds + 1):
            with tracer.active() if traced else contextlib.nullcontext():
                t0 = time.perf_counter()
                result = op.call()
                dt = time.perf_counter() - t0
            if not traced:
                busy += dt
            if op.in_p50:
                times[traced].append(dt)
            items = op.check(result)
            attempted += len(items)
            for item in items:
                if item:
                    failed += 1
                    if not op.known_fault:
                        problems.append(f"{op.label}: {'; '.join(item)}")
        rounds += 1
        traced_rounds += traced
    return busy, times, attempted, failed, problems, traced_rounds


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        workloads = load_workloads()
    except ImportError as exc:
        print(f"cannot load the program: {exc}", file=sys.stderr)
        return 2

    emit_dir = OUT_DIR / f"emit-{os.getpid()}"
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, emit_dir)
        if args.setup_probe:
            warm_up(workload)
            print(time.perf_counter())
            return 0
        setup_s = None if args.trace else measure_setup(args)
        warm_up(workload)
        tracer = None
        if args.trace:
            import spans

            tracer = spans.Tracer()
        busy, times, attempted, failed, problems, traced_rounds = measure(workload, args.seconds, tracer)
        rss = peak_rss_mb()
        problems += workload.finish()
    finally:
        shutil.rmtree(emit_dir, ignore_errors=True)

    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    if tracer:
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.npz")
        overhead = statistics.median(times[True]) - statistics.median(times[False])
        metrics = tracer.report(traced_rounds, overhead)
    else:
        metrics = {
            "trials_per_s": {"value": attempted / busy, "unit": "1/s"},
            "experiment_s.p50": {"value": statistics.median(times[False]), "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
