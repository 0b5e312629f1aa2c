"""One workload process of the ccrkit benchmark, started by ``run.py``.

It imports ccrkit from ``src/`` of the current directory, makes the
workload's inputs from the seed, runs one warm-up call and reports its
set-up time.  Unless ``--setup-only`` is given it then runs the timed
phase, checks every output, and prints one JSON line of raw results for
``run.py`` to turn into metrics.  With ``--trace 1`` the timed phase runs
untraced first and then the same rounds traced.
"""

import os

# Pin BLAS to one thread before numpy is imported: on small matrices two
# threads are slower than one, and their start-up skews the first call.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
OUT_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(ROOT / "src"))

import ccrkit  # noqa: E402
import numpy as np  # noqa: E402

if Path(ccrkit.__file__).resolve().parent != (ROOT / "src" / "ccrkit").resolve():
    raise SystemExit(f"ccrkit was imported from {ccrkit.__file__}, not from {ROOT / 'src'}")

import tracing  # noqa: E402
from workloads import WORKLOADS, Mismatch  # noqa: E402

# A run keeps calling until it has at least this many calls, so that the
# tail percentile has ten calls beyond it, and at least two rounds, so that
# every sweep config is repeated.
MIN_CALLS = 11
MIN_ROUNDS = 2


def execute(call, tracer=None):
    """Run one top-level call; return (call, latency_s, outcome, error)."""
    root = tracer.root_call(call.kind) if tracer is not None else None
    start = time.perf_counter()
    try:
        outcome, error = call.run(), None
    except Exception as exc:  # a failed call is counted, the run goes on
        outcome, error = None, exc
    latency = time.perf_counter() - start
    if root is not None:
        tracer.exit(root)
    return call, latency, outcome, error


def timed_pass(workload, seconds, rounds=None, tracer=None):
    """Run whole rounds until ``seconds`` have passed, or exactly ``rounds``."""
    results = []
    done = 0
    start = time.perf_counter()
    while True:
        for call in workload.round(done):
            results.append(execute(call, tracer))
        done += 1
        if rounds is not None:
            if done >= rounds:
                break
        elif time.perf_counter() - start >= seconds and done >= MIN_ROUNDS and len(results) >= MIN_CALLS:
            break
    return results, time.perf_counter() - start, done


def verify(results):
    """Check every outcome; return (failure messages, largest deviation)."""
    failures, max_dev = [], 0.0
    for call, _, outcome, error in results:
        if error is not None:
            failures.append(f"{call.kind}: {error!r}")
            continue
        try:
            max_dev = max(max_dev, call.check(outcome))
        except Mismatch as exc:
            failures.append(f"{call.kind}: {exc}")
        except Exception as exc:  # malformed output counts as a failed call
            failures.append(f"{call.kind}: unreadable output: {exc!r}")
    return failures, max_dev


def check_counts(tracer, layers, results):
    """Compare traced call counts with the counts the inputs imply."""
    expected = Counter()
    for call, *_ in results:
        expected.update(call.expect)
    failures = []
    for name, want in sorted(expected.items()):
        function = name.rsplit(".", 1)[0]
        if function in tracer.absent:
            continue
        if layers[name] != want:
            failures.append(f"traced {name} = {layers[name]}, inputs imply {want}")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        workload = WORKLOADS[args.workload](args.seed, args.size, workdir)
        workload.setup()
        warm = execute(workload.warmup())
        setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned_at
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        seconds = args.seconds / 2 if args.trace else args.seconds
        results, elapsed, rounds = timed_pass(workload, seconds)
        report = {
            "env": {
                "numpy": np.__version__,
                "python": sys.version.split()[0],
                "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            },
            "setup_s": setup_s,
            "latencies_s": [latency for _, latency, _, _ in results],
            "units": sum(call.units for call, *_ in results),
            "elapsed_s": elapsed,
            "rounds": rounds,
        }
        checked = [warm] + results
        failures = []
        if args.trace:
            tracer = tracing.Tracer()
            tracing.instrument(tracer)
            tracer.active = True
            traced, traced_elapsed, _ = timed_pass(workload, 0, rounds=rounds, tracer=tracer)
            tracer.active = False
            layers = tracing.layer_metrics(tracer)
            layers["trace.overhead_frac"] = traced_elapsed / elapsed - 1.0
            failures += check_counts(tracer, layers, traced)
            checked += traced
            tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv.gz")
            report.update(layers=layers, absent=tracer.absent, self_ms_by_kind=tracing.self_ms_by_kind(tracer))
        call_failures, max_dev = verify(checked)
        failures += call_failures
        if hasattr(workload, "sha256"):
            report["csv_sha256"] = workload.sha256()
        report.update(
            attempted=len(checked),
            failed=len(failures),
            failures=failures[:10],
            max_abs_dev=max_dev,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        print(json.dumps(report))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
