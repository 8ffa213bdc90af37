"""Benchmark for the eegitnet package, run from the root of a source tree:

    python3 perfbench/run.py --workload desk-within --seed 1 --seconds 35 --trace 0

The package is imported from ``src/`` beside this directory, never from an
installed copy.  One BLAS thread is used per process on every commit.

``--trace 0`` sets the workload up several times, runs its job once
untimed, then sets up and runs the job again while another job fits in
``--seconds``, with the machine's speed sampled throughout (refkernel.py);
it reports the end-to-end metrics.  ``--trace 1`` sets up once and
alternates untraced and traced jobs for the same time, reporting per-layer
metrics and the tracing overhead; its spans are written to
``.perfbench-out/`` at exit.

Every line but the last is a human-readable report: the machine, then each
metric with its unit.  The last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
import os

# Before numpy loads: one BLAS thread, the same on every commit measured.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
INHERITED_ENV = {var: os.environ.get(var) for var in BLAS_ENV}
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import refkernel  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench-work")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
SETUP_REPEATS = 5
EXIT_NO_PROGRAM = 2
EXIT_FAILED = 1


def import_package():
    """Import ``eegitnet`` from this tree's ``src/``; exit if it is absent."""
    if not os.path.isfile(os.path.join(SRC, "eegitnet", "__init__.py")):
        print(f"perfbench: no package source at {SRC}", file=sys.stderr)
        raise SystemExit(EXIT_NO_PROGRAM)
    sys.path.insert(0, SRC)
    import eegitnet
    if not os.path.abspath(eegitnet.__file__).startswith(SRC + os.sep):
        print(f"perfbench: eegitnet imported from {eegitnet.__file__}, not {SRC}",
              file=sys.stderr)
        raise SystemExit(EXIT_NO_PROGRAM)
    return eegitnet


def machine_facts():
    import numpy as np
    import scipy
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version")},
        "blas_env": {var: os.environ.get(var) for var in BLAS_ENV},
        "blas_env_inherited": INHERITED_ENV,
    }


def peak_rss_mb():
    """Peak resident set of this process plus the largest of its children."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def run_job(workload, records):
    """Run one job; an exception counts as a failed operation and ends the loop."""
    try:
        records.append(workload.job())
        return True
    except Exception:  # noqa: BLE001 - the loop reports any failure and stops
        traceback.print_exc()
        workload.checks.check(False, "job raised")
        return False


def fits_another(start, jobs_done, seconds):
    """True while one more job of the mean length so far ends within
    ``seconds`` of ``start``; the first job always runs."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / jobs_done <= seconds


def measure(workload, seconds):
    """End-to-end metrics.  Set-up runs several times first and once more
    before each job, so ``setup_s`` samples the whole run.  Every interval
    is divided by the reference call's time around it: ``*_ref`` metrics
    are in reference calls and ``setup_s`` in reference seconds (see
    refkernel.py)."""
    sampler = refkernel.SpeedSampler()
    workload.clock = sampler.clock
    setups, records = [], []
    with sampler:
        for _ in range(SETUP_REPEATS):
            setups.append(timed_setup(workload))
        workload.warmup()
        start = time.perf_counter()
        while True:
            setups.append(timed_setup(workload))
            if not (run_job(workload, records)
                    and fits_another(start, len(records), seconds)):
                break
    if not records:
        return None

    def duration(interval):
        return interval[1] - interval[0]

    def in_ref(interval):
        return duration(interval) / sampler.reference_s(interval[0], interval[1])

    online = [iv for r in records for iv in r.online]
    offline = [iv for r in records for iv in r.offline]
    online_ref = [in_ref(iv) for iv in online]
    metrics = {
        "setup_s": (statistics.median(in_ref(iv) for iv in setups) * refkernel.NOMINAL_S, "s"),
        "wall_ref": (statistics.median(in_ref(r.span) for r in records), "ref"),
        "offline_trials_per_ref": (statistics.median(iv[2] / in_ref(iv) for iv in offline),
                                   "1/ref"),
        "online_latency_ref_mean": (statistics.fmean(online_ref), "ref"),
        "online_latency_ref_p95": (statistics.quantiles(online_ref, n=20)[-1], "ref"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    # printed only: raw seconds, and figures not defined on every workload
    online_ms = [duration(iv) * 1e3 for iv in online]
    extra = {
        "reference_call_ms": (statistics.median(sampler.durations) * 1e3, "ms"),
        "reference_samples": (len(sampler.durations), "count"),
        "setup_raw_s": (statistics.median(duration(iv) for iv in setups), "s"),
        "wall_s": (statistics.median(duration(r.span) for r in records), "s"),
        "offline_trials_per_s": (statistics.median(iv[2] / duration(iv) for iv in offline),
                                 "1/s"),
        "online_latency_ref_p50": (statistics.median(online_ref), "ref"),
        "online_latency_ms_mean": (statistics.fmean(online_ms), "ms"),
        "online_latency_ms_p50": (statistics.median(online_ms), "ms"),
        "online_latency_ms_p95": (statistics.quantiles(online_ms, n=20)[-1], "ms"),
        "online_samples": (len(online_ms), "count"),
        "jobs": (len(records), "count"),
        "job_walls_s": ([round(duration(r.span), 4) for r in records], "s"),
    }
    train = [r.train[2] / duration(r.train) for r in records if r.train is not None]
    if train:
        extra["train_trials_per_s"] = (statistics.median(train), "1/s")
    accuracy = [r.accuracy_pct for r in records if r.accuracy_pct is not None]
    if accuracy:
        extra["accuracy_pct"] = (statistics.median(accuracy), "%")
    return metrics, extra


def timed_setup(workload):
    """Run the set-up once; returns its (start, end) on the workload's clock."""
    start = workload.clock()
    workload.setup()
    return start, workload.clock()


def measure_traced(workload, seconds, pkg, tracer):
    """Per-layer metrics: one traced set-up, then an untraced and a traced
    job in turn, the wrappers removed before every untraced one."""
    tracer.install(pkg)
    try:
        workload.setup()
    finally:
        tracer.uninstall()
    workload.warmup()
    plain, traced, job_runs = [], [], []
    start = time.perf_counter()
    while True:
        if not run_job(workload, plain):
            break
        tracer.run = f"job-{len(job_runs)}"
        tracer.install(pkg)
        try:
            ok = run_job(workload, traced)
        finally:
            tracer.uninstall()
        if not ok:
            break
        job_runs.append(tracer.run)
        if not fits_another(start, len(job_runs), seconds):
            break
    if not job_runs:
        return None
    walls = [r.span[1] - r.span[0] for r in traced]
    metrics = tracer.layer_metrics(job_runs, walls)
    overhead = statistics.median(walls) - statistics.median(r.span[1] - r.span[0] for r in plain)
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics, {"traced_jobs": (len(job_runs), "count"), "spans": (len(tracer.spans), "count")}


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    pkg = import_package()
    import tracing
    import workloads

    args = parse_args(argv, workloads.WORKLOADS)
    print("machine " + json.dumps(machine_facts()), flush=True)
    workdir = os.path.join(WORK_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    tracer = tracing.Tracer()
    try:
        if args.trace:
            result = measure_traced(workload, args.seconds, pkg, tracer)
        else:
            result = measure(workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass  # another run still uses it
        if args.trace:
            os.makedirs(OUT_DIR, exist_ok=True)
            tracer.write_spans(os.path.join(
                OUT_DIR, f"spans-{args.workload}-seed{args.seed}-{os.getpid()}.jsonl"))
    checks = workload.checks
    for message in checks.messages:
        print(f"check failed: {message}", file=sys.stderr)
    if result is None:
        print("perfbench: no job completed", file=sys.stderr)
        return EXIT_FAILED
    metrics, extra = result
    print(f"failed_fraction {checks.failed / max(checks.attempted, 1)!r} ratio "
          f"({checks.failed} of {checks.attempted} operations and checks)")
    for name, (value, unit) in {**metrics, **extra}.items():
        computed = " (computed from shapes)" if name.endswith((".macs", ".window_bytes")) else ""
        print(f"{name} {value!r} {unit}{computed}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
