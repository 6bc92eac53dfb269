"""troplag benchmark: one seeded workload per process, closed loop.

    python3 perfbench/run.py --workload {curve,mesh,verify} --seed N \
        --seconds S --trace {0,1}

One client runs one job at a time, with no extra threads, for about S
seconds; every job's outputs are checked.  With --trace 0 the last stdout
line carries the end-to-end metrics: job_s (median seconds per job),
setup_s (median, over fresh processes, of the seconds from process start
until troplag is imported and the inputs are written) and peak_rss_mb.
job_s and setup_s are wall seconds corrected for the host's speed, which
perfbench/speed.py samples while they run; the plain wall seconds go to
the result record.
With --trace 1, untraced and traced jobs alternate and the last line
carries the per-layer metrics of perfbench/spans.py, plus trace.overhead_s.
Failed jobs are the result's "failed" out of "attempted" (failed_frac).
Scratch files, the result record and the spans go under .perfbench/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import spans
import speed
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
# One client in one process: pin the BLAS pools before numpy is imported.
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure_setup(name, seed, workdir):
    """Median over fresh processes of launch-to-ready seconds at the
    reference speed, and the plain wall seconds of each process."""
    probe = os.path.join(HERE, "probe.py")
    samples, walls = [], []
    for i in range(SETUP_PROBES):
        launched = time.time()
        proc = subprocess.run([sys.executable, probe, name, str(seed),
                               os.path.join(workdir, f"probe{i}")],
                              capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        ready, busy, host_speed = (float(x) for x in proc.stdout.split()[-3:])
        walls.append(ready - launched)
        samples.append((ready - launched - busy) * host_speed)
    return statistics.median(samples), walls


def run_job(job, check, ctx, workdir, n, rec=None, sampler=None):
    """One timed job and its check; returns (seconds, wall seconds,
    problems).  With a speed sampler, seconds are at the reference speed;
    otherwise they are the wall seconds."""
    out = os.path.join(workdir, f"job{n}")
    os.makedirs(out)
    if rec is not None:
        restore = spans.install(rec)
        rec.begin_job(n)
    if sampler is not None:
        sampler.start()
    try:
        t0 = time.perf_counter()
        try:
            res = job(ctx, out)
        finally:
            t1 = time.perf_counter()
            if sampler is not None:
                sampler.stop()
            if rec is not None:
                restore()
                rec.end_job()
        problems = check(ctx, res)
    except Exception:
        problems = [traceback.format_exc()]
    finally:
        shutil.rmtree(out, ignore_errors=True)
    for p in problems:
        print(f"job {n} failed: {p}", file=sys.stderr)
    dt = t1 - t0 if sampler is None else sampler.reference_seconds(t0, t1)
    return dt, t1 - t0, problems


def closed_loop(job, check, ctx, workdir, seconds, traced):
    """Jobs back to back until the next would end after `seconds`.

    With `traced`, untraced and traced jobs alternate (at least one of
    each), their plain wall seconds are kept and the recorder of the
    traced ones is returned.  Otherwise every job's seconds are corrected
    for the host's speed, and its wall seconds are returned as well.
    """
    rec = spans.Recorder() if traced else None
    sampler = None if traced else speed.Sampler()
    times = {False: [], True: []}
    walls = []
    failed = 0
    start = time.perf_counter()
    n = 0
    while True:
        with_trace = traced and n % 2 == 1
        dt, wall, problems = run_job(job, check, ctx, workdir, n,
                                     rec if with_trace else None, sampler)
        times[with_trace].append(dt)
        walls.append(wall)
        failed += bool(problems)
        n += 1
        elapsed = time.perf_counter() - start
        if traced and n < 2:
            continue
        if elapsed + statistics.median(walls) > seconds:
            break
    return times, walls, failed, n, rec


def provenance():
    import numpy
    import scipy
    lines = 0
    pkg = os.path.join(SRC, "troplag")
    for f in sorted(os.listdir(pkg)):
        if f.endswith(".py"):
            with open(os.path.join(pkg, f), "rb") as fh:
                lines += fh.read().count(b"\n")
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
            "git_commit": commit, "src_troplag_lines": lines}


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "troplag", "__init__.py")):
        print(f"error: no troplag sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    for k in BLAS_ENV:
        os.environ[k] = "1"
    sys.path.insert(0, SRC)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    try:
        setup_s, setup_walls = ((None, None) if args.trace
                                else measure_setup(args.workload, args.seed, workdir))
        ctx = workloads.setup(args.workload, args.seed, os.path.join(workdir, "main"))
        times, walls, failed, attempted, rec = closed_loop(
            workloads.JOBS[args.workload], workloads.CHECKS[args.workload],
            ctx, workdir, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = statistics.median(times[False])
    if args.trace:
        per_job = [spans.job_metrics(j) for j in rec.jobs]
        metrics = {k: (statistics.median_low(m[k][0] for m in per_job), unit)
                   for k, (_, unit) in per_job[0].items()}
        metrics["trace.overhead_s"] = (statistics.median(times[True]) - untraced, "s")
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"job_s": (untraced, "s"), "setup_s": (setup_s, "s"),
                   "peak_rss_mb": (rss_mb, "MB")}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "attempted": attempted, "failed": failed,
              "failed_frac": failed / attempted,
              "job_seconds": {"untraced": times[False], "traced": times[True]},
              "wall_seconds": {"jobs": walls, "setup": setup_walls},
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "provenance": provenance()}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    if rec is not None:
        rec.write(os.path.join(OUT, f"spans-{tag}.jsonl.gz"))

    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    for k, (v, u) in metrics.items():
        print(f"{k} {v!r} {u}")
    print(f"failed_frac {failed / attempted!r} ({failed} of {attempted} jobs)")
    print(f"wall seconds per job: median {statistics.median(walls)!r}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
