"""spectrace benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload verify-1d --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py and BENCHMARK.json): verify-1d, verify-2d,
oneshot-mix.  The run measures set-up time in fresh interpreters, writes the
seeded inputs, then runs the jobs closed-loop in a worker process of their
own (worker.py), so peak RSS belongs to the workload alone.  The number of
passes over the job list follows from --seconds and the workload's nominal
pass time, not from a clock, so a seed always attempts the same operations.
It prints a readable summary and, as its last line, one JSON object with
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# fresh interpreters per set-up figure; the median is reported
SETUP_SAMPLES = 3
# the whole run must end within 180 s
RUN_TIMEOUT_S = 170.0

# metric names, order and units come from BENCHMARK.json
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def fresh_import_s(module: str, env: dict) -> float:
    """Median wall time of a fresh interpreter that imports `module` and exits."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", f"import {module}"], env=env, check=True,
                       timeout=60)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description="spectrace benchmark, one run")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "spectrace" / "cli.py").is_file():
        print(f"bench: no spectrace sources under {SRC}", file=sys.stderr)
        return 2

    # on SIGTERM, unwind so subprocess.run kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    began = time.perf_counter()
    env = child_env()
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        jobs = workloads.build(args.workload, args.seed, workdir)
        jobs_path = workdir / "jobs.json"
        jobs_path.write_text(json.dumps(jobs), encoding="utf-8")
        setup_s = fresh_import_s("spectrace.cli", env)
        scipy_s = fresh_import_s("scipy.integrate", env) if args.trace else None
        spans_path = WORK / f"spans-{args.workload}-{args.seed}.jsonl"
        passes = workloads.passes(args.workload, args.seconds, args.trace)
        cmd = [sys.executable, str(BENCH / "worker.py"), str(jobs_path),
               "--passes", str(passes)]
        if args.trace:
            cmd += ["--trace", "--spans", str(spans_path)]
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S - (time.perf_counter() - began))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        print(f"bench: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])

    if args.trace:
        values = dict(result["per_layer"], **{"setup.import_scipy_s": scipy_s})
    else:
        job_s = result["job_s"]
        values = {
            "setup_s": setup_s,
            "job_s_p50": statistics.median(job_s),
            "jobs_per_s": len(job_s) / sum(job_s),
            "peak_rss_mb": result["peak_rss_mb"],
            "energy_rel_err": result["energy_rel_err"],
        }
    listed = SPEC["per_layer"] if args.trace else SPEC["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    versions = result["versions"]
    print(f"# spectrace bench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} sha={git_sha()} python={versions['python']} "
          f"numpy={versions['numpy']} scipy={versions['scipy']} nproc={os.cpu_count()}")
    print(f"# passes={passes} jobs={len(result['job_s'])} attempted={result['attempted']} "
          f"failed={result['failed']} failed_ratio={result['failed'] / result['attempted']:.4f} "
          f"correct={result['correct']}")
    if args.trace:
        print(f"# spans: {spans_path.relative_to(ROOT)}")
    for name, metric in metrics.items():
        print(f"{name:28s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
