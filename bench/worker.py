"""Runs one workload's job list closed-loop in its own process.

    python3 bench/worker.py JOBS_JSON --passes N [--trace --spans PATH]

One client runs the jobs one after another through spectrace.cli.main, in
N whole passes over the list.  N is fixed before the run (workloads.passes),
so the operations attempted and failed depend on the inputs alone, never on
how fast the machine ran.  Every output is checked by oracles.py outside the
timed region.  With --trace each job runs twice, untraced and
traced in alternating order, and the spans go to PATH at the end.  The last
line of stdout is one JSON object with the raw results for run.py.
"""

from __future__ import annotations

import os

from run import THREAD_VARS

# one BLAS/OpenMP thread, set before numpy is imported
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402
from spectrace import cli  # noqa: E402

import oracles  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

COUNT_METRICS = ("spectra.terms_enumerated", "spectra.up_to_calls", "traces.terms_summed",
                 "traces.calls", "fitkit.calls", "riesz.points", "moments.quad_calls")


def run_job(job: dict) -> tuple[int | None, float, str]:
    """(exit code or None if cli.main raised, wall seconds, stdout)."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(job["argv"])
    except Exception:  # a raise is a failed job; report it and keep the client running
        rc = None
        traceback.print_exc(file=sys.stderr)
    return rc, time.perf_counter() - start, buf.getvalue()


class Client:
    def __init__(self, jobs: list[dict]):
        self.jobs = jobs
        self.checker = oracles.Checker()
        self.attempted = self.failed = 0
        self.correct = True
        self.energy_errs: list[float] = []

    def record(self, job: dict, rc: int | None, out: str) -> None:
        self.attempted += 1
        ok, err = (False, None) if rc is None else self.checker.check(job["oracle"], rc, out)
        if not ok:
            self.correct = False
            print(f"oracle miss (exit {rc}): {' '.join(job['argv'])}", file=sys.stderr)
        if not ok or rc != 0:
            self.failed += 1
        if err is not None:
            self.energy_errs.append(err)


def untraced(client: Client, passes: int) -> dict:
    job_s = []
    for _ in range(passes):
        for job in client.jobs:
            rc, elapsed, out = run_job(job)
            job_s.append(elapsed)
            client.record(job, rc, out)
    return {"job_s": job_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def traced(client: Client, passes: int, spans_path: str) -> dict:
    tracer = Tracer()
    plain_s, traced_s, all_spans = [], [], []
    layer_s: Counter = Counter()
    for n in range(passes):
        for i, job in enumerate(client.jobs):
            for with_trace in ((False, True) if (n + i) % 2 == 0 else (True, False)):
                if with_trace:
                    tracer.install()
                    try:
                        rc, elapsed, out = run_job(job)
                    finally:
                        tracer.uninstall()
                    spans, times = tracer.take_job()
                    all_spans.append(spans)
                    layer_s.update(times)
                    traced_s.append(elapsed)
                else:
                    rc, elapsed, out = run_job(job)
                    plain_s.append(elapsed)
                client.record(job, rc, out)

    with open(spans_path, "w", encoding="utf-8") as fh:
        for job_id, spans in enumerate(all_spans):
            for span_id, (name, start, end, parent) in enumerate(spans):
                fh.write(json.dumps({"job": job_id, "span": span_id, "name": name,
                                     "start": start, "end": end, "parent": parent}) + "\n")

    jobs = len(traced_s)
    counts = tracer.counts
    metrics = {f"{layer}.self_s": layer_s[f"{layer}.self_s"] / jobs for layer in LAYERS + ("cli",)}
    metrics.update({name: counts[name] / jobs for name in COUNT_METRICS})
    metrics["spectra.load_s"] = layer_s["spectra.load_s"] / jobs
    metrics["moments.quad_s"] = layer_s["moments.quad_s"] / jobs
    metrics["spectra.cache_hit_ratio"] = (counts["spectra.cache_hits"] / counts["spectra.up_to_calls"]
                                          if counts["spectra.up_to_calls"] else 0.0)
    metrics["traces.useful_round_ratio"] = (counts["traces.calls"] / counts["traces.rounds"]
                                            if counts["traces.rounds"] else 0.0)
    metrics["fitkit.max_condition"] = tracer.max_condition
    metrics["trace.overhead_ratio"] = statistics.median(traced_s) / statistics.median(plain_s)
    self_total = sum(layer_s[f"{layer}.self_s"] for layer in LAYERS + ("cli",))
    metrics["trace.accounted_ratio"] = self_total / sum(traced_s)
    return {"job_s": plain_s, "traced_job_s": traced_s, "per_layer": metrics}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("jobs")
    parser.add_argument("--passes", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()
    with open(args.jobs, encoding="utf-8") as fh:
        jobs = json.load(fh)
    client = Client(jobs)
    if args.trace:
        result = traced(client, args.passes, args.spans)
    else:
        result = untraced(client, args.passes)
    errs = client.energy_errs
    result.update({
        "attempted": client.attempted,
        "failed": client.failed,
        "correct": client.correct,
        # no energy at all from the closed-form jobs counts as a 100% error
        "energy_rel_err": max(errs) if errs else 1.0,
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    })
    print(json.dumps(result))


if __name__ == "__main__":
    main()
