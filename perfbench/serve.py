"""Serving process for the library workloads.

    python3 perfbench/serve.py JOB.json OUT.json

JOB.json names the source tree to import mblab from, the workload, its
request list, whether to trace, and whether to run the eigensolver size
table.  The process issues the requests one after another (a closed
loop with one client), times each, and writes each request's raw
outputs, or the exception it raised, to OUT.json.  It judges nothing:
the harness checks every output against the stored references.
"""

from __future__ import annotations

import json
import math
import os
import sys
import threading
import time
from pathlib import Path


def _solve(mblab, req):
    rep = mblab.sharp_constant(mblab.JacobiWeightParams(*req["weight"]), req["n"])
    return {"lambda": rep.lambda_min, "m_n": rep.m_n}


def _study(mblab, req):
    params = mblab.JacobiWeightParams(*req["weight"])
    n = req["n"]
    rep = mblab.sharp_constant(params, n)
    u, v, m_n = mblab.extremal_polynomial(params, n)
    cmp_ = mblab.profile_compare(params, n)
    study = mblab.convergence_study(params, req["convergence"])
    return {
        "lambda": rep.lambda_min,
        "m_n": rep.m_n,
        "extremal_m_n": m_n,
        "extremal_finite": bool(all(math.isfinite(x) for x in u) and all(math.isfinite(x) for x in v)),
        "l_star": cmp_.l_star,
        "sup_defect": cmp_.sup_defect,
        "convergence": [[r.n, r.lambda_min] for r in study],
    }


RUNNERS = {"solve_large_n": _solve, "study_session": _study}

# How long the serving thread stays on one CPU before it is moved on.
CPU_PERIOD_S = 0.01


def _alternate_cpus(tid, cpus, stop):
    """Move thread `tid` round the given CPUs every CPU_PERIOD_S until
    `stop` is set.  On a shared host the CPUs run at different speeds
    that shift over tens of seconds; a long-lived process that stays on
    one of them makes whole runs fast or slow, and one that alternates
    per request makes the median fall between two speeds.  Moving it
    every few milliseconds gives each request the average speed.  (The
    CLI workload starts a new process per request and needs none of
    this.)"""
    i = 0
    while len(cpus) > 1 and not stop.wait(CPU_PERIOD_S):
        i += 1
        os.sched_setaffinity(tid, {cpus[i % len(cpus)]})


def _threads_and_children():
    """This process's thread count and the pids of its live children."""
    tasks = os.listdir("/proc/self/task")
    children = set()
    for tid in tasks:
        try:
            children.update(Path(f"/proc/self/task/{tid}/children").read_text().split())
        except OSError:
            pass            # the thread ended while we looked
    return len(tasks), children


def main(job_path, out_path):
    job = json.loads(Path(job_path).read_text())
    sys.path.insert(0, job["src"])
    import mblab

    if not Path(mblab.__file__).resolve().is_relative_to(Path(job["src"]).resolve()):
        raise SystemExit(f"imported mblab from {mblab.__file__}, not from {job['src']}")
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    run = RUNNERS[job["workload"]]
    cpus = sorted(os.sched_getaffinity(0))
    stop = threading.Event()
    mover = threading.Thread(target=_alternate_cpus,
                             args=(threading.get_native_id(), cpus, stop), daemon=True)
    mover.start()
    # Threads and processes inherit the CPU mask of the thread that starts
    # them, so anything mblab started from the serving thread would be
    # pinned to one CPU and a parallel speed-up would not show.  The seed
    # starts none; stop loudly if a request leaves one behind.
    baseline = _threads_and_children()
    records = []
    for i, req in enumerate(job["requests"]):
        if tracer:
            tracer.request = i
        t0 = time.perf_counter()
        try:
            out = run(mblab, req)
        except Exception as exc:  # a failed request is recorded, not fatal
            out = {"error": f"{type(exc).__name__}: {exc}"}
        out["seconds"] = time.perf_counter() - t0
        records.append(out)
        if _threads_and_children() != baseline:
            raise SystemExit(
                f"request {i} left threads or child processes behind ("
                f"{_threads_and_children()} vs {baseline} before); they would be pinned "
                "to one CPU by the CPU mover, so the benchmark must be revisited")
    result = {"records": records}
    if tracer:
        tracer.uninstall()
        result["trace"] = tracer.summary()
        result["fired"] = sorted(tracer.fired)
    if job.get("size_table"):
        from mblab.eigensolver import smallest_eigenpair
        from mblab.pencil import scaled_pencil

        params = mblab.JacobiWeightParams(*job["size_table"]["weight"])
        table = []
        for n in job["size_table"]["ns"]:
            t0 = time.perf_counter()
            res = smallest_eigenpair(scaled_pencil(params, n))
            table.append({"n": n, "seconds": time.perf_counter() - t0,
                          "iterations": res.iterations, "lambda": res.lambda_min})
        result["size_table"] = table
    stop.set()
    mover.join()
    Path(out_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(*sys.argv[1:3])
