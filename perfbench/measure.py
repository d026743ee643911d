"""The two kinds of run: untraced (end-to-end metrics) and traced (per-layer metrics).

Imports the program, so run.py imports this module only after the timed set-up.
"""

from __future__ import annotations

import resource
import statistics
import time

from jobs import FAILED, run_pass
from tracing import Tracer

END_TO_END_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "jobs/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "answered_frac": "ratio",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


def prepare_inputs(prepared: list) -> tuple[list, dict]:
    """Run the untimed preparation jobs once; returns (records, the files they wrote)."""
    files: dict = {}
    return run_pass(prepared, files), files


def untraced(seconds: float, jobs: list, files: dict, setups: list[float]):
    """Repeat whole passes of the job list while the measured time stays nearest to `seconds`.

    Every pass runs the same inputs, starting from the prepared `files`.
    Returns (records of every pass, end-to-end metrics).
    """
    passes, walls = [], []
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(jobs, dict(files)))
        walls.append(time.perf_counter() - t0)
        if sum(walls) + 0.5 * sum(walls) / len(walls) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    records = [r for recs in passes for r in recs]
    lat_ms = [r.seconds * 1000 for r in records if r.outcome not in FAILED]
    metrics = {
        "setup_s": statistics.median(setups),
        "jobs_per_s": len(records) / sum(walls),
        "job_p50_ms": statistics.median(lat_ms),
        "job_p90_ms": statistics.quantiles(lat_ms, n=10)[8],
        "peak_rss_mb": peak_rss_mb,
        "answered_frac": len(lat_ms) / len(records),
    }
    print(f"passes={len(walls)} pass_s={[round(w, 3) for w in walls]} latency samples={len(lat_ms)}")
    return passes, metrics


def traced(jobs: list, files: dict, probe: list, build_parser_s: float):
    """One untraced and one traced pass of the job list, then the known-defect probe.

    Returns (untraced records, traced records, probe records, tracer, per-layer metrics).
    """
    t0 = time.perf_counter()
    plain = run_pass(jobs, dict(files))
    wall_plain = time.perf_counter() - t0
    tracer = Tracer()
    with tracer:
        t0 = time.perf_counter()
        records = run_pass(jobs, dict(files), on_job=tracer.begin_job)
        wall_traced = time.perf_counter() - t0
    metrics = tracer.layer_metrics([r.seconds for r in records])
    metrics["cli.setup.build_parser_s"] = build_parser_s
    metrics["trace.overhead_frac"] = wall_traced / wall_plain - 1
    probed = run_pass(probe)
    for outcome in ("refused", "crashed", "timed_out"):
        metrics[f"defects.{outcome}"] = sum(r.outcome == outcome for r in probed)
    print(f"traced pass: {wall_traced:.3f} s, untraced pass: {wall_plain:.3f} s, {len(tracer.spans)} spans")
    return plain, records, probed, tracer, metrics
