"""Self-test of the benchmark harness at toy size (a few seconds).

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is produced with its
unit, that the tracer restores every original binding after a traced run,
that the per-module self times sum to no more than the traced job wall,
that a job past the time limit counts as timed out, and that a wrong
answer is caught.
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import prepare

HERE = Path(__file__).resolve().parent
failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def toy_jobs(make_jobs):
    """A few cheap jobs of every command, every layer and every outcome class."""

    def n_of(job):
        return int(job.args[0].split(",")[0])

    def slot_of(job):
        return job.args[4] if job.cmd == "code-search" else job.args[0].split("/")[0]

    _, matroid, probe = make_jobs("matroid", 0)
    _, codes, _ = make_jobs("codes", 0)
    timed = [j for j in matroid if j.cmd in ("axioms", "flats", "oracle") and n_of(j) <= 6]
    timed += [j for j in matroid if j.cmd in ("bounds", "witness") and n_of(j) <= 8][:40]
    timed += [next(j for j in matroid if j.cmd == "sweep")]
    timed += [j for j in codes if slot_of(j) == "8,4,3@2^8:285#0"]
    crash = next(j for j in probe if j.args[0].startswith("64,"))
    refusal = next(j for j in probe if j.args[1] == 3 and not j.args[0].startswith("64,"))
    return timed, [crash, refusal]


def bindings(tracing):
    """Every function bound in the traced modules, and every patched method, by identity."""
    out = {}
    for name in tracing.BINDING_MODULES:
        for attr, obj in vars(importlib.import_module(name)).items():
            if callable(obj):
                out[(name, attr)] = obj
    for layer, cls, meth, _ in tracing.SPANNED_METHODS + tracing.COUNTED_METHODS:
        owner = getattr(importlib.import_module(f"mrlrc.{layer}"), cls)
        out[(layer, cls, meth)] = vars(owner)[meth]
    return out


def main() -> int:
    if not prepare.use_source_tree():
        print(f"no mrlrc source tree at {prepare.SRC}", file=sys.stderr)
        return 2
    import jobs
    import measure
    import tracing
    from checks import Checker
    from workloads import Job, make_jobs

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    timed, probe = toy_jobs(make_jobs)
    checker = Checker()

    passes, e2e = measure.untraced(0.0, timed, {}, [0.1])
    want = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    got = {name: measure.END_TO_END_UNITS[name] for name in e2e}
    expect(got == want, f"end-to-end metrics and units match BENCHMARK.json: {sorted(got)}")

    before = bindings(tracing)
    plain, records, probed, tracer, layer = measure.traced(timed, {}, probe, 0.001)
    expect(bindings(tracing) == before, "every wrapper removed after the traced run")
    want = {m["name"]: m["unit"] for m in spec["per_layer"]}
    got = {name: measure.layer_unit(name) for name in layer}
    expect(got == want, f"per-layer metrics and units match BENCHMARK.json ({len(got)} names)")
    expect(set(want) <= set(layer), "every per-layer metric is produced")
    expect(len({s[0].split(".")[0] for s in tracer.spans}) == len(tracing.LAYERS), "spans from every layer")

    wall = sum(r.seconds for r in records)
    module_self = sum(layer[f"{m}.self_s"] for m in tracing.LAYERS)
    expect(min(tracer.self_times()) > -1e-6, "no span has negative self time")
    expect(module_self <= wall, f"module self times {module_self:.4f} s <= traced job wall {wall:.4f} s")
    expect(layer["bench.self_s"] >= 0, "bench self time is not negative")
    expect(
        [r.outcome for r in probed] == ["crashed", "refused"],
        f"known defects classified: {[r.outcome for r in probed]}",
    )

    limit = jobs.JOB_LIMIT_S
    jobs.JOB_LIMIT_S = 0.2
    try:
        slow = jobs.run_pass([Job("witness", ("40,20,3", 1, None))])
    finally:
        jobs.JOB_LIMIT_S = limit
    expect(slow[0].outcome == "timed_out" and slow[0].seconds < 5, "a job past the limit times out")

    for recs in passes + [plain, records]:
        checker.check_pass(recs)
    expect(not checker.errors, f"toy answers check out: {checker.errors[:3]}")
    flats = next(r for r in plain if r.job.cmd == "flats")
    flats.result = flats.result[:-1]
    fresh = Checker()
    fresh.check_pass([flats])
    expect(len(fresh.errors) == 1, "a wrong answer is caught")

    print(f"selftest: {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
