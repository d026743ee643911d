"""mrlrc benchmark: drive one workload through the library API and report its metrics.

    python3 perfbench/run.py --workload {matroid,codes} --seed N --seconds S --trace {0,1}

One process, one client, jobs run serially (a closed loop).  Each job is
the set of library calls one `mrlrc` CLI command makes.  With --trace 0
the run repeats whole passes of the job list for about S seconds and
reports the end-to-end metrics.  With --trace 1 it runs one pass
untraced and one traced, reports the per-layer metrics, runs the
known-defect probe and writes the spans to perfbench/out/.  Every answer
is checked after the timing; a wrong answer makes the exit code 1.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import prepare
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
TRACE_DIR = HERE / "out"
SETUP_SAMPLES = 5  # this process plus four fresh ones


def child_setup_seconds(workload: str, seed: int) -> float:
    done = subprocess.run(
        [sys.executable, str(HERE / "prepare.py"), workload, str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def outcome_line(records) -> str:
    by = Counter(r.outcome for r in records)
    crashes = Counter(r.detail.split(":")[0] for r in records if r.outcome == "crashed")
    line = (
        f"refused={by['refused']} usage={by['usage']} crashed={by['crashed']} "
        f"timed_out={by['timed_out']}"
    )
    if crashes:
        line += " (" + ", ".join(f"{k} x{v}" for k, v in crashes.items()) + ")"
    return line


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not prepare.use_source_tree():
        print(f"no mrlrc source tree at {prepare.SRC}", file=sys.stderr)
        return 2
    own, (prepared, jobs, probe) = prepare.timed_setup(args.workload, args.seed)

    import measure  # imports the program, so only after the timed set-up
    from checks import Checker
    from jobs import FAILED

    print(f"mrlrc benchmark: workload={args.workload} seed={args.seed} trace={args.trace}")
    checker = Checker()
    prep_records, files = measure.prepare_inputs(prepared)
    checker.check_pass(prep_records)
    if prep_records:
        print(f"untimed preparation: {len(prep_records)} jobs, {outcome_line(prep_records)}")
    if args.trace:
        plain, records, probed, tracer, metrics = measure.traced(jobs, files, probe, own["build_parser_s"])
        TRACE_DIR.mkdir(exist_ok=True)
        trace_path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_path)
        print(f"spans written to {trace_path.relative_to(HERE.parent)}")
        print(f"known-defect probe (untimed, {len(probed)} jobs): {outcome_line(probed)}")
        for recs in (plain, records, probed):
            checker.check_pass(recs)
        units = {name: measure.layer_unit(name) for name in metrics}
    else:
        setups = [own["setup_s"]]
        setups += [child_setup_seconds(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
        passes, metrics = measure.untraced(args.seconds, jobs, files, setups)
        for recs in passes:
            checker.check_pass(recs)
        records = [r for recs in passes for r in recs]
        units = measure.END_TO_END_UNITS

    failed = sum(r.outcome in FAILED for r in records)
    print(f"jobs: attempted={len(records)} failed={failed} failed_frac={failed / len(records):.4f} "
          f"{outcome_line(records)}")
    for r in records:
        if r.outcome in FAILED:
            print(f"  failed: {r.job.cmd} {r.job.args}: {r.outcome} {r.detail}")
    print(f"answer checks: {checker.checked} checked, {len(checker.errors)} wrong")
    for e in checker.errors[:20]:
        print(f"  WRONG: {e}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not checker.errors,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 1 if checker.errors else 0


if __name__ == "__main__":
    sys.exit(main())
