"""Run benchmark jobs in-process, each as the library calls one `mrlrc` CLI command makes.

Outcomes are classified the way `mrlrc.cli.main` maps them to exit codes:
ParameterError and SizeRefusal are refusals (exit 3/4), any other
ValueError or OSError is a usage error (exit 2), any other exception is a
crash (a traceback).  A job that runs past JOB_LIMIT_S is interrupted by
SIGALRM and counts as timed out.
"""

from __future__ import annotations

import signal
import time
from dataclasses import dataclass
from typing import Any

# Library functions are looked up on their modules at call time, so a tracer
# that rebinds them sees every call the jobs make.
from mrlrc import bounds, codes, gf, matroid, minors, mr
from mrlrc.errors import ParameterError, SizeRefusal
from mrlrc.subsets import format_indices, parse_indices

from workloads import Job

# The slowest timed job at the defining commit takes ~3 s, so only a job that
# cannot finish in bounded time reaches this limit.
JOB_LIMIT_S = 10.0

FAILED = ("refused", "usage", "crashed", "timed_out")


class JobTimeout(BaseException):
    """Raised by SIGALRM inside a job; a BaseException so no library handler swallows it."""


@dataclass
class Record:
    job: Job
    outcome: str  # "ok", "false" (answered false / none found), or one of FAILED
    seconds: float
    result: Any = None
    output: str = ""  # what the CLI command would print
    detail: str = ""  # exception class and message of a failed job


def _load(text: str):
    return mr.MrMatroid(mr.parse_params(text))


def _axioms(args, files):
    report = matroid.check_axioms(_load(args[0]))
    lines = []
    for name, ok in (("R1", report.r1_ok), ("R2", report.r2_ok), ("R3", report.r3_ok)):
        line = f"{name}: {'pass' if ok else 'fail'}"
        if not ok:
            x, y = report.counterexamples[name]
            line += f" (X={{{format_indices(x)}}}, Y={{{format_indices(y)}}})"
        lines.append(line)
    return report.passed, report, "\n".join(lines)


def _flats(args, files):
    fl = matroid.flats(_load(args[0]))
    return True, fl, "\n".join(format_indices(f) if f else "(empty)" for f in fl)


def _oracle(args, files):
    table = minors.oracle_max_uniform_all(_load(args[0]))
    return True, table, "\n".join(f"k'={kp} max_n'={size}" for kp, size in sorted(table.items()))


def _witness(args, files):
    text, eq, kp = args
    m = _load(text)
    if eq == 1:
        w = minors.witness_eq1(m)
    elif eq == 2:
        w = minors.witness_eq2(m)
    elif eq == 3:
        w = minors.witness_eq3(m, kp)
    else:
        w = minors.witness_eq4(m, kp)
    return True, w, w.to_line()


def _bounds(args, files):
    p = mr.parse_params(args[0])
    t = bounds.threshold_report(p)
    lines = [
        bounds.compute_bounds(p).to_text(),
        f"rate={t.rate}",
        f"rate_threshold={t.threshold}",
        f"improves_on_gopalan={str(t.improves).lower()}",
        f"threshold_near_boundary={str(t.near_boundary).lower()}",
    ]
    return True, None, "\n".join(lines)


def _sweep(args, files):
    k, r, n_min, n_max = args
    rows = bounds.sweep(k, r, n_min, n_max)
    if not rows:
        return False, None, ""
    lines = [f"# mrlrc sweep k={k} r={r} n={n_min}..{n_max}", bounds.SWEEP_HEADER]
    lines += [row.to_csv() for row in rows]
    return True, None, "\n".join(lines) + "\n"


def _code_search(args, files):
    params, field, seed, trials, out = args
    gm = codes.search_mr_code(mr.parse_params(params), gf.parse_field(field), trials, seed)
    if gm is None:
        return False, None, ""
    files[out] = codes.write_matrix(gm)
    return True, gm, files[out]


def _code_io(args, files):
    gm = codes.read_matrix(files[args[0]])
    return True, gm, codes.write_matrix(gm)


def _code_check_mr(args, files):
    ok = codes.is_mr_lrc(codes.read_matrix(files[args[0]]), mr.parse_params(args[1]))
    return ok, ok, f"MR: {str(ok).lower()}"


def _code_shorten_puncture(args, files):
    src, f, x, out = args
    gm = codes.shorten_then_puncture(codes.read_matrix(files[src]), parse_indices(f), parse_indices(x))
    files[out] = codes.write_matrix(gm)
    return True, gm, files[out]


def _code_check_mds(args, files):
    ok = codes.is_mds_code(codes.read_matrix(files[args[0]]))
    return ok, ok, f"MDS: {str(ok).lower()}"


COMMANDS = {
    "axioms": _axioms,
    "flats": _flats,
    "oracle": _oracle,
    "witness": _witness,
    "bounds": _bounds,
    "sweep": _sweep,
    "code-search": _code_search,
    "code-io": _code_io,
    "code-check-mr": _code_check_mr,
    "code-shorten-puncture": _code_shorten_puncture,
    "code-check-mds": _code_check_mds,
}


def _on_alarm(signum, frame):
    raise JobTimeout


def runnable(job: Job, files: dict) -> bool:
    """A code job runs only when the search or shorten it reads from produced its matrix."""
    return not job.cmd.startswith("code-") or job.cmd == "code-search" or job.args[0] in files


def run_job(job: Job, files: dict) -> Record:
    """Run one job under the per-job time limit and classify its outcome.

    Needs the SIGALRM handler that run_pass installs.
    """
    fn = COMMANDS[job.cmd]
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, JOB_LIMIT_S)
        try:
            ok, result, output = fn(job.args, files)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        rec = Record(job, "ok" if ok else "false", 0.0, result, output)
    except JobTimeout:
        rec = Record(job, "timed_out", 0.0, detail=f"over {JOB_LIMIT_S:g} s")
    except (ParameterError, SizeRefusal) as exc:
        rec = Record(job, "refused", 0.0, detail=f"{type(exc).__name__}: {exc}")
    except (ValueError, OSError) as exc:
        rec = Record(job, "usage", 0.0, detail=f"{type(exc).__name__}: {exc}")
    except Exception as exc:  # a CLI traceback: record the class, keep the run going
        rec = Record(job, "crashed", 0.0, detail=f"{type(exc).__name__}: {exc}")
    rec.seconds = time.perf_counter() - t0
    return rec


def run_pass(jobs: list[Job], files: dict | None = None, on_job=None) -> list[Record]:
    """Run a job list serially: a closed loop with one client.

    `files` maps slot names to matrix text, as the CLI passes files; the
    pass adds to it.  Jobs whose input was never produced are skipped.
    on_job(i) is called before job i starts (the tracer uses it to tag spans).
    """
    files = {} if files is None else files
    records = []
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        for i, job in enumerate(jobs):
            if not runnable(job, files):
                continue
            if on_job is not None:
                on_job(i)
            records.append(run_job(job, files))
    finally:
        signal.signal(signal.SIGALRM, previous)
    return records
