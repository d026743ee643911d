"""Seeded job lists for the two benchmark workloads, `matroid` and `codes`.

A job stands for one `mrlrc` CLI command.  Job lists are plain data made
from the seed; this module imports nothing from `mrlrc`, so the program
receives only the generated inputs.

A workload draws its random choices from "seed:workload", so every run
repeats the same inputs for the same seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("matroid", "codes")

# Every PARTITION_EVERY-th triple gets a seeded random repair-set partition
# instead of the contiguous one.  The MR matroid is the same up to
# relabelling, but element order changes the oracle's branch and bound and
# every mask value.  The triples are fixed so that the seed changes the
# labels, not the job mix: parsing a partition costs as much as a small job.
PARTITION_EVERY = 4

EXHAUSTIVE_N_MAX = 12
# The witness suite runs on every triple up to this length.  Adding n = 24
# would more than double the pass time (~10 s of eq1/eq4 verification).
CONSTRUCT_N_MAX = 22
CONSTRUCT_LARGE_N = (48, 64)
CONSTRUCT_EQ1_LARGE = ((40, 20, 3), (48, 24, 3))
# The oracle fallback of witness_eq3 refuses above this ground size.
ORACLE_LIMIT = 15
# eq3 construction-gap jobs are kept in the defect probe up to this length.
GAP_PROBE_N_MAX = 24
SWEEP_N_MAX = 200
SWEEP_GRID = tuple((k, r) for r in range(1, 7) for k in sorted({r + 1, 2 * r + 1, 3 * r, 5 * r}))

# (params, field, codes per pass, trial budget, search timed).  Budgets make
# a miss unlikely (per-trial success is ~1/90 over GF(13), ~1/35 over GF(16)
# and ~0.8 over the large fields); a miss is an answer ("no MR code found").
# Two searches run once, untimed, before the passes, because the number of
# trials they need moved a pass's cost by up to 15% from seed to seed:
# (12,7,3) over GF(2^8), whose trials take ~1.6 s each and fail at random,
# and (8,4,3) over GF(16), which needs ~35 trials of ~13 ms.  The same
# certification stays timed as `code check --mr` on the codes they find.
CODE_SEARCHES = (
    ("8,4,3", "13", 4, 2000, True),
    ("8,4,3", "2^4", 1, 400, False),
    ("8,4,3", "2^8:285", 8, 20, True),
    ("12,7,3", "257", 12, 20, True),
    ("12,7,3", "2^8:285", 2, 8, False),
)
# eq1, eq2 and eq3 (k' = 2) witness sets of the contiguous partition, as
# `mrlrc witness` prints them: (F, X, k', n').  The answer checks re-verify
# each set against the rank formula.
CODE_WITNESS_SETS = {
    "8,4,3": (("", "0,4", 4, 6), ("0", "1", 3, 6), ("0,4", "", 2, 6)),
    "12,7,3": (("", "0,4,8", 7, 9), ("0,1,2,3,4", "5", 3, 6), ("0,1,2,3,4,8", "", 2, 6)),
}


@dataclass(frozen=True)
class Job:
    """One CLI-command-sized unit of work: `cmd` with its generated arguments."""

    cmd: str
    args: tuple


def valid_triples(n_max: int, n_min: int = 2) -> list[tuple[int, int, int]]:
    """All (n, k, r) with (r+1) | n and r < k <= g*r, ascending."""
    out = []
    for n in range(n_min, n_max + 1):
        for r in range(1, n):
            if n % (r + 1):
                continue
            g = n // (r + 1)
            out.extend((n, k, r) for k in range(r + 1, g * r + 1))
    return out


def params_text(n: int, k: int, r: int, rng: random.Random | None) -> str:
    """"n,k,r", or with a seeded random partition "n,k,r:a,b,..;c,d,.." when rng is given."""
    if rng is None:
        return f"{n},{k},{r}"
    perm = list(range(n))
    rng.shuffle(perm)
    blocks = (sorted(perm[i : i + r + 1]) for i in range(0, n, r + 1))
    return f"{n},{k},{r}:" + ";".join(",".join(map(str, b)) for b in blocks)


def _seeded_params(triples, rng: random.Random) -> list[str]:
    return [params_text(*t, rng if i % PARTITION_EVERY == 0 else None) for i, t in enumerate(triples)]


def eq3_gap(n: int, k: int, r: int, kp: int) -> bool:
    """True when witness_eq3's block spread cannot reach rank k - k' exactly.

    Then the constructor falls back to the exhaustive oracle, which refuses
    above ORACLE_LIMIT elements: the eq3 construction gap.
    """
    g, cap, need = n // (r + 1), r - kp, k - kp
    j = next((jp for jp in range(g) if need - jp * r <= (g - jp) * cap), None)
    return j is None or need - j * r < 0


def is_known_defect(job: Job) -> bool:
    """Jobs that end in a refusal, crash or timeout at the commit that defined this benchmark.

    n = 64: int64 mask overflow.  eq1 at n >= 40: verification walks
    C(n - g, k) subsets with no limit.  eq3 gap above the oracle limit:
    SizeRefusal although the paper's formula says the minor exists.
    """
    if job.cmd != "witness":
        return False
    text, eq, kp = job.args
    n, k, r = (int(v) for v in text.split(":")[0].split(","))
    if n == 64:
        return True
    if eq == 1 and n >= 40:
        return True
    return eq == 3 and n > ORACLE_LIMIT and eq3_gap(n, k, r, kp)


def _witness_jobs(text: str, n: int, k: int, r: int) -> list[Job]:
    jobs = [Job("witness", (text, 1, None)), Job("witness", (text, 2, None))]
    jobs += [Job("witness", (text, 3, kp)) for kp in range(2, r)]
    jobs += [Job("witness", (text, 4, kp)) for kp in range(r + 1, k)]
    return jobs


def exhaustive_jobs(rng: random.Random) -> list[Job]:
    """axioms, flats and oracle on every triple with n <= EXHAUSTIVE_N_MAX."""
    triples = valid_triples(EXHAUSTIVE_N_MAX)
    jobs = []
    for text in _seeded_params(triples, rng):
        jobs += [Job("axioms", (text,)), Job("flats", (text,)), Job("oracle", (text,))]
    return jobs


def construct_jobs(rng: random.Random) -> list[Job]:
    """Witness suite, bounds and sweeps, including the known-defect jobs."""
    triples = valid_triples(GAP_PROBE_N_MAX)
    jobs = []
    for (n, k, r), text in zip(triples, _seeded_params(triples, rng)):
        suite = _witness_jobs(text, n, k, r)
        if n > CONSTRUCT_N_MAX:
            suite = [j for j in suite if is_known_defect(j)]
        else:
            jobs.append(Job("bounds", (text,)))
        jobs += suite
    for n in CONSTRUCT_LARGE_N:
        large = [t for t in valid_triples(n, n) if t[2] >= 3]
        jobs += [Job("witness", (text, 3, 2)) for text in _seeded_params(large, rng)]
    for n, k, r in CONSTRUCT_EQ1_LARGE:
        jobs.append(Job("witness", (params_text(n, k, r, None), 1, None)))
    jobs += [Job("sweep", (k, r, r + 1, SWEEP_N_MAX)) for k, r in SWEEP_GRID]
    return jobs


def codes_jobs(rng: random.Random) -> tuple[list[Job], list[Job]]:
    """Seeded searches; each code found then goes through io, MR check, shorten/puncture and MDS checks.

    Jobs pass matrices through named slots, as the CLI passes files.
    Returns (untimed searches, timed jobs).
    """
    prepared, jobs = [], []
    for params, field, count, trials, timed in CODE_SEARCHES:
        for i in range(count):
            code = f"{params}@{field}#{i}"
            search = Job("code-search", (params, field, rng.randrange(1 << 31), trials, code))
            (jobs if timed else prepared).append(search)
            jobs.append(Job("code-io", (code,)))
            jobs.append(Job("code-check-mr", (code, params)))
            for j, (f, x, _, _) in enumerate(CODE_WITNESS_SETS[params]):
                jobs.append(Job("code-shorten-puncture", (code, f, x, f"{code}/w{j}")))
            for j in range(len(CODE_WITNESS_SETS[params])):
                jobs.append(Job("code-check-mds", (f"{code}/w{j}",)))
    return prepared, jobs


def make_jobs(workload: str, seed: int) -> tuple[list[Job], list[Job], list[Job]]:
    """(untimed preparation, timed jobs, known-defect probe jobs) of a workload.

    Preparation runs once per run; its outputs feed every pass.
    """
    rng = random.Random(f"{seed}:{workload}")
    if workload == "codes":
        prepared, jobs = codes_jobs(rng)
    else:
        prepared, jobs = [], exhaustive_jobs(rng) + construct_jobs(rng)
    timed = [j for j in jobs if not is_known_defect(j)]
    probe = [j for j in jobs if is_known_defect(j)]
    return prepared, timed, probe
