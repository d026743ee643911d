"""Answer checks, run untimed after the measured passes.

Each check takes another path to the answer than the job did: the
closed-form flats for the closure scan, the bounds formulas for the oracle
and the witnesses, a rank formula written here for uniformity by
definition, the code's column matroid for the MR matroid, and digests of
the bounds and sweep text recorded when the benchmark was defined.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from mrlrc import bounds, codes, mr

from jobs import Record
from workloads import CODE_WITNESS_SETS

DIGESTS = Path(__file__).with_name("digests.json")
DEFINITION_N_MAX = 12


def digest_key(job) -> str | None:
    if job.cmd == "bounds":
        return "bounds " + job.args[0].split(":")[0]
    if job.cmd == "sweep":
        return "sweep " + " ".join(map(str, job.args))
    return None


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _triple(text: str) -> tuple[int, int, int]:
    n, k, r = (int(v) for v in text.split(":")[0].split(","))
    return n, k, r


def _blocks(text: str) -> list[int]:
    n, _, r = _triple(text)
    if ":" not in text:
        return [((1 << (r + 1)) - 1) << i for i in range(0, n, r + 1)]
    return [sum(1 << int(e) for e in b.split(",")) for b in text.split(":")[1].split(";")]


def _mr_rank(text: str, masks: np.ndarray) -> np.ndarray:
    """rank(A) = min(k, |A| - #{repair sets inside A}), from the parameter text alone."""
    _, k, _ = _triple(text)
    masks = masks.astype(np.uint64)
    full = sum(((masks & np.uint64(b)) == np.uint64(b)).astype(np.int64) for b in _blocks(text))
    return np.minimum(k, np.bitwise_count(masks).astype(np.int64) - full)


def _uniform_by_definition(text: str, f: int, x: int, k_prime: int, size: int) -> bool:
    """Is M/F\\X the uniform matroid U_size^k_prime?  Walks every subset of E - F - X."""
    n, _, _ = _triple(text)
    rest = [e for e in range(n) if not (f | x) >> e & 1]
    if len(rest) != size:
        return False
    idx = np.arange(1 << size, dtype=np.uint64)
    subs = np.zeros(1 << size, dtype=np.uint64)
    for i, e in enumerate(rest):
        subs |= ((idx >> np.uint64(i)) & np.uint64(1)) << np.uint64(e)
    rank_f = int(_mr_rank(text, np.array([f], dtype=np.uint64))[0])
    minor_rank = _mr_rank(text, subs | np.uint64(f)) - rank_f
    return bool((minor_rank == np.minimum(np.bitwise_count(subs).astype(np.int64), k_prime)).all())


def _closed_form(p, kp: int) -> int:
    if kp == p.k:
        return bounds.eq1_size(p)
    if kp == p.r:
        return bounds.eq2_size(p)
    if kp < p.r:
        return bounds.eq3_size(p, kp)
    return bounds.eq4_size(p, kp)


class Checker:
    """Checks job answers; `errors` lists every wrong answer seen so far."""

    def __init__(self):
        self.digests = json.loads(DIGESTS.read_text())
        self.errors: list[str] = []
        self.checked = 0
        self.matrices = {}  # slot -> searched GenMatrix; every pass reads the same ones
        self._passed = set()  # (job, output) pairs already checked and found right

    def check_pass(self, records: list[Record]) -> None:
        for rec in records:
            if rec.outcome not in ("ok", "false"):
                continue
            self.checked += 1
            if (rec.job, rec.output) in self._passed:  # a repeat pass gave the same answer
                continue
            problem = getattr(self, "_" + rec.job.cmd.replace("-", "_"))(rec)
            if problem:
                self.errors.append(f"{rec.job.cmd} {rec.job.args}: {problem}")
            else:
                self._passed.add((rec.job, rec.output))

    def _axioms(self, rec):
        lines = rec.output.splitlines()
        if not rec.result.passed or lines != ["R1: pass", "R2: pass", "R3: pass"]:
            return f"rank axioms reported failing: {lines}"

    def _flats(self, rec):
        expected = mr.mr_flats(mr.MrMatroid(mr.parse_params(rec.job.args[0])))
        if rec.result != expected:
            return f"{len(rec.result)} flats, closed form gives {len(expected)}"

    def _oracle(self, rec):
        p = mr.parse_params(rec.job.args[0])
        table = rec.result
        if sorted(table) != list(range(2, p.k + 1)):
            return f"ranks {sorted(table)}"
        low = [kp for kp, size in table.items() if size < _closed_form(p, kp)]
        if low:
            return f"below the closed form at k'={low}"
        # For r = 1 the theorem's largest minor has rank r = 1, below the
        # oracle's range 2..k, so the best closed form in that range stands in.
        if p.r >= 2:
            best = bounds.largest_uniform_size(p)
        else:
            best = max(_closed_form(p, kp) for kp in table)
        if max(table.values()) != best:
            return f"max {max(table.values())}, theorem gives {best}"

    def _witness(self, rec):
        text, eq, kp = rec.job.args
        p = mr.parse_params(text)
        w = rec.result
        rank = {1: p.k, 2: p.r}.get(eq, kp)
        size = _closed_form(p, rank)
        if not w.verified or w.target_rank != rank:
            return f"not verified: {w.to_line()}"
        if w.claimed_size < size or (w.claimed_size != size and not w.boundary_case):
            return f"size {w.claimed_size} against formula {size}: {w.to_line()}"
        if p.n <= DEFINITION_N_MAX and not _uniform_by_definition(
            text, w.contract_flat, w.delete_set, rank, w.claimed_size
        ):
            return f"minor is not uniform by definition: {w.to_line()}"

    def _bounds(self, rec):
        recorded = self.digests.get(digest_key(rec.job))
        if recorded != text_digest(rec.output):
            return f"text digest {text_digest(rec.output)} differs from recorded {recorded}"

    _sweep = _bounds

    def _code_search(self, rec):
        gm = rec.result
        if gm is None:  # "no MR code found" is an answer; nothing to check
            return None
        params, _, _, _, slot = rec.job.args
        self.matrices[slot] = gm
        n, k, _ = _triple(params)
        if (gm.n, gm.k) != (n, k):
            return f"[{gm.n},{gm.k}] code for ({params})"
        if n <= 8:
            lin = codes.code_to_matroid(gm)
            masks = np.arange(1 << n, dtype=np.uint64)
            got = np.array([lin.rank(int(a)) for a in masks])
            if not (got == _mr_rank(params, masks)).all():
                return "column matroid differs from the MR matroid"

    def _code_io(self, rec):
        if rec.result != self.matrices[rec.job.args[0]]:
            return "matrix changed in a write/read round trip"

    def _code_check_mr(self, rec):
        if rec.result is not True:
            return "searched code failed its MR certificate"

    def _code_shorten_puncture(self, rec):
        src, f, x, _ = rec.job.args
        params = src.split("@")[0]
        _, _, k_prime, size = next(w for w in CODE_WITNESS_SETS[params] if w[:2] == (f, x))
        fm, xm = (sum(1 << int(e) for e in s.split(",")) if s else 0 for s in (f, x))
        if not _uniform_by_definition(params, fm, xm, k_prime, size):
            return f"F={f}; X={x} is not a U_{size}^{k_prime} witness"
        if (rec.result.n, rec.result.k) != (size, k_prime):
            return f"shortened/punctured code is [{rec.result.n},{rec.result.k}], expected [{size},{k_prime}]"

    def _code_check_mds(self, rec):
        if rec.result is not True:
            return "shortened/punctured code of an MR code is not MDS"
