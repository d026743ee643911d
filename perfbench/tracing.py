"""Trace the calls into each `mrlrc` module from outside the program.

Tracer.install() replaces every public function of the layer modules at
every binding site (the defining module, each `from .x import y`
re-binding and the `mrlrc` package namespace) with a wrapper that records
a span: name, start, end, parent span and job.  A few methods are patched
on their classes.  Hot scalar methods are counted, not spanned, so their
time lands in their caller's self time.  remove() restores every original.

A layer is a module.  `subsets` and `errors` are helpers and are not
wrapped, so their time is self time of whichever layer called them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import time
from collections import Counter, defaultdict

LAYERS = ("mr", "matroid", "minors", "bounds", "gf", "codes")
BINDING_MODULES = ("mrlrc",) + tuple(f"mrlrc.{m}" for m in LAYERS) + ("mrlrc.cli",)

# (module, class, method, span or counter name)
SPANNED_METHODS = (
    ("mr", "MrMatroid", "rank_array", "mr.rank_array"),
    ("matroid", "Matroid", "rank_array", "matroid.rank_array"),
    ("matroid", "MinorView", "rank_array", "matroid.MinorView.rank_array"),
)
COUNTED_METHODS = (
    ("mr", "MrMatroid", "rank", "mr.rank"),
    ("matroid", "MinorView", "rank", "matroid.MinorView.rank"),
    ("codes", "LinearMatroid", "rank", "codes.LinearMatroid.rank"),
    ("gf", "Field", "add", "gf.add"),
    ("gf", "Field", "neg", "gf.neg"),
    ("gf", "Field", "mul", "gf.mul"),
    ("gf", "Field", "inv", "gf.inv"),
)


class Tracer:
    """Spans and counters for one traced pass; all state lives on the instance."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index or -1, job]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.job = -1
        self._patches: list = []  # (owner, attribute, original)
        # Counters that come from a call's argument or result, by span name.
        self._on_return = {
            "matroid.check_axioms": self._axiom_pairs,
            "mr.rank_array": self._rank_array_masks,
            "matroid.is_uniform": self._uniform_subsets,
            "minors.verify_witness": self._accept("minors.verify_witness.accepted"),
            "codes.is_mr_lrc": self._accept("codes.is_mr_lrc.accepted"),
            "codes.search_mr_code": self._accept("codes.search_mr_code.found"),
        }

    # -- wrappers ---------------------------------------------------------

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    def _spanned(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        on_return = self._on_return.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.job])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
                if on_return is not None:
                    on_return(args, out)
                return out
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return wrapper

    def _axiom_pairs(self, args, out):
        self.counts["matroid.check_axioms.pairs"] += 4 ** args[0].ground_size

    def _rank_array_masks(self, args, out):
        self.counts["mr.rank_array.masks"] += len(args[1])

    def _uniform_subsets(self, args, out):
        if out is not None:
            t, k = out
        else:  # rank of the view, without adding its rank calls to the counters
            saved = Counter(self.counts)
            t, k = args[0].ground_size, args[0].full_rank()
            self.counts.clear()
            self.counts.update(saved)
        self.counts["matroid.is_uniform.subsets"] += math.comb(t, k)

    def _accept(self, name):
        def hook(args, out):
            self.counts[name] += bool(out)

        return hook

    # -- install / remove -------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = {name: importlib.import_module(name) for name in BINDING_MODULES}
        wrappers = {}  # id(original) -> wrapper, so every binding gets the same one
        for layer in LAYERS:
            mod = modules[f"mrlrc.{layer}"]
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                    wrappers[id(obj)] = self._spanned(f"{layer}.{name}", obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._patch(mod, attr, wrappers[id(obj)])
        for layer, cls, meth, name in SPANNED_METHODS:
            owner = getattr(modules[f"mrlrc.{layer}"], cls)
            self._patch(owner, meth, self._spanned(name, vars(owner)[meth]))
        for layer, cls, meth, name in COUNTED_METHODS:
            owner = getattr(modules[f"mrlrc.{layer}"], cls)
            self._patch(owner, meth, self._counted(name, vars(owner)[meth]))

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    def begin_job(self, job: int) -> None:
        self.job = job

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def layer_metrics(self, job_seconds: list[float]) -> dict[str, float]:
        """Per-layer metrics; job_seconds[i] is the wall time of job i of the traced pass."""
        own = self.self_times()
        by_name: dict[str, float] = defaultdict(float)
        by_layer: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        top_level = 0.0
        for (name, start, end, parent, _), t in zip(self.spans, own):
            by_name[name] += t
            by_layer[name.split(".")[0]] += t
            calls[name] += 1
            if parent < 0:
                top_level += end - start
        trials = sum(
            1
            for name, _, _, parent, _ in self.spans
            if name == "gf.nullspace" and self._has_ancestor(parent, "codes.search_mr_code")
        )
        c = self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        out = {f"{layer}.self_s": by_layer[layer] for layer in LAYERS}
        out.update(
            {
                "mr.rank.calls": c["mr.rank"],
                "mr.mr_flats.self_s": by_name["mr.mr_flats"],
                "mr.rank_array.masks": c["mr.rank_array.masks"],
                "mr.rank_array.self_s": by_name["mr.rank_array"],
                "matroid.check_axioms.self_s": by_name["matroid.check_axioms"],
                "matroid.check_axioms.pairs": c["matroid.check_axioms.pairs"],
                "matroid.flats.self_s": by_name["matroid.flats"],
                "matroid.closure.calls": calls["matroid.closure"],
                "matroid.is_uniform.self_s": by_name["matroid.is_uniform"],
                "matroid.is_uniform.subsets": c["matroid.is_uniform.subsets"],
                **{f"minors.witness_eq{i}.self_s": by_name[f"minors.witness_eq{i}"] for i in (1, 2, 3, 4)},
                "minors.verify_witness.calls": calls["minors.verify_witness"],
                "minors.verify_witness.self_s": by_name["minors.verify_witness"],
                "minors.verify_witness.accept_ratio": ratio(
                    c["minors.verify_witness.accepted"], calls["minors.verify_witness"]
                ),
                "minors.oracle_max_uniform.calls": calls["minors.oracle_max_uniform"],
                "minors.oracle_max_uniform.self_s": by_name["minors.oracle_max_uniform"],
                "bounds.compute_bounds.self_s": by_name["bounds.compute_bounds"],
                "bounds.sweep.self_s": by_name["bounds.sweep"],
                "gf.field_ops": sum(c[f"gf.{op}"] for op in ("add", "neg", "mul", "inv")),
                "gf.inv.calls": c["gf.inv"],
                "gf.mat_rank.calls": calls["gf.mat_rank"],
                "gf.mat_rank.self_s": by_name["gf.mat_rank"],
                "gf.rref.self_s": by_name["gf.rref"],
                "codes.search_mr_code.self_s": by_name["codes.search_mr_code"],
                "codes.search_mr_code.trials": trials,
                "codes.search_mr_code.found_ratio": ratio(
                    c["codes.search_mr_code.found"], calls["codes.search_mr_code"]
                ),
                "codes.is_mr_lrc.self_s": by_name["codes.is_mr_lrc"],
                "codes.is_mr_lrc.accept_ratio": ratio(c["codes.is_mr_lrc.accepted"], calls["codes.is_mr_lrc"]),
                "codes.is_mds_code.self_s": by_name["codes.is_mds_code"],
                "codes.shorten.self_s": by_name["codes.shorten"],
                "codes.io.self_s": by_name["codes.read_matrix"] + by_name["codes.write_matrix"],
                "bench.self_s": sum(job_seconds) - top_level,
            }
        )
        return out

    def _has_ancestor(self, idx: int, name: str) -> bool:
        while idx >= 0:
            if self.spans[idx][0] == name:
                return True
            idx = self.spans[idx][3]
        return False

    def write(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, job."""
        with open(path, "w") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "job": job}))
                fh.write("\n")
