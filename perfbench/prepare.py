"""Benchmark set-up: import the program from the checkout's source tree and generate inputs.

Run as a script (`python3 perfbench/prepare.py WORKLOAD SEED`) it performs
one set-up in a fresh process and prints its timings as JSON, so the
benchmark can take set-up time as a median over several fresh processes.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from pathlib import Path

from workloads import make_jobs

SRC = Path(__file__).resolve().parent.parent / "src"


def use_source_tree() -> bool:
    """Put the checkout's `src` first on sys.path; False when there is no mrlrc source there."""
    if not (SRC / "mrlrc" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    return True


def timed_setup(workload: str, seed: int):
    """Import mrlrc and mrlrc.cli, build the CLI parser once, generate the workload's jobs.

    Returns ({"setup_s", "build_parser_s"}, make_jobs(workload, seed)).
    """
    t0 = time.perf_counter()
    importlib.import_module("mrlrc")
    cli = importlib.import_module("mrlrc.cli")
    t1 = time.perf_counter()
    cli.build_parser()
    t2 = time.perf_counter()
    jobs = make_jobs(workload, seed)
    t3 = time.perf_counter()
    return {"setup_s": t3 - t0, "build_parser_s": t2 - t1}, jobs


if __name__ == "__main__":
    if not use_source_tree():
        sys.exit(f"no mrlrc source tree at {SRC}")
    timings, _ = timed_setup(sys.argv[1], int(sys.argv[2]))
    print(json.dumps(timings))
