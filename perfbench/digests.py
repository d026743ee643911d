"""Record the digests of every bounds and sweep output that the answer checks compare against.

    python3 perfbench/digests.py

Run once at the commit that defines the benchmark; a later run overwrites
digests.json with the current program's output.
"""

from __future__ import annotations

import json

import prepare

if __name__ == "__main__":
    if not prepare.use_source_tree():
        raise SystemExit(f"no mrlrc source tree at {prepare.SRC}")
    from checks import DIGESTS, digest_key, text_digest
    from jobs import run_pass
    from workloads import make_jobs

    _, timed, _ = make_jobs("matroid", 0)
    records = run_pass([j for j in timed if digest_key(j)])
    if not all(r.outcome == "ok" for r in records):
        raise SystemExit("a bounds or sweep job failed; no digests written")
    digests = {digest_key(r.job): text_digest(r.output) for r in records}
    DIGESTS.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n")
    print(f"{len(digests)} digests written to {DIGESTS}")
