"""Record the reference outputs every benchmark run is checked against.

Usage, from the root of a checkout of the commit whose outputs are the
reference:

    python3 perfbench/record_references.py

Writes ``perfbench/references.json``: the census-n6 output digest, one
trip-sync digest for every s in 1..63 at n = 7 (so any seed's draw can be
checked), and the (id, passed) list of a full verification.  Each output
comes from its own cold worker, as in a benchmark run; the wall time and
peak RSS of each are kept beside it as the seed-commit cost record.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    jobs = [{"op": "census", "n": 6}, {"op": "verify"}]
    jobs += [{"op": "tripsync", "n": 7, "s": s} for s in range(1, 64)]
    references = {}
    for job in jobs:
        result = run.run_worker(job, limit_s=600.0)
        if "error" in result:
            print(f"{json.dumps(job)}: {result['error']}", file=sys.stderr)
            return 1
        entry = {
            "sha256": result["digest"],
            "bytes": result["bytes"],
            "op_s": round(result["op_s"], 3),
            "peak_rss_mb": round(result["rss_kb"] / 1024, 1),
        }
        if job["op"] == "verify":
            entry["checks"] = result["checks"]
        references[run.reference_key(job)] = entry
        print(f"{run.reference_key(job)}: {entry['op_s']} s, {entry['peak_rss_mb']} MB")
    with open(run.REFERENCES, "w") as out:
        json.dump({"references": references}, out, indent=1)
        out.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
