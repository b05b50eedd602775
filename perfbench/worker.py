"""One cold benchmark operation in a fresh interpreter.

Usage: python3 worker.py '<job JSON>'

The first thing this script does is import ``boxkites`` from the checkout's
``src`` directory; the monotonic clock reading taken right after that import
returns is the end of set-up (the parent took the reading before spawning).
Everything else, this file's own imports included, happens after it.

The job names one operation (``census``, ``tripsync``, ``verify`` or
``verify-sections``) and whether to trace it.  The last stdout line is a JSON
object with the output digest, the operation's wall time, the peak RSS and,
when traced, the per-layer summary.  An exception in the operation is
reported in that object, not raised, so the parent can count it as failed.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import boxkites  # noqa: E402

READY = time.monotonic()

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import spans  # noqa: E402


def run_op(job: dict) -> dict:
    """Run the job's operation once; return its output as comparable data."""
    op = job["op"]
    if op == "census":
        spec = boxkites.RenderSpec(target="census", n=job["n"], format="json")
        text = boxkites.cmd_emit(spec)
        return {"text": text}
    if op == "tripsync":
        spec = boxkites.RenderSpec(
            target="tripsync", n=job["n"], s_values=(job["s"],), format="json"
        )
        text = boxkites.cmd_emit(spec)
        return {"text": text}
    if op == "verify":
        report = boxkites.run_verification()
        # Compared as (id, passed) pairs, never as rendered text: the
        # `computed` strings of the edge-signs/bk-* checks stringify
        # frozensets of letters, whose order follows PYTHONHASHSEED, so
        # `boxkites verify --format json` differs from one process to the
        # next even when every verdict is the same.
        return {"checks": [[r.check_id, r.passed] for r in report.results]}
    if op == "verify-sections":
        sections = {}
        checks = []
        for name in boxkites.verify.SECTIONS:
            start = time.perf_counter()
            report = boxkites.run_verification([name])
            sections[name] = time.perf_counter() - start
            checks.extend([r.check_id, r.passed] for r in report.results)
        return {"checks": checks, "sections": sections}
    raise ValueError(f"unknown operation {op!r}")


def digest(result: dict) -> tuple[str, int]:
    if "text" in result:
        data = result["text"].encode()
    else:
        data = json.dumps(result["checks"], separators=(",", ":")).encode()
    return hashlib.sha256(data).hexdigest(), len(data)


def main(argv: list[str]) -> int:
    job = json.loads(argv[1])
    out = {"ready": READY, "src": os.path.dirname(os.path.dirname(boxkites.__file__))}
    tracer = None
    try:
        if job.get("trace"):
            tracer = spans.Tracer(trace_id=job.get("trace_id", 0))
            tracer.install(spans.boxkites_modules())
        start = time.perf_counter()
        result = run_op(job)
        out["op_s"] = time.perf_counter() - start
    except Exception:  # the parent counts the operation as failed
        out["error"] = traceback.format_exc()
        result = None
    finally:
        if tracer is not None:
            tracer.uninstall()
    if result is not None:
        out["digest"], out["bytes"] = digest(result)
        if "checks" in result:
            out["checks"] = result["checks"]
        if "sections" in result:
            out["sections"] = result["sections"]
    if tracer is not None:
        out["layers"] = tracer.summary(spans.blade_sign_info())
        if job.get("spans_path"):
            tracer.write(job["spans_path"])
    out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
