"""The boxkites benchmark: cold, closed-loop runs of three workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload census-n6 --seed 1 --seconds 35 --trace 0

One client sends one operation at a time; each operation runs in a fresh
worker interpreter (``worker.py``) so every cache starts cold, and the next
operation starts only after the previous worker has exited.  Every output is
checked against the references recorded at the seed commit
(``references.json``).  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the lines before it give
the same numbers for a reader.

With ``--trace 0`` the metrics are the end-to-end ones, measured with no
tracing.  With ``--trace 1`` a separate, smaller traced pass gives the
per-layer metrics of ``spans.py``; end-to-end numbers never come from it.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import statistics
import subprocess
import sys
import time

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
REFERENCES = os.path.join(HERE, "references.json")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
OUT_DIR = os.path.join(HERE, "out")

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# Cost tiers of the n = 7 trip-sync query, by strut constant s, as measured
# at the seed commit (cold, one s per interpreter).  Native kites are those
# whose three strut pairs all XOR to s.  A pass runs the tiers in this order.
SWEEP_TIERS = (
    # 1.3-3.9 s, 60-350 MB, 255-619 kites, most of them non-native
    tuple(range(25, 32)) + tuple(range(49, 64)),
    # 8.4-11 s, about 890 MB, 847 kites of which 79 native
    tuple(range(41, 48)),
    # 0.3-0.7 s, at most 36 MB, every kite native
    tuple(range(1, 25)) + tuple(range(32, 41)) + (48,),
)
# How many s one pass draws from each tier.  The middle and dear tiers hold
# the non-native search and most of the time, so they must hold the median
# and the tail rank too: a pass of 12 has 11 of them, the tail rank
# (ten samples beyond) falls on them, and a run that goes on past one pass
# adds middle-tier operations first.
SWEEP_DRAW = (10, 1, 1)

# Per-op wall limit in seconds, spawn and import included: several times
# the slowest seed-commit operation of the workload, so a regression shows
# as slow operations first and only a hang or a collapse as failures.
OP_LIMIT_S = {"census-n6": 30.0, "sweep-n7": 60.0, "verify-all": 30.0}
# No operation starts, and none may run on, past this many seconds into a
# run, so that even a run whose every operation hangs ends in time.
RUN_CAP_S = 140.0
# The fewest samples that have a tail percentile: ten beyond it, and itself.
MIN_SAMPLES = 11

def sweep_draw(seed: int, references: dict) -> list[int]:
    """The s values of one sweep-n7 pass: SWEEP_DRAW[i] from tier i.

    Each tier is ordered by the size of its seed-commit output, which grows
    with the kite count and so with the search's work, and cut into as many
    blocks as values are drawn from it; one s is drawn from each block.  So
    every seed draws the same spread of work, and the medians of two seeds
    compare like with like.
    """
    rng = random.Random(seed)
    drawn = []
    for tier, count in zip(SWEEP_TIERS, SWEEP_DRAW):
        ordered = sorted(tier, key=lambda s: (references[sweep_key(s)]["bytes"], s))
        bounds = [round(i * len(tier) / count) for i in range(count + 1)]
        drawn.extend(rng.choice(ordered[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))
    return drawn


def sweep_key(s: int) -> str:
    return f"tripsync-n7-s{s}"


def pass_jobs(workload: str, seed: int, references: dict) -> list[dict]:
    """The operations of one pass of a workload, in the order they run."""
    if workload == "census-n6":
        return [{"op": "census", "n": 6}]
    if workload == "sweep-n7":
        return [{"op": "tripsync", "n": 7, "s": s} for s in sweep_draw(seed, references)]
    if workload == "verify-all":
        return [{"op": "verify"}]
    raise ValueError(f"unknown workload {workload!r}")


def reference_key(job: dict) -> str:
    if job["op"] == "tripsync":
        return f"tripsync-n{job['n']}-s{job['s']}"
    if job["op"] == "census":
        return f"census-n{job['n']}"
    return "verify"


def check(job: dict, result: dict, references: dict) -> str | None:
    """None when the output matches the reference, else the reason."""
    ref = references.get(reference_key(job))
    if ref is None:
        return f"no reference for {reference_key(job)}"
    if "checks" in ref:
        got = [tuple(pair) for pair in result.get("checks", [])]
        want = [tuple(pair) for pair in ref["checks"]]
        if job["op"] == "verify-sections":
            # Section by section, a run has every check but the fixture
            # coverage one, which only a full run adds.
            want = [pair for pair in want if not pair[0].startswith("coverage/")]
        if got != want:
            return "verify (id, passed) pairs differ from the reference"
        return None
    if (result.get("digest"), result.get("bytes")) != (ref["sha256"], ref["bytes"]):
        return (
            f"output {result.get('bytes')} bytes sha256 {str(result.get('digest'))[:12]}"
            f" differs from the reference {ref['bytes']} bytes {ref['sha256'][:12]}"
        )
    return None


def run_worker(job: dict, limit_s: float) -> dict:
    """Run one job in a fresh interpreter; never raises for the job's faults.

    Returns the worker's result object plus ``setup_s`` (spawn to the end of
    ``import boxkites``) and ``error`` when the worker raised, crashed,
    printed no result or overran ``limit_s``; an overrunning worker is
    killed and reaped before this returns.
    """
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, WORKER, json.dumps(job)],
        cwd=ROOT,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=limit_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"error": f"overran the {limit_s:g} s per-op limit; worker killed"}
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if proc.returncode != 0 or not isinstance(result, dict):
        tail = stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"worker exited {proc.returncode}: {tail[0]}"}
    if result["src"] != os.path.join(ROOT, "src"):
        return {"error": f"measured the boxkites in {result['src']}, not this checkout's"}
    result["setup_s"] = result["ready"] - spawned
    return result


def run_checked(job: dict, limit_s: float, references: dict) -> dict:
    """``run_worker``, then the output check; ``error`` marks any failure."""
    result = run_worker(job, limit_s)
    if "error" not in result:
        reason = check(job, result, references)
        if reason is not None:
            result["error"] = reason
    return result


def tail_percentile(samples: list[float], beyond: int = 10):
    """The highest percentile with at least ``beyond`` samples above it.

    Returns (percentile, value), or None when there are too few samples.
    With the samples sorted, the value of rank r (1-based) has n - r samples
    above it, so the rank is n - beyond and the percentile 100 r / n.
    """
    n = len(samples)
    rank = n - beyond
    if rank < 1:
        return None
    return 100.0 * rank / n, sorted(samples)[rank - 1]


def run_untraced(workload: str, seed: int, seconds: float, references: dict) -> dict:
    """Closed loop of cold operations, cycling through the workload's pass.

    The loop runs for ``seconds``, and on past them until it has made one
    whole pass and MIN_SAMPLES operations, so that a slower program is still
    measured on the same mix of work; RUN_CAP_S bounds it all.
    """
    jobs = pass_jobs(workload, seed, references)
    floor = max(len(jobs), MIN_SAMPLES)
    records = []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        if (elapsed >= seconds and len(records) >= floor) or elapsed >= RUN_CAP_S:
            break
        job = jobs[len(records) % len(jobs)]
        limit = min(OP_LIMIT_S[workload], RUN_CAP_S - elapsed)
        records.append((job, run_checked(job, limit, references)))
    return {"records": records, "wall_s": time.monotonic() - start}


def reference_scale(workload: str, references: dict) -> float:
    """Seed-commit seconds of the workload's mean operation, the same for every seed.

    On sweep-n7 this is the mean over the draw: each tier's mean reference
    time, weighted by how many s a pass draws from it.
    """
    if workload == "sweep-n7":
        total = sum(
            count * statistics.mean(references[sweep_key(s)]["op_s"] for s in tier)
            for tier, count in zip(SWEEP_TIERS, SWEEP_DRAW)
        )
        return total / sum(SWEEP_DRAW)
    (job,) = pass_jobs(workload, 0, references)
    return references[reference_key(job)]["op_s"]


def end_to_end(records: list, references: dict, scale: float) -> tuple[dict, dict]:
    """The end-to-end metrics of a run, and the facts printed beside them.

    Each operation's time is taken relative to its own seed-commit reference
    time, then multiplied by ``scale`` (``reference_scale``) to read in
    seconds.  On census-n6 and verify-all, with one operation each, that is
    the wall time itself.  On sweep-n7 it makes a 0.4 s and a 10 s query
    count alike, so the median and the tail see every drawn tier, and a
    seed's draw does not move them.
    """
    ok = [(job, r) for job, r in records if "error" not in r]
    attempted, failed = len(records), len(records) - len(ok)
    setups = [r["setup_s"] for _, r in records if "setup_s" in r]
    times = [
        r["op_s"] * scale / references[reference_key(job)]["op_s"] for job, r in ok
    ]
    tail = tail_percentile(times)
    # With no successful operation there is no time to report; the run is
    # then not correct, and the times read 0.
    metrics = {
        "setup_s": statistics.median(setups) if setups else 0.0,
        "op_p50_s": statistics.median(times) if times else 0.0,
        "op_tail_s": tail[1] if tail else max(times, default=0.0),
        "peak_rss_mb": max((r["rss_kb"] for _, r in ok), default=0) / 1024,
        "ok_ratio": len(ok) / attempted,
    }
    facts = {
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "samples": len(times),
        "tail_percentile": tail[0] if tail else 100.0,
        "setup_samples": len(setups),
    }
    return metrics, facts


def run_traced(workload: str, seed: int, references: dict) -> tuple[dict, list]:
    """The per-layer metrics, from a few operations run untraced, then traced.

    The operations are the first s drawn from each tier on sweep-n7 and the
    one operation of the other workloads; the untraced runs of the same
    operations give ``trace.overhead_ratio``.  On verify-all one more
    untraced worker times the 12 sections by calling
    ``run_verification([name])`` in order, which keeps the cache sharing
    between sections.
    """
    jobs = pass_jobs(workload, seed, references)
    if workload == "sweep-n7":
        jobs = [jobs[sum(SWEEP_DRAW[:i])] for i in range(len(SWEEP_DRAW))]
    os.makedirs(OUT_DIR, exist_ok=True)
    start = time.monotonic()
    records = []

    def run_capped(job):
        elapsed = time.monotonic() - start
        if elapsed >= RUN_CAP_S:
            result = {"error": f"not started: the run is past {RUN_CAP_S:g} s"}
        else:
            limit = min(2 * OP_LIMIT_S[workload], RUN_CAP_S - elapsed)
            result = run_checked(job, limit, references)
        records.append((job, result))
        return result

    summaries = []
    untraced_s = traced_s = 0.0
    output_bytes = 0
    for i, job in enumerate(jobs):
        plain = run_capped(job)
        spans_path = os.path.join(OUT_DIR, f"spans-{workload}-{i}.tsv")
        traced = run_capped(dict(job, trace=True, trace_id=i, spans_path=spans_path))
        if "error" in plain or "error" in traced:
            continue
        untraced_s += plain["op_s"]
        traced_s += traced["op_s"]
        summaries.append(traced["layers"])
        if job["op"] in ("census", "tripsync"):  # rendered by cmd_emit
            output_bytes += traced["bytes"]
    sections = None
    if workload == "verify-all":
        result = run_capped({"op": "verify-sections"})
        sections = result.get("sections") if "error" not in result else {}
    metrics = spans.layer_metrics(
        spans.merge_summaries(summaries),
        sections,
        output_bytes,
        traced_s / untraced_s if untraced_s else None,
    )
    return metrics, records


def load_references() -> dict:
    with open(REFERENCES) as f:
        return json.load(f)["references"]


def load_benchmark() -> dict:
    """BENCHMARK.json: the workloads, and every metric's unit and direction."""
    with open(BENCHMARK) as f:
        return json.load(f)


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    for name in metrics:
        if not METRIC_NAME.fullmatch(name):
            raise ValueError(f"metric name {name!r} is not [A-Za-z0-9_.-]+")
    return json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    )


def main(argv=None) -> int:
    bench = load_benchmark()
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    parser = argparse.ArgumentParser(description="boxkites benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(why))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "boxkites", "__init__.py")):
        print("error: no boxkites sources under src/ in this checkout", file=sys.stderr)
        return 2
    references = load_references()

    print(f"workload {args.workload} (seed {args.seed}): {why[args.workload]}")
    if args.workload == "sweep-n7":
        print(f"drawn s values: {sweep_draw(args.seed, references)}")
    if args.trace:
        values, records = run_traced(args.workload, args.seed, references)
        declared = bench["per_layer"]
        for m in declared:
            value = values[m["name"]]
            shown = "absent" if value is None else f"{value:.6g} {m['unit']}"
            print(f"  {m['name']} = {shown}")
        # An absent metric reads 0 and is named in the line above; the
        # result line keeps a number for every metric.
        values = {name: 0 if value is None else value for name, value in values.items()}
    else:
        run = run_untraced(args.workload, args.seed, args.seconds, references)
        records = run["records"]
        scale = reference_scale(args.workload, references)
        values, facts = end_to_end(records, references, scale)
        declared = bench["end_to_end"]
        print(
            f"  {facts['attempted']} operations in {run['wall_s']:.1f} s, "
            f"{facts['failed']} failed, failed_ratio = {facts['failed_ratio']:.4g} 1"
        )
        for m in declared:
            print(f"  {m['name']} = {values[m['name']]:.6g} {m['unit']}")
        print(
            f"  op times are relative to each operation's seed reference, times "
            f"{scale:.4g} s; op_tail_s is p{facts['tail_percentile']:.1f} of "
            f"{facts['samples']} samples; setup_s is the median of "
            f"{facts['setup_samples']} cold starts"
        )
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    failures = [(job, r["error"]) for job, r in records if "error" in r]
    for job, error in failures[:5]:
        print(f"  FAILED {json.dumps(job)}: {error}")
    attempted = len(records)
    print(result_line(not failures, attempted, len(failures), metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
