"""Tests of the benchmark's own logic.

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

import json
import os
import types

import pytest

import run
import spans

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")


class FakeClock:
    """A clock that advances only when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def leaf(dt):
        clock.now += dt

    traced_leaf = tracer.wrap("leaf", leaf)

    def middle():
        clock.now += 1.0
        traced_leaf(2.0)
        clock.now += 0.5
        traced_leaf(3.0)

    traced_middle = tracer.wrap("middle", middle)

    def root():
        traced_middle()
        clock.now += 4.0
        traced_leaf(1.0)

    tracer.wrap("root", root)()
    stats = tracer.summary()["spans"]
    # root: 11.5 s in all, 6.5 under middle and 1 under a direct leaf.
    assert stats["root"] == {"calls": 1, "self_s": pytest.approx(4.0)}
    # middle: 6.5 s in all, 5 of them under its two leaves.
    assert stats["middle"] == {"calls": 1, "self_s": pytest.approx(1.5)}
    assert stats["leaf"] == {"calls": 3, "self_s": pytest.approx(6.0)}
    # Self times add up to the root span's duration.
    assert sum(s["self_s"] for s in stats.values()) == pytest.approx(11.5)


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def fails():
        clock.now += 2.0
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.wrap("fails", fails)()
    assert tracer.stack == [-1]
    assert tracer.summary()["spans"]["fails"]["self_s"] == pytest.approx(2.0)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile([1.0] * 10) is None
    samples = [float(i) for i in range(1, 12)]  # 11 samples
    pct, value = run.tail_percentile(samples)
    assert (pct, value) == (pytest.approx(100 / 11), 1.0)
    samples = [float(i) for i in range(100, 0, -1)]  # 100 samples, shuffled order
    pct, value = run.tail_percentile(samples)
    assert pct == pytest.approx(90.0)
    assert value == 90.0
    assert sum(s > value for s in samples) == 10


def test_every_declared_metric_is_computed_and_well_formed():
    bench = run.load_benchmark()
    references = run.load_references()
    records = [({"op": "census", "n": 6}, {"op_s": 2.0, "setup_s": 0.1, "rss_kb": 1024})]
    computed, _ = run.end_to_end(records, references, 2.0)
    assert set(computed) == {m["name"] for m in bench["end_to_end"]}
    summary = spans.merge_summaries([spans.Tracer().summary()])
    computed = spans.layer_metrics(summary, None, 0, 1.0)
    assert set(computed) == {m["name"] for m in bench["per_layer"]}
    for w in bench["workloads"]:
        assert run.pass_jobs(w["name"], 1, references)
        assert w["name"] in run.OP_LIMIT_S
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert run.METRIC_NAME.fullmatch(m["name"]), m["name"]
    with pytest.raises(ValueError):
        run.result_line(True, 1, 0, {"bad name": {"value": 1, "unit": "s"}})


def test_missing_layer_function_is_reported_absent():
    def find_box_kites(n, s):
        return ["kite"] * 3

    class BoxKite:  # no assemble
        pass

    modules = {
        "": types.SimpleNamespace(),
        "algebra": types.SimpleNamespace(hc_mul=lambda x, y: x),
        "kites": types.SimpleNamespace(BoxKite=BoxKite),
        "emanation": types.SimpleNamespace(find_box_kites=find_box_kites),
    }
    tracer = spans.Tracer()
    tracer.install(modules)
    assert modules["emanation"].find_box_kites(6, 1) == ["kite"] * 3
    tracer.uninstall()
    assert modules["emanation"].find_box_kites is find_box_kites

    summary = spans.merge_summaries([tracer.summary(blade_sign=None)])
    values = spans.layer_metrics(summary, {"trips": 0.5}, 0, 1.0)
    assert set(values) == {m["name"] for m in run.load_benchmark()["per_layer"]}
    for name in (
        "emanation.label.self_s",
        "emanation.search.candidates",
        "emanation.search.yield",
        "kites.assemble.calls",
        "kites.edge_sign.calls",
        "algebra.blade_sign.calls",
        "lariats.tables.self_s",
        "verify.section.yard_s",
    ):
        assert values[name] is None, name
    assert values["verify.section.trips_s"] == 0.5
    assert values["emanation.search.kites"] == 3
    assert values["algebra.hc_mul.calls"] == 0


def test_sweep_draw_is_seeded_and_stratified():
    references = run.load_references()
    first = run.sweep_draw(7, references)
    assert first == run.sweep_draw(7, references)
    assert first != run.sweep_draw(8, references)
    start = 0
    for tier, count in zip(run.SWEEP_TIERS, run.SWEEP_DRAW):
        assert all(s in tier for s in first[start : start + count])
        start += count
    assert len(first) == sum(run.SWEEP_DRAW)
    assert sorted(s for tier in run.SWEEP_TIERS for s in tier) == list(range(1, 64))
    for s in range(1, 64):
        assert run.sweep_key(s) in references


def test_sweep_times_are_relative_to_each_reference():
    references = run.load_references()
    scale = run.reference_scale("sweep-n7", references)
    assert scale == run.reference_scale("sweep-n7", references)
    # Every drawn s ran 1.5 times as long as at the seed commit, cheap or
    # dear: each reads as 1.5 times the scale.
    records = [
        ({"op": "tripsync", "n": 7, "s": s},
         {"op_s": 1.5 * references[run.sweep_key(s)]["op_s"], "setup_s": 0.1, "rss_kb": 1})
        for s in run.sweep_draw(3, references)
    ]
    metrics, _ = run.end_to_end(records, references, scale)
    assert metrics["op_p50_s"] == pytest.approx(1.5 * scale)
    # Doubling only the middle and dear tiers moves the median and the tail
    # within one pass of 12, the shortest run at the seed commit.
    cheap = set(run.SWEEP_TIERS[-1])
    slowed = [
        (job, r if job["s"] in cheap else dict(r, op_s=2 * r["op_s"])) for job, r in records
    ]
    metrics, _ = run.end_to_end(slowed, references, scale)
    assert metrics["op_p50_s"] == pytest.approx(3.0 * scale)
    assert metrics["op_tail_s"] == pytest.approx(3.0 * scale)
    # On census-n6 the op time is the wall time itself.
    census = run.reference_scale("census-n6", references)
    records = [({"op": "census", "n": 6}, {"op_s": 2.5, "setup_s": 0.1, "rss_kb": 1})]
    assert run.end_to_end(records, references, census)[0]["op_p50_s"] == pytest.approx(2.5)


def test_verify_is_compared_by_id_and_verdict():
    ref = {"verify": {"checks": [["a", True], ["b", True]]}}
    job = {"op": "verify"}
    assert run.check(job, {"checks": [["a", True], ["b", True]]}, ref) is None
    assert run.check(job, {"checks": [["a", True], ["b", False]]}, ref) is not None
    assert run.check(job, {"checks": [["a", True]]}, ref) is not None


def test_corrupted_reference_makes_operations_fail(monkeypatch):
    monkeypatch.setattr(run, "MIN_SAMPLES", 1)
    references = run.load_references()
    checks = references["verify"]["checks"]
    assert len(checks) == 131 and all(passed for _, passed in checks)
    corrupted = dict(references)
    corrupted["verify"] = {"checks": checks[:-1] + [[checks[-1][0], False]]}
    result = run.run_untraced("verify-all", 0, 0.0, corrupted)
    metrics, facts = run.end_to_end(result["records"], corrupted, 1.0)
    assert facts["failed_ratio"] > 0
    assert metrics["ok_ratio"] < 1

    job = {"op": "census", "n": 6}
    good = {"digest": references["census-n6"]["sha256"], "bytes": 464}
    assert run.check(job, good, references) is None
    assert run.check(job, dict(good, bytes=463), references) is not None


def test_overrunning_worker_is_killed_and_counted_failed():
    result = run.run_worker({"op": "census", "n": 6}, limit_s=0.05)
    assert "overran" in result["error"]
    _, facts = run.end_to_end([({"op": "census", "n": 6}, result)], {}, 1.0)
    assert facts["failed"] == 1
