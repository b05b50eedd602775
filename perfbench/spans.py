"""Spans around the calls into each boxkites layer, and the per-layer metrics.

A ``Tracer`` replaces a layer's public function, wherever a boxkites module
looks the name up, by a wrapper that records one span per call: name, start,
end and the index of the enclosing span.  Spans stay in memory until the
operation ends; then they are summarised and may be written out.  Nothing
inside the program changes: the wrappers sit on the names the modules
already import from one another, and ``uninstall`` puts the originals back.

A function that no longer exists under its recorded name is skipped and its
metrics are reported absent, so a refactor that renames a layer does not
break the traced run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

PACKAGE = "boxkites"
MODULES = ("algebra", "kites", "emanation", "lariats", "loops", "verify", "render", "cli")

# span name -> (module, attribute) of the wrapped function.  ``blade_sign`` is
# absent on purpose: it is read from its cache statistics, never wrapped,
# because it recurses through its own cache.
TARGETS = {
    "algebra.hc_mul": ("algebra", "hc_mul"),
    "kites.edge_sign": ("kites", "edge_sign"),
    "kites.assemble": ("kites", "BoxKite.assemble"),
    "emanation.zd_graph": ("emanation", "zd_graph"),
    "emanation.search": ("emanation", "find_box_kites"),
    "emanation.label": ("emanation", "_label_kite"),
    "lariats.trip_sync_report": ("lariats", "trip_sync_report"),
    "lariats.yard": ("lariats", "switching_yard"),
    "lariats.mock": ("lariats", "mock_octonion_table"),
    "lariats.quizzical": ("lariats", "quizzical_tables"),
    "loops.moufang_report": ("loops", "moufang_report"),
    "render.cmd_emit": ("render", "cmd_emit"),
}
TABLE_SPANS = ("lariats.yard", "lariats.mock", "lariats.quizzical")

VERIFY_SECTIONS = (
    "trips", "fabric", "strut-table", "edge-signs", "loops", "quizzical",
    "mock", "yard", "sync-table", "pathion", "census", "tripsync",
)

def boxkites_modules() -> dict:
    """The imported boxkites package and its submodules, by short name."""
    modules = {"": sys.modules[PACKAGE]}
    for name in MODULES:
        try:
            modules[name] = importlib.import_module(f"{PACKAGE}.{name}")
        except ModuleNotFoundError:
            pass  # its metrics are reported absent
    return modules


def blade_sign_info() -> dict | None:
    """Calls and distinct arguments of ``blade_sign``, while it is cached."""
    algebra = sys.modules.get(f"{PACKAGE}.algebra")
    info = getattr(getattr(algebra, "blade_sign", None), "cache_info", None)
    if info is None:
        return None
    stats = info()
    return {"calls": stats.hits + stats.misses, "distinct": stats.currsize}


class Tracer:
    """In-memory span recorder for one operation (one trace id)."""

    def __init__(self, trace_id: int = 0, clock=time.perf_counter):
        self.trace_id = trace_id
        self.clock = clock
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.search_kites: dict = {}
        self.installed: set[str] = set()
        self._restore: list = []

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def wrap(self, name: str, fn, observe=None):
        """``fn`` with one span per call; ``observe(args, result)`` after it."""
        name_id = self._name_id(name)
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        stack, clock = self.stack, self.clock

        def traced(*args, **kwargs):
            idx = len(span_start)
            span_name.append(name_id)
            span_parent.append(stack[-1])
            stack.append(idx)
            span_start.append(clock())
            span_end.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return functools.update_wrapper(traced, fn)

    def _observe_search(self, args, result) -> None:
        # Kites per distinct (n, s): a cached repeat call finds nothing new.
        self.search_kites[args] = len(result)

    def install(self, modules: dict) -> None:
        """Wrap every target found in ``modules`` (short name -> module)."""
        for name, (home, attr) in TARGETS.items():
            owner_name, _, leaf = attr.rpartition(".")
            owner = modules.get(home)
            if owner is not None and owner_name:
                owner = getattr(owner, owner_name, None)
            if owner is None or leaf not in vars(owner):
                continue  # reported absent
            original = vars(owner)[leaf]
            observe = self._observe_search if name == "emanation.search" else None
            if owner_name:  # a method, looked up on its class
                if isinstance(original, (classmethod, staticmethod)):
                    wrapped = type(original)(self.wrap(name, original.__func__, observe))
                else:
                    wrapped = self.wrap(name, original, observe)
                self._patch(owner, leaf, original, wrapped)
            else:
                wrapped = self.wrap(name, original, observe)
                for module in modules.values():
                    if vars(module).get(leaf) is original:
                        self._patch(module, leaf, original, wrapped)
            self.installed.add(name)

    def _patch(self, owner, attr: str, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def summary(self, blade_sign: dict | None = None) -> dict:
        """Calls and self time per span name, plus the derived counts."""
        calls, self_s = self_times(
            len(self.names), self.span_name, self.span_parent, self.span_start, self.span_end
        )
        return {
            "spans": {
                name: {"calls": calls[i], "self_s": self_s[i]}
                for i, name in enumerate(self.names)
            },
            "installed": sorted(self.installed),
            "zd_graph_builds": zd_graph_builds(self),
            "search_kites": sum(self.search_kites.values()),
            "blade_sign": blade_sign,
        }

    def write(self, path: str) -> None:
        """Write every span as one tab-separated line."""
        with open(path, "w") as out:
            out.write("trace\tspan\tparent\tname\tstart\tend\n")
            for i in range(len(self.span_start)):
                out.write(
                    f"{self.trace_id}\t{i}\t{self.span_parent[i]}\t"
                    f"{self.names[self.span_name[i]]}\t"
                    f"{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\n"
                )


def self_times(width, span_name, span_parent, span_start, span_end):
    """Per name id below ``width``: (call counts, summed self times).

    A span's self time is its duration minus the time its children cover.
    Spans come from one thread's call stack, so the children of a span never
    overlap one another and the time they cover is the sum of their
    durations.
    """
    count = len(span_start)
    child = [0.0] * count
    for i in range(count):
        parent = span_parent[i]
        if parent >= 0:
            child[parent] += span_end[i] - span_start[i]
    calls = [0] * width
    self_s = [0.0] * width
    for i in range(count):
        calls[span_name[i]] += 1
        self_s[span_name[i]] += span_end[i] - span_start[i] - child[i]
    return calls, self_s


def zd_graph_builds(tracer: Tracer) -> int:
    """zd_graph calls during which edge_sign ran (directly under them)."""
    graph = tracer.name_ids.get("emanation.zd_graph")
    edge = tracer.name_ids.get("kites.edge_sign")
    if graph is None or edge is None:
        return 0
    parents = {
        tracer.span_parent[i]
        for i in range(len(tracer.span_name))
        if tracer.span_name[i] == edge
    }
    return sum(
        1 for p in parents if p >= 0 and tracer.span_name[p] == graph
    )


def merge_summaries(summaries: list[dict]) -> dict:
    """Sum the summaries of several traced operations."""
    spans: dict = {}
    installed = set()
    blade = {"calls": 0, "distinct": 0}
    for summary in summaries:
        installed.update(summary["installed"])
        for name, stats in summary["spans"].items():
            into = spans.setdefault(name, {"calls": 0, "self_s": 0.0})
            into["calls"] += stats["calls"]
            into["self_s"] += stats["self_s"]
        if summary["blade_sign"] is None:
            blade = None
        elif blade is not None:
            blade["calls"] += summary["blade_sign"]["calls"]
            blade["distinct"] += summary["blade_sign"]["distinct"]
    return {
        "spans": spans,
        "installed": sorted(installed),
        "zd_graph_builds": sum(s["zd_graph_builds"] for s in summaries),
        "search_kites": sum(s["search_kites"] for s in summaries),
        "blade_sign": blade if summaries else None,
    }


def layer_metrics(
    summary: dict,
    sections: dict | None,
    output_bytes: int,
    overhead_ratio: float | None,
) -> dict:
    """Every per-layer metric as name -> value, or None when absent.

    BENCHMARK.json gives each metric's unit and direction, and README.md
    which end-to-end metric it should move.

    A metric is absent when a function it is read from no longer exists
    under its recorded name.  A layer that exists but did not run on this
    workload reads 0; ``sections`` is None when the verify sections were
    not timed on this workload.
    """
    spans = summary["spans"]
    installed = set(summary["installed"])

    def calls(name):
        return spans.get(name, {}).get("calls", 0) if name in installed else None

    def self_s(*names):
        if not all(name in installed for name in names):
            return None
        return sum(spans.get(name, {}).get("self_s", 0.0) for name in names)

    def ratio(num, den):
        if num is None or den is None:
            return None
        return num / den if den else 0.0

    blade = summary["blade_sign"]
    graph_calls = calls("emanation.zd_graph")
    builds = summary["zd_graph_builds"] if graph_calls is not None else None
    candidates = calls("emanation.label")
    kites = summary["search_kites"] if "emanation.search" in installed else None
    values = {
        "algebra.blade_sign.calls": blade["calls"] if blade else None,
        "algebra.blade_sign.distinct": blade["distinct"] if blade else None,
        "algebra.hc_mul.calls": calls("algebra.hc_mul"),
        "algebra.hc_mul.self_s": self_s("algebra.hc_mul"),
        "kites.edge_sign.calls": calls("kites.edge_sign"),
        "kites.edge_sign.self_s": self_s("kites.edge_sign"),
        "kites.assemble.calls": calls("kites.assemble"),
        "kites.assemble.self_s": self_s("kites.assemble"),
        "emanation.zd_graph.calls": graph_calls,
        "emanation.zd_graph.builds": builds,
        "emanation.zd_graph.self_s": self_s("emanation.zd_graph"),
        "emanation.graph.reuse": (
            None if builds is None else (1 - builds / graph_calls if graph_calls else 0.0)
        ),
        "emanation.search.self_s": self_s("emanation.search"),
        "emanation.search.candidates": candidates,
        "emanation.search.kites": kites,
        "emanation.search.yield": ratio(kites, candidates),
        "emanation.label.self_s": self_s("emanation.label"),
        "lariats.trip_sync_report.calls": calls("lariats.trip_sync_report"),
        "lariats.trip_sync_report.self_s": self_s("lariats.trip_sync_report"),
        "lariats.tables.self_s": self_s(*TABLE_SPANS),
        "loops.moufang_report.self_s": self_s("loops.moufang_report"),
        "render.cmd_emit.self_s": self_s("render.cmd_emit"),
        "render.output_bytes": output_bytes,
        "trace.overhead_ratio": overhead_ratio,
    }
    for name in VERIFY_SECTIONS:
        key = f"verify.section.{name}_s"
        values[key] = 0.0 if sections is None else sections.get(name)
    return values
