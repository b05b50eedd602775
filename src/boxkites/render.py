"""Deterministic renderers: markdown, CSV, JSON, and DOT for every target.

Each builder produces a plain-data payload (dicts, lists, strings) and each
renderer is a pure function of that payload, so identical invocations are
byte-identical.  JSON table cells use the grammar "0", "+R", "-R", "+8",
"-8", "+X", "-X", "+S", "-S", and signed vertex letters.

``REGISTRY`` is the one list of targets: each entry names its payload
builder, the text blocks its markdown and CSV forms are made of, and the
constraints a request for it must meet.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, fields
from math import comb
from typing import Callable

from .emanation import CensusReport, SweepReport, census, find_box_kites, trip_sync_sweep, zd_graph
from .kites import (
    EDGE_LETTER_PAIRS,
    LETTERS,
    STRUT_LETTER_PAIRS,
    Assessor,
    BoxKite,
    build_box_kite,
    goto_numbers,
)
from .lariats import (
    LariatTable,
    QuizzicalLariat,
    mock_octonion_table,
    quizzical_tables,
    switching_yard,
    trip_sync_report,
)

ROMAN = {1: "I", 2: "II", 3: "III", 4: "IV", 5: "V", 6: "VI", 7: "VII"}

FORMATS = ("markdown", "csv", "json", "dot")

# Largest n whose every strut constant is searched on request (the n = 8
# census takes about 4 s).  Its 127 x 7,875 = 1,000,125 assessor pairs
# bound the search of every request.
MAX_WHOLE_LEVEL_N = 8
MAX_PAIRS = (2 ** (MAX_WHOLE_LEVEL_N - 1) - 1) * comb(2 ** (MAX_WHOLE_LEVEL_N - 1) - 2, 2)
# The command-line flag that sets each request field.
_FLAGS = {"n": "--dim", "s": "--strut", "strut": "--strut-pair",
          "s_values": "--s-range", "failures_only": "--failures-only"}


@dataclass(frozen=True)
class RenderSpec:
    """A fully resolved emission request, checked against its target.

    Every strut constant named must exist at dimension 2^n; the search
    must not exceed the assessor pairs of the largest level searched whole;
    and a field the target does not read must keep its default.
    """

    target: str
    format: str = "markdown"
    n: int = 4
    s: int = 1
    strut: str = "AF"
    s_values: tuple[int, ...] = ()
    failures_only: bool = False

    def __post_init__(self) -> None:
        if self.target not in REGISTRY:
            raise ValueError(f"unknown target {self.target!r}")
        if self.format not in FORMATS:
            raise ValueError(f"unknown format {self.format!r}")
        target = REGISTRY[self.target]
        if self.format == "dot" and not target.dot:
            graphs = " or ".join(name for name, t in REGISTRY.items() if t.dot)
            raise ValueError(f"dot output renders zero-divisor graphs; use the {graphs} targets")
        reads = target.params
        half = 1 << (self.n - 1)
        s_values = self.s_values if "s_values" in reads else ()
        if not all(0 < s < half for s in ((self.s,) if "s" in reads else s_values)):
            raise ValueError(
                f"strut constants at dimension {2 * half} lie strictly between 0 and {half}"
            )
        searched = 1 if "s" in reads else len(s_values) or half - 1
        if "n" in reads and searched * comb(half - 2, 2) > MAX_PAIRS:
            raise ValueError(
                f"target {self.target!r} would search {searched} strut constant(s) x "
                f"{comb(half - 2, 2):,} assessor pairs at dimension {2 * half}; the largest "
                f"dimension searched whole is {1 << MAX_WHOLE_LEVEL_N}, {MAX_PAIRS:,} pairs in all"
            )
        for field in fields(self):
            name = field.name
            if name in _FLAGS and name not in reads and getattr(self, name) != field.default:
                readers = [key for key, t in REGISTRY.items() if name in t.params]
                raise ValueError(
                    f"target {self.target!r} reads no {_FLAGS[name]} values; only the "
                    f"{' or '.join(readers)} target{'s take' if len(readers) > 1 else ' takes'} them"
                )


def markdown_table(headers, rows) -> str:
    lines = [
        "| " + " | ".join(str(h) for h in headers) + " |",
        "| " + " | ".join("---" for _ in headers) + " |",
    ]
    for row in rows:
        lines.append("| " + " | ".join(str(c) for c in row) + " |")
    return "\n".join(lines) + "\n"


def csv_table(headers, rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows(rows)
    return buffer.getvalue()


def json_text(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


# ---------------------------------------------------------------- payloads

def _vertex_map(bk: BoxKite) -> dict:
    return {p: list(bk.vertex(p).indices) for p in LETTERS}


def box_kite_payload(bk: BoxKite) -> dict:
    edges = [
        {"ends": [p, q], "sign": "+" if bk.edge(p, q) > 0 else "-"}
        for p, q in EDGE_LETTER_PAIRS
    ]
    return {
        "n": bk.n,
        "s": bk.s,
        "vertices": _vertex_map(bk),
        "edges": edges,
        "struts": [list(pair) for pair in STRUT_LETTER_PAIRS],
    }


def parse_box_kite(payload: dict) -> BoxKite:
    """Rebuild (and revalidate) a box-kite from its JSON payload."""
    vertex_map = {
        letter: Assessor(payload["n"], o, hi)
        for letter, (o, hi) in payload["vertices"].items()
    }
    return BoxKite.assemble(payload["n"], payload["s"], vertex_map)


def table_payload(table: LariatTable, strut: str | None = None) -> dict:
    payload = {
        "n": table.n,
        "s": table.s,
        "symbols": list(table.symbols),
        "cells": [list(row) for row in table.cell_strings()],
    }
    if strut is not None:
        payload["strut"] = strut
    return payload


def quizzical_payload(tables: list[QuizzicalLariat]) -> dict:
    return {
        "n": tables[0].n,
        "s": tables[0].s,
        "lariats": [
            {
                "sail": t.sail_name,
                "symbols": list(t.symbols),
                "cells": [list(row) for row in t.cell_strings()],
                "relations_hold": t.relations_hold,
            }
            for t in tables
        ],
    }


def strut_table_payload() -> dict:
    kites = [build_box_kite(s) for s in range(1, 8)]
    rows = [
        {"s": bk.s, "goto": list(goto_numbers(bk)), "vertices": _vertex_map(bk)}
        for bk in kites
    ]
    return {"n": 4, "rows": rows}


def _sail_payload(sail) -> dict:
    trips = [
        {"trip": list(trip), "orientation": orientation}
        for trip, orientation in zip(sail.trips, sail.orientations)
    ]
    return {"name": sail.name, "trips": trips, "passed": sail.passed}


def sync_table_payload() -> dict:
    reports = [trip_sync_report(build_box_kite(s)) for s in range(1, 8)]
    rows = [{"s": r.s, "sails": [_sail_payload(sail) for sail in r.sails]} for r in reports]
    return {"n": 4, "rows": rows}


def pathion_payload(n: int, s: int) -> dict:
    kites = [{"vertices": _vertex_map(k)} for k in find_box_kites(n, s)]
    return {"n": n, "s": s, "kites": kites}


def census_payload(report: CensusReport) -> dict:
    payload = {
        "n": report.n,
        "per_s": {str(s): count for s, count in sorted(report.per_s.items())},
        "total": report.total,
    }
    if report.n == 5:
        low = sum(count for s, count in report.per_s.items() if s <= 8)
        high = sum(count for s, count in report.per_s.items() if s > 8)
        payload["notes"] = [
            f"enumerated: {low} kites for s <= 8 plus {high} for s > 8 = {report.total}",
            f"stated grand total 84 vs componentwise arithmetic 8*7 + 7*3 = 77; "
            f"enumeration agrees with {report.total}",
        ]
    return payload


def sweep_payload(report: SweepReport, failures_only: bool = False) -> dict:
    """The sweep as data; ``failures_only`` drops the passing kites and
    records the size of the whole sweep as ``kite_count``."""
    payload = {
        "n": report.n,
        "s_values": list(report.s_values),
        "kites": [
            {
                "s": entry.s,
                "abc": list(entry.abc_lows),
                "passed": entry.passed,
                "counterexamples": [list(t) for t in entry.counterexamples],
            }
            for entry in report.entries
            if not (failures_only and entry.passed)
        ],
        "all_passed": report.all_passed,
    }
    if failures_only:
        payload["kite_count"] = report.kite_count
    return payload


def dot_zd_graph(n: int, s: int) -> str:
    """DOT text for the zero-divisor graph; vertices named o_hi."""
    graph = zd_graph(n, s)
    lines = [f'graph zd_{n}_{s} {{']
    for assessor in graph.assessors:
        lines.append(f'  "{assessor.o}_{assessor.hi}";')
    for a1, a2, sign in graph.edges():
        mark = "+" if sign > 0 else "-"
        lines.append(f'  "{a1.o}_{a1.hi}" -- "{a2.o}_{a2.hi}" [sign="{mark}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _kite(spec: RenderSpec) -> BoxKite:
    kites = find_box_kites(spec.n, spec.s)
    if not kites:
        raise ValueError(f"no box-kite found for n={spec.n}, s={spec.s}")
    return kites[0]


# ------------------------------------------------------------- text blocks
# A target's markdown or CSV text is a list of blocks: a (headers, rows)
# pair is one table in that format, a string is one line.

def _joined(values) -> str:
    return " ".join(str(v) for v in values)


def _vertex_cells(vertices: dict) -> list[str]:
    return [f"{vertices[p][0]},{vertices[p][1]}" for p in LETTERS]


def _lariat_table(lariat: dict) -> tuple:
    symbols = lariat["symbols"]
    return ["*"] + symbols, [[sym] + list(row) for sym, row in zip(symbols, lariat["cells"])]


def _quizzical_blocks(payload: dict) -> list:
    blocks = []
    for lariat in payload["lariats"]:
        if blocks:
            blocks.append("")
        blocks += [f"{lariat['sail']}: " + _joined(lariat["symbols"]), _lariat_table(lariat)]
    return blocks


def _sync_cell(sail: dict) -> str:
    return " ".join(
        f"({_joined(t['trip'])})" + ("+" if t["orientation"] > 0 else "-") for t in sail["trips"]
    )


def _census_blocks(payload: dict) -> list:
    rows = [[s, count] for s, count in payload["per_s"].items()] + [["total", payload["total"]]]
    return [(["s", "box-kites"], rows)] + [f"note: {note}" for note in payload.get("notes", [])]


def _sweep_blocks(payload: dict) -> list:
    rows = [
        [
            kite["s"],
            _joined(kite["abc"]),
            "pass" if kite["passed"] else "FAIL",
            "; ".join(_joined(t) for t in kite["counterexamples"]),
        ]
        for kite in payload["kites"]
    ]
    verdict = "pass" if payload["all_passed"] else "FAIL"
    count = payload.get("kite_count", len(payload["kites"]))
    return [
        (["s", "ABC", "trip-sync", "counterexamples"], rows),
        f"overall: {verdict} over {count} kites",
    ]


# ---------------------------------------------------------------- registry

@dataclass(frozen=True)
class Target:
    """One emit target: how to build it, how to lay it out, what it needs."""

    payload: Callable[[RenderSpec], dict]
    blocks: Callable[[dict], list]
    # the request fields, besides target and format, that the payload reads
    params: tuple[str, ...] = ()
    default_dim: int = 16
    dot: bool = False


REGISTRY: dict[str, Target] = {
    "strut-table": Target(
        lambda spec: strut_table_payload(),
        lambda p: [(
            ["Box-Kite", "GoTo", *LETTERS],
            [[ROMAN[r["s"]], _joined(r["goto"])] + _vertex_cells(r["vertices"]) for r in p["rows"]],
        )],
    ),
    "box-kite": Target(
        lambda spec: box_kite_payload(_kite(spec)),
        lambda p: [
            (["vertex", "o", "hi"], [[v, *p["vertices"][v]] for v in LETTERS]),
            (["end1", "end2", "sign"], [[*e["ends"], e["sign"]] for e in p["edges"]]),
        ],
        ("n", "s"), dot=True,
    ),
    "yard": Target(
        lambda spec: table_payload(switching_yard(build_box_kite(spec.s))),
        lambda p: [_lariat_table(p)], ("s",),
    ),
    "mock": Target(
        lambda spec: table_payload(
            mock_octonion_table(build_box_kite(spec.s), spec.strut), strut=spec.strut
        ),
        lambda p: [_lariat_table(p)], ("s", "strut"),
    ),
    "quizzical": Target(
        lambda spec: quizzical_payload(quizzical_tables(build_box_kite(spec.s))),
        _quizzical_blocks, ("s",),
    ),
    "sync-table": Target(
        lambda spec: sync_table_payload(),
        lambda p: [(
            ["BK"] + [sail["name"] for sail in p["rows"][0]["sails"]],
            [[ROMAN[r["s"]]] + [_sync_cell(sail) for sail in r["sails"]] for r in p["rows"]],
        )],
    ),
    "pathion": Target(
        lambda spec: pathion_payload(spec.n, spec.s),
        lambda p: [(
            ["Kite", *LETTERS],
            [[i + 1] + _vertex_cells(kite["vertices"]) for i, kite in enumerate(p["kites"])],
        )],
        ("n", "s"), default_dim=32, dot=True,
    ),
    "census": Target(lambda spec: census_payload(census(spec.n)), _census_blocks, ("n",)),
    "tripsync": Target(
        lambda spec: sweep_payload(
            trip_sync_sweep(spec.n, spec.s_values or None), spec.failures_only
        ),
        _sweep_blocks, ("n", "s_values", "failures_only"),
    ),
}

TARGETS = tuple(REGISTRY)


def cmd_emit(spec: RenderSpec) -> str:
    """Render one target; deterministic byte-for-byte."""
    if spec.format == "dot":
        return dot_zd_graph(spec.n, spec.s)
    target = REGISTRY[spec.target]
    payload = target.payload(spec)
    if spec.format == "json":
        return json_text(payload)
    table = markdown_table if spec.format == "markdown" else csv_table
    return "".join(
        block + "\n" if isinstance(block, str) else table(*block)
        for block in target.blocks(payload)
    )
