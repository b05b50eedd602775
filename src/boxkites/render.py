"""Deterministic renderers: markdown, CSV, JSON, and DOT for every target.

Most targets build a plain-data payload (dicts, lists, strings) and render
it by a pure function of that payload; the pathion kites and the tripsync
sweep are written kite by kite as they are found, in the layout their
payloads would have, and a DOT graph edge by edge.  Identical
invocations are byte-identical.  JSON table cells use the grammar "0",
"+R", "-R", "+8", "-8", "+X", "-X", "+S", "-S", and signed vertex letters.

``REGISTRY`` is the one list of targets: each entry names how its text is
written, and the request fields it reads and the constraints they must
meet.
"""

from __future__ import annotations

import csv
import io
import json
from collections.abc import Callable, Iterable, Iterator
from itertools import chain
from math import comb

from .emanation import (
    CensusReport,
    _kite_lows,
    _label_kite,
    _Sweep,
    census,
    sweep_range,
    zd_graph,
)
from .fixtures import PATHION_CENSUS_CLAIMS
from .kites import (
    EDGE_LETTER_PAIRS,
    LETTERS,
    STRUT_LETTER_PAIRS,
    Assessor,
    BoxKite,
    _strut_x,
    assessor_lows,
    build_box_kite,
    check_level,
    check_strut,
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
from .record import record

ROMAN = {1: "I", 2: "II", 3: "III", 4: "IV", 5: "V", 6: "VI", 7: "VII"}

FORMATS = ("markdown", "csv", "json", "dot")

# Largest n whose every strut constant is searched on request (the n = 8
# census takes about 0.15 s, its trip-sync sweep about 6-7 s written out as JSON).
# Its 127 x 7,875 = 1,000,125 assessor pairs bound the search of every
# request: its time, not its memory, as the sweep keeps no kite it wrote.
MAX_WHOLE_LEVEL_N = 8
MAX_PAIRS = (2 ** (MAX_WHOLE_LEVEL_N - 1) - 1) * comb(2 ** (MAX_WHOLE_LEVEL_N - 1) - 2, 2)
# The command-line flag that sets each request field, the one place it is named.
FLAGS = {"n": "--dim", "s": "--strut", "strut": "--strut-pair",
         "s_values": "--s-range", "failures_only": "--failures-only"}


def field_readers(name: str) -> list[str]:
    """The targets whose requests read the field ``name``, in registry order."""
    return [key for key, t in REGISTRY.items() if name in t.params]


@record
class RenderSpec:
    """A fully resolved emission request, checked against its target.

    n defaults to the target's ``default_dim`` level.  A target that reads n
    needs n >= 4; every strut constant named must exist at dimension 2^n;
    the search must not exceed the assessor pairs of the largest level
    searched whole; and a field the target does not read must keep its
    default.  Tripsync's s values are kept sorted and distinct, or every s.
    """

    target: str
    format: str = "markdown"
    n: int | None = None
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
        reads = target.params
        level = target.default_dim.bit_length() - 1
        object.__setattr__(self, "n", level if self.n is None else self.n)
        if "n" in reads:
            check_level(self.n)
        if self.format == "dot" and not target.dot:
            graphs = " or ".join(name for name, t in REGISTRY.items() if t.dot)
            raise ValueError(f"dot output renders zero-divisor graphs; use the {graphs} targets")
        n = self.n if "n" in reads else level
        s_values = sweep_range(n, self.s_values) if "s_values" in reads else ()
        if "s" in reads:
            check_strut(self.s, n)
        half = 1 << (n - 1)
        searched = 1 if "s" in reads else len(s_values) or half - 1  # none named: every s
        if "n" in reads and searched * comb(half - 2, 2) > MAX_PAIRS:
            # names n, not the counts: those can pass Python's 4,300-digit limit on int text
            raise ValueError(
                f"target {self.target!r} would search more than {MAX_PAIRS:,} assessor pairs "
                f"at dimension 2^{n}; the largest dimension searched whole is {1 << MAX_WHOLE_LEVEL_N}"
            )
        for name in self._fields:
            default = level if name == "n" else getattr(RenderSpec, name, None)
            if name in FLAGS and name not in reads and getattr(self, name) != default:
                readers = field_readers(name)
                raise ValueError(
                    f"target {self.target!r} reads no {FLAGS[name]} values; only the "
                    f"{' or '.join(readers)} target{'s take' if len(readers) > 1 else ' takes'} them"
                )
        if "s_values" in reads:
            object.__setattr__(self, "s_values", s_values or sweep_range(self.n))


def markdown_table(headers, rows) -> Iterator[str]:
    """The lines of a markdown table, each with its newline; ``rows`` is read
    one row at a time."""
    yield "| " + " | ".join(str(h) for h in headers) + " |\n"
    yield "| " + " | ".join("---" for _ in headers) + " |\n"
    for row in rows:
        yield "| " + " | ".join(str(c) for c in row) + " |\n"


def csv_table(headers, rows) -> Iterator[str]:
    """The lines of a CSV table, as ``markdown_table``."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    for row in chain((headers,), rows):
        writer.writerow(row)
        yield buffer.getvalue()
        buffer.seek(0)
        buffer.truncate()


_TABLES = {"markdown": markdown_table, "csv": csv_table}


def json_text(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


# ---------------------------------------------------------------- payloads

def _vertex_map(bk: BoxKite) -> dict:
    return {p: list(bk.vertex(p).indices) for p in LETTERS}


def box_kite_payload(bk: BoxKite) -> dict:
    edges = [
        {"ends": [p, q], "sign": "+" if sign > 0 else "-"}
        for (p, q), sign in zip(EDGE_LETTER_PAIRS, bk.edge_signs)
    ]
    return {
        "n": bk.n,
        "s": bk.s,
        "vertices": _vertex_map(bk),
        "edges": edges,
        "struts": [list(pair) for pair in STRUT_LETTER_PAIRS],
    }


def parse_box_kite(payload: dict) -> BoxKite:
    """Rebuild a box-kite from its JSON payload, revalidating: the letters A
    to F, each vertex an assessor of level n; a zero divisor on each of the
    twelve edges and none on a strut, the signs recomputed, not read; s a
    strut constant of level n, and X = 2^(n-1) + s carried by every vertex."""
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
    kites = [build_box_kite(s) for s in sweep_range(4)]
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
    reports = [trip_sync_report(build_box_kite(s)) for s in sweep_range(4)]
    rows = [{"s": r.s, "sails": [_sail_payload(sail) for sail in r.sails]} for r in reports]
    return {"n": 4, "rows": rows}


def census_payload(report: CensusReport) -> dict:
    payload = {
        "n": report.n,
        "per_s": {str(s): count for s, count in sorted(report.per_s.items())},
        "total": report.total,
    }
    if report.n == 5:
        claims = PATHION_CENSUS_CLAIMS
        low = [count for s, count in report.per_s.items() if s <= 8]
        high = [count for s, count in report.per_s.items() if s > 8]
        payload["notes"] = [
            f"enumerated: {sum(low)} kites for s <= 8 plus {sum(high)} for s > 8 = {report.total}",
            f"stated grand total {claims['stated_total']} vs componentwise arithmetic "
            f"{len(low)}*{claims['per_s_low']} + {len(high)}*{claims['per_s_high']} = "
            f"{claims['arithmetic_total']}; enumeration agrees with {report.total}",
        ]
    return payload


def dot_zd_graph(n: int, s: int) -> Iterator[str]:
    """DOT text for the zero-divisor graph, built first, a line at a time; vertices named o_hi."""
    graph, x = zd_graph(n, s), _strut_x(n, s)
    vertex = {o: f'"{o}_{o ^ x}"' for o in assessor_lows(s, n)}
    edges = (f'  {vertex[a]} -- {vertex[b]} [sign="{"+" if sign > 0 else "-"}"];\n'
             for a, b, sign in graph.edges())
    return chain([f"graph zd_{n}_{s} {{\n"], (f"  {v};\n" for v in vertex.values()), edges, ["}\n"])


def _kite(spec: RenderSpec) -> BoxKite:
    """The first box-kite of ``find_box_kites``, built alone."""
    lows = next(_kite_lows(spec.n, spec.s), None)
    if lows is None:
        raise ValueError(f"no box-kite found for n={spec.n}, s={spec.s}")
    return _label_kite(spec.n, spec.s, lows)


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


# --------------------------------------------------------------- the sweep
# The tripsync text is written kite by kite as the sweep finds them.  Its
# JSON is what ``json_text`` gives the sweep as data: {"n", "s_values",
# "kites": [{"s", "abc", "passed", "counterexamples"}, ...], "all_passed"},
# and, when ``failures_only`` drops the passing kites, "kite_count", the
# size of the whole sweep.  Its tables hold one row per kite shown and an
# "overall" line.  Each kite's JSON is laid out from these templates of a
# kite and of a counterexample triple: ``json.dumps(..., indent=2)``, pure
# Python when indenting, took 0.66-0.92 s for the 19,313 kites of n = 7
# against 0.07 s, and 28 ms against 3.5 ms for the 847 of n = 7, s = 41
# (Python 3.11, 2 cores).
_KITE_JSON = (
    '    {\n      "s": %d,\n      "abc": [\n        %d,\n        %d,\n        %d\n      ],\n'
    '      "passed": %s,\n      "counterexamples": %s\n    }'
)
_TRIP_JSON = "        [\n          %d,\n          %d,\n          %d\n        ]"


def _sweep_text(spec: RenderSpec) -> Iterator[str]:
    """The tripsync text in chunks, each written as soon as its kite is found."""
    sweep = _Sweep(spec.n, spec.s_values, spec.failures_only)
    if spec.format == "json":
        s_values = ",\n".join(f"    {s}" for s in spec.s_values)  # never empty
        yield f'{{\n  "n": {spec.n},\n  "s_values": [\n{s_values}\n  ],\n  "kites": ['
        separator = "\n"
        for entry in sweep:
            trips = ",\n".join([_TRIP_JSON % trip for trip in entry.counterexamples])
            yield separator + _KITE_JSON % (
                entry.s, *entry.abc_lows, "true" if entry.passed else "false",
                f"[\n{trips}\n      ]" if trips else "[]",
            )
            separator = ",\n"
        tail = "]" if separator == "\n" else "\n  ]"
        tail += f',\n  "all_passed": {"true" if sweep.report.all_passed else "false"}'
        if spec.failures_only:
            tail += f',\n  "kite_count": {sweep.report.kite_count}'
        yield tail + "\n}\n"
        return
    rows = (
        [
            entry.s,
            _joined(entry.abc_lows),
            "pass" if entry.passed else "FAIL",
            "; ".join(_joined(t) for t in entry.counterexamples),
        ]
        for entry in sweep
    )
    yield from _TABLES[spec.format](["s", "ABC", "trip-sync", "counterexamples"], rows)
    report = sweep.report
    yield f"overall: {'pass' if report.all_passed else 'FAIL'} over {report.kite_count} kites\n"


# ------------------------------------------------------------- the pathion
# The pathion text is written kite by kite as ``_kite_lows`` yields them, in
# the order of ``find_box_kites`` and with no kite built.  Its JSON is what
# ``json_text`` gives {"n", "s", "kites": [{"vertices": {letter: [o, hi]}}]},
# each kite laid out from this template; its tables hold one row per kite.
_PATHION_KITE_JSON = '    {\n      "vertices": {\n%s\n      }\n    }' % ",\n".join(
    f'        "{p}": [\n          %d,\n          %d\n        ]' for p in LETTERS
)


def _pathion_text(spec: RenderSpec) -> Iterator[str]:
    """The pathion kites in chunks, each written as soon as it is found."""
    x = _strut_x(spec.n, spec.s)
    kites = _kite_lows(spec.n, spec.s)
    if spec.format != "json":
        rows = ([i, *(f"{o},{o ^ x}" for o in lows)] for i, lows in enumerate(kites, 1))
        yield from _TABLES[spec.format](["Kite", *LETTERS], rows)
        return
    yield f'{{\n  "n": {spec.n},\n  "s": {spec.s},\n  "kites": ['
    separator = "\n"
    for lows in kites:
        yield separator + _PATHION_KITE_JSON % tuple(chain.from_iterable((o, o ^ x) for o in lows))
        separator = ",\n"
    yield ("]" if separator == "\n" else "\n  ]") + "\n}\n"


# ---------------------------------------------------------------- registry

@record
class Target:
    """One emit target: how to write its text, and what a request for it needs."""

    # the text of a request, in chunks; a refusal is raised before it returns
    text: Callable[[RenderSpec], Iterable[str]]
    # the request fields, besides target and format, that the text reads
    params: tuple[str, ...] = ()
    default_dim: int = 16
    dot: bool = False


def _tabulated(payload: Callable[[RenderSpec], dict], blocks: Callable[[dict], list]):
    """The text of a target built whole as a payload: its JSON, or its blocks
    laid out in the requested table format."""

    def text(spec: RenderSpec) -> list[str]:
        data = payload(spec)
        if spec.format == "json":
            return [json_text(data)]
        return [
            block + "\n" if isinstance(block, str) else "".join(_TABLES[spec.format](*block))
            for block in blocks(data)
        ]

    return text


REGISTRY: dict[str, Target] = {
    "strut-table": Target(_tabulated(
        lambda spec: strut_table_payload(),
        lambda p: [(
            ["Box-Kite", "GoTo", *LETTERS],
            [[ROMAN[r["s"]], _joined(r["goto"])] + _vertex_cells(r["vertices"]) for r in p["rows"]],
        )],
    )),
    "box-kite": Target(_tabulated(
        lambda spec: box_kite_payload(_kite(spec)),
        lambda p: [
            (["vertex", "o", "hi"], [[v, *p["vertices"][v]] for v in LETTERS]),
            (["end1", "end2", "sign"], [[*e["ends"], e["sign"]] for e in p["edges"]]),
        ],
    ), ("n", "s"), dot=True),
    "yard": Target(_tabulated(
        lambda spec: table_payload(switching_yard(build_box_kite(spec.s))),
        lambda p: [_lariat_table(p)],
    ), ("s",)),
    "mock": Target(_tabulated(
        lambda spec: table_payload(
            mock_octonion_table(build_box_kite(spec.s), spec.strut), strut=spec.strut
        ),
        lambda p: [_lariat_table(p)],
    ), ("s", "strut")),
    "quizzical": Target(_tabulated(
        lambda spec: quizzical_payload(quizzical_tables(build_box_kite(spec.s))),
        _quizzical_blocks,
    ), ("s",)),
    "sync-table": Target(_tabulated(
        lambda spec: sync_table_payload(),
        lambda p: [(
            ["BK"] + [sail["name"] for sail in p["rows"][0]["sails"]],
            [[ROMAN[r["s"]]] + [_sync_cell(sail) for sail in r["sails"]] for r in p["rows"]],
        )],
    )),
    "pathion": Target(_pathion_text, ("n", "s"), default_dim=32, dot=True),
    "census": Target(
        _tabulated(lambda spec: census_payload(census(spec.n)), _census_blocks), ("n",)
    ),
    "tripsync": Target(_sweep_text, ("n", "s_values", "failures_only")),
}

TARGETS = tuple(REGISTRY)


def emit_chunks(spec: RenderSpec) -> Iterable[str]:
    """The text of one request, in chunks; deterministic byte-for-byte.

    A refusal (ValueError) comes before any text: ``RenderSpec`` checks the
    request, and the targets built whole are built before this returns.  The
    pathion search and the tripsync sweep run as their chunks are read, and
    keep no kite they have written; a DOT graph is built first and written a
    line at a time.
    """
    if spec.format == "dot":
        return dot_zd_graph(spec.n, spec.s)
    return REGISTRY[spec.target].text(spec)


def cmd_emit(spec: RenderSpec) -> str:
    """Render one target; deterministic byte-for-byte."""
    return "".join(emit_chunks(spec))
