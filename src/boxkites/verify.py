"""Built-in verification: recompute every golden fixture and compare.

Checks are grouped into named sections so the command line can run subsets.
Each check records what was claimed, what was computed, and which fixture
it consumed; a full run asserts that every fixture in the registry was
consumed at least once.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from fractions import Fraction
from functools import cached_property

from . import fixtures
from .algebra import Hypercomplex, Scalar, enumerate_trips, hc_mul, trip_orientation
from .emanation import (
    census,
    find_box_kites,
    pathion_lift,
    sweep_range,
    trip_sync_sweep,
    zd_graph,
)
from .kites import (
    EDGE_LETTER_PAIRS,
    LETTERS,
    BoxKite,
    assessor_lows,
    assessors_for_strut,
    automorpheme,
    build_box_kite,
    goto_numbers,
    octonion_loop_axes,
    sail_six_cycle,
    tray_racks,
    trigram_code,
)
from .lariats import (
    STRUT_SYMBOLS,
    LariatTable,
    NonCollapsibleError,
    matches_octonion_table,
    mock_octonion_table,
    quizzical_tables,
    switching_yard,
    symbol_rep,
    trip_sync_report,
    yard_strut_subtable,
)
from .loops import check_identity, is_quaternion_group, loop_closure, moufang_report
from .record import Fresh, record


@record
class CheckResult:
    check_id: str
    claim: str
    expected: str
    computed: str
    passed: bool
    fixture: str | None = None

    @property
    def section(self) -> str:
        """The section the check's id starts with."""
        return self.check_id.partition("/")[0]

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] {self.check_id}: {self.claim}"


@record(frozen=False)
class VerificationReport:
    sections: tuple[str, ...]
    results: list[CheckResult] = Fresh(list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def counts(self) -> tuple[int, int]:
        good = sum(r.passed for r in self.results)
        return good, len(self.results)

    def lines(self) -> list[str]:
        out = [r.line() for r in self.results]
        good, total = self.counts
        out.append(f"{good}/{total} checks passed")
        return out

    def to_payload(self) -> dict:
        return {
            "sections": list(self.sections),
            "checks": [
                {
                    "id": r.check_id,
                    "section": r.section,
                    "claim": r.claim,
                    "expected": r.expected,
                    "computed": r.computed,
                    "passed": r.passed,
                    "fixture": r.fixture,
                }
                for r in self.results
            ],
            "passed": self.passed,
        }


def _check(
    check_id: str, claim: str, expected, computed, fixture: str | None = None
) -> CheckResult:
    """A check of ``computed`` against ``expected``, passed when they are equal."""
    return CheckResult(
        check_id, claim, str(expected), str(computed), expected == computed, fixture
    )


class _Run:
    """What the sections of one run share, each part built when a section
    first reads it: the seven sedenion box-kites by s, their 21 mock-octonion
    tables and the scale law's symbol representatives.  A section run alone
    builds only the parts it reads, and nothing outlives the run."""

    @cached_property
    def kites(self) -> dict[int, BoxKite]:
        return {s: build_box_kite(s) for s in sweep_range(4)}

    @cached_property
    def mock_tables(self) -> dict[tuple[int, str], LariatTable]:
        return {(s, strut): mock_octonion_table(bk, strut)
                for s, bk in self.kites.items() for strut in STRUT_SYMBOLS}

    @cached_property
    def scaled_reps(self) -> dict[int, dict[Scalar, dict[str, Hypercomplex]]]:
        """By s and k = 1, 1/2: k times the ``symbol_rep`` of each diagonal."""
        out = {}
        for s, bk in self.kites.items():
            reps = {sym: symbol_rep(bk, sym) for sym in sum(STRUT_SYMBOLS.values(), ())}
            out[s] = {k: {sym: k * rep for sym, rep in reps.items()} for k in (1, Fraction(1, 2))}
        return out


# ------------------------------------------------------------- sections

def _section_trips(run: _Run) -> Iterator[CheckResult]:
    for trip in fixtures.O_TRIPS:
        yield _check(
            f"trips/o{''.join(map(str, trip))}",
            f"octonion triple {trip} positively oriented as written",
            1,
            trip_orientation(*trip),
            fixture="O_TRIPS",
        )
    for trip in fixtures.S_TRIPS:
        yield _check(
            f"trips/s{'-'.join(map(str, trip))}",
            f"sedenion triple {trip} positively oriented as written",
            1,
            trip_orientation(*trip),
            fixture="S_TRIPS",
        )
    computed_o = tuple(enumerate_trips(4, "o"))
    yield _check(
        "trips/o-enumeration",
        "enumerated octonion triples equal the canonical seven in order",
        fixtures.O_TRIPS,
        computed_o,
        fixture="O_TRIPS",
    )
    computed_s = set(enumerate_trips(4, "s"))
    yield _check(
        "trips/s-enumeration",
        "enumerated sedenion triples equal the tabled twenty-eight",
        set(fixtures.S_TRIPS),
        computed_s,
        fixture="S_TRIPS",
    )


def _section_fabric(run: _Run) -> Iterator[CheckResult]:
    assessors = {a for s in sweep_range(4) for a in assessors_for_strut(s)}
    yield _check(
        "fabric/assessor-count", "42 assessors at the sedenion level",
        42, len(assessors),
    )
    diagonals = {d for a in assessors for d in (a.slash, a.backslash)}
    yield _check(
        "fabric/diagonal-count", "84 zero-divisor diagonals",
        84, len(diagonals),
    )
    bk = run.kites[1]
    cycle = sail_six_cycle(bk.sail("ABC"), bk.vertex("A").slash)
    computed = tuple(
        tuple((d.assessor.o, d.assessor.hi, d.orientation) for d in step) for step in cycle
    )
    yield _check(
        "fabric/six-cycle",
        "box-kite I ABC circuit reproduces the quoted six-step progression",
        fixtures.SIX_CYCLE_ABC_BK1,
        computed,
        fixture="SIX_CYCLE_ABC_BK1",
    )
    products_zero = all(
        hc_mul(d1.rep, d2.rep).is_zero for d1, d2 in cycle
    )
    yield _check(
        "fabric/six-cycle-zero",
        "every product in the six-step progression is exactly zero",
        True, products_zero, fixture="SIX_CYCLE_ABC_BK1",
    )


def _section_strut_table(run: _Run) -> Iterator[CheckResult]:
    for s, row in fixtures.STRUT_TABLE.items():
        bk = run.kites[s]
        computed = {p: bk.vertex(p).indices for p in LETTERS}
        yield _check(
            f"strut-table/row-{s}-vertices",
            f"strut constant {s}: vertex assessors match the table row",
            row["vertices"], computed, fixture="STRUT_TABLE",
        )
        yield _check(
            f"strut-table/row-{s}-goto",
            f"strut constant {s}: GoTo tuple matches the table row",
            row["goto"], goto_numbers(bk), fixture="STRUT_TABLE",
        )


def _section_edge_signs(run: _Run) -> Iterator[CheckResult]:
    for s, bk in run.kites.items():
        # ABC's and DEF's edges are the negative ones
        computed = {p + q: sign for (p, q), sign in zip(EDGE_LETTER_PAIRS, bk.edge_signs)}
        rule = dict.fromkeys(computed, 1) | dict.fromkeys(("AB", "AC", "BC", "DE", "DF", "EF"), -1)
        yield _check(
            f"edge-signs/bk-{s}",
            f"box-kite {s}: computed signs equal the a-priori rule "
            "(ABC and DEF negative, the rest positive)",
            rule, computed,
        )
    # The closed-form edge signs are checked against the four hc_mul
    # products, with the dichotomy asserted, by the test suite's oracle;
    # here the graphs' edges and struts, non-edges between vertices, are
    # counted for all 7 s from the popcount of their packed adjacency.
    for s in sweep_range(4):
        edges, vertices = zd_graph(4, s).adjacency.bit_count() // 2, len(assessor_lows(s, 4))
        yield _check(
            f"edge-signs/graph-{s}",
            f"strut constant {s}: 12 zero-divisor edges, 3 clean struts",
            (12, 3),
            (edges, vertices * (vertices - 1) // 2 - edges),
        )


def _section_loops(run: _Run) -> Iterator[CheckResult]:
    for trip in fixtures.O_TRIPS:
        axes = automorpheme(trip)
        loop = loop_closure(axes)
        failures = moufang_report(loop)
        yield _check(
            f"loops/automorpheme-{''.join(map(str, trip))}",
            f"automorpheme over {trip} is a 16-element loop failing Moufang",
            (16, True, True),
            (
                len(loop),
                all(cx is not None for cx in failures.values()),
                loop.was_closed,
            ),
            fixture="AUTOMORPHEMES" if trip in fixtures.AUTOMORPHEMES else None,
        )
    for trip, axes in fixtures.AUTOMORPHEMES.items():
        yield _check(
            f"loops/automorpheme-axes-{''.join(map(str, trip))}",
            f"automorpheme axes over {trip} match the quoted seven indices",
            axes, automorpheme(trip), fixture="AUTOMORPHEMES",
        )
    for trip in fixtures.O_TRIPS:
        loop = loop_closure(octonion_loop_axes(trip))
        yield _check(
            f"loops/octonion-copy-{''.join(map(str, trip))}",
            f"octonion-loop copy over {trip} satisfies Moufang",
            (16, True),
            (len(loop), check_identity(loop, "moufang") is None),
        )
    q8_all = all(
        is_quaternion_group(loop_closure(set(t)))
        for t in fixtures.O_TRIPS + fixtures.S_TRIPS
    )
    yield _check(
        "loops/thirty-five-q8",
        "all 35 triples generate associative quaternion-group copies",
        True, q8_all,
    )


def _section_quizzical(run: _Run) -> Iterator[CheckResult]:
    lariats = {s: quizzical_tables(bk) for s, bk in run.kites.items()}
    every = [lariat for tables in lariats.values() for lariat in tables]
    yield _check(
        "quizzical/relations",
        "all 56 sail lariats satisfy x^2 = y^2 = z^2 = xyz = -R",
        (56, True), (len(every), all(lariat.relations_hold for lariat in every)),
    )
    for name, triples in fixtures.QUIZZICAL_TRIPLES.items():
        computed = tuple(t.symbols for t in lariats[1] if t.sail_name == name)
        yield _check(
            f"quizzical/triples-{name}",
            f"sail {name} coherent triples match the quoted blocks",
            triples, computed, fixture="QUIZZICAL_TRIPLES",
        )
    scale_ok = True
    for s, scaled in run.scaled_reps.items():
        for lariat in lariats[s]:
            p, q = lariat.symbols[0], lariat.symbols[1]
            result = lariat.cells[0][1]
            for k, reps in scaled.items():
                lhs = hc_mul(reps[p], reps[q])
                rhs = (2 * k * result.sign) * reps[result.symbol]  # 2 k^2 times the line
                scale_ok = scale_ok and lhs == rhs
    yield _check(
        "quizzical/scale-law",
        "(kP)(kQ) = 2 k^2 times the product line, at k = 1 and k = 1/2",
        True, scale_ok,
    )


def _section_mock(run: _Run) -> Iterator[CheckResult]:
    tables = run.mock_tables
    yield _check(
        "mock/isomorphism",
        "all 21 strut tables are octonion tables under symbol k -> e_k",
        21, sum(map(matches_octonion_table, tables.values())),
    )
    yield _check(
        "mock/bk1-af",
        "box-kite I A-F table matches the printed table cell for cell",
        fixtures.MOCK_OCTONION_AF, tables[1, "AF"].cell_strings(), fixture="MOCK_OCTONION_AF",
    )


def _section_yard(run: _Run) -> Iterator[CheckResult]:
    kites = list(run.kites.values())
    yards = []
    try:
        for bk in kites:
            yards.append(switching_yard(bk))
    except NonCollapsibleError:
        pass
    closure_ok = len(yards) == len(kites)
    cells1 = yards[0].cell_strings() if yards else None
    yield _check(
        "yard/bk1",
        "box-kite I switching yard matches the printed table symbol for symbol",
        fixtures.SWITCHING_YARD, cells1, fixture="SWITCHING_YARD",
    )
    yield _check(
        "yard/zero-count", "exactly 48 annihilating cells",
        48, yards[0].zero_count() if yards else None,
    )
    identical = closure_ok and all(yard.cell_strings() == cells1 for yard in yards[1:])
    yield _check(
        "yard/isomorphic",
        "all 7 yards coincide after letter substitution",
        True, identical,
    )
    yield _check(
        "yard/closure",
        "lariat closure: no non-collapsible product over 7 x 256 cells",
        True, closure_ok,
    )
    subtables_ok = closure_ok and all(
        yard_strut_subtable(yard, strut).cells == run.mock_tables[bk.s, strut].cells
        for bk, yard in zip(kites, yards)
        for strut in STRUT_SYMBOLS
    )
    yield _check(
        "yard/strut-subtables",
        "each yard's three strut slices equal the mock-octonion tables",
        True, subtables_ok,
    )
    codes_ok = all(
        trigram_code(bk) == fixtures.TRIGRAM_UNSWITCHED
        and trigram_code(bk, switched=True) == fixtures.TRIGRAM_SWITCHED
        for bk in kites
    )
    yield _check(
        "yard/trigram-codes",
        "trigram codes match in both switch states for all 7 box-kites",
        True, codes_ok, fixture="TRIGRAM_UNSWITCHED",
    )
    yield _check(
        "yard/trigram-switched",
        "switched trigram codes are the bit complements",
        fixtures.TRIGRAM_SWITCHED,
        {k: "".join("1" if b == "0" else "0" for b in v)
         for k, v in fixtures.TRIGRAM_UNSWITCHED.items()},
        fixture="TRIGRAM_SWITCHED",
    )
    racks_ok = True
    for bk in kites:
        for rack, (letters, signs) in zip(tray_racks(bk), fixtures.TRAY_RACKS):
            racks_ok = racks_ok and rack.letters == letters and rack.edge_signs == signs
    yield _check(
        "yard/tray-racks",
        "tray-rack squares carry the alternating sign patterns",
        True, racks_ok, fixture="TRAY_RACKS",
    )


def _section_sync_table(run: _Run) -> Iterator[CheckResult]:
    for s, row in fixtures.SYNC_TABLE.items():
        report = trip_sync_report(run.kites[s])
        computed = {sail.name: sail.trips for sail in report.sails}
        yield _check(
            f"sync-table/row-{s}-trips",
            f"box-kite {s}: sail triples match the synchronization table",
            row, computed, fixture="SYNC_TABLE",
        )
        yield _check(
            f"sync-table/row-{s}-pattern",
            f"box-kite {s}: zigzag all-positive, trefoils sharing exactly "
            "the ABC octonion",
            True, report.passed,
        )


def _section_pathion(run: _Run) -> Iterator[CheckResult]:
    computed = [a.indices for a in assessors_for_strut(1, 5)]
    yield _check(
        "pathion/s1-assessors",
        "pathion assessors for s=1 match the quoted fourteen pairs",
        sorted(fixtures.PATHION_S1_ASSESSORS), sorted(computed),
        fixture="PATHION_S1_ASSESSORS",
    )
    searched = {s: find_box_kites(5, s) for s in range(1, 10)}
    rows = tuple(tuple(k.vertex(p).o for p in LETTERS) for k in searched[1])
    yield _check(
        "pathion/s1-rows",
        "the seven pathion kites for s=1 match the quoted rows in order",
        fixtures.PATHION_S1_ROWS, rows, fixture="PATHION_S1_ROWS",
    )
    kites9 = searched[9]
    computed9 = tuple(
        {p: k.vertex(p).indices for p in LETTERS} for k in kites9
    )
    yield _check(
        "pathion/s9-kites",
        "the three pathion kites for s=9 match the quoted trio",
        fixtures.PATHION_S9_KITES, computed9, fixture="PATHION_S9_KITES",
    )
    shared = all(
        {k.vertex("B").indices, k.vertex("E").indices} == {(8, 17), (1, 24)}
        for k in kites9
    )
    yield _check(
        "pathion/s9-shared-strut",
        "all three s=9 kites share the strut {(8,17), (1,24)}",
        True, shared, fixture="PATHION_S9_KITES",
    )
    abc8 = sorted(frozenset(k.vertex(p).o for p in "ABC") for k in searched[8])
    yield _check(
        "pathion/s8-otrips",
        "the seven s=8 kites carry each octonion triple as ABC exactly once",
        sorted(frozenset(t) for t in fixtures.O_TRIPS), abc8,
    )
    lifts_ok = True
    for s, bk in run.kites.items():
        lifted = pathion_lift(bk)
        found = {frozenset(k.vertices) for k in searched[s]}
        lifts_ok = lifts_ok and frozenset(lifted.vertices) in found
    yield _check(
        "pathion/lift",
        "every lifted sedenion kite appears among the pathion kites",
        True, lifts_ok,
    )


def _section_census(run: _Run) -> Iterator[CheckResult]:
    report = census(5)
    claims = fixtures.PATHION_CENSUS_CLAIMS
    expected = {s: claims["per_s_low" if s <= 8 else "per_s_high"] for s in sweep_range(5)}
    yield _check(
        "census/n5-per-s",
        f"pathion census: {claims['per_s_low']} kites per s <= 8 and {claims['per_s_high']} per s >= 9",
        expected, report.per_s, fixture="PATHION_CENSUS_CLAIMS",
    )
    yield _check(
        "census/n5-total",
        f"enumerated total {report.total} vs stated {claims['stated_total']} vs arithmetic "
        f"{claims['arithmetic_total']}; the stated figure does not survive enumeration",
        claims["arithmetic_total"], report.total, fixture="PATHION_CENSUS_CLAIMS",
    )
    yield _check(
        "census/n4-total",
        "sedenion census: one kite per strut constant, seven total",
        dict.fromkeys(sweep_range(4), 1), census(4).per_s,
    )


def _section_tripsync(run: _Run) -> Iterator[CheckResult]:
    # No fixture holds n = 6 counts, so the sample's 35 kites per s <= 8 and
    # 7 at s = 17 are written here as literal data, not read from census(6),
    # which counts with the same search the sweep runs.
    kites4, kites5 = len(fixtures.STRUT_TABLE), fixtures.PATHION_CENSUS_CLAIMS["arithmetic_total"]
    for check_id, claim, kites, sweep in (
        ("n4", f"holds on all {kites4} sedenion kites", kites4, trip_sync_sweep(4)),
        ("n5", f"holds on all {kites5} pathion kites", kites5, trip_sync_sweep(5)),
        ("n6-sample", "holds at n=6 for s in 1..8 and 17", 8 * 35 + 7,
         trip_sync_sweep(6, list(range(1, 9)) + [17])),
    ):
        yield _check(f"tripsync/{check_id}", f"trip synchronization {claim}",
                     (kites, True), (sweep.kite_count, sweep.all_passed))


SECTION_RUNNERS: dict[str, Callable[[_Run], Iterator[CheckResult]]] = {
    "trips": _section_trips,
    "fabric": _section_fabric,
    "strut-table": _section_strut_table,
    "edge-signs": _section_edge_signs,
    "loops": _section_loops,
    "quizzical": _section_quizzical,
    "mock": _section_mock,
    "yard": _section_yard,
    "sync-table": _section_sync_table,
    "pathion": _section_pathion,
    "census": _section_census,
    "tripsync": _section_tripsync,
}

SECTIONS = tuple(SECTION_RUNNERS)


def run_verification(sections=None) -> VerificationReport:
    """Run the named sections (default: all), each once in the order first given, plus
    fixture coverage on a full run; an empty list, an unknown name or a bare
    string in place of a list of names is refused."""
    if isinstance(sections, str):
        raise ValueError(f"name the verification sections as a list, not the string {sections!r}")
    selected = SECTIONS if sections is None else tuple(dict.fromkeys(sections))
    unknown = [s for s in selected if s not in SECTION_RUNNERS]
    if unknown:
        raise ValueError(f"unknown verification sections: {unknown}")
    if not selected:
        raise ValueError(f"name at least one verification section of: {','.join(SECTIONS)}")
    report, run = VerificationReport(selected), _Run()
    for name in selected:
        report.results.extend(SECTION_RUNNERS[name](run))
    if set(selected) == set(SECTIONS):
        consumed = {r.fixture for r in report.results if r.fixture}
        report.results.append(
            _check(
                "coverage/fixtures",
                "every registered fixture is consumed by some check",
                sorted(fixtures.REGISTRY), sorted(consumed),
            )
        )
    return report
