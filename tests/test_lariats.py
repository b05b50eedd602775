"""Lariat products and tables against the printed fixtures."""

from fractions import Fraction
from functools import lru_cache
from math import gcd

import pytest

from boxkites.algebra import Hypercomplex, hc_mul
from boxkites.fixtures import (
    MOCK_OCTONION_AF,
    QUIZZICAL_TRIPLES,
    SWITCHING_YARD,
    SYNC_TABLE,
)
from boxkites.emanation import _kite_lows, _label_kite, find_box_kites
from boxkites.kites import Assessor, BoxKite, build_box_kite
from boxkites.lariats import (
    STRUT_SYMBOLS,
    YARD_SYMBOLS,
    _Lines,
    LariatResult,
    NonCollapsibleError,
    collapse,
    lariat_product,
    matches_octonion_table,
    mock_octonion_table,
    quizzical_tables,
    switching_yard,
    symbol_rep,
    trip_sync_report,
    yard_strut_subtable,
)


def bk1():
    return build_box_kite(1)


class TestLariatProduct:
    def test_diagonal_times_diagonal(self):
        result = lariat_product("F", "a", bk1())
        assert (result.sign, result.symbol, result.scale) == (1, "8", 2)

    def test_unit_times_diagonal(self):
        result = lariat_product("8", "F", bk1())
        assert (result.sign, result.symbol, result.scale) == (1, "a", 1)

    def test_edge_pairings(self):
        # F-E is a "-" edge: opposite orientations annihilate, like ones do not
        assert lariat_product("F", "e", bk1()).is_zero
        assert str(lariat_product("F", "E", bk1())) == "-c"

    def test_square_of_diagonal(self):
        result = lariat_product("A", "A", bk1())
        assert (result.sign, result.symbol, result.scale) == (-1, "R", 2)

    def test_life_line_is_identity(self):
        bk = bk1()
        for sym in YARD_SYMBOLS:
            left = lariat_product("R", sym, bk)
            right = lariat_product(sym, "R", bk)
            assert str(left) == str(right) == f"+{sym}"

    def test_scale_split_by_operand_kind(self):
        bk = bk1()
        units = {"R", "8", "X", "S"}
        for p in YARD_SYMBOLS:
            for q in YARD_SYMBOLS:
                result = lariat_product(p, q, bk)
                if result.is_zero:
                    continue
                expected = 2 if (p not in units and q not in units) else 1
                assert result.scale == expected, (p, q)

    def test_sign_flips_on_reversal(self):
        bk = bk1()
        for p in YARD_SYMBOLS:
            for q in YARD_SYMBOLS:
                if p == q:
                    continue
                forward = lariat_product(p, q, bk)
                backward = lariat_product(q, p, bk)
                if forward.is_zero or forward.symbol == "R" or p == "R" or q == "R":
                    continue
                assert forward.symbol == backward.symbol
                assert forward.sign == -backward.sign, (p, q)

    def test_non_collapsible_raises(self):
        with pytest.raises(NonCollapsibleError):
            collapse(bk1(), Hypercomplex(4, {1: 1, 2: 1}))

    def test_rational_product_collapses(self):
        result = collapse(bk1(), Hypercomplex(4, {0: Fraction(1, 2)}))
        assert result == LariatResult(1, "R", Fraction(1, 2))
        a = bk1().vertex("A")
        result = collapse(bk1(), Hypercomplex(4, {a.o: Fraction(-2, 3), a.hi: Fraction(2, 3)}))
        assert result == LariatResult(-1, "a", Fraction(2, 3))

    def test_rational_non_symbol_raises(self):
        a = bk1().vertex("A")
        for coeffs in ({a.o: Fraction(1, 2), a.hi: Fraction(1, 3)}, {1: Fraction(1, 2), 2: 1}):
            with pytest.raises(NonCollapsibleError):
                collapse(bk1(), Hypercomplex(4, coeffs))

    def test_rational_scale_divides_out(self):
        # k times an exact product collapses to the same cell, k times the scale;
        # an integer product keeps an int scale
        bk = bk1()
        for p in YARD_SYMBOLS:
            for q in YARD_SYMBOLS:
                product = hc_mul(symbol_rep(bk, p), symbol_rep(bk, q))
                base = collapse(bk, product)
                assert type(base.scale) is int
                for k in (Fraction(1, 2), Fraction(3, 2), Fraction(-1, 3)):
                    scaled = collapse(bk, k * product)
                    sign = -base.sign if k < 0 else base.sign
                    assert (scaled.sign, scaled.symbol) == (sign, base.symbol), (p, q, k)
                    assert scaled.scale == abs(k) * base.scale, (p, q, k)

    def test_product_from_another_algebra_refused(self):
        for product in (Hypercomplex(5, {0: 3}), Hypercomplex(3, {0: 1})):
            with pytest.raises(ValueError):
                collapse(bk1(), product)

    def test_unknown_symbol(self):
        with pytest.raises(ValueError):
            lariat_product("G", "R", bk1())

    def test_float_product_refused(self):
        # a float coefficient is refused where the product is built, so
        # collapse never meets one
        with pytest.raises(TypeError, match="index 0 is float"):
            collapse(bk1(), Hypercomplex(4, {0: 0.5}))


class TestMockOctonion:
    def test_bk1_af_matches_printed_table(self):
        table = mock_octonion_table(bk1(), "AF")
        assert table.cell_strings() == MOCK_OCTONION_AF

    def test_quoted_cells(self):
        table = mock_octonion_table(bk1(), "AF")
        assert str(table.cell("8", "X")) == "+S"
        assert str(table.cell("f", "A")) == "-8"

    def test_all_21_isomorphic(self):
        for s in range(1, 8):
            bk = build_box_kite(s)
            for strut in ("AF", "BE", "CD"):
                assert matches_octonion_table(mock_octonion_table(bk, strut)), (s, strut)

    def test_bad_strut_name(self):
        with pytest.raises(ValueError):
            mock_octonion_table(bk1(), "AB")


class TestSwitchingYard:
    def test_bk1_matches_printed_table(self):
        assert switching_yard(bk1()).cell_strings() == SWITCHING_YARD

    def test_zero_count(self):
        assert switching_yard(bk1()).zero_count() == 48

    def test_all_seven_identical_in_symbols(self):
        reference = switching_yard(bk1()).cell_strings()
        for s in range(2, 8):
            assert switching_yard(build_box_kite(s)).cell_strings() == reference

    def test_strut_subtables_equal_mocks(self):
        for s in range(1, 8):
            bk = build_box_kite(s)
            yard = switching_yard(bk)
            for strut in ("AF", "BE", "CD"):
                assert yard_strut_subtable(yard, strut).cells == \
                    mock_octonion_table(bk, strut).cells

    @pytest.mark.parametrize("strut", ["XY", "AB", "FA"])
    def test_bad_strut_refused_alike_by_slice_and_mock(self, strut):
        message = r"strut must be one of \['AF', 'BE', 'CD'\]"
        with pytest.raises(ValueError, match=message):
            yard_strut_subtable(switching_yard(bk1()), strut)
        with pytest.raises(ValueError, match=message):
            mock_octonion_table(bk1(), strut)

    def test_upper_left_quadrant_is_quaternion_table(self):
        yard = switching_yard(bk1())
        sub = tuple(row[:4] for row in yard.cell_strings()[:4])
        assert sub == (
            ("+R", "+8", "+X", "+S"),
            ("+8", "-R", "+S", "-X"),
            ("+X", "-S", "-R", "+8"),
            ("+S", "+X", "-8", "-R"),
        )


class TestQuizzical:
    def test_coherent_triples_match_quoted_blocks(self):
        tables = quizzical_tables(bk1())
        by_sail = {}
        for t in tables:
            by_sail.setdefault(t.sail_name, []).append(t.symbols)
        for name, triples in QUIZZICAL_TRIPLES.items():
            assert tuple(by_sail[name]) == triples

    def test_all_56_satisfy_relations(self):
        count = 0
        for s in range(1, 8):
            for lariat in quizzical_tables(build_box_kite(s)):
                assert lariat.relations_hold, (s, lariat.sail_name, lariat.symbols)
                count += 1
        assert count == 56

    def test_table_cells_are_ijk_shaped(self):
        for lariat in quizzical_tables(bk1()):
            for i in range(3):
                for j in range(3):
                    cell = lariat.cells[i][j]
                    if i == j:
                        assert (cell.sign, cell.symbol) == (-1, "R")
                    else:
                        k = 3 - i - j
                        assert cell.symbol == lariat.symbols[k]

    def test_scale_law_at_k_one_and_half(self):
        for s in range(1, 8):
            bk = build_box_kite(s)
            for lariat in quizzical_tables(bk):
                p, q = lariat.symbols[0], lariat.symbols[1]
                result = lariat_product(p, q, bk)
                for k in (1, Fraction(1, 2)):
                    lhs = hc_mul(k * symbol_rep(bk, p), k * symbol_rep(bk, q))
                    rhs = (2 * k * k * result.sign) * symbol_rep(bk, result.symbol)
                    assert lhs == rhs, (s, p, q, k)


class TestTripSync:
    def test_bk1_abc_all_positive(self):
        report = trip_sync_report(bk1())
        abc = report.sails[0]
        assert abc.name == "ABC"
        assert abc.trips == SYNC_TABLE[1]["ABC"]
        assert abc.orientations == (1, 1, 1, 1)

    def test_bk1_ade_pattern(self):
        report = trip_sync_report(bk1())
        ade = next(s for s in report.sails if s.name == "ADE")
        assert ade.trips == ((3, 4, 7), (3, 13, 14), (10, 4, 14), (10, 13, 7))
        assert ade.orientations == (1, 1, -1, -1)

    def test_bk1_fdb_positive_strip_shares_abc_octonion(self):
        report = trip_sync_report(bk1())
        fdb = next(s for s in report.sails if s.name == "FDB")
        positives = [
            trip
            for trip, orientation in zip(fdb.trips, fdb.orientations)
            if orientation > 0 and trip != fdb.trips[0]
        ]
        assert positives == [(11, 13, 6)]  # contains b = 6, shared with ABC

    def test_all_rows_match_sync_table(self):
        for s, row in SYNC_TABLE.items():
            report = trip_sync_report(build_box_kite(s))
            assert {x.name: x.trips for x in report.sails} == row
            assert report.passed

    def test_result_str(self):
        assert str(LariatResult.ZERO) == "0"
        assert str(LariatResult(-1, "X", 2)) == "-X"


class TestPathionLariats:
    def test_yard_machinery_generalizes_one_level_up(self):
        # not required at 32-D, but the closure is not a 16-D accident:
        # native pathion kites carry the same yard shape
        from boxkites.emanation import find_box_kites

        for s in (1, 9):
            kite = find_box_kites(5, s)[0]
            yard = switching_yard(kite)
            assert yard.zero_count() == 48
            for strut in ("AF", "BE", "CD"):
                assert matches_octonion_table(mock_octonion_table(kite, strut))


@lru_cache(maxsize=None)
def oracle_reps(bk):
    """Each yard symbol's ``symbol_rep``, formed once per kite."""
    return {symbol: symbol_rep(bk, symbol) for symbol in YARD_SYMBOLS}


def collapse_oracle(bk, product):
    """Collapse by comparing the reduced product with +-symbol_rep, in
    YARD_SYMBOLS order: the oracle for the integer lookup in ``lariats``."""
    if product.is_zero:
        return LariatResult.ZERO
    content = gcd(*(abs(c) for c in product.coeffs.values()))
    reduced = Hypercomplex(bk.n, {i: c // content for i, c in product.coeffs.items()})
    for symbol, rep in oracle_reps(bk).items():
        if reduced == rep:
            return LariatResult(1, symbol, content)
        if reduced == -rep:
            return LariatResult(-1, symbol, content)
    raise NonCollapsibleError(f"product {product} is not a scaled yard symbol")


def oracle_cell(bk, *symbols):
    reps = oracle_reps(bk)
    product = reps[symbols[0]]
    for symbol in symbols[1:]:
        product = hc_mul(product, reps[symbol])
    return collapse_oracle(bk, product)


def outcome(compute, *args):
    """What ``compute(*args)`` returns, or the message of the
    NonCollapsibleError it raises."""
    try:
        return compute(*args)
    except NonCollapsibleError as err:
        return str(err)


@lru_cache(maxsize=None)
def oracle_pairs(bk):
    """The outcome of ``oracle_cell`` on every ordered pair of yard symbols."""
    return {(p, q): outcome(oracle_cell, bk, p, q) for p in YARD_SYMBOLS for q in YARD_SYMBOLS}


def oracle_table(bk, symbols):
    """The oracle's cells over ``symbols``, or, read row by row, the first
    non-collapsible cell's message."""
    pairs = oracle_pairs(bk)
    for p in symbols:
        for q in symbols:
            if isinstance(pairs[p, q], str):
                return pairs[p, q]
    return tuple(tuple(pairs[p, q] for q in symbols) for p in symbols)


# the seven sedenion box-kites, every pathion kite at three strut constants,
# the first kite of every n = 6 strut constant, and one more non-native n = 6
# kite (its struts' lows XOR to t = 17, not s = 25)
ORACLE_KITES = (
    [(f"n4-s{s}", build_box_kite(s)) for s in range(1, 8)]
    + [(f"n5-s{s}-{k}", kite) for s in (1, 8, 9) for k, kite in enumerate(find_box_kites(5, s))]
    + [(f"n6-s{s}-0", _label_kite(6, s, next(_kite_lows(6, s)))) for s in range(1, 32)]
    + [("n6-s25-1", find_box_kites(6, 25)[1])]
)


@pytest.mark.parametrize(
    ("label", "bk"), ORACLE_KITES, ids=[label for label, _ in ORACLE_KITES]
)
class TestIntegerKernelAgainstOracle:
    def test_lariat_product(self, label, bk):
        pairs = oracle_pairs(bk)
        for p in YARD_SYMBOLS:
            for q in YARD_SYMBOLS:
                assert outcome(lariat_product, p, q, bk) == pairs[p, q], (p, q)

    def test_switching_yard(self, label, bk):
        # a yard that does not close raises at the oracle's first such cell
        kernel = outcome(lambda: switching_yard(bk).cells)
        assert kernel == oracle_table(bk, YARD_SYMBOLS)

    def test_mock_tables(self, label, bk):
        for strut in ("AF", "BE", "CD"):
            kernel = outcome(lambda: mock_octonion_table(bk, strut).cells)
            assert kernel == oracle_table(bk, YARD_SYMBOLS[:4] + STRUT_SYMBOLS[strut]), strut

    def test_quizzical_tables(self, label, bk):
        for lariat in quizzical_tables(bk):
            symbols = lariat.symbols
            expected = oracle_table(bk, symbols)
            assert lariat.cells == expected, symbols
            triple = oracle_cell(bk, *symbols)
            holds = all(expected[i][i] == LariatResult(-1, "R", 2) for i in range(3))
            holds = holds and (triple.sign, triple.symbol) == (-1, "R")
            assert lariat.relations_hold == holds, symbols
            assert _Lines(bk).product(*symbols) == triple, symbols


def test_oracle_kites_with_open_yards():
    # the non-native kites, whose struts' lows XOR to some t other than s:
    # the first kites of s = 26..31 and the second of s = 25; every other
    # yard closes
    open_yards = [label for label, bk in ORACLE_KITES if isinstance(oracle_table(bk, YARD_SYMBOLS), str)]
    assert open_yards == [f"n6-s{s}-0" for s in range(26, 32)] + ["n6-s25-1"]


@pytest.mark.parametrize(
    ("label", "bk"), ORACLE_KITES, ids=[label for label, _ in ORACLE_KITES]
)
def test_integer_lines_are_the_symbol_reps(label, bk):
    # the product kernel reads each line from the kite's (o, hi) integers
    lines = _Lines(bk)
    for sym in YARD_SYMBOLS:
        assert list(lines.terms(*lines.lines[sym])) == symbol_rep(bk, sym).terms(), sym


def test_kite_off_its_x_refused():
    # refused when built, before any table can read it
    kite = bk1()
    stray = Assessor(4, kite.vertices[0].o, kite.vertices[0].o ^ 10)  # X = 10, not 9
    with pytest.raises(ValueError, match="vertex A = \\(3,9\\) does not carry X = 9"):
        BoxKite(4, 1, (stray,) + kite.vertices[1:])
