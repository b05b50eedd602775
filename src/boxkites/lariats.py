"""Line algebras over a box-kite: products of oriented lines modulo scale.

The tracked entities are whole oriented lines, not unit points.  Sixteen
line symbols attach to a box-kite: R is the positive real axis (the
identity, or life-line), "8" the half-dimension unit (e_8 in the
sedenions), X the unit indexed by the kite's X (8 + s in the sedenions), S
the unit indexed s, and each vertex letter names a
diagonal, upper case for slash (e_o + e_hi) and lower case for backslash
(e_o - e_hi).  A product of two lines is either exactly zero or a positive
multiple of the signed representative of another symbol; the positive scale
(2 for diagonal times diagonal, 1 otherwise) is reported but not part of
the cell value.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .algebra import Hypercomplex, Scalar, TripIndices, blade_sign, trip_orientation
from .kites import (LETTERS, STRUT_LETTER_PAIRS, SYNC_SAIL_ORDER, SYNC_SAILS, BoxKite, Sail,
                    _strut_x, slot_trips)
from .record import record

# Each strut p-q's diagonals in yard order: q slash, p and q backslash, p slash.
STRUT_SYMBOLS = {p + q: (q, p.lower(), q.lower(), p) for p, q in STRUT_LETTER_PAIRS}

# The four units, then each strut's diagonals.
YARD_SYMBOLS = ("R", "8", "X", "S") + sum(STRUT_SYMBOLS.values(), ())


class NonCollapsibleError(ArithmeticError):
    """A product failed to land on zero or a scaled yard symbol."""


def symbol_rep(bk: BoxKite, symbol: str) -> Hypercomplex:
    """Canonical representative of a yard symbol over a box-kite."""
    half = 1 << (bk.n - 1)
    if symbol == "R":
        return Hypercomplex.unit(bk.n, 0)
    if symbol == "8":
        return Hypercomplex.unit(bk.n, half)
    if symbol == "X":
        return Hypercomplex.unit(bk.n, _strut_x(bk.n, bk.s))
    if symbol == "S":
        return Hypercomplex.unit(bk.n, bk.s)
    if symbol.upper() in "ABCDEF" and len(symbol) == 1:
        assessor = bk.vertex(symbol.upper())
        return (assessor.slash if symbol.isupper() else assessor.backslash).rep
    raise ValueError(f"unknown yard symbol {symbol!r}")


@record
class LariatResult:
    """Zero, or a signed symbol together with the positive scale divided out."""

    sign: int
    symbol: str | None
    scale: Scalar

    ZERO = None  # populated below

    @property
    def is_zero(self) -> bool:
        return self.symbol is None

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        return f"{'+' if self.sign > 0 else '-'}{self.symbol}"


LariatResult.ZERO = LariatResult(0, None, 0)


class _Lines:
    """A box-kite's yard symbols as integer lines, and the way back.

    Each symbol representative is c e_k + d e_(k^X) with k < 2^(n-1), held in
    ``lines`` as (k, c, d) from the kite's lows, as ``BoxKite`` holds every
    vertex's high at o ^ X.  Such lines
    multiply to such lines: e_k e_m and e_K e_M land on k ^ m, e_k e_M and
    e_K e_m on k ^ m ^ X (K = k ^ X, M = m ^ X).  As k stays a low, the line
    itself is canonical: ``lookup`` maps every signed representative (k, c, d)
    to (sign, symbol), the first in YARD_SYMBOLS order winning, and ``cell``
    collapses an integer line by one gcd and one lookup, once per line.
    Nothing here is sized by 2^n: only signs of index pairs are read.
    """

    def __init__(self, bk: BoxKite) -> None:
        self.n = bk.n
        self.x = _strut_x(bk.n, bk.s)
        self.lines = {"R": (0, 1, 0), "8": (bk.s, 0, 1), "X": (0, 0, 1), "S": (bk.s, 1, 0)}
        for letter, v in zip(LETTERS, bk.vertices):
            self.lines[letter], self.lines[letter.lower()] = (v.o, 1, 1), (v.o, 1, -1)
        self.lookup: dict[tuple[int, int, int], tuple[int, str]] = {}
        for sym in YARD_SYMBOLS:
            k, c, d = self.lines[sym]
            self.lookup.setdefault((k, c, d), (1, sym))
            self.lookup.setdefault((k, -c, -d), (-1, sym))
        self.cells: dict[tuple[int, int, int], LariatResult] = {}

    def terms(self, k: int, c: int, d: int) -> tuple[tuple[int, int], ...]:
        """The nonzero (index, coeff) terms of c e_k + d e_(k^X), sorted."""
        return tuple((i, a) for i, a in ((k, c), (k ^ self.x, d)) if a)

    def cell(self, k: int, c: int, d: int) -> LariatResult:
        """The integer line c e_k + d e_(k^X) as zero or a scaled symbol."""
        cell = self.cells.get((k, c, d))
        if cell is None:
            if not (c or d):
                cell = LariatResult.ZERO
            else:
                g = gcd(c, d)
                try:
                    sign, symbol = self.lookup[k, c // g, d // g]
                except KeyError:
                    product = Hypercomplex(self.n, dict(self.terms(k, c, d)))
                    raise NonCollapsibleError(
                        f"product {product} is not a scaled yard symbol"
                    ) from None
                cell = LariatResult(sign, symbol, g)
            self.cells[k, c, d] = cell
        return cell

    def times(self, line: tuple[int, int, int],
              columns: list[tuple[int, int, int, int]]) -> list[tuple[int, int, int]]:
        """The integer line (k, c, d) times each column line (m, m ^ X, e, f),
        uncollapsed: four ``blade_sign`` calls each, the one line-product rule."""
        k, c, d = line
        big_k = k ^ self.x
        return [(k ^ m,
                 c * e * blade_sign(k, m) + d * f * blade_sign(big_k, big_m),
                 c * f * blade_sign(k, big_m) + d * e * blade_sign(big_k, m))
                for m, big_m, e, f in columns]

    def product(self, *symbols: str) -> LariatResult:
        """Left-to-right product of yard lines, collapsed once at the end."""
        try:
            line, *rest = [self.lines[sym] for sym in symbols]
        except KeyError as err:
            raise ValueError(f"unknown yard symbol {err.args[0]!r}") from None
        for m, e, f in rest:
            (line,) = self.times(line, [(m, m ^ self.x, e, f)])
        return self.cell(*line)


def collapse(bk: BoxKite, product: Hypercomplex) -> LariatResult:
    """Reduce an exact product to a yard cell: strip positive content, match.

    The content of a rational product is the gcd of its numerators over the
    lcm of its denominators; it stays an int when every coefficient is one.
    Scaled by that lcm, the product is an integer line, collapsed as a table
    cell is.

    Raises ValueError when the product lives in another algebra than the
    box-kite, and NonCollapsibleError when the reduced product is not plus or
    minus the representative of any yard symbol, which would break lariat
    closure.
    """
    if product.dim_exponent != bk.n:
        raise ValueError(
            f"product lives in 2^{product.dim_exponent}-ions, box-kite in 2^{bk.n}-ions"
        )
    coeffs = product.coeffs
    if not coeffs:
        return LariatResult.ZERO
    lines, i = _Lines(bk), min(coeffs)
    k = i if i < 1 << (bk.n - 1) else i ^ lines.x  # the low of the line through e_i
    if not coeffs.keys() <= {k, k ^ lines.x}:
        raise NonCollapsibleError(f"product {product} is not a scaled yard symbol")
    den = lcm(*(c.denominator for c in coeffs.values()))
    cell = lines.cell(k, int(coeffs.get(k, 0) * den), int(coeffs.get(k ^ lines.x, 0) * den))
    return cell if den == 1 else LariatResult(cell.sign, cell.symbol, Fraction(cell.scale, den))


def lariat_product(p: str, q: str, bk: BoxKite) -> LariatResult:
    """Product of two yard lines, collapsed to zero or a signed symbol."""
    return _Lines(bk).product(p, q)


@record
class LariatTable:
    """Square multiplication table over line symbols."""

    n: int
    s: int
    symbols: tuple[str, ...]
    cells: tuple[tuple[LariatResult, ...], ...]

    def cell(self, row: str, col: str) -> LariatResult:
        return self.cells[self.symbols.index(row)][self.symbols.index(col)]

    def cell_strings(self) -> tuple[tuple[str, ...], ...]:
        return tuple(tuple(str(cell) for cell in row) for row in self.cells)

    def zero_count(self) -> int:
        return sum(cell.is_zero for row in self.cells for cell in row)


def _cells(lines: _Lines, symbols: tuple[str, ...]) -> tuple[tuple[LariatResult, ...], ...]:
    """Every row-times-column product over ``symbols``, the cells of a line table:
    a row's lines from ``_Lines.times``, each read from the memo of collapsed
    lines or, the first time it is met, collapsed by ``cell``."""
    x, cell, memo = lines.x, lines.cell, lines.cells
    columns = [(m, m ^ x, e, f) for m, e, f in map(lines.lines.__getitem__, symbols)]
    return tuple(
        tuple([memo.get(line) or cell(*line) for line in lines.times(lines.lines[p], columns)])
        for p in symbols
    )


def switching_yard(bk: BoxKite) -> LariatTable:
    """The full 16 x 16 line table pairing a box-kite with its 8-ball."""
    return LariatTable(bk.n, bk.s, YARD_SYMBOLS, _cells(_Lines(bk), YARD_SYMBOLS))


def _strut_symbols(strut: str) -> tuple[str, ...]:
    """The symbol sequence (R, 8, X, S, P, q, p, Q) of one strut pair."""
    if strut not in STRUT_SYMBOLS:
        raise ValueError(f"strut must be one of {sorted(STRUT_SYMBOLS)}")
    return YARD_SYMBOLS[:4] + STRUT_SYMBOLS[strut]


def mock_octonion_table(bk: BoxKite, strut: str = "AF") -> LariatTable:
    """8 x 8 line table over one strut pair plus the 8-ball units.

    In the symbol sequence (R, 8, X, S, P, q, p, Q) the table is cell for
    cell the octonion table under symbol k -> e_k.
    """
    symbols = _strut_symbols(strut)
    return LariatTable(bk.n, bk.s, symbols, _cells(_Lines(bk), symbols))


def matches_octonion_table(table: LariatTable) -> bool:
    """Cell-for-cell match with the octonion table under symbol k -> e_k."""
    if len(table.symbols) != 8:
        return False
    for i in range(8):
        for j in range(8):
            cell = table.cells[i][j]
            if cell.is_zero:
                return False
            if cell.sign != blade_sign(i, j) or cell.symbol != table.symbols[i ^ j]:
                return False
    return True


def yard_strut_subtable(yard: LariatTable, strut: str) -> LariatTable:
    """The 8 x 8 slice of a switching yard for one strut pair."""
    symbols = _strut_symbols(strut)
    idx = [YARD_SYMBOLS.index(sym) for sym in symbols]
    cells = tuple(tuple(yard.cells[i][j] for j in idx) for i in idx)
    return LariatTable(yard.n, yard.s, symbols, cells)


# Quizzical case rule: walking a sail cycle, the case stays the same across
# "-" edges and flips across "+" edges (of the unswitched signs), giving two
# coherent triples per sail.
def _coherent_triples(sail: Sail) -> tuple[tuple[str, ...], tuple[str, ...]]:
    letters = list(sail.name)
    cases = [True]  # True = upper case (slash)
    for i in range(2):
        same = sail.edge_signs[i] < 0
        cases.append(cases[-1] if same else not cases[-1])
    # Consistency around the cycle needs an odd number of "-" edges.
    if (cases[2] if sail.edge_signs[2] < 0 else not cases[2]) != cases[0]:
        raise AssertionError(f"sail {sail.name} admits no coherent case assignment")
    first = tuple(x if up else x.lower() for x, up in zip(letters, cases))
    second = tuple(x.lower() if up else x for x, up in zip(letters, cases))
    return first, second


@record
class QuizzicalLariat(LariatTable):
    """One quaternion-shaped sail lariat: x^2 = y^2 = z^2 = xyz = -R."""

    sail_name: str
    relations_hold: bool


def quizzical_tables(bk: BoxKite) -> list[QuizzicalLariat]:
    """The eight sail lariats of a box-kite, two coherent triples per sail."""
    lines = _Lines(bk)
    lariats = []
    for name in SYNC_SAIL_ORDER:
        for symbols in _coherent_triples(bk.sail(name)):
            cells = _cells(lines, symbols)
            triple = lines.product(*symbols)
            holds = all(cells[i][i] == LariatResult(-1, "R", 2) for i in range(3))
            holds = holds and triple.sign == -1 and triple.symbol == "R"
            lariats.append(QuizzicalLariat(bk.n, bk.s, symbols, cells, name, holds))
    return lariats


@record
class SailSync:
    """Orientation bookkeeping for the four triples attached to one sail."""

    name: str
    trips: tuple[TripIndices, TripIndices, TripIndices, TripIndices]
    orientations: tuple[int, int, int, int]
    expected: tuple[int, int, int, int]

    @property
    def passed(self) -> bool:
        return self.orientations == self.expected

    def counterexamples(self) -> tuple[TripIndices, ...]:
        return tuple(
            trip
            for trip, got, want in zip(self.trips, self.orientations, self.expected)
            if got != want
        )


@record
class TripSyncReport:
    """Per-sail orientation pattern check for one box-kite.

    The all-minus sail must carry four positively oriented triples; each
    other sail must carry exactly two, the base triple and the mixed triple
    that keeps the low index of the vertex shared with the all-minus sail.
    """

    n: int
    s: int
    sails: tuple[SailSync, ...]

    @property
    def abc_lows(self) -> TripIndices:
        """The ABC sail comes first, and its first slot triple is its low indices."""
        return self.sails[0].trips[0]

    @property
    def passed(self) -> bool:
        return all(sail.passed for sail in self.sails)


def trip_sync_report(bk: BoxKite) -> TripSyncReport:
    """The ``kites.SYNC_SAILS`` pattern checked on one kite, sail by sail."""
    sails = []
    for name, vertices, expected in SYNC_SAILS:
        trips = slot_trips([v.indices for v in vertices(bk.vertices)])
        orientations = tuple(trip_orientation(*t) for t in trips)
        sails.append(SailSync(name, trips, orientations, expected))
    return TripSyncReport(bk.n, bk.s, tuple(sails))
