"""Box-kite structure: assessors, zero-divisor edges, sails, and their codes.

An assessor is a plane spanned by a low unit e_o and a high unit e_hi with
o xor hi = X, where X = 2^(n-1) + s for strut constant s.  Its two diagonals
e_o + e_hi (slash) and e_o - e_hi (backslash) carry the primitive zero
divisors.  Six assessors sharing a strut constant assemble into an
octahedron (a box-kite) whose twelve edges carry mutual zero divisors and
whose three antipodal pairs (struts) carry none.

X is computed from (n, s) here alone, by ``_strut_x``; ``Assessor.s`` is its
inverse.  A ``BoxKite`` of (n, s) refuses, however it is built, any vertex
whose X is not X(n, s); as X lies between 2^(n-1) and 2^n, that also
refuses a vertex of another level.  Its constructor alone computes a kite's
12 edge signs and checks its 3 struts by ``edge_rule``, on four signs per
vertex pair: read from the level's sign table when ``algebra`` holds it,
as it does after a search of that level, else from ``blade_sign``.

Vertex letters: F, E, D sit at the opposite ends of the struts from A, B,
C respectively, and (a, b, c), the low indices of A, B, C, is a positively
oriented triple starting at the smallest index.  A sail is a zigzag when its
three edges are all "-", and a trefoil otherwise.  One rule picks the sail
A, B, C: the zigzag sail with the least low triple or, on a kite with none
(168 of 1,113 at n = 6), the least sail (``emanation.find_box_kites``, any
n).  At n = 4 every kite has one zigzag, the strut terminals, so
``build_box_kite`` names each kite as the search does.  With its lows in
ASO order, a sail's four slot triples are all positively oriented exactly
when it is a zigzag (proved at ``emanation._kite_lows``), so the edge
signs alone decide.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, permutations
from operator import itemgetter

from .algebra import (
    Hypercomplex,
    TripIndices,
    aso_form,
    blade_sign,
    enumerate_trips,
    hc_mul,
    held_sign_table,
    trip_orientation,
)

SLASH = 1
BACKSLASH = -1

LETTERS = ("A", "B", "C", "D", "E", "F")
STRUT_LETTER_PAIRS = (("A", "F"), ("B", "E"), ("C", "D"))
# The twelve edges: every letter pair but the struts, in letter order, which
# is also the order of ``BoxKite.edge_signs``.
EDGE_LETTER_PAIRS = tuple(
    pair for pair in combinations(LETTERS, 2) if pair not in STRUT_LETTER_PAIRS
)
# The letter indices of each edge's and each strut's ends, in their pairs' order.
_EDGE_ENDS = tuple(tuple(map(LETTERS.index, pair)) for pair in EDGE_LETTER_PAIRS)
_STRUT_ENDS = tuple(tuple(map(LETTERS.index, pair)) for pair in STRUT_LETTER_PAIRS)
# Each edge's position in ``BoxKite.edge_signs``, under both spellings.
_EDGE_POSITION = {
    pair: i for i, (p, q) in enumerate(EDGE_LETTER_PAIRS) for pair in ((p, q), (q, p))
}
# The four sails, in the order of ``BoxKite.sails`` and the GoTo tuple.
SAIL_LETTERS = ("ABC", "ADE", "FDB", "FCE")
# Order used by the trip-synchronization tabulation and the quizzical blocks.
SYNC_SAIL_ORDER = ("ABC", "ADE", "FCE", "FDB")
# Trip sync: each sync-order sail, a getter for its vertices from the six in
# letter order, and the orientations its slot triples must show: the low
# triple is positive, a mixed one iff it keeps a low of A, B or C.
SYNC_SAILS = tuple(
    (name, itemgetter(*map(LETTERS.index, name)),
     (1,) + tuple(1 if letter in "ABC" else -1 for letter in name))
    for name in SYNC_SAIL_ORDER
)
# Every spelling of a sail: its three letters in any order.
_SAIL_SPELLINGS = frozenset("".join(p) for name in SAIL_LETTERS for p in permutations(name))


@dataclass(frozen=True)
class Assessor:
    """Index pair (o, hi) with o xor hi = 2^(n-1) + s, for n >= 4 and 0 < s < 2^(n-1)."""

    n: int
    o: int
    hi: int

    def __post_init__(self) -> None:
        check_level(self.n)
        half = 1 << (self.n - 1)
        if not (0 < self.o < half):
            raise ValueError(f"low index {self.o} out of range for n={self.n}")
        if not (half < self.hi < 2 * half):
            raise ValueError(f"high index {self.hi} out of range for n={self.n}")
        check_strut(self.s, self.n)

    @property
    def x(self) -> int:
        return self.o ^ self.hi

    @property
    def s(self) -> int:
        return self.x ^ (1 << (self.n - 1))

    def diagonal(self, orientation: int) -> "Diagonal":
        return Diagonal(self, orientation)

    @property
    def slash(self) -> "Diagonal":
        return Diagonal(self, SLASH)

    @property
    def backslash(self) -> "Diagonal":
        return Diagonal(self, BACKSLASH)

    @property
    def indices(self) -> tuple[int, int]:
        return (self.o, self.hi)

    def __str__(self) -> str:
        return f"({self.o},{self.hi})"


@dataclass(frozen=True)
class Diagonal:
    """Oriented diagonal of an assessor; the representative fixes +1 on e_o."""

    assessor: Assessor
    orientation: int

    def __post_init__(self) -> None:
        if self.orientation not in (SLASH, BACKSLASH):
            raise ValueError("orientation must be +1 (slash) or -1 (backslash)")

    @property
    def rep(self) -> Hypercomplex:
        a = self.assessor
        return Hypercomplex(a.n, {a.o: 1, a.hi: self.orientation})

    def __str__(self) -> str:
        return f"{self.assessor}{'/' if self.orientation == SLASH else chr(92)}"


def check_level(n: int) -> None:
    """Refuse a dimension exponent below the sedenions, which have no assessors."""
    if n < 4:
        raise ValueError("zero-divisor structure starts at the sedenions: n must be at least 4 "
                         f"(dimension 16); got n = {n}")


def check_strut(s: int, n: int) -> None:
    """Refuse a strut constant outside 0 < s < 2^(n-1), at a level ``check_level`` passes."""
    half = 1 << (n - 1)
    if not 0 < s < half:
        raise ValueError(f"strut constants at dimension {2 * half} lie strictly between 0 and {half}")


def assessor_lows(s: int, n: int = 4) -> list[int]:
    """The lows of the assessors of (n, s), ascending: every 0 < o < 2^(n-1) but s."""
    check_level(n)
    check_strut(s, n)
    return [o for o in range(1, 1 << (n - 1)) if o != s]


def _strut_x(n: int, s: int) -> int:
    """X = 2^(n-1) + s, the index XOR of every assessor of (n, s)."""
    return (1 << (n - 1)) + s


def assessors_for_strut(s: int, n: int = 4) -> list[Assessor]:
    """The 2^(n-1) - 2 assessors owned by strut constant s, ascending by o."""
    lows = assessor_lows(s, n)
    x = _strut_x(n, s)
    return [Assessor(n, o, o ^ x) for o in lows]


def is_zero_divisor_pair(d1: Diagonal, d2: Diagonal) -> bool:
    """True iff the two diagonal representatives multiply to exactly zero."""
    if d1.assessor.n != d2.assessor.n:
        raise ValueError("diagonals live in different algebras")
    return hc_mul(d1.rep, d2.rep).is_zero


def edge_rule(ab: int, big_ab: int, a_big_b: int, big_a_b: int) -> int | None:
    """Edge sign of assessors (a, A) and (b, B) sharing X, or None.

    Takes the signs of e_a*e_b, e_A*e_B, e_a*e_B and e_A*e_b, each as 1 (or
    True) when negative.  The product (e_a + sigma e_A)(e_b + tau e_B) lands
    on a^b and a^B = A^b only; it vanishes iff sgn(a,b) sgn(A,B) = sgn(a,B)
    sgn(A,b) and sigma tau = -sgn(a,b) sgn(A,B).
    """
    direct_negative = ab ^ big_ab
    if direct_negative != a_big_b ^ big_a_b:
        return None
    return 1 if direct_negative else -1


def edge_sign(a1: Assessor, a2: Assessor) -> int | None:
    """Edge sign between two assessors, or None when no pairing annihilates.

    "+" means like-oriented diagonals multiply to zero, "-" means oppositely
    oriented ones do.  Assessors sharing X follow ``edge_rule``; different X
    spread the product over four indices, so it never vanishes.  The tests
    check this against the four ``hc_mul`` products.
    """
    if a1.n != a2.n:
        raise ValueError("diagonals live in different algebras")
    a, big_a, b, big_b = a1.o, a1.hi, a2.o, a2.hi
    if a == b or a ^ big_a != b ^ big_b:
        return None
    return edge_rule(
        blade_sign(a, b) < 0,
        blade_sign(big_a, big_b) < 0,
        blade_sign(a, big_b) < 0,
        blade_sign(big_a, b) < 0,
    )


class _BladeRow:
    """Row a of any level's sign table, read from ``blade_sign`` an item at a
    time: item b is True iff e_a * e_b < 0, as byte b of a table row is 1."""

    __slots__ = ("a",)

    def __init__(self, a: int) -> None:
        self.a = a

    def __getitem__(self, b: int) -> bool:
        return blade_sign(self.a, b) < 0


def slot_trips(ends) -> tuple[TripIndices, TripIndices, TripIndices, TripIndices]:
    """The four index triples a sail circuit touches, in slot order.

    ``ends`` holds the (low, high) index pairs of the sail's three vertices.
    First the three low indices, then the three mixed triples that keep
    exactly one slot's low index and swap the other two slots to their highs.
    """
    (l0, h0), (l1, h1), (l2, h2) = ends
    return ((l0, l1, l2), (l0, h1, h2), (h0, l1, h2), (h0, h1, l2))


@dataclass(frozen=True)
class Sail:
    """Three mutually zero-dividing vertices of a box-kite, in slot order."""

    name: str
    vertices: tuple[Assessor, Assessor, Assessor]
    edge_signs: tuple[int, int, int]  # (v0-v1, v1-v2, v2-v0)

    @property
    def kind(self) -> str:
        return "zigzag" if all(s < 0 for s in self.edge_signs) else "trefoil"

    def trips(self) -> tuple[TripIndices, ...]:
        return slot_trips([v.indices for v in self.vertices])


@dataclass(frozen=True)
class BoxKite:
    """Octahedron of six assessors, checked here alone however it is built.

    Every vertex carries X = 2^(n-1) + s; each of the 12 edges carries a zero
    divisor, its sign kept in ``edge_signs``, and none of the 3 struts does.  A
    kite is refused otherwise, and when n is below the sedenions or s is no strut
    constant.  Each of the 15 vertex pairs is judged by ``edge_rule`` on rows of
    the level's sign table when ``held_sign_table`` has it, else on rows read
    from ``blade_sign``: the check builds no table, so a kite of n = 40 builds.
    """

    n: int
    s: int
    vertices: tuple[Assessor, Assessor, Assessor, Assessor, Assessor, Assessor]
    edge_signs: tuple[int, ...] = field(init=False)  # the 12 edges, in ``EDGE_LETTER_PAIRS`` order

    def __post_init__(self) -> None:
        check_level(self.n)
        check_strut(self.s, self.n)
        if len(self.vertices) != len(LETTERS):
            raise ValueError(f"a box-kite has {len(LETTERS)} vertices, not {len(self.vertices)}")
        x = _strut_x(self.n, self.s)
        for letter, v in zip(LETTERS, self.vertices):
            if v.x != x:
                raise ValueError(f"vertex {letter} = {v} does not carry X = {x}")
        table = held_sign_table(self.n)
        row = _BladeRow if table is None else table.__getitem__
        ends = [v.indices for v in self.vertices]
        rows = [(row(a), row(big_a)) for a, big_a in ends]

        def sign(i, j):
            (row_a, row_big_a), (b, big_b) = rows[i], ends[j]
            return edge_rule(row_a[b], row_big_a[big_b], row_a[big_b], row_big_a[b])

        signs = tuple(sign(i, j) for i, j in _EDGE_ENDS)
        if None in signs:
            p, q = EDGE_LETTER_PAIRS[signs.index(None)]
            raise ValueError(f"edge {p}-{q} carries no zero divisor")
        for i, j in _STRUT_ENDS:
            if sign(i, j) is not None:
                raise ValueError(f"strut {LETTERS[i]}-{LETTERS[j]} carries a zero divisor")
        object.__setattr__(self, "edge_signs", signs)

    @classmethod
    def assemble(cls, n: int, s: int, vertex_map: dict[str, Assessor]) -> "BoxKite":
        """Build from a letter -> assessor map covering A to F; the
        constructor checks the kite."""
        if sorted(vertex_map) != sorted(LETTERS):
            raise ValueError(f"vertex map must cover letters {LETTERS}")
        return cls(n, s, tuple(vertex_map[p] for p in LETTERS))

    def vertex(self, letter: str) -> Assessor:
        return self.vertices[LETTERS.index(letter)]

    def edge(self, p: str, q: str) -> int:
        """The sign of edge p-q, spelled either way; a strut carries none."""
        position = _EDGE_POSITION.get((p, q))
        if position is None:
            what = "a strut" if {p, q} in map(set, STRUT_LETTER_PAIRS) else "not an edge"
            raise ValueError(f"{p!r}-{q!r} is {what} of a box-kite")
        return self.edge_signs[position]

    @property
    def struts(self) -> tuple[tuple[Assessor, Assessor], ...]:
        return tuple((self.vertex(p), self.vertex(q)) for p, q in STRUT_LETTER_PAIRS)

    def sail(self, name: str) -> Sail:
        """The sail on these three letters, its vertices in the order spelled."""
        if name not in _SAIL_SPELLINGS:
            raise ValueError(f"{name!r} is not a sail of a box-kite")
        p, q, r = name
        verts = (self.vertex(p), self.vertex(q), self.vertex(r))
        return Sail(name, verts, (self.edge(p, q), self.edge(q, r), self.edge(r, p)))

    @property
    def sails(self) -> tuple[Sail, ...]:
        return tuple(self.sail(name) for name in SAIL_LETTERS)

    def zigzag_sails(self) -> list[Sail]:
        return [s for s in self.sails if s.kind == "zigzag"]

    def __str__(self) -> str:
        inner = ", ".join(f"{p}={self.vertex(p)}" for p in LETTERS)
        return f"BoxKite(n={self.n}, s={self.s}, {inner})"


def build_box_kite(s: int) -> BoxKite:
    """Deterministic sedenion box-kite for strut constant s.

    Strut pairs are the assessor pairs whose low indices XOR to s.  Within
    the pair {x, y}, the terminal member is the one t with (s, other, t)
    positively oriented; the three terminals always form a triple, which in
    canonical order becomes (A, B, C).  F, E, D take the strut partners of
    A, B, C.  Higher dimensions have their kites from ``find_box_kites``.
    """
    assessors = {a.o: a for a in assessors_for_strut(s)}
    pairs = sorted({tuple(sorted((o, o ^ s))) for o in assessors})
    abc = aso_form([y if trip_orientation(s, x, y) > 0 else x for x, y in pairs])
    lows = abc + tuple(o ^ s for o in reversed(abc))  # A, B, C, then D, E, F
    return BoxKite(4, s, tuple(assessors[o] for o in lows))


def _zero_product_walk(vertices, signs, start: Diagonal, steps: int) -> list[Diagonal]:
    """Diagonals met walking a circuit of zero products, start first and last.

    The edge from slot i to slot i + 1 carries ``signs[i]``: the orientation
    is kept across "+" and flipped across "-".  Every product is verified to
    vanish, and the walk must be back at the start after ``steps`` steps.
    """
    slot = vertices.index(start.assessor)
    walk = [start]
    for _ in range(steps):
        orientation = walk[-1].orientation * signs[slot]
        slot = (slot + 1) % len(vertices)
        nxt = vertices[slot].diagonal(orientation)
        if not is_zero_divisor_pair(walk[-1], nxt):
            raise AssertionError(f"product {walk[-1]} * {nxt} is not zero")
        walk.append(nxt)
    if walk[-1] != start:
        raise AssertionError(f"zero-product circuit did not close in {steps} steps")
    return walk


def sail_six_cycle(sail: Sail, start: Diagonal) -> list[tuple[Diagonal, Diagonal]]:
    """The six zero products circling a sail from a starting diagonal.

    Each edge dictates the next orientation (keep it on "+", flip on "-");
    after two laps the walk is back at the start.  Every product is verified
    to vanish before being returned.
    """
    if start.assessor not in sail.vertices:
        raise ValueError(f"{start} does not lie on sail {sail.name}")
    walk = _zero_product_walk(sail.vertices, sail.edge_signs, start, 6)
    return list(zip(walk, walk[1:]))


@dataclass(frozen=True)
class TrayRack:
    """One of the three alternating-sign squares of a box-kite."""

    letters: tuple[str, str, str, str]
    edge_signs: tuple[int, int, int, int]
    circuits: tuple[tuple[Diagonal, ...], tuple[Diagonal, ...]]

    @property
    def omitted_strut(self) -> tuple[str, str]:
        missing = [p for p in LETTERS if p not in self.letters]
        return tuple(sorted(missing, key=LETTERS.index))


# Square circuits in conventional starting order: each omits one strut and
# alternates edge signs, so a zero-product walk closes in four steps.
TRAY_RACK_CIRCUITS = (("B", "C", "E", "D"), ("A", "B", "F", "E"), ("A", "D", "F", "C"))


def tray_racks(bk: BoxKite) -> list[TrayRack]:
    racks = []
    for letters in TRAY_RACK_CIRCUITS:
        signs = tuple(
            bk.edge(letters[i], letters[(i + 1) % 4]) for i in range(4)
        )
        verts = tuple(bk.vertex(p) for p in letters)
        circuits = tuple(
            tuple(_zero_product_walk(verts, signs, verts[0].diagonal(o), 4)[:4])
            for o in (SLASH, BACKSLASH)
        )
        racks.append(TrayRack(letters, signs, circuits))
    return racks


# Sail order for the trigram bit codes.
TRIGRAM_SAIL_ORDER = ("ABC", "FDB", "ADE", "FCE")


def trigram_code(bk: BoxKite, switched: bool = False) -> dict[str, str]:
    """3-bit code per sail: edge signs in slot order, "-" as 0 and "+" as 1.

    The unswitched state reads the zero-division edge signs; the switched
    state complements every bit.
    """
    return {
        name: "".join("1" if (sign > 0) != switched else "0" for sign in bk.sail(name).edge_signs)
        for name in TRIGRAM_SAIL_ORDER
    }


def _octonion_triple(otrip) -> TripIndices:
    """An index triple lying on the octonion level, as a tuple."""
    trip = tuple(otrip)
    if len(set(trip)) != 3 or any(not 0 < i < 8 for i in trip) or trip[0] ^ trip[1] ^ trip[2]:
        raise ValueError(f"{trip} is not an octonion triple")
    return trip


def automorpheme(otrip) -> frozenset[int]:
    """Seven-axis span of a sail's zero-divisor pattern at the sedenion level.

    The octonion triple plus the four high units other than the XORs of 8
    with the triple members.  These loops counterfeit the octonions but fail
    Moufang.
    """
    trip = _octonion_triple(otrip)
    excluded = {o ^ 8 for o in trip}
    return frozenset(trip) | (frozenset(range(9, 16)) - excluded)


def octonion_loop_axes(otrip) -> frozenset[int]:
    """Axes of the true octonion-loop copy over an octonion triple: the trip,
    index 8, and the XORs of 8 with the trip."""
    trip = _octonion_triple(otrip)
    return frozenset(trip) | {8} | {o ^ 8 for o in trip}


def goto_numbers(bk: BoxKite) -> tuple[int, int, int, int]:
    """1-based positions of each sail's octonion triple in the canonical list."""
    if bk.n != 4:
        raise ValueError("GoTo numbers are defined for sedenion box-kites")
    otrips = [frozenset(t) for t in enumerate_trips(4, "o")]
    numbers = []
    for name in SAIL_LETTERS:
        lows = frozenset(v.o for v in bk.sail(name).vertices)
        numbers.append(otrips.index(lows) + 1)
    return tuple(numbers)
