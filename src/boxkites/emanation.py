"""Zero-divisor structure at arbitrary 2^n: graphs, kite search, sweeps.

For dimension exponent n >= 4 and strut constant 0 < s < 2^(n-1), the
assessors are the 2^(n-1) - 2 pairs (o, o xor X) with X = 2^(n-1) + s.
Their zero-divisor adjacency graph decomposes into octahedral box-kites;
this module enumerates them, lifts sedenion kites one level up, counts
kites per strut constant, and runs the trip-synchronization check across
whole sweeps of strut constants.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache

from .algebra import TripIndices, sign_table
from .kites import (
    SYNC_SAILS,
    Assessor,
    BoxKite,
    _strut_x,
    assessor_lows,
    assessors_for_strut,
    check_level,
    check_strut,
    check_table_level,
)


@dataclass(frozen=True)
class ZDGraph:
    """The zero-divisor graph of (n, s) as two packed level ints, bit
    a * 2^(n-1) + b for the lows a, b < 2^(n-1).

    A vertex is an assessor (a, a ^ X), fixed within one (n, s) by its low
    a, never 0 or s.  Bit (a, b) of ``adjacency`` is set iff lows a and b
    carry an edge; rows and columns 0 and s are 0, as is the diagonal.  At
    an edge a-b, bit (a, b) of ``plus`` is set iff the edge is "+",
    T[a][b] ^ T[A][B] = 1 for the sign table T and the highs A, B.  Off the
    edges its bits mean nothing.
    """

    n: int
    s: int
    adjacency: int
    plus: int

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """Each edge (a, b, sign), a < b, ascending by a then b; sign 1 for "+",
        -1 for "-"."""
        plus = _rows(self.n, self.plus)
        for a, row in enumerate(_rows(self.n, self.adjacency)):
            later = row & -(2 << a)
            while later:
                b = (later & -later).bit_length() - 1
                later &= later - 1
                yield a, b, 1 if plus[a] >> b & 1 else -1


def _rows(n: int, packed: int) -> list[int]:
    """The rows of a packed level int of ``ZDGraph``: item a holds its bits
    a * 2^(n-1) + b as bits b."""
    width = 1 << (n - 4)  # bytes in a row
    data = packed.to_bytes(width << (n - 1), "little")
    return [int.from_bytes(data[i:i + width], "little") for i in range(0, len(data), width)]


def _vertex_bits(n: int, s: int) -> int:
    """The lows of the assessors of (n, s) as bits: every 0 < o < 2^(n-1) but s."""
    return (1 << (1 << (n - 1))) - 2 & ~(1 << s)


def _block_swaps(width: int) -> list[tuple[int, int]]:
    """For each bit k of an index below ``width``: the shift and mask that swap,
    in an int of ``width`` bits, bit j with bit j ^ 2^k.  The mask holds the
    bits j with bit k of j clear."""
    swaps, k = [], 1
    while k < width:
        mask, period = (1 << k) - 1, 2 * k  # k bits set, k clear, repeated
        while period < width:
            mask |= mask << period
            period *= 2
        swaps.append((k, mask))
        k *= 2
    return swaps


def _permuted(x: int, s: int, swaps: list[tuple[int, int]]) -> int:
    """``x`` with bit j moved to bit j ^ s: one block swap of ``swaps`` (from
    ``_block_swaps``) per set bit of s."""
    for k, (shift, mask) in enumerate(swaps):
        if s >> k & 1:
            x = (x & mask) << shift | (x >> shift) & mask
    return x


# Sign-table bytes, 0 for + and 1 for -, to the digits of a base-2 literal.
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


@lru_cache(maxsize=1)
def _level_bits(n: int) -> tuple[list[int], list[tuple[int, int]], int, int]:
    """Level n's sign table T packed a bit per product for ``zd_graph``, kept
    for the last level asked for, as ``sign_table`` keeps its rows.

    The low rows of T (a < 2^(n-1)) as two ints, one per half of the
    columns, with bit a * 2^(n-1) + b set iff T[a][b] is 1, b counted within
    its half; ``zd_graph`` needs no high row.  With them, the block swaps
    that move bit i of such an int to bit i ^ 2^k for each k: bits within
    every row for k < n - 1, whole rows above.  Last, for the vertex pairs
    of ``zd_graph``, bit 0 of every row, and the bits (a, b) with a and b
    not 0 and a != b.
    """
    table, half = sign_table(n), 1 << (n - 1)
    halves = [int(b"".join(row[columns] for row in table[:half])[::-1].translate(_DIGITS), 2)
              for columns in (slice(half), slice(half, None))]
    width = half // 8  # bytes in a row
    ones = int.from_bytes((b"\x01" + bytes(width - 1)) * half, "little")
    pairs = b"".join(_vertex_bits(n, a).to_bytes(width, "little") for a in range(1, half))
    return halves, _block_swaps(half * half), ones, int.from_bytes(bytes(width) + pairs, "little")


def zd_graph(n: int, s: int) -> ZDGraph:
    """The zero-divisor graph of (n, s), edges and signs: the one place they
    are formed, for the census, the kite search, DOT and verify.

    For lows a, b and highs A = 2^(n-1) + (a ^ s), B = 2^(n-1) + (b ^ s),
    ``kites.edge_rule`` on rows of the sign table T makes a-b an edge iff
    T[a][b] ^ T[A][B] ^ T[a][B] ^ T[A][b] is 0, and "+" iff
    T[a][b] ^ T[A][B] is 1.  By the doubling that builds T (``sign_table``),
    the high row 2^(n-1) + c is row c negated at the low columns but 0, and
    row c itself at the high columns but 2^(n-1).  As b is never 0 or s,
    T[A][b] = 1 ^ T[a ^ s][b] and T[A][B] = T[a ^ s][B].  So "+" is
    T[a][b] ^ T[a ^ s][B], and with R[a][b] = T[a][b] ^ T[a][B], a-b is an
    edge iff R[a][b] ^ R[a ^ s][b] is 1.  On the halves of ``_level_bits``
    that is three moves, b -> b ^ s within rows and twice a -> a ^ s of
    whole rows, each a whole-level big-int pass of one block swap per set
    bit of s; one vertex-pair mask then clears rows 0 and s, their columns
    and the diagonal.  A pair-by-pair ``edge_rule`` scan of the sign table
    is the reference.
    """
    check_level(n)
    check_strut(s, n)  # refuses (n, s) before any table is built
    check_table_level(n)
    (low_low, low_high), swaps, ones, pairs = _level_bits(n)
    half = 1 << (n - 1)
    rows = s * half
    at_big_b = _permuted(low_high, s, swaps)  # T[a][B]
    plus = low_low ^ _permuted(at_big_b, rows, swaps)  # T[a][b] ^ T[a ^ s][B]
    r = low_low ^ at_big_b  # R[a][b]
    vertex_pairs = pairs & ~(ones << s | ((1 << half) - 1) << rows)  # not in row or column s
    return ZDGraph(n, s, (r ^ _permuted(r, rows, swaps)) & vertex_pairs, plus)


def _kite_struts(graph: ZDGraph):
    """Strut low triples (u1, v1, u2, v2, u3, v3) of every box-kite of the
    graph, read from the rows of its adjacency alone.

    Non-edges are bucketed by low XOR t, in order of their first pair
    (a, b), a < b, in lexicographic order; a bucket holds the smaller lows.
    Two cross-adjacent struts {a, a^t} and {b, b^t} of one bucket fix the
    third as {a^b, a^b^t}; it must come after the second in the bucket, be a
    non-edge, and be adjacent to all four vertices of the first two.  A
    second strut's low u is read from the later lows of the bucket adjacent
    to both ends of the first strut, and kept only if u^t is adjacent to
    both too, one bit test.  As two struts follow the first in its bucket,
    a bucket of fewer than three lows is skipped and its last two lows never
    start a kite.  The low s is never a vertex, so no adjacency bit of it is
    set and a third strut on s fails that last test.
    Each kite is met once, its struts in bucket order.  On the algebra's
    graphs only the order condition ever rejects (checked for n <= 8, tested
    for n <= 7); the others keep the search exact on any graph.
    """
    n, s = graph.n, graph.s
    adjacency, vertices = _rows(n, graph.adjacency), _vertex_bits(n, s)
    buckets: dict[int, list[int]] = {}
    for a in assessor_lows(s, n):
        later = vertices & ~adjacency[a] & -(2 << a)  # non-neighbours above a
        while later:
            b = (later & -later).bit_length() - 1
            later &= later - 1
            buckets.setdefault(a ^ b, []).append(a)
    for t, bucket in buckets.items():
        if len(bucket) < 3:
            continue
        members = sum(1 << u for u in bucket)
        for u1 in bucket[:-2]:  # two more struts follow the first in its bucket
            v1 = u1 ^ t
            common1 = adjacency[u1] & adjacency[v1]
            seconds = common1 & members & -(2 << u1)
            while seconds:
                u2 = (seconds & -seconds).bit_length() - 1
                seconds &= seconds - 1
                v2 = u2 ^ t
                if not common1 >> v2 & 1:
                    continue
                u3, v3 = sorted((u1 ^ u2, u1 ^ v2))
                if u3 <= u2 or (adjacency[u3] >> v3) & 1:
                    continue
                common2 = common1 & adjacency[u2] & adjacency[v2]
                if (common2 >> u3) & 1 and (common2 >> v3) & 1:
                    yield u1, v1, u2, v2, u3, v3


def _kite_lows(n: int, s: int) -> Iterator[tuple[int, ...]]:
    """Each box-kite's lows by letter, A to F, ordered by (ABC lows, strut lows):
    the one entry to the lettered kites of (n, s).  The graph is built at
    the call, so a bad (n, s) is refused there, before any table is built.

    A, B, C take the sail the ``kites`` module names, its lows in ASO order
    (positive, smallest first): the least zigzag, all three edges "-" in
    the graph's ``plus``, or on a kite with none the least sail.  F, E, D
    are their strut partners.  Each sail has lows p, q and p^q, p and q on
    the first two struts.  The sign table T is read only for a face's ASO
    order: lows a < b < c are in it as (a, c, b) iff T[a][b] is 1.

    A zigzag is also the sail whose four slot triples, in ASO order, are
    all positive.  With lows a, b, c (e_a e_b = +e_c) and highs A, B, C,
    p-q is "-" iff sgn(p,q) = sgn(P,Q).  As sgn(a,b) = sgn(b,c) =
    sgn(c,a) = +1, a-b, b-c and c-a are "-" iff (A,B,c), (a,B,C) and
    (A,b,C) are positive; (a,b,c) is positive by its order.
    """
    graph = zd_graph(n, s)  # refuses (n, s) before any table is built
    table, w = sign_table(n), n - 1
    plus = _rows(n, graph.plus)  # each kite tests 12 of their bits
    keyed = []  # one int per kite, ordered as its (ABC lows, strut lows)
    for struts in _kite_struts(graph):
        u1, v1, u2, v2 = struts[:4]
        zigzags, trefoils = [], []
        for p in (u1, v1):
            row = plus[p]
            for q in (u2, v2):
                r = p ^ q  # the sail's low on the third strut
                zigzag = not (row >> q & 1 or row >> r & 1 or plus[q] >> r & 1)  # no edge "+"
                (zigzags if zigzag else trefoils).append((p, q, r))
        abc = None
        for face in zigzags or trefoils:
            a, b, c = sorted(face)
            lows = (a, c, b) if table[a][b] else (a, b, c)
            if abc is None or lows < abc:
                abc = lows
        a, b, c = abc  # with the ABC lows, the first strut fixes the kite
        keyed.append((((a << w | b) << w | c) << w | u1) << w | v1)
    keyed.sort()
    return _unpacked(keyed, w)


def _unpacked(keyed: list[int], w: int) -> Iterator[tuple[int, ...]]:
    """The lows A to F of each kite key of ``_kite_lows``: A, B, C and the first
    strut's lows as five fields of w bits, A the highest."""
    field = (1 << w) - 1
    for key in keyed:
        t = (key >> w ^ key) & field  # the struts' low XOR takes A, B, C to F, E, D
        a, b, c = key >> 4 * w, key >> 3 * w & field, key >> 2 * w & field
        yield a, b, c, c ^ t, b ^ t, a ^ t


def _label_kite(n: int, s: int, lows: tuple[int, ...],
                vertex: dict[int, Assessor] | None = None) -> BoxKite:
    """The box-kite of (n, s) whose letters A to F have these lows.

    ``vertex`` maps lows to the assessors of (n, s), so that the kites of
    one search share them; without it, the six are built here.
    """
    if vertex is None:
        x = _strut_x(n, s)
        vertex = {o: Assessor(n, o, o ^ x) for o in lows}
    return BoxKite(n, s, tuple(map(vertex.__getitem__, lows)))


def find_box_kites(n: int, s: int) -> list[BoxKite]:
    """All box-kites for (n, s): induced octahedra carrying four sails.

    A box-kite is more than an induced octahedron with clean antipodes: it
    must carry the checkerboard of four sails, transversal faces whose low
    indices close under XOR.  The dense zero-divisor graphs contain many
    octahedra without that structure (for s=1 at n=5 the graph is the
    complete graph minus the strut matching, giving 35 octahedra of which
    only 7 carry sails; at n=6 there are octahedra whose three strut pairs
    have unequal low XORs, leaving fewer than four trip faces).

    The three struts share one low XOR t, and a sail through lows x and y
    of two struts puts x^y on the third.  So struts {a, a^t} and {b, b^t}
    leave exactly one candidate third strut, {a^b, a^b^t}; when it is a
    non-edge adjacent to the other four vertices, all four transversals
    x^y close, which is the checkerboard of four sails.  The search forms
    only that candidate and so meets box-kites only, each once.  Ordered by
    the low-index triple of the A, B, C sail, then by strut lows.
    """
    kites = _kite_lows(n, s)  # refuses (n, s) before any assessor is built
    vertex = {a.o: a for a in assessors_for_strut(s, n)}
    return [_label_kite(n, s, lows, vertex) for lows in kites]


def pathion_lift(bk: BoxKite) -> BoxKite:
    """Lift a sedenion box-kite one level: each high becomes o xor X(5, s), 8 more.

    The result is validated as a genuine box-kite for the same strut
    constant one dimension up.
    """
    if bk.n != 4:
        raise ValueError("lift starts from a sedenion box-kite")
    return _label_kite(5, bk.s, tuple(v.o for v in bk.vertices))


@dataclass(frozen=True, slots=True)
class SweepEntry:
    s: int
    abc_lows: TripIndices
    passed: bool
    counterexamples: tuple[TripIndices, ...]


@dataclass(frozen=True)
class SweepReport:
    """The tally of a sweep: its kites and the failing ones among them."""

    n: int
    s_values: tuple[int, ...]
    kite_count: int
    failures: int

    @property
    def all_passed(self) -> bool:
        return not self.failures


def sweep_range(n: int, s_values=None) -> tuple[int, ...]:
    """The strut constants a sweep visits: ``s_values`` sorted once each, or
    every s of level n, a level ``check_table_level`` passes; refused at once
    when one lies outside level n."""
    check_level(n)
    if s_values is None:
        check_table_level(n)
        s_values = range(1, 1 << (n - 1))
    s_values = tuple(sorted(set(s_values)))
    for s in s_values:
        check_strut(s, n)
    return s_values


# Each sync-order sail's slot-0 and slot-1 letter indices, then the bytes its
# slot triples must show, in ``kites.slot_trips`` order: 1 where negative.
_SYNC_SLOTS = tuple(
    (*vertices(range(6))[:2], *(int(want < 0) for want in expected))
    for _, vertices, expected in SYNC_SAILS
)


def sweep_entries(n: int, s: int) -> Iterator[SweepEntry]:
    """The trip-sync verdict of every box-kite of (n, s), in the order of
    ``find_box_kites``.

    Each kite of the search is lettered by ``_kite_lows``; the 16 slot
    triples of its sync-order sails are checked against ``kites.SYNC_SAILS``.
    A slot triple closes under XOR, so its first two indices fix it and its
    orientation: rows p and P of a sail's slot-0 low and high, each at its
    slot-1 low q and high Q.  Only a failing slot forms its triple; no kite
    is built.  ``lariats.trip_sync_report`` on the labelled kite is the reference.
    """
    kites = _kite_lows(n, s)  # refuses (n, s) before the table is read
    table, x = sign_table(n), _strut_x(n, s)
    for lows in kites:
        counterexamples = []
        for i, j, pq, p_big_q, big_p_q, big_pq in _SYNC_SLOTS:
            p, q = lows[i], lows[j]
            big_p, big_q = p ^ x, q ^ x
            row, big_row = table[p], table[big_p]
            if row[q] != pq:
                counterexamples.append((p, q, p ^ q))
            if row[big_q] != p_big_q:
                counterexamples.append((p, big_q, p ^ big_q))
            if big_row[q] != big_p_q:
                counterexamples.append((big_p, q, big_p ^ q))
            if big_row[big_q] != big_pq:
                counterexamples.append((big_p, big_q, p ^ q))
        yield SweepEntry(s, lows[:3], not counterexamples, tuple(counterexamples))


class _Sweep:
    """One pass over the kites of a sweep, s by s.  Iterating yields their
    entries, only the failing ones when ``failures_only``; once all are
    read, ``report`` holds the tally of every kite.  No entry is kept."""

    def __init__(self, n: int, s_values: tuple[int, ...], failures_only: bool = False):
        self.n, self.s_values, self.failures_only, self.report = n, s_values, failures_only, None

    def __iter__(self) -> Iterator[SweepEntry]:
        kites = failures = 0
        for s in self.s_values:
            for entry in sweep_entries(self.n, s):
                kites += 1
                if not entry.passed:
                    failures += 1
                elif self.failures_only:
                    continue
                yield entry
        self.report = SweepReport(self.n, self.s_values, kites, failures)


def trip_sync_sweep(n: int, s_values=None) -> SweepReport:
    """Check the trip-synchronization pattern on every kite of every s.

    Makes no claim beyond the swept range, and an empty list is refused, as
    it would pass having checked nothing.  It keeps the tally alone, so its
    memory does not grow with the level; each kite's verdict, with the
    triples that break it, comes from ``sweep_entries`` for its s.
    """
    s_values = sweep_range(n, s_values)
    if not s_values:
        raise ValueError(f"a sweep needs at least one strut constant; None sweeps all of level {n}")
    sweep = _Sweep(n, s_values)
    for _ in sweep:  # read through for the tally alone
        pass
    return sweep.report


@dataclass(frozen=True)
class CensusReport:
    """Box-kites per strut constant; ``sources`` maps each s to the s whose
    search gave its count: s itself for each s = 8k + 1 and for any s whose
    map failed its check, else the s = 8k + 1 its count was carried from."""

    n: int
    per_s: dict[int, int]
    sources: dict[int, int]

    @property
    def total(self) -> int:
        return sum(self.per_s.values())


def _carry(s: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The s = 8k + 1 that s takes its count from, and the index-bit
    transvections (i, j), each "bit j ^= bit i", whose product sends it to s.

    With v = s & 7 not 0 or 1, L_v from r = (s & ~7) | 1: bit 0 into each
    other set bit of v, then for an even v its highest set bit into bit 0,
    so 1 goes to v and the higher bits stay.  For s = 8k with lowest set bit
    2^j, tau_j from r = (s ^ 2^j) | 1: t(0 -> j) t(j -> 0) t(0 -> j), the
    exchange of bits 0 and j.  An s = 8k + 1 is its own r, with no move.
    """
    v = s & 7
    if v == 1:
        return s, ()
    if v:
        moves = tuple((0, k) for k in (1, 2) if v >> k & 1)
        return s & ~7 | 1, moves if v & 1 else moves + ((v.bit_length() - 1, 0),)
    j = (s & -s).bit_length() - 1
    return (s ^ s & -s) | 1, ((0, j), (j, 0), (0, j))


def _swap(x: int, shift: int, mask: int) -> int:
    """``x`` with each bit p of ``mask`` exchanged with bit p + ``shift``."""
    t = (x ^ x >> shift) & mask
    return x ^ t ^ t << shift


def _moved(n: int, moves: tuple[tuple[int, int], ...], x: int) -> int:
    """The packed level int ``x`` with the low of each row and of each column
    sent through the transvections ``moves``, in order.  Each (i, j) is one
    ``_swap`` per side: the bits whose low has bit i set and bit j clear
    trade places with those 2^j above them, a mask formed from two of
    ``_level_bits``'s block swaps."""
    swaps = _level_bits(n)[1]
    for i, j in moves:
        for side in (0, n - 1):  # the column's index bits, then the row's
            (shift_i, clear_i), (shift_j, clear_j) = swaps[i + side], swaps[j + side]
            x = _swap(x, shift_j, clear_i << shift_i & clear_j)
    return x


def _maps_onto(n: int, moves: tuple[tuple[int, int], ...], r: int, s: int,
               source: int, target: int) -> bool:
    """Whether ``moves`` (see ``_moved``) send the low r to s and the packed
    relation ``source`` of r onto ``target``, that of s: the one check of a
    carried count, two compares of whole ints."""
    return _moved(n, moves, 1 << r) == 1 << s and _moved(n, moves, source) == target


def census(n: int) -> CensusReport:
    """Box-kite count per strut constant, by enumeration plus checked transport.

    Only each s = 8k + 1 is searched; the search's strut triples are counted
    and no kite is labelled or built.  Every other s takes the count of the
    r that ``_carry`` names once ``_maps_onto`` finds that its transvections
    send r to s and the packed adjacency of r onto that of s: L_v, a linear
    bijection of the low three bits sending 1 to v = s & 7, or, for s = 8k,
    tau_j, the exchange of index bits 0 and j.  A kite is three non-edge
    struts of one low XOR, cross-adjacent, the lows of two XOR-closing onto
    the third; a linear bijection keeping the relation keeps all of that, so
    it maps the kites of r one to one onto those of s.  An s whose check
    fails is searched instead.  Every check has passed on every level run
    (n = 4 to 10).  For L_v it should: an octonion automorphism permutes
    the units up to sign by a linear map of the low three bits, extends
    through each doubling as (p, q) -> (phi p, phi q), and keeps the
    relation, as the unit signs it brings in are the same on both sides of
    the test.  The count relies on the check alone.  The adjacency of a
    searched r is held until the last s that reads it is checked: at most
    n // 2 - 1 packed ints at once.
    """
    s_values = sweep_range(n)
    carries = {s: _carry(s) for s in s_values}
    last_reader = {r: s for s, (r, _) in carries.items()}
    per_s, sources, held = {}, {}, {}
    for s in s_values:
        graph, (r, moves) = zd_graph(n, s), carries[s]
        if r != s:
            source = held.pop(r) if last_reader[r] == s else held[r]
            if _maps_onto(n, moves, r, s, source, graph.adjacency):
                per_s[s], sources[s] = per_s[r], r
                continue
        elif last_reader[s] != s:
            held[s] = graph.adjacency
        per_s[s], sources[s] = sum(1 for _ in _kite_struts(graph)), s
    return CensusReport(n, per_s, sources)
