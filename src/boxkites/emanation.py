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
from itertools import combinations

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
    edge_rule,
)


@dataclass(frozen=True)
class ZDGraph:
    """Zero-divisor adjacency over the assessors of (n, s), with edge signs.

    Within one (n, s) an assessor is fixed by its low index, so ``signs`` is
    keyed by pairs a < b of the lows ``kites.assessor_lows`` gives, never s.
    """

    n: int
    s: int
    signs: dict[tuple[int, int], int]

    @property
    def assessors(self) -> tuple[Assessor, ...]:
        """The vertices as assessors, ascending by low; built on each request."""
        return tuple(assessors_for_strut(self.s, self.n))


def zd_graph(n: int, s: int) -> ZDGraph:
    """Every pairwise edge sign, by ``edge_rule`` on rows of the sign table.

    Its C(2^(n-1) - 2, 2) pair tests, about 4^n / 8 of four lookups each,
    are work of the order of the table's 4^n bytes.
    """
    lows = assessor_lows(s, n)  # refuses (n, s) before the table or X is formed
    table, x = sign_table(n), _strut_x(n, s)
    ends = [(o, o ^ x) for o in lows]
    signs = {}
    for i, (a, big_a) in enumerate(ends):
        row, big_row = table[a], table[big_a]
        for b, big_b in ends[i + 1 :]:
            sign = edge_rule(row[b], big_row[big_b], row[big_b], big_row[b])
            if sign is not None:
                signs[a, b] = sign
    return ZDGraph(n, s, signs)


def _kite_struts(graph: ZDGraph):
    """Strut low triples (u1, v1, u2, v2, u3, v3) of every box-kite.

    Non-edges are bucketed by low XOR t.  Two cross-adjacent struts
    {a, a^t} and {b, b^t} of one bucket fix the third as {a^b, a^b^t}; it
    must come after the second in the bucket, be a non-edge, and be
    adjacent to all four vertices of the first two.  The low s is never a
    vertex, so no adjacency bit of it is set and a third strut on s fails
    that last test.  Each kite is met once, its struts in bucket order.  On
    the algebra's graphs only the order condition ever rejects (checked for
    n <= 8, tested for n <= 7); the others keep the search exact on any graph.
    """
    signs = graph.signs
    adjacency = [0] * (1 << (graph.n - 1))  # bit b of adjacency[a]: a-b is an edge
    buckets: dict[int, list[tuple[int, int]]] = {}
    for a, b in combinations(assessor_lows(graph.s, graph.n), 2):
        if (a, b) in signs:
            adjacency[a] |= 1 << b
            adjacency[b] |= 1 << a
        else:
            buckets.setdefault(a ^ b, []).append((a, b))
    for bucket in buckets.values():
        for e1, (u1, v1) in enumerate(bucket):
            common1 = adjacency[u1] & adjacency[v1]
            for u2, v2 in bucket[e1 + 1 :]:
                if not ((common1 >> u2) & 1 and (common1 >> v2) & 1):
                    continue
                u3, v3 = sorted((u1 ^ u2, u1 ^ v2))
                if (u3, v3) <= (u2, v2) or (u3, v3) in signs:
                    continue
                common2 = common1 & adjacency[u2] & adjacency[v2]
                if (common2 >> u3) & 1 and (common2 >> v3) & 1:
                    yield u1, v1, u2, v2, u3, v3


def _kite_lows(graph: ZDGraph) -> Iterator[tuple[int, ...]]:
    """Each box-kite's lows by letter, A to F, ordered by (ABC lows, strut lows).

    A, B, C take the sail the ``kites`` module names, its lows in ASO order
    (positive, smallest first): the least zigzag, all three edges "-", or
    on a kite with none the least sail.  F, E, D are their strut partners.
    Each sail has lows p, q and p^q, p and q on the first two struts; from
    rows of the sign table T, ``edge_rule`` makes edge p-q, highs P and Q,
    "-" iff T[p][q] = T[P][Q], and lows a < b < c are in ASO order as
    (a, c, b) iff T[a][b] is 1.

    A zigzag is also the sail whose four slot triples, in ASO order, are
    all positive.  With lows a, b, c (e_a e_b = +e_c) and highs A, B, C,
    p-q is "-" iff sgn(p,q) = sgn(P,Q).  As sgn(a,b) = sgn(b,c) =
    sgn(c,a) = +1, a-b, b-c and c-a are "-" iff (A,B,c), (a,B,C) and
    (A,b,C) are positive; (a,b,c) is positive by its order.
    """
    table, x = sign_table(graph.n), _strut_x(graph.n, graph.s)
    keyed = []
    for struts in _kite_struts(graph):
        u1, v1, u2, v2 = struts[:4]
        zigzags, trefoils = [], []
        for p in (u1, v1):
            row, big_row = table[p], table[p ^ x]
            for q in (u2, v2):
                r = p ^ q  # the sail's low on the third strut
                zigzag = (row[q] == big_row[q ^ x] and row[r] == big_row[r ^ x]
                          and table[q][r] == table[q ^ x][r ^ x])
                (zigzags if zigzag else trefoils).append((p, q, r))
        abc = None
        for face in zigzags or trefoils:
            a, b, c = sorted(face)
            lows = (a, c, b) if table[a][b] else (a, b, c)
            if abc is None or lows < abc:
                abc = lows
        keyed.append((*abc, u1, v1))  # with the ABC lows, the first strut fixes the kite
    keyed.sort()
    for a, b, c, u1, v1 in keyed:
        t = u1 ^ v1  # the struts' low XOR
        yield a, b, c, c ^ t, b ^ t, a ^ t


def _label_kite(graph: ZDGraph, lows: tuple[int, ...], vertex: dict[int, Assessor]) -> BoxKite:
    """The box-kite whose letters A to F have these lows, by ``vertex``'s assessors."""
    return BoxKite(graph.n, graph.s, tuple(map(vertex.__getitem__, lows)))


def _box_kites(n: int, s: int) -> Iterator[BoxKite]:
    """The box-kites of ``find_box_kites``, each built as it is read."""
    graph = zd_graph(n, s)
    vertex = {v.o: v for v in graph.assessors}
    for lows in _kite_lows(graph):
        yield _label_kite(graph, lows, vertex)


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
    return list(_box_kites(n, s))


def pathion_lift(bk: BoxKite) -> BoxKite:
    """Lift a sedenion box-kite one level: each high becomes o xor X(5, s), 8 more.

    The result is validated as a genuine box-kite for the same strut
    constant one dimension up.
    """
    if bk.n != 4:
        raise ValueError("lift starts from a sedenion box-kite")
    x = _strut_x(5, bk.s)
    return BoxKite(5, bk.s, tuple(Assessor(5, v.o, v.o ^ x) for v in bk.vertices))


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
    every s of level n; refused at once when one lies outside level n."""
    check_level(n)
    s_values = tuple(sorted(set(range(1, 1 << (n - 1)) if s_values is None else s_values)))
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
    graph, table = zd_graph(n, s), sign_table(n)
    x = _strut_x(n, s)
    for lows in _kite_lows(graph):
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

    Makes no claim beyond the swept range.  It keeps the tally alone, so its
    memory does not grow with the level; each kite's verdict, with the
    triples that break it, comes from ``sweep_entries`` for its s.
    """
    sweep = _Sweep(n, sweep_range(n, s_values))
    for _ in sweep:  # read through for the tally alone
        pass
    return sweep.report


@dataclass(frozen=True)
class CensusReport:
    n: int
    per_s: dict

    @property
    def total(self) -> int:
        return sum(self.per_s.values())


def census(n: int) -> CensusReport:
    """Box-kite count per strut constant, by exhaustive enumeration.

    Counts the strut triples the search meets; no kite is labelled or built.
    """
    per_s = {s: sum(1 for _ in _kite_struts(zd_graph(n, s))) for s in sweep_range(n)}
    return CensusReport(n, per_s)
