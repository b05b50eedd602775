"""Zero-divisor structure at arbitrary 2^n: graphs, kite search, sweeps.

For dimension exponent n >= 4 and strut constant 0 < s < 2^(n-1), the
assessors are the 2^(n-1) - 2 pairs (o, o xor X) with X = 2^(n-1) + s.
Their zero-divisor adjacency graph decomposes into octahedral box-kites;
this module enumerates them, lifts sedenion kites one level up, counts
kites per strut constant, and runs the trip-synchronization check across
whole sweeps of strut constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .algebra import TripIndices, aso_form, trip_orientation
from .kites import (
    LETTERS,
    Assessor,
    BoxKite,
    assessors_for_strut,
    edge_sign,
    slot_trips,
)
from .lariats import TripSyncReport, trip_sync_report


def emanation_assessors(n: int, s: int) -> list[Assessor]:
    """All assessors for (n, s), ascending by low index."""
    if n < 4:
        raise ValueError("emanation structure starts at the sedenions (n >= 4)")
    return assessors_for_strut(s, n)


@dataclass(frozen=True)
class ZDGraph:
    """Zero-divisor adjacency over the assessors of (n, s), with edge signs.

    ``signs`` is keyed by position pairs (i, j), i < j, in ``assessors``.
    """

    n: int
    s: int
    assessors: tuple[Assessor, ...]
    signs: dict[tuple[int, int], int]

    def _position(self, a: Assessor) -> int | None:
        if a.n != self.n or a.s != self.s:
            return None  # another (n, s): never adjacent here
        return a.o - 1 - (a.o > self.s)  # ascending lows, s itself skipped

    def sign(self, a1: Assessor, a2: Assessor) -> int | None:
        i, j = self._position(a1), self._position(a2)
        if i is None or j is None:
            return None
        return self.signs.get((min(i, j), max(i, j)))

    def edges(self) -> list[tuple[Assessor, Assessor, int]]:
        nodes = self.assessors
        return [(nodes[i], nodes[j], sign) for (i, j), sign in self.signs.items()]

    def non_adjacent_pairs(self) -> list[tuple[Assessor, Assessor]]:
        nodes = self.assessors
        return [
            (nodes[i], nodes[j])
            for i, j in combinations(range(len(nodes)), 2)
            if (i, j) not in self.signs
        ]


def zd_graph(n: int, s: int) -> ZDGraph:
    """Every pairwise edge sign, from the closed form in ``edge_sign``."""
    assessors = tuple(emanation_assessors(n, s))
    signs = {}
    for i, j in combinations(range(len(assessors)), 2):
        sign = edge_sign(assessors[i], assessors[j])
        if sign is not None:
            signs[i, j] = sign
    return ZDGraph(n, s, assessors, signs)


def _label_kite(n: int, s: int, antipodes: list[tuple[Assessor, Assessor]]) -> BoxKite | None:
    """Canonical letters for an octahedron, or None when it is no box-kite.

    A box-kite is more than an induced octahedron with clean antipodes: it
    must carry the checkerboard of four sails, transversal faces whose low
    indices close under XOR.  The dense zero-divisor graphs contain many
    octahedra without that structure (for s=1 at n=5 the graph is the
    complete graph minus the strut matching, giving 35 octahedra of which
    only 7 carry sails; at n=6 there are octahedra whose three strut pairs
    have unequal low XORs, leaving fewer than four trip faces).  So two
    conditions are imposed: the strut pairs share one low XOR, which the
    search guarantees before calling here, and at least one of the eight
    transversals (one vertex per strut) is a triple, which together force
    exactly four sails in checkerboard position.

    A, B, C take the sail whose four slot triples are all positively
    oriented, rotated to start at the smallest low index; ties go to the
    lexicographically least low triple.  Kites with no zigzag sail exist
    (trip-sync counterexamples appear at n=6 for s above 24); those fall
    back to the lexicographically least sail so the sweep can report them
    instead of crashing.  F, E, D are the antipodes of A, B, C.
    """
    # low index -> (vertex, its strut partner); lows are distinct in a kite
    by_low = {}
    for u, v in antipodes:
        by_low[u.o], by_low[v.o] = (u, v), (v, u)
    first, second, third = ((u.o, v.o) for u, v in antipodes)
    faces = []
    for x, y in product(first, second):
        if x ^ y not in third:
            continue  # no sail on this transversal: lows must close under XOR
        ordered = aso_form((x, y, x ^ y))
        verts = tuple(by_low[o][0] for o in ordered)
        all_positive = all(trip_orientation(*t) > 0 for t in slot_trips(verts))
        faces.append((ordered, all_positive))
    if not faces:
        return None
    faces.sort()
    zigzags = [f for f in faces if f[1]]
    chosen = (zigzags or faces)[0][0]
    vertex_map = {}
    for letter, mate_letter, o in zip("ABC", "FED", chosen):
        vertex_map[letter], vertex_map[mate_letter] = by_low[o]
    return BoxKite.assemble(n, s, vertex_map)


def find_box_kites(n: int, s: int) -> list[BoxKite]:
    """All box-kites for (n, s): induced octahedra carrying four sails.

    The three non-adjacent antipodal pairs are the struts; the sail
    conditions (one shared strut low-XOR, four transversal faces with
    XOR-closed low indices) filter out octahedra that the dense
    zero-divisor graphs contain incidentally.  Ordered by the low-index
    triple of the A, B, C sail.

    Every box-kite's three struts share one low XOR, so triples of
    non-edges are only formed within a bucket of equal strut XOR.  Each
    such induced octahedron is met once, as its three non-edges (its only
    ones) in ascending order, and is then labelled or rejected.
    """
    graph = zd_graph(n, s)
    assessors, signs = graph.assessors, graph.signs
    adjacency = [0] * len(assessors)
    buckets: dict[int, list[tuple[int, int]]] = {}
    for i, j in combinations(range(len(assessors)), 2):
        if (i, j) in signs:
            adjacency[i] |= 1 << j
            adjacency[j] |= 1 << i
        else:
            buckets.setdefault(assessors[i].o ^ assessors[j].o, []).append((i, j))
    found = []  # (ABC lows, strut index pairs, kite); the pairs order as the non-edges do
    for bucket in buckets.values():
        for e1, (u1, v1) in enumerate(bucket):
            common1 = adjacency[u1] & adjacency[v1]
            for e2 in range(e1 + 1, len(bucket)):
                u2, v2 = bucket[e2]
                if not ((common1 >> u2) & 1 and (common1 >> v2) & 1):
                    continue
                common2 = common1 & adjacency[u2] & adjacency[v2]
                for u3, v3 in bucket[e2 + 1 :]:
                    if not ((common2 >> u3) & 1 and (common2 >> v3) & 1):
                        continue
                    antipodes = [
                        (assessors[u1], assessors[v1]),
                        (assessors[u2], assessors[v2]),
                        (assessors[u3], assessors[v3]),
                    ]
                    kite = _label_kite(n, s, antipodes)
                    if kite is not None:
                        abc_lows = tuple(v.o for v in kite.vertices[:3])
                        found.append((abc_lows, (u1, v1, u2, v2, u3, v3), kite))
    found.sort(key=lambda f: f[:2])
    return [kite for *_, kite in found]


def pathion_lift(bk: BoxKite) -> BoxKite:
    """Lift a sedenion box-kite one level: add 8 to every high index.

    The result is validated as a genuine box-kite for the same strut
    constant one dimension up.
    """
    if bk.n != 4:
        raise ValueError("lift starts from a sedenion box-kite")
    vertex_map = {
        letter: Assessor(5, v.o, v.hi + 8) for letter, v in zip(LETTERS, bk.vertices)
    }
    return BoxKite.assemble(5, bk.s, vertex_map)


@dataclass(frozen=True)
class SweepEntry:
    n: int
    s: int
    abc_lows: TripIndices
    passed: bool
    counterexamples: tuple[TripIndices, ...]


@dataclass(frozen=True)
class SweepReport:
    n: int
    s_values: tuple[int, ...]
    entries: tuple[SweepEntry, ...]

    @property
    def all_passed(self) -> bool:
        return all(entry.passed for entry in self.entries)

    @property
    def kite_count(self) -> int:
        return len(self.entries)


def trip_sync_sweep(n: int, s_values=None) -> SweepReport:
    """Check the trip-synchronization pattern on every kite of every s.

    Makes no claim beyond the swept range; failures carry the offending
    triples so they can be replayed.
    """
    if s_values is None:
        s_values = range(1, 1 << (n - 1))
    s_values = tuple(sorted(set(s_values)))
    entries = []
    for s in s_values:
        for kite in find_box_kites(n, s):
            report: TripSyncReport = trip_sync_report(kite)
            counterexamples = tuple(
                trip for sail in report.sails for trip in sail.counterexamples()
            )
            entries.append(
                SweepEntry(n, s, report.abc_lows, report.passed, counterexamples)
            )
    return SweepReport(n, s_values, tuple(entries))


@dataclass(frozen=True)
class CensusReport:
    n: int
    per_s: dict
    total: int


def census(n: int) -> CensusReport:
    """Box-kite count per strut constant, by exhaustive enumeration."""
    per_s = {s: len(find_box_kites(n, s)) for s in range(1, 1 << (n - 1))}
    return CensusReport(n, per_s, sum(per_s.values()))
