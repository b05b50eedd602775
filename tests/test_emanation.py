"""General 2^n enumeration: graphs, kite search, lifts, census, sweeps."""

import gc
import random
import sys
import tracemalloc
from collections import Counter
from itertools import combinations

import pytest

from boxkites import emanation
from boxkites.algebra import aso_form, sign_table, trip_orientation
from boxkites.emanation import (
    ZDGraph,
    census,
    find_box_kites,
    pathion_lift,
    sweep_range,
    trip_sync_sweep,
    zd_graph,
)
from boxkites.fixtures import (
    PATHION_CENSUS_CLAIMS,
    PATHION_S1_ASSESSORS,
    PATHION_S1_ROWS,
    PATHION_S9_KITES,
)
from boxkites.kites import (
    EDGE_LETTER_PAIRS,
    LETTERS,
    Assessor,
    BoxKite,
    assessor_lows,
    assessors_for_strut,
    build_box_kite,
    edge_rule,
    edge_sign,
    slot_trips,
)
from boxkites.lariats import quizzical_tables, switching_yard, trip_sync_report


def reference_graph(n, s):
    """Every edge sign of (n, s) as a pair dict, pair by pair: ``edge_rule``
    on rows of the sign table, keyed by lows a < b in lexicographic order.
    The oracle for ``zd_graph``'s masks."""
    lows = assessor_lows(s, n)
    table, x = sign_table(n), (1 << (n - 1)) + s
    ends = [(o, o ^ x) for o in lows]
    signs = {}
    for i, (a, big_a) in enumerate(ends):
        row, big_row = table[a], table[big_a]
        for b, big_b in ends[i + 1 :]:
            sign = edge_rule(row[b], big_row[big_b], row[big_b], big_row[b])
            if sign is not None:
                signs[a, b] = sign
    return signs


def at(n, a, b):
    """The bit of the pair (a, b) in a packed level int of level n."""
    return a << (n - 1) | b


def graph_rows(n, packed):
    """The rows of a packed level int, one shift each."""
    half = 1 << (n - 1)
    return [packed >> a * half & (1 << half) - 1 for a in range(half)]


def graph_from_signs(n, s, signs):
    """The ``ZDGraph`` whose edges and signs are those of a pair dict."""
    adjacency = plus = 0
    for (a, b), sign in signs.items():
        for p, q in ((a, b), (b, a)):
            adjacency |= 1 << at(n, p, q)
            plus |= (sign > 0) << at(n, p, q)
    return ZDGraph(n, s, adjacency, plus)


def reference_search(n, s):
    """The search the strut buckets replaced: every triple of non-edges in
    one global order, each induced octahedron once, then labelled by
    scanning all 20 vertex triples for XOR-closed transversal faces."""
    signs = reference_graph(n, s)
    assessors = assessors_for_strut(s, n)
    adjacency = [0] * len(assessors)
    non_edges = []
    for i, j in combinations(range(len(assessors)), 2):
        u, v = assessors[i].o, assessors[j].o
        if (min(u, v), max(u, v)) not in signs:
            non_edges.append((i, j))
        else:
            adjacency[i] |= 1 << j
            adjacency[j] |= 1 << i
    kites, seen = [], set()
    for e1, (u1, v1) in enumerate(non_edges):
        common1 = adjacency[u1] & adjacency[v1]
        for e2 in range(e1 + 1, len(non_edges)):
            u2, v2 = non_edges[e2]
            if not ((common1 >> u2) & 1 and (common1 >> v2) & 1):
                continue
            common2 = common1 & adjacency[u2] & adjacency[v2]
            for u3, v3 in non_edges[e2 + 1 :]:
                if not ((common2 >> u3) & 1 and (common2 >> v3) & 1):
                    continue
                members = frozenset((u1, v1, u2, v2, u3, v3))
                if members in seen:
                    continue
                seen.add(members)
                antipodes = [(assessors[u], assessors[v]) for u, v in ((u1, v1), (u2, v2), (u3, v3))]
                kite = reference_label(n, s, antipodes)
                if kite is not None:
                    kites.append(kite)
    kites.sort(key=lambda kite: tuple(v.o for v in kite.sail("ABC").vertices))
    return kites


def reference_label(n, s, antipodes):
    if len({u.o ^ v.o for u, v in antipodes}) != 1:
        return None
    by_low, partner = {}, {}  # keyed by low index: one (n, s) throughout
    for u, v in antipodes:
        by_low[u.o], by_low[v.o] = u, v
        partner[u.o], partner[v.o] = v.o, u.o
    faces = []
    for lows in combinations(partner, 3):
        if any(partner[a] == b for a, b in combinations(lows, 2)):
            continue
        if lows[0] ^ lows[1] ^ lows[2]:
            continue
        ordered = aso_form(lows)
        verts = tuple(by_low[o] for o in ordered)
        all_positive = all(
            trip_orientation(*t) > 0
            for t in (
                (verts[0].o, verts[1].o, verts[2].o),
                (verts[0].o, verts[1].hi, verts[2].hi),
                (verts[0].hi, verts[1].o, verts[2].hi),
                (verts[0].hi, verts[1].hi, verts[2].o),
            )
        )
        faces.append((ordered, verts, all_positive))
    if not faces:
        return None
    faces.sort(key=lambda f: f[0])
    zigzags = [f for f in faces if f[2]]
    chosen = zigzags[0] if zigzags else faces[0]
    vertex_map = dict(zip("ABC", chosen[1]))
    for letter, abc_letter in (("F", "A"), ("E", "B"), ("D", "C")):
        vertex_map[letter] = by_low[partner[vertex_map[abc_letter].o]]
    return BoxKite.assemble(n, s, vertex_map)


def bucket_scan(n, s, signs):
    """Strut low triples of the graph on the lows of (n, s) with the edges
    of a pair dict, by scanning whole strut-XOR buckets: three disjoint
    non-edges in bucket order, all twelve cross pairs edges, and the lows of
    the first two struts XOR-closing onto the third."""
    buckets = {}
    for a, b in combinations(assessor_lows(s, n), 2):
        if (a, b) not in signs:
            buckets.setdefault(a ^ b, []).append((a, b))

    def adjacent(p, q):
        return (min(p, q), max(p, q)) in signs

    found = []
    for bucket in buckets.values():
        for first, second, third in combinations(bucket, 3):
            if len(set(first + second + third)) != 6:
                continue
            pairs = (first, second, third)
            if not all(
                adjacent(p, q)
                for x, y in combinations(pairs, 2)
                for p in x
                for q in y
            ):
                continue
            closure = {first[0] ^ second[0], first[0] ^ second[1]}
            if {third[0], third[1]} == closure:
                found.append(first + second + third)
    return found


def is_native(kite):
    return all(u.o ^ v.o == kite.s for u, v in kite.struts)


class TestAssessorEnumeration:
    def test_pathion_s1_list(self):
        got = [a.indices for a in assessors_for_strut(1, 5)]
        assert sorted(got) == sorted(PATHION_S1_ASSESSORS)
        assert got == sorted(got)  # ascending low index
        assert len(got) == 14

    def test_sedenion_context_matches_kite_assessors(self):
        assert assessors_for_strut(1, 4) == assessors_for_strut(1)

    def test_s9_contains_quoted_pairs(self):
        got = {a.indices for a in assessors_for_strut(9, 5)}
        assert {(8, 17), (1, 24)} <= got

    def test_count_law(self):
        for n in (4, 5, 6):
            for s in (1, (1 << (n - 1)) - 1):
                assert len(assessors_for_strut(s, n)) == (1 << (n - 1)) - 2

    def test_inner_xor_law(self):
        for a in assessors_for_strut(9, 5):
            assert a.o ^ a.hi == 25

    def test_range_checks(self):
        with pytest.raises(ValueError):
            assessors_for_strut(1, 3)
        with pytest.raises(ValueError):
            assessors_for_strut(16, 5)


def non_adjacent_pairs(graph):
    """Low pairs (a, b), a < b, of the graph's vertices that carry no edge."""
    lows = assessor_lows(graph.s, graph.n)
    return [(a, b) for a, b in combinations(lows, 2) if not graph.adjacency >> at(graph.n, a, b) & 1]


def assert_graph_is(graph, signs):
    """``graph`` has the pair dict's edges and signs, in edge order, with each
    edge's sign in the "+" rows of both its ends."""
    assert list(graph.edges()) == [(a, b, sign) for (a, b), sign in signs.items()], graph.s
    assert graph.adjacency == graph_from_signs(graph.n, graph.s, signs).adjacency, graph.s
    for (a, b), sign in signs.items():
        assert graph.plus >> at(graph.n, b, a) & 1 == (sign > 0), (graph.s, a, b)


class TestZDGraph:
    def test_sedenion_graph_is_octahedron(self):
        graph = zd_graph(4, 1)
        assert sum(1 for row in graph_rows(4, graph.adjacency) if row) == 6
        assert len(list(graph.edges())) == 12
        assert len(non_adjacent_pairs(graph)) == 3

    def test_pathion_s1_graph(self):
        graph = zd_graph(5, 1)
        assert sum(1 for row in graph_rows(5, graph.adjacency) if row) == 14
        # complete minus the strut matching: every non-strut pair divides zero
        assert len(non_adjacent_pairs(graph)) == 7
        assert len(list(graph.edges())) == 14 * 13 // 2 - 7

    def test_edge_signs_recorded(self):
        graph = zd_graph(4, 1)
        lows = assessor_lows(1, 4)
        for a, b, sign in graph.edges():
            assert sign in (-1, 1)
            assert a < b and a in lows and b in lows
            assert graph.adjacency >> at(4, b, a) & 1  # each edge in both rows
        # the pairs left out are the struts, whose lows XOR to s
        assert all(a ^ b == graph.s for a, b in non_adjacent_pairs(graph))

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_signs_match_edge_sign_on_every_pair(self, n):
        # the graph reads the sign table, edge_sign reads blade_sign, and
        # edge_sign alone is checked against hc_mul
        for s in range(1, 1 << (n - 1)):
            graph = zd_graph(n, s)
            expected = [
                (u.o, v.o, edge_sign(u, v))
                for u, v in combinations(assessors_for_strut(s, n), 2)
            ]
            assert list(graph.edges()) == [e for e in expected if e[2] is not None], s

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_row_masks_match_the_graph(self, n):
        # the masks come from the packed level, whole rows at a time; the pair
        # dict from edge_rule on sign-table rows, one pair at a time
        for s in range(1, 1 << (n - 1)):
            assert_graph_is(zd_graph(n, s), reference_graph(n, s))

    @pytest.mark.parametrize("n", [8, 9, 10])
    def test_packed_masks_match_the_graph_above_n7(self, n):
        # s = 1, the least s with bit n - 2 set, and the s with every bit set
        for s in (1, (1 << (n - 2)) + 1, (1 << (n - 1)) - 1):
            assert_graph_is(zd_graph(n, s), reference_graph(n, s))

    def test_packed_level_is_kept_for_one_level(self):
        packed = emanation._level_bits
        packed.cache_clear()
        census(5)
        census(6)
        assert packed.cache_info().currsize == 1 and packed.cache_info().misses == 2
        packed(6)
        assert packed.cache_info().hits > 0 and packed.cache_info().misses == 2


class TestSignTableUse:
    """Entry points that take one object, at any n, build no table."""

    def test_object_entry_points_build_no_table(self, monkeypatch):
        kites = [build_box_kite(s) for s in range(1, 8)] + find_box_kites(5, 9)
        swept = find_box_kites(6, 25)  # 56 of its 87 kites fail trip sync
        groups = [assessors_for_strut(s, n) for n, s in [(4, 3), (5, 9), (6, 25)]]
        groups.append([Assessor(20, o, o ^ ((1 << 19) + 5)) for o in range(1, 41) if o != 5])
        pairs = [pair for group in groups for pair in combinations(group, 2)]

        def results():
            return (
                [edge_sign(a1, a2) for a1, a2 in pairs],
                [build_box_kite(s) for s in range(1, 8)],
                [trip_sync_report(kite) for kite in kites + swept],
                [switching_yard(kite) for kite in kites],
                [quizzical_tables(kite) for kite in kites],
            )

        expected = results()

        def refuse(n):
            raise AssertionError(f"sign table of level {n} asked for")

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "boxkites" and hasattr(module, "sign_table"):
                monkeypatch.setattr(module, "sign_table", refuse)
        with pytest.raises(AssertionError, match="asked for"):
            zd_graph(5, 1)
        assert results() == expected

    def test_trip_sync_report_refuses_vertices_off_one_x(self):
        kite = build_box_kite(1)
        stray = Assessor(4, kite.vertices[0].o, kite.vertices[0].o ^ 10)  # X = 10, not 9
        # refused when built, so trip_sync_report never meets it
        with pytest.raises(ValueError, match="vertex A = \\(3,9\\) does not carry X = 9"):
            BoxKite(4, 1, (stray,) + kite.vertices[1:])


class TestFindBoxKites:
    def test_sedenion_search_agrees_with_construction(self):
        for s in range(1, 8):
            kites = find_box_kites(4, s)
            assert len(kites) == 1
            assert kites[0].vertices == build_box_kite(s).vertices

    def test_pathion_s1_rows_in_order(self):
        kites = find_box_kites(5, 1)
        rows = tuple(tuple(k.vertex(p).o for p in LETTERS) for k in kites)
        assert rows == PATHION_S1_ROWS

    def test_pathion_s9_trio(self):
        kites = find_box_kites(5, 9)
        got = tuple({p: k.vertex(p).indices for p in LETTERS} for k in kites)
        assert got == PATHION_S9_KITES

    def test_pathion_s9_shared_strut(self):
        for kite in find_box_kites(5, 9):
            strut = {kite.vertex("B").indices, kite.vertex("E").indices}
            assert strut == {(8, 17), (1, 24)}

    def test_pathion_s8_carries_each_otrip_once(self):
        kites = find_box_kites(5, 8)
        assert len(kites) == 7
        abc_sets = sorted(
            tuple(sorted(k.vertex(p).o for p in "ABC")) for k in kites
        )
        assert abc_sets == [
            (1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6), (2, 5, 7), (3, 4, 7), (3, 5, 6),
        ]

    def test_kites_are_hashable(self):
        kites = find_box_kites(6, 25)
        assert len(set(kites)) == len(kites) == 87
        rebuilt = BoxKite.assemble(6, 25, dict(zip(LETTERS, kites[0].vertices)))
        assert rebuilt == kites[0] and hash(rebuilt) == hash(kites[0])

    def test_every_found_kite_keeps_octahedral_invariants(self):
        for s in (1, 8, 9):
            adjacency = zd_graph(5, s).adjacency
            for kite in find_box_kites(5, s):
                assert len(kite.edge_signs) == 12
                for v1, v2 in kite.struts:
                    assert edge_sign(v1, v2) is None
                    assert not adjacency >> at(5, v1.o, v2.o) & 1
                for sail in kite.sails:
                    lows = [v.o for v in sail.vertices]
                    assert lows[0] ^ lows[1] ^ lows[2] == 0

    def test_abc_is_the_zigzag(self):
        for s in (1, 8, 9):
            for kite in find_box_kites(5, s):
                zigzags = kite.zigzag_sails()
                assert [z.name for z in zigzags] == ["ABC"]

    def test_sail_edge_sign_split_generalizes(self):
        # one all-minus sail and three single-minus sails per kite
        for s in range(1, 16):
            for kite in find_box_kites(5, s):
                minus_counts = sorted(
                    sum(1 for x in sail.edge_signs if x < 0) for sail in kite.sails
                )
                assert minus_counts == [1, 1, 1, 3]

    def test_abc_all_minus_iff_zigzag_sail_at_n6(self):
        # the labelling convention of the kites module docstring: A, B, C
        # is a zigzag sail when there is one, else the least sail
        counts = {True: 0, False: 0}
        for s in range(1, 32):
            for kite in find_box_kites(6, s):
                all_minus = all(x < 0 for x in kite.sail("ABC").edge_signs)
                assert all_minus == bool(kite.zigzag_sails()), (s, kite)
                counts[all_minus] += 1
        assert counts == {True: 945, False: 168}

    @pytest.mark.parametrize(
        "n,s,raw_expected,kite_expected",
        [(4, 1, 1, 1), (4, 5, 1, 1), (5, 1, 35, 7), (5, 9, 3, 3)],
    )
    def test_search_against_brute_force_oracle(self, n, s, raw_expected, kite_expected):
        # independent oracle: scan every 6-subset for induced octahedra, then
        # keep those with a shared strut XOR and an XOR-closed transversal
        signs = reference_graph(n, s)
        raw, qualifying = [], []
        for six in combinations(assessors_for_strut(s, n), 2 * 3):
            non_adj = [
                (u, v)
                for u, v in combinations(six, 2)
                if (min(u.o, v.o), max(u.o, v.o)) not in signs
            ]
            if len(non_adj) != 3:
                continue
            if len({x for pair in non_adj for x in pair}) != 6:
                continue
            raw.append(frozenset(six))
            if len({u.o ^ v.o for u, v in non_adj}) != 1:
                continue
            transversal_trips = [
                (a.o, b.o, c.o)
                for a, b, c in combinations(six, 3)
                if a.o ^ b.o ^ c.o == 0
                and not any(
                    (x, y) in non_adj or (y, x) in non_adj
                    for x, y in combinations((a, b, c), 2)
                )
            ]
            if transversal_trips:
                qualifying.append(frozenset(six))
        assert len(raw) == raw_expected
        found = {frozenset(k.vertices) for k in find_box_kites(n, s)}
        assert len(found) == kite_expected
        assert found == set(qualifying)


    @pytest.mark.parametrize("n", [5, 6])
    def test_matches_reference_search_in_order(self, n):
        for s in range(1, 1 << (n - 1)):
            assert find_box_kites(n, s) == reference_search(n, s), s

    @pytest.mark.parametrize("n,s,seed", [(5, 1, 0), (5, 9, 1), (6, 5, 2), (6, 25, 3)])
    def test_closure_search_on_doctored_graphs(self, n, s, seed):
        # the algebra's graphs never trip the search's guards (a third low
        # equal to s, a third pair that is an edge or misses an adjacency),
        # so flip one pair in eight and compare with a scan of whole buckets
        reference = reference_graph(n, s)
        rng = random.Random(seed)
        signs = {}
        for pair in combinations(assessor_lows(s, n), 2):
            sign = reference.get(pair)
            if rng.random() < 1 / 8:
                sign = None if sign else 1
            if sign:
                signs[pair] = sign
        doctored = graph_from_signs(n, s, signs)
        assert list(emanation._kite_struts(doctored)) == bucket_scan(n, s, signs)

    @pytest.mark.parametrize("s", [2, 7, 14])
    def test_closure_search_when_a_third_low_is_s(self, s):
        # complete graph minus one low-XOR class t: for t = s ^ (s + 1) the
        # closure of two struts can land on the absent low s, which the
        # search rejects only because no adjacency bit of s is ever set
        for t in range(1, 16):
            signs = {
                (a, b): 1
                for a, b in combinations(assessor_lows(s, 5), 2)
                if a ^ b != t
            }
            graph = graph_from_signs(5, s, signs)
            assert list(emanation._kite_struts(graph)) == bucket_scan(5, s, signs), t

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_graph_signs_agree_with_validating_constructor(self, n):
        # the graph's masks and each kite's constructor read the same held
        # sign table (test_kites.TestSignSources checks blade_sign's rows)
        for s in range(1, 1 << (n - 1)):
            signs = {(a, b): sign for a, b, sign in zd_graph(n, s).edges()}
            for kite in find_box_kites(n, s):
                graph_signs = tuple(signs[tuple(sorted((kite.vertex(p).o, kite.vertex(q).o)))]
                                    for p, q in EDGE_LETTER_PAIRS)
                assert kite.edge_signs == graph_signs, (s, kite)

    def test_every_searched_candidate_is_a_kite(self, monkeypatch):
        labelled = []
        label = emanation._label_kite

        def counting(*args):
            labelled.append(args)
            return label(*args)

        monkeypatch.setattr(emanation, "_label_kite", counting)
        for s in range(1, 32):
            labelled.clear()
            assert len(find_box_kites(6, s)) == len(labelled), s

    @pytest.mark.parametrize("n,expected", [(5, 7), (6, 35), (7, 155), (8, 651), (9, 2667)])
    def test_s1_count_law(self, n, expected):
        kites = find_box_kites(n, 1)
        assert len(kites) == ((1 << (n - 2)) - 1) * ((1 << (n - 3)) - 1) // 3 == expected
        assert all(is_native(kite) for kite in kites)


class TestZigzagRule:
    """A sail's three edges are all "-" exactly when its four slot triples,
    lows in ASO order, are positive, so labelling by the edges is
    labelling by the orientations."""

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_edge_rule_and_orientation_rule_agree(self, n):
        for s in range(1, 1 << (n - 1)):
            for kite in find_box_kites(n, s):
                zigzag = False
                for sail in kite.sails:
                    a, b, c = sail.vertices
                    if trip_orientation(a.o, b.o, c.o) < 0:
                        a, c = c, a  # reversed, it is a rotation of the ASO order
                    trips = slot_trips([v.indices for v in (a, b, c)])
                    positive = min(trip_orientation(*t) for t in trips) > 0
                    assert (sail.kind == "zigzag") == positive, (s, kite, sail.name)
                    zigzag = zigzag or positive
                if zigzag:  # the ABC sail is then a zigzag, and passes
                    assert trip_sync_report(kite).sails[0].passed, (s, kite)
                if n == 7:  # test_matches_reference_search_in_order checks n = 5, 6
                    assert kite == reference_label(n, s, kite.struts), (s, kite)

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_face_order_from_the_sign_table_is_aso_form(self, n):
        for s in range(1, 1 << (n - 1)):
            for lows in emanation._kite_lows(n, s):
                assert lows[:3] == aso_form(lows[:3]), (s, lows)

    def test_zigzag_sails_per_kite_at_n6_s25(self):
        # whatever the spelling, a sail with three "-" edges is a zigzag
        counts = Counter(len(kite.zigzag_sails()) for kite in find_box_kites(6, 25))
        assert counts == {0: 24, 1: 55, 4: 8}

    @pytest.mark.parametrize("patterns,chosen", [
        (("--+", "---", "---", "+++"), 1),  # the first all-"-" face
        (("--+", "-++", "+-+", "+++"), 0),  # none: the least face
        (("-+-", "---", "---", "+++"), 1),  # whichever edge of a face is "+"
        (("+--", "---", "---", "+++"), 1),
    ])
    def test_labelling_counts_all_three_edges(self, patterns, chosen, monkeypatch):
        # on the algebra's kites every sail has one or three "-" edges, so
        # doctor the graph's "+" rows the labelling reads: each edge lies on
        # one sail, and the faces, in the labelling's order, take these signs
        # on their edges (v0-v1, v1-v2, v2-v0), in both rows of each edge.
        # The edges and the sign table, read for the ASO order, stay as they are.
        graph = zd_graph(4, 1)
        faces = sorted(aso_form(v.o for v in sail.vertices) for sail in find_box_kites(4, 1)[0].sails)
        plus = graph.plus
        for lows, pattern in zip(faces, patterns):
            u, v, w = lows
            for (p, q), mark in zip(((u, v), (v, w), (w, u)), pattern):
                for bit in (at(4, p, q), at(4, q, p)):
                    plus = plus & ~(1 << bit) | (mark == "+") << bit
        doctored = ZDGraph(4, 1, graph.adjacency, plus)
        monkeypatch.setattr(emanation, "zd_graph", lambda n, s: doctored)
        assert next(emanation._kite_lows(4, 1))[:3] == faces[chosen]


class TestPathionLift:
    def test_lift_examples(self):
        lifted = pathion_lift(build_box_kite(1))
        assert lifted.vertex("A").indices == (3, 18)
        assert lifted.vertex("B").indices == (6, 23)

    def test_lift_found_by_search(self):
        for s in range(1, 8):
            lifted = pathion_lift(build_box_kite(s))
            found = {frozenset(k.vertices) for k in find_box_kites(5, s)}
            assert frozenset(lifted.vertices) in found

    def test_lift_rejects_non_sedenion(self):
        with pytest.raises(ValueError):
            pathion_lift(pathion_lift(build_box_kite(1)))


def test_census_and_sweep_build_no_assessor(monkeypatch):
    def refused(self):
        raise AssertionError(f"Assessor{self.indices} built")

    monkeypatch.setattr(Assessor, "__post_init__", refused)
    assert census(6).total == 1113
    for s in (1, 24, 41, 63):
        assert list(emanation.sweep_entries(7, s))
    with pytest.raises(AssertionError):
        find_box_kites(5, 1)


class TestCensus:
    def test_sedenion_census(self):
        report = census(4)
        assert report.per_s == {s: 1 for s in range(1, 8)}
        assert report.total == 7

    def test_pathion_census_counts(self):
        report = census(5)
        for s, count in report.per_s.items():
            expected = (
                PATHION_CENSUS_CLAIMS["per_s_low"]
                if s <= 8
                else PATHION_CENSUS_CLAIMS["per_s_high"]
            )
            assert count == expected, s
        assert report.total == PATHION_CENSUS_CLAIMS["arithmetic_total"]
        assert report.total != PATHION_CENSUS_CLAIMS["stated_total"]

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_counting_agrees_with_labelling(self, n):
        report = census(n)
        assert report.per_s == {s: len(find_box_kites(n, s)) for s in range(1, 1 << (n - 1))}

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_only_the_order_condition_rejects_a_third_strut(self, n):
        # from the graph alone: a kite's three struts share a low-XOR bucket
        # and make three cross-adjacent pairs, so the pairs number three per
        # kite exactly when every such pair completes to a kite
        per_s = census(n).per_s
        for s in range(1, 1 << (n - 1)):
            adjacency = graph_rows(n, zd_graph(n, s).adjacency)
            neighbours = {o: adjacency[o] for o in assessor_lows(s, n)}
            buckets = {}
            for a, b in combinations(neighbours, 2):
                if not (neighbours[a] >> b) & 1:
                    buckets.setdefault(a ^ b, []).append((a, b))
            cross_adjacent = 0
            for bucket in buckets.values():
                for (u1, v1), (u2, v2) in combinations(bucket, 2):
                    common = neighbours[u1] & neighbours[v1]
                    cross_adjacent += (common >> u2) & (common >> v2) & 1
            assert cross_adjacent == 3 * per_s[s], s

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_carried_counts_equal_the_exhaustive_search(self, n):
        exhaustive = {
            s: sum(1 for _ in emanation._kite_struts(zd_graph(n, s)))
            for s in range(1, 1 << (n - 1))
        }
        assert census(n).per_s == exhaustive

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_sources_name_a_searched_s(self, n):
        sources = census(n).sources
        assert list(sources) == list(range(1, 1 << (n - 1)))
        for s, r in sources.items():
            # L_v from the s = 8k + 1 below s, or tau_j from (s ^ 2^j) | 1
            assert r == (s & ~7 | 1 if s & 7 else (s ^ s & -s) | 1), s
            assert r & 7 == 1 and sources[r] == r, s
        # every map passed its check: one search per s = 8k + 1
        assert [s for s, r in sources.items() if r == s] == [s for s in sources if s & 7 == 1]

    def test_n7_counts_by_class(self):
        # one count per s = 8k + 1 and the s carried from it
        classes = {
            1: (155, [*range(1, 9), 16, 32]),
            9: (91, range(9, 16)),
            17: (43, range(17, 25)),
            25: (619, range(25, 32)),
            33: (15, [*range(33, 41), 48]),
            41: (847, range(41, 48)),
            49: (575, range(49, 57)),
            57: (255, range(57, 64)),
        }
        report = census(7)
        assert report.per_s == {s: count for count, members in classes.values() for s in members}
        assert report.sources == {s: r for r, (_, members) in classes.items() for s in members}
        assert report.total == 19313

    @pytest.mark.parametrize("n", [5, 6])
    def test_moves_act_as_the_index_map(self, n):
        # each transvection (i, j) sets bit j of an index to bit j ^ bit i; the
        # moves send the bit of every pair (a, b) to that of (M a, M b)
        def index_map(moves, a):
            for i, j in moves:
                a ^= (a >> i & 1) << j
            return a

        lows = range(1 << (n - 1))
        for s in lows[2:]:
            r, moves = emanation._carry(s)
            assert index_map(moves, r) == s, s
            for a in lows:
                for b in lows:
                    image = at(n, index_map(moves, a), index_map(moves, b))
                    assert emanation._moved(n, moves, 1 << at(n, a, b)) == 1 << image, (s, a, b)

    @staticmethod
    def missing(s, carry):
        """``_carry(s)`` with one more transvection, out of the lowest set bit
        of s, so that the map sends r to an index other than s."""
        r, moves = carry(s)
        i = (s & -s).bit_length() - 1
        return r, moves + ((i, (i + 1) % 3 if i < 3 else 0),)

    @pytest.mark.parametrize("v", range(2, 8))
    def test_a_map_wrong_in_one_image_is_refused(self, v, monkeypatch):
        expected = census(6).per_s
        carry = emanation._carry
        monkeypatch.setattr(emanation, "_carry", lambda s: self.missing(s, carry) if s & 7 == v else carry(s))
        report = census(6)
        assert report.per_s == expected
        assert [s for s, r in report.sources.items() if r == s] == [
            s for s in range(1, 32) if s & 7 in (1, v)
        ]

    @pytest.mark.parametrize("j", [3, 4, 5])
    def test_a_transposition_wrong_in_one_image_is_refused(self, j, monkeypatch):
        expected = census(7).per_s
        carry = emanation._carry
        monkeypatch.setattr(emanation, "_carry", lambda s: self.missing(s, carry) if s & -s == 1 << j else carry(s))
        report = census(7)
        assert report.per_s == expected
        # the s whose lowest set bit is j are searched, every other map is used
        assert [s for s, r in report.sources.items() if r == s] == [
            s for s in range(1, 64) if s & 7 == 1 or s & -s == 1 << j
        ]

    @staticmethod
    def doctored_relations(n, s, target):
        """``target`` wrong in one edge (both bits), in one bit alone, or with
        a bit set in row 0 or in row s."""
        for a, b in [(2, 4), (s ^ 1, s ^ 2), (5, 6)]:
            yield (a, b), target ^ 1 << at(n, a, b) ^ 1 << at(n, b, a)
            yield (a, b, "one bit"), target ^ 1 << at(n, a, b)
        for row in (0, s):
            yield (row, "row"), target | 1 << at(n, row, 3 if s != 3 else 5)

    def assert_checked(self, n, s):
        r, moves = emanation._carry(s)
        source, target = zd_graph(n, r).adjacency, zd_graph(n, s).adjacency
        assert emanation._maps_onto(n, moves, r, s, source, target)
        # the same relations, for a low the moves do not send to s
        assert not emanation._maps_onto(n, moves, r ^ 2, s, source, target)
        for doctoring, doctored in self.doctored_relations(n, s, target):
            assert not emanation._maps_onto(n, moves, r, s, source, doctored), doctoring

    @pytest.mark.parametrize("n,s", [(5, 3), (6, 14), (7, 61)])
    def test_a_relation_wrong_in_one_edge_is_not_carried(self, n, s):
        self.assert_checked(n, s)

    @pytest.mark.parametrize("n,s", [(5, 8), (6, 24), (7, 48)])
    def test_a_relation_wrong_in_one_edge_is_not_transposed(self, n, s):
        self.assert_checked(n, s)

    def test_census_builds_no_kite(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("census labelled or assembled a kite")

        monkeypatch.setattr(emanation, "_label_kite", refuse)
        monkeypatch.setattr(BoxKite, "assemble", classmethod(refuse))
        monkeypatch.setattr(BoxKite, "__post_init__", refuse)
        assert census(6).total == 1113

    def test_census_retains_nothing(self):
        # each (n, s) is computed once and dropped: no graph or kite outlives
        # the call (blade_sign's small table of signs is all that stays)
        census(4)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            census(6)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 1 << 20, retained


@pytest.mark.parametrize("n", [0, 3, -1])
@pytest.mark.parametrize(
    "entry",
    [census, trip_sync_sweep, lambda n: trip_sync_sweep(n, []), lambda n: zd_graph(n, 1),
     lambda n: find_box_kites(n, 1), lambda n: list(emanation.sweep_entries(n, 1)),
     lambda n: Assessor(n, 1, 5)],
    ids=["census", "trip_sync_sweep", "trip_sync_sweep-no-s", "zd_graph", "find_box_kites",
         "sweep_entries", "Assessor"],
)
def test_level_below_sedenions_refused(entry, n):
    message = rf"starts at the sedenions: n must be at least 4 \(dimension 16\); got n = {n}$"
    with pytest.raises(ValueError, match=message):
        entry(n)


def refuse_tables(monkeypatch):
    """Make every module of the package fail on building a sign table."""
    def no_table(n):
        raise AssertionError(f"sign table of level {n} built")

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "boxkites" and hasattr(module, "sign_table"):
            monkeypatch.setattr(module, "sign_table", no_table)


@pytest.mark.parametrize("n,s", [(4, 0), (4, 8), (6, 99), (6, -1), (1000, 0)])
def test_strut_constant_outside_level_refused(n, s, monkeypatch):
    # refused before any module asks for a sign table, which at n = 1000
    # would hold 4^1000 bytes
    refuse_tables(monkeypatch)
    half = 1 << (n - 1)
    message = rf"^strut constants at dimension {2 * half} lie strictly between 0 and {half}$"
    for refused in (lambda: zd_graph(n, s), lambda: find_box_kites(n, s),
                    lambda: list(emanation.sweep_entries(n, s)),
                    lambda: assessors_for_strut(s, n)):
        with pytest.raises(ValueError, match=message):
            refused()


@pytest.mark.parametrize("entry", [
    lambda: census(40), lambda: trip_sync_sweep(40), lambda: trip_sync_sweep(40, [3]),
    lambda: zd_graph(16, 1), lambda: find_box_kites(16, 1),
    lambda: list(emanation.sweep_entries(13, 1)), lambda: sweep_range(13),
], ids=["census", "trip_sync_sweep", "trip_sync_sweep-one-s", "zd_graph", "find_box_kites",
        "sweep_entries", "sweep_range"])
def test_level_past_the_table_limit_refused(entry, monkeypatch):
    # refused before a table or a range of every s is built: census(40)
    # would range over 2^39 - 1 values, and the table of level 16 is 4 GB
    refuse_tables(monkeypatch)
    with pytest.raises(ValueError, match=r"only up to n = 12 \(dimension 4096\); got n = (13|16|40)$"):
        entry()


def test_one_object_past_the_table_limit_builds_with_no_table(monkeypatch):
    refuse_tables(monkeypatch)
    assert sweep_range(13, [1, 4095]) == (1, 4095)
    x = (1 << 39) + 1  # box-kite I's lows at level 40 are a kite
    kite = BoxKite(40, 1, tuple(Assessor(40, v.o, v.o ^ x) for v in build_box_kite(1).vertices))
    assert kite.edge_signs == tuple(edge_sign(kite.vertex(p), kite.vertex(q))
                                    for p, q in EDGE_LETTER_PAIRS)


def test_sweep_range_refuses_at_once(monkeypatch):
    # refused while the s values are read, before any graph is built
    def no_search(n, s):
        raise AssertionError(f"graph of ({n}, {s}) built")

    monkeypatch.setattr(emanation, "zd_graph", no_search)
    for s_values in ([0, 99], [1, 32], [-3]):
        with pytest.raises(ValueError, match="lie strictly between 0 and 32$"):
            sweep_range(6, s_values)
        with pytest.raises(ValueError, match="lie strictly between 0 and 32$"):
            trip_sync_sweep(6, s_values)
    assert sweep_range(6, [31, 1, 31]) == (1, 31)
    # an empty sweep would pass having checked nothing
    with pytest.raises(ValueError, match="^a sweep needs at least one strut constant; "
                                         "None sweeps all of level 6$"):
        trip_sync_sweep(6, [])


class TestSweep:
    def test_sedenion_sweep_passes(self):
        report = trip_sync_sweep(4)
        assert report.kite_count == 7
        assert report.all_passed

    def test_pathion_sweep_passes(self):
        report = trip_sync_sweep(5)
        assert report.kite_count == 77
        assert report.all_passed

    def test_pathion_s9_entries(self):
        report = trip_sync_sweep(5, [9])
        assert report.kite_count == 3
        assert report.all_passed

    @pytest.mark.parametrize("n, tally", [(6, (1113, 392)), (7, (19313, 12824))], ids=["6", "7"])
    def test_whole_level_tally(self, n, tally):
        # (kites, failing kites) of every s, as literal data
        report = trip_sync_sweep(n)
        assert (report.kite_count, report.failures) == tally
        assert not report.all_passed

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_tally_counts_the_entries(self, n):
        per_s = census(n).per_s
        for s in range(1, 1 << (n - 1)):
            report = trip_sync_sweep(n, [s])
            entries = list(emanation.sweep_entries(n, s))
            failures = sum(not e.passed for e in entries)
            assert (report.kite_count, report.failures) == (len(entries), failures), s
            assert report.all_passed == (failures == 0), s
            assert report.kite_count == per_s[s], s

    def test_sweep_keeps_no_entry(self):
        # the tally alone is kept: the traced peak over all 1,113 kites of
        # n = 6 stays near one s's graph (about 60 KB; 380 KB with every entry)
        trip_sync_sweep(6, [1])
        gc.collect()
        tracemalloc.start()
        try:
            trip_sync_sweep(6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 17, peak

    def test_deterministic_and_order_independent(self):
        forward = trip_sync_sweep(5, [1, 8, 9])
        backward = trip_sync_sweep(5, [9, 8, 1])
        assert forward == backward

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_fused_verdicts_match_trip_sync_report(self, n):
        # the sweep reads orientations from the sign table and builds no kite;
        # the one-kite report on each kite of find_box_kites is the reference,
        # per kite and in that order
        for s in range(1, 1 << (n - 1)):
            expected = []
            for kite in find_box_kites(n, s):
                report = trip_sync_report(kite)
                counterexamples = tuple(
                    trip for sail in report.sails for trip in sail.counterexamples()
                )
                expected.append((s, report.abc_lows, report.passed, counterexamples))
            fused = [
                (e.s, e.abc_lows, e.passed, e.counterexamples)
                for e in emanation.sweep_entries(n, s)
            ]
            assert fused == expected, (n, s)

    def test_n6_tally_by_nativity_and_zigzags(self):
        # every kite of n = 6, labelled by the search and judged by the
        # one-kite report: (native, zigzag sails, passed) -> kites.  Natives
        # all pass; a kite with no zigzag sail or with four fails.
        tally = Counter()
        for s in range(1, 32):
            kites = find_box_kites(6, s)
            entries = list(emanation.sweep_entries(6, s))
            assert [e.abc_lows for e in entries] == [k.sail("ABC").trips()[0] for k in kites], s
            for kite, entry in zip(kites, entries):
                passed = trip_sync_report(kite).passed
                assert entry.passed == passed, (s, kite)
                tally[is_native(kite), len(kite.zigzag_sails()), passed] += 1
        assert tally == {
            (True, 1, True): 665,
            (False, 1, True): 56,
            (False, 1, False): 168,
            (False, 0, False): 168,
            (False, 4, False): 56,
        }

    def test_failures_carry_counterexamples(self):
        # the doubly-high strut region at n=6 genuinely breaks the pattern;
        # every reported failure must carry reproducible counterexample trips
        entries = list(emanation.sweep_entries(6, 25))
        failures = [e for e in entries if not e.passed]
        assert failures, "expected counterexample kites at n=6, s=25"
        report = trip_sync_sweep(6, [25])
        assert (report.kite_count, report.failures) == (len(entries), len(failures))
        for entry in failures:
            assert entry.counterexamples
            for a, b, c in entry.counterexamples:
                assert a ^ b == c

    def test_native_kites_pass_everywhere_at_n6(self):
        # full sweep: every kite whose strut low-XOR equals the context strut
        # constant satisfies trip-sync; every failing kite is an alien-XOR one
        from boxkites.lariats import trip_sync_report

        for s in range(1, 32):
            for kite in find_box_kites(6, s):
                delta = kite.vertex("A").o ^ kite.vertex("F").o
                if not trip_sync_report(kite).passed:
                    assert delta != s, (s, kite)
