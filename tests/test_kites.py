"""Box-kite assembly against the strut table, and the sail machinery."""

import random
import re
from functools import cache
from itertools import combinations, permutations

import pytest

from boxkites.fixtures import (
    AUTOMORPHEMES,
    S_TRIPS,
    SIX_CYCLE_ABC_BK1,
    STRUT_TABLE,
    TRAY_RACKS,
    TRIGRAM_SWITCHED,
    TRIGRAM_UNSWITCHED,
)
from boxkites.algebra import hc_mul, held_sign_table, sign_table, trip_orientation
from boxkites import kites
from boxkites.emanation import find_box_kites, pathion_lift
from boxkites.kites import (
    EDGE_LETTER_PAIRS,
    LETTERS,
    SAIL_LETTERS,
    STRUT_LETTER_PAIRS,
    Assessor,
    BoxKite,
    Sail,
    assessors_for_strut,
    automorpheme,
    build_box_kite,
    edge_rule,
    edge_sign,
    goto_numbers,
    is_zero_divisor_pair,
    sail_six_cycle,
    tray_racks,
    trigram_code,
)
from boxkites.render import box_kite_payload, parse_box_kite


def bk1():
    return build_box_kite(1)


class TestAssessors:
    def test_strut_one(self):
        got = {a.indices for a in assessors_for_strut(1)}
        assert got == {(2, 11), (3, 10), (4, 13), (5, 12), (6, 15), (7, 14)}

    def test_strut_seven(self):
        got = {a.indices for a in assessors_for_strut(7)}
        assert {(1, 14), (6, 9)} <= got

    def test_inner_xor_forced(self):
        for s in range(1, 8):
            for a in assessors_for_strut(s):
                assert a.o ^ a.hi == 8 + s
                assert a.s == s

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            assessors_for_strut(8)
        with pytest.raises(ValueError):
            assessors_for_strut(0)

    @pytest.mark.parametrize("n,o,hi,message", [
        (0, 1, 2, r"starts at the sedenions: .*; got n = 0$"),
        (4, 1, 9, r"^strut constants at dimension 16 lie strictly between 0 and 8$"),
        (5, 3, 19, r"^strut constants at dimension 32 lie strictly between 0 and 16$"),
    ], ids=["n0", "n4-s0", "n5-s0"])
    def test_refused_off_a_level_or_strut_range(self, n, o, hi, message):
        # the level is checked before the indices and s, which shift by n - 1
        with pytest.raises(ValueError, match=message):
            Assessor(n, o, hi)

    def test_diagonal_reps(self):
        a = Assessor(4, 3, 10)
        assert a.slash.rep.coeffs == {3: 1, 10: 1}
        assert a.backslash.rep.coeffs == {3: 1, 10: -1}


class TestZeroDivisorPairs:
    def test_cross_assessor_pairing(self):
        a, b = Assessor(4, 3, 10), Assessor(4, 6, 15)
        assert is_zero_divisor_pair(a.slash, b.backslash)
        assert not is_zero_divisor_pair(a.slash, b.slash)

    def test_own_diagonals_never(self):
        a = Assessor(4, 3, 10)
        assert not is_zero_divisor_pair(a.slash, a.backslash)

    def test_strut_mates_never(self):
        a, f = Assessor(4, 3, 10), Assessor(4, 2, 11)
        for d1 in (a.slash, a.backslash):
            for d2 in (f.slash, f.backslash):
                assert not is_zero_divisor_pair(d1, d2)

    def test_symmetry(self):
        a, b = Assessor(4, 3, 10), Assessor(4, 6, 15)
        assert is_zero_divisor_pair(b.backslash, a.slash)


@cache
def diagonal_reps(a):
    return a.slash.rep, a.backslash.rep


def oracle_edge_sign(a1, a2):
    """Edge sign from the four diagonal products, each computed by hc_mul.

    The two pairings of each orientation class must agree, and the two
    classes must never both vanish.
    """
    (slash1, backslash1), (slash2, backslash2) = diagonal_reps(a1), diagonal_reps(a2)
    like = hc_mul(slash1, slash2).is_zero
    like_mate = hc_mul(backslash1, backslash2).is_zero
    unlike = hc_mul(slash1, backslash2).is_zero
    unlike_mate = hc_mul(backslash1, slash2).is_zero
    assert like == like_mate and unlike == unlike_mate, f"orientation mates disagree for {a1} x {a2}"
    assert not (like and unlike), f"both orientation classes vanish for {a1} x {a2}"
    return 1 if like else -1 if unlike else None


def every_assessor(n):
    return [a for s in range(1, 1 << (n - 1)) for a in assessors_for_strut(s, n)]


class TestEdgeSignClosedForm:
    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_every_pair_matches_oracle(self, n):
        # same s, across different s, and each assessor with itself
        seen = set()
        for a1, a2 in combinations(every_assessor(n), 2):
            sign = edge_sign(a1, a2)
            assert sign == oracle_edge_sign(a1, a2), (a1, a2)
            if a1.s != a2.s:
                assert sign is None, (a1, a2)
            seen.add(sign)
        for a in every_assessor(n):
            assert edge_sign(a, a) is None
            assert oracle_edge_sign(a, a) is None
        assert seen == {1, -1, None}

    def test_seeded_full_strut_sets_at_n7(self):
        for s in random.Random(7).sample(range(1, 64), 3):
            for a1, a2 in combinations(assessors_for_strut(s, 7), 2):
                assert edge_sign(a1, a2) == oracle_edge_sign(a1, a2), (a1, a2)

    def test_mixed_dimensions_raise(self):
        with pytest.raises(ValueError):
            edge_sign(Assessor(4, 3, 10), Assessor(5, 3, 26))


def b_and_f_swapped(kite):
    """The kite's vertices with B and F swapped: A-B and E-F are struts now."""
    v = kite.vertices
    return (v[0], v[5], *v[2:5], v[1])


class TestStrutTable:
    def test_all_rows(self):
        for s, row in STRUT_TABLE.items():
            bk = build_box_kite(s)
            assert {p: bk.vertex(p).indices for p in LETTERS} == row["vertices"], s

    def test_goto_tuples(self):
        for s, row in STRUT_TABLE.items():
            assert goto_numbers(build_box_kite(s)) == row["goto"], s

    def test_goto_coverage(self):
        # each canonical triple index appears in exactly four kites' tuples
        counts = {i: 0 for i in range(1, 8)}
        for s in range(1, 8):
            for g in goto_numbers(build_box_kite(s)):
                counts[g] += 1
        assert counts == {i: 4 for i in range(1, 8)}

    def test_strut_xors_equal_s(self):
        for s in range(1, 8):
            bk = build_box_kite(s)
            for v1, v2 in bk.struts:
                assert v1.o ^ v2.o == s

    def test_edge_sign_rule(self):
        for s in range(1, 8):
            bk = build_box_kite(s)
            for tri in (("A", "B", "C"), ("D", "E", "F")):
                for i in range(3):
                    assert bk.edge(tri[i], tri[(i + 1) % 3]) == -1
            for p, q in (("A", "D"), ("A", "E"), ("B", "D"),
                         ("B", "F"), ("C", "E"), ("C", "F")):
                assert bk.edge(p, q) == 1

    def test_bad_strut_rejected(self):
        with pytest.raises(ValueError):
            build_box_kite(0)

    def test_assemble_rejects_wrong_geometry(self):
        bk = bk1()
        letters = dict(zip(LETTERS, bk.vertices))
        # swap a strut mate into a sail slot: struts then zero-divide
        letters["A"], letters["F"] = letters["F"], letters["A"]
        letters["A"], letters["B"] = letters["B"], letters["A"]
        with pytest.raises(ValueError):
            BoxKite.assemble(4, 1, letters)

    def test_assemble_names_the_faulty_pair(self):
        bk = bk1()
        letters = dict(zip(LETTERS, bk.vertices))
        letters["B"], letters["F"] = letters["F"], letters["B"]  # A-B is now a strut
        with pytest.raises(ValueError, match="edge A-B carries no zero divisor"):
            BoxKite.assemble(4, 1, letters)
        # n = 5, s = 1: lows with no two XORing to 1 are pairwise adjacent,
        # so every strut of this octahedron carries a zero divisor
        clique = {p: Assessor(5, o, o ^ 17) for p, o in zip(LETTERS, (2, 4, 6, 8, 10, 12))}
        with pytest.raises(ValueError, match="strut A-F carries a zero divisor"):
            BoxKite.assemble(5, 1, clique)

    def test_assemble_refuses_vertices_of_another_level(self):
        # the n = 5 vertices of an s = 9 kite carry X = 25, not the 9 of (4, 1)
        letters = dict(zip(LETTERS, find_box_kites(5, 9)[0].vertices))
        message = f"vertex A = {letters['A']} does not carry X = 9"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            BoxKite.assemble(4, 1, letters)

    def test_constructor_refuses_a_vertex_off_its_x(self):
        kite = bk1()
        vertices = list(kite.vertices)
        vertices[3] = Assessor(4, 4, 4 ^ 10)  # D of (4, 2), not (4, 1)
        with pytest.raises(ValueError, match=r"^vertex D = \(4,14\) does not carry X = 9$"):
            BoxKite(4, 1, tuple(vertices))

    @pytest.mark.parametrize("shell, message", [
        # five vertices: str() of such a kite raised IndexError
        (lambda k: (4, 1, k.vertices[:5]), "^a box-kite has 6 vertices, not 5$"),
        # its sails' kind raised TypeError on a None sign
        (lambda k: (4, 1, b_and_f_swapped(k)), "^edge A-B carries no zero divisor$"),
        # n = 5, s = 1: lows with no two XORing to 1 are pairwise adjacent,
        # so every strut of this octahedron carries a zero divisor
        (lambda k: (5, 1, tuple(Assessor(5, o, o ^ 17) for o in (2, 4, 6, 8, 10, 12))),
         "^strut A-F carries a zero divisor$"),
    ], ids=["five-vertices", "b-and-f-swapped", "clique"])
    def test_constructor_refuses_a_hand_built_shell(self, shell, message):
        kite = bk1()
        with pytest.raises(ValueError, match=message):
            BoxKite(*shell(kite))
        assert BoxKite(4, 1, kite.vertices) == kite

    @pytest.mark.parametrize("build, kites_built", [
        (lambda: [build_box_kite(s) for s in range(1, 8)], 7),
        (lambda: [pathion_lift(build_box_kite(s)) for s in range(1, 8)], 14),
        (lambda: [parse_box_kite(box_kite_payload(bk1()))], 2),
        (lambda: find_box_kites(6, 25), 87),
    ], ids=["build_box_kite", "pathion_lift", "parse_box_kite", "find_box_kites"])
    def test_each_kite_checks_fifteen_pairs(self, build, kites_built, monkeypatch):
        # the constructor's 12 edges and 3 struts, however the kite is built
        calls = []

        def counted(*signs):
            calls.append(signs)
            return edge_rule(*signs)

        monkeypatch.setattr(kites, "edge_rule", counted)
        build()
        assert len(calls) == 15 * kites_built

    @pytest.mark.parametrize("n, s, message", [
        # X(4, 20) = 28 is the X of (5, 12): an s out of range is refused first
        (4, 20, "strut constants at dimension 16 lie strictly between 0 and 8$"),
        (3, 12, "starts at the sedenions: n must be at least 4"),
    ])
    def test_constructor_refuses_a_level_or_strut_constant_out_of_range(self, n, s, message):
        kite = find_box_kites(5, 12)[0]
        with pytest.raises(ValueError, match=message):
            BoxKite(n, s, kite.vertices)

    def test_edge_letter_pairs(self):
        assert len(EDGE_LETTER_PAIRS) == len(set(EDGE_LETTER_PAIRS)) == 12
        assert set(EDGE_LETTER_PAIRS) | set(STRUT_LETTER_PAIRS) == set(combinations(LETTERS, 2))
        assert not set(EDGE_LETTER_PAIRS) & set(STRUT_LETTER_PAIRS)
        for s in range(1, 8):
            bk = build_box_kite(s)
            assert bk.edge_signs == tuple(
                edge_sign(bk.vertex(p), bk.vertex(q)) for p, q in EDGE_LETTER_PAIRS
            )


def rebuilt_holding(level, kites):
    """The kites built again while the sign table of ``level`` is held."""
    sign_table(level)
    return [BoxKite(kite.n, kite.s, kite.vertices) for kite in kites]


class TestSignSources:
    """The constructor reads a kite's pair signs from its level's sign table
    when that level is held, from ``blade_sign`` otherwise; both agree."""

    @pytest.mark.parametrize("n, s_values", [
        (4, range(1, 8)), (5, range(1, 16)), (6, range(1, 32)), (7, (25, 41)),
    ])
    def test_both_sources_give_the_same_edge_signs(self, n, s_values):
        for s in s_values:
            kites = find_box_kites(n, s)
            assert held_sign_table(n) is not None
            from_table = rebuilt_holding(n, kites)
            from_blade_sign = rebuilt_holding(n - 1, kites)
            assert held_sign_table(n) is None
            assert [k.edge_signs for k in from_table] == [k.edge_signs for k in kites], s
            assert [k.edge_signs for k in from_blade_sign] == [k.edge_signs for k in kites], s

    @pytest.mark.parametrize("other", [False, True], ids=["own-level", "other-level"])
    @pytest.mark.parametrize("shell, message", [
        (lambda k: (4, 1, b_and_f_swapped(k)), "^edge A-B carries no zero divisor$"),
        (lambda k: (5, 1, tuple(Assessor(5, o, o ^ 17) for o in (2, 4, 6, 8, 10, 12))),
         "^strut A-F carries a zero divisor$"),
        (lambda k: (4, 1, k.vertices[:3] + (Assessor(4, 4, 4 ^ 10),) + k.vertices[4:]),
         r"^vertex D = \(4,14\) does not carry X = 9$"),
    ], ids=["edge-without-zero-divisor", "strut-with-one", "vertex-off-x"])
    def test_doctored_kites_refused_alike(self, shell, message, other):
        n, s, vertices = shell(bk1())
        sign_table(n - 1 if other else n)
        assert (held_sign_table(n) is None) == other
        with pytest.raises(ValueError, match=message):
            BoxKite(n, s, vertices)


class TestSails:
    def test_sail_accepts_every_spelling(self):
        for s in range(1, 8):
            bk = build_box_kite(s)
            for name in SAIL_LETTERS:
                for spelling in map("".join, permutations(name)):
                    sail = bk.sail(spelling)
                    p, q, r = spelling
                    assert sail.name == spelling
                    assert sail.vertices == (bk.vertex(p), bk.vertex(q), bk.vertex(r))
                    assert sail.edge_signs == (bk.edge(p, q), bk.edge(q, r), bk.edge(r, p))

    @pytest.mark.parametrize("name", ["ABD", "AEC", "FBC", "FED", "AB", "ABCD", "AAB", "", "abc"])
    def test_sail_refuses_vents_and_malformed_names(self, name):
        with pytest.raises(ValueError):
            bk1().sail(name)

    @pytest.mark.parametrize(
        ("p", "q", "message"),
        [("A", "F", "is a strut"), ("F", "A", "is a strut"), ("E", "B", "is a strut"),
         ("A", "G", "is not an edge"), ("A", "A", "is not an edge"), ("a", "b", "is not an edge")],
    )
    def test_edge_refuses_struts_and_non_letters(self, p, q, message):
        with pytest.raises(ValueError, match=f"'{p}'-'{q}' {message} of a box-kite"):
            bk1().edge(p, q)

    def test_abc_is_zigzag(self):
        sails = {s.name: s for s in bk1().sails}
        assert sails["ABC"].kind == "zigzag"
        for name in ("ADE", "FDB", "FCE"):
            assert sails[name].kind == "trefoil"

    def test_zigzag_by_trips_matches_kind(self):
        for s in range(1, 8):
            for sail in build_box_kite(s).sails:
                positive = all(trip_orientation(*t) > 0 for t in sail.trips())
                assert (sail.kind == "zigzag") == positive

    def test_six_cycle_matches_quoted_progression(self):
        bk = bk1()
        cycle = sail_six_cycle(bk.sail("ABC"), bk.vertex("A").slash)
        got = tuple(
            (
                (d1.assessor.o, d1.assessor.hi, d1.orientation),
                (d2.assessor.o, d2.assessor.hi, d2.orientation),
            )
            for d1, d2 in cycle
        )
        assert got == SIX_CYCLE_ABC_BK1

    def test_six_cycles_every_sail_every_kite(self):
        for s in range(1, 8):
            bk = build_box_kite(s)
            for sail in bk.sails:
                for start in (sail.vertices[0].slash, sail.vertices[0].backslash):
                    assert len(sail_six_cycle(sail, start)) == 6

    def test_start_must_lie_on_sail(self):
        bk = bk1()
        with pytest.raises(ValueError):
            sail_six_cycle(bk.sail("ABC"), bk.vertex("D").slash)

    def test_zigzag_alternates_trefoils_do_not(self):
        for s in range(1, 8):
            bk = build_box_kite(s)
            for sail in bk.sails:
                cycle = sail_six_cycle(sail, sail.vertices[0].slash)
                orientations = [d1.orientation for d1, _d2 in cycle]
                alternates = all(
                    orientations[i] != orientations[i + 1] for i in range(5)
                )
                assert alternates == (sail.kind == "zigzag"), (s, sail.name)

    def test_walks_refuse_a_wrong_edge_sign(self):
        bk = bk1()
        abc = bk.sail("ABC")
        wrong = Sail("ABC", abc.vertices, (1,) + abc.edge_signs[1:])
        with pytest.raises(AssertionError, match="is not zero"):
            sail_six_cycle(wrong, abc.vertices[0].slash)
        signs = list(bk.edge_signs)
        bc = EDGE_LETTER_PAIRS.index(("B", "C"))
        signs[bc] = -signs[bc]
        # the constructor computes the signs, so doctor a built kite to reach
        # the walk's own check
        object.__setattr__(bk, "edge_signs", tuple(signs))
        with pytest.raises(AssertionError, match="is not zero"):
            tray_racks(bk)


class TestTrayRacks:
    def test_squares_and_sign_patterns(self):
        for s in range(1, 8):
            racks = tray_racks(build_box_kite(s))
            assert [(r.letters, r.edge_signs) for r in racks] == list(TRAY_RACKS)

    def test_each_square_omits_one_strut(self):
        for rack in tray_racks(bk1()):
            assert rack.omitted_strut in (("A", "F"), ("B", "E"), ("C", "D"))

    def test_two_circuits_cover_all_diagonals(self):
        for rack in tray_racks(bk1()):
            diagonals = {d for circuit in rack.circuits for d in circuit}
            assert len(diagonals) == 8

    def test_toggling_signs_shifts_but_keeps_cycles(self):
        # complementing every edge sign still alternates around each square,
        # with the sign sequence rotated by one step
        for rack in tray_racks(bk1()):
            toggled = tuple(-x for x in rack.edge_signs)
            shifted = rack.edge_signs[1:] + rack.edge_signs[:1]
            assert toggled == shifted


class TestCodes:
    def test_trigram_unswitched(self):
        for s in range(1, 8):
            assert trigram_code(build_box_kite(s)) == TRIGRAM_UNSWITCHED

    def test_trigram_switched_complements(self):
        for s in range(1, 8):
            assert trigram_code(build_box_kite(s), switched=True) == TRIGRAM_SWITCHED

    def test_parity_uniform_per_state(self):
        plain = {code.count("1") % 2 for code in trigram_code(bk1()).values()}
        switched = {
            code.count("1") % 2
            for code in trigram_code(bk1(), switched=True).values()
        }
        assert plain == {0} and switched == {1}


class TestSTripDistribution:
    def test_non_eightball_strips_fill_abc_sails_once_each(self):
        # each ABC sail carries three mixed triples; across the seven kites
        # these are exactly the twenty-one triples avoiding index 8, once each
        seen = []
        for s in range(1, 8):
            sail = build_box_kite(s).sail("ABC")
            for trip in sail.trips()[1:]:
                seen.append(frozenset(trip))
        expected = {frozenset(t) for t in S_TRIPS if 8 not in t}
        assert len(seen) == 21 == len(set(seen))
        assert set(seen) == expected

    def test_eight_ball_indices_forbidden_from_their_kite(self):
        for s in range(1, 8):
            bk = build_box_kite(s)
            used = {i for v in bk.vertices for i in v.indices}
            assert used == set(range(1, 16)) - {8, s, 8 + s}


class TestAutomorpheme:
    def test_quoted_axis_sets(self):
        for trip, axes in AUTOMORPHEMES.items():
            assert automorpheme(trip) == axes

    def test_rejects_non_otrip(self):
        with pytest.raises(ValueError):
            automorpheme((1, 2, 4))
        with pytest.raises(ValueError):
            automorpheme((3, 13, 14))
