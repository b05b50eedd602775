"""Unit-loop closures and the identity checks that separate them."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from boxkites import algebra, lariats, loops
from boxkites.algebra import BasisBlade
from boxkites.fixtures import MOCK_OCTONION_AF, O_TRIPS, S_TRIPS, SWITCHING_YARD
from boxkites.kites import Assessor, BoxKite, automorpheme, build_box_kite, octonion_loop_axes
from boxkites.lariats import mock_octonion_table, quizzical_tables, switching_yard
from boxkites.loops import (
    IDENTITY_FORMS,
    MOUFANG_FORMS,
    Counterexample,
    UnitLoop,
    check_identity,
    is_quaternion_group,
    loop_closure,
    moufang_report,
)


class TestClosure:
    def test_quaternion_copy(self):
        loop = loop_closure({1, 2, 3})
        assert len(loop) == 8
        assert loop.was_closed

    def test_four_cycle_from_single_axis(self):
        loop = loop_closure({1})
        assert len(loop) == 4
        assert loop.was_closed

    def test_closure_fills_in(self):
        loop = loop_closure({1, 2})
        assert loop.axis_indices == frozenset({1, 2, 3})
        assert not loop.was_closed

    def test_automorpheme_is_closed_16(self):
        loop = loop_closure(automorpheme((3, 6, 5)))
        assert len(loop) == 16
        assert loop.was_closed

    def test_bad_input(self):
        with pytest.raises(ValueError):
            loop_closure(set())
        with pytest.raises(ValueError):
            loop_closure({0, 1})

    @given(st.sets(st.integers(1, 15), min_size=1, max_size=4))
    def test_closure_is_closed_and_idempotent(self, axes):
        loop = loop_closure(axes)
        products = {x * y for x in loop.elements for y in loop.elements}
        assert products <= set(loop.elements)
        again = loop_closure(loop.axis_indices)
        assert again.axis_indices == loop.axis_indices
        assert again.was_closed


class TestIdentities:
    def test_quaternions_associate(self):
        assert check_identity(loop_closure({1, 2, 3}), "associative") is None

    def test_octonions_moufang_not_associative(self):
        octonion = loop_closure(set(range(1, 8)))
        assert len(octonion) == 16
        assert check_identity(octonion, "moufang") is None
        assert check_identity(octonion, "associative") is not None
        assert check_identity(octonion, "alternative") is None
        assert check_identity(octonion, "flexible") is None

    def test_quasi_octonion_fails_moufang(self):
        loop = loop_closure({3, 6, 5, 9, 10, 12, 15})
        counterexample = check_identity(loop, "moufang")
        assert counterexample is not None
        # the returned triple really is a counterexample
        x, y, z = counterexample.x, counterexample.y, counterexample.z
        assert (x * y) * (z * x) != x * ((y * z) * x)

    def test_quasi_octonion_still_flexible(self):
        loop = loop_closure({3, 6, 5, 9, 10, 12, 15})
        assert check_identity(loop, "flexible") is None

    def test_unknown_identity(self):
        with pytest.raises(ValueError):
            check_identity(loop_closure({1}), "jordan")

    def test_moufang_forms_agree_on_these_loops(self):
        # all three classical forms give the same verdict on every loop in play
        loops = [loop_closure(set(range(1, 8)))]
        loops += [loop_closure(automorpheme(t)) for t in O_TRIPS]
        loops += [loop_closure(octonion_loop_axes(t)) for t in O_TRIPS]
        for loop in loops:
            verdicts = {cx is None for cx in moufang_report(loop).values()}
            assert len(verdicts) == 1


class TestFamilies:
    def test_all_seven_automorphemes_fail_moufang(self):
        for trip in O_TRIPS:
            loop = loop_closure(automorpheme(trip))
            assert len(loop) == 16
            assert check_identity(loop, "moufang") is not None

    def test_all_seven_octonion_copies_pass_moufang(self):
        for trip in O_TRIPS:
            loop = loop_closure(octonion_loop_axes(trip))
            assert len(loop) == 16
            assert check_identity(loop, "moufang") is None

    def test_q8(self):
        assert is_quaternion_group(loop_closure({1, 2, 3}))
        assert is_quaternion_group(loop_closure({3, 13, 14}))
        assert not is_quaternion_group(loop_closure({1}))
        assert not is_quaternion_group(loop_closure(set(range(1, 8))))


# The identity forms and triple scan as plain BasisBlade arithmetic: the
# oracle for the Cayley-table scan in ``loops``.
ORACLE_FORMS = {
    "moufang-middle": lambda x, y, z: (((x * y) * (z * x), x * ((y * z) * x)),),
    "moufang-left": lambda x, y, z: ((x * (y * (x * z)), ((x * y) * x) * z),),
    "moufang-right": lambda x, y, z: ((((x * y) * z) * y, x * (y * (z * y))),),
    "associative": lambda x, y, z: (((x * y) * z, x * (y * z)),),
    "flexible": lambda x, y, z: (((x * y) * x, x * (y * x)),),
    "alternative": lambda x, y, z: (
        ((x * x) * y, x * (x * y)),
        ((y * x) * x, y * (x * x)),
    ),
}


def oracle_scan(loop, name):
    form = ORACLE_FORMS[name]
    for x in loop.elements:
        for y in loop.elements:
            for z in loop.elements:
                for lhs, rhs in form(x, y, z):
                    if lhs != rhs:
                        return Counterexample(name, x, y, z, lhs, rhs)
    return None


ORACLE_LOOPS = (
    [("octonion", loop_closure(set(range(1, 8))))]
    + [(f"automorpheme-{t}", loop_closure(automorpheme(t))) for t in O_TRIPS]
    + [(f"octonion-copy-{t}", loop_closure(octonion_loop_axes(t))) for t in O_TRIPS]
    + [(f"q8-{t}", loop_closure(set(t))) for t in O_TRIPS + S_TRIPS]
)


class TestCayleyTableScan:
    def test_forms_cover_the_oracle(self):
        moufang = {f"moufang-{form}" for form in MOUFANG_FORMS}
        assert set(IDENTITY_FORMS) - {"moufang"} | moufang == set(ORACLE_FORMS)
        assert IDENTITY_FORMS["moufang"] is MOUFANG_FORMS["middle"]

    @pytest.mark.parametrize(
        ("label", "loop"), ORACLE_LOOPS, ids=[label for label, _ in ORACLE_LOOPS]
    )
    def test_first_counterexample_matches_blade_scan(self, label, loop):
        # field for field, None included, for every identity and Moufang form
        report = moufang_report(loop)
        assert list(report) == list(MOUFANG_FORMS)
        for form, counterexample in report.items():
            assert counterexample == oracle_scan(loop, f"moufang-{form}"), form
        # "moufang" is the middle form under its own name
        middle = report["middle"]
        expected = middle and Counterexample(
            "moufang", middle.x, middle.y, middle.z, middle.lhs, middle.rhs
        )
        assert check_identity(loop, "moufang") == expected
        for identity in ("associative", "flexible", "alternative"):
            assert check_identity(loop, identity) == oracle_scan(loop, identity), identity

    def test_unclosed_elements_refused(self):
        elements = (BasisBlade(1, 0), BasisBlade(1, 1), BasisBlade(1, 2))
        loop = UnitLoop(frozenset({1, 2}), elements, False)
        with pytest.raises(ValueError):
            check_identity(loop, "associative")


def test_tables_read_no_level_sized_table(monkeypatch):
    # lariat and Cayley tables read the signs of index pairs, never a table
    # sized by the level or the largest index
    def refuse(n):
        raise AssertionError(f"sign table of level {n} read")

    for module in (algebra, lariats, loops):
        monkeypatch.setattr(module, "sign_table", refuse, raising=False)
    # box-kite I's lows at level 40, X = 2^39 + 1, are a kite with its tables
    bk = build_box_kite(1)
    x = (1 << 39) + 1
    far = BoxKite(40, 1, tuple(Assessor(40, v.o, v.o ^ x) for v in bk.vertices))
    for kite in (bk, far):
        assert switching_yard(kite).cell_strings() == SWITCHING_YARD
        assert mock_octonion_table(kite, "AF").cell_strings() == MOCK_OCTONION_AF
        assert all(lariat.relations_hold for lariat in quizzical_tables(kite))
    for label, loop in ORACLE_LOOPS:
        e = loop.elements
        assert loops._cayley_table(loop) == [[e.index(x * y) for y in e] for x in e], label
    assert check_identity(loop_closure({1, 1 << 40}), "associative") is None


# The octonion copies and the sedenion-level Q8 copies are left out: they
# pass the same forms as the octonion loop and the octonion-level Q8 copies,
# and blade-scanning them again would add seconds and no new verdict.
ORDER_LOOPS = (
    [("octonion", loop_closure(set(range(1, 8))))]
    + [(f"automorpheme-{t}", loop_closure(automorpheme(t))) for t in O_TRIPS]
    + [(f"q8-{t}", loop_closure(set(t))) for t in O_TRIPS]
)


class TestScanElementOrder:
    """The scan visits the first element of each index only; that must give
    the blade scan's first counterexample whatever order the elements take."""

    @pytest.mark.parametrize(
        ("label", "loop"), ORDER_LOOPS, ids=[label for label, _ in ORDER_LOOPS]
    )
    def test_hand_built_order_matches_blade_scan(self, label, loop):
        # minus before plus, indices shuffled
        elements = list(loop.elements)
        random.Random(label).shuffle(elements)
        elements.sort(key=lambda e: e.sign)
        hand_built = UnitLoop(loop.axis_indices, tuple(elements), loop.was_closed)
        for form, counterexample in moufang_report(hand_built).items():
            assert counterexample == oracle_scan(hand_built, f"moufang-{form}"), form
        for identity in IDENTITY_FORMS:
            name = "moufang-middle" if identity == "moufang" else identity
            expected = oracle_scan(hand_built, name)
            expected = expected and Counterexample(
                identity, expected.x, expected.y, expected.z, expected.lhs, expected.rhs
            )
            assert check_identity(hand_built, identity) == expected, identity
        assert is_quaternion_group(hand_built) == is_quaternion_group(loop)
