"""Basis products, exact multivectors, triples, and their laws."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxkites.algebra import (
    BasisBlade,
    Hypercomplex,
    aso_form,
    blade_mul,
    blade_sign,
    enumerate_trips,
    hc_mul,
    held_sign_table,
    sign_table,
    trip_orientation,
)
from boxkites.fixtures import O_TRIPS, S_TRIPS


def orientation_oracle(a, b, c):
    """Orientation straight from the transcribed tables, no sign recursion.

    A tabled triple is positive in any rotation and negative in any
    rotation of a transposition.
    """
    for x, y, z in O_TRIPS + S_TRIPS:
        if frozenset((x, y, z)) == frozenset((a, b, c)):
            return 1 if (a, b, c) in ((x, y, z), (y, z, x), (z, x, y)) else -1
    raise KeyError((a, b, c))


class TestBladeMul:
    def test_octonion_trip_cases(self):
        assert blade_mul(1, 2, 4) == BasisBlade(1, 3)
        assert blade_mul(1, 7, 4) == BasisBlade(1, 6)

    def test_identity_and_square(self):
        for a in range(1, 16):
            assert blade_mul(a, 0, 4) == BasisBlade(1, a)
            assert blade_mul(0, a, 4) == BasisBlade(1, a)
            assert blade_mul(a, a, 4) == BasisBlade(-1, 0)

    def test_sedenion_trip_case(self):
        assert blade_mul(3, 13, 4) == BasisBlade(1, 14)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            blade_mul(9, 1, 3)

    @given(st.integers(0, 127), st.integers(0, 127))
    def test_xor_index_law(self, a, b):
        assert blade_mul(a, b, 7).index == a ^ b

    @given(st.integers(1, 127), st.integers(1, 127))
    def test_anticommutation(self, a, b):
        if a == b:
            assert blade_mul(a, b, 7) == BasisBlade(-1, 0)
        else:
            assert blade_sign(a, b) == -blade_sign(b, a)

    def test_flexible_law_exhaustive_n5(self):
        # (x*y)*x = x*(y*x) for all basis blades through the pathions
        for a in range(32):
            for b in range(32):
                x, y = BasisBlade(1, a), BasisBlade(1, b)
                assert (x * y) * x == x * (y * x)

    def test_sign_embedding_stability(self):
        # the same index pair multiplies identically at every level above it
        for a in range(16):
            for b in range(16):
                assert blade_mul(a, b, 4).sign == blade_mul(a, b, 6).sign


# A product written straight from the doubling formula in the algebra module
# docstring, (p, q)(r, t) = (pr - conj(t) q, tp + q conj(r)), on sparse
# {index: coefficient} dicts of level k.  It reads no sign rule of the package.

def _halves(x, h):
    return {i: c for i, c in x.items() if i < h}, {i - h: c for i, c in x.items() if i >= h}


def _pair(p, q, h):
    return {**p, **{i + h: c for i, c in q.items()}}


def _combine(x, y, sign):
    out = dict(x)
    for i, c in y.items():
        out[i] = out.get(i, 0) + sign * c
    return {i: c for i, c in out.items() if c}


def pair_conj(x, k):
    """conj((p, q)) = (conj(p), -q); a real is its own conjugate."""
    if k == 0 or not x:
        return dict(x)
    h = 1 << (k - 1)
    p, q = _halves(x, h)
    return _pair(pair_conj(p, k - 1), {i: -c for i, c in q.items()}, h)


def pair_mul(x, y, k):
    if not x or not y:  # an empty factor ends the recursion early
        return {}
    if k == 0:
        return {0: x[0] * y[0]}
    h = 1 << (k - 1)
    (p, q), (r, t) = _halves(x, h), _halves(y, h)
    low = _combine(pair_mul(p, r, k - 1), pair_mul(pair_conj(t, k - 1), q, k - 1), -1)
    high = _combine(pair_mul(t, p, k - 1), pair_mul(q, pair_conj(r, k - 1), k - 1), 1)
    return _pair(low, high, h)


class TestNestedPairOracle:
    def test_octonion_triples_positive(self):
        for a, b, c in O_TRIPS:
            assert pair_mul({a: 1}, {b: 1}, 3) == {c: 1}

    def test_blade_sign_below_128(self):
        for a in range(128):
            for b in range(128):
                assert pair_mul({a: 1}, {b: 1}, 7) == {a ^ b: blade_sign(a, b)}, (a, b)

    def test_hc_mul_on_dense_elements_n5(self):
        rng = random.Random(5)
        for _ in range(4):
            x, y = ({i: c for i in range(32) if (c := rng.randint(-3, 3))} for _ in range(2))
            assert pair_mul(x, y, 5) == hc_mul(Hypercomplex(5, x), Hypercomplex(5, y)).coeffs


class TestSignTable:
    def test_matches_blade_sign_below_256(self):
        table = sign_table(8)
        assert len(table) == 256
        for a, row in enumerate(table):
            assert list(row) == [int(blade_sign(a, b) < 0) for b in range(256)], a

    @pytest.mark.parametrize("k", range(1, 8))
    def test_rows_are_prefixes_one_level_up(self, k):
        low, high = sign_table(k), sign_table(k + 1)
        assert len(low) == 1 << k and len(high) == 2 << k
        assert all(len(row) == 1 << k and high[a].startswith(row) for a, row in enumerate(low))

    def test_one_level_held(self):
        five = sign_table(5)
        assert sign_table(5) is five and held_sign_table(5) is five
        six = sign_table(6)
        assert sign_table(6) is six and held_sign_table(6) is six
        assert held_sign_table(5) is None  # level 6 took level 5's place
        again = sign_table(5)
        assert again == five and again is not five and held_sign_table(6) is None

    def test_blade_sign_cache_is_bounded_and_verify_fits(self):
        from boxkites.verify import run_verification

        blade_sign.cache_clear()
        run_verification()
        info = blade_sign.cache_info()
        assert info.currsize == info.misses  # nothing evicted
        assert [blade_sign(a, b) for a in range(128) for b in range(128)] == [
            -1 if negative else 1 for row in sign_table(7) for negative in row
        ]
        assert blade_sign.cache_info().currsize == info.maxsize == 1 << 14
        blade_sign(1000, 999)  # a high level evicts and stays within the bound
        assert blade_sign.cache_info().currsize == 1 << 14

    def test_orientation_keeps_the_unit_triple_check(self):
        for bad in [(1, 2, 4), (0, 1, 1), (3, 3, 0), (1, 2, 2)]:
            with pytest.raises(ValueError, match="not a unit triple"):
                trip_orientation(*bad)


class TestHypercomplex:
    def test_canonical_form_drops_zeros(self):
        x = Hypercomplex(4, {3: 1, 10: 0})
        assert x.coeffs == {3: 1}

    def test_index_range_enforced(self):
        with pytest.raises(ValueError):
            Hypercomplex(3, {9: 1})

    def test_float_coefficients_refused(self):
        with pytest.raises(TypeError, match="index 0 is float"):
            Hypercomplex(4, {0: 0.5, 3: 0.1})
        with pytest.raises(TypeError, match="index 3 is float"):
            Hypercomplex(4, {0: 1, 3: 0.0})
        with pytest.raises(TypeError, match="index 5 is complex"):
            Hypercomplex.unit(4, 5, 1j)
        x = Hypercomplex(4, {0: Fraction(1, 2), 3: 2})
        assert hc_mul(x, x) == Hypercomplex(4, {0: Fraction(-15, 4), 3: 2})

    @pytest.mark.parametrize("make", [
        lambda: blade_sign(1.5, 2), lambda: blade_sign(2, 1.5), lambda: BasisBlade(1, 1.5),
        lambda: Hypercomplex(4, {1.5: 1}), lambda: Hypercomplex.unit(4, 2.0),
    ], ids=["blade_sign-left", "blade_sign-right", "BasisBlade", "Hypercomplex", "unit"])
    def test_non_integer_indices_refused(self, make):
        with pytest.raises(TypeError, match="must be int|not int"):
            make()

    def test_zero_divisor_product(self):
        x = Hypercomplex(4, {3: 1, 10: 1})
        y = Hypercomplex(4, {6: 1, 15: -1})
        assert hc_mul(x, y).is_zero

    def test_switched_product(self):
        x = Hypercomplex(4, {3: 1, 10: 1})
        y = Hypercomplex(4, {6: 1, 15: 1})
        assert hc_mul(x, y) == Hypercomplex(4, {5: 2, 12: 2})

    def test_real_unit_is_identity(self):
        x = Hypercomplex(4, {3: 5, 10: -2, 0: 7})
        assert hc_mul(x, Hypercomplex.unit(4, 0)) == x
        assert hc_mul(Hypercomplex.unit(4, 0), x) == x

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            hc_mul(Hypercomplex.unit(3, 1), Hypercomplex.unit(4, 1))

    @given(
        st.dictionaries(st.integers(0, 15), st.integers(-4, 4), max_size=4),
        st.dictionaries(st.integers(0, 15), st.integers(-4, 4), max_size=4),
        st.dictionaries(st.integers(0, 15), st.integers(-4, 4), max_size=4),
    )
    @settings(max_examples=60)
    def test_bilinearity(self, cx, cy, cz):
        x, y, z = (Hypercomplex(4, c) for c in (cx, cy, cz))
        assert hc_mul(x + y, z) == hc_mul(x, z) + hc_mul(y, z)
        assert hc_mul(x, y + z) == hc_mul(x, y) + hc_mul(x, z)

    @given(
        st.dictionaries(
            st.integers(0, 15),
            st.integers(-3, 3) | st.fractions(-2, 2, max_denominator=3),
            max_size=4,
        ),
        st.dictionaries(st.integers(0, 15), st.integers(-3, 3), max_size=4),
    )
    @settings(max_examples=60)
    def test_product_equals_validated_construction(self, cx, cy):
        # hc_mul skips the constructor's checks on its own result, so the
        # result must still be the canonical element the constructor builds
        x, y = Hypercomplex(4, cx), Hypercomplex(4, cy)
        raw = {}
        for i, ci in x.coeffs.items():
            for j, cj in y.coeffs.items():
                raw[i ^ j] = raw.get(i ^ j, 0) + ci * cj * blade_sign(i, j)
        assert hc_mul(x, y) == Hypercomplex(4, raw)

    def test_product_drops_cancelled_terms(self):
        x = Hypercomplex(4, {1: 1, 2: 1})  # e1 e2 + e2 e1 cancels on e3
        assert hc_mul(x, x).coeffs == {0: -2}

    def test_scalar_multiplication(self):
        x = Hypercomplex(4, {3: 1, 10: 1})
        assert 2 * x == Hypercomplex(4, {3: 2, 10: 2})
        assert x * -1 == -x


class TestTrips:
    def test_orientation_examples(self):
        assert trip_orientation(3, 6, 5) == 1
        assert trip_orientation(10, 15, 5) == 1
        assert trip_orientation(10, 4, 14) == -1

    def test_orientation_matches_table_oracle(self):
        # every permutation of every tabled triple, against rotation parity
        for t in O_TRIPS + S_TRIPS:
            a, b, c = t
            for perm in ((a, b, c), (b, c, a), (c, a, b), (a, c, b), (c, b, a), (b, a, c)):
                x, y, z = perm
                if x ^ y == z:
                    assert trip_orientation(x, y, z) == orientation_oracle(x, y, z)

    def test_not_a_trip_rejected(self):
        with pytest.raises(ValueError):
            trip_orientation(1, 2, 4)
        with pytest.raises(ValueError):
            trip_orientation(0, 1, 1)

    def test_aso_form(self):
        assert aso_form({3, 5, 6}) == (3, 6, 5)
        assert aso_form((9, 3, 10)) == (3, 10, 9)
        assert aso_form((1, 2, 3)) == (1, 2, 3)

    def test_enumerate_octonion_trips(self):
        trips = enumerate_trips(4, "o")
        assert len(trips) == 7
        assert trips[0] == (1, 2, 3)
        assert tuple(trips) == O_TRIPS

    def test_enumerate_sedenion_trips(self):
        trips = enumerate_trips(4, "s")
        assert len(trips) == 28
        indices = set(trips)
        assert (7, 8, 15) in indices
        assert indices == set(S_TRIPS)

    def test_enumerate_octonion_level(self):
        assert len(enumerate_trips(3, "all")) == 7

    def test_every_enumerated_trip_is_positive(self):
        for t in enumerate_trips(5, "all"):
            assert trip_orientation(*t) == 1

    def test_enumeration_count_n5(self):
        # (2^5 - 1) choose 2 over 3
        assert len(enumerate_trips(5, "all")) == 31 * 30 // 2 // 3

    @given(st.integers(1, 63), st.integers(1, 63))
    def test_aso_form_properties(self, a, b):
        c = a ^ b
        if c in (0, a, b):
            return
        canonical = aso_form((a, b, c))
        assert set(canonical) == {a, b, c}
        assert canonical[0] == min(a, b, c)
        assert trip_orientation(*canonical) == 1
        assert aso_form(canonical) == canonical
