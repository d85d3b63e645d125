from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, strategies as st

from erdos_straus.families import (
    KzsPoint,
    PolyId,
    WitnessTriple,
    eval_poly,
    even_6c2_family,
    even_6c4_family,
    kzs_condition,
    kzs_q,
    odd_family,
    shifted_value,
)

coords = st.integers(min_value=1, max_value=50)
triples = st.builds(WitnessTriple, coords, coords, coords)


def test_poly_id_order_and_labels():
    assert list(PolyId) == [PolyId.P1, PolyId.P2, PolyId.P3, PolyId.P4]
    assert PolyId.P1 < PolyId.P2 < PolyId.P3 < PolyId.P4
    assert [p.label for p in PolyId] == ["p1", "p2", "p3", "p4"]


@pytest.mark.parametrize(
    "poly,t,expected",
    [
        (PolyId.P1, (1, 1, 1), 2),
        (PolyId.P2, (1, 1, 5), 9),
        (PolyId.P4, (9, 1, 1), 72),
        (PolyId.P4, (1, 1, 1), 0),
    ],
)
def test_eval_poly_examples(poly, t, expected):
    assert eval_poly(poly, WitnessTriple(*t)) == expected


@pytest.mark.parametrize(
    "poly,t,expected",
    [
        (PolyId.P1, (1, 1, 1), 9),
        (PolyId.P2, (1, 1, 1), 5),
        (PolyId.P3, (1, 1, 1), 5),
    ],
)
def test_shifted_value_examples(poly, t, expected):
    assert shifted_value(poly, WitnessTriple(*t)) == expected


def test_rejects_nonpositive_coordinates():
    for fn in (eval_poly, shifted_value):
        for poly in PolyId:
            for bad in [(0, 1, 1), (1, 0, 1), (1, 1, -2)]:
                with pytest.raises(ValueError, match="coordinates must all be >= 1"):
                    fn(poly, WitnessTriple(*bad))
    for fn in (kzs_q, kzs_condition):
        for bad in [(0, 1, 1), (1, 0, 1), (1, 1, 0)]:
            with pytest.raises(ValueError, match="kappa, z, s must all be >= 1"):
                fn(KzsPoint(*bad))
    for fn, bad in [(odd_family, 0), (even_6c4_family, -1), (even_6c2_family, -1)]:
        with pytest.raises(ValueError, match="must be >= "):
            fn(bad)


@given(triples, st.sampled_from(list(PolyId)))
def test_shifted_equals_four_eval_plus_one(t, poly):
    assert shifted_value(poly, t) == 4 * eval_poly(poly, t) + 1


def test_shifted_equals_four_eval_plus_one_cube_exhaustive():
    for poly in PolyId:
        for x in range(1, 11):
            for y in range(1, 11):
                for z in range(1, 11):
                    t = WitnessTriple(x, y, z)
                    assert shifted_value(poly, t) == 4 * eval_poly(poly, t) + 1


@pytest.mark.parametrize("fn,args,expected", [
    (odd_family, 1, 1),
    (odd_family, 2, 3),
    (odd_family, 10, 19),
    (even_6c4_family, 0, 4),
    (even_6c4_family, 1, 10),
    (even_6c4_family, 7, 46),
    (even_6c2_family, 0, 2),
    (even_6c2_family, 1, 8),
    (even_6c2_family, 5, 32),
])
def test_closed_family_examples(fn, args, expected):
    assert fn(args) == expected


@given(st.integers(min_value=0, max_value=10_000))
def test_closed_families_agree_with_eval(c):
    assert even_6c4_family(c) == eval_poly(PolyId.P2, WitnessTriple(1 + c, 2, 1))
    assert even_6c2_family(c) == eval_poly(PolyId.P1, WitnessTriple(1 + 2 * c, 1, 1))
    if c >= 1:
        assert odd_family(c) == eval_poly(PolyId.P2, WitnessTriple(1, 1, c))


@given(triples)
def test_family_minima(t):
    assert eval_poly(PolyId.P1, t) >= 2
    assert eval_poly(PolyId.P2, t) >= 1
    assert eval_poly(PolyId.P3, t) >= 1


@given(st.integers(1, 100), st.integers(1, 20), st.integers(1, 20))
def test_p1_p2_strictly_increasing_in_x(x, y, z):
    lo = WitnessTriple(x, y, z)
    hi = WitnessTriple(x + 1, y, z)
    assert eval_poly(PolyId.P1, hi) > eval_poly(PolyId.P1, lo)
    assert eval_poly(PolyId.P2, hi) > eval_poly(PolyId.P2, lo)


def _is_square(n):
    return isqrt(n) ** 2 == n


# 4*P2 + 1 is never a perfect square: with u = 4x-1 and M = u(4y-1) - 1, it is
# zM - u, and -u is a quadratic non-residue mod M (Jacobi reciprocity, then mod 8)
@given(st.integers(1, 10**6), st.integers(1, 10**6), st.integers(1, 10**6))
def test_4_p2_plus_1_is_never_a_square(x, y, z):
    assert not _is_square(shifted_value(PolyId.P2, WitnessTriple(x, y, z)))


# Lemma B (README): P2 factors at x = 1, y = 1 and z = 1
@given(st.integers(1, 10**9), st.integers(1, 10**9), st.integers(1, 10**9))
def test_p2_factors_at_x_1_y_1_and_z_1(x, y, z):
    assert eval_poly(PolyId.P2, WitnessTriple(1, y, z)) + 1 == z * (3 * y - 1)
    assert 3 * eval_poly(PolyId.P2, WitnessTriple(x, 1, z)) + 1 == (3 * x - 1) * (3 * z - 1)
    assert 2 * eval_poly(PolyId.P2, WitnessTriple(x, y, 1)) + 1 == (4 * x - 1) * (2 * y - 1)
    # the prime search's y and z stages: P2 at fixed y is P2 at x = y, and
    # 4*P2 + 1 + z factors
    p2 = eval_poly(PolyId.P2, WitnessTriple(x, y, z))
    assert (4 * y - 1) * p2 == eval_poly(PolyId.P2, WitnessTriple(y, x, (4 * y - 1) * z - 1))
    assert 4 * p2 + 1 + z == (4 * x - 1) * (4 * y * z - z - 1)


def test_4_p2_plus_1_is_no_square_on_a_small_cube():
    points = [WitnessTriple(x, y, z) for x in range(1, 60) for y in range(1, 60) for z in range(1, 60)]
    assert len(points) == 205_379
    assert not any(_is_square(shifted_value(PolyId.P2, t)) for t in points)


@pytest.mark.parametrize("p,expected", [
    ((1, 1, 1), 0),
    ((3, 2, 1), 5),
    ((5, 3, 2), 13),
])
def test_kzs_q_examples(p, expected):
    assert kzs_q(KzsPoint(*p)) == expected


@pytest.mark.parametrize("p,expected", [
    ((3, 1, 1), Fraction(5)),
    ((1, 1, 1), Fraction(5, 3)),
    ((7, 2, 2), Fraction(18)),
])
def test_kzs_condition_examples(p, expected):
    assert kzs_condition(KzsPoint(*p)) == expected


@given(st.builds(KzsPoint, coords, coords, coords))
def test_kzs_condition_matches_definition(p):
    assert kzs_condition(p) == Fraction((4 * p.z + 1) * p.kappa * p.z, 4 * p.s - 1)
