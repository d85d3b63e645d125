import pytest
from hypothesis import given, settings, strategies as st

from erdos_straus import decompose
from erdos_straus.decompose import (
    DecompositionRecord,
    InadmissiblePointError,
    Provenance,
    UnitFractionTriple,
    UnsolvedError,
    decompose_4q2,
    decompose_4q3,
    decompose_any,
    decompose_case_p1,
    decompose_case_p2,
    decompose_case_p3,
    decompose_kzs,
    decompose_mult4,
    decompose_square,
    verify_exact,
)
from erdos_straus.families import KzsPoint, PolyId, WitnessTriple, kzs_condition, kzs_q, shifted_value

from .oracles import rational_identity_holds

coords = st.integers(min_value=1, max_value=50)


def test_verify_exact_basics():
    assert verify_exact(4, UnitFractionTriple(3, 6, 2))
    assert not verify_exact(4, UnitFractionTriple(3, 6, 3))
    with pytest.raises(ValueError):
        verify_exact(1, UnitFractionTriple(1, 1, 1))
    with pytest.raises(ValueError):
        verify_exact(5, UnitFractionTriple(0, 1, 1))


@given(st.integers(2, 10**6), st.builds(UnitFractionTriple, coords, coords, coords))
def test_verify_exact_matches_rational_oracle(a, t):
    assert verify_exact(a, t) == rational_identity_holds(a, t)


def test_distinct_flag():
    assert UnitFractionTriple(2, 3, 4).distinct
    assert not UnitFractionTriple(2, 2, 4).distinct


@pytest.mark.parametrize("fn,arg,expected", [
    (decompose_mult4, 1, (3, 6, 2)),
    (decompose_4q2, 0, (2, 2, 1)),
    (decompose_4q3, 0, (6, 6, 1)),
    (decompose_4q3, 1, (21, 42, 2)),
])
def test_residue_identity_examples(fn, arg, expected):
    assert fn(arg) == UnitFractionTriple(*expected)


@given(st.integers(1, 10**6))
def test_mult4_identity(q):
    assert rational_identity_holds(4 * q, decompose_mult4(q))


@given(st.integers(0, 10**6))
def test_4q2_and_4q3_identities(q):
    assert rational_identity_holds(4 * q + 2, decompose_4q2(q))
    assert rational_identity_holds(4 * q + 3, decompose_4q3(q))


def test_residue_identity_domain_errors():
    with pytest.raises(ValueError):
        decompose_mult4(0)
    with pytest.raises(ValueError):
        decompose_4q2(-1)
    with pytest.raises(ValueError):
        decompose_4q3(-1)
    with pytest.raises(ValueError, match="kappa, z, s must all be >= 1"):
        decompose_kzs(KzsPoint(3, 0, 1))


def test_kzs_example():
    assert decompose_kzs(KzsPoint(3, 1, 1)) == UnitFractionTriple(12, 36, 3)


def test_kzs_inadmissible():
    with pytest.raises(InadmissiblePointError):
        decompose_kzs(KzsPoint(2, 1, 1))  # condition value 10/3


def test_kzs_requires_positive_q():
    with pytest.raises(ValueError):
        decompose_kzs(KzsPoint(1, 1, 5))  # q = 1*1 - 5 < 1


def test_kzs_condition_exceeds_z_wherever_q_is_positive():
    # q >= 1 gives s <= kappa*z - 1, so 4s - 1 < (4z+1)*kappa and the integer
    # condition (4z+1)*kappa*z/(4s-1) exceeds z: decompose_kzs needs no check
    integral = 0
    for kappa in range(1, 60):
        for z in range(1, 60):
            numerator = (4 * z + 1) * kappa * z
            for s in range(1, kappa * z):
                if numerator % (4 * s - 1) == 0:
                    integral += 1
                    p = KzsPoint(kappa, z, s)
                    assert kzs_condition(p) > z, p
                    assert rational_identity_holds(4 * kzs_q(p) + 1, decompose_kzs(p)), p
    assert integral == 23_325


# kappa = (4s-1) * k makes the admissibility quotient an integer for any z,
# so this builds a dense family of admissible points.
admissible_points = st.builds(
    lambda k, z, s: KzsPoint((4 * s - 1) * k, z, s),
    st.integers(1, 50),
    st.integers(1, 50),
    st.integers(1, 50),
)


@given(admissible_points)
@settings(max_examples=300)
def test_kzs_admissible_family(p):
    q = p.kappa * p.z - p.s
    assert q >= 1
    assert kzs_condition(p) > p.z
    t = decompose_kzs(p)
    assert rational_identity_holds(4 * q + 1, t)


@pytest.mark.parametrize("fn,expected", [
    (decompose_case_p1, (12, 3, 36)),
    (decompose_case_p2, (2, 20, 4)),
    (decompose_case_p3, (2, 4, 20)),
])
def test_case_examples_at_unit_point(fn, expected):
    assert fn(WitnessTriple(1, 1, 1)) == UnitFractionTriple(*expected)


def test_case_identities_exhaustive_small_cube():
    for x in range(1, 13):
        for y in range(1, 13):
            for z in range(1, 13):
                t = WitnessTriple(x, y, z)
                for poly, fn in [
                    (PolyId.P1, decompose_case_p1),
                    (PolyId.P2, decompose_case_p2),
                    (PolyId.P3, decompose_case_p3),
                ]:
                    a = shifted_value(poly, t)
                    assert rational_identity_holds(a, fn(t)), (poly, t)


@given(st.builds(WitnessTriple, coords, coords, coords))
def test_case_identities_random(t):
    assert rational_identity_holds(shifted_value(PolyId.P1, t), decompose_case_p1(t))
    assert rational_identity_holds(shifted_value(PolyId.P2, t), decompose_case_p2(t))
    assert rational_identity_holds(shifted_value(PolyId.P3, t), decompose_case_p3(t))


@given(st.integers(2, 10**4), st.builds(UnitFractionTriple, coords, coords, coords))
def test_square_scale_law(n, t):
    # scaling any exact decomposition of 4/n by n yields one for 4/n^2
    if verify_exact(n, t):
        scaled = UnitFractionTriple(n * t.b, n * t.c, n * t.d)
        assert verify_exact(n * n, scaled)


def test_decompose_square_direct_branch():
    rec = decompose_square(2)  # a = 9, base 3 is handled closed form
    assert rec.a == 9
    assert rec.recursion_depth == 1
    assert rec.provenance is Provenance.SQUARE_RECURSIVE
    assert rational_identity_holds(9, rec.triple)


def test_decompose_square_recursive_branch():
    rec = decompose_any(289)  # (2*9-1)^2; base 17 is 1 mod 4 and recurses
    assert rec.triple == UnitFractionTriple(85, 8670, 510)
    assert rec.provenance is Provenance.SQUARE_RECURSIVE
    assert rec.witness == (PolyId.P4, WitnessTriple(9, 1, 1))
    assert rec.recursion_depth == 1
    assert rational_identity_holds(289, rec.triple)


@pytest.mark.parametrize("x,triple", [
    (2, (18, 18, 3)),
    (3, (10, 100, 20)),
    (4, (147, 294, 14)),
    (5, (108, 27, 324)),
    (6, (484, 1452, 33)),
    (7, (52, 1690, 260)),
    (8, (1125, 4500, 60)),
    (9, (85, 8670, 510)),
])
def test_decompose_square_small_bases(x, triple):
    # bases 3..17, both residues mod 4: a base 3 mod 4 takes decompose_any's
    # closed form at depth 0, a base 1 mod 4 its family case
    rec = decompose_square(x)
    assert rec.a == (2 * x - 1) ** 2
    assert rec.triple == UnitFractionTriple(*triple)
    assert rec.provenance is Provenance.SQUARE_RECURSIVE
    assert rec.witness == (PolyId.P4, WitnessTriple(x, 1, 1))
    assert rec.recursion_depth == 1


def test_decompose_square_rejects_x1():
    with pytest.raises(ValueError):
        decompose_square(1)


@pytest.mark.parametrize("a,triple,prov", [
    (2, (2, 2, 1), Provenance.EVEN_4Q2),
    (3, (6, 6, 1), Provenance.ODD_4Q3),
    (4, (3, 6, 2), Provenance.EVEN_MULT4),
    (5, (2, 20, 4), Provenance.CASE_P2),
    (9, (12, 3, 36), Provenance.CASE_P1),
    (25, (10, 20, 100), Provenance.CASE_P3),
])
def test_decompose_any_examples(a, triple, prov):
    rec = decompose_any(a)
    assert rec.triple == UnitFractionTriple(*triple)
    assert rec.provenance is prov
    assert rational_identity_holds(a, rec.triple)


def test_decompose_any_witness_consistency():
    rec = decompose_any(17)
    assert rec.witness is not None
    poly, t = rec.witness
    assert shifted_value(poly, t) == 17


def test_decompose_any_range_small():
    for a in range(2, 2001):
        rec = decompose_any(a)
        assert rec.a == a
        assert rational_identity_holds(a, rec.triple), a


def test_decompose_any_rejects_small_a():
    with pytest.raises(ValueError):
        decompose_any(1)


def test_decompose_any_unsolved_propagates(monkeypatch):
    monkeypatch.setattr(decompose, "staged_search", lambda q: None)
    with pytest.raises(UnsolvedError):
        decompose_any(13)


def test_record_is_frozen():
    rec = decompose_any(5)
    assert isinstance(rec, DecompositionRecord)
    with pytest.raises(AttributeError):
        rec.a = 7
