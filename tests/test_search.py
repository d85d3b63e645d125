import os
import random
import subprocess
import sys
import textwrap
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from erdos_straus import families as families_module
from erdos_straus import search as search_module
from erdos_straus.families import PolyId, WitnessTriple, eval_poly
from erdos_straus.numutil import FactorWindow, factorize, is_prime, least_prime_factor, prime_targets
from erdos_straus.search import (
    LEGACY_PROBE_LIMIT,
    Witness,
    check_p4,
    legacy_coverage_scan,
    prime_search_from_x2,
    prime_witness_search,
    small_cube_search,
    solve_p1_given_x,
    solve_p2_given_x,
    solve_p3_given_x,
    staged_search,
    sweep_from_x2,
    wide_search,
    x_sweep_bound,
)

from .oracles import (
    _family_hits,
    _naive_xmax,
    four_form_survivors,
    is_four_form_survivor,
    least_divisor_by_sorted_list,
    legacy_scan_by_loop,
    naive_cube,
    naive_staged_classification,
    p2_divisor_instance,
    p4_count_by_sieve,
    prime_candidate_by_sweep,
    stale_square_by_loop,
    sweep_by_solvers,
)

qs = st.integers(min_value=1, max_value=50_000)
xs = st.integers(min_value=1, max_value=200)


def test_small_cube_examples():
    assert small_cube_search(1) == Witness(1, PolyId.P2, WitnessTriple(1, 1, 1))
    assert small_cube_search(2) == Witness(2, PolyId.P1, WitnessTriple(1, 1, 1))
    assert small_cube_search(72) is None  # only P4 reaches 72


def test_small_cube_matches_naive_oracle():
    for q in range(1, 201):
        got = small_cube_search(q)
        assert (None if got is None else (got.poly, got.triple)) == naive_cube(q), q
    assert small_cube_search(96) == Witness(96, PolyId.P1, WitnessTriple(3, 3, 3))
    for q in range(97, 3000):  # 96 = P1(3, 3, 3) is the cube's largest value
        assert small_cube_search(q) is None, q


def _naive_square(x):
    """{q: first witness} of the (y, z) square at x, family, then y, then z."""
    first = {}
    for poly in (PolyId.P1, PolyId.P2, PolyId.P3):
        for y in (1, 2, 3):
            for z in (1, 2, 3):
                q = eval_poly(poly, WitnessTriple(x, y, z))
                first.setdefault(q, Witness(q, poly, WitnessTriple(x, y, z)))
    return first


def test_small_cube_at_fixed_x_probes_one_square():
    for x in range(1, 51):
        square = _naive_square(x)
        for q in range(1, LEGACY_PROBE_LIMIT + 1):
            assert small_cube_search(q, x) == square.get(q), (q, x)


def test_stale_square_cache_is_bounded():
    for x in range(1, 10_001):
        q = 3 * x - 1  # P1(x, 1, 1)
        assert small_cube_search(q, x) == stale_square_by_loop(q, x), x
    info = search_module._square_table.cache_info()
    assert 0 < info.currsize <= info.maxsize
    for x in (0, -1):
        with pytest.raises(ValueError):
            small_cube_search(5, x)


@given(qs, xs)
def test_solve_p1_given_x(q, x):
    got = solve_p1_given_x(q, x)
    if got is not None:
        y, z = got
        assert eval_poly(PolyId.P1, WitnessTriple(x, y, z)) == q
    else:
        assert (q + x) % (4 * x - 1) != 0 or (q + x) < (4 * x - 1)


@given(qs, xs)
def test_solve_p2_given_x_validity(q, x):
    got = solve_p2_given_x(q, x)
    if got is not None:
        y, z = got
        assert eval_poly(PolyId.P2, WitnessTriple(x, y, z)) == q


def test_solve_p2_given_x_completeness_small():
    for q in range(1, 120):
        for x in range(1, 12):
            assert (solve_p2_given_x(q, x) is not None) == _family_hits(PolyId.P2, q, x), (q, x)


def test_solve_p1_given_x_completeness_small():
    for q in range(1, 120):
        for x in range(1, 12):
            assert (solve_p1_given_x(q, x) is not None) == _family_hits(PolyId.P1, q, x), (q, x)


def test_solve_p3_given_x_completeness_small():
    for q in range(1, 200):
        for x in range(1, 12):
            y = solve_p3_given_x(q, x)
            if y is not None:
                assert eval_poly(PolyId.P3, WitnessTriple(x, y, 1)) == q
            assert (y is not None) == _family_hits(PolyId.P3, q, x), (q, x)


def test_check_p4():
    assert check_p4(72) == 9
    assert check_p4(2) == 2  # 2 = 2*1
    assert check_p4(3) is None
    assert check_p4(1) is None
    for x in range(2, 200):
        assert check_p4(x * (x - 1)) == x


@given(qs)
def test_x_sweep_bound_matches_counting_oracle(q):
    assert x_sweep_bound(q) == _naive_xmax(q)


def test_domain_errors():
    for fn in (small_cube_search, wide_search, staged_search, check_p4, prime_witness_search):
        with pytest.raises(ValueError):
            fn(0)
    with pytest.raises(ValueError):
        solve_p1_given_x(5, 0)
    with pytest.raises(ValueError):
        solve_p2_given_x(0, 1)
    with pytest.raises(ValueError):
        solve_p3_given_x(0, 1)


def test_wide_search_examples():
    assert wide_search(72) == Witness(72, PolyId.P4, WitnessTriple(9, 1, 1))
    assert wide_search(6) == Witness(6, PolyId.P3, WitnessTriple(2, 1, 1))


def _sweep_at_x1(q):
    """The sweep's x = 1 step through the per-family solvers."""
    yz = solve_p1_given_x(q, 1)
    if yz is not None:
        return PolyId.P1, WitnessTriple(1, *yz)
    yz = solve_p2_given_x(q, 1)
    if yz is not None:
        return PolyId.P2, WitnessTriple(1, *yz)
    y = solve_p3_given_x(q, 1)
    return None if y is None else (PolyId.P3, WitnessTriple(1, y, 1))


def _sweep_from_x1(q):
    """wide_search as a plain sweep from x = 1, without the closed form."""
    hit = _sweep_at_x1(q)
    return sweep_by_solvers(q) if hit is None else Witness(q, *hit)


def _x1_closed_form(q, window=None):
    """P2's (y, z) at x = 1 by wide_search's rule; with `window`, by its
    least prime 2 mod 3, as a coverage slice looks it up (2 for even q+1)."""
    p = (least_prime_factor if window is None else window.least_prime_factor)(q + 1, 3, 2)
    return None if p is None else search_module.x1_yz(q + 1, p)


@pytest.mark.parametrize("lo,count", [
    (1, 3000),
    (10**6 - 1500, 3000),
    (10**9 - 700, 1400),
    (65537**2 - 400, 800),  # q+1 beyond the window's reach falls back to factorize
])
def test_x1_closed_form_matches_the_solvers(lo, count):
    window = FactorWindow(lo + 1, lo + count + 64)
    for q in range(lo, lo + count):
        expect = solve_p2_given_x(q, 1)
        assert _x1_closed_form(q, window) == expect, q
        assert _x1_closed_form(q) == expect, q
        assert wide_search(q) == _sweep_from_x1(q), q


def _no_x1_answer(q):
    return all(solve(q, 1) is None for solve in (solve_p1_given_x, solve_p2_given_x, solve_p3_given_x))


@pytest.mark.parametrize("qs", [range(1, 10**5 + 1), range(10**9 - 3000, 10**9 + 3000)])
def test_sweep_from_x2_is_wide_search_where_x1_has_no_answer(qs):
    # every q up to 10^5 that x = 1 leaves, against the loop over the solvers
    window = FactorWindow(qs[0] + 1, qs[-1] + 64)
    swept = [q for q in qs if _no_x1_answer(q)]
    assert len(swept) > len(qs) // 20
    for q in swept:
        expect = sweep_by_solvers(q)
        assert sweep_from_x2(q) == expect, q
        assert sweep_from_x2(q, window) == expect, q
        assert wide_search(q) == expect, q


def _left_by_x1(q):
    """The first q' >= q that x = 1 leaves: a multiple of 6 whose q'+1 has no
    prime 2 mod 3."""
    q += -q % 6
    while _x1_closed_form(q) is not None:
        q += 6
    return q


@given(st.sampled_from([10**9, 4 * 10**12]).flatmap(lambda base: st.integers(base, base + 10**6)).map(_left_by_x1),
       st.booleans())
@settings(max_examples=200, deadline=None)
def test_sweep_from_x2_matches_the_solver_loop_at_scale(q, with_window):
    window = FactorWindow(q + 1, q + 64) if with_window else None
    assert sweep_from_x2(q, window) == sweep_by_solvers(q), q


@pytest.mark.parametrize("with_window", [False, True])
def test_sweep_from_x2_matches_the_solver_loop_on_oblong_q(with_window):
    # every q = X(X-1) < 10^7 (X <= 3162), windowed to X = 1000: 4q+1 is a square,
    # which sweep_from_x2 answers in closed form and the loop by stepping x to X
    top, p4_from_x2 = (1000, 77) if with_window else (3162, 217)
    p4 = 0
    for big_x in range(2, top + 1):
        q = big_x * (big_x - 1)
        window = FactorWindow(q + 1, q + 64) if with_window else None
        expect = sweep_by_solvers(q)
        assert sweep_from_x2(q, window) == expect, q
        p4 += expect.poly is PolyId.P4
    assert p4 == p4_from_x2


@given(st.integers(2, 3 * 10**4))
@settings(max_examples=50, deadline=None)
def test_sweep_from_x2_matches_the_solver_loop_on_far_oblong_q(big_x):
    q = big_x * (big_x - 1)
    assert sweep_from_x2(q) == sweep_by_solvers(q), q


def test_the_oblong_closed_form_keeps_the_sweep_bound():
    # q = 20, s = 9: 27 is the least divisor 3 mod 4 above 3 of 81, but its x = 7
    # is past x_sweep_bound(20) = 5, so the sweep ends at the x(x-1) check
    assert sweep_from_x2(20) == Witness(20, PolyId.P4, WitnessTriple(5, 1, 1))
    assert wide_search(20) == Witness(20, PolyId.P1, WitnessTriple(1, 1, 7))


@pytest.mark.parametrize("n", [
    7 * 13 * 65537 * 65543,        # no prime 2 mod 3 below 2^16; composite cofactor
    7 * 13 * 65539 * 65551,        # none at all: every prime is 1 mod 3
    19 * 65539 * 65543,            # the cofactor's least prime, 65539, is 1 mod 3
    5 * 7 * 65537**2,              # a small prime 2 mod 3 ends the search
    (10**9 + 7) * (10**9 + 9),     # near 10^18, both factors 2 mod 3
    1713289208592601,              # Carmichael 65851 * 131701 * 197551, all 1 mod 3
])
def test_x1_closed_form_past_the_window(n):
    q = n - 1
    expect = solve_p2_given_x(q, 1)
    assert _x1_closed_form(q) == expect
    assert _x1_closed_form(q, FactorWindow(q - 3, q + 3)) == expect


@given(st.integers(min_value=1, max_value=10**13), st.integers(0, 50), st.booleans())
@settings(max_examples=150, deadline=None)
def test_x1_closed_form_property(q, offset, with_window):
    window = FactorWindow(max(1, q + 1 - offset), q + 1 + offset) if with_window else None
    assert _x1_closed_form(q, window) == solve_p2_given_x(q, 1)
    hit = _sweep_at_x1(q)
    if hit is not None:  # wide_search stops at x = 1
        assert wide_search(q) == Witness(q, *hit)


@given(st.integers(min_value=1, max_value=10**7))
@settings(max_examples=150, deadline=None)
def test_wide_search_matches_the_plain_sweep(q):
    assert wide_search(q) == _sweep_from_x1(q)


# (m, r) of every least-divisor lookup: the sweep's and the prime search's
# x stages up to x = 16, which hold the y = 2, 3 stages' (7, 5) and (11, 8),
# and the z = 2 stage's two classes mod 8
_DIVISOR_CLASSES = [(4 * x - 1, 3 * x - 1) for x in range(1, 17)] + [(8, 3), (8, 7)]


@pytest.mark.parametrize("with_window", [False, True])
def test_least_divisor_matches_the_sorted_list(with_window):
    window = FactorWindow(1, 5000) if with_window else None
    for n in range(1, 5000):
        for m, r in _DIVISOR_CLASSES:
            expect = least_divisor_by_sorted_list(n, m, r)
            assert search_module._least_divisor(n, m, r, window=window) == expect, (n, m, r)


def _prime_above(n):
    while not is_prime(n):
        n += 1
    return n


@given(st.integers(1, 10**4), st.integers(1 << 16, 10**7), st.integers(1 << 16, 10**7),
       st.sampled_from(_DIVISOR_CLASSES), st.booleans())
@settings(max_examples=100, deadline=None)
def test_least_divisor_with_two_large_primes(s, a, b, divisor_class, with_window):
    # n has two prime factors above 2^16, so its factorization goes through rho
    n = s * _prime_above(a) * _prime_above(b)
    window = FactorWindow(n - 5, n + 5) if with_window else None
    expect = least_divisor_by_sorted_list(n, *divisor_class)
    assert search_module._least_divisor(n, *divisor_class, window=window) == expect


_K = search_module._CLASS_SCAN


def _counting_factorizations(monkeypatch, window):
    """The n that _least_divisor factors from here on, module-wide or in `window`."""
    calls = []
    factorize_ = search_module.factorize
    monkeypatch.setattr(search_module, "factorize", lambda n: calls.append(n) or factorize_(n))
    if window is not None:
        factorize_in_window = window.factorize
        window.factorize = lambda n: calls.append(n) or factorize_in_window(n)
    return calls


def _with_least_class_divisor(d, m, r):
    """An n = d*c, c >= 10^6, whose least divisor of the class is d."""
    for c in range(10**6, 10**6 + 10**4):
        if least_divisor_by_sorted_list(d * c, m, r) == d:
            return d * c
    raise AssertionError(f"no n found for d = {d}")


# (class, i) with the member d = r + i*m the least class divisor of some n:
# the last member the scan tries and the first it does not, wherever d has
# no smaller member of its class as a divisor
_SCAN_ENDS = [
    (c, i) for c in _DIVISOR_CLASSES for i in (_K - 1, _K)
    if least_divisor_by_sorted_list(c[1] + i * c[0], c[0], c[1]) == c[1] + i * c[0]
]


@pytest.mark.parametrize("divisor_class,members", _SCAN_ENDS)
@pytest.mark.parametrize("with_window", [False, True])
def test_least_divisor_at_the_end_of_the_class_scan(monkeypatch, divisor_class, members, with_window):
    # only a least divisor past the scanned members needs n factored
    m, r = divisor_class
    d = r + members * m
    n = _with_least_class_divisor(d, *divisor_class)
    window = FactorWindow(n - 5, n + 5) if with_window else None
    calls = _counting_factorizations(monkeypatch, window)
    assert search_module._least_divisor(n, *divisor_class, window=window) == d
    assert calls == ([n] if members == _K else [])


@pytest.mark.parametrize("divisor_class", _DIVISOR_CLASSES)
def test_least_divisor_below_the_end_of_the_class_scan(monkeypatch, divisor_class):
    # n < r + _CLASS_SCAN*m: the scan stops at n, having tried every class
    # member up to it, so neither a hit (n itself included) nor a miss
    # needs a factorization
    m, r = divisor_class
    calls = _counting_factorizations(monkeypatch, None)
    for n in range(1, r + _K * m):
        expect = least_divisor_by_sorted_list(n, *divisor_class)
        assert search_module._least_divisor(n, *divisor_class) == expect, n
        assert calls == [], n


@given(st.one_of(st.integers(10**9 - 10**6, 10**9 + 10**6),
                 st.integers(12 * 10**9 - 10**6, 12 * 10**9 + 10**6)),
       st.sampled_from(_DIVISOR_CLASSES), st.booleans())
@settings(max_examples=200, deadline=None)
def test_least_divisor_near_the_headline_ranges(n, divisor_class, with_window):
    window = FactorWindow(n - 64, n + 64) if with_window else None
    expect = least_divisor_by_sorted_list(n, *divisor_class)
    assert search_module._least_divisor(n, *divisor_class, window=window) == expect


def _q1_with_least_prime_past_2_16():
    """A q = 6c near 1.2*10^10 whose q+1 has its least prime 2 mod 3 in
    (2^16, isqrt(q+1)]: 65537 * p, with p the least prime 2 mod 3 from
    1.2*10^10 // 65537 up; both are 2 mod 3, so q+1 is 1 mod 6."""
    p = 12 * 10**9 // 65537
    while not (is_prime(p) and p % 3 == 2):
        p += 1
    return 65537 * p - 1


_Q_FAR = _q1_with_least_prime_past_2_16()


@pytest.mark.parametrize("start,count", [
    (6, 4000),
    (600_000 - 6000, 2000),
    (10**9 - 10**9 % 6, 2000),
    (65537**2 - 65537**2 % 6 - 3000, 1000),  # q+1 crosses SIEVE_MAX = 65537^2 - 1
    (_Q_FAR - 3000, 1000),
])
def test_x1_table_matches_least_prime_factor(start, count):
    got = prime_targets(range(start, start + 6 * count, 6))
    assert [p for _, p in got] == [least_prime_factor(q + 1, 3, 2) for q, _ in got]
    assert any(p is None for _, p in got) and any(p is not None for _, p in got)


def test_x1_table_finds_a_least_prime_past_2_16():
    # q+1 = 65537 * p with p prime 2 mod 3, and 4q+1 prime: the least prime
    # 2 mod 3 of q+1 lies past the sieve's primes, and q is a prime target
    q = next(q for q in range(_Q_FAR, _Q_FAR + 65537 * 6000, 65537 * 6)
             if is_prime((q + 1) // 65537) and is_prime(4 * q + 1))
    assert (q + 1) // 65537 % 3 == 2 and 65537 < isqrt(q + 1)
    assert (q, 65537) in prime_targets(range(q - 600, q + 600, 6))
    assert least_prime_factor(q + 1, 3, 2) == 65537


@given(st.integers(1, 10**12))
@settings(max_examples=200, deadline=None)
def test_primes_2_mod_3_of_6c_plus_1_come_in_pairs(c):
    # why an empty x = 1 entry means no witness: q+1 = 6c+1 is 1 mod 3, so
    # its primes 2 mod 3, with multiplicity, are even in number
    n = 6 * c + 1
    factors = factorize(n)
    assert sum(e for p, e in factors.items() if p % 3 == 2) % 2 == 0
    p = least_prime_factor(n, 3, 2)
    assert p is None or p * p <= n


def test_staged_search_matches_exhaustive_oracle_small():
    for q in range(1, 301):
        w = staged_search(q)
        expect = naive_staged_classification(q)
        assert w is not None and w.poly == expect, q
        assert eval_poly(w.poly, w.triple) == q


@given(qs)
@settings(max_examples=150)
def test_staged_search_witness_is_valid(q):
    w = staged_search(q)
    assert w is not None
    assert w.q == q
    assert eval_poly(w.poly, w.triple) == q


def test_legacy_scan_matches_staged_except_known_flips():
    flips = {29: PolyId.P1, 35: PolyId.P1, 40: PolyId.P2, 47: PolyId.P1,
             61: PolyId.P2, 63: PolyId.P2}
    legacy = dict(legacy_coverage_scan(range(1, 100)))
    for q in range(1, 100):
        w = legacy[q]
        assert w is not None
        assert eval_poly(w.poly, w.triple) == q
        expect = flips.get(q, staged_search(q).poly)
        assert w.poly == expect, q


def _shuffled(qs, seed):
    qs = list(qs)
    random.Random(seed).shuffle(qs)
    return qs


@pytest.mark.parametrize("qs", [range(1, 2049), range(6, 2049, 6), range(30, 4000),
                                [2049, 10], _shuffled(range(1, 3000), 15)])
def test_legacy_scan_matches_the_loop_probe(qs):
    # in the step-6 scan the stale square gives q = 48 a witness no other stage
    # gives; the oracle probes every q, so q past LEGACY_PROBE_LIMIT checks it.
    # Out of order, a q past the limit still leaves its stale x: after 2049
    # the loop probes the square at that x for q = 10, not the proper cube
    assert list(legacy_coverage_scan(qs)) == list(legacy_scan_by_loop(qs))


def test_legacy_scan_proper_cube_before_first_wide_dispatch():
    # scanning a single small q is exactly the staged search
    ((q, w),) = list(legacy_coverage_scan([29]))
    assert w == staged_search(29)


def test_legacy_scan_beyond_probe_limit_is_stateless():
    q = LEGACY_PROBE_LIMIT + 1
    ((_, w),) = list(legacy_coverage_scan([q]))
    assert w == wide_search(q)
    # and the stale-x state cannot leak into such q mid-scan
    tail = dict(legacy_coverage_scan([5, 7, q]))
    assert tail[q] == wide_search(q)


def test_legacy_scan_every_witness_valid_prefix():
    for q, w in legacy_coverage_scan(range(1, 500)):
        assert w is not None and eval_poly(w.poly, w.triple) == q


def test_p4_classification_of_oblong_numbers():
    # first 20 oblong q that no earlier family reaches within the sweep
    p4_qs = [72, 420, 1332, 1980, 2352, 3192, 4692, 9312, 13572, 14520,
             16512, 19740, 20880, 24492, 28392, 31152, 40200, 41820, 46872, 50400]
    for q in p4_qs:
        w = staged_search(q)
        assert w.poly is PolyId.P4, q
    # 13110 is oblong (114*115) but the third family reaches it first
    w = staged_search(13110)
    assert w == Witness(13110, PolyId.P3, WitnessTriple(58, 29, 1))


def test_an_oblong_q_needs_p4_exactly_when_every_prime_of_2x_minus_1_is_1_mod_8():
    # 4q+1 = (2X-1)^2 is a square, which 4*P2 + 1 never is (test_families); P1 and
    # P3 miss it just when every prime factor of 2X-1 is 1 mod 8, and P4 is x = X
    needs_p4 = []
    for big_x in range(2, 3163):  # every q = X(X-1) < 10^7
        w = wide_search(big_x * (big_x - 1))
        criterion = all(p % 8 == 1 for p in factorize(2 * big_x - 1))
        assert (w.poly is PolyId.P4) == criterion, big_x
        assert not criterion or w.triple == (big_x, 1, 1), big_x
        if criterion:
            needs_p4.append(big_x)
    # 2 fewer than sweep_from_x2's 217: q = 2 and 20 hit P1 at x = 1
    assert len(needs_p4) == p4_count_by_sieve(10**7) == 215
    assert sum(x <= 1000 for x in needs_p4) == p4_count_by_sieve(10**6) == 75


def test_the_p4_count_sieve_gives_the_readme_table():
    # the q <= Q that need P4, for Q = 10^3 .. 10^10
    assert [p4_count_by_sieve(10**k) for k in range(3, 11)] == [2, 8, 27, 75, 215, 641, 1869, 5504]


def test_p1_or_p3_reaches_q_exactly_when_4q_plus_1_has_a_prime_not_1_mod_8():
    # Lemma A (README): some x <= x_sweep_bound(q) solves P1 or P3
    only_1_mod_8 = 0
    for q in range(1, 5 * 10**4 + 1):
        xs = range(1, x_sweep_bound(q) + 1)
        reached = any(solve_p1_given_x(q, x) is not None or solve_p3_given_x(q, x) is not None for x in xs)
        assert reached == any(p % 8 != 1 for p in factorize(4 * q + 1)), q
        only_1_mod_8 += not reached
    assert only_1_mod_8 == 5504


def test_the_survivors_are_multiples_of_6():
    # the reduction (README): an identity settles every q that is not 6c
    assert [q for q in range(1, 10**5 + 1) if is_four_form_survivor(q)] == four_form_survivors(10**5)


def test_p2_covers_every_non_square_survivor():
    # the survivors q <= 10^3 .. 10^6, and the squares among them, which are
    # the q that need P4 (README's table); every other one has a P2 witness
    survivors = four_form_survivors(10**6)
    squares = [q for q in survivors if isqrt(4 * q + 1) ** 2 == 4 * q + 1]
    assert [sum(q <= 10**k for q in survivors) for k in range(3, 7)] == [12, 76, 565, 3728]
    assert [sum(q <= 10**k for q in squares) for k in range(3, 7)] == [2, 8, 27, 75]
    assert {wide_search(q).poly for q in squares} == {PolyId.P4}
    for q in survivors:
        if q not in squares:
            w = prime_search_from_x2(q)
            assert w is not None and w.poly is PolyId.P2, q


def test_prime_witness_search_small():
    assert prime_witness_search(36) == Witness(36, PolyId.P2, WitnessTriple(2, 3, 2))
    assert prime_witness_search(6) is None  # 4*6+1 = 25 is composite


def test_prime_witness_search_covers_prime_targets():
    for q in range(6, 3001, 6):
        a = 4 * q + 1
        if not is_prime(a):
            continue
        got = prime_witness_search(q)
        assert got is not None and got.poly is PolyId.P2, q
        x, y, z = got.triple
        assert min(x, y, z) >= 1
        assert (4 * x - 1) * (4 * y * z - 1) - 4 * x * z == a, q


def test_prime_search_matches_the_sweep_on_prime_targets():
    # every prime target q = 6c < 2*10^5; 451 of them miss stage 1 (x <= 3)
    targets = [q for q in range(6, 200_000, 6) if is_prime(4 * q + 1)]
    assert len(targets) == 7912
    for q in targets:
        assert prime_witness_search(q) == prime_candidate_by_sweep(q), q


def test_prime_search_matches_the_sweep_on_every_small_q():
    # q = 4400 is the first whose least z-stage divisor lies past xmax
    for q in range(1, 20_000):
        assert prime_witness_search(q) == prime_candidate_by_sweep(q), q


@given(st.sampled_from([1, 10**6, 10**9]), st.integers(0, 10**5))
@settings(max_examples=200, deadline=None)
def test_prime_search_matches_the_sweep_for_any_q(base, offset):
    # any residue mod 6: a P1 answer at x = 1 (3 | q+1) must not leak in
    q = base + offset
    assert prime_witness_search(q) == prime_candidate_by_sweep(q)


def _y1_z1_by_least_primes(q):
    """The prime search's y = 1 and z = 1 divisors as it takes them: E = 4p,
    p the least prime 2 mod 3 of 3q+1, and f, the least prime 3 mod 4 of 2q+1."""
    p = least_prime_factor(3 * q + 1, 3, 2)
    return None if p is None else 4 * p, least_prime_factor(2 * q + 1, 4, 3)


def _y1_z1_by_divisors(q):
    """The same divisors by their definition: the least E = 8 mod 12 of 3a+1,
    and the least f = 3 mod 4 of a+1 with (a+1)/f = 2 mod 4, a = 4q+1."""
    a = 4 * q + 1
    return least_divisor_by_sorted_list(3 * a + 1, 12, 8), least_divisor_by_sorted_list(a + 1, 4, 3, 4, 2)


def _y23_z2_as_searched(q):
    """The prime search's y = 2, 3 and z = 2 divisors as it takes them: E = 4d,
    d the least divisor 3y-1 mod 4y-1 of (4y-1)q + y, `solve_p2_given_x`'s at x = y,
    and f, the least divisor 7 mod 8 of 4q+3, which is 4q+7 mod 8 for even q."""
    ds = [search_module._least_divisor((4 * y - 1) * q + y, 4 * y - 1, 3 * y - 1) for y in (2, 3)]
    return (*(None if d is None else 4 * d for d in ds), search_module._least_divisor(4 * q + 3, 8, 7))


def _y23_z2_by_divisors(q):
    """The same divisors by their definition: the least E = 3k-1 mod 4k of
    ka+1, k = 4y-1, and the least f = 3 mod 4 of a+2 with (a+2)/f = 5 mod 8."""
    a = 4 * q + 1
    return (*(least_divisor_by_sorted_list(k * a + 1, 4 * k, 3 * k - 1) for k in (7, 11)),
            least_divisor_by_sorted_list(a + 2, 4, 3, 8, 5))


def test_y1_and_z1_stages_are_least_prime_lookups_for_every_small_q():
    # and the y = 2, 3 and z = 2 stages are their old lookups (z = 2 for even
    # q), and z = 3's, the least f = 3 mod 4 of a+3 with (a+3)/f = 8 mod 12,
    # never hits a q that x = 1 leaves.  Each such q is even, so 3q+1 is 1
    # mod 3 and 2q+1 is 1 mod 4, the y = 1 and z = 1 primes of the class pair
    # up, p*p <= 3q+1 and f*f <= 2q+1: their x is at most xmax, and the search
    # checks no bound there.  The y = 2, y = 3 and z = 2 bounds it checks
    # each reject a hit, first at q = 1248, 456 and 38.
    found, left, first_bound = [0] * 5, 0, {}
    for q in range(1, 10**5 + 1):
        got = _y1_z1_by_least_primes(q) + _y23_z2_as_searched(q)
        compared = 5 if q % 2 == 0 else 4
        assert got[:compared] == (_y1_z1_by_divisors(q) + _y23_z2_by_divisors(q))[:compared], q
        found = [n + (d is not None) for n, d in zip(found, got)]
        if least_prime_factor(q + 1, 3, 2) is None:
            left += 1
            assert q % 2 == 0, q
            assert least_divisor_by_sorted_list(4 * q + 4, 4, 3, 12, 8) is None, q
            e1, f1, e2, e3, f2 = got
            assert e1 is None or (e1 // 4) ** 2 <= 3 * q + 1, q
            assert f1 is None or f1 * f1 <= 2 * q + 1, q
            xs = {"y = 2": e2 and (e2 // 4 + 2) // 7, "y = 3": e3 and (e3 // 4 + 3) // 11,
                  "z = 2": f2 and (f2 + 1) // 4}
            for stage, x in xs.items():
                if x is not None and x > x_sweep_bound(q):
                    first_bound.setdefault(stage, q)
    assert 0 < min(found) and max(found) < 10**5  # each stage both hits and misses
    assert left > 10**4
    assert first_bound == {"y = 2": 1248, "y = 3": 456, "z = 2": 38}


def _q_past_2_16(s, a, b, d):
    """A q whose dq+1, d = 2 or 3, is 6s+1 (times 5 if need be) times the
    primes P, Q from a and b up, above 2^16: unless 6s+1 holds a prime of the
    class, the lookup reaches the cofactor PQ, above 2^32, and splits it by rho."""
    n = (6 * s + 1) * _prime_above(a) * _prime_above(b)
    n *= 5 if n % d != 1 else 1  # d = 3 and n = 2 mod 3
    return (n - 1) // d


@given(st.one_of(
    st.sampled_from([10**9, 12 * 10**9, 4 * 10**12]).flatmap(lambda base: st.integers(base, base + 10**6)),
    st.builds(_q_past_2_16, st.integers(0, 10**4), st.integers(1 << 16, 10**7), st.integers(1 << 16, 10**7),
              st.sampled_from([2, 3])),
))
@settings(max_examples=200, deadline=None)
def test_y1_and_z1_stages_are_least_prime_lookups_at_scale(q):
    assert _y1_z1_by_least_primes(q) == _y1_z1_by_divisors(q), q


def test_solve_p2_given_x_is_the_prime_programs_p2_search():
    # E = (4x-1)(4y-1) - 1 = 4M and a + 4x - 1 = 4(q+x): the same first hit
    for q in range(1, 1500):
        for x in range(1, 13):
            assert solve_p2_given_x(q, x) == p2_divisor_instance(4 * q + 1, x), (q, x)


@given(st.integers(min_value=10**9 // 6, max_value=10**9 // 6 + 10**6), st.integers(1, 40))
@settings(max_examples=40, deadline=None)
def test_solve_p2_given_x_matches_prime_program_near_1e9(c, x):
    q = 6 * c
    assert solve_p2_given_x(q, x) == p2_divisor_instance(4 * q + 1, x)


def _wrong_p2(q, x):
    return (1, 1)


def test_prime_witness_search_rejects_a_wrong_triple(monkeypatch):
    monkeypatch.setattr(search_module, "solve_p2_given_x", _wrong_p2)
    with pytest.raises(AssertionError, match="p2"):
        prime_witness_search(36)


def test_prime_slice_rejects_a_wrong_x1_prime_under_python_O():
    # _prime_slice writes x = 1 rows with no search; each must still be checked
    script = textwrap.dedent(
        """
        import sys
        from erdos_straus import batch

        if not sys.flags.optimize:
            sys.exit("not running under -O")
        # 4q+1 = 97 and 337 are prime; q+1 = 25 and 85 have the least prime 2 mod 3 5
        for q, p in ((24, 2), (24, 25), (84, 7)):  # not dividing q+1, not a prime, not dividing
            batch.prime_targets = lambda qs, target=(q, p): [target]
            try:
                batch._prime_slice(range(q, q + 6, 6))
            except AssertionError:
                continue
            sys.exit(f"wrong x = 1 prime {p} accepted for q = {q}")
        batch.prime_targets = lambda qs: [(24, 5), (84, 5)]
        if batch._prime_slice(range(24, 90, 6)).text != "24,1,2,5\\n84,1,2,17\\n":
            sys.exit("right x = 1 primes not written as rows")
        """
    )
    src = str(Path(families_module.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_wrong_witness_raises_under_python_O():
    # assert statements vanish under -O; the family checks must not
    script = textwrap.dedent(
        """
        import sys
        from erdos_straus import families
        from erdos_straus.families import PolyId, WitnessTriple
        from erdos_straus import batch, search
        from erdos_straus.search import _checked_witness

        if not sys.flags.optimize:
            sys.exit("not running under -O")
        import tempfile
        from pathlib import Path
        from erdos_straus import cli, reports
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "rows.csv"
            path.write_text("q,x,y,z,pi\\n02,1,1,1,p1\\n")
            try:
                list(reports.read_results(path))
            except reports.ReportFormatError:
                pass
            else:
                sys.exit("row no scan writes accepted")
            path.write_text("q,x,y,z,pi\\n2,1,1,1,p2\\n")  # p2(1, 1, 1) = 1
            if cli.main(["verify-csv", str(path)]) != 1:
                sys.exit("verify-csv accepted a wrong witness")
        try:
            _checked_witness(5, PolyId.P1, WitnessTriple(1, 1, 1))
        except AssertionError:
            pass
        else:
            sys.exit("wrong search witness accepted")
        least_divisor = search._least_divisor
        # the least divisor of any class would be its least member: 37 has no
        # prime 2 mod 3, so q = 36 reaches the x = 2 stage of either search
        search._least_divisor = lambda n, m, r, window=None: r
        for fn in (search.prime_witness_search, search.sweep_from_x2):
            try:
                fn(36)
            except AssertionError:
                continue
            sys.exit(f"{fn.__name__} accepted a wrong least divisor")
        search._least_divisor = least_divisor
        # q = 72 = 9*8, 4q+1 = 17^2: the closed form must check what a wrong
        # divisor of 17^2, 3 mod 4 (P1 at x = 2) or 5 mod 8 (P3 at x = 4), gives
        divisors_of = search.divisors_of
        for wrong in (7, 13):
            search.divisors_of = lambda factors, d=wrong: [1, d]
            try:
                search.sweep_from_x2(72)
            except AssertionError:
                continue
            sys.exit(f"sweep_from_x2 accepted a wrong divisor {wrong} of an oblong q")
        search.divisors_of = divisors_of
        # one prime target per stage of prime_search_from_x2, with the lookup
        # that answers it: (stage, q, lookup, its n, m, r).  A lookup that lies
        # there, with the least member of its class, or the next one if the
        # least is the answer, must raise.
        for stage, q, lookup, n, m, r in (
            ("x = 2", 18, "_least_divisor", 18 + 2, 7, 5),
            ("x = 3", 60, "_least_divisor", 60 + 3, 11, 8),
            ("y = 1", 300, "least_prime_factor", 3 * 300 + 1, 3, 2),
            ("y = 2", 672, "_least_divisor", 7 * 672 + 2, 7, 5),
            ("y = 3", 2412, "_least_divisor", 11 * 2412 + 3, 11, 8),
            ("z = 1", 5130, "least_prime_factor", 2 * 5130 + 1, 4, 3),
            ("z = 2", 630, "_least_divisor", 4 * 630 + 3, 8, 7),
            ("x >= 4", 4230, "_least_divisor", 4230 + 4, 15, 11),
        ):
            real = getattr(search, lookup)
            def lying(*args, real=real, at=(n, m, r), **kw):
                d = real(*args, **kw)
                if args[:3] != at:
                    return d
                return at[2] + at[1] if d == at[2] else at[2]
            setattr(search, lookup, lying)
            try:
                search.prime_search_from_x2(q)
            except AssertionError:
                setattr(search, lookup, real)
                continue
            sys.exit(f"prime_search_from_x2 accepted a lying lookup at {stage} for q = {q}")
        search.solve_p2_given_x = lambda q, x: (1, 1)
        try:
            search.prime_witness_search(36)
        except AssertionError:
            pass
        else:
            sys.exit("wrong prime witness accepted")
        # 4q+1 = 97 is prime and q+1 = 25's prime 2 mod 3 is 5, not 7
        batch.prime_targets = lambda qs: [(24, 7)]
        try:
            batch._prime_slice(range(24, 30, 6))
        except AssertionError:
            pass
        else:
            sys.exit("wrong x = 1 prime accepted")
        families.eval_poly = lambda poly, t: -1
        # 3 | q+1 gives a P1 row; q+1 = 5, a P2 row from the window; q+1 = 4, the even-n P2 row
        for q in (2, 4, 3):
            try:
                batch._wide_slice(range(q, q + 1))
            except AssertionError:
                continue
            sys.exit(f"wrong x = 1 row accepted for q = {q}")
        # and the per-q searches' x = 1 witnesses, the prime search's at q+1 = 25
        for fn, q in ((search.wide_search, 2), (search.wide_search, 4), (search.wide_search, 3),
                      (search.prime_witness_search, 24)):
            try:
                fn(q)
            except AssertionError:
                continue
            sys.exit(f"{fn.__name__} accepted a wrong x = 1 witness for q = {q}")
        for fn, arg in ((families.odd_family, 1), (families.even_6c4_family, 0),
                        (families.even_6c2_family, 0)):
            try:
                fn(arg)
            except AssertionError:
                continue
            sys.exit(f"{fn.__name__} accepted a wrong value")
        """
    )
    src = str(Path(families_module.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
