from collections import Counter
from math import gcd, isqrt, prod

import pytest
from hypothesis import given, settings, strategies as st

from erdos_straus import numutil as numutil_module
from erdos_straus.numutil import (
    MR_LIMIT,
    FactorWindow,
    divisors_of,
    factorize,
    is_prime,
    least_prime_factor,
    prime_targets,
    window_prime_count,
)

from .oracles import (
    divisors_ascending,
    divisors_by_trial,
    factor_by_trial,
    prime_by_certificate,
    rho_factor_by_step,
    strong_probable_prime,
)


def _trial_is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _trial_divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def test_small_primes_are_the_primes_below_2_16():
    assert numutil_module._PRIMES == [n for n in range(1 << 16) if is_prime(n)]
    assert [p for run, _ in numutil_module._RUNS for p in run] == numutil_module._PRIMES
    assert all(product == prod(run) for run, product in numutil_module._RUNS)


def test_is_prime_small_exhaustive():
    for n in range(-5, 2000):
        assert is_prime(n) == _trial_is_prime(n), n


@pytest.mark.parametrize("n,expected", [
    (2, True),
    (4_000_037, True),
    (4_000_041, False),
    ((1 << 61) - 1, True),           # Mersenne prime
    (3215031751, False),             # strong pseudoprime to bases 2,3,5,7
    (3825123056546413051, False),    # strong pseudoprime to first 9 prime bases
    (10**18 + 9, True),
    # strong pseudoprime to the 12 prime bases up to 37
    (318665857834031151167461, False),
    (MR_LIMIT - 2, False),           # 17 * 1709 * 1366183751 * 83570142193
])
def test_is_prime_known_values(n, expected):
    assert is_prime(n) is expected


def test_is_prime_refuses_the_unproven_domain():
    # MR_LIMIT itself is a strong pseudoprime to all thirteen bases
    assert MR_LIMIT == 1287836182261 * 2575672364521
    for n in (MR_LIMIT, MR_LIMIT + 2, 10**30):
        with pytest.raises(ValueError, match="not proven"):
            is_prime(n)
    assert is_prime(MR_LIMIT - 1) is False


@given(st.integers(min_value=0, max_value=200_000))
def test_is_prime_agrees_with_trial_division(n):
    assert is_prime(n) == _trial_is_prime(n)


_PSI = [psi for psi, _ in numutil_module._MR_BOUNDS]


def test_mr_bounds_are_the_least_pseudoprimes_to_their_bases():
    # each psi_k fools its first k bases, so no bound could be raised, and
    # is_prime, which runs more bases from psi_k on, still rejects it
    bounds = numutil_module._MR_BOUNDS
    assert bounds[-1] == (MR_LIMIT, len(numutil_module._MR_BASES))
    assert _PSI == sorted(set(_PSI))
    assert [k for _, k in bounds] == sorted({k for _, k in bounds})
    for psi, k in bounds:
        assert all(strong_probable_prime(psi, a) for a in numutil_module._MR_BASES[:k]), psi
        if psi < MR_LIMIT:
            assert is_prime(psi) is False, psi


@pytest.mark.parametrize("psi", [psi for psi in _PSI if psi < 1 << 32])
def test_is_prime_agrees_with_trial_division_around_each_small_bound(psi):
    for n in range(psi - 500, psi + 501):
        assert is_prime(n) == _trial_is_prime(n), n


def _straddling_semiprimes(psi):
    """p * q with p the prime below isqrt(psi), and q the primes on either
    side of psi / p: one product below psi, one above."""
    p = isqrt(psi)
    while not prime_by_certificate(p):
        p -= 1
    below = above = psi // p
    while not prime_by_certificate(below) or p * below >= psi:
        below -= 1
    while not prime_by_certificate(above) or p * above <= psi:
        above += 1
    return p * below, p * above


@pytest.mark.parametrize("psi", [psi for psi in _PSI if psi >= 1 << 32])
def test_is_prime_agrees_with_a_certificate_around_each_large_bound(psi):
    # every n from the prime before psi to the prime after it
    for step in (-1, 1):
        n, prime = psi, False
        while not prime and n + step < MR_LIMIT:
            n += step
            prime = prime_by_certificate(n)
            assert is_prime(n) == prime, n
    for n in _straddling_semiprimes(psi):
        if n < MR_LIMIT:
            assert is_prime(n) is False, n


def test_factorize_examples():
    assert factorize(1) == {}
    assert factorize(2) == {2: 1}
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(2**5 * 10007) == {2: 5, 10007: 1}
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_large_semiprime():
    p, q = 1_000_003, 1_000_033
    assert factorize(p * q) == {p: 1, q: 1}
    # two primes above the trial-division bound, product above 2^32
    p, q = 67_867_967, 67_867_979
    assert factorize(p * q) == {p: 1, q: 1}


# Carmichael numbers: the first six have only small factors; Chernick's
# (6k+1)(12k+1)(18k+1) with k = 10975 has three above 2^16.
CARMICHAEL = (561, 1105, 1729, 41041, 825265, 321197185, 65851 * 131701 * 197551)


@pytest.mark.parametrize("n", [
    65539 * 65551, 65551 * 65557,          # semiprimes above 2^16, both 1 mod 3
    65537 * 65543, 65543 * 65579,          # both 2 mod 3
    65537 * 65551,                         # the block gcd comes out as n
    65537**2, 65557**2, 65537**3, 65579**3, 16 * 65537**2, 65537**2 * 65543,
    *CARMICHAEL,
    4294967291, 4294967311,                # the primes next to 2^32
    4295098349, 4295098403,                # the primes next to 65537^2
    (1 << 32) - 1, 1 << 32, 65537**2 - 1, 65537**2 + 1,
    10**18 - 1, 10**18 + 1,                # near 10^18
    1000003 * 1000033 * 1000037, 1000003**3,
])
def test_factorize_matches_trial_division(n):
    assert factorize(n) == factor_by_trial(n)


@pytest.mark.parametrize("primes", [
    (10**9 + 7, 10**9 + 9),                # near 10^18, two factors of 10^9
    (10**9 + 7, 10**9 + 7),
    (2, 3, 10**9 + 21, 10**9 + 33),
    (6000307, 12000613, 18000919),         # Chernick Carmichael number, k = 1000051
])
def test_factorize_products_of_known_primes(primes):
    assert all(_trial_is_prime(p) for p in set(primes))
    assert factorize(prod(primes)) == dict(Counter(primes))


def test_rho_backtracks_when_a_block_gcd_is_n(monkeypatch):
    seen = []

    def recording_gcd(a, b):
        g = gcd(a, b)
        seen.append(g == b > 1)
        return g

    monkeypatch.setattr(numutil_module, "gcd", recording_gcd)
    for p, k in ((65537, 2), (65537, 3), (65557, 2)):
        seen.clear()
        assert factorize(p**k) == {p: k}
        assert any(seen), (p, k)


# Odd semiprimes whose smaller factor is the prime next to 2^e, e = 17..31.
_RHO_SEMIPRIMES = [
    next(p for p in range(1 << e | 1, 1 << e + 1, 2) if _trial_is_prime(p))
    * (10**12 + 39)
    for e in range(17, 32)
]


@pytest.mark.parametrize("n", _RHO_SEMIPRIMES + [65537**2, 65537**3, 65557**2])
def test_rho_four_steps_per_reduction_finds_the_factor_of_one_per_step(n):
    assert numutil_module._rho_factor(n) == rho_factor_by_step(n)


def test_rho_finds_the_same_factor_in_walks_shorter_than_four_steps(monkeypatch):
    # a factor the first or second block's gcd (r = 1 or 2 steps) finds
    calls = []

    def counting_gcd(a, b):
        calls.append(b)
        return gcd(a, b)

    monkeypatch.setattr(numutil_module, "gcd", counting_gcd)
    found_at = {1: [], 2: []}
    for n in range(9, 3000, 2):
        if _trial_is_prime(n):
            continue
        calls.clear()
        d = numutil_module._rho_factor(n)
        assert d == rho_factor_by_step(n), n
        if len(calls) in found_at and d != n:
            found_at[len(calls)].append(n)
    assert found_at[1] and found_at[2]


def _next_prime(n):
    while not _trial_is_prime(n):
        n += 1
    return n


_above_2_16 = st.integers(min_value=1 << 16, max_value=2 * 10**6)


@given(st.integers(min_value=1, max_value=10**4), _above_2_16, _above_2_16,
       st.integers(min_value=1, max_value=2))
@settings(max_examples=60, deadline=None)
def test_factorize_rho_property(s, a, b, k):
    p, q = _next_prime(a), _next_prime(b)
    expect = Counter(factor_by_trial(s))
    expect[p] += k
    expect[q] += 1
    assert factorize(s * p**k * q) == dict(expect)


@given(st.integers(min_value=1, max_value=10**9))
@settings(max_examples=200)
def test_factorize_reconstructs_and_is_prime_keyed(n):
    f = factorize(n)
    assert prod(p**e for p, e in f.items()) == n
    assert all(is_prime(p) for p in f)


def _least_prime_oracle(n, m, r):
    return min((p for p in factorize(n) if p % m == r), default=None)


RESIDUES = [(3, 2), (3, 1), (4, 3), (6, 5), (1, 0), (8, 7)]


@pytest.mark.parametrize("m,r", RESIDUES)
def test_least_prime_factor_small_exhaustive(m, r):
    for n in range(1, 3000):
        assert least_prime_factor(n, m, r) == _least_prime_oracle(n, m, r), n


@pytest.mark.parametrize("n,expect", [
    (7 * 13 * 65537 * 65543, 65537),      # none below 2^16, composite cofactor
    (7 * 13 * 65543 * 65537**2, 65537),
    (19 * 65539 * 65543, 65543),          # the smaller 65539 is 1 mod 3
    (7 * 13 * 65539 * 65551, None),       # every prime is 1 mod 3
    (65851 * 131701 * 197551, None),      # a Carmichael number, all 1 mod 3
    (5 * 7 * 65537**2, 5),                # a small prime ends the search
    ((10**9 + 7) * (10**9 + 9), 10**9 + 7),
    (4295098349, 4295098349),             # a prime above 2^32
    (1, None),
    (2, 2),
])
def test_least_prime_factor_past_the_small_primes(n, expect):
    assert least_prime_factor(n, 3, 2) == expect == _least_prime_oracle(n, 3, 2)


@given(st.integers(min_value=1, max_value=10**4), _above_2_16, _above_2_16,
       st.sampled_from(RESIDUES))
@settings(max_examples=60, deadline=None)
def test_least_prime_factor_property(s, a, b, residue):
    n = s * _next_prime(a) * _next_prime(b)
    m, r = residue
    expect = min((p for p in factor_by_trial(s) | {_next_prime(a): 1, _next_prime(b): 1}
                  if p % m == r), default=None)
    assert least_prime_factor(n, m, r) == expect == _least_prime_oracle(n, m, r)


# Where trial division hands over: the largest prime below 2^16 and the two
# above it, alone and multiplied by a small prime; around 2^32, where a
# cofactor stops being 1 or a prime; 65537^2, the least n past the sieve.
_HANDOVER = (
    [s * p * q for s in (1, 6) for i, p in enumerate((65521, 65537, 65539)) for q in (65521, 65537, 65539)[i:]]
    + [(1 << 32) + k for k in range(-16, 17)]
    + [65537**2, 3 * 65537**2]
)


@pytest.mark.parametrize("n", _HANDOVER)
def test_factorize_and_least_prime_factor_at_the_trial_division_handover(n):
    expect = factor_by_trial(n)
    assert factorize(n) == expect
    misses = 0
    for m, r in RESIDUES + [(4, 1), (12, 11), (65536, 65535)]:
        least = min((p for p in expect if p % m == r), default=None)
        assert least_prime_factor(n, m, r) == least, (m, r)
        misses += least is None
    assert misses  # a class with no prime of n


def test_least_prime_factor_rejects_n_below_1():
    with pytest.raises(ValueError):
        least_prime_factor(0, 3, 2)


def test_divisors_examples():
    assert divisors_ascending(1) == [1]
    assert divisors_ascending(28) == [1, 2, 4, 7, 14, 28]
    assert divisors_ascending(97) == [1, 97]
    with pytest.raises(ValueError):
        divisors_ascending(0)


def test_divisors_small_exhaustive():
    for n in range(1, 500):
        assert divisors_ascending(n) == _trial_divisors(n), n


def test_divisors_of_known_factorization():
    # n >= 2^32 with a large prime factor, checked against the
    # multiplicative structure of its factorization
    n = 2**4 * 3**2 * 5 * 7 * 1_000_003
    assert n >= 1 << 32
    divs = divisors_ascending(n)
    assert divs == sorted(divs)
    assert divs[0] == 1 and divs[-1] == n
    assert all(n % d == 0 for d in divs)
    assert len(divs) == 5 * 3 * 2 * 2 * 2


@given(st.integers(min_value=1, max_value=10**6))
@settings(max_examples=200)
def test_divisors_sorted_and_closed(n):
    divs = divisors_ascending(n)
    assert divs == sorted(set(divs))
    assert all(n % d == 0 for d in divs)
    assert len(divs) == prod(e + 1 for e in factorize(n).values())


@given(st.integers(min_value=1, max_value=10**8))
@settings(max_examples=100)
def test_divisors_match_trial_division(n):
    assert divisors_ascending(n) == divisors_by_trial(n)


def _assert_window_matches(lo, hi, ns):
    window = FactorWindow(lo, hi)
    for n in ns:
        factors = window.factorize(n)
        assert factors == factorize(n), (lo, hi, n)
        assert sorted(divisors_of(factors)) == divisors_ascending(n), (lo, hi, n)


@pytest.mark.parametrize("lo,hi", [
    (1, 3000),
    (10**6 - 1500, 10**6 + 1500),
    (10**9 - 700, 10**9 + 700),
    ((1 << 32) - 400, (1 << 32) + 400),       # straddles 2^32
    (65537**2 - 300, 65537**2 + 300),         # straddles the sieve's reach
])
def test_factor_window_matches_divisors_ascending(lo, hi):
    # every n inside, and a few just outside on either side
    _assert_window_matches(lo, hi, range(max(1, lo - 3), hi + 4))


def test_factor_window_edge_values():
    # squares of primes near sqrt(hi), prime powers, and n = 1
    p = 31_607  # the largest prime <= isqrt(10^9); each window's isqrt(hi) is p
    assert is_prime(p) and p * p <= 10**9
    squares = [p * p, 31_601**2, 65_521**2, 65_537**2]
    for n in squares:
        _assert_window_matches(n - 10, n + 10, [n - 1, n, n + 1])
    _assert_window_matches(1, 1, [1, 2])
    powers = [2**29, 3**18, 5**12, 7**10, 2**10 * 3**10, 65_521**2 - 1]
    for n in powers:
        _assert_window_matches(n - 5, n + 5, [n])
    assert FactorWindow(999, 1001).factorize(1000) == {2: 3, 5: 3}
    with pytest.raises(ValueError):
        FactorWindow(0, 10)
    with pytest.raises(ValueError):
        FactorWindow(10, 9)


@given(st.integers(min_value=1, max_value=5 * 10**9), st.integers(min_value=0, max_value=300),
       st.data())
@settings(max_examples=60, deadline=None)
def test_factor_window_property(lo, width, data):
    hi = lo + width
    window = FactorWindow(lo, hi)
    ns = data.draw(st.lists(st.integers(min_value=max(1, lo - 2), max_value=hi + 2),
                            min_size=1, max_size=8))
    for n in ns:
        assert window.factorize(n) == factorize(n)


def _sieve_by_ranges(lo, hi):
    """Per-n prime lists of a window, every prime sieved with a range."""
    hi = min(hi, 65537**2 - 1)
    size = max(0, hi - lo + 1)
    primes = [[] for _ in range(size)]
    for p in range(2, isqrt(hi) + 1):
        if is_prime(p):
            for i in range((-lo) % p, size, p):
                primes[i].append(p)
    return primes


@pytest.mark.parametrize("lo,hi", [
    (1, 1),
    (1, 3000),
    (10**6 - 40, 10**6 + 40),
    (1_000_000_003, 1_000_000_003 + 963),  # a scan-hard window: 964 values, 3401 primes
    (10**9, 10**9 + 5),                     # shorter than every prime but 2, 3 and 5
    (65537**2 - 300, 65537**2 + 300),       # straddles the sieve's reach
])
def test_window_sieve_matches_the_range_sieve(lo, hi):
    window = FactorWindow(lo, hi)
    assert window._primes == _sieve_by_ranges(lo, hi)
    root = isqrt(min(hi, 65537**2 - 1))
    assert window_prime_count(hi) == sum(map(is_prime, range(root + 1)))


@given(st.integers(min_value=1, max_value=5 * 10**9), st.integers(min_value=0, max_value=300))
@settings(max_examples=40, deadline=None)
def test_window_factorize_matches_factorize(lo, width):
    window = FactorWindow(lo, lo + width)
    for n in range(max(1, lo - 2), lo + width + 3):
        assert window.factorize(n) == factorize(n)


@pytest.mark.parametrize("lo,hi", [
    (1, 3000),
    (10**9 - 1500, 10**9 + 1500),
    (65537**2 - 1500, 65537**2 + 1500),  # n above SIEVE_MAX lie outside the capped window
])
def test_window_least_prime_factor_matches_the_module_function(lo, hi):
    window = FactorWindow(lo, hi)
    cofactors = 0  # n whose least prime 2 mod 3 is the cofactor above isqrt(n)
    for n in range(max(1, lo - 3), hi + 4):
        for m, r in RESIDUES:
            assert window.least_prime_factor(n, m, r) == least_prime_factor(n, m, r), (n, m, r)
        p = window.least_prime_factor(n, 3, 2)
        cofactors += window.lo <= n <= window.hi and p is not None and p * p > n
    assert cofactors > 100


def _qs(start, count):
    """`count` multiples of 6 from start, aligned down to one, as a prime scan slices them."""
    start = max(6, start - start % 6)
    return range(start, start + 6 * count, 6)


def _prime_qs(qs):
    return [q for q in qs if is_prime(4 * q + 1)]


def _targets_by_testing(qs):
    """prime_targets by testing each 4q+1 and factoring each q+1."""
    return [(q, least_prime_factor(q + 1, 3, 2)) for q in _prime_qs(qs)]


@pytest.mark.parametrize("values", [
    _qs(6, 3000),                             # 4q+1 = 73 and 97 (q = 18, 24) are sieving primes
    _qs(600_000 - 6000, 2000),
    _qs(10**9, 3000),
    _qs(65537**2 // 4 - 9000, 3000),          # straddles 4q+1 = 65537^2
    _qs(65537**2 - 9000, 3000),               # straddles q+1 = 65537^2
    _qs(12 * 10**9, 2000),
    _qs(6, 1),                                # 4q+1 = 25, struck by its one sieving prime
])
def test_primes_in_matches_is_prime(values):
    assert [q for q, _ in prime_targets(values)] == _prime_qs(values)


@pytest.mark.parametrize("a", [1, 2, 3, 5, 25, 73, 97, 65537**2, 65537**2 + 24, 4 * 10**9 + 1])
def test_primes_in_one_value(a):
    """The one-q range of the q with 4q+1 = a, where a has that form with q a
    positive multiple of 6; any other a gives a range prime_targets refuses."""
    q = (a - 1) // 4
    qs = range(q, q + 6, 6)
    if a % 24 == 1 and q >= 6:
        assert prime_targets(qs) == _targets_by_testing(qs)
    else:
        with pytest.raises(ValueError):
            prime_targets(qs)


def test_primes_in_rejects_bad_ranges():
    assert prime_targets(range(6, 6, 6)) == prime_targets(range(60, 6, 6)) == []
    for qs in (range(6, 600, 1), range(7, 600, 6), range(3, 600, 6), range(6, 600, 12),
               range(0, 600, 6), range(600, 0, -6), range(7, 7, 6)):
        with pytest.raises(ValueError):
            prime_targets(qs)


# the sieve's regimes: from 6, where 4q+1 can itself be a sieving prime; near
# 10^9; straddling 4q+1 = 65537^2 and q+1 = 65537^2, where is_prime confirms
# the survivors and least_prime_factor the empty entries; near 1.2*10^10
_REGIMES = [6, 10**9, 65537**2 // 4, 65537**2, 12 * 10**9]


@given(st.sampled_from(_REGIMES), st.integers(-2000, 2000), st.integers(1, 2000))
@settings(max_examples=60, deadline=None)
def test_primes_in_property(regime, offset, count):
    qs = _qs(regime + 6 * offset, count)
    assert [q for q, _ in prime_targets(qs)] == _prime_qs(qs)


# q+1 over q = 6c, the values the x = 1 table reads; the ids are the case names
# this test has carried since it sieved any residue class over any progression;
# prime_targets sieves only the primes 2 mod 3
@pytest.mark.parametrize("values,m,r", [
    (range(7, 70_000, 6), 3, 2),
    (range(600_001, 660_000, 6), 3, 2),
    (range(10**9 - 3, 10**9 + 30_001, 6), 3, 2),  # most primes hit at most once
    (range(65537**2 - 6000, 65537**2 + 6000, 6), 3, 2),
], ids=[f"values{i}-3-2" for i in range(1, 5)])
def test_least_small_primes_matches_factoring(values, m, r):
    qs = range(values.start - 1, values.stop - 1, 6)
    # by testing each 4q+1 = 4v-3 and factoring each q+1 = v whole
    expect = [(v - 1, _least_prime_oracle(v, m, r)) for v in values if is_prime(4 * v - 3)]
    assert prime_targets(qs) == expect


def test_least_small_primes_edge_ranges():
    # q+1 = p^2 for the top q of a range: p = isqrt(q_last + 1) still sieves
    for p in (5, 65423):
        q = p * p - 1
        assert is_prime(4 * q + 1) and p % 3 == 2
        assert prime_targets(range(q, q + 6, 6)) == [(q, p)]
    assert prime_targets(range(18, 24, 6)) == [(18, None)]  # q+1 = 19 has no prime 2 mod 3


@given(st.sampled_from(_REGIMES), st.integers(-400, 400), st.integers(1, 400))
@settings(max_examples=60, deadline=None)
def test_least_small_primes_property(regime, offset, count):
    qs = _qs(regime + 6 * offset, count)
    assert prime_targets(qs) == _targets_by_testing(qs)
