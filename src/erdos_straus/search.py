"""Staged witness search: which family covers a given q, and how.

The pipeline mirrors the original notebook programs: a small cube probe
over {1..3}^3 (one lookup in a table of the cube's values), then a wide
sweep over x up to (1 + sqrt(4q+1))/2 trying the first three families in
order, then the x(x-1) check.  The first hit, in
that fixed order, is the classification that drives all tallies.  The
sweep's first step, x = 1, has a closed form that settles about 90% of q
from the residue of q and the prime factors of q+1 alone.

`legacy_coverage_scan` additionally reproduces a quirk of the original
coverage program: its cube stage evaluated the family equations with a
leftover numeric x from the previous q's wide sweep (the loop variable was
global), so after the first wide dispatch the "cube" degrades to a probe
over (y, z) at that single stale x, which is `small_cube_search` with x
fixed.  The published tallies and CSVs include the handful of small-q
classifications that quirk produces, so coverage scans emulate it; the
effect in an ascending scan is provably confined to q <= 35*(sqrt(q)+2),
i.e. nothing beyond q ~ 1400 can ever be touched.

Both searches have one shape: the x = 1 closed form, then one routine from
x = 2 on, which is all a slice solver calls for the q its own x = 1 rows
leave.  `wide_search` is x = 1, then `sweep_from_x2`, which answers an
oblong q = X(X-1) (4q+1 a square, the sweep's far tail, where it would run
to x = X) in closed form from the divisors of 4q+1.  `prime_witness_search`,
the prime program's staged second-family search, is x = 1, then
`prime_search_from_x2`: each later stage a least-divisor lookup, and at
y = 1 and z = 1, where that divisor is a prime, a `least_prime_factor`
lookup, as at x = 1.  Every search returns a `Witness` (P2 from the prime
searches) or None, each built by `_checked_witness`, the searches' one check.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt
from typing import Iterable, Iterator, NamedTuple, Optional

from .families import P1, P2, P3, P4, PolyId, WitnessTriple, check_value, eval_poly
from .numutil import FactorWindow, divisors_of, factorize, least_prime_factor


class Witness(NamedTuple):
    q: int
    poly: PolyId
    triple: WitnessTriple


# The cube probe covers x, y, z in [1, CUBE_BOUND], as the original runs did.
CUBE_BOUND = 3

# Above this q no cube probe (proper or stale-x) can match in an ascending
# scan: a cube value at probe x0 is at most 35*x0, and x0 <= sqrt(q) + 2.
LEGACY_PROBE_LIMIT = 2048


def _checked_witness(q: int, poly: PolyId, t: WitnessTriple) -> Witness:
    check_value(poly, t, q)
    return tuple.__new__(Witness, (q, poly, t))  # skips Witness's Python-level __new__, 40% of its cost


def _cube_table(xs: Iterable[int]) -> dict[int, tuple[PolyId, WitnessTriple]]:
    """First family and point of xs x [1, CUBE_BOUND]^2 reaching each value,
    in the probe's order: family, then x, then y, then z."""
    side = range(1, CUBE_BOUND + 1)
    table: dict[int, tuple[PolyId, WitnessTriple]] = {}
    for poly in (P1, P2, P3):
        for x in xs:
            for y in side:
                for z in side:
                    t = WitnessTriple(x, y, z)
                    table.setdefault(eval_poly(poly, t), (poly, t))
    return table


_CUBE = _cube_table(range(1, CUBE_BOUND + 1))


@lru_cache(maxsize=64)  # the legacy prefix scan probes a few dozen distinct x
def _square_table(x: int) -> dict[int, tuple[PolyId, WitnessTriple]]:
    return _cube_table((x,))


def small_cube_search(q: int, x: Optional[int] = None) -> Optional[Witness]:
    """Family-major probe of P1..P3 over the cube [1, CUBE_BOUND]^3.

    The whole cube is one lookup in a table built at import.  With `x`
    given, only the (y, z) square at that x is probed, in the same order:
    family, then y, then z; its table is built on first use and cached.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    hit = (_CUBE if x is None else _square_table(x)).get(q)
    return None if hit is None else _checked_witness(q, *hit)


def solve_p1_given_x(q: int, x: int) -> Optional[tuple[int, int]]:
    """Smallest-y solution of P1(x, y, z) = q for fixed x, if any.

    P1 = q rearranges to (4x-1) * yz = q + x, so a solution exists iff
    4x-1 divides q+x with positive quotient; (1, quotient) is returned.
    """
    if q < 1 or x < 1:
        raise ValueError("q and x must be >= 1")
    m = 4 * x - 1
    n = q + x
    if n % m == 0 and n >= m:
        return 1, n // m
    return None


def solve_p2_given_x(q: int, x: int) -> Optional[tuple[int, int]]:
    """First solution of P2(x, y, z) = q for fixed x, if any.

    P2 = q rearranges to z * M = q + x with M = y(4x-1) - x, so M runs over
    divisors of q+x congruent to 3x-1 mod 4x-1, all of them at least 3x-1
    (y >= 1).  The smallest such divisor wins.
    """
    if q < 1 or x < 1:
        raise ValueError("q and x must be >= 1")
    d = _least_divisor(q + x, 4 * x - 1, 3 * x - 1)
    return None if d is None else ((d + x) // (4 * x - 1), (q + x) // d)


# Class members _least_divisor tries by division before it factors n.  Over the
# primes benchmark's slices (2-vCPU x86-64, Python 3.11) 12 and 20 ran alike, 2-6%
# faster than 6 and 32; over scan-hard's, all four ran within 2% of each other.
_CLASS_SCAN = 12


def _least_divisor(n: int, m: int, r: int, cm: int = 1, cr: int = 0,
                   window: Optional[FactorWindow] = None) -> Optional[int]:
    """Smallest divisor d of n with d % m == r and (n // d) % cm == cr, 0 < r < m.

    The class's _CLASS_SCAN least members, up to n, are tried in ascending
    order, so the first to divide n with a qualifying cofactor is the answer;
    if they reach n, there is none.  Else every qualifying divisor is at least
    r + _CLASS_SCAN*m, so the least multiplied out of n's factorization
    (`window`'s if given) is exact; it is kept in one pass over the divisors.
    """
    for d in range(r, min(n, r + (_CLASS_SCAN - 1) * m) + 1, m):
        if n % d == 0 and n // d % cm == cr:
            return d
    if n < r + _CLASS_SCAN * m:
        return None
    least = None
    for d in divisors_of(factorize(n) if window is None else window.factorize(n)):
        if d % m == r and (least is None or d < least) and n // d % cm == cr:
            least = d
    return least


def solve_p3_given_x(q: int, x: int) -> Optional[int]:
    """Solution y of P3(x, y) = q for fixed x, if any.

    P3 = q rearranges to y * (8x-6) = q + 3x - 2.
    """
    if q < 1 or x < 1:
        raise ValueError("q and x must be >= 1")
    m = 8 * x - 6
    n = q + 3 * x - 2
    if n % m == 0 and n >= m:
        return n // m
    return None


def check_p4(q: int) -> Optional[int]:
    """x with x(x-1) = q, if q is a product of consecutive integers."""
    if q < 1:
        raise ValueError("q must be >= 1")
    x = x_sweep_bound(q)
    return x if x * (x - 1) == q else None


def x_sweep_bound(q: int) -> int:
    """Upper end of the wide sweep: floor((1 + sqrt(4q+1)) / 2), exactly."""
    return (1 + isqrt(4 * q + 1)) // 2


def x1_yz(n: int, p: int) -> tuple[int, int]:
    """(y, z) at x = 1 from a prime p | n = q+1: P1's for p = 3, else P2's."""
    return (p + 1) // 3, n // p


def wide_search(q: int) -> Optional[Witness]:
    """Stages B and C only: the wide x sweep, then the x(x-1) check; the whole
    classification of q > LEGACY_PROBE_LIMIT in an ascending scan.

    x = 1 is settled in closed form.  With n = q+1, P1 hits for 3 | n, else
    P2 at the least prime p % 3 == 2 dividing n (2 for even n), as each divisor
    d % 3 == 2 of n has a prime factor p % 3 == 2 <= d; P3 needs 2 | n, where
    P2 hits first.  The q it leaves run `sweep_from_x2`.  `batch._wide_slice`
    applies the same rule in its loop, with no call per q."""
    if q < 1:
        raise ValueError("q must be >= 1")
    n = q + 1
    p = 3 if n % 3 == 0 else least_prime_factor(n, 3, 2)
    if p is None:
        return sweep_from_x2(q)
    return _checked_witness(q, P1 if p == 3 else P2, WitnessTriple(1, *x1_yz(n, p)))


def sweep_from_x2(q: int, window: Optional[FactorWindow] = None) -> Optional[Witness]:
    """wide_search for a q that x = 1 leaves: the sweep over 2 <= x <=
    x_sweep_bound(q), P1 then P2 then P3 at each x, then the x(x-1) check.
    An oblong q, 4q+1 = s^2, takes that answer from the divisors of s^2
    (`_oblong_sweep`), with no x stepped; no other q passes the x(x-1) check.
    Any other q steps x, each solved inline as `solve_p*_given_x` solves it
    (n > 0, so m | n gives n >= m)."""
    s = isqrt(4 * q + 1)
    if s * s == 4 * q + 1:
        return _oblong_sweep(q, s)
    for x in range(2, x_sweep_bound(q) + 1):
        m, n = 4 * x - 1, q + x
        if n % m == 0:
            return _checked_witness(q, P1, WitnessTriple(x, 1, n // m))
        d = _least_divisor(n, m, 3 * x - 1, window=window)
        if d is not None:
            return _checked_witness(q, P2, WitnessTriple(x, (d + x) // m, n // d))
        if (q + 3 * x - 2) % (8 * x - 6) == 0:
            return _checked_witness(q, P3, WitnessTriple(x, (q + 3 * x - 2) // (8 * x - 6), 1))
    return None


def _oblong_sweep(q: int, s: int) -> Witness:
    """`sweep_from_x2` for q = X(X-1), whose 4q+1 = s^2 is a square.

    4(q+x) = s^2 + (4x-1), so P1 hits at x = (d+1)/4 just when d = 4x-1 >= 7
    divides s^2.  P2 never hits, as 4*P2 + 1 is never a square (README, "What
    P1-P3 cannot cover").  P3 hits at x just when s^2 = (4x-3)(8y-3), and as
    s^2 is 1 mod 8, just when d = 4x-3 is a divisor 5 mod 8 of s^2, x =
    (d+3)/4.  The sweep's answer is the least such x up to x_sweep_bound(q) =
    X = (s+1)/2, P1 first on a tie, with the triple the sweep builds; else P4
    at x = X, which the x(x-1) check always finds.
    """
    best = ((s + 1) // 2, P4)  # a tie at x = X goes to P1 or P3, as in the sweep
    for d in divisors_of({p: 2 * e for p, e in factorize(s).items()}):
        if d % 4 == 3 and d > 3:
            best = min(best, ((d + 1) // 4, P1))
        elif d % 8 == 5:
            best = min(best, ((d + 3) // 4, P3))
    x, poly = best
    if poly is P1:
        return _checked_witness(q, P1, WitnessTriple(x, 1, (q + x) // (4 * x - 1)))
    if poly is P3:
        return _checked_witness(q, P3, WitnessTriple(x, (q + 3 * x - 2) // (8 * x - 6), 1))
    return _checked_witness(q, P4, WitnessTriple(x, 1, 1))


def staged_search(q: int) -> Optional[Witness]:
    """Full staged pipeline: cube probe, wide sweep, x(x-1) check."""
    hit = small_cube_search(q)
    if hit is not None:
        return hit
    return wide_search(q)


def legacy_coverage_scan(qs: Iterable[int]) -> Iterator[tuple[int, Optional[Witness]]]:
    """Classify a q sequence with the original program's scan semantics.

    The proper cube runs until the first wide dispatch; from then on the
    cube stage probes (y, z) at the stale x left by the last wide sweep.
    Every q, in any order, runs probe, sweep and stale update as the loop of
    tests/oracles.legacy_scan_by_loop does, and yields what that loop yields.
    """
    stale: Optional[int] = None
    for q in qs:
        hit = small_cube_search(q, stale)
        if hit is None:
            hit = wide_search(q)
            # the x the sweep stopped at
            stale = x_sweep_bound(q) + 1 if hit is None else hit.triple.x
        yield q, hit


def prime_witness_search(q: int) -> Optional[Witness]:
    """P2 witness (x, y, z), (4x-1)(4yz-1) - 4xz = 4q+1, staged.

    Callers gate on 4q+1 being prime; the search itself only needs q >= 1.
    Stage order matches the original prime program: x in {1,2,3}, then
    y in {1,2,3} and z in {1,2,3}, each taking its smallest x <= xmax from
    the least divisor in a residue class, then x in [4, xmax].  The
    identity is the second family's 4*P2 + 1, so the x stages are
    `solve_p2_given_x`, and every witness is a checked P2 `Witness`.  x = 1
    is the P2 half of `wide_search`'s closed form, at p =
    least_prime_factor(q + 1, 3, 2); the q it leaves run `prime_search_from_x2`.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    p = least_prime_factor(q + 1, 3, 2)
    return prime_search_from_x2(q) if p is None else _checked_witness(q, P2, WitnessTriple(1, *x1_yz(q + 1, p)))


def prime_search_from_x2(q: int) -> Optional[Witness]:
    """prime_witness_search for a q that x = 1 leaves: the prime program's
    stages after x = 1, in its order, each P2 `Witness` checked as
    `sweep_from_x2` checks its own.  A prime slice calls it on each target
    whose q+1 `numutil.prime_targets` finds no prime 2 mod 3 for."""
    for x in (2, 3):
        yz = solve_p2_given_x(q, x)
        if yz is not None:
            return _checked_witness(q, P2, WitnessTriple(x, *yz))
    a = 4 * q + 1
    xmax = x_sweep_bound(q)
    # y: with k = 4y-1, E = (4x-1)k - 1 divides a+4x-1 iff it divides ka+1, as
    # k(a+4x-1) = ka+1 + E and gcd(k, E) = 1; E is 3k-1 mod 4k and grows with x.
    # At y = 1, E = 4(3x-1) divides 3a+1 = 4(3q+1) iff 3x-1 divides 3q+1, so
    # 3x-1 is the least prime p = 2 mod 3 of 3q+1, by the argument of x = 1
    # in wide_search.
    p = least_prime_factor(3 * q + 1, 3, 2)
    if p is not None and (p + 1) // 3 <= xmax:
        return _checked_witness(q, P2, WitnessTriple((p + 1) // 3, 1, (q + (p + 1) // 3) // p))
    for y in (2, 3):
        k = 4 * y - 1
        e = _least_divisor(k * a + 1, 4 * k, 3 * k - 1)
        if e is not None and (e + k + 1) // (4 * k) <= xmax:
            x = (e + k + 1) // (4 * k)
            return _checked_witness(q, P2, WitnessTriple(x, y, (a + 4 * x - 1) // e))
    # z: with f = 4x-1, 4zf divides a-1+4x(z+1) = (a+z) + f(z+1) iff f divides
    # a+z and 4z divides (a+z)/f + z+1.  At z = 1, the odd f divides a+1 =
    # 2(2q+1) iff it divides 2q+1, and then (a+1)/f is 2 mod 4, so f is the
    # least prime 3 mod 4 of 2q+1: each divisor 3 mod 4 has such a prime factor.
    f = least_prime_factor(2 * q + 1, 4, 3)
    if f is not None and (f + 1) // 4 <= xmax:
        return _checked_witness(q, P2, WitnessTriple((f + 1) // 4, ((a + 1) // f + 2) // 4, 1))
    for z in (2, 3):
        f = _least_divisor(a + z, 4, 3, 4 * z, -(z + 1) % (4 * z))
        if f is not None and (f + 1) // 4 <= xmax:
            return _checked_witness(q, P2, WitnessTriple((f + 1) // 4, ((a + z) // f + z + 1) // (4 * z), z))
    for x in range(4, xmax + 1):
        yz = solve_p2_given_x(q, x)
        if yz is not None:
            return _checked_witness(q, P2, WitnessTriple(x, *yz))
    return None
