"""Independent brute-force oracles the test suite checks the library against.

These deliberately avoid the library's divisibility shortcuts: family
equations are checked by direct evaluation over exhaustively enumerated
(y, z), and the unit-fraction identity by exact rational summation.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, prod
from typing import NamedTuple, Optional

from erdos_straus.families import PolyId, WitnessTriple, eval_poly


def rational_identity_holds(a: int, triple) -> bool:
    b, c, d = triple
    return Fraction(1, b) + Fraction(1, c) + Fraction(1, d) == Fraction(4, a)


def naive_cube(q: int, bound: int = 3):
    """(family, point) of the first cube point reaching q, family-major."""
    for poly in (PolyId.P1, PolyId.P2, PolyId.P3):
        for x in range(1, bound + 1):
            for y in range(1, bound + 1):
                for z in range(1, bound + 1):
                    if eval_poly(poly, WitnessTriple(x, y, z)) == q:
                        return poly, WitnessTriple(x, y, z)
    return None


def stale_square_by_loop(q: int, x: int):
    """The stale-x probe by direct evaluation: the first witness of the
    (y, z) square at x reaching q, family, then y, then z."""
    from erdos_straus.search import Witness

    for poly in (PolyId.P1, PolyId.P2, PolyId.P3):
        for y in range(1, 4):
            for z in range(1, 4):
                if eval_poly(poly, WitnessTriple(x, y, z)) == q:
                    return Witness(q, poly, WitnessTriple(x, y, z))
    return None


def legacy_scan_by_loop(qs):
    """The original coverage program's scan with the stale-x probe by loop,
    run for every q: the proper cube until the first wide sweep, then the
    square at the x that sweep stopped at."""
    from erdos_straus.search import small_cube_search, wide_search, x_sweep_bound

    stale = None
    for q in qs:
        hit = small_cube_search(q) if stale is None else stale_square_by_loop(q, stale)
        if hit is None:
            hit = wide_search(q)
            stale = x_sweep_bound(q) + 1 if hit is None else hit.triple.x
        yield q, hit


def wide_slice_per_q(qs):
    """A coverage slice as wide_search classifies each of its q, x = 1
    included, one Witness per q: the slice solver's reference."""
    from erdos_straus.batch import _coverage_result
    from erdos_straus.search import wide_search

    return _coverage_result((q, wide_search(q)) for q in qs)


def prime_batches_by_loop(q_start: int, q_max: int, batch_size: int) -> list[range]:
    """A prime scan's value-width blocks of q = 6c as a loop over the aligned
    block starts, the way the scan driver first cut them: block k starts at
    q_start + k * batch_size aligned up to a multiple of 6 and ends one below
    the next block's start; starts that align to the same value make one block."""
    blocks = []
    lo = q_start + (-q_start) % 6
    while lo <= q_max:
        # the first unaligned block start above lo, then aligned
        nxt = q_start + ((lo - q_start) // batch_size + 1) * batch_size
        nxt += (-nxt) % 6
        blocks.append(range(lo, min(nxt, q_max + 1), 6))
        lo = nxt
    return blocks


def sweep_by_solvers(q: int):
    """search.sweep_from_x2 through the public per-family solvers: P1, then
    P2, then P3 at each 2 <= x <= x_sweep_bound(q), then the x(x-1) check."""
    from erdos_straus.search import (
        Witness, check_p4, solve_p1_given_x, solve_p2_given_x, solve_p3_given_x, x_sweep_bound,
    )

    for x in range(2, x_sweep_bound(q) + 1):
        yz = solve_p1_given_x(q, x)
        if yz is not None:
            return Witness(q, PolyId.P1, WitnessTriple(x, *yz))
        yz = solve_p2_given_x(q, x)
        if yz is not None:
            return Witness(q, PolyId.P2, WitnessTriple(x, *yz))
        y = solve_p3_given_x(q, x)
        if y is not None:
            return Witness(q, PolyId.P3, WitnessTriple(x, y, 1))
    x = check_p4(q)
    return None if x is None else Witness(q, PolyId.P4, WitnessTriple(x, 1, 1))


def p4_count_by_sieve(q_max: int) -> int:
    """How many q <= q_max need P4: the oblong q = X(X-1) whose s = 2X-1 has
    every prime factor 1 mod 8 (README, "What P1-P3 cannot cover").  4q+1 =
    s^2, so these are the odd 3 <= s <= isqrt(4 q_max + 1) that no prime
    other than 1 mod 8 divides, counted by striking the multiples of each
    such prime."""
    top = isqrt(4 * q_max + 1)
    composite, struck = bytearray(top + 1), bytearray(top + 1)
    for p in range(2, top + 1):
        if not composite[p]:
            composite[p * p :: p] = b"\1" * len(range(p * p, top + 1, p))
            if p % 8 != 1:
                struck[p::p] = b"\1" * len(range(p, top + 1, p))
    return sum(not struck[s] for s in range(3, top + 1, 2))


def is_four_form_survivor(q: int) -> bool:
    """Whether no factored identity settles q (README, "Which q the identities
    settle"), by factorize: every prime of 4q+1 is 1 mod 8, so P1 and P3 miss
    q (Lemma A); every prime of q+1 and of 3q+1 is 1 mod 3, and every prime of
    2q+1 is 1 mod 4, so P2 misses q at x = 1, y = 1 and z = 1 (Lemma B)."""
    from erdos_straus.numutil import factorize

    return (all(p % 8 == 1 for p in factorize(4 * q + 1))
            and all(p % 3 == 1 for p in factorize(q + 1))
            and all(p % 3 == 1 for p in factorize(3 * q + 1))
            and all(p % 4 == 1 for p in factorize(2 * q + 1)))


def four_form_survivors(q_max: int) -> list[int]:
    """The survivors q <= q_max: only multiples of 6, by the reduction, so
    only those are tried; for q = 6c the four forms are 24c+1, 6c+1, 18c+1
    and 12c+1."""
    return [q for q in range(6, q_max + 1, 6) if is_four_form_survivor(q)]


def _naive_xmax(q: int) -> int:
    # largest x with (2x-1)^2 <= 4q+1, found by counting up
    x = 1
    while (2 * (x + 1) - 1) ** 2 <= 4 * q + 1:
        x += 1
    return x


def _family_hits(poly: PolyId, q: int, x: int) -> bool:
    """Exhaustive (y, z) scan for poly(x, y, z) = q, direct evaluation only."""
    if poly is PolyId.P3:
        y = 1
        while True:
            v = eval_poly(PolyId.P3, WitnessTriple(x, y, 1))
            if v == q:
                return True
            if v > q:
                return False
            y += 1
    y = 1
    while eval_poly(poly, WitnessTriple(x, y, 1)) <= q:
        z = 1
        while True:
            v = eval_poly(poly, WitnessTriple(x, y, z))
            if v == q:
                return True
            if v > q:
                break
            z += 1
        y += 1
    return False


def naive_staged_classification(q: int, cube_bound: int = 3):
    """Family label assigned by the staged order, all loops exhaustive."""
    hit = naive_cube(q, cube_bound)
    if hit is not None:
        return hit[0]
    for x in range(1, _naive_xmax(q) + 1):
        for poly in (PolyId.P1, PolyId.P2, PolyId.P3):
            if _family_hits(poly, q, x):
                return poly
    x = 1
    while x * (x - 1) <= q:
        if x * (x - 1) == q:
            return PolyId.P4
        x += 1
    return None


def divisors_by_trial(n: int) -> list[int]:
    """Ascending divisors of n by trial division up to isqrt(n)."""
    small, large = [], []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
    return small + large[::-1]


def factor_by_trial(n: int) -> dict[int, int]:
    """{prime: exponent} of n >= 1 by trial division up to isqrt of what is
    left; slow unless n's second largest prime factor is small."""
    factors = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def divisors_ascending(n: int) -> list[int]:
    """All positive divisors of n in ascending order, built from the
    library's factorize(n) and divisors_of."""
    from erdos_straus.numutil import divisors_of, factorize

    if n < 1:
        raise ValueError("n must be >= 1")
    return sorted(divisors_of(factorize(n)))


def least_divisor_by_sorted_list(n: int, m: int, r: int, cm: int = 1, cr: int = 0):
    """Smallest divisor d of n with d % m == r and (n // d) % cm == cr: the
    first such d of the ascending divisor list."""
    for d in divisors_ascending(n):
        if d % m == r and n // d % cm == cr:
            return d
    return None


def p2_divisor_instance(a: int, x: int):
    """(y, z) with (4x-1)(4yz-1) - 4xz = a for fixed x, via divisors.

    The prime program's own parametrization of the second family: the
    identity rearranges to z * E = a + 4x - 1 with E = (4x-1)(4y-1) - 1, so
    E runs over divisors whose successor is a multiple of 4x-1 with quotient
    congruent to 3 mod 4.  The first such divisor wins.
    """
    n = a + 4 * x - 1
    m = 4 * x - 1
    for e in divisors_by_trial(n):
        if (e + 1) % m == 0:
            t = (e + 1) // m
            if t >= 3 and t % 4 == 3:
                return (t + 1) // 4, n // e
    return None


def prime_candidate_by_sweep(q: int):
    """The prime program's staged second-family search with its O(sqrt q)
    sweeps over x: x in {1,2,3} by divisors, then y in {1,2,3} and
    z in {1,2,3} by testing every x <= xmax, then x in [4, xmax]; the P2
    Witness of the first hit."""
    from erdos_straus.search import Witness, solve_p2_given_x, x_sweep_bound

    a = 4 * q + 1
    xmax = x_sweep_bound(q)
    for x in (1, 2, 3):
        yz = solve_p2_given_x(q, x)
        if yz is not None:
            return Witness(q, PolyId.P2, WitnessTriple(x, *yz))
    for y in (1, 2, 3):
        for x in range(1, xmax + 1):
            e = (4 * x - 1) * (4 * y - 1) - 1
            n = a + 4 * x - 1
            if n % e == 0:
                return Witness(q, PolyId.P2, WitnessTriple(x, y, n // e))
    for z in (1, 2, 3):
        for x in range(1, xmax + 1):
            den = 4 * z * (4 * x - 1)
            num = a - 1 + 4 * x + 4 * x * z
            if num % den == 0:
                return Witness(q, PolyId.P2, WitnessTriple(x, num // den, z))
    for x in range(4, xmax + 1):
        yz = solve_p2_given_x(q, x)
        if yz is not None:
            return Witness(q, PolyId.P2, WitnessTriple(x, *yz))
    return None


class Row(NamedTuple):
    """A result row cell by cell: None is an empty y or z cell, and a prime
    row has no label (pi None) and no pi cell."""

    q: int
    x: int
    y: Optional[int] = None
    z: Optional[int] = None
    pi: Optional[str] = None


def rows_text(rows) -> list[str]:
    """Result rows as newline-terminated CSV lines, written out independently
    of the library: unused coordinates are empty cells, prime rows (no
    label) have no pi cell."""

    def cell(v):
        return "" if v is None else str(v)

    lines = []
    for r in rows:
        cells = [str(r.q), str(r.x), cell(r.y), cell(r.z)] + ([] if r.pi is None else [r.pi])
        lines.append(",".join(cells) + "\n")
    return lines


def witness_to_row(w) -> Row:
    """A coverage witness as the row the files hold: unused coordinates empty."""
    if w.poly is PolyId.P4:
        return Row(w.q, w.triple.x, None, None, "p4")
    if w.poly is PolyId.P3:
        return Row(w.q, w.triple.x, w.triple.y, None, "p3")
    return Row(w.q, w.triple.x, w.triple.y, w.triple.z, w.poly.label)


def strong_probable_prime(n: int, a: int) -> bool:
    """True iff odd n > 2 passes the Miller-Rabin round to base a: with
    n - 1 = d 2^r, d odd, a^d = 1 or a^(d 2^i) = -1 (mod n) for some i < r."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def rho_factor_by_step(n: int) -> int:
    """Brent's rho as numutil._rho_factor ran it with one reduction mod n per
    step: the same walk, blocks of 128 steps per gcd and backtrack."""
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        y, r, prod_, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    prod_ = prod_ * (x - y) % n
                g = gcd(prod_, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed to factor {n}")


def prime_by_certificate(n: int) -> bool:
    """Primality of n >= 2 decided without trusting the library's answer.

    Below 2^32 by trial division.  Above, a composite is shown by the
    nontrivial factorization factorize(n) finds, checked by multiplying it
    out; a prime by a Lucas certificate: a base a < 100 of order n - 1,
    over the prime factors of n - 1, each certified in turn.  A number
    factorize calls prime but no base certifies is taken as composite, so a
    wrong answer from is_prime shows as a disagreement, never as a pass.
    """
    from erdos_straus.numutil import factorize

    if n < 1 << 32:
        return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))
    factors = factorize(n)
    if factors != {n: 1}:
        assert prod(p**e for p, e in factors.items()) == n
        return False
    order = factorize(n - 1)
    assert prod(p**e for p, e in order.items()) == n - 1
    if not all(prime_by_certificate(p) for p in order):
        return False
    return any(
        pow(a, n - 1, n) == 1 and all(pow(a, (n - 1) // p, n) != 1 for p in order)
        for a in range(2, 100)
    )
