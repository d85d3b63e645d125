"""Independent brute-force oracles the test suite checks the library against.

These deliberately avoid the library's divisibility shortcuts: family
equations are checked by direct evaluation over exhaustively enumerated
(y, z), and the unit-fraction identity by exact rational summation.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
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
    z in {1,2,3} by testing every x <= xmax, then x in [4, xmax]."""
    from erdos_straus.search import solve_p2_given_x, x_sweep_bound

    a = 4 * q + 1
    xmax = x_sweep_bound(q)
    for x in (1, 2, 3):
        yz = solve_p2_given_x(q, x)
        if yz is not None:
            return WitnessTriple(x, *yz)
    for y in (1, 2, 3):
        for x in range(1, xmax + 1):
            e = (4 * x - 1) * (4 * y - 1) - 1
            n = a + 4 * x - 1
            if n % e == 0:
                return WitnessTriple(x, y, n // e)
    for z in (1, 2, 3):
        for x in range(1, xmax + 1):
            den = 4 * z * (4 * x - 1)
            num = a - 1 + 4 * x + 4 * x * z
            if num % den == 0:
                return WitnessTriple(x, num // den, z)
    for x in range(4, xmax + 1):
        yz = solve_p2_given_x(q, x)
        if yz is not None:
            return WitnessTriple(x, *yz)
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
