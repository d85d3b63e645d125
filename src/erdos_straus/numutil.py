"""Integer utilities: deterministic primality, factorization, divisors.

Everything here is exact integer arithmetic; no floating point anywhere.
Primality is a deterministic Miller-Rabin with the 13 prime bases up to 41,
proven complete for every n < MR_LIMIT (about 3.317 * 10^24, above 2^64);
it refuses larger n, so batch runs never depend on probabilistic answers.
A smaller n runs only the first k bases, as few as are proven for its size
by _MR_BOUNDS, the least strong pseudoprimes to the first k prime bases
(OEIS A014233; Jaeschke 1993; Sorenson and Webster 2017).
Factorization is trial division by the primes below 2^16, screened a run of
primes at a time by one gcd; what it leaves below 2^32 is 1 or a prime, and
only a cofactor above that goes to Miller-Rabin and Brent's Pollard rho.
`factorize` and `least_prime_factor` share that one division, the latter
stopping at its first prime of a residue class, and every divisor list is
built from a factorization.
`FactorWindow` sieves those small primes over a contiguous range once, so a
scan asking about many neighbouring n factors each without trial division;
`prime_targets` sieves them once over the q = 6c of a prime scan, so it finds
the q with 4q+1 prime without a primality test per value, and the least
prime 2 mod 3 dividing each q+1 without factoring it.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from itertools import compress
from math import gcd, isqrt, prod
from typing import Optional

# MR_LIMIT is the least strong pseudoprime to all of these bases, so they are
# proven complete below it.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_LIMIT = 3_317_044_064_679_887_385_961_981

# (psi_k, k): psi_k is the least strong pseudoprime to the first k prime
# bases, so those k bases are proven exact for every n < psi_k.  A k missing
# here has the same psi_k as the one listed before it (psi_8 = psi_7,
# psi_10 = psi_11 = psi_9).  Sources: OEIS A014233; Pomerance, Selfridge and
# Wagstaff (1980) and Jaeschke (1993) up to k = 8; Jiang and Deng (2014) for
# k = 9..11; Sorenson and Webster (2017) for k = 12, 13.
_MR_BOUNDS = (
    (2047, 1),
    (1373653, 2),
    (25326001, 3),
    (3215031751, 4),
    (2152302898747, 5),
    (3474749660383, 6),
    (341550071728321, 7),
    (3825123056546413051, 9),
    (318665857834031151167461, 12),
    (MR_LIMIT, 13),
)
_MR_PSI = [psi for psi, _ in _MR_BOUNDS]

_RHO_CUTOFF = 1 << 32

# Steps of the rho walk per gcd.
_RHO_BLOCK = 128

# Primes below 2^16, enough for trial division of any n < 2^32.
def _small_primes() -> list[int]:
    limit = 1 << 16
    half = limit // 2
    sieve = bytearray([1]) * half  # sieve[i] stands for the odd 2i + 1
    sieve[0] = 0
    for i in range(1, (isqrt(limit - 1) + 1) // 2):
        if sieve[i]:
            p = 2 * i + 1
            sieve[p * p // 2 :: p] = bytes(len(range(p * p // 2, half, p)))
    return [2, *compress(range(1, limit, 2), sieve)]


_PRIMES = _small_primes()


def _runs() -> list[tuple[list[int], int]]:
    """_PRIMES cut into runs of doubling length, 8 up to 128, each with its
    product, for screened trial division: short runs first, so a small n
    stops early, and long runs later, so a large n pays few gcds."""
    runs, i, length = [], 0, 8
    while i < len(_PRIMES):
        run = _PRIMES[i : i + length]
        runs.append((run, prod(run)))
        i += length
        length = min(2 * length, 128)
    return runs


_RUNS = _runs()

# Largest n whose prime factors up to isqrt(n) all lie in _PRIMES: the next
# prime after 2^16 is 65537.
SIEVE_MAX = 65537**2 - 1


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, proven exact for every n < MR_LIMIT.

    It runs the first k of the 13 bases for the first psi_k of _MR_BOUNDS
    above n (OEIS A014233; Jaeschke 1993; Sorenson and Webster 2017): 3 for
    n < 25326001, 6 near 4 * 10^12, 9 near 10^18.  Raises ValueError for
    n >= MR_LIMIT, where no answer would be proven.
    """
    if n < 2:
        return False
    if n >= MR_LIMIT:
        raise ValueError(f"{n} is at or above {MR_LIMIT}, where the primality test is not proven")
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES[: _MR_BOUNDS[bisect_right(_MR_PSI, n)][1]]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_factor(n: int) -> int:
    """One nontrivial factor of composite odd n, by Brent's variant of rho.

    Brent (1980): the walk y -> y^2 + c is compared with a point x saved
    at each power of two, and the products of x - y are accumulated mod n
    so that one gcd serves a block of _RHO_BLOCK steps.  The walk is taken
    four steps at a time, their four differences multiplied in with one
    reduction mod n; the product mod n, and so each block's gcd, is the
    same as reducing at every step.  When a block's gcd comes out as n,
    the block is replayed one gcd per step; a walk that still only finds n
    is retried with the next c.
    """
    for c in range(1, 100):
        y, r, prod_, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                steps = min(_RHO_BLOCK, r - k)
                for _ in range(steps >> 2):
                    y1 = (y * y + c) % n
                    y2 = (y1 * y1 + c) % n
                    y3 = (y2 * y2 + c) % n
                    y = (y3 * y3 + c) % n
                    prod_ = prod_ * (x - y1) * (x - y2) * (x - y3) * (x - y) % n
                for _ in range(steps & 3):  # only r = 1 and 2 leave a rest
                    y = (y * y + c) % n
                    prod_ = prod_ * (x - y) % n
                g = gcd(prod_, n)
                k += _RHO_BLOCK
            r *= 2
        if g == n:  # backtrack from the block's start, one gcd per step
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed to factor {n}")  # pragma: no cover


def _trial_divide(n: int, m: int = 1, r: int = -1) -> tuple[dict[int, int], int, Optional[int]]:
    """({p: e}, rest, hit) for the primes p < 2^16 dividing n exactly e times,
    in ascending order, up to the first p with p % m == r, the hit (None if
    there is none; the default class has no member).  rest is n with every
    prime found divided out; with no hit it is 1, a prime, or a number with
    no prime factor below 2^16, and below 2^32 that is 1 or a prime.

    Trial division is screened a run of primes at a time: one gcd of n
    with the run's product, and a prime-by-prime pass only over a run whose
    gcd is above 1, which ends once what is left of the gcd is one prime.
    It stops at a run whose least prime p has p*p > rest.
    """
    factors: dict[int, int] = {}
    for run, run_product in _RUNS:
        if run[0] * run[0] > n:
            break
        g = gcd(n, run_product)  # the run's primes dividing n, multiplied
        if g == 1:
            continue
        for p in run:
            if g < p * p:  # one prime left in g
                p = g
            elif g % p:
                continue
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors[p] = e
            if p % m == r:
                return factors, n, p
            if g == p:
                break
            g //= p
    return factors, n, None


def _large_primes(n: int) -> list[int]:
    """The prime factors, with multiplicity, of an n >= 2^32 with no prime
    factor below 2^16: Miller-Rabin decides and rho splits, and a factor
    below 2^32 is prime."""
    primes = []
    stack = [n]
    while stack:
        m = stack.pop()
        if m < _RHO_CUTOFF or is_prime(m):
            primes.append(m)
        else:
            d = _rho_factor(m)
            stack.append(d)
            stack.append(m // d)
    return primes


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}."""
    if n < 1:
        raise ValueError("n must be >= 1")
    factors, rest, _ = _trial_divide(n)
    if rest >= _RHO_CUTOFF:
        for p in _large_primes(rest):
            factors[p] = factors.get(p, 0) + 1
    elif rest > 1:
        factors[rest] = 1
    return factors


def least_prime_factor(n: int, m: int, r: int) -> Optional[int]:
    """The least prime p with p % m == r dividing n >= 1, or None.

    Equal to min(p for p in factorize(n) if p % m == r), but it stops at the
    first such prime below 2^16 and factors what is left only when there is
    none.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    _, rest, p = _trial_divide(n, m, r)
    if p is not None:
        return p
    if rest < _RHO_CUTOFF:
        return rest if rest > 1 and rest % m == r else None
    return min((p for p in _large_primes(rest) if p % m == r), default=None)


def divisors_of(factors: dict[int, int]) -> list[int]:
    """Every divisor of the n whose factorization is `factors`, unsorted:
    for each prime p^e, the list so far is extended by its multiples by
    p, p^2, .., p^e, each one multiplication from the last."""
    divs = [1]
    for p, e in factors.items():
        if e == 1:  # most primes, without the loop's overhead
            divs += [d * p for d in divs]
            continue
        last = divs
        for _ in range(e):
            last = [d * p for d in last]
            divs += last
    return divs


def prime_targets(qs: range) -> list[tuple[int, Optional[int]]]:
    """(q, p) for each q of `qs`, multiples of 6 with step 6, whose 4q+1 is
    prime, in q order: p is the least prime p % 3 == 2 dividing q+1, or None.

    q = 6c makes q+1 odd and 1 mod 3, so the primes p % 3 == 2 dividing q+1,
    counted with multiplicity, are even in number, and the least of them is
    at most isqrt(q+1).  One walk over the primes 5 <= p <= isqrt(4 q_last + 1)
    below 2^16, largest first, takes both offsets from one inverse of 24 mod
    p: p strikes the q whose 4q+1 it divides, except where 4q+1 = p, and a
    p % 3 == 2 up to isqrt(q_last + 1) is written over the q whose q+1 it
    divides, so each q keeps the least.  A 4q+1 up to SIEVE_MAX survives
    exactly when it is prime, and an empty entry for a q+1 up to SIEVE_MAX
    means q+1 has no such p; above it a survivor is confirmed with is_prime
    and an empty entry is looked up with least_prime_factor.
    """
    if qs.start < 6 or qs.start % 6 or qs.step != 6:
        raise ValueError("need a range of positive multiples of 6 with step 6")
    size = len(qs)
    if not size:
        return []
    keep = bytearray([1]) * size
    least = array("H", bytes(2 * size))
    a0, n0, reach = 4 * qs.start + 1, qs.start + 1, isqrt(qs[-1] + 1)
    for p in reversed(_PRIMES[2 : window_prime_count(4 * qs[-1] + 1)]):  # 2, 3 divide 24
        inverse = pow(24, -1, p)
        i = -a0 * inverse % p  # 4q+1 = a0 + 24i
        if a0 + 24 * i == p:
            i += p
        keep[i::p] = bytes(len(range(i, size, p)))
        if p <= reach and p % 3 == 2:
            i = -n0 * 4 * inverse % p  # q+1 = n0 + 6i
            least[i::p] = array("H", [p]) * len(range(i, size, p))
    return [(q, p or (least_prime_factor(q + 1, 3, 2) if q + 1 > SIEVE_MAX else None))
            for q, p in zip(compress(qs, keep), compress(least, keep))
            if 4 * q + 1 <= SIEVE_MAX or is_prime(4 * q + 1)]


def window_prime_count(hi: int) -> int:
    """How many primes a FactorWindow whose top is hi sieves with."""
    return bisect_right(_PRIMES, isqrt(min(hi, SIEVE_MAX)))


class FactorWindow:
    """Factorizations of every n in [lo, hi] from one sieve of the small primes.

    The constructor sieves each prime p <= isqrt(hi) over the window and
    records, per n, the primes dividing it.  Dividing those out of n leaves
    1 or a single prime, since a composite cofactor would have a prime factor
    <= isqrt(n).  `factorize` and `least_prime_factor` answer as the module
    functions do, and call them for n outside the window or above SIEVE_MAX,
    the largest n the primes below 2^16 can sieve.  Memory is about a
    hundred bytes per value, so callers bound hi - lo.
    """

    def __init__(self, lo: int, hi: int):
        if lo < 1 or hi < lo:
            raise ValueError("need 1 <= lo <= hi")
        self.lo = lo
        self.hi = min(hi, SIEVE_MAX)
        size = max(0, self.hi - lo + 1)
        count = window_prime_count(self.hi)
        short = bisect_left(_PRIMES, size, 0, count)
        primes: list[list[int]] = [[] for _ in range(size)]
        for p in _PRIMES[:short]:
            for i in range((-lo) % p, size, p):
                primes[i].append(p)
        # a prime at least as long as the window hits it at most once
        for p in _PRIMES[short:count]:
            i = (-lo) % p
            if i < size:
                primes[i].append(p)
        self._primes = primes

    def factorize(self, n: int) -> dict[int, int]:
        """Prime factorization of n >= 1 as {prime: exponent}."""
        if not self.lo <= n <= self.hi:
            return factorize(n)
        factors = {}
        m = n
        for p in self._primes[n - self.lo]:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors[p] = e
        if m > 1:
            factors[m] = 1
        return factors

    def least_prime_factor(self, n: int, m: int, r: int) -> Optional[int]:
        """The first prime p % m == r of n's sieved primes, else their cofactor if one."""
        if not self.lo <= n <= self.hi:
            return least_prime_factor(n, m, r)
        rest = n
        for p in self._primes[n - self.lo]:
            if p % m == r:
                return p
            while rest % p == 0:
                rest //= p
        return rest if rest > 1 and rest % m == r else None
