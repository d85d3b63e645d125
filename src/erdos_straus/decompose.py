"""Exact unit-fraction decompositions of 4/a.

Each operation returns positive integers (b, c, d) with
1/b + 1/c + 1/d = 4/a and verifies the identity by exact cross
multiplication before returning; nothing is ever rounded.  Denominators are
plain Python integers, so the cubic growth of d in the residue identities
costs nothing but memory.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Optional

from .families import KzsPoint, PolyId, WitnessTriple, kzs_condition, kzs_q, shifted_value
from .search import staged_search


class UnitFractionTriple(NamedTuple):
    b: int
    c: int
    d: int

    @property
    def distinct(self) -> bool:
        return len({self.b, self.c, self.d}) == 3


class Provenance(Enum):
    """Which construction produced a decomposition."""

    EVEN_MULT4 = "EvenMult4"
    EVEN_4Q2 = "Even4q2"
    ODD_4Q3 = "Odd4q3"
    CASE_P1 = "CaseP1"
    CASE_P2 = "CaseP2"
    CASE_P3 = "CaseP3"
    SQUARE_RECURSIVE = "SquareRecursive"


class DecompositionRecord(NamedTuple):
    a: int
    triple: UnitFractionTriple
    provenance: Provenance
    witness: Optional[tuple[PolyId, WitnessTriple]] = None
    recursion_depth: int = 0


class DecompositionError(Exception):
    """Base class for decomposition failures."""


class InadmissiblePointError(DecompositionError):
    """The kappa/z/s integrality condition does not hold at this point."""


class DegeneratePointError(DecompositionError):
    """The master decomposition's denominators vanish at this point."""


class UnsolvedError(DecompositionError):
    """No witness was found for a target congruent to 1 mod 4."""


def verify_exact(a: int, t: UnitFractionTriple) -> bool:
    """True iff 1/b + 1/c + 1/d == 4/a, by exact cross multiplication."""
    if a < 2 or min(t) < 1:
        raise ValueError(f"need a >= 2 and positive denominators, got a={a}, {t}")
    b, c, d = t
    return a * (c * d + b * d + b * c) == 4 * b * c * d


def _checked(a: int, t: UnitFractionTriple) -> UnitFractionTriple:
    if not verify_exact(a, t):
        raise AssertionError(f"identity failed for a={a}: {t}")  # pragma: no cover
    return t


def decompose_mult4(q: int) -> UnitFractionTriple:
    """Decomposition of 4/(4q), q >= 1."""
    if q < 1:
        raise ValueError("q must be >= 1 (a = 4q)")
    t = UnitFractionTriple(q * q + 2 * q, q**3 + 3 * q * q + 2 * q, q + 1)
    return _checked(4 * q, t)


def decompose_4q2(q: int) -> UnitFractionTriple:
    """Decomposition of 4/(4q+2), q >= 0 (q=0 covers a=2)."""
    if q < 0:
        raise ValueError("q must be >= 0")
    t = UnitFractionTriple(
        2 * q * q + 5 * q + 2,
        2 * q**3 + 7 * q * q + 7 * q + 2,
        q + 1,
    )
    return _checked(4 * q + 2, t)


def decompose_4q3(q: int) -> UnitFractionTriple:
    """Decomposition of 4/(4q+3), q >= 0 (q=0 covers a=3)."""
    if q < 0:
        raise ValueError("q must be >= 0")
    t = UnitFractionTriple(
        4 * q * q + 11 * q + 6,
        4 * q**3 + 15 * q * q + 17 * q + 6,
        q + 1,
    )
    return _checked(4 * q + 3, t)


def decompose_kzs(p: KzsPoint) -> UnitFractionTriple:
    """Decomposition of 4/(4q+1) at an admissible (kappa, z, s) point.

    Admissible means q = kappa*z - s >= 1 and (4z+1)*kappa*z/(4s-1) is an
    integer strictly greater than z (otherwise the denominators degenerate).
    """
    q = kzs_q(p)
    if q < 1:
        raise ValueError(f"q = kappa*z - s = {q} must be >= 1")
    cond = kzs_condition(p)
    if cond.denominator != 1:
        raise InadmissiblePointError(f"{p}: condition value {cond} is not an integer")
    zc = cond.numerator
    if zc <= p.z:
        raise DegeneratePointError(f"{p}: condition value {zc} must exceed z={p.z}")
    a = 4 * q + 1
    w = zc - p.z  # z*(C - 1) with C the condition value divided by z
    t = UnitFractionTriple(p.kappa * w, w * a, p.kappa * p.z)
    return _checked(a, t)


def decompose_case_p1(t: WitnessTriple) -> UnitFractionTriple:
    """Decomposition of 4/a for a = (4x-1)(4yz-1)."""
    x, y, z = t
    a = shifted_value(PolyId.P1, t)
    yz = y * z
    m = 4 * yz + z - 1
    triple = UnitFractionTriple(
        (4 * x - 1) * yz * m,
        (4 * x - 1) * yz,
        (4 * x - 1) * y * (4 * yz - 1) * m,
    )
    return _checked(a, triple)


def decompose_case_p2(t: WitnessTriple) -> UnitFractionTriple:
    """Decomposition of 4/a for a = (4x-1)(4yz-1) - 4xz."""
    x, y, z = t
    a = shifted_value(PolyId.P2, t)
    m = 4 * x * y - x - y
    n = (4 * y - 1) * z - 1
    triple = UnitFractionTriple(z * m, m * n * a, z * m * n)
    return _checked(a, triple)


def decompose_case_p3(t: WitnessTriple) -> UnitFractionTriple:
    """Decomposition of 4/a for a = (4x-3)(8y-3); the z coordinate is unused."""
    x, y, _ = t
    a = shifted_value(PolyId.P3, t)
    b = (4 * x - 3) * (3 * y - 1)
    triple = UnitFractionTriple(b, 2 * b, (4 * x - 3) * (6 * y - 2) * (8 * y - 3))
    return _checked(a, triple)


_CASES = {
    PolyId.P1: (decompose_case_p1, Provenance.CASE_P1),
    PolyId.P2: (decompose_case_p2, Provenance.CASE_P2),
    PolyId.P3: (decompose_case_p3, Provenance.CASE_P3),
}


def decompose_square(x: int) -> DecompositionRecord:
    """Decomposition of 4/a for a = (2x-1)^2, x >= 2.

    Scales decompose_any(2x-1) by n = 2x-1.  The reduced target is
    strictly smaller than a, so recursion terminates.
    """
    if x < 2:
        raise ValueError("x must be >= 2 (a = (2x-1)^2)")
    n = 2 * x - 1
    a = n * n
    inner = decompose_any(n)
    triple = UnitFractionTriple(*(n * d for d in inner.triple))
    return DecompositionRecord(
        a=a,
        triple=_checked(a, triple),
        provenance=Provenance.SQUARE_RECURSIVE,
        witness=(PolyId.P4, WitnessTriple(x, 1, 1)),
        recursion_depth=inner.recursion_depth + 1,
    )


def decompose_any(a: int) -> DecompositionRecord:
    """Decomposition of 4/a for any a >= 2, dispatched on a mod 4.

    The 1-mod-4 branch takes its witness from the staged family search.
    Raises UnsolvedError if the search exhausts (never happens for
    a mod 4 != 1, which are closed form).
    """
    if a < 2:
        raise ValueError("a must be >= 2")
    r = a % 4
    if r == 0:
        return DecompositionRecord(a, decompose_mult4(a // 4), Provenance.EVEN_MULT4)
    if r == 2:
        return DecompositionRecord(a, decompose_4q2((a - 2) // 4), Provenance.EVEN_4Q2)
    if r == 3:
        return DecompositionRecord(a, decompose_4q3((a - 3) // 4), Provenance.ODD_4Q3)

    q = (a - 1) // 4
    witness = staged_search(q)
    if witness is None:
        raise UnsolvedError(f"no family witness found for q={q} (a={a})")
    poly, t = witness.poly, witness.triple
    if poly is PolyId.P4:
        return decompose_square(t.x)
    case, provenance = _CASES[poly]
    return DecompositionRecord(a, case(t), provenance, (poly, t))
