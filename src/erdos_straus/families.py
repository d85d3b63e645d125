"""The four polynomial families and the kappa/z/s machinery behind them.

Every integer a = 4q + 1 is conjectured to arise as 4*p_i(x, y, z) + 1 for
one of four fixed polynomials p_1..p_4 over positive integers x, y, z.  This
module evaluates the families exactly, exposes the factored forms of
4*p_i + 1, and provides the closed sub-families that cover odd numbers and
the 6c+2 / 6c+4 even classes analytically.

All functions here are pure and operate on plain Python integers, so there
is no overflow boundary to worry about.
"""

from __future__ import annotations

from enum import IntEnum
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from fractions import Fraction


class PolyId(IntEnum):
    """Index of a polynomial family.  Ordering P1 < P2 < P3 < P4 is the
    tie-breaking order of the staged search and must not change."""

    P1 = 1
    P2 = 2
    P3 = 3
    P4 = 4

    @property
    def label(self) -> str:
        return f"p{self.value}"


# The members as module constants for the per-witness paths: a global read
# costs about a tenth of `PolyId.P1`, an attribute read on the enum class.
P1, P2, P3, P4 = PolyId


class WitnessTriple(NamedTuple):
    """A point (x, y, z) with all coordinates >= 1.

    For P3 the z coordinate is unused and for P4 both y and z are unused;
    unused coordinates are stored as 1 and rendered empty on export.
    """

    x: int
    y: int = 1
    z: int = 1


class KzsPoint(NamedTuple):
    """A point (kappa, z, s) of the master decomposition, all >= 1."""

    kappa: int
    z: int
    s: int


def _check_kzs(p: KzsPoint) -> None:
    if p.kappa < 1 or p.z < 1 or p.s < 1:
        raise ValueError(f"kappa, z, s must all be >= 1, got {p}")


def eval_poly(poly: PolyId, t: WitnessTriple) -> int:
    """Evaluate family `poly` at `t`.  Exact; may be 0 only for P4 at x=1."""
    x, y, z = t
    if x < 1 or y < 1 or z < 1:
        raise ValueError(f"witness coordinates must all be >= 1, got {t}")
    if poly is P1:
        return x * (4 * y * z - 1) - y * z
    if poly is P2:
        return x * (4 * y * z - z - 1) - y * z
    if poly is P3:
        return x * (8 * y - 3) - 6 * y + 2
    return x * x - x


def shifted_value(poly: PolyId, t: WitnessTriple) -> int:
    """4 * eval_poly(poly, t) + 1, computed through the factored forms."""
    x, y, z = t
    if x < 1 or y < 1 or z < 1:
        raise ValueError(f"witness coordinates must all be >= 1, got {t}")
    if poly is P1:
        return (4 * x - 1) * (4 * y * z - 1)
    if poly is P2:
        return (4 * x - 1) * (4 * y * z - 1) - 4 * x * z
    if poly is P3:
        return (8 * y - 3) * (4 * x - 3)
    return (2 * x - 1) ** 2


def check_value(poly: PolyId, t: WitnessTriple, value: int) -> None:
    """Raise AssertionError unless eval_poly(poly, t) == value.

    An explicit raise, so the check also runs under `python -O`.
    """
    if eval_poly(poly, t) != value:
        raise AssertionError(f"{poly.label}{tuple(t)} does not evaluate to {value}")


def odd_family(z: int) -> int:
    """The odd number 2z - 1 reached by P2 at (1, 1, z)."""
    if z < 1:
        raise ValueError("z must be >= 1")
    value = 2 * z - 1
    check_value(PolyId.P2, WitnessTriple(1, 1, z), value)
    return value


def even_6c4_family(c: int) -> int:
    """The even number 6c + 4 reached by P2 at (1 + c, 2, 1)."""
    if c < 0:
        raise ValueError("c must be >= 0")
    value = 6 * c + 4
    check_value(PolyId.P2, WitnessTriple(1 + c, 2, 1), value)
    return value


def even_6c2_family(c: int) -> int:
    """The even number 6c + 2 reached by P1 at (1 + 2c, 1, 1)."""
    if c < 0:
        raise ValueError("c must be >= 0")
    value = 6 * c + 2
    check_value(PolyId.P1, WitnessTriple(1 + 2 * c, 1, 1), value)
    return value


def kzs_q(p: KzsPoint) -> int:
    """q = kappa*z - s.  May be <= 0; callers filter."""
    _check_kzs(p)
    return p.kappa * p.z - p.s


def kzs_condition(p: KzsPoint) -> Fraction:
    """The admissibility quantity (4z + 1) * kappa * z / (4s - 1), exact.

    The master decomposition of 4/(4q+1) has integer denominators exactly
    when this value is an integer greater than z.
    """
    from fractions import Fraction  # imports decimal too, about 4 ms that no command needs

    _check_kzs(p)
    return Fraction((4 * p.z + 1) * p.kappa * p.z, 4 * p.s - 1)
