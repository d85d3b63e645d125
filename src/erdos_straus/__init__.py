"""Polynomial family coverage and exact unit-fraction decompositions of 4/a."""

from .families import (
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
from .decompose import (
    DecompositionRecord,
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
from .search import (
    Witness,
    check_p4,
    prime_witness_search,
    small_cube_search,
    solve_p1_given_x,
    solve_p2_given_x,
    solve_p3_given_x,
    staged_search,
    wide_search,
)

__version__ = "1.0.0"

# The scan driver's names, imported from `batch` on first use (PEP 562), so
# that importing the package, `decompose` or `witness` loads no scan driver.
_BATCH_NAMES = ("BatchConfig", "BatchReport", "ScanMode", "run_coverage")


def __getattr__(name: str):
    if name not in _BATCH_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import batch

    return getattr(batch, name)


# every public name and submodule; batch and reports load later but stay listed
__all__ = sorted([name for name in dir() if not name.startswith("_")] + [*_BATCH_NAMES, "batch", "reports"])
