"""Parallel range scans with per-batch CSV artifacts and tallies.

Coverage mode classifies every q in a stepped range through the staged
family search; prime mode restricts to q divisible by 6 with 4q+1 prime and
searches the second family only.  Work items are pure functions of q, so
any worker count produces byte-identical artifacts; results are always
reduced in q order.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import chain
from multiprocessing import Pool
from pathlib import Path
from typing import Callable, Optional, Sequence

from .families import PolyId
from .numutil import FactorWindow, is_prime
from .reports import (
    SolutionRow,
    read_results,
    results_batch_path,
    row_to_witness,
    unsolved_path,
    witness_to_row,
    write_results_aggregate,
    write_results_batch,
    write_unsolved,
)
from .search import (
    LEGACY_PROBE_LIMIT,
    SearchConfig,
    Witness,
    legacy_coverage_scan,
    prime_witness_search,
    wide_search,
)

log = logging.getLogger(__name__)

MANIFEST_NAME = "checkpoint.json"

PAPER_STEPS = (1, 6)


class ScanMode(Enum):
    COVERAGE = "coverage"
    PRIME_COVERAGE = "prime"


class ResumeError(Exception):
    """The checkpoint manifest is missing, corrupt, or from another run."""


class ScanCancelled(Exception):
    """A cancellation signal stopped the scan between work items."""


@dataclass(frozen=True)
class BatchConfig:
    q_start: int
    q_max: int
    step: int = 1
    batch_size: int = 1_000_000
    mode: ScanMode = ScanMode.COVERAGE
    worker_count: int = 1
    output_dir: Path = Path(".")
    skip_batches: frozenset[int] = field(default_factory=frozenset)
    note_analytic_closure: bool = False

    def __post_init__(self) -> None:
        if self.q_start < 1 or self.q_start > self.q_max:
            raise ValueError("need 1 <= q_start <= q_max")
        if self.step < 1 or self.batch_size < 1 or self.worker_count < 1:
            raise ValueError("step, batch_size and worker_count must be >= 1")
        if self.mode is ScanMode.PRIME_COVERAGE and self.step != 6:
            raise ValueError("prime coverage requires step = 6")
        if self.step not in PAPER_STEPS:
            log.warning("step=%d is not one of the reference runs (1 or 6)", self.step)


@dataclass
class BatchReport:
    batch_index: int
    q_range: tuple[int, int]
    solved_count: int
    tallies: dict[PolyId, int]
    unsolved: list[int]
    elapsed_seconds: float
    resumed: bool = False


def tally(witnesses: Sequence[Witness]) -> dict[PolyId, int]:
    """Per-family counts; every family is present, sum equals the input."""
    counts = {p: 0 for p in PolyId}
    for w in witnesses:
        counts[w.poly] += 1
    return counts


def _prime_work(q: int):
    a = 4 * q + 1
    if not is_prime(a):
        return q, None, False
    sol = prime_witness_search(q)
    return q, sol, True


# A pool gets a batch's work in about this many pieces.
POOL_PARTS = 64


def _map(pool: Optional[Pool], fn, items: Sequence) -> list:
    if pool is None or not items:
        return [fn(q) for q in items]
    chunk = max(1, len(items) // POOL_PARTS)
    return pool.map(fn, items, chunksize=chunk)


# A coverage slice's factor window spans [q_first + 1, q_last + WINDOW_MARGIN]:
# the sweep asks for the divisors of q + x, and nearly every q in the hard
# class is classified at x <= WINDOW_MARGIN (larger x fall back to per-n
# factorization).  WINDOW_SPAN caps the window, which bounds worker memory.
WINDOW_MARGIN = 64
WINDOW_SPAN = 1 << 16


def _tail_slices(tail: list[int], step: int, parts: int) -> list[list[int]]:
    """`tail` cut into about `parts` contiguous slices, each window-sized."""
    size = max(1, min(-(-len(tail) // parts), (WINDOW_SPAN - WINDOW_MARGIN) // step + 1))
    return [tail[i : i + size] for i in range(0, len(tail), size)]


def _wide_slice(qs: list[int]) -> list[Optional[Witness]]:
    """wide_search on each q of a contiguous slice, sharing one factor window."""
    window = FactorWindow(qs[0] + 1, qs[-1] + WINDOW_MARGIN)
    return [wide_search(q, window) for q in qs]


CancelCheck = Callable[[], bool]


def _check_cancel(cfg: BatchConfig, cancel: Optional[CancelCheck], batch_index: int) -> None:
    if cancel is not None and cancel():
        marker = cfg.output_dir / f"partial_batch{batch_index}.marker"
        marker.write_text("cancelled\n")
        raise ScanCancelled(f"cancelled before batch {batch_index} completed")


def _prepare_output(cfg: BatchConfig) -> None:
    try:
        cfg.output_dir.mkdir(parents=True, exist_ok=True)
        probe = cfg.output_dir / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise OSError(f"output directory {cfg.output_dir} is not writable: {exc}") from exc


def _manifest_params(cfg: BatchConfig) -> dict:
    return {
        "mode": cfg.mode.value,
        "q_start": cfg.q_start,
        "q_max": cfg.q_max,
        "step": cfg.step,
        "batch_size": cfg.batch_size,
    }


def _record_batch_done(cfg: BatchConfig, batch_index: int) -> None:
    path = cfg.output_dir / MANIFEST_NAME
    data = _manifest_params(cfg)
    done = {batch_index}
    if path.exists():
        try:
            old = json.loads(path.read_text())
            if {k: old.get(k) for k in data} == data:
                done.update(old.get("completed", []))
        except (ValueError, TypeError):
            pass  # stale manifest from another run; overwrite
    data["completed"] = sorted(done)
    path.write_text(json.dumps(data, indent=1) + "\n")


def checkpoint_resume(
    cfg: BatchConfig, completed_batches: Optional[Sequence[int]] = None
) -> BatchConfig:
    """Config that skips batches already recorded complete in output_dir."""
    if completed_batches is None:
        path = cfg.output_dir / MANIFEST_NAME
        if not path.exists():
            raise ResumeError(f"no checkpoint manifest at {path}")
        try:
            data = json.loads(path.read_text())
            completed_batches = [int(b) for b in data["completed"]]
            params = {k: data[k] for k in _manifest_params(cfg)}
        except (ValueError, TypeError, KeyError) as exc:
            raise ResumeError(f"corrupt checkpoint manifest {path}: {exc}") from exc
        if params != _manifest_params(cfg):
            raise ResumeError(
                f"checkpoint {path} was written by a different scan: {params}"
            )
    return replace(cfg, skip_batches=frozenset(completed_batches))


def _coverage_batches(cfg: BatchConfig) -> list[list[int]]:
    qs = list(range(cfg.q_start, cfg.q_max + 1, cfg.step))
    return [qs[i : i + cfg.batch_size] for i in range(0, len(qs), cfg.batch_size)]


def _reload_coverage_batch(cfg: BatchConfig, index: int, qs: Sequence[int]) -> BatchReport:
    rows = read_results(results_batch_path(index, "coverage", cfg.output_dir))
    unsolved_rows = read_results_q(unsolved_path(index, "coverage", cfg.output_dir))
    witnesses = [row_to_witness(r) for r in rows]
    return BatchReport(
        batch_index=index,
        q_range=(qs[0], qs[-1]),
        solved_count=len(rows),
        tallies=tally(witnesses),
        unsolved=unsolved_rows,
        elapsed_seconds=0.0,
        resumed=True,
    )


def read_results_q(path: Path) -> list[int]:
    """Parse a single-column unsolved file back into q values."""
    lines = Path(path).read_text(encoding="ascii").split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != "q":
        raise ResumeError(f"{path}: not an unsolved-q file")
    return [int(x) for x in lines[1:]]


def run_coverage(
    cfg: BatchConfig, cancel: Optional[CancelCheck] = None
) -> list[BatchReport]:
    """Scan [q_start, q_max] with the staged family search.

    Small q (below the cube-probe horizon) are classified sequentially with
    the legacy scan semantics so the artifacts match the reference CSVs;
    everything else fans out across workers in contiguous slices.  The
    prefix and the pool are only set up when a batch that needs them runs.
    """
    if cfg.mode is not ScanMode.COVERAGE:
        raise ValueError("run_coverage needs mode=COVERAGE")
    _prepare_output(cfg)
    if cfg.note_analytic_closure and cfg.step == 6:
        log.info(
            "odd q and q = 6c+2 / 6c+4 are covered analytically by the "
            "closed family identities; scanning multiples of 6 only"
        )

    batches = _coverage_batches(cfg)
    to_run = [qs for index, qs in enumerate(batches, start=1) if index not in cfg.skip_batches]
    prefix = {}
    if any(qs[0] <= LEGACY_PROBE_LIMIT for qs in to_run):
        # The legacy scan carries state from q to q, so it always runs over
        # the whole prefix, reloaded batches included.
        prefix_qs = [q for chunk in batches for q in chunk if q <= LEGACY_PROBE_LIMIT]
        prefix = dict(legacy_coverage_scan(prefix_qs, SearchConfig()))

    pool = Pool(cfg.worker_count) if cfg.worker_count > 1 and to_run else None
    reports = []
    try:
        for index, qs in enumerate(batches, start=1):
            if index in cfg.skip_batches:
                reports.append(_reload_coverage_batch(cfg, index, qs))
                continue
            _check_cancel(cfg, cancel, index)
            t0 = time.perf_counter()
            tail = [q for q in qs if q not in prefix]
            slices = _tail_slices(tail, cfg.step, 1 if pool is None else POOL_PARTS)
            found = dict(zip(tail, chain.from_iterable(_map(pool, _wide_slice, slices))))
            witnesses = []
            unsolved = []
            for q in qs:
                w = prefix.get(q) if q in prefix else found[q]
                if w is None:
                    unsolved.append(q)
                else:
                    witnesses.append(w)
            rows = [witness_to_row(w) for w in witnesses]
            write_results_batch(rows, index, "coverage", cfg.output_dir)
            write_unsolved(unsolved, index, cfg.output_dir, "coverage")
            reports.append(
                BatchReport(
                    batch_index=index,
                    q_range=(qs[0], qs[-1]),
                    solved_count=len(witnesses),
                    tallies=tally(witnesses),
                    unsolved=unsolved,
                    elapsed_seconds=time.perf_counter() - t0,
                )
            )
            _record_batch_done(cfg, index)
    finally:
        if pool is not None:
            pool.close()
            pool.join()

    all_unsolved = sorted({q for r in reports for q in r.unsolved})
    write_unsolved(all_unsolved, None, cfg.output_dir, "coverage")
    return reports


def _prime_batches(cfg: BatchConfig) -> list[tuple[int, int]]:
    """Value-width blocks, each aligned up to a multiple of 6."""
    blocks = []
    b = 1
    while True:
        lo = cfg.q_start + cfg.batch_size * (b - 1)
        if lo % 6:
            lo += 6 - lo % 6
        if lo > cfg.q_max:
            break
        blocks.append((lo, min(lo + cfg.batch_size - 1, cfg.q_max)))
        b += 1
    return blocks


def run_prime_coverage(
    cfg: BatchConfig, cancel: Optional[CancelCheck] = None
) -> list[BatchReport]:
    """Scan q = 6c for primes 4q+1 and find a second-family witness for each."""
    if cfg.mode is not ScanMode.PRIME_COVERAGE:
        raise ValueError("run_prime_coverage needs mode=PRIME_COVERAGE")
    _prepare_output(cfg)

    pool = Pool(cfg.worker_count) if cfg.worker_count > 1 else None
    reports = []
    all_rows: list[SolutionRow] = []
    try:
        for index, (lo, hi) in enumerate(_prime_batches(cfg), start=1):
            if index in cfg.skip_batches:
                reports.append(_reload_prime_batch(cfg, index, (lo, hi)))
                all_rows.extend(read_results(results_batch_path(index, "prime", cfg.output_dir)))
                continue
            _check_cancel(cfg, cancel, index)
            t0 = time.perf_counter()
            qs = list(range(lo, hi + 1, 6))
            results = _map(pool, _prime_work, qs)
            rows = []
            unsolved = []
            for q, sol, prime in results:
                if not prime:
                    continue
                if sol is None:
                    unsolved.append(q)
                else:
                    rows.append(SolutionRow(q, sol[0], sol[1], sol[2]))
            write_results_batch(rows, index, "prime", cfg.output_dir)
            write_unsolved(unsolved, index, cfg.output_dir, "prime")
            all_rows.extend(rows)
            reports.append(
                BatchReport(
                    batch_index=index,
                    q_range=(lo, hi),
                    solved_count=len(rows),
                    tallies={},
                    unsolved=unsolved,
                    elapsed_seconds=time.perf_counter() - t0,
                )
            )
            _record_batch_done(cfg, index)
    finally:
        if pool is not None:
            pool.close()
            pool.join()

    write_results_aggregate(all_rows, cfg.output_dir)
    all_unsolved = sorted({q for r in reports for q in r.unsolved})
    write_unsolved(all_unsolved, None, cfg.output_dir, "prime")
    return reports


def _reload_prime_batch(cfg: BatchConfig, index: int, q_range: tuple[int, int]) -> BatchReport:
    rows = read_results(results_batch_path(index, "prime", cfg.output_dir))
    unsolved = read_results_q(unsolved_path(index, "prime", cfg.output_dir))
    return BatchReport(
        batch_index=index,
        q_range=q_range,
        solved_count=len(rows),
        tallies={},
        unsolved=unsolved,
        elapsed_seconds=0.0,
        resumed=True,
    )
