"""Parallel range scans with per-batch CSV artifacts and tallies.

One driver, `run_coverage`, runs every scan; a small table per `ScanMode`
holds what differs between the modes.  Coverage mode classifies every q in
a stepped range through the staged family search; prime mode restricts to
q divisible by 6 with 4q+1 prime and searches the second family only.
Work items are pure functions of q, so any worker count produces
byte-identical artifacts; results are always reduced in q order.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import chain, takewhile
from multiprocessing import Pool
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence

from .families import PolyId, WitnessTriple
from .numutil import FactorWindow, is_prime
from .reports import (
    SolutionRow,
    read_results,
    read_results_q,
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


def _prime_work(q: int) -> Optional[tuple[int, Optional[Witness]]]:
    """(q, its second-family witness or None) if 4q+1 is prime, else None."""
    if not is_prime(4 * q + 1):
        return None
    t = prime_witness_search(q)
    return q, None if t is None else Witness(q, PolyId.P2, t)


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


def _coverage_batches(cfg: BatchConfig) -> list[range]:
    """Runs of batch_size consecutive values of the stepped range."""
    last = cfg.q_max - (cfg.q_max - cfg.q_start) % cfg.step
    span = cfg.batch_size * cfg.step
    return [
        range(lo, min(lo + span - cfg.step, last) + 1, cfg.step)
        for lo in range(cfg.q_start, last + 1, span)
    ]


def _prime_batches(cfg: BatchConfig) -> list[range]:
    """Value-width blocks of q = 6c.

    Block k starts at q_start + k * batch_size aligned up to a multiple of 6
    and ends one below the next block's start; starts that align to the
    same value make one block.
    """
    blocks = []
    lo = cfg.q_start + (-cfg.q_start) % 6
    while lo <= cfg.q_max:
        # the first unaligned block start above lo, then aligned
        nxt = cfg.q_start + ((lo - cfg.q_start) // cfg.batch_size + 1) * cfg.batch_size
        nxt += (-nxt) % 6
        blocks.append(range(lo, min(nxt, cfg.q_max + 1), 6))
        lo = nxt
    return blocks


# A batch's targets, in q order, each with its witness (None: unsolved).
Hits = dict[int, Optional[Witness]]


def _solve_coverage(pool: Optional[Pool], qs: range, prefix: Hits) -> Hits:
    tail = [q for q in qs if q not in prefix]
    slices = _tail_slices(tail, qs.step, 1 if pool is None else POOL_PARTS)
    # prefix values, all <= LEGACY_PROBE_LIMIT, lead the batch
    hits = {q: prefix[q] for q in qs[: len(qs) - len(tail)]}
    hits.update(zip(tail, chain.from_iterable(_map(pool, _wide_slice, slices))))
    return hits


def _solve_primes(pool: Optional[Pool], qs: range, prefix: Hits) -> Hits:
    return dict(hit for hit in _map(pool, _prime_work, qs) if hit is not None)


class _Mode(NamedTuple):
    """What differs between the scan modes."""

    label: str  # the artifact names, see reports.results_batch_path
    batches: Callable[[BatchConfig], list[range]]
    legacy_prefix: bool  # classify q <= LEGACY_PROBE_LIMIT with the legacy scan
    solve: Callable[[Optional[Pool], range, Hits], Hits]
    rows: Callable[[list[Witness]], list[SolutionRow]]
    witnesses: Callable[[list[SolutionRow]], list[Witness]]  # inverse of rows
    aggregate: bool  # also write Results/all_solutions.csv


_MODES = {
    ScanMode.COVERAGE: _Mode(
        label="coverage",
        batches=_coverage_batches,
        legacy_prefix=True,
        solve=_solve_coverage,
        rows=lambda ws: [witness_to_row(w) for w in ws],
        witnesses=lambda rows: [row_to_witness(r) for r in rows],
        aggregate=False,
    ),
    ScanMode.PRIME_COVERAGE: _Mode(
        label="prime",
        batches=_prime_batches,
        legacy_prefix=False,
        solve=_solve_primes,
        rows=lambda ws: [SolutionRow(w.q, *w.triple) for w in ws],
        witnesses=lambda rows: [Witness(r.q, PolyId.P2, WitnessTriple(r.x, r.y, r.z))
                                for r in rows],
        aggregate=True,
    ),
}


def run_coverage(
    cfg: BatchConfig, cancel: Optional[CancelCheck] = None
) -> list[BatchReport]:
    """Scan [q_start, q_max] batch by batch in the mode `cfg.mode` names.

    Batches in `cfg.skip_batches` are reloaded from their files.  In
    coverage mode, small q (below the cube-probe horizon) are classified
    sequentially with the legacy scan semantics so the artifacts match the
    reference CSVs; everything else fans out across workers.  The prefix and
    the pool are only set up when a batch that needs them runs.
    """
    mode = _MODES[cfg.mode]
    _prepare_output(cfg)
    batches = mode.batches(cfg)
    to_run = [qs for index, qs in enumerate(batches, start=1) if index not in cfg.skip_batches]
    prefix: Hits = {}
    if mode.legacy_prefix and any(qs[0] <= LEGACY_PROBE_LIMIT for qs in to_run):
        # The legacy scan carries state from q to q, so it always runs over
        # the whole prefix, reloaded batches included.
        small = takewhile(lambda q: q <= LEGACY_PROBE_LIMIT, chain.from_iterable(batches))
        prefix = dict(legacy_coverage_scan(small))

    pool = Pool(cfg.worker_count) if cfg.worker_count > 1 and to_run else None
    reports = []
    all_rows: list[SolutionRow] = []
    try:
        for index, qs in enumerate(batches, start=1):
            resumed = index in cfg.skip_batches
            t0 = time.perf_counter()
            if resumed:
                rows = read_results(results_batch_path(index, mode.label, cfg.output_dir))
                witnesses = mode.witnesses(rows)
                unsolved = read_results_q(unsolved_path(index, mode.label, cfg.output_dir))
            else:
                _check_cancel(cfg, cancel, index)
                hits = mode.solve(pool, qs, prefix)
                witnesses = [w for w in hits.values() if w is not None]
                unsolved = [q for q, w in hits.items() if w is None]
                rows = mode.rows(witnesses)
                write_results_batch(rows, index, mode.label, cfg.output_dir)
                write_unsolved(unsolved, index, cfg.output_dir, mode.label)
                _record_batch_done(cfg, index)
            reports.append(
                BatchReport(
                    batch_index=index,
                    q_range=(qs.start, qs.stop - 1),
                    solved_count=len(rows),
                    tallies=tally(witnesses),
                    unsolved=unsolved,
                    elapsed_seconds=0.0 if resumed else time.perf_counter() - t0,
                    resumed=resumed,
                )
            )
            if mode.aggregate:
                all_rows.extend(rows)
    finally:
        if pool is not None:
            pool.close()
            pool.join()

    if mode.aggregate:
        write_results_aggregate(all_rows, cfg.output_dir)
    all_unsolved = sorted({q for r in reports for q in r.unsolved})
    write_unsolved(all_unsolved, None, cfg.output_dir, mode.label)
    return reports
