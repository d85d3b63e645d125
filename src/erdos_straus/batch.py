"""Parallel range scans with per-batch CSV artifacts and tallies.

One driver, `run_coverage`, runs every scan; a small table per `ScanMode`
holds what differs between the modes.  Coverage mode classifies every q in
a stepped range through the staged family search; prime mode restricts to
q divisible by 6 with 4q+1 prime and searches the second family only.
Work items are pure functions of q, so any worker count produces
byte-identical artifacts; results are always reduced in q order.
"""

from __future__ import annotations

import heapq
import json
import logging
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import chain, takewhile
from multiprocessing import Pool
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence

from .families import PolyId
from .numutil import FactorWindow, is_prime
from .reports import (
    SolutionRow,
    read_results,
    read_results_q,
    results_batch_path,
    unsolved_path,
    witness_to_row,
    write_lines,
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
            raise ValueError(f"need 1 <= q_start <= q_max, got {self.q_start} and {self.q_max}")
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


def tally(rows: Sequence[SolutionRow]) -> dict[PolyId, int]:
    """Per-family counts of result rows; every family is present, sum equals
    the input.  Prime rows carry no label: they are second-family witnesses."""
    labels = Counter(r.pi for r in rows)
    counts = {p: labels[p.label] for p in PolyId}
    counts[PolyId.P2] += labels[None]
    return counts


# A pool gets a batch's work in about this many pieces.
POOL_PARTS = 64


def _map(pool: Optional[Pool], fn, items: Sequence) -> list:
    if pool is None:
        return [fn(item) for item in items]
    return pool.map(fn, items, chunksize=1)


# A coverage slice's factor window spans [q_first + 1, q_last + WINDOW_MARGIN]:
# the sweep asks for the divisors of q + x, and nearly every q in the hard
# class is classified at x <= WINDOW_MARGIN (larger x fall back to per-n
# factorization).  WINDOW_SPAN caps the window, which bounds worker memory.
WINDOW_MARGIN = 64
WINDOW_SPAN = 1 << 16


def _slices(qs: range, parts: int) -> list[range]:
    """`qs` cut into about `parts` contiguous slices, each window-sized."""
    size = max(1, min(-(-len(qs) // parts), (WINDOW_SPAN - WINDOW_MARGIN) // qs.step + 1))
    return [qs[i : i + size] for i in range(0, len(qs), size)]


def _row(w: Optional[Witness]) -> Optional[SolutionRow]:
    return None if w is None else witness_to_row(w)


def _wide_slice(qs: range) -> list[tuple[int, Optional[SolutionRow]]]:
    """wide_search on each q of a contiguous slice, sharing one factor window."""
    window = FactorWindow(qs[0] + 1, qs[-1] + WINDOW_MARGIN)
    return [(q, _row(wide_search(q, window))) for q in qs]


def _prime_slice(qs: range) -> list[tuple[int, Optional[SolutionRow]]]:
    """prime_witness_search on each q of a slice with 4q+1 prime."""
    hits = []
    for q in qs:
        if is_prime(4 * q + 1):
            t = prime_witness_search(q)
            hits.append((q, None if t is None else SolutionRow(q, *t)))
    return hits


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


def _write_manifest(cfg: BatchConfig, completed: set[int]) -> None:
    data = _manifest_params(cfg) | {"completed": sorted(completed)}
    write_lines(cfg.output_dir / MANIFEST_NAME, [json.dumps(data, indent=1)])


def checkpoint_resume(cfg: BatchConfig) -> BatchConfig:
    """Config that skips batches already recorded complete in output_dir."""
    path = cfg.output_dir / MANIFEST_NAME
    if not path.exists():
        raise ResumeError(f"no checkpoint manifest at {path}")
    try:
        data = json.loads(path.read_text())
        completed = frozenset(int(b) for b in data["completed"])
        params = {k: data[k] for k in _manifest_params(cfg)}
    except (ValueError, TypeError, KeyError) as exc:
        raise ResumeError(f"corrupt checkpoint manifest {path}: {exc}") from exc
    if params != _manifest_params(cfg):
        raise ResumeError(f"checkpoint {path} was written by a different scan: {params}")
    return replace(cfg, skip_batches=completed)


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


class _Mode(NamedTuple):
    """What differs between the scan modes; `ScanMode.value` names the artifacts."""

    batches: Callable[[BatchConfig], list[range]]
    legacy_prefix: bool  # classify q <= LEGACY_PROBE_LIMIT with the legacy scan
    solve: Callable[[range], list]  # a slice's targets in q order, each with its row or None
    every_q: bool  # every q of a batch is a target, solved or unsolved
    aggregate: bool  # also write Results/all_solutions.csv


_MODES = {
    ScanMode.COVERAGE: _Mode(
        batches=_coverage_batches,
        legacy_prefix=True,
        solve=_wide_slice,
        every_q=True,
        aggregate=False,
    ),
    ScanMode.PRIME_COVERAGE: _Mode(
        batches=_prime_batches,
        legacy_prefix=False,
        solve=_prime_slice,
        every_q=False,
        aggregate=True,
    ),
}


def _reload(cfg: BatchConfig, index: int, qs: range) -> tuple[list[SolutionRow], list[int]]:
    """A completed batch's rows and unsolved q, checked against its range."""
    label, where = cfg.mode.value, f"batch {index}, q in [{qs.start}, {qs.stop - 1}]"
    rows = read_results(results_batch_path(index, label, cfg.output_dir), label)
    unsolved = read_results_q(unsolved_path(index, label, cfg.output_dir))
    last = 0
    for q in heapq.merge((r.q for r in rows), unsolved):
        if q <= last or q not in qs:
            raise ResumeError(f"{where}: q = {q} repeats, is out of order or lies outside the batch")
        last = q
    if _MODES[cfg.mode].every_q and len(rows) + len(unsolved) != len(qs):
        raise ResumeError(f"{where}: its files hold {len(rows) + len(unsolved)} q, not {len(qs)}")
    return rows, unsolved


def run_coverage(cfg: BatchConfig, cancel: Optional[Callable[[], bool]] = None) -> list[BatchReport]:
    """Scan [q_start, q_max] batch by batch in the mode `cfg.mode` names.

    Batches in `cfg.skip_batches` are reloaded from their files and checked
    against their range.  In coverage mode, small q (below the cube-probe
    horizon) are classified sequentially with the legacy scan semantics so
    the artifacts match the reference CSVs.  The rest of each batch is cut
    into contiguous range slices that fan out across workers.  The prefix
    and the pool are only set up when a batch that needs them runs.
    """
    mode, label = _MODES[cfg.mode], cfg.mode.value
    _prepare_output(cfg)
    batches = mode.batches(cfg)
    to_run = [qs for index, qs in enumerate(batches, start=1) if index not in cfg.skip_batches]
    prefix: dict[int, Optional[SolutionRow]] = {}
    if mode.legacy_prefix and any(qs[0] <= LEGACY_PROBE_LIMIT for qs in to_run):
        # The legacy scan carries state from q to q, so it always runs over
        # the whole prefix, reloaded batches included.
        small = range(cfg.q_start, min(cfg.q_max, LEGACY_PROBE_LIMIT) + 1, cfg.step)
        prefix = {q: _row(w) for q, w in legacy_coverage_scan(small)}

    pool = Pool(cfg.worker_count) if cfg.worker_count > 1 and to_run else None
    parts = 1 if pool is None else POOL_PARTS
    completed = set(cfg.skip_batches)
    reports = []
    all_rows: list[SolutionRow] = []
    try:
        for index, qs in enumerate(batches, start=1):
            resumed = index in cfg.skip_batches
            t0 = time.perf_counter()
            if resumed:
                rows, unsolved = _reload(cfg, index, qs)
            else:
                if cancel is not None and cancel():
                    raise ScanCancelled(f"cancelled before batch {index} completed")
                # prefix values, all <= LEGACY_PROBE_LIMIT, lead the batch
                hits = [(q, prefix[q]) for q in takewhile(prefix.__contains__, qs)]
                tail = _slices(qs[len(hits) :], parts)
                hits.extend(chain.from_iterable(_map(pool, mode.solve, tail)))
                rows = [row for _, row in hits if row is not None]
                unsolved = [q for q, row in hits if row is None]
                write_results_batch(rows, index, label, cfg.output_dir)
                write_unsolved(unsolved, index, label, cfg.output_dir)
                completed.add(index)
                _write_manifest(cfg, completed)
            reports.append(
                BatchReport(
                    batch_index=index,
                    q_range=(qs.start, qs.stop - 1),
                    solved_count=len(rows),
                    tallies=tally(rows),
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
    write_unsolved([q for r in reports for q in r.unsolved], None, label, cfg.output_dir)
    return reports
