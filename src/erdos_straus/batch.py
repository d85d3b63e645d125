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
import signal
import time
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .families import P1, P2, PolyId, check_value
from .numutil import MR_LIMIT, FactorWindow, prime_targets, window_prime_count
from .reports import (
    FAMILY_LABELS,
    ReportFormatError,
    coverage_line,
    file_digest,
    prime_line,
    read_results_q,
    results_batch_path,
    unsolved_path,
    write_lines,
    write_results_aggregate,
    write_results_batch,
    write_unsolved,
)
from .search import (
    LEGACY_PROBE_LIMIT,
    Witness,
    legacy_coverage_scan,
    prime_search_from_x2,
    sweep_from_x2,
    x1_yz,
)

if TYPE_CHECKING:
    from multiprocessing.connection import Connection

MANIFEST_NAME = "checkpoint.jsonl"  # the scan's parameters, then one record per completed batch

PAPER_STEPS = (1, 6)


class ScanMode(Enum):
    COVERAGE = "coverage"
    PRIME_COVERAGE = "prime"


class ResumeError(ReportFormatError):
    """The checkpoint journal, or a batch's files, missing, corrupt or from another run."""


class _Config(NamedTuple):
    q_start: int
    q_max: int
    step: int = 1
    batch_size: int = 1_000_000
    mode: ScanMode = ScanMode.COVERAGE
    worker_count: int = 1
    output_dir: Path = Path(".")


class BatchConfig(_Config):
    """A scan's parameters, checked when the config is built (a NamedTuple
    cannot define its own `__new__`, hence the base class)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.q_start < 1 or self.q_start > self.q_max:
            raise ValueError(f"need 1 <= q_start <= q_max, got {self.q_start} and {self.q_max}")
        if self.step < 1 or self.batch_size < 1 or self.worker_count < 1:
            raise ValueError("step, batch_size and worker_count must be >= 1")
        # the largest n whose primality a scan may test: 4q+1, and in the prime
        # search the n its y = 3 stage factors, 11q+3
        top = 11 * self.q_max + 3 if self.mode is ScanMode.PRIME_COVERAGE else 4 * self.q_max + 1
        if top >= MR_LIMIT:
            raise ValueError(f"q_max = {self.q_max} is too large: primality is proven only below {MR_LIMIT}")
        if self.mode is ScanMode.PRIME_COVERAGE and self.step != 6:
            raise ValueError("prime coverage requires step = 6")
        if self.step not in PAPER_STEPS:
            import logging  # about 8 ms at import, for this one warning

            logging.getLogger(__name__).warning("step=%d is not one of the reference runs (1 or 6)", self.step)
        return self

    @classmethod
    def _make(cls, iterable):  # so that `_replace` checks its config too
        return cls(*iterable)


class BatchReport(NamedTuple):
    batch_index: int
    q_range: tuple[int, int]
    solved_count: int
    tallies: dict[PolyId, int]
    unsolved: list[int]
    elapsed_seconds: float
    resumed: bool = False


_INTERRUPTS = {signal.SIGINT, signal.SIGTERM}


def _worker(fn, share: list, conn: Connection, readers: tuple) -> None:
    """A scan's worker process: `fn` of each item of its share, each result sent on `conn`
    in order, or the first exception raised with this process's traceback, and then it ends.
    It ignores SIGINT, which a terminal's Ctrl-C sends the whole process group, and takes
    SIGTERM's default action, not the parent's handler: the parent alone is interrupted.
    It was forked with both blocked, and unblocks them once they are set."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, _INTERRUPTS)
    for reader in readers:  # the copies that fork gave it: the parent's exit, even a crash, ends the pipe
        reader.close()
    try:
        for item in share:
            conn.send(fn(item))
    except BrokenPipeError:  # the parent has gone
        pass
    except Exception as exc:  # the parent raises it
        from multiprocessing.pool import ExceptionWithTraceback

        conn.send(ExceptionWithTraceback(exc, exc.__traceback__))


def _map(processes: int, fn, work: Sequence[Sequence]) -> Iterator[list]:
    """`fn` over each batch's items, one list per batch, in batch order: in this process, or
    with `processes` >= 2 in as many workers, each forked with its whole share, item i of
    every batch in worker i mod `processes`.  A worker sends each result on a one-way pipe of
    its own, which the parent only reads, batch by batch: the workers compute while the
    parent writes, and a worker waits once an unread result fills its pipe.  A worker
    stopped at any instant leaves no lock held or message cut short that another process
    waits on, and one that ends before its work is done fails the scan with a
    ChildProcessError at the parent's read.  SIGINT and SIGTERM stay blocked until every
    worker forked is recorded, so an interrupt at any instant, like closing the generator
    early, terminates them all.  The workers are joined, their exit handlers run, before
    the last batch is yielded."""
    if processes < 2:
        yield from ([fn(item) for item in items] for items in work)
        return
    import multiprocessing  # about 10 ms to load, which a serial scan does not pay

    conns, workers = [], []
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, ())  # the mask as found, to put back
    try:
        try:
            signal.pthread_sigmask(signal.SIG_BLOCK, _INTERRUPTS)
            for w in range(processes):  # forked, as Linux's default start method does
                here, there = multiprocessing.Pipe(duplex=False)
                conns.append(here)
                share = [item for items in work for item in items[w::processes]]
                worker = multiprocessing.Process(target=_worker, args=(fn, share, there, tuple(conns)), daemon=True)
                worker.start()
                workers.append(worker)
                there.close()  # the worker's end is in the worker alone, so its exit ends the pipe
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)  # an interrupt held meanwhile lands here
        for k, items in enumerate(work, start=1):
            results = []
            for i in range(len(items)):
                try:
                    result = conns[i % processes].recv()
                except (EOFError, OSError):  # the worker's end of the pipe closed, before or inside a result
                    raise ChildProcessError("a scan's worker process ended before its work was done") from None
                if isinstance(result, BaseException):
                    raise result
                results.append(result)
            if k == len(work):
                for worker in workers:
                    worker.join()
            yield results
    finally:
        for worker in workers:
            worker.terminate()
            worker.join()
        for conn in conns:
            conn.close()


# A coverage slice's factor window spans [q_first + 1, q_last + WINDOW_MARGIN]:
# the sweep asks for the divisors of q + x, and nearly every q in the hard
# class is classified at x <= WINDOW_MARGIN (larger x fall back to per-n
# factorization; an oblong q, whose sweep would run to x ~ sqrt(q), asks for
# no q + x, as `sweep_from_x2` answers it in closed form).  WINDOW_SPAN caps
# the window, which bounds worker memory.
WINDOW_MARGIN = 64
WINDOW_SPAN = 1 << 16


def _slices(qs: range, parts: int) -> list[range]:
    """`qs` cut into about `parts` contiguous slices, each window-sized.

    A slice is made to hold at least as many q as its window sieves primes,
    so that the sieve costs at most about one prime per q.  It costs more
    where the window cap is below that count, and where the whole batch
    holds fewer q: a batch of 150 multiples of 6 near 10^9 is one slice
    whose window sieves 3401 to 3409 primes, about 23 per q.
    """
    if not qs:
        return []
    cap = (WINDOW_SPAN - WINDOW_MARGIN) // qs.step + 1
    least = window_prime_count(qs[-1] + WINDOW_MARGIN)
    size = min(max(-(-len(qs) // parts), least), cap)
    return [qs[i : i + size] for i in range(0, len(qs), size)]


class SliceResult(NamedTuple):
    """A slice solver's answer: the solved rows as CSV text in q order, the
    unsolved q, and the row count per family, P1 to P4."""

    text: str
    unsolved: list[int]
    counts: list[int]


def _coverage_result(hits: Iterable[tuple[int, Optional[Witness]]]) -> SliceResult:
    """The slice result of coverage witnesses (None: unsolved) in q order."""
    lines, unsolved, counts = [], [], [0] * len(PolyId)
    for q, w in hits:
        if w is None:
            unsolved.append(q)
        else:
            lines.append(coverage_line(w))
            counts[w.poly - 1] += 1
    return SliceResult("".join(lines), unsolved, counts)


def _wide_slice(qs: range) -> SliceResult:
    """wide_search on each q of a contiguous slice, sharing one factor window.
    x = 1 is settled inline by the rule `wide_search` states, each row checked
    and written with no Witness; only the q it leaves run `sweep_from_x2`."""
    window = FactorWindow(qs[0] + 1, qs[-1] + WINDOW_MARGIN)
    least_prime, p1_label, p2_label = window.least_prime_factor, FAMILY_LABELS[0], FAMILY_LABELS[1]
    lines, unsolved, counts = [], [], [0] * len(PolyId)
    append = lines.append
    p1 = p2 = 0
    for q in qs:
        n = q + 1
        if n % 3 == 0:
            z = n // 3
            check_value(P1, (1, 1, z), q)
            append(f"{q},1,1,{z},{p1_label}\n")
            p1 += 1
        elif n % 2 == 0:
            z = n // 2
            check_value(P2, (1, 1, z), q)
            append(f"{q},1,1,{z},{p2_label}\n")
            p2 += 1
        elif (p := least_prime(n, 3, 2)) is not None:
            y, z = (p + 1) // 3, n // p
            check_value(P2, (1, y, z), q)
            append(f"{q},1,{y},{z},{p2_label}\n")
            p2 += 1
        elif (w := sweep_from_x2(q, window)) is not None:
            append(coverage_line(w))
            counts[w.poly - 1] += 1
        else:
            unsolved.append(q)
    return SliceResult("".join(lines), unsolved, [counts[0] + p1, counts[1] + p2, *counts[2:]])


def _prime_slice(qs: range) -> SliceResult:
    """prime_witness_search on each q of a slice with 4q+1 prime; one sieve pass,
    `prime_targets`, finds those q and the x = 1 prime p, whose rows are written
    with no search, each checked as P2; the rest run `prime_search_from_x2`."""
    lines, unsolved = [], []
    for q, p in prime_targets(qs):
        if p is not None:
            y, z = x1_yz(q + 1, p)
            check_value(P2, (1, y, z), q)
            lines.append(f"{q},1,{y},{z}\n")
        elif (w := prime_search_from_x2(q)) is None:
            unsolved.append(q)
        else:
            lines.append(prime_line(w))
    return SliceResult("".join(lines), unsolved, [0, len(lines), 0, 0])


def _prepare_output(cfg: BatchConfig) -> None:
    try:
        cfg.output_dir.mkdir(parents=True, exist_ok=True)
        probe = cfg.output_dir / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise OSError(f"output directory {cfg.output_dir} is not writable: {exc}") from exc


def _manifest_params(cfg: BatchConfig) -> dict:
    return {"mode": cfg.mode.value} | {k: getattr(cfg, k) for k in ("q_start", "q_max", "step", "batch_size")}


_RECORD_KEYS = {"batch", "tallies", "sha256", "unsolved", "unsolved_sha256"}


def _read_manifest(cfg: BatchConfig, batch_count: int) -> dict[int, dict]:
    """The records, by batch, of the journal in output_dir, after checking that it belongs
    to this scan of batch_count batches and that each record is well formed.  What follows
    its last newline is a record that a crash cut short, if any: that batch reruns."""
    path = cfg.output_dir / MANIFEST_NAME
    if not path.exists():
        raise ResumeError(f"no checkpoint manifest at {path}")
    try:
        head, *lines = path.read_text().split("\n")[:-1] or [""]  # no whole line: no header
        data = json.loads(head)
        params = {k: data[k] for k in _manifest_params(cfg)}
        records = {}
        for r in map(json.loads, lines):
            b = r.get("batch") if type(r) is dict else None
            if type(b) is not int or b in records:
                raise ValueError(f"batch {b} is recorded twice" if type(b) is int else f"a record names no batch: {r}")
            # the five keys; a tally per family and the unsolved count, ints >= 0
            counts = [*r["tallies"], r["unsolved"]] if r.keys() == _RECORD_KEYS and type(r["tallies"]) is list else []
            if len(counts) != len(PolyId) + 1 or any(type(n) is not int or n < 0 for n in counts):
                raise ValueError(f"batch {b} has no record of its tallies, unsolved count and digests: {r}")
            records[b] = r
    except (ValueError, TypeError, KeyError) as exc:
        raise ResumeError(f"corrupt checkpoint manifest {path}: {exc}") from exc
    if params != _manifest_params(cfg):
        raise ResumeError(f"checkpoint {path} was written by a different scan: {params}")
    stray = sorted(b for b in records if not 1 <= b <= batch_count)
    if stray:
        raise ResumeError(f"checkpoint {path} records batches {stray}; this scan has batches 1 to {batch_count}")
    return records


def _coverage_batches(cfg: BatchConfig) -> list[range]:
    """Runs of batch_size consecutive values of the stepped range."""
    last = cfg.q_max - (cfg.q_max - cfg.q_start) % cfg.step
    span = cfg.batch_size * cfg.step
    return [
        range(lo, min(lo + span - cfg.step, last) + 1, cfg.step)
        for lo in range(cfg.q_start, last + 1, span)
    ]


def _prime_batches(cfg: BatchConfig) -> list[range]:
    """Value-width blocks of q = 6c: block k holds the multiples of 6 from
    q_start + k * batch_size up to the next block's start, both aligned up
    to a multiple of 6; a block that holds no q is dropped."""

    def up6(n: int) -> int:
        return n + (-n) % 6

    return [
        block
        for lo in range(cfg.q_start, cfg.q_max + 1, cfg.batch_size)
        if (block := range(up6(lo), min(up6(lo + cfg.batch_size), cfg.q_max + 1), 6))
    ]


class _Mode(NamedTuple):
    """What differs between the scan modes; `ScanMode.value` names the artifacts."""

    batches: Callable[[BatchConfig], list[range]]
    legacy_prefix: bool  # classify q <= LEGACY_PROBE_LIMIT with the legacy scan
    solve: Callable[[range], SliceResult]  # a slice's rows as text, unsolved q and counts
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


def _reload(cfg: BatchConfig, index: int, qs: range, record: dict) -> BatchReport:
    """A completed batch's report, its tallies from its journal record and its unsolved
    q from its file, once its files match the record's digests and counts; no result
    row is parsed."""
    label, where = cfg.mode.value, f"batch {index}, q in [{qs.start}, {qs.stop - 1}]"
    paths = results_batch_path(index, label, cfg.output_dir), unsolved_path(index, label, cfg.output_dir)
    (digest, newlines), (unsolved_digest, _) = map(file_digest, paths)
    for path, got, key in zip(paths, (digest, unsolved_digest), ("sha256", "unsolved_sha256")):
        if got != record[key]:
            raise ResumeError(f"{where}: {path.name} is not the file the checkpoint recorded (sha256 differs)")
    rows, unsolved = newlines - 1, read_results_q(paths[1])  # the results file's newlines less its header
    solved, recorded = sum(record["tallies"]), record["unsolved"]
    if _MODES[cfg.mode].every_q and solved + recorded != len(qs):
        raise ResumeError(f"{where}: the checkpoint recorded {solved + recorded} q, not {len(qs)}")
    if (rows, len(unsolved)) != (solved, recorded):
        raise ResumeError(
            f"{where}: its files hold {rows} rows and {len(unsolved)} unsolved q, "
            f"the checkpoint recorded {solved} and {recorded}"
        )
    # The digests show that a scan wrote the files, and the q that it wrote them for this
    # batch: the first row's and every unsolved q.  A prime batch may have neither to check.
    with open(paths[0], "rb") as fh:
        first = fh.readline() and fh.readline()  # past the header
    if first and int(first.split(b",")[0]) not in qs or any(q not in qs for q in unsolved):
        raise ResumeError(f"{where}: its files hold q outside the batch")
    tallies = dict(zip(PolyId, record["tallies"]))
    return BatchReport(index, (qs.start, qs.stop - 1), solved, tallies, unsolved, 0.0, resumed=True)


def run_coverage(cfg: BatchConfig, resume: bool = False) -> list[BatchReport]:
    """Scan [q_start, q_max] batch by batch in the mode `cfg.mode` names.

    With `resume`, a batch the journal in output_dir records complete is
    not rerun: `_reload` checks its files and takes its tallies from the
    record.  Every such batch is checked before any batch is solved, so a
    failed check raises ResumeError having started no worker and written
    nothing.  In coverage mode, small q (below the cube-probe horizon) are
    classified sequentially with the legacy scan semantics so the artifacts
    match the reference CSVs.  The rest of each batch is cut into one
    contiguous range slice per worker, solved by the workers while the
    parent writes the batches before; each comes back as CSV text, its
    unsolved q and its per-family counts, and the texts are written in q
    order.  The prefix is classified once the parent holds the slices of the
    first batch that needs it, while the workers solve later batches.  The
    prefix and the workers are only set up when a batch that needs them
    runs; a scan inside the prefix needs no workers.  An exception, an
    interrupt's too, stops the scan and terminates the workers; the batch
    in progress leaves no record, and `resume` reruns it.
    """
    mode, label = _MODES[cfg.mode], cfg.mode.value
    batches = mode.batches(cfg)
    recorded = _read_manifest(cfg, len(batches)) if resume else {}
    done = {b: _reload(cfg, b, batches[b - 1], recorded[b]) for b in sorted(recorded)}  # before any solve
    _prepare_output(cfg)
    journal = cfg.output_dir / MANIFEST_NAME
    # The legacy scan carries state from q to q, so it always runs over the
    # whole prefix, reloaded batches included, once a batch to solve needs it.
    top = min(cfg.q_max, LEGACY_PROBE_LIMIT) if mode.legacy_prefix else 0
    small, prefix = range(cfg.q_start, top + 1, cfg.step), {}
    # per batch to solve: how many prefix values lead it, and the rest cut into
    # one slice per worker; no more workers start than a batch has slices
    todo = [(index, qs, len(range(qs.start, min(qs.stop, top + 1), qs.step)))
            for index, qs in enumerate(batches, start=1) if index not in done]
    work = [_slices(qs[lead:], cfg.worker_count) for _, qs, lead in todo]
    solved = _map(min(cfg.worker_count, max(map(len, work), default=0)), mode.solve, work)
    try:
        for index, qs, lead in todo:
            t0 = time.perf_counter()
            pieces = next(solved)
            if lead:
                prefix = prefix or dict(legacy_coverage_scan(small))
                pieces.insert(0, _coverage_result((q, prefix[q]) for q in qs[:lead]))
            unsolved = [q for r in pieces for q in r.unsolved]
            tallies = {p: sum(r.counts[p - 1] for r in pieces) for p in PolyId}
            results = write_results_batch((r.text for r in pieces), index, label, cfg.output_dir)
            unsolved_file = write_unsolved(unsolved, index, label, cfg.output_dir)
            record = {"batch": index, "tallies": list(tallies.values()), "sha256": file_digest(results)[0],
                      "unsolved": len(unsolved), "unsolved_sha256": file_digest(unsolved_file)[0]}
            if index == todo[0][0]:  # the run's first batch writes the whole journal, records in batch order
                recorded[index] = record
                write_lines(journal, map(json.dumps, [_manifest_params(cfg), *map(recorded.get, sorted(recorded))]))
            else:
                with open(journal, "a", encoding="ascii") as fh:
                    fh.write(json.dumps(record) + "\n")
            done[index] = BatchReport(index, (qs.start, qs.stop - 1), sum(tallies.values()), tallies, unsolved,
                                      time.perf_counter() - t0)
    finally:
        solved.close()  # the workers must not run on after the scan failed or was interrupted
    reports = [done[index] for index in sorted(done)]

    if mode.aggregate:
        write_results_aggregate(
            (results_batch_path(r.batch_index, label, cfg.output_dir) for r in reports), cfg.output_dir
        )
    write_unsolved([q for r in reports for q in r.unsolved], None, label, cfg.output_dir)
    return reports
