import hashlib
import json
import multiprocessing
import os
import signal
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, reject, settings, strategies as st

from erdos_straus import batch, search
from erdos_straus.batch import (
    MANIFEST_NAME,
    BatchConfig,
    ResumeError,
    ScanMode,
    run_coverage,
)
from erdos_straus.families import PolyId
from erdos_straus.numutil import MR_LIMIT, is_prime, window_prime_count
from erdos_straus.reports import (
    file_digest,
    read_results,
    read_results_q,
    results_batch_path,
    unsolved_path,
    write_results_batch,
    write_text,
    write_unsolved,
)
from erdos_straus.search import legacy_coverage_scan, prime_witness_search, wide_search

from .journal import edit_journal, journal_records, tree_bytes
from .oracles import Row, prime_batches_by_loop, rows_text, wide_slice_per_q, witness_to_row
from .test_search import _Q_FAR


def _cfg(tmp_path, **kw):
    base = dict(
        q_start=1,
        q_max=300,
        step=1,
        batch_size=100,
        mode=ScanMode.COVERAGE,
        worker_count=1,
        output_dir=tmp_path,
    )
    base.update(kw)
    return BatchConfig(**base)


def test_config_validation(tmp_path):
    with pytest.raises(ValueError):
        _cfg(tmp_path, q_start=0)
    with pytest.raises(ValueError):
        _cfg(tmp_path, q_start=10, q_max=5)
    with pytest.raises(ValueError):
        _cfg(tmp_path, step=0)
    with pytest.raises(ValueError):
        _cfg(tmp_path, mode=ScanMode.PRIME_COVERAGE, step=1)
    with pytest.raises(ValueError):
        _cfg(tmp_path, worker_count=0)
    # every number a scan tests for primality stays below the proven bound:
    # 4q+1, and 11(4q+1) + 1 in the prime search
    for mode, step, top in ((ScanMode.COVERAGE, 1, (MR_LIMIT - 1) // 4),
                            (ScanMode.PRIME_COVERAGE, 6, -(-(MR_LIMIT - 12) // 44))):
        assert _cfg(tmp_path, q_start=top - 1, q_max=top - 1, mode=mode, step=step)
        with pytest.raises(ValueError, match="q_max"):
            _cfg(tmp_path, q_start=top - 1, q_max=top, mode=mode, step=step)


@pytest.mark.parametrize("kw, message", [
    (dict(q_start=0), "need 1 <= q_start <= q_max, got 0 and 300"),
    (dict(q_start=10, q_max=5), "need 1 <= q_start <= q_max, got 10 and 5"),
    (dict(step=0), "step, batch_size and worker_count must be >= 1"),
    (dict(batch_size=0), "step, batch_size and worker_count must be >= 1"),
    (dict(worker_count=-1), "step, batch_size and worker_count must be >= 1"),
    (dict(q_max=MR_LIMIT // 4), f"q_max = {MR_LIMIT // 4} is too large: primality is proven only below {MR_LIMIT}"),
    (dict(mode=ScanMode.PRIME_COVERAGE), "prime coverage requires step = 6"),
])
def test_config_rejects_each_input_with_its_message(tmp_path, kw, message):
    with pytest.raises(ValueError) as exc:
        _cfg(tmp_path, **kw)
    assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:  # a config built from another is checked too
        _cfg(tmp_path)._replace(**kw)
    assert str(exc.value) == message


def test_config_is_immutable_and_compares_by_value(tmp_path):
    cfg = _cfg(tmp_path)
    with pytest.raises(AttributeError):
        cfg.q_max = 400
    assert cfg == _cfg(tmp_path) and hash(cfg) == hash(_cfg(tmp_path))
    assert cfg != _cfg(tmp_path, q_max=400) and cfg._replace(q_max=400) == _cfg(tmp_path, q_max=400)
    assert cfg.q_max == 300 and cfg.output_dir == tmp_path


def test_package_still_exports_the_scan_driver():
    import erdos_straus

    assert erdos_straus.__all__ == [
        "BatchConfig", "BatchReport", "DecompositionRecord", "KzsPoint", "PolyId", "Provenance", "ScanMode",
        "UnitFractionTriple", "UnsolvedError", "Witness", "WitnessTriple", "batch", "check_p4", "decompose",
        "decompose_4q2", "decompose_4q3", "decompose_any", "decompose_case_p1", "decompose_case_p2",
        "decompose_case_p3", "decompose_kzs", "decompose_mult4", "decompose_square", "eval_poly",
        "even_6c2_family", "even_6c4_family", "families", "kzs_condition", "kzs_q", "numutil", "odd_family",
        "prime_witness_search", "reports", "run_coverage", "search", "shifted_value", "small_cube_search",
        "solve_p1_given_x", "solve_p2_given_x", "solve_p3_given_x", "staged_search", "verify_exact",
        "wide_search",
    ]
    names = {}
    exec("from erdos_straus import *", names)
    assert sorted(n for n in names if n != "__builtins__") == erdos_straus.__all__
    assert names["run_coverage"] is erdos_straus.run_coverage is run_coverage
    assert (names["BatchConfig"], names["BatchReport"], names["ScanMode"]) == (BatchConfig, batch.BatchReport, ScanMode)
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        erdos_straus.no_such_name


def test_nonreference_step_warns(tmp_path, caplog):
    with caplog.at_level("WARNING", logger="erdos_straus.batch"):
        _cfg(tmp_path, step=2)
    assert any("step=2" in r.message for r in caplog.records)


def test_run_coverage_small(tmp_path):
    cfg = _cfg(tmp_path)
    reports = run_coverage(cfg)
    assert [r.batch_index for r in reports] == [1, 2, 3]
    assert [r.q_range for r in reports] == [(1, 100), (101, 200), (201, 300)]
    assert all(not r.unsolved for r in reports)
    assert sum(r.solved_count for r in reports) == 300

    # artifacts agree with the sequential scan semantics
    expected = dict(legacy_coverage_scan(range(1, 301)))
    rows = []
    for i in (1, 2, 3):
        rows.extend(read_results(tmp_path / f"results_batch{i}.csv"))
    assert rows == [expected[q] for q in range(1, 301)]
    assert read_results_q(tmp_path / "unsolved_all.csv") == []


def test_run_coverage_tallies_match_rows(tmp_path):
    cfg = _cfg(tmp_path, q_max=120, batch_size=60)
    reports = run_coverage(cfg)
    for r in reports:
        rows = list(read_results(tmp_path / f"results_batch{r.batch_index}.csv"))
        assert sum(r.tallies.values()) == r.solved_count == len(rows)
        for poly in PolyId:
            assert r.tallies[poly] == sum(1 for w in rows if w.poly is poly)


def test_run_coverage_worker_counts_byte_identical(tmp_path):
    # Every file, the journal included, on scans of several batches whose
    # last batch is short, so that the workers run ahead of the batch being
    # written: cover --q-max 7000 --batch-size 2000 has 4 batches, and the
    # prime scan 3 blocks.
    scans = {
        "cover-2200": dict(q_max=2200),
        "cover-7000": dict(q_max=7000, batch_size=2000),
        "primes": dict(_PRIME, q_max=30_000, batch_size=10_000),
    }
    for name, scan in scans.items():
        outs = {}
        for workers in (1, 2, 3):
            out = tmp_path / name / f"w{workers}"
            run_coverage(_cfg(out, worker_count=workers, **scan))
            outs[workers] = tree_bytes(out)
        assert len(outs[1]) >= 7 and outs[1] == outs[2] == outs[3], name


def test_run_coverage_resume_skips_completed(tmp_path):
    cfg = _cfg(tmp_path)
    first = run_coverage(cfg)
    assert list(journal_records(tmp_path)) == [1, 2, 3]

    second = run_coverage(cfg, resume=True)
    assert all(r.resumed for r in second)
    assert [r.solved_count for r in second] == [r.solved_count for r in first]
    assert [r.tallies for r in second] == [r.tallies for r in first]


def _forbidden(*args, **kwargs):
    raise AssertionError("this resume must not get here")


def test_full_resume_computes_no_prefix_and_starts_no_pool(tmp_path, monkeypatch):
    cfg = _cfg(tmp_path, worker_count=2)
    first = run_coverage(cfg)
    monkeypatch.setattr(batch, "legacy_coverage_scan", _forbidden)
    monkeypatch.setattr(multiprocessing.Process, "start", _forbidden)
    second = run_coverage(cfg, resume=True)
    assert all(r.resumed for r in second)
    assert [r.tallies for r in second] == [r.tallies for r in first]


@pytest.mark.parametrize("workers", [3, 100_000])
def test_pool_starts_no_more_workers_than_a_batch_has_slices(tmp_path, monkeypatch, workers):
    # the worker count that each scan asks batch._map for, which runs its work
    # inline here, so that a test can ask for any count without starting a process
    sizes, inline = [], batch._map
    monkeypatch.setattr(batch, "_map", lambda processes, fn, work: sizes.append(processes) or inline(1, fn, work))
    cfg = _cfg(tmp_path, q_start=10**6, q_max=10**6 + 2999, batch_size=2000, worker_count=workers)
    reports = run_coverage(cfg)
    slices = [len(batch._slices(range(lo, hi + 1), workers)) for lo, hi in (r.q_range for r in reports)]
    # one slice per worker, each at least as long as its window's 168 primes
    assert slices == {3: [3, 3], 100_000: [12, 6]}[workers]
    assert sizes == [min(workers, 12)]
    # a scan whose every batch is one slice starts no worker
    run_coverage(_cfg(tmp_path / "one", q_start=10**6, q_max=10**6 + 99, worker_count=workers))
    assert sizes == [min(workers, 12), 1]


# the slices each scan has solved, counted across its processes
_SOLVED = {}


def _counted_slice(qs):
    result = batch._wide_slice(qs)
    with _SOLVED["count"].get_lock():
        _SOLVED["count"].value += 1
    return result


def test_a_worker_runs_ahead_only_until_its_pipe_is_full(tmp_path, monkeypatch):
    # 6 batches of 8000 q from 10^6, 2 slices each, one per worker.  A slice's result,
    # about 88 KB, is more than a 64 KiB pipe holds, so a worker that has solved one
    # slice past those the parent has read waits in its send.  Each batch's write
    # stalls, so that the workers solve what they may meanwhile: at the end of batch
    # k's write, the 2k slices read and at most one more per worker.  Batches come
    # back in order, the same as a serial scan's.
    monkeypatch.setitem(_SOLVED, "count", multiprocessing.Value("i", 0))
    coverage = batch._MODES[ScanMode.COVERAGE]
    monkeypatch.setitem(batch._MODES, ScanMode.COVERAGE, coverage._replace(solve=_counted_slice))
    write, solved = batch.write_results_batch, []

    def slow_write(texts, index, *args):
        time.sleep(0.5)
        solved.append(_SOLVED["count"].value)
        return write(texts, index, *args)

    monkeypatch.setattr(batch, "write_results_batch", slow_write)
    scan = dict(q_start=10**6, q_max=10**6 + 6 * 8000 - 1, batch_size=8000)
    run_coverage(_cfg(tmp_path / "pooled", worker_count=2, **scan))
    assert len(solved) == 6 and solved[-1] == 12
    assert all(2 * k <= count <= 2 * k + 2 for k, count in enumerate(solved, start=1)), solved
    assert any(count > 2 * k for k, count in enumerate(solved, start=1)), solved  # the workers ran ahead
    monkeypatch.undo()
    run_coverage(_cfg(tmp_path / "inline", **scan))
    assert tree_bytes(tmp_path / "pooled") == tree_bytes(tmp_path / "inline")


# The teardown scans: 3 batches of 1000 q from 10^6, 2 slices each.  _FAULTS
# names what the slices of a batch do instead of solving: "raise", or "stall"
# for a minute before solving, so that a scan which lets its workers run on
# after it has failed takes that long to return.
_TEARDOWN = dict(q_start=10**6, q_max=10**6 + 2999, batch_size=1000, worker_count=2)
_FAULTS: dict[int, str] = {}


def _faulty_slice(qs):
    fault = _FAULTS.get((qs[0] - 10**6) // 1000 + 1)
    if fault == "raise":
        raise RuntimeError(f"the slice from q = {qs[0]} failed")
    if fault == "stall":
        time.sleep(60)
    return batch._wide_slice(qs)


def _interrupt_the_scan():
    """Interrupt the scan as a terminal's Ctrl-C does: SIGINT to the scan's process,
    whose default handler raises KeyboardInterrupt there.  From one of the scan's
    worker processes, which ignore SIGINT, it goes to their parent."""
    parent = multiprocessing.parent_process()
    os.kill(os.getpid() if parent is None else parent.pid, signal.SIGINT)


@pytest.mark.parametrize("fault, faults, error", [
    ("cancel", {2: "stall"}, KeyboardInterrupt),  # the parent waits for batch 2 when it is interrupted
    ("worker", {2: "raise", 3: "stall"}, RuntimeError),
    ("write", {3: "stall"}, OSError),
], ids=["cancel", "worker-error", "write-error"])
def test_a_failed_pooled_scan_stops_its_workers_and_resumes(tmp_path, monkeypatch, fault, faults, error):
    cfg = _cfg(tmp_path / "failed", **_TEARDOWN)
    monkeypatch.setattr(f"{__name__}._FAULTS", faults)
    coverage = batch._MODES[ScanMode.COVERAGE]
    monkeypatch.setitem(batch._MODES, ScanMode.COVERAGE, coverage._replace(solve=_faulty_slice))
    write = batch.write_unsolved

    def write_unsolved(unsolved, index, *args):
        if fault == "write" and index == 2:
            raise OSError("no space left on device")
        return write(unsolved, index, *args)

    monkeypatch.setattr(batch, "write_unsolved", write_unsolved)
    write_lines = batch.write_lines

    def journal_then_interrupt(path, lines):  # batch 1's record; the parent then waits for batch 2
        write_lines(path, lines)
        threading.Timer(0.2, _interrupt_the_scan).start()

    if fault == "cancel":
        monkeypatch.setattr(batch, "write_lines", journal_then_interrupt)

    def expire(signum, frame):  # not an OSError, which multiprocessing's waits swallow
        raise AssertionError("the failed scan is waiting for its stalled workers")

    # A SIGTERM handler in the parent that does not stop a process, which forked
    # workers inherit, and SIGINT's default handler, which raises
    # KeyboardInterrupt; and a deadline well inside the stalled minute,
    # repeated each second so that it breaks every wait of the teardown.
    handlers = {signal.SIGTERM: signal.signal(signal.SIGTERM, lambda signum, frame: None),
                signal.SIGINT: signal.signal(signal.SIGINT, signal.default_int_handler),
                signal.SIGALRM: signal.signal(signal.SIGALRM, expire)}
    signal.setitimer(signal.ITIMER_REAL, 30, 1)
    try:
        with pytest.raises(error) as raised:
            run_coverage(cfg)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        for signum, handler in handlers.items():
            signal.signal(signum, handler)
    if fault == "worker":  # the worker's traceback comes with its error
        assert "in _faulty_slice" in str(raised.value.__cause__)
    assert multiprocessing.active_children() == []
    assert list(journal_records(cfg.output_dir)) == [1]

    monkeypatch.undo()
    reports = run_coverage(cfg, resume=True)
    assert [r.resumed for r in reports] == [True, False, False]
    run_coverage(_cfg(tmp_path / "whole", **_TEARDOWN))
    assert tree_bytes(cfg.output_dir) == tree_bytes(tmp_path / "whole")


def _dying_slice(qs):
    if qs[0] == 10**6 + 2000:  # the last batch's first slice: its worker ends, as a killed one does
        os._exit(1)
    return batch._wide_slice(qs)


# each batch of 1000 q cut into 2 slices, one per worker, or with a smaller
# window cap into 4, so that the worker that ends holds another slice of batch 3
@pytest.mark.parametrize("window_span, slices", [(batch.WINDOW_SPAN, 2), (batch.WINDOW_MARGIN + 249, 4)],
                         ids=["1-slice", "2-slices"])
def test_a_pooled_scan_whose_worker_ends_fails_instead_of_waiting(tmp_path, monkeypatch, window_span, slices):
    monkeypatch.setattr(batch, "WINDOW_SPAN", window_span)
    assert len(batch._slices(range(10**6, 10**6 + 1000), 2)) == slices
    coverage = batch._MODES[ScanMode.COVERAGE]
    monkeypatch.setitem(batch._MODES, ScanMode.COVERAGE, coverage._replace(solve=_dying_slice))

    def expire(signum, frame):
        raise AssertionError("the scan is waiting for a worker that has ended")

    handler = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 30)
    try:
        with pytest.raises(ChildProcessError):  # at the parent's read of batch 3
            run_coverage(_cfg(tmp_path, **_TEARDOWN))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, handler)
    assert multiprocessing.active_children() == []
    assert list(journal_records(tmp_path)) == [1, 2]


def test_a_scan_interrupted_while_its_workers_start_leaves_none(tmp_path, monkeypatch):
    # the interrupt lands as the second of three workers is about to be forked
    started, start = [], multiprocessing.Process.start

    def start_then_interrupt(process):
        if started:
            raise KeyboardInterrupt
        started.append(process)
        start(process)

    monkeypatch.setattr(multiprocessing.Process, "start", start_then_interrupt)
    with pytest.raises(KeyboardInterrupt):
        run_coverage(_cfg(tmp_path, **_TEARDOWN | {"worker_count": 3}))
    assert started[0].exitcode == -signal.SIGTERM  # terminated, not left running its share
    assert multiprocessing.active_children() == []
    assert list(tmp_path.iterdir()) == []


def test_an_interrupt_just_after_a_fork_leaves_no_worker(tmp_path, monkeypatch):
    # SIGINT reaches the parent right after each worker is forked, before the
    # parent has recorded it: the interrupt waits until every worker is recorded
    start = multiprocessing.Process.start

    def start_then_interrupt(process):
        start(process)
        os.kill(os.getpid(), signal.SIGINT)

    monkeypatch.setattr(multiprocessing.Process, "start", start_then_interrupt)
    handler = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        with pytest.raises(KeyboardInterrupt):
            run_coverage(_cfg(tmp_path, **_TEARDOWN))
    finally:
        signal.signal(signal.SIGINT, handler)
    assert multiprocessing.active_children() == []
    assert list(tmp_path.iterdir()) == []


def _forget_batches(out, *indexes):
    """Rewrite the journal in `out` as if `indexes` had never completed."""
    def forget(records):
        for b in indexes:
            del records[b]

    edit_journal(out, forget)


def test_resume_past_the_prefix_skips_it(tmp_path, monkeypatch):
    cfg = _cfg(tmp_path, q_max=2400, batch_size=2100)
    run_coverage(cfg)
    before = (tmp_path / "results_batch2.csv").read_bytes()
    manifest = (tmp_path / batch.MANIFEST_NAME).read_bytes()
    # a crash after batch 1: batch 2 wrote no files and no journal record
    (tmp_path / "results_batch2.csv").unlink()
    (tmp_path / "unsolved_batch2.csv").unlink()
    _forget_batches(tmp_path, 2)
    monkeypatch.setattr(batch, "legacy_coverage_scan", _forbidden)
    reports = run_coverage(cfg, resume=True)
    assert [r.resumed for r in reports] == [True, False]
    assert (tmp_path / "results_batch2.csv").read_bytes() == before
    assert (tmp_path / batch.MANIFEST_NAME).read_bytes() == manifest


def test_chunked_coverage_matches_per_q_search_near_1e9(tmp_path, monkeypatch):
    # a small window cap forces several factor windows per batch
    monkeypatch.setattr(batch, "WINDOW_SPAN", 600)
    q0 = 1_000_000_002
    cfg = _cfg(tmp_path, q_start=q0, q_max=q0 + 6 * 299, step=6, batch_size=300)
    run_coverage(cfg)
    rows = list(read_results(tmp_path / "results_batch1.csv"))
    assert rows == [wide_search(q) for q in range(q0, q0 + 6 * 300, 6)]


@pytest.mark.parametrize("step", [1, 6])
@pytest.mark.parametrize("workers", [1, 2, 3, 64])
def test_slices_are_contiguous_and_window_bounded(step, workers):
    qs = range(7, 7 + step * 50_000, step)
    slices = batch._slices(qs, workers)
    assert all(isinstance(s, range) and s.step == step for s in slices)
    assert [q for s in slices for q in s] == list(qs)
    assert len(slices) >= workers
    assert all(s[-1] - s[0] + batch.WINDOW_MARGIN <= batch.WINDOW_SPAN for s in slices)
    assert batch._slices(range(7, 7, step), workers) == []


def test_small_pooled_batch_near_1e9_is_one_slice():
    # a slice near 10^9 sieves 3401 primes; 64 slices of 47 q would each pay for that
    qs = range(1_000_000_002, 1_000_000_002 + 6 * 3001, 6)
    for workers in (2, 3, 64):
        assert batch._slices(qs, workers) == [qs]


@pytest.mark.parametrize("count", [3401, 20_000, 100_000])
def test_pooled_slices_pay_for_their_sieve(count):
    qs = range(1_000_000_002, 1_000_000_002 + 6 * count, 6)
    cap = (batch.WINDOW_SPAN - batch.WINDOW_MARGIN) // 6 + 1
    for workers in (2, 3, 64):
        slices = batch._slices(qs, workers)
        assert [q for s in slices for q in s] == list(qs)
        for s in slices[:-1]:
            assert len(s) >= min(cap, window_prime_count(s[-1] + batch.WINDOW_MARGIN))


def _rows_of(witnesses):
    return "".join(rows_text(witness_to_row(w) for w in witnesses if w is not None))


# Every q from the legacy prefix's end to 10^5, as one slice whose window is
# longer than WINDOW_SPAN, which `_slices` never makes (so is the last range's);
# windows near 10^9, and windows with q+1 = 65537^2 inside, where the factor
# window stops at SIEVE_MAX; each at step 1 and at step 6 (multiples of 6, as
# the step-6 scans run).
@pytest.mark.parametrize("qs", [
    range(2049, 10**5 + 1),
    range(1_000_000_002, 1_000_000_002 + 6 * 3000, 6),
    range(65537**2 - 3000, 65537**2 + 3000),
    range(2052, 10**5 + 1, 6),
    range(10**9 - 3000, 10**9 + 3000),
    range(65537**2 - 1 - 6 * 1500, 65537**2 + 6 * 1500, 6),
    range(10**6 + 2, 10**6 + 2 + 6 * 12_000, 6),
])
def test_coverage_slice_text_is_the_row_rendering(qs):
    got = batch._wide_slice(qs)
    witnesses = [wide_search(q) for q in qs]
    assert got.text == _rows_of(witnesses)
    assert got.unsolved == [q for q, w in zip(qs, witnesses) if w is None]
    assert got.counts == [sum(w.poly is p for w in witnesses if w) for p in PolyId]


@pytest.mark.parametrize("step", [1, 6])
@pytest.mark.parametrize("first", [2052, 10**6 + 2, 10**9 + 2, 65537**2 - 1801])
def test_coverage_slice_matches_the_per_q_path(first, step):
    # multiples of 6 from each start, as the step-6 scans run, cut into slices
    # as a scan cuts them: from the first start every q up to 10^5; the last
    # start puts q+1 = 65537^2 in the slice, past the window's cap
    qs = range(first, 10**5 + 1 if first < 10**5 else first + 3600, step)
    pieces = [batch._wide_slice(s) for s in batch._slices(qs, 3)]
    got = batch.SliceResult("".join(r.text for r in pieces), [q for r in pieces for q in r.unsolved],
                            [sum(c) for c in zip(*(r.counts for r in pieces))])
    assert got == wide_slice_per_q(qs)
    assert got.counts[0] and got.counts[1]  # x = 1 rows of both families


def test_prefix_text_is_the_row_rendering():
    hits = list(legacy_coverage_scan(range(1, 2049)))
    got = batch._coverage_result(hits)
    assert got.text == _rows_of(w for _, w in hits)
    assert all(got.counts)  # rows of every family, p3 and p4 included
    assert got.unsolved == []


def _around(q, count):
    """count multiples of 6 centred on q."""
    first = q - q % 6 - 6 * (count // 2)
    return range(first, first + 6 * count, 6)


def test_prime_slice_text_is_the_row_rendering():
    # q from 6; and windows where `prime_targets` confirms 4q+1 with is_prime
    # (near 10^9, and from 4q+1 = 65537^2 on) or looks up q+1's least prime with
    # least_prime_factor (from q+1 = 65537^2 on, and at _Q_FAR, whose q+1 has its
    # least prime 2 mod 3 past 2^16)
    for qs in (range(6, 6007, 6), _around(10**9, 2000), _around(65537**2 // 4, 2000),
               _around(65537**2 - 1, 2000), _around(_Q_FAR, 2000)):
        got = batch._prime_slice(qs)
        found = [(q, prime_witness_search(q)) for q in qs if is_prime(4 * q + 1)]
        rows = [Row(q, *w.triple) for q, w in found if w is not None]
        assert got.text == "".join(rows_text(rows)), qs
        assert (got.unsolved, got.counts) == ([q for q, w in found if w is None], [0, len(rows), 0, 0]), qs
        assert {r.x == 1 for r in rows} == {True, False}, qs  # rows the sieve settles and rows searched


@pytest.mark.parametrize("resume", [False, True], ids=["fresh", "full-resume"])
def test_fresh_scans_read_nothing_back(tmp_path, monkeypatch, resume):
    # A fresh scan reads no file back; a full resume reads the unsolved q but
    # parses no result row.  The row reader is replaced in reports and under
    # the name batch would import it by.
    monkeypatch.setattr("erdos_straus.reports.read_results", _forbidden)
    monkeypatch.setattr(batch, "read_results", _forbidden, raising=False)
    if not resume:
        monkeypatch.setattr(batch, "read_results_q", _forbidden)
    for cfg in (_cfg(tmp_path / "cover", q_max=2400, batch_size=1000),
                _prime_cfg(tmp_path / "primes", q_max=600, batch_size=300)):
        first = run_coverage(cfg)
        if resume:
            second = run_coverage(cfg, resume=True)
            assert all(r.resumed for r in second)
            assert [r.tallies for r in second] == [r.tallies for r in first]


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_manifest_records_each_batchs_files(tmp_path):
    run_coverage(_cfg(tmp_path))
    head = (tmp_path / batch.MANIFEST_NAME).read_text().split("\n", 1)[0]
    assert json.loads(head) == {"mode": "coverage", "q_start": 1, "q_max": 300, "step": 1, "batch_size": 100}
    records = journal_records(tmp_path)
    assert list(records) == [1, 2, 3]
    for i in (1, 2, 3):
        results = tmp_path / f"results_batch{i}.csv"
        unsolved = tmp_path / f"unsolved_batch{i}.csv"
        labels = [line.rsplit(",", 1)[1] for line in results.read_text().splitlines()[1:]]
        assert records[i] == {
            "batch": i,
            "tallies": [labels.count(p.label) for p in PolyId],
            "sha256": _sha256(results),
            "unsolved": 0,
            "unsolved_sha256": _sha256(unsolved),
        }


def _edit_record(out, index, edit):
    """Apply `edit` to batch `index`'s record in the journal in `out`; the
    journal's bytes after the edit."""
    return edit_journal(out, lambda records: edit(records[index]))


def _raise_tally(family):
    def edit(record):
        record["tallies"][family - 1] += 1
    return edit


def _raise_unsolved(record):
    record["unsolved"] += 1


_PRIME = dict(q_start=6, q_max=600, step=6, mode=ScanMode.PRIME_COVERAGE)


@pytest.mark.parametrize("cfg, edit, message", [
    # coverage: the record's counts no longer add up to the batch's q
    (dict(), _raise_tally(PolyId.P3), "batch 2, q in [101, 200]: the checkpoint recorded 101 q, not 100"),
    (dict(), _raise_unsolved, "batch 2, q in [101, 200]: the checkpoint recorded 101 q, not 100"),
    # prime: the record's counts no longer match the files' rows and unsolved q
    (_PRIME, _raise_tally(PolyId.P2),
     "batch 2, q in [108, 209]: its files hold {rows} rows and 0 unsolved q, the checkpoint recorded {more} and 0"),
    (_PRIME, _raise_unsolved,
     "batch 2, q in [108, 209]: its files hold {rows} rows and 0 unsolved q, the checkpoint recorded {rows} and 1"),
], ids=["coverage-tally", "coverage-unsolved", "prime-tally", "prime-unsolved"])
def test_resume_rejects_a_record_whose_counts_are_off_by_one(tmp_path, cfg, edit, message):
    cfg = _cfg(tmp_path, **cfg)
    rows = run_coverage(cfg)[1].solved_count
    message = message.format(rows=rows, more=rows + 1)
    manifest = _edit_record(tmp_path, 2, edit)
    with pytest.raises(ResumeError) as exc:
        run_coverage(cfg, resume=True)
    assert str(exc.value) == message
    assert (tmp_path / batch.MANIFEST_NAME).read_bytes() == manifest


def test_resume_rejects_an_unsolved_q_of_another_batch(tmp_path):
    # batch 1's files replaced by no rows and one unsolved q of batch 2, and its
    # record by theirs: digests and counts match, only the q range can tell
    cfg = _cfg(tmp_path, **_PRIME)
    reports = run_coverage(cfg)
    results = write_results_batch([], 1, "prime", tmp_path)
    unsolved = write_unsolved([reports[1].q_range[0]], 1, "prime", tmp_path)
    manifest = _edit_record(tmp_path, 1, lambda record: record.update(
        tallies=[0, 0, 0, 0], sha256=file_digest(results)[0], unsolved=1, unsolved_sha256=file_digest(unsolved)[0]))
    with pytest.raises(ResumeError, match=r"^batch 1, q in \[6, 107\]: its files hold q outside the batch$"):
        run_coverage(cfg, resume=True)
    assert (tmp_path / batch.MANIFEST_NAME).read_bytes() == manifest


def _old_format(record):
    record["rows"] = sum(record.pop("tallies"))


@pytest.mark.parametrize("edit", [
    _old_format,
    lambda record: record["tallies"].pop(),
    lambda record: record["tallies"].__setitem__(0, "1"),
    lambda record: record["tallies"].__setitem__(3, -1),
    lambda record: record["tallies"].__setitem__(3, False),
    lambda record: record.__setitem__("tallies", 100),
    lambda record: record.__setitem__("unsolved", None),
    lambda record: record.pop("unsolved_sha256"),
], ids=["old-rows-format", "3-tallies", "string-tally", "negative-tally", "bool-tally", "int-tallies",
        "null-unsolved", "no-unsolved-digest"])
def test_resume_rejects_a_malformed_record(tmp_path, edit):
    cfg = _cfg(tmp_path)
    run_coverage(cfg)
    manifest = _edit_record(tmp_path, 2, edit)
    with pytest.raises(ResumeError, match="corrupt checkpoint manifest .*batch 2 has no record of its tallies"):
        run_coverage(cfg, resume=True)
    assert (tmp_path / batch.MANIFEST_NAME).read_bytes() == manifest


def test_resume_needs_a_record_for_each_skipped_batch(tmp_path):
    # batch 2 is listed, but its line holds no record of its files
    cfg = _cfg(tmp_path)
    run_coverage(cfg)
    manifest = edit_journal(tmp_path, lambda records: records.update({2: {"batch": 2}}))
    with pytest.raises(ResumeError, match="corrupt checkpoint manifest"):
        run_coverage(cfg, resume=True)
    assert (tmp_path / batch.MANIFEST_NAME).read_bytes() == manifest


@pytest.mark.parametrize("stray", [0, 4, 7])
def test_resume_rejects_a_batch_the_scan_has_not(tmp_path, stray):
    cfg = _cfg(tmp_path / "out")
    run_coverage(cfg)
    path = tmp_path / "out" / batch.MANIFEST_NAME
    edit_journal(path.parent, lambda records: records.update({stray: dict(records[2], batch=stray)}))
    before = {p.name: p.read_bytes() for p in path.parent.iterdir()}
    with pytest.raises(ResumeError, match=rf"records batches \[{stray}\]; this scan has batches 1 to 3"):
        run_coverage(cfg, resume=True)
    assert {p.name: p.read_bytes() for p in path.parent.iterdir()} == before


# Three batches of 3000 values each, whose every batch has 2 slices; the cover
# scan's first batch also holds the whole legacy prefix
_CHECKED_SCANS = {
    "cover": dict(q_max=9000, batch_size=3000),
    "primes": dict(mode=ScanMode.PRIME_COVERAGE, step=6, q_start=6, q_max=9000, batch_size=3000),
}


def _change_a_byte(out, mode):
    path = results_batch_path(2, mode.value, out)
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 1
    path.write_bytes(bytes(data))


def _append_an_unsolved_q(out, mode):
    with open(unsolved_path(2, mode.value, out), "a") as fh:
        fh.write("7\n")


def _edit_the_tallies(out, mode):
    _edit_record(out, 2, _raise_tally(PolyId.P2))


@pytest.mark.parametrize("damage", [_change_a_byte, _append_an_unsolved_q, _edit_the_tallies],
                         ids=["results-byte", "unsolved-line", "record-tallies"])
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(_CHECKED_SCANS))
def test_a_resume_checks_every_recorded_batch_before_it_solves_any(tmp_path, monkeypatch, name, workers, damage):
    # batch 1 unrecorded, so a resume would rerun it, and batch 2 damaged: the resume
    # fails on batch 2 having started no worker, solved nothing and written nothing
    cfg = _cfg(tmp_path, worker_count=workers, **_CHECKED_SCANS[name])
    assert len(run_coverage(cfg)) == 3
    _forget_batches(tmp_path, 1)
    damage(tmp_path, cfg.mode)
    before = tree_bytes(tmp_path)
    monkeypatch.setattr(multiprocessing.Process, "start", _forbidden)
    monkeypatch.setitem(batch._MODES, cfg.mode, batch._MODES[cfg.mode]._replace(solve=_forbidden))
    monkeypatch.setattr(batch, "legacy_coverage_scan", _forbidden)
    with pytest.raises(ResumeError, match=r"^batch 2, q in "):
        run_coverage(cfg, resume=True)
    assert tree_bytes(tmp_path) == before


def test_checkpoint_resume_errors(tmp_path):
    cfg = _cfg(tmp_path / "out")
    with pytest.raises(ResumeError):
        run_coverage(cfg, resume=True)  # no manifest yet
    assert not (tmp_path / "out").exists()  # and nothing made
    run_coverage(cfg)
    with pytest.raises(ResumeError):
        run_coverage(_cfg(tmp_path / "out", q_max=301), resume=True)  # different scan
    for text in ("{not json", "{not json\n"):  # a header cut short, a whole one
        (tmp_path / "out" / batch.MANIFEST_NAME).write_text(text)
        with pytest.raises(ResumeError):
            run_coverage(cfg, resume=True)


def test_explicit_completed_batches(tmp_path):
    cfg = _cfg(tmp_path)
    run_coverage(cfg)
    manifest = (tmp_path / batch.MANIFEST_NAME).read_bytes()
    _forget_batches(tmp_path, 1, 3)  # only batch 2 is recorded complete
    reports = run_coverage(cfg, resume=True)
    assert [r.resumed for r in reports] == [False, True, False]
    assert (tmp_path / batch.MANIFEST_NAME).read_bytes() == manifest


def test_journal_is_written_whole_once_then_appended(tmp_path, monkeypatch):
    # A 50-batch scan writes its journal whole at its first batch and appends
    # one line per later batch.  A resume writes it whole at the first batch it
    # reruns, the recorded batches and that one in batch order, and appends the
    # rest; after a crash, which leaves the first batches recorded, it ends as a
    # straight run's.  A full resume writes nothing.
    writes = []
    write_lines, builtin_open = batch.write_lines, open

    def counting_write_lines(path, lines):
        writes.append(("whole", path.name))
        return write_lines(path, lines)

    def counting_open(path, mode="r", *args, **kwargs):
        if "a" in mode:
            writes.append(("append", Path(path).name))
        return builtin_open(path, mode, *args, **kwargs)

    monkeypatch.setattr(batch, "write_lines", counting_write_lines)
    monkeypatch.setattr(batch, "open", counting_open, raising=False)
    cfg = _cfg(tmp_path, q_max=50, batch_size=1)
    run_coverage(cfg)
    name = batch.MANIFEST_NAME
    assert writes == [("whole", name)] + [("append", name)] * 49
    straight, records = (tmp_path / name).read_bytes(), journal_records(tmp_path)
    for rerun in ([50], list(range(41, 51)), list(range(1, 51)), [1, 2], [3, 17, 41, 50], []):
        _forget_batches(tmp_path, *rerun)
        writes.clear()
        reports = run_coverage(cfg, resume=True)
        assert [b for b, r in enumerate(reports, start=1) if not r.resumed] == rerun
        assert writes == ([("whole", name)] + [("append", name)] * (len(rerun) - 1) if rerun else [])
        assert journal_records(tmp_path) == records
        assert list(journal_records(tmp_path)) == sorted(set(records) - set(rerun[1:])) + rerun[1:]
        if rerun == list(range(51 - len(rerun), 51)):  # as a crash leaves it: the last batches unrecorded
            assert (tmp_path / name).read_bytes() == straight
        (tmp_path / name).write_bytes(straight)


def test_fresh_run_records_only_the_batches_it_wrote(tmp_path, monkeypatch):
    cfg = _cfg(tmp_path)
    run_coverage(cfg)
    write = batch.write_results_batch

    def write_results_batch(text, index, *args):
        if index == 2:  # batch 1 is written and recorded
            _interrupt_the_scan()
        return write(text, index, *args)

    monkeypatch.setattr(batch, "write_results_batch", write_results_batch)
    with pytest.raises(KeyboardInterrupt):
        run_coverage(cfg)
    assert list(journal_records(tmp_path)) == [1]


def test_cancellation_writes_nothing_for_the_cancelled_batch(tmp_path):
    # batch 1 is interrupted while its q are classified, and while its results
    # file is written: after the rows, before the rename
    legacy, write = batch.legacy_coverage_scan, batch.write_results_batch

    def interrupted_scan(qs):
        for q, w in legacy(qs):
            if q == 50:
                _interrupt_the_scan()
            yield q, w

    def rows_then_interrupt(text):
        yield from text
        _interrupt_the_scan()

    def interrupted_write(text, *args):
        return write(rows_then_interrupt(text), *args)

    for name, interrupted in ("legacy_coverage_scan", interrupted_scan), ("write_results_batch", interrupted_write):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(batch, name, interrupted)
            with pytest.raises(KeyboardInterrupt):
                run_coverage(_cfg(tmp_path / name))
        assert list((tmp_path / name).iterdir()) == []


@pytest.mark.parametrize("mode, kw", [
    # 2 batches of 50,000 q = 6c, each cut into 5 slices of at most 10,913 q
    (ScanMode.PRIME_COVERAGE, dict(step=6, q_start=6, q_max=600_000, batch_size=300_000)),
    # 2 batches of 25,000 q = 6c past the legacy prefix, 3 slices each
    (ScanMode.COVERAGE, dict(step=6, q_start=10**6 + 2, q_max=10**6 + 299_996, batch_size=25_000)),
], ids=["primes", "cover"])
def test_a_serial_scan_is_cancelled_between_the_slices_of_a_batch(tmp_path, monkeypatch, mode, kw):
    # the interrupt stops a serial scan inside batch 2's first slice: in the prime scan at the
    # check of its first x = 1 row, in the cover scan, whose q = 6c x = 1 leaves to the sweep
    # from x = 2, at the check of its first witness there
    cfg = _cfg(tmp_path / "cancelled", mode=mode, **kw)
    solved = []
    plain = batch._MODES[mode]

    def solve(qs):
        solved.append(qs)
        return plain.solve(qs)

    monkeypatch.setitem(batch._MODES, mode, plain._replace(solve=solve))
    run_coverage(cfg._replace(output_dir=tmp_path / "counted"))
    first = len(solved) // 2  # batch 1's slices
    assert first >= 3 and len(solved) == 2 * first
    solved.clear()
    module, name, inside = {ScanMode.PRIME_COVERAGE: (batch, "check_value", []),
                            ScanMode.COVERAGE: (search, "_checked_witness", ["sweep_from_x2"])}[mode]
    checked = getattr(module, name)

    def interrupted(*args):
        if len(solved) > first:
            _interrupt_the_scan()
        return checked(*args)

    monkeypatch.setattr(module, name, interrupted)
    with pytest.raises(KeyboardInterrupt) as cancelled:
        run_coverage(cfg)
    assert len(solved) == first + 1  # batch 2 stopped inside its first slice
    called = [entry.name for entry in cancelled.traceback]
    assert all(f in called for f in [plain.solve.__name__, *inside, "interrupted"]), called
    assert list(journal_records(cfg.output_dir)) == [1]
    for path in results_batch_path, unsolved_path:
        assert path(1, mode.value, cfg.output_dir).exists() and not path(2, mode.value, cfg.output_dir).exists()

    monkeypatch.undo()
    reports = run_coverage(cfg, resume=True)
    assert [r.resumed for r in reports] == [True, False]
    run_coverage(cfg._replace(output_dir=tmp_path / "whole"))
    assert tree_bytes(cfg.output_dir) == tree_bytes(tmp_path / "whole")


# Four batches each; the cover scan's first is all legacy prefix and its second
# starts with the rest of it
_CANCELLED_SCANS = {
    "cover": dict(q_max=6000, batch_size=1500),
    "primes": dict(mode=ScanMode.PRIME_COVERAGE, step=6, q_start=6, q_max=6000, batch_size=1500),
}

# The points at which the property below interrupts a scan, counted across its
# processes in _POINTS["count"]: each slice solve, in the parent or a worker,
# and the parent's calls of reports.write_text (once the text is written, before
# the rename), of file_digest and of the journal append.  The point numbered
# _POINTS["stop"] interrupts the scan: in the parent, _POINTS["pid"], it raises
# KeyboardInterrupt there, as SIGINT's handler would; in a worker it sends the
# parent SIGINT.  _POINTS["reached"] records where it was reached.
_POINTS = {}
_IN_PARENT, _IN_WORKER = 1, 2


def _point():
    count = _POINTS["count"]
    with count.get_lock():
        count.value += 1
        stop = count.value == _POINTS["stop"]
    if stop:
        in_parent = os.getpid() == _POINTS["pid"]
        _POINTS["reached"].value = _IN_PARENT if in_parent else _IN_WORKER
        if in_parent:
            raise KeyboardInterrupt
        _interrupt_the_scan()


def _solve_at_a_point(qs):
    _point()
    return _POINTS["solve"](qs)


def _point_after(text):
    yield from text
    _point()


@given(st.sampled_from(sorted(_CANCELLED_SCANS)), st.sampled_from([1, 2]),
       st.lists(st.integers(1, 40), min_size=1, max_size=3))
@settings(max_examples=50, deadline=None)
def test_a_serial_scan_cancelled_anywhere_resumes_to_the_straight_runs_bytes(name, workers, stops):
    # each run, serial or with 2 workers, is interrupted at a drawn point (or
    # ends first) and resumes the last, or starts afresh while no batch is
    # recorded; a last run resumes to the end.  A run that reached its point
    # ends in KeyboardInterrupt, unless a worker's SIGINT landed where Python
    # drops the exception (in a gc callback, say): that example is rejected.
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.setattr(batch, "WINDOW_SPAN", batch.WINDOW_MARGIN + 500)  # a small batch cut into 2-3 slices
        cfg = _cfg(Path(tmp) / "cancelled", worker_count=workers, **_CANCELLED_SCANS[name])
        run_coverage(cfg._replace(output_dir=Path(tmp) / "straight"))
        mode, file_digest, builtin_open = batch._MODES[cfg.mode], batch.file_digest, open

        def open_at_a_point(path, how="r", *args, **kwargs):
            if how == "a":
                _point()
            return builtin_open(path, how, *args, **kwargs)

        patch.setitem(_POINTS, "solve", mode.solve)
        patch.setitem(batch._MODES, cfg.mode, mode._replace(solve=_solve_at_a_point))
        patch.setattr("erdos_straus.reports.write_text", lambda path, text: write_text(path, _point_after(text)))
        patch.setattr(batch, "file_digest", lambda path: _point() or file_digest(path))
        patch.setattr(batch, "open", open_at_a_point, raising=False)
        patch.setitem(_POINTS, "pid", os.getpid())
        for stop in [*stops, None]:
            patch.setitem(_POINTS, "count", multiprocessing.Value("i", 0))
            patch.setitem(_POINTS, "stop", stop)
            patch.setitem(_POINTS, "reached", reached := multiprocessing.Value("i", 0))
            try:
                run_coverage(cfg, resume=(cfg.output_dir / MANIFEST_NAME).exists())
            except KeyboardInterrupt:
                assert reached.value and multiprocessing.active_children() == []
            else:
                assert reached.value != _IN_PARENT
                if reached.value == _IN_WORKER:
                    reject()
        assert tree_bytes(cfg.output_dir) == tree_bytes(Path(tmp) / "straight")


def test_unwritable_output_dir_raises_before_compute(tmp_path):
    # a regular file where a directory component is needed fails for any uid
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    cfg = _cfg(blocker / "out")
    with pytest.raises(OSError, match="not writable"):
        run_coverage(cfg)


def _prime_cfg(tmp_path, q_start=6, **kw):
    return _cfg(tmp_path, mode=ScanMode.PRIME_COVERAGE, step=6, q_start=q_start, **kw)


def test_run_prime_coverage_small(tmp_path):
    cfg = _prime_cfg(tmp_path, q_max=600, batch_size=300)
    reports = run_coverage(cfg)
    assert [r.batch_index for r in reports] == [1, 2]
    assert all(not r.unsolved for r in reports)

    expected = []
    for q in range(6, 601, 6):
        if is_prime(4 * q + 1):
            expected.append(prime_witness_search(q))
    rows = list(read_results(tmp_path / "Results" / "all_solutions.csv"))
    assert rows == expected
    assert sum(r.solved_count for r in reports) == len(expected)
    assert read_results_q(tmp_path / "Results" / "all_unsolved.csv") == []
    assert (tmp_path / "Results" / "results_batch001.csv").exists()
    assert (tmp_path / "Results" / "results_batch002.csv").exists()


def test_run_prime_coverage_resume(tmp_path):
    cfg = _prime_cfg(tmp_path, q_max=600, batch_size=300)
    first = run_coverage(cfg)
    agg = (tmp_path / "Results" / "all_solutions.csv").read_bytes()
    second = run_coverage(cfg, resume=True)
    assert all(r.resumed for r in second)
    assert [r.solved_count for r in second] == [r.solved_count for r in first]
    assert [r.tallies for r in second] == [r.tallies for r in first]
    assert (tmp_path / "Results" / "all_solutions.csv").read_bytes() == agg


def test_full_prime_resume_starts_no_pool(tmp_path, monkeypatch):
    cfg = _prime_cfg(tmp_path, q_max=600, batch_size=300, worker_count=2)
    first = run_coverage(cfg)
    monkeypatch.setattr(multiprocessing.Process, "start", _forbidden)
    second = run_coverage(cfg, resume=True)
    assert all(r.resumed for r in second)
    assert [r.tallies for r in second] == [r.tallies for r in first]


@pytest.mark.parametrize("batch_size", [1, 7, 8, 20, 301])
def test_prime_batches_write_every_target_once(tmp_path, batch_size):
    reports = run_coverage(_prime_cfg(tmp_path, q_max=600, batch_size=batch_size))
    targets = [q for q in range(6, 601, 6) if is_prime(4 * q + 1)]
    batch_files = sorted((tmp_path / "Results").glob("results_batch*.csv"))
    assert len(batch_files) == len(reports)
    assert [row.q for path in batch_files for row in read_results(path)] == targets
    assert [row.q for row in read_results(tmp_path / "Results" / "all_solutions.csv")] == targets
    for r, nxt in zip(reports, reports[1:]):
        assert r.q_range[1] + 1 == nxt.q_range[0]
    assert (reports[0].q_range[0], reports[-1].q_range[1]) == (6, 600)


def test_prime_batches_keep_blocks_of_multiples_of_6(tmp_path):
    # block b starts at q_start + (b-1)*batch_size aligned up to 6 and ends
    # batch_size - 1 later, as the reference runs cut them
    for q_start, q_max, size in ((6, 10**6, 10**6), (6, 600, 300), (7, 1000, 120), (6, 6, 1)):
        blocks = batch._prime_batches(_prime_cfg(tmp_path, q_start, q_max=q_max, batch_size=size))
        lo = [q_start + size * b + (-(q_start + size * b)) % 6 for b in range(len(blocks))]
        assert [(r.start, r.stop - 1) for r in blocks] == [
            (s, min(s + size - 1, q_max)) for s in lo
        ]
        assert blocks[-1].stop - 1 == q_max


def test_prime_batches_match_the_block_loop(tmp_path):
    # every block's (start, stop) as the loop over aligned block starts cuts them
    for q_start in range(1, 40):
        for q_max in range(q_start, 130):
            for size in [*range(1, 40), 100, 1000]:
                blocks = batch._prime_batches(_prime_cfg(tmp_path, q_start, q_max=q_max, batch_size=size))
                expected = prime_batches_by_loop(q_start, q_max, size)
                assert [(r.start, r.stop) for r in blocks] == [(r.start, r.stop) for r in expected]


# sha256 of reference-scan artifacts, pinned so that a changed witness
# coordinate fails here even where every family count stays the same
@pytest.mark.parametrize("mode,q_start,q_max,step,workers,artifact,digest", [
    (ScanMode.PRIME_COVERAGE, 1, 10**6, 6, 1, "Results/all_solutions.csv",
     "5aabf7b8933cf961abfa4553fd8e9b2337db9e86126d6328f450ed34ba3d09f3"),
    (ScanMode.PRIME_COVERAGE, 1, 10**6, 6, 2, "Results/all_solutions.csv",
     "5aabf7b8933cf961abfa4553fd8e9b2337db9e86126d6328f450ed34ba3d09f3"),
    (ScanMode.COVERAGE, 1, 200_000, 1, 1, "results_batch1.csv",
     "b4417dbfbfa498ccfe225d6f02609da4adb345b42f26864da9f3809015f3a5b4"),
    (ScanMode.COVERAGE, 6, 199_998, 6, 1, "results_batch1.csv",
     "c7d4814524836efc8e9b5ca3d51b31773b1b36de2ae1fbfcc5b0ce888ad23ef3"),
], ids=["primes-1-worker", "primes-2-workers", "cover", "cover-step-6"])
def test_scan_witnesses_match_their_pinned_digests(tmp_path, mode, q_start, q_max, step, workers,
                                                   artifact, digest):
    cfg = BatchConfig(q_start=q_start, q_max=q_max, step=step, mode=mode,
                      worker_count=workers, output_dir=tmp_path)
    run_coverage(cfg)
    assert hashlib.sha256((tmp_path / artifact).read_bytes()).hexdigest() == digest
