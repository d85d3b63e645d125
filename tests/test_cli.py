import contextlib
import json
import multiprocessing
import os
import random
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from erdos_straus import batch, cli, decompose, search
from erdos_straus.batch import MANIFEST_NAME
from erdos_straus.cli import build_parser, main
from erdos_straus.numutil import MR_LIMIT
from erdos_straus.reports import file_digest, read_results_q, results_batch_path, unsolved_path, write_results_batch

from .journal import edit_journal, journal_records, tree_bytes
from .oracles import Row, rows_text
from .test_batch import _forbidden


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_no_arguments_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 64


def test_missing_required_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cover"])
    assert exc.value.code == 64


def test_cover_inverted_range(capsys, tmp_path):
    code, _, err = run(
        capsys, "cover", "--q-start", "10", "--q-max", "5", "--out-dir", str(tmp_path)
    )
    assert code == 64
    assert "q-start" in err


@pytest.mark.parametrize("argv", [
    ["cover", "--q-start", "0", "--q-max", "10"],
    ["cover", "--q-max", "10", "--step", "0"],
    ["cover", "--q-max", "10", "--batch-size", "0"],
    ["cover", "--q-max", "10", "--workers", "0"],
    ["primes", "--q-max", "10", "--workers", "0"],
    ["primes", "--q-start", "0", "--q-max", "10"],
    ["primes", "--q-start", "-5", "--q-max", "10"],
])
def test_bad_scan_arguments_are_usage_errors(capsys, tmp_path, argv):
    code, out, err = run(capsys, *argv, "--out-dir", str(tmp_path))
    assert code == 64
    assert err.startswith("error: ") and out == ""
    if "--q-start" in argv:  # the message names the value typed
        assert f"got {argv[argv.index('--q-start') + 1]} and 10" in err
    for flag in ("--step", "--batch-size", "--workers"):  # and the flag as typed
        if flag in argv:
            assert flag[2:] in err
    assert not any(tmp_path.iterdir())


def test_cover_small_run(capsys, tmp_path):
    code, out, _ = run(
        capsys,
        "cover",
        "--q-max",
        "200",
        "--batch-size",
        "100",
        "--workers",
        "1",
        "--out-dir",
        str(tmp_path),
    )
    assert code == 0
    assert "qStart = 1, qMax = 200, step = 1" in out
    assert "Batch size (number of q values per batch) = 100" in out
    assert "Batch 1: q in [1, 100]" in out
    assert "Unsolved q in batch 1: 0" in out
    assert "All batches complete." in out
    assert any(line.startswith("time:") for line in out.splitlines())
    assert (tmp_path / "results_batch1.csv").exists()
    assert (tmp_path / "results_batch2.csv").exists()
    assert (tmp_path / "unsolved_all.csv").read_bytes() == b"q\n"


def test_cover_tally_lines_skip_zero_families(capsys, tmp_path):
    code, out, _ = run(
        capsys, "cover", "--q-max", "50", "--workers", "1", "--out-dir", str(tmp_path)
    )
    assert code == 0
    assert "   p1: " in out and "   p2: " in out
    assert "   p4: " not in out  # first p4-only value is q = 72


def test_cover_resume_without_checkpoint(capsys, tmp_path):
    code, _, err = run(
        capsys, "cover", "--q-max", "50", "--out-dir", str(tmp_path), "--resume"
    )
    assert code == 65
    assert "checkpoint" in err


def _cover_then_tamper(capsys, tmp_path, tamper):
    argv = ["cover", "--q-max", "30", "--batch-size", "10", "--workers", "1", "--out-dir", str(tmp_path)]
    assert run(capsys, *argv)[0] == 0
    tamper(tmp_path)
    return run(capsys, *argv, "--resume")


def test_resume_rejects_a_non_integer_unsolved_q(capsys, tmp_path):
    def tamper(out):
        (out / "unsolved_batch2.csv").write_text("q\n1x\n")

    code, _, err = _cover_then_tamper(capsys, tmp_path, tamper)
    assert code == 65
    assert "batch 2, q in [11, 20]: unsolved_batch2.csv is not the file the checkpoint recorded" in err


def test_resume_rejects_another_batchs_file(capsys, tmp_path):
    def tamper(out):
        (out / "results_batch2.csv").write_bytes((out / "results_batch1.csv").read_bytes())

    code, _, err = _cover_then_tamper(capsys, tmp_path, tamper)
    assert code == 65
    assert "batch 2, q in [11, 20]: results_batch2.csv is not the file the checkpoint recorded" in err


def test_resume_rejects_another_batchs_files_and_record(capsys, tmp_path):
    # batch 1's files and record copied over batch 2's: the digests match, the q do not
    def tamper(out):
        for name in ("results_batch{}.csv", "unsolved_batch{}.csv"):
            (out / name.format(2)).write_bytes((out / name.format(1)).read_bytes())
        tampered.append(edit_journal(out, lambda records: records.update({2: dict(records[1], batch=2)})))

    tampered = []
    code, _, err = _cover_then_tamper(capsys, tmp_path, tamper)
    assert code == 65
    assert "batch 2, q in [11, 20]: its files hold q outside the batch" in err
    assert (tmp_path / MANIFEST_NAME).read_bytes() == tampered[0]


def test_resume_rejects_a_truncated_batch_file(capsys, tmp_path):
    def tamper(out):
        path = out / "results_batch3.csv"
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))

    code, _, err = _cover_then_tamper(capsys, tmp_path, tamper)
    assert code == 65
    assert "batch 3, q in [21, 30]: results_batch3.csv is not the file the checkpoint recorded" in err


def test_resume_rejects_a_q_both_solved_and_unsolved(capsys, tmp_path):
    def tamper(out):
        (out / "unsolved_batch1.csv").write_text("q\n4\n")

    code, _, err = _cover_then_tamper(capsys, tmp_path, tamper)
    assert code == 65
    assert "batch 1, q in [1, 10]: unsolved_batch1.csv is not the file the checkpoint recorded" in err


def test_resume_rejects_an_edited_batch_file(capsys, tmp_path):
    def tamper(out):
        # same rows and q, one witness changed: only the digest can tell
        path = out / "results_batch2.csv"
        lines = path.read_text().splitlines(keepends=True)
        q, x, y, z, pi = lines[1].rstrip("\n").split(",")
        lines[1] = ",".join([q, x, str(int(y) + 1), z, pi]) + "\n"
        path.write_text("".join(lines))

    code, _, err = _cover_then_tamper(capsys, tmp_path, tamper)
    assert code == 65
    assert "batch 2, q in [11, 20]: results_batch2.csv is not the file the checkpoint recorded" in err


def test_resume_rejects_a_batch_index_the_scan_has_not(capsys, tmp_path):
    # the scan has batches 1 to 3; batch 7 carries batch 2's record
    def edit(records):
        records[7] = dict(records.pop(2), batch=7)
        del records[3]

    def tamper(out):
        tampered.append(edit_journal(out, edit))

    tampered = []
    code, _, err = _cover_then_tamper(capsys, tmp_path, tamper)
    assert code == 65
    assert "records batches [7]; this scan has batches 1 to 3" in err
    assert (tmp_path / MANIFEST_NAME).read_bytes() == tampered[0]


def test_resume_rejects_a_manifest_without_file_records(capsys, tmp_path):
    # every batch is listed, each by its index alone
    def tamper(out):
        edit_journal(out, lambda records: records.update({b: {"batch": b} for b in records}))

    code, _, err = _cover_then_tamper(capsys, tmp_path, tamper)
    assert code == 65
    assert "corrupt checkpoint manifest" in err


def _relabel(index, label):
    def edit(records):
        records[index]["batch"] = label
    return edit


@pytest.mark.parametrize("edit, message", [
    (_relabel(3, 2), ": batch 2 is recorded twice\n"),  # batch 3's record relabelled
    (_relabel(2, "2"), ": a record names no batch: {'batch': '2', "),
    (_relabel(1, True), ": a record names no batch: {'batch': True, "),
], ids=["batch-twice", "string-batch", "bool-batch"])
def test_resume_rejects_a_malformed_batch_index(capsys, tmp_path, edit, message):
    def tamper(out):
        edit_journal(out, edit)
        before.update(tree_bytes(out))

    before = {}
    code, _, err = _cover_then_tamper(capsys, tmp_path, tamper)
    assert code == 65
    assert "corrupt checkpoint manifest" in err and message in err
    assert tree_bytes(tmp_path) == before


@pytest.mark.parametrize("workers", ["1", "2"])
def test_a_failed_resume_starts_no_worker_and_writes_nothing(capsys, tmp_path, monkeypatch, workers):
    # batch 1 unrecorded, so the resume would rerun it, and a byte of batch 2's results
    # changed: it exits 65 on batch 2 before it solves batch 1 or starts a worker
    argv = ["cover", "--q-max", "9000", "--batch-size", "3000", "--workers", workers, "--out-dir", str(tmp_path)]
    assert run(capsys, *argv)[0] == 0
    edit_journal(tmp_path, lambda records: records.pop(1))
    path = tmp_path / "results_batch2.csv"
    path.write_bytes(path.read_bytes().replace(b"\n3001,", b"\n3001,2"))
    before = tree_bytes(tmp_path)
    monkeypatch.setattr(multiprocessing.Process, "start", _forbidden)
    monkeypatch.setitem(batch._MODES, batch.ScanMode.COVERAGE,
                        batch._MODES[batch.ScanMode.COVERAGE]._replace(solve=_forbidden))
    monkeypatch.setattr(batch, "legacy_coverage_scan", _forbidden)
    code, out, err = run(capsys, *argv, "--resume")
    assert code == 65
    assert err == ("error: batch 2, q in [3001, 6000]: results_batch2.csv is not the file the checkpoint "
                   "recorded (sha256 differs)\n")
    assert out == "qStart = 1, qMax = 9000, step = 1\nBatch size (number of q values per batch) = 3000\n"
    assert tree_bytes(tmp_path) == before


def test_resume_does_not_read_an_old_checkpoint_json(capsys, tmp_path):
    # the manifest format before the journal: rerun such a scan without --resume
    old = json.dumps({"mode": "coverage", "q_start": 1, "q_max": 30, "step": 1, "batch_size": 10,
                      "completed": [1], "batches": {"1": {"tallies": [1, 9, 0, 0], "sha256": "0" * 64,
                                                          "unsolved": 0, "unsolved_sha256": "0" * 64}}})
    (tmp_path / "checkpoint.json").write_text(old)
    code, _, err = run(capsys, "cover", "--q-max", "30", "--batch-size", "10", "--workers", "1",
                       "--out-dir", str(tmp_path), "--resume")
    assert code == 65
    assert f"no checkpoint manifest at {tmp_path / 'checkpoint.jsonl'}\n" in err
    assert tree_bytes(tmp_path) == {Path("checkpoint.json"): old.encode()}


@pytest.mark.parametrize("argv", [
    ["cover", "--q-max", "500", "--batch-size", "100"],
    ["primes", "--q-max", "3000", "--batch-size", "600"],
], ids=["cover", "primes"])
def test_resume_after_the_journal_is_cut_at_any_byte(capsys, tmp_path, argv):
    # A crash may cut the journal anywhere in the line being appended.  Cut past
    # its header line, a resume reruns the batches whose records were cut and
    # leaves every file, the journal included, as a straight run writes it.  Cut
    # inside the header, there is no journal to resume: exit 65, nothing written.
    argv = [*argv, "--workers", "1", "--out-dir", str(tmp_path)]
    assert run(capsys, *argv)[0] == 0
    straight = tree_bytes(tmp_path)
    journal = straight[Path(MANIFEST_NAME)]
    ends = [i + 1 for i, byte in enumerate(journal) if byte == ord("\n")]
    header = ends[0]
    assert len(ends) >= 6 and ends[-1] == len(journal)  # the header and at least 5 batches
    sampled = random.Random(21).sample(range(header, len(journal)), 20)
    cuts = {end + d for end in ends for d in (-1, 0, 1)} | set(sampled)
    for cut in sorted(c for c in cuts if header <= c < len(journal)):
        (tmp_path / MANIFEST_NAME).write_bytes(journal[:cut])
        code, _, err = run(capsys, *argv, "--resume")
        assert (code, err) == (0, ""), cut
        assert tree_bytes(tmp_path) == straight, cut
    for cut in range(header):
        (tmp_path / MANIFEST_NAME).write_bytes(journal[:cut])
        code, _, err = run(capsys, *argv, "--resume")
        assert code == 65 and "corrupt checkpoint manifest" in err, cut
        assert tree_bytes(tmp_path) == straight | {Path(MANIFEST_NAME): journal[:cut]}, cut


def test_prime_resume_rejects_a_truncated_batch_file(capsys, tmp_path):
    argv = ["primes", "--q-max", "600", "--batch-size", "300", "--workers", "1", "--out-dir", str(tmp_path)]
    assert run(capsys, *argv)[0] == 0
    solutions = (tmp_path / "Results" / "all_solutions.csv").read_bytes()
    path = tmp_path / "Results" / "results_batch001.csv"
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
    code, _, err = run(capsys, *argv, "--resume")
    assert code == 65
    assert "batch 1, q in [6, 305]: results_batch001.csv is not the file the checkpoint recorded" in err
    assert (tmp_path / "Results" / "all_solutions.csv").read_bytes() == solutions


def test_prime_resume_rejects_a_coverage_file(capsys, tmp_path):
    argv = ["primes", "--q-max", "60", "--workers", "1", "--out-dir", str(tmp_path)]
    assert run(capsys, *argv)[0] == 0
    rows = [Row(1, 1, 1, 1, "p2"), Row(2, 1, 1, 1, "p1")]
    write_results_batch(rows_text(rows), 1, "coverage", tmp_path / "Results")
    (tmp_path / "Results" / "results_batch1.csv").replace(tmp_path / "Results" / "results_batch001.csv")
    solutions = (tmp_path / "Results" / "all_solutions.csv").read_bytes()
    code, _, err = run(capsys, *argv, "--resume")
    assert code == 65
    assert "batch 1, q in [6, 60]: results_batch001.csv is not the file the checkpoint recorded" in err
    assert (tmp_path / "Results" / "all_solutions.csv").read_bytes() == solutions


def test_primes_small_run(capsys, tmp_path):
    code, out, _ = run(
        capsys,
        "primes",
        "--q-max",
        "600",
        "--batch-size",
        "300",
        "--workers",
        "1",
        "--out-dir",
        str(tmp_path),
    )
    assert code == 0
    assert "Processing batch 1/2: q in [6, 305]" in out
    assert "Total unsolved q: 0" in out
    assert (tmp_path / "Results" / "all_solutions.csv").exists()


def test_primes_worker_counts_identical(capsys, tmp_path):
    runs = {}
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}"
        code, stdout, _ = run(
            capsys, "primes", "--q-max", "3000", "--batch-size", "700",
            "--workers", workers, "--out-dir", str(out),
        )
        assert code == 0
        lines = [
            line for line in stdout.splitlines()
            if not line.startswith(("time:", "All results saved to:"))
        ]
        files = {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*.csv"))}
        runs[workers] = (lines, files)
    assert runs["1"] == runs["2"]
    assert len(runs["1"][1]) == 2 * 5 + 2  # 5 batches, each solutions and unsolved


def test_primes_range_without_a_target_is_usage_error(capsys, tmp_path):
    # q-start aligns up to a multiple of 6, past q-max
    for q_start, q_max, aligned in (("7", "10", 12), ("1", "5", 6)):
        code, _, err = run(
            capsys, "primes", "--q-start", q_start, "--q-max", q_max, "--out-dir", str(tmp_path)
        )
        assert code == 64
        assert (
            f"--q-start {q_start} rounds up to the multiple of 6, q = {aligned}, "
            f"which is above --q-max {q_max}"
        ) in err


def test_primes_q_start_1_to_5_rounds_up_to_6(capsys, tmp_path):
    for q_start in "12345":
        code, out, _ = run(capsys, "primes", "--q-start", q_start, "--q-max", "30", "--out-dir", str(tmp_path))
        assert code == 0
        assert "qStart = 6, qMax = 30, step = 6" in out


@pytest.mark.parametrize("command", ["cover", "primes"])
def test_scan_puts_back_the_signal_handlers_it_replaced(capsys, tmp_path, monkeypatch, command):
    # in-process callers of main keep their SIGINT and SIGTERM handlers
    # after a scan that succeeds (exit 0) and after one that fails (exit 74)
    signums = (signal.SIGINT, signal.SIGTERM)
    run_coverage, during = batch.run_coverage, []

    def recording_run_coverage(*args, **kwargs):
        during.append([signal.getsignal(s) for s in signums])
        return run_coverage(*args, **kwargs)

    def own_handler(signum, frame):
        pass

    monkeypatch.setattr(batch, "run_coverage", recording_run_coverage)  # cli imports it when a scan runs
    saved = [signal.signal(s, own_handler) for s in signums]
    try:
        before = [signal.getsignal(s) for s in signums]
        blocked = tmp_path / "a file"
        blocked.write_text("")
        for out_dir, code in ((tmp_path / "out", 0), (blocked, 74)):
            argv = [command, "--q-max", "200", "--workers", "1", "--out-dir", str(out_dir)]
            assert run(capsys, *argv)[0] == code
            assert [signal.getsignal(s) for s in signums] == before
    finally:
        for s, handler in zip(signums, saved):
            signal.signal(s, handler)
    # the scans ran under the handlers that interrupt a scan, not the caller's
    assert len(during) == 2
    assert all(h is not own_handler and callable(h) for hs in during for h in hs)


def _children(pid: int) -> list[int]:
    """The pids of the processes whose parent is `pid`, read from /proc."""
    kids = []
    for entry in os.scandir("/proc"):
        with contextlib.suppress(OSError):  # a process that ends meanwhile
            if entry.name.isdigit() and int(Path(entry.path, "stat").read_text().rsplit(")", 1)[1].split()[1]) == pid:
                kids.append(int(entry.name))
    return kids


def _ignores_sigint(pid: int) -> bool:
    status = Path(f"/proc/{pid}/status").read_text()
    ignored = int(status.split("SigIgn:")[1].split()[0], 16)
    return bool(ignored >> (signal.SIGINT - 1) & 1)


def _scan_started(out: Path, pid: int, workers: int, sigint: bool) -> bool:
    """Whether the scan has made its output directory, which it does under its
    signal handlers, and its worker processes, if any, are up; for a SIGINT to the
    process group, also whether they ignore it, as they do past their start."""
    if not out.exists() or workers == 1:
        return out.exists()
    kids = _children(pid)
    return len(kids) == workers and (not sigint or all(map(_ignores_sigint, kids)))


def _start_long_scan(out: Path, workers: int, sigint: bool) -> subprocess.Popen:
    """A `cover` of one batch of 3,000,000 multiples of 6 from 10^9 + 2, well over 10 s of work
    for 2 workers, in a session of its own; returned once it is 0.2 s into its slices."""
    count = 3_000_000
    argv = ["cover", "--q-start", "1000000002", "--q-max", str(1000000002 + 6 * (count - 1)), "--step", "6",
            "--batch-size", str(count), "--workers", str(workers), "--out-dir", str(out)]
    src = str(Path(cli.__file__).parents[1])
    proc = subprocess.Popen([sys.executable, "-m", "erdos_straus.cli", *argv], stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True, start_new_session=True,
                            env={**os.environ, "PYTHONPATH": src})
    deadline = time.monotonic() + 10
    while not _scan_started(out, proc.pid, workers, sigint):
        if proc.poll() is not None or time.monotonic() > deadline:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            raise AssertionError("the scan did not start")
        time.sleep(0.01)
    time.sleep(0.2)
    return proc


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="the test finds the workers in /proc")
@pytest.mark.parametrize("workers, signum, to_group", [
    (2, signal.SIGINT, True),  # as a terminal's Ctrl-C: to the whole process group
    (2, signal.SIGTERM, False),
    (1, signal.SIGTERM, False),
], ids=["pooled-sigint-to-group", "pooled-sigterm", "serial-sigterm"])
def test_an_interrupted_scan_stops_at_once_with_exit_130(tmp_path, workers, signum, to_group):
    out = tmp_path / "out"
    proc = _start_long_scan(out, workers, to_group)
    try:
        (os.killpg if to_group else os.kill)(proc.pid, signum)
        _, err = proc.communicate(timeout=5)
        assert (proc.returncode, err) == (130, "cancelled: the scan was interrupted; --resume reruns its unrecorded batches\n")
        with pytest.raises(ProcessLookupError):  # no worker is left in the scan's process group
            os.killpg(proc.pid, 0)
        assert list(out.iterdir()) == []  # no results, unsolved or checkpoint file
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="the test finds the workers in /proc")
def test_a_pooled_scan_whose_parent_is_killed_leaves_no_worker(tmp_path):
    # Each worker ends once the slice in hand is solved and its pipe is found
    # closed, quietly; the workers hold the scan's stderr, so it reads to its
    # end only once they have all ended.
    out = tmp_path / "out"
    proc = _start_long_scan(out, 2, False)
    try:
        proc.kill()
        _, err = proc.communicate(timeout=10)
        assert (proc.returncode, err) == (-signal.SIGKILL, "")
        assert list(out.iterdir()) == []
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()


# q that x = 1 leaves, and that each scan is made to leave unsolved.  In the
# cover scan, the sweep finds nothing for them, and x_sweep_bound is 1: 18 is
# in the legacy prefix, and its sweep hits at x = 2 unpatched, so the stale x
# that it leaves for the next q is the same; 20010 (a P2 row) and 20046 (a P1
# row) are in slices.  None is oblong: an oblong q always has its P4 witness.
_UNSOLVED = {"cover": (18, 20010, 20046), "primes": (18, 20058, 20082)}


@pytest.mark.parametrize("command, workers", [("cover", "1"), ("cover", "2"), ("primes", "1")])
def test_a_scan_that_leaves_q_unsolved_records_them_and_exits_2(capsys, tmp_path, monkeypatch, command, workers):
    argv = [command, "--q-max", "30000", "--batch-size", "10000", "--workers", workers, "--out-dir"]
    code, out, _ = run(capsys, *argv, str(tmp_path / "straight"))
    assert code == 0
    chosen = _UNSOLVED[command]
    if command == "cover":
        sweep, sweep_bound = search.sweep_from_x2, search.x_sweep_bound
        for module in (search, batch):
            monkeypatch.setattr(module, "sweep_from_x2", lambda q, window=None: None if q in chosen else sweep(q, window))
        monkeypatch.setattr(search, "x_sweep_bound", lambda q: 1 if q in chosen else sweep_bound(q))
    else:
        from_x2 = batch.prime_search_from_x2
        monkeypatch.setattr(batch, "prime_search_from_x2", lambda q: None if q in chosen else from_x2(q))
    code, out, _ = run(capsys, *argv, str(tmp_path / "out"))
    assert code == 2
    mode, straight, records = ("coverage" if command == "cover" else "prime"), journal_records(tmp_path / "straight"), \
        journal_records(tmp_path / "out")
    lines = out.splitlines()
    for index, qs in enumerate(((18,), (), chosen[1:]), start=1):
        unsolved = unsolved_path(index, mode, tmp_path / "out")
        assert read_results_q(unsolved) == list(qs)
        assert (records[index]["unsolved"], records[index]["unsolved_sha256"]) == (len(qs), file_digest(unsolved)[0])
        header, *rows = results_batch_path(index, mode, tmp_path / "straight").read_text().splitlines(keepends=True)
        left = [row for row in rows if int(row.split(",")[0]) in qs]
        assert results_batch_path(index, mode, tmp_path / "out").read_text() == "".join(
            [header, *(row for row in rows if row not in left)])
        families = [row.rstrip().split(",")[-1] if mode == "coverage" else "p2" for row in left]
        assert records[index]["tallies"] == [
            n - families.count(f"p{p}") for p, n in enumerate(straight[index]["tallies"], start=1)]
        if command == "cover":
            assert f"Unsolved q in batch {index}: {len(qs)}" in lines
    assert read_results_q(unsolved_path(None, mode, tmp_path / "out")) == list(chosen)
    if command == "primes":
        assert [line for line in lines if line.startswith("Unsolved q: ")] == ["Unsolved q: 1", "Unsolved q: 0",
                                                                               "Unsolved q: 2"]
        assert "Total unsolved q: 3" in lines

    # the resume, unpatched, reloads the unsolved q that each batch recorded
    monkeypatch.undo()
    written = tree_bytes(tmp_path / "out")
    code, resumed, _ = run(capsys, *argv, str(tmp_path / "out"), "--resume")
    assert code == 2
    assert [line for line in resumed.splitlines() if not line.startswith("time:")] == [
        line for line in lines if not line.startswith("time:")]
    assert tree_bytes(tmp_path / "out") == written


def test_an_exhausted_witness_search_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(cli, "staged_search", lambda q: None)
    monkeypatch.setattr(decompose, "staged_search", lambda q: None)
    assert run(capsys, "witness", "13") == (3, "no witness found for q = 13\n", "")
    assert run(capsys, "decompose", "53") == (3, "", "unsolved: no family witness found for q=13 (a=53)\n")


def test_decompose(capsys):
    code, out, _ = run(capsys, "decompose", "5")
    assert code == 0
    assert "b c d = 2 20 4" in out
    assert "4/5 = 1/2 + 1/20 + 1/4 (verified exact)" in out
    assert "provenance = CaseP2" in out


def test_decompose_rejects_small_a(capsys):
    code, _, err = run(capsys, "decompose", "1")
    assert code == 64


def test_inputs_at_the_primality_bound_are_usage_errors(capsys, tmp_path):
    top = (MR_LIMIT - 1) // 4  # the least q with 4q+1 >= MR_LIMIT
    scan = ["primes", "--q-start", str(top - 6), "--q-max", str(top), "--out-dir", str(tmp_path)]
    for argv in (["witness", str(top)], ["decompose", str(MR_LIMIT)], scan):
        code, out, err = run(capsys, *argv)
        assert code == 64, argv
        assert "proven" in err and out == ""
    assert not any(tmp_path.iterdir())
    # just below the bound: 4q+1 = MR_LIMIT - 4, and a = MR_LIMIT - 1 = 4q
    assert run(capsys, "witness", str(top - 1))[:2] == (0, f"p1 x=1 y=1 z={top // 3}\n")
    assert run(capsys, "decompose", str(MR_LIMIT - 1))[0] == 0


def test_decompose_strict_distinct(capsys):
    # 4/2 = 1/2 + 1/2 + 1/1 repeats a denominator
    code, out, _ = run(capsys, "decompose", "2")
    assert code == 0
    assert "warning: denominators are not pairwise distinct" in out
    code, _, _ = run(capsys, "decompose", "2", "--strict-distinct")
    assert code == 5


def test_witness(capsys):
    code, out, _ = run(capsys, "witness", "72")
    assert (code, out.strip()) == (0, "p4 x=9")
    code, out, _ = run(capsys, "witness", "6")
    assert (code, out.strip()) == (0, "p3 x=2 y=1")
    code, out, _ = run(capsys, "witness", "2")
    assert (code, out.strip()) == (0, "p1 x=1 y=1 z=1")
    code, _, _ = run(capsys, "witness", "0")
    assert code == 64


def test_the_slowest_oblong_inputs_answer_at_once(capsys):
    # a = 4q+1 = 2000671^2: the sweep's loop stepped x to about 10^6 on it
    assert run(capsys, "witness", "1000671112560") == (0, "p1 x=500168 y=1 z=500168\n", "")
    assert run(capsys, "decompose", "4002684450241") == (0, (
        "a = 4002684450241\n"
        "provenance = CaseP1\n"
        "witness = p1 (500168,1,500168)\n"
        "b c d = 2502518595303078792 1000671612728 10010069377856252199\n"
        "4/4002684450241 = 1/2502518595303078792 + 1/1000671612728 + 1/10010069377856252199 (verified exact)\n"
    ), "")


def test_verify_csv_good(capsys, tmp_path):
    rows = [Row(2, 1, 1, 1, "p1"), Row(6, 2, 1, None, "p3")]
    path = write_results_batch(rows_text(rows), 1, "coverage", tmp_path)
    code, out, _ = run(capsys, "verify-csv", str(path))
    assert code == 0
    assert "2 rows verified" in out


def test_verify_csv_detects_bad_row(capsys, tmp_path):
    rows = [Row(2, 1, 1, 1, "p2")]  # p2(1,1,1) = 1, not 2
    path = write_results_batch(rows_text(rows), 1, "coverage", tmp_path)
    code, out, _ = run(capsys, "verify-csv", str(path))
    assert code == 1
    assert out == f"{path}:2: invalid row 2,1,1,1,p2\n"


def test_verify_csv_prime_schema(capsys, tmp_path):
    # 4*18+1 = 73 is prime and (2,1,4) satisfies the second-family identity
    path = write_results_batch(rows_text([Row(18, 2, 1, 4)]), 1, "prime", tmp_path)
    code, out, _ = run(capsys, "verify-csv", str(path))
    assert code == 0
    # same shape but a composite target must be rejected
    bad = write_results_batch(rows_text([Row(36, 2, 3, 2)]), 2, "prime", tmp_path)
    code, out, _ = run(capsys, "verify-csv", str(bad))
    assert code == 1
    # P2(1, 1, z) = 2z - 1 = q with 4q+1 = MR_LIMIT, a strong pseudoprime to
    # every base: beyond the proven bound, so the row is not verified
    q = (MR_LIMIT - 1) // 4
    far = write_results_batch(rows_text([Row(q, 1, 1, (q + 1) // 2)]), 3, "prime", tmp_path)
    code, out, _ = run(capsys, "verify-csv", str(far))
    assert code == 1 and ":2:" in out


@pytest.mark.parametrize("text", [
    "q,x,y,z,pi\n2,0,1,1,p1\n",  # x = 0
    "q,x,y,z\n18,2,,4\n",  # prime row without y
    "q,x,y,z,pi\n2,1,1,,p1\n",  # p1 row without z
    # rows no scan writes, though int() takes each cell
    "q,x,y,z,pi\n0_2,1,1,1,p1\n",
    "q,x,y,z,pi\n+2,1,1,1,p1\n",
    "q,x,y,z,pi\n 2,1,1,1,p1\n",
    "q,x,y,z,pi\n02,1,1,1,p1\n",
    "q,x,y,z,pi\n2,1,1,1,1\n",  # a label without its p
    # a last row without its newline
    "q,x,y,z,pi\n2,1,1,1,p1",
    "q,x,y,z\n18,2,1,4",
])
def test_verify_csv_rejects_malformed_rows(capsys, tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    code, _, err = run(capsys, "verify-csv", str(path))
    assert code == 65
    assert f"{path}:2:" in err


def test_verify_csv_exits_on_the_first_bad_row_in_file_order(capsys, tmp_path):
    # a wrong identity (exit 1) and a malformed row (exit 65) in either order
    path = tmp_path / "rows.csv"
    path.write_text("q,x,y,z,pi\n2,1,1,1,p1\n2,1,1,1,p2\n6,1,1\n")
    assert run(capsys, "verify-csv", str(path)) == (1, f"{path}:3: invalid row 2,1,1,1,p2\n", "")
    path.write_text("q,x,y,z,pi\n2,1,1,1,p1\n6,1,1\n2,1,1,1,p2\n")
    code, out, err = run(capsys, "verify-csv", str(path))
    assert (code, out) == (65, "")
    assert f"{path}:3: not a row a scan writes" in err


def test_verify_csv_rejects_a_non_ascii_file(capsys, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"q,x,y,z,pi\n2,1,1,1,p\xb91\n")
    code, _, err = run(capsys, "verify-csv", str(path))
    assert code == 65
    assert f"{path}:2: " in err


def test_verify_csv_malformed_file(capsys, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nope\n")
    code, _, err = run(capsys, "verify-csv", str(path))
    assert code == 65


def test_verify_csv_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "verify-csv", str(tmp_path / "absent.csv"))
    assert code == 74


def test_split(capsys, tmp_path):
    rows = [Row(2, 1, 1, 1, "p1"), Row(6, 1, 1, None, "p3")]
    path = write_results_batch(rows_text(rows), 1, "coverage", tmp_path)
    code, out, _ = run(capsys, "split", str(path), "--out-dir", str(tmp_path))
    assert code == 0
    assert (tmp_path / "q_with_p1.csv").read_bytes() == b"2\n"
    assert (tmp_path / "q_with_p3.csv").read_bytes() == b"6\n"
    assert len(out.strip().splitlines()) == 4


def test_split_rejects_prime_schema(capsys, tmp_path):
    path = write_results_batch(rows_text([Row(36, 2, 3, 2)]), 1, "prime", tmp_path)
    code, _, err = run(capsys, "split", str(path), "--out-dir", str(tmp_path))
    assert code == 65


def test_split_writes_nothing_when_the_last_row_is_malformed(capsys, tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text("q,x,y,z,pi\n2,1,1,1,p1\n6,1,1,,p3\n7,1,1\n")
    out = tmp_path / "split"
    code, _, err = run(capsys, "split", str(path), "--out-dir", str(out))
    assert code == 65
    assert f"{path}:4: not a row a scan writes" in err
    assert not out.exists()
    # the files of an earlier split stay as they are
    out.mkdir()
    for poly in range(1, 5):
        (out / f"q_with_p{poly}.csv").write_text(f"{poly}\n")
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert run(capsys, "split", str(path), "--out-dir", str(out))[0] == 65
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_one_parser_serves_each_command_its_own_out_dir(capsys, tmp_path, monkeypatch):
    assert build_parser() is build_parser()
    for name in ("first", "second"):
        code, _, _ = run(capsys, "cover", "--q-max", "20", "--workers", "1", "--out-dir", str(tmp_path / name))
        assert code == 0
        assert (tmp_path / name / "results_batch1.csv").exists()
    # with no --out-dir, a command writes to the working directory it runs in
    for name, argv in (("scan", ["cover", "--q-max", "20", "--workers", "1"]),
                       ("split", ["split", str(tmp_path / "first" / "results_batch1.csv")])):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        assert run(capsys, *argv)[0] == 0
    assert (tmp_path / "scan" / "results_batch1.csv").exists()
    assert (tmp_path / "split" / "q_with_p1.csv").exists() and not (tmp_path / "scan" / "q_with_p1.csv").exists()


# Modules that answering one a or one q has no use for: the scan driver, and
# what only a scan, a resume or kzs_condition needs.
_NOT_FOR_ONE_A = ("erdos_straus.batch", "dataclasses", "logging", "fractions", "decimal", "json", "hashlib",
                  "multiprocessing")


@pytest.mark.parametrize("argvs, absent", [
    ([["decompose", "9"], ["witness", "13"]], _NOT_FOR_ONE_A),
    ([["cover", "--q-start", "6", "--q-max", "6", "--step", "6", "--batch-size", "1", "--workers", "1",
       "--out-dir", "{out}"]], ("dataclasses", "logging", "fractions")),
    ([["split", "{csv}", "--out-dir", "{out}"]], ("dataclasses", "logging", "fractions", "hashlib")),
], ids=["decompose-witness", "cover", "split"])
def test_a_command_imports_only_the_modules_it_runs(tmp_path, argvs, absent):
    # in a fresh interpreter, as a command line starts
    csv = write_results_batch(rows_text([Row(1, 1, 1, 1, "p2"), Row(72, 9, None, None, "p4")]), 1, "coverage",
                              tmp_path)
    argvs = [[arg.format(out=tmp_path / "out", csv=csv) for arg in argv] for argv in argvs]
    script = textwrap.dedent(f"""
        import contextlib, io, sys
        import erdos_straus, erdos_straus.cli, erdos_straus.decompose
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [erdos_straus.cli.main(argv) for argv in {argvs!r}]
        print(codes, [name for name in {absent!r} if name in sys.modules])
    """)
    src = str(Path(cli.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{[0] * len(argvs)} []\n"
