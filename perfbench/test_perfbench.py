"""Smoke test of the benchmark itself, kept apart from the package's suite.

    python3 -m pytest perfbench -q

Runs every workload at the tiny size with and without tracing, checks that
every metric is printed by name with its unit, and checks that the
correctness gate fires on corrupted artifacts and on a wrong pinned digest.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REPORT_METRICS = json.loads((HERE / "spec.json").read_text())["report_metrics"]


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _cli(*argv: str) -> int:
    from erdos_straus import cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(list(argv))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_tiny_run_prints_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    for name, m in REPORT_METRICS.items():
        printed = [line.split() for line in lines if line.split()[:1] == [name]]
        applies = m["workloads"] == "all" or workload in m["workloads"].split(", ")
        assert bool(printed) == applies, name
        if applies:
            assert printed[0][2] == m["unit"], name


def test_gate_fires_on_a_corrupted_coverage_row(tmp_path):
    assert _cli("cover", "--q-max", "300", "--batch-size", "100", "--workers", "1",
                "--out-dir", str(tmp_path)) == 0
    window = list(range(1, 301))
    assert gate.check_coverage(tmp_path, window) == (300, [])
    digest = gate.artifact_digest(tmp_path)

    path = tmp_path / "results_batch2.csv"
    lines = path.read_text().split("\n")
    q, x, *rest = lines[5].split(",")
    lines[5] = ",".join([q, str(int(x) + 1), *rest])
    path.write_text("\n".join(lines))
    _, failures = gate.check_coverage(tmp_path, window)
    assert len(failures) == 2, failures  # the bad row, and its q now missing
    assert "family value differs" in failures[0] and f"q={q} missing" in failures[1]
    assert gate.artifact_digest(tmp_path) != digest


def test_gate_fires_on_a_corrupted_prime_row(tmp_path):
    assert _cli("primes", "--q-max", "600", "--workers", "1", "--out-dir", str(tmp_path)) == 0
    candidates = list(range(6, 601, 6))
    assert gate.check_primes(tmp_path, candidates) == (100, [])

    path = tmp_path / "Results" / "results_batch001.csv"
    lines = path.read_text().split("\n")
    q, x, y, z = lines[3].split(",")
    lines[3] = ",".join([q, x, y, str(int(z) + 1)])
    path.write_text("\n".join(lines))
    _, failures = gate.check_primes(tmp_path, candidates)
    assert any("P2 identity fails" in f for f in failures), failures
    assert "all_solutions.csv differs from the batch files" in failures


@pytest.mark.xfail(strict=True, reason=(
    "known defect: batch._prime_batches aligns each block's start up to a multiple "
    "of 6 but ends the block batch_size - 1 after the aligned start, so blocks can "
    "overlap; here q = 24 (4q+1 = 97) is written by batches 2 and 3"))
def test_prime_scan_over_drifting_batches_passes_the_gate(tmp_path):
    _cli("primes", "--q-max", "40", "--batch-size", "8", "--workers", "1", "--out-dir", str(tmp_path))
    assert gate.check_primes(tmp_path, list(range(6, 41, 6))) == (6, [])


def test_pinned_digest_mismatch_is_a_failure():
    runner = SimpleNamespace(args=SimpleNamespace(workload="primes"), attempted=0, failed=0, failures=[])
    pins = {"primes": {"window": "abc"}}
    assert run._check_pin(runner, pins, {"window_key": "window", "digest": "abc"}) == "match"
    assert run._check_pin(runner, pins, {"window_key": "other", "digest": "abc"}) == "unpinned"
    assert run._check_pin(runner, pins, {"window_key": "window", "digest": "abd"}) == "MISMATCH"
    assert (runner.attempted, runner.failed, len(runner.failures)) == (3, 1, 1)


def test_default_seed_windows_are_pinned():
    pins = json.loads((HERE / "spec.json").read_text())["pins"]
    for name in ("scan-dense", "scan-hard", "primes"):
        assert workloads.window_key(workloads.scan_window(name, 0, "full")) in pins[name]


def test_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "targets", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
