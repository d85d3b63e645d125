"""Acceptance suite: reproduces every published reference number exactly.

Each criterion prints an ``ACCEPTANCE PASS/FAIL`` line so a log scrape can
confirm the whole gate without parsing pytest output.  The heavy scans are
shared through module-scoped fixtures; the full run takes on the order of a
minute on one core.
"""

import random
from pathlib import Path

import pytest

from erdos_straus.batch import BatchConfig, ScanMode, run_coverage
from erdos_straus.decompose import (
    decompose_4q2,
    decompose_4q3,
    decompose_any,
    decompose_case_p1,
    decompose_case_p2,
    decompose_case_p3,
    decompose_kzs,
    decompose_mult4,
    verify_exact,
)
from erdos_straus.families import KzsPoint, PolyId, WitnessTriple, shifted_value
from erdos_straus.reports import read_results, split_by_family
from erdos_straus.search import staged_search

from .oracles import naive_staged_classification, rational_identity_holds

Q_MAX = 1_000_000

# Reference tallies for the full range scan, q in [1, 10^6] step 1.
FULL_TALLIES = {PolyId.P1: 346_519, PolyId.P2: 646_487, PolyId.P3: 6_919, PolyId.P4: 75}

# Reference tallies for the multiples-of-6 scan, q in [6, 999996] step 6.
STEP6_SOLVED = 166_666
STEP6_TALLIES = {PolyId.P1: 13_187, PolyId.P2: 146_485, PolyId.P3: 6_919, PolyId.P4: 75}

# Reference totals for the prime scan over q = 6c, q <= 10^6.
PRIME_SOLUTIONS = 35_279

# First 20 q values of each family split of the full range scan.
SPLIT_PREFIXES = {
    "p1": [2, 5, 8, 11, 12, 17, 19, 20, 26, 29, 30, 32, 35, 38, 41, 44, 47, 50, 53, 56],
    "p2": [1, 3, 4, 7, 9, 10, 13, 14, 15, 16, 18, 21, 22, 23, 24, 25, 27, 28, 31, 33],
    "p3": [6, 42, 126, 156, 210, 216, 342, 366, 396, 426, 546, 576, 636, 702, 732,
           756, 786, 816, 930, 966],
    "p4": [72, 420, 1332, 1980, 2352, 3192, 4692, 9312, 13110, 14520, 16512, 19740,
           20880, 24492, 28392, 31152, 40200, 41820, 46872, 50400],
}


def _report(capsys, criterion: str, ok: bool, detail: str = "") -> None:
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        print(f"ACCEPTANCE {status}: {criterion}{suffix}")
    assert ok, f"{criterion}{': ' + detail if detail else ''}"


@pytest.fixture(scope="module")
def full_coverage(tmp_path_factory):
    out = tmp_path_factory.mktemp("cover_full")
    cfg = BatchConfig(
        q_start=1, q_max=Q_MAX, mode=ScanMode.COVERAGE, worker_count=1, output_dir=out
    )
    return run_coverage(cfg), out


@pytest.fixture(scope="module")
def step6_coverage(tmp_path_factory):
    out = tmp_path_factory.mktemp("cover_step6")
    cfg = BatchConfig(
        q_start=6,
        q_max=Q_MAX,
        step=6,
        mode=ScanMode.COVERAGE,
        worker_count=1,
        output_dir=out,
    )
    return run_coverage(cfg), out


def _merge_tallies(reports):
    total = {p: 0 for p in PolyId}
    for r in reports:
        for p, n in r.tallies.items():
            total[p] += n
    return total


def test_criterion_1_full_range_tallies(full_coverage, capsys):
    reports, _ = full_coverage
    tallies = _merge_tallies(reports)
    unsolved = sum(len(r.unsolved) for r in reports)
    ok = tallies == FULL_TALLIES and unsolved == 0
    _report(
        capsys,
        "1: range scan q in [1, 10^6] reproduces the reference tallies",
        ok,
        f"tallies={{{', '.join(f'{p.label}: {n}' for p, n in tallies.items())}}}, "
        f"unsolved={unsolved}",
    )


def test_criterion_2_step6_tallies(step6_coverage, capsys):
    reports, _ = step6_coverage
    tallies = _merge_tallies(reports)
    solved = sum(r.solved_count for r in reports)
    unsolved = sum(len(r.unsolved) for r in reports)
    ok = solved == STEP6_SOLVED and tallies == STEP6_TALLIES and unsolved == 0
    _report(
        capsys,
        "2: multiples-of-6 scan reproduces the reference tallies",
        ok,
        f"solved={solved}, tallies={{{', '.join(f'{p.label}: {n}' for p, n in tallies.items())}}}",
    )


def test_criterion_3_prime_scan(tmp_path_factory, capsys):
    out = tmp_path_factory.mktemp("primes_full")
    cfg = BatchConfig(
        q_start=6,
        q_max=Q_MAX,
        step=6,
        mode=ScanMode.PRIME_COVERAGE,
        worker_count=1,
        output_dir=out,
    )
    reports = run_coverage(cfg)
    solved = sum(r.solved_count for r in reports)
    unsolved = sum(len(r.unsolved) for r in reports)
    rows = list(read_results(out / "Results" / "all_solutions.csv"))
    ok = solved == PRIME_SOLUTIONS and unsolved == 0 and len(rows) == PRIME_SOLUTIONS
    _report(
        capsys,
        "3: prime scan finds a witness for every prime target up to 10^6",
        ok,
        f"solutions={solved}, unsolved={unsolved}",
    )


def test_criterion_4_family_split_prefixes(full_coverage, capsys):
    # Known to fail on one entry: the published fourth-family list prints
    # 13110 at position 9, but 13110 has the third-family witness
    # (x=58, y=29) inside the sweep bound, so no run of the search can
    # classify it as fourth-family; the scan yields the adjacent oblong
    # number 13572 = 116*117 there instead.  The reference lists are
    # asserted verbatim regardless; see the decisions ledger.
    _, out = full_coverage
    split_dir = out / "split"
    paths = split_by_family(out / "results_batch1.csv", split_dir)
    got = {}
    for path in paths:
        label = path.stem.removeprefix("q_with_")
        qs = [int(line) for line in path.read_text().split("\n") if line]
        got[label] = qs[:20]
    ok = got == SPLIT_PREFIXES
    detail = "all four families"
    if not ok:
        diffs = []
        for label, expect in SPLIT_PREFIXES.items():
            for pos, (g, e) in enumerate(zip(got.get(label, []), expect)):
                if g != e:
                    diffs.append(f"{label}[{pos}]: expected {e}, scan yields {g}")
        detail = "; ".join(diffs)
    _report(
        capsys,
        "4: per-family q lists open with the published 20-entry prefixes",
        ok,
        detail,
    )


def test_criterion_5_exactness_suite(capsys):
    failures = 0
    for x in range(1, 51):
        for y in range(1, 51):
            for z in range(1, 51):
                t = WitnessTriple(x, y, z)
                for poly, fn in [
                    (PolyId.P1, decompose_case_p1),
                    (PolyId.P2, decompose_case_p2),
                    (PolyId.P3, decompose_case_p3),
                ]:
                    if not verify_exact(shifted_value(poly, t), fn(t)):
                        failures += 1
    for q in range(0, 10_001):
        if q >= 1 and not verify_exact(4 * q, decompose_mult4(q)):
            failures += 1
        if not verify_exact(4 * q + 2, decompose_4q2(q)):
            failures += 1
        if not verify_exact(4 * q + 3, decompose_4q3(q)):
            failures += 1
    rng = random.Random(0xE5)
    for _ in range(10_000):
        s = rng.randint(1, 500)
        p = KzsPoint((4 * s - 1) * rng.randint(1, 500), rng.randint(1, 500), s)
        q = p.kappa * p.z - p.s
        if not rational_identity_holds(4 * q + 1, decompose_kzs(p)):
            failures += 1
    _report(
        capsys,
        "5: every construction yields an exact identity "
        "(cases on [1,50]^3, residue identities to 10^4, 10^4 sampled points)",
        failures == 0,
        f"failures={failures}",
    )


def test_criterion_6_decompose_everything(capsys):
    failures = []
    for a in range(2, 100_001):
        try:
            rec = decompose_any(a)
        except Exception:
            failures.append(a)
            continue
        if not verify_exact(a, rec.triple):
            failures.append(a)
    _report(
        capsys,
        "6: a verified decomposition of 4/a exists for every 2 <= a <= 10^5",
        not failures,
        f"failures={failures[:5]}" if failures else "100000 targets, 0 failures",
    )


def test_criterion_7_staged_search_matches_oracle(capsys):
    mismatches = []
    for q in range(1, 2001):
        w = staged_search(q)
        expect = naive_staged_classification(q)
        if w is None or w.poly != expect:
            mismatches.append(q)
    _report(
        capsys,
        "7: staged classification agrees with the exhaustive oracle for q <= 2000",
        not mismatches,
        f"mismatches={mismatches[:5]}" if mismatches else "2000 values checked",
    )


def test_criterion_8_worker_count_determinism(tmp_path_factory, capsys):
    import io
    import os
    from contextlib import redirect_stdout

    from erdos_straus.cli import main

    worker_counts = sorted({1, 4, os.cpu_count() or 1})
    artifacts = {}
    transcripts = {}
    for workers in worker_counts:
        out = tmp_path_factory.mktemp(f"det_w{workers}")
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(
                [
                    "cover",
                    "--q-max", "10000",
                    "--batch-size", "2500",
                    "--workers", str(workers),
                    "--out-dir", str(out),
                ]
            )
        assert code == 0
        artifacts[workers] = {
            p.relative_to(out).as_posix(): p.read_bytes()
            for p in sorted(out.rglob("*.csv"))
        }
        transcripts[workers] = [
            line for line in buf.getvalue().splitlines() if not line.startswith("time:")
        ]
    baseline = worker_counts[0]
    ok = all(
        artifacts[w] == artifacts[baseline] and transcripts[w] == transcripts[baseline]
        for w in worker_counts
    )
    _report(
        capsys,
        "8: CSV artifacts and timing-stripped stdout are byte-identical "
        "for every worker count",
        ok,
        f"worker counts {worker_counts}, {len(artifacts[baseline])} files compared",
    )
