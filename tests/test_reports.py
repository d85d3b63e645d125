import pytest
from hypothesis import given, strategies as st

from erdos_straus.families import PolyId, WitnessTriple
from erdos_straus.reports import (
    COVERAGE_HEADER,
    PRIME_HEADER,
    ReportFormatError,
    SolutionRow,
    coverage_line,
    read_results,
    read_results_q,
    results_batch_path,
    row_to_witness,
    split_by_family,
    unsolved_path,
    write_results_aggregate,
    write_lines,
    write_results_batch,
    write_unsolved,
)
from erdos_straus.search import Witness, staged_search

from .oracles import rows_text, witness_to_row


def test_row_validation():
    SolutionRow(6, 1, 1, None, "p3")
    SolutionRow(72, 9, None, None, "p4")
    with pytest.raises(ValueError):
        SolutionRow(6, 1, 1, 1, "p3")  # p3 must leave z empty
    with pytest.raises(ValueError):
        SolutionRow(72, 9, 1, None, "p4")  # p4 must leave y and z empty
    with pytest.raises(ValueError):
        SolutionRow(1, 1, 1, 1, "p9")


def test_witness_row_rendering():
    cases = [
        (Witness(2, PolyId.P1, WitnessTriple(1, 1, 1)), SolutionRow(2, 1, 1, 1, "p1")),
        (Witness(9, PolyId.P2, WitnessTriple(1, 1, 5)), SolutionRow(9, 1, 1, 5, "p2")),
        (Witness(6, PolyId.P3, WitnessTriple(1, 1, 1)), SolutionRow(6, 1, 1, None, "p3")),
        (Witness(72, PolyId.P4, WitnessTriple(9, 1, 1)), SolutionRow(72, 9, None, None, "p4")),
    ]
    for w, row in cases:
        assert witness_to_row(w) == row
        assert coverage_line(w) == rows_text([row])[0]


def test_row_witness_round_trip_small():
    for q in range(1, 500):
        w = staged_search(q)
        back = row_to_witness(witness_to_row(w))
        assert back == w, q


def test_row_to_witness_rejects_prime_rows():
    with pytest.raises(ValueError):
        row_to_witness(SolutionRow(36, 2, 3, 2))


def test_paths():
    from pathlib import Path

    out = Path("/tmp/x")
    assert results_batch_path(3, "coverage", out) == out / "results_batch3.csv"
    assert results_batch_path(3, "prime", out) == out / "Results" / "results_batch003.csv"
    assert unsolved_path(None, "coverage", out) == out / "unsolved_all.csv"
    assert unsolved_path(2, "coverage", out) == out / "unsolved_batch2.csv"
    assert unsolved_path(None, "prime", out) == out / "Results" / "all_unsolved.csv"
    assert unsolved_path(12, "prime", out) == out / "Results" / "unsolved_batch012.csv"


def _coverage_rows():
    return [witness_to_row(staged_search(q)) for q in range(1, 40)]


def test_coverage_file_bytes(tmp_path):
    rows = [
        SolutionRow(1, 1, 1, 1, "p2"),
        SolutionRow(6, 1, 1, None, "p3"),
        SolutionRow(72, 9, None, None, "p4"),
    ]
    path = write_results_batch(rows_text(rows), 1, "coverage", tmp_path)
    assert path.read_bytes() == b"q,x,y,z,pi\n1,1,1,1,p2\n6,1,1,,p3\n72,9,,,p4\n"


def test_prime_file_bytes(tmp_path):
    rows = [SolutionRow(36, 2, 3, 2), SolutionRow(90, 1, 31, 3)]
    path = write_results_batch(rows_text(rows), 7, "prime", tmp_path)
    assert path == tmp_path / "Results" / "results_batch007.csv"
    assert path.read_bytes() == b"q,x,y,z\n36,2,3,2\n90,1,31,3\n"
    agg = write_results_aggregate([path], tmp_path)
    assert agg.read_bytes() == path.read_bytes()
    assert agg.name == "all_solutions.csv"


def test_write_rejects_unsorted(tmp_path):
    with pytest.raises(ValueError):
        write_unsolved([3, 3], 1, "coverage", tmp_path)
    with pytest.raises(ValueError):
        write_results_batch([], 1, "bogus", tmp_path)


def test_unsolved_bytes_and_read_back(tmp_path):
    path = write_unsolved([4, 9, 11], None, "coverage", tmp_path)
    assert path.read_bytes() == b"q\n4\n9\n11\n"
    assert read_results_q(path) == [4, 9, 11]


def test_read_results_q_names_the_bad_line(tmp_path):
    path = tmp_path / "unsolved.csv"
    path.write_text("q\n4\n9.5\n")
    with pytest.raises(ReportFormatError, match=r":3: not an integer q: '9.5'"):
        read_results_q(path)


def test_read_results_checks_the_schema_it_is_asked_for(tmp_path):
    prime = write_results_batch(rows_text([SolutionRow(36, 2, 3, 2)]), 1, "prime", tmp_path)
    assert read_results(prime, "prime") == [SolutionRow(36, 2, 3, 2)]
    with pytest.raises(ReportFormatError, match="need the coverage schema"):
        read_results(prime, "coverage")
    coverage = write_results_batch(rows_text([]), 1, "coverage", tmp_path)
    with pytest.raises(ReportFormatError, match="need the prime schema"):
        read_results(coverage, "prime")


def test_failed_write_keeps_the_previous_file(tmp_path):
    path = write_unsolved([4, 9], 1, "coverage", tmp_path)
    before = path.read_bytes()

    def lines():
        yield "q"
        yield "5"
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        write_lines(path, lines())
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_read_results_round_trip(tmp_path):
    rows = _coverage_rows()
    path = write_results_batch(rows_text(rows), 1, "coverage", tmp_path)
    assert read_results(path) == rows


def test_read_results_prime_round_trip(tmp_path):
    rows = [SolutionRow(36, 2, 3, 2)]
    path = write_results_batch(rows_text(rows), 1, "prime", tmp_path)
    assert read_results(path) == rows


@pytest.mark.parametrize("text,fragment", [
    ("", "empty"),
    ("q,x,y\n", "unrecognized header"),
    ("q,x,y,z,pi\n1,2\n", "expected 5 fields"),
    ("q,x,y,z,pi\n1,2,3,4,p9\n", "p9"),
    ("q,x,y,z\n1,a,3,4\n", "invalid literal"),
    ("q,x,y,z,pi\n2,0,1,1,p1\n", ":2: p1 rows must give every coordinate"),
    ("q,x,y,z\n18,2,,4\n", ":2: prime rows must give every coordinate"),
    ("q,x,y,z,pi\n2,1,1,,p1\n", ":2: p1 rows must give every coordinate"),
])
def test_read_results_errors(tmp_path, text, fragment):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ReportFormatError, match=fragment.replace("(", "\\(")):
        read_results(path)


def test_split_by_family(tmp_path):
    rows = [
        SolutionRow(1, 1, 1, 1, "p2"),
        SolutionRow(2, 1, 1, 1, "p1"),
        SolutionRow(6, 1, 1, None, "p3"),
        SolutionRow(8, 3, 1, 1, "p1"),
        SolutionRow(72, 9, None, None, "p4"),
    ]
    src = write_results_batch(rows_text(rows), 1, "coverage", tmp_path)
    paths = split_by_family(src, tmp_path)
    assert [p.name for p in paths] == [
        "q_with_p1.csv",
        "q_with_p2.csv",
        "q_with_p3.csv",
        "q_with_p4.csv",
    ]
    assert paths[0].read_bytes() == b"2\n8\n"
    assert paths[1].read_bytes() == b"1\n"
    assert paths[2].read_bytes() == b"6\n"
    assert paths[3].read_bytes() == b"72\n"


def test_split_rejects_prime_schema(tmp_path):
    src = write_results_batch(rows_text([SolutionRow(36, 2, 3, 2)]), 1, "prime", tmp_path)
    with pytest.raises(ReportFormatError):
        split_by_family(src, tmp_path)


@given(st.lists(st.integers(1, 10**6), unique=True, min_size=0, max_size=50))
def test_unsolved_round_trip(tmp_path_factory, qs):
    out = tmp_path_factory.mktemp("unsolved")
    path = write_unsolved(sorted(qs), 3, "coverage", out)
    assert read_results_q(path) == sorted(qs)
