import hashlib
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from erdos_straus.families import PolyId, WitnessTriple
from erdos_straus.numutil import is_prime
from erdos_straus.reports import (
    COVERAGE_HEADER,
    PRIME_HEADER,
    ReportFormatError,
    coverage_line,
    file_digest,
    prime_line,
    read_results,
    read_results_q,
    results_batch_path,
    split_by_family,
    unsolved_path,
    write_results_aggregate,
    write_lines,
    write_results_batch,
    write_unsolved,
)
from erdos_straus.search import Witness, prime_witness_search, staged_search

from .oracles import Row, rows_text, witness_to_row


def _coverage_file(tmp_path, lines):
    path = tmp_path / "rows.csv"
    path.write_text(COVERAGE_HEADER + "\n" + "".join(lines))
    return path


def test_row_validation(tmp_path):
    good = ["6,1,1,,p3\n", "72,9,,,p4\n"]
    assert list(read_results(_coverage_file(tmp_path, good))) == [
        Witness(6, PolyId.P3, WitnessTriple(1, 1, 1)),
        Witness(72, PolyId.P4, WitnessTriple(9, 1, 1)),
    ]
    for bad in ("6,1,1,1,p3\n",  # p3 must leave z empty
                "72,9,1,,p4\n",  # p4 must leave y and z empty
                "6,1,,,p3\n",  # p3 uses y
                "1,1,1,1,p9\n", "1,1,1,1,P2\n", "1,1,1,1,\n",
                # written as the scan writes them, but not >= 1
                "0,1,,,p4\n", "-2,1,1,1,p1\n", "2,1,-1,1,p1\n", "2,1,1,0,p1\n"):
        with pytest.raises(ReportFormatError, match=":3: "):
            list(read_results(_coverage_file(tmp_path, good[:1] + [bad])))


def test_witness_row_rendering():
    cases = [
        (Witness(2, PolyId.P1, WitnessTriple(1, 1, 1)), Row(2, 1, 1, 1, "p1")),
        (Witness(9, PolyId.P2, WitnessTriple(1, 1, 5)), Row(9, 1, 1, 5, "p2")),
        (Witness(6, PolyId.P3, WitnessTriple(1, 1, 1)), Row(6, 1, 1, None, "p3")),
        (Witness(72, PolyId.P4, WitnessTriple(9, 1, 1)), Row(72, 9, None, None, "p4")),
    ]
    for w, row in cases:
        assert witness_to_row(w) == row
        assert coverage_line(w) == rows_text([row])[0]


def test_row_witness_round_trip_small(tmp_path):
    # every row a scan writes reads back as the witness it was written from
    witnesses = [staged_search(q) for q in range(1, 2 * 10**4 + 1)]
    assert {w.poly for w in witnesses} == set(PolyId)
    path = write_results_batch(map(coverage_line, witnesses), 1, "coverage", tmp_path)
    assert list(read_results(path)) == witnesses
    # a prime row is the second-family witness of its q
    targets = [q for q in range(6, 2 * 10**4 + 1, 6) if is_prime(4 * q + 1)]
    witnesses = [prime_witness_search(q) for q in targets]
    assert {w.poly for w in witnesses} == {PolyId.P2}
    path = write_results_batch(map(prime_line, witnesses), 1, "prime", tmp_path)
    assert list(read_results(path)) == witnesses


def test_row_to_witness_rejects_prime_rows(tmp_path):
    # a prime row carries no family label, so it never reads as a coverage witness
    with pytest.raises(ReportFormatError, match=":2: not a row a scan writes"):
        list(read_results(_coverage_file(tmp_path, ["36,2,3,2\n"])))
    prime = write_results_batch(rows_text([Row(36, 2, 3, 2)]), 1, "prime", tmp_path)
    with pytest.raises(ReportFormatError, match="need the coverage schema"):
        list(read_results(prime, "coverage"))


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
        Row(1, 1, 1, 1, "p2"),
        Row(6, 1, 1, None, "p3"),
        Row(72, 9, None, None, "p4"),
    ]
    path = write_results_batch(rows_text(rows), 1, "coverage", tmp_path)
    assert path.read_bytes() == b"q,x,y,z,pi\n1,1,1,1,p2\n6,1,1,,p3\n72,9,,,p4\n"


def test_prime_file_bytes(tmp_path):
    rows = [Row(36, 2, 3, 2), Row(90, 1, 31, 3)]
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
    with pytest.raises(ReportFormatError, match=r":3: not a q >= 1 as a scan writes it: '9.5'"):
        read_results_q(path)


@pytest.mark.parametrize("line", [pytest.param(f"{line}\n", id=line) for line in ["0_2", "+5", "-3", " 7", "7 ", "07", "0", ""]]
                         + [pytest.param("9", id="9 without its newline")])
def test_read_results_q_takes_only_what_a_scan_writes(tmp_path, line):
    path = tmp_path / "unsolved.csv"
    path.write_text(f"q\n4\n{line}")
    with pytest.raises(ReportFormatError, match=":3: "):
        read_results_q(path)


@pytest.mark.parametrize("read", [read_results, read_results_q])
def test_readers_reject_a_non_ascii_file(tmp_path, read):
    path = tmp_path / "rows.csv"
    header = b"q\n" if read is read_results_q else COVERAGE_HEADER.encode() + b"\n"
    # U+00B9 (superscript one) is a digit to str.isdigit, and 0xb9 its latin-1 byte
    for row in (b"2,1,1,1,p\xb91\n", b"2,1,1,1,p\xc2\xb9\n", b"\xb9\n", b"\xc2\xb9\n"):
        path.write_bytes(header + row)
        with pytest.raises(ReportFormatError, match=":2: "):
            list(read(path))


def test_read_results_checks_the_schema_it_is_asked_for(tmp_path):
    prime = write_results_batch(rows_text([Row(36, 2, 3, 2)]), 1, "prime", tmp_path)
    assert list(read_results(prime, "prime")) == [Witness(36, PolyId.P2, WitnessTriple(2, 3, 2))]
    with pytest.raises(ReportFormatError, match="need the coverage schema"):
        list(read_results(prime, "coverage"))
    coverage = write_results_batch(rows_text([]), 1, "coverage", tmp_path)
    with pytest.raises(ReportFormatError, match="need the prime schema"):
        list(read_results(coverage, "prime"))


def test_file_digest_is_the_sha256_of_the_bytes_written(tmp_path):
    rows = rows_text([Row(1, 1, 1, 1, "p2"), Row(72, 9, None, None, "p4")])
    for written in (write_results_batch(rows, 1, "coverage", tmp_path),
                    write_unsolved([4, 9], 1, "coverage", tmp_path),
                    write_lines(tmp_path / "empty.csv", [])):
        data = written.read_bytes()
        assert file_digest(written) == (hashlib.sha256(data).hexdigest(), data.count(b"\n"))
    assert written == tmp_path / "empty.csv"  # a writer returns the path it wrote
    assert not list(tmp_path.glob(".*"))  # no temp file is left


@pytest.mark.parametrize("error", [OSError("disk full"), ValueError("bad block")])
def test_failed_write_removes_its_temp_file(tmp_path, error):
    def text():
        yield "q\n"
        raise error

    with pytest.raises(type(error), match=str(error)):
        write_results_batch(text(), 1, "coverage", tmp_path)
    assert list(tmp_path.iterdir()) == []


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
    assert list(read_results(path)) == [staged_search(q) for q in range(1, 40)]


def test_read_results_prime_round_trip(tmp_path):
    path = write_results_batch(rows_text([Row(36, 2, 3, 2)]), 1, "prime", tmp_path)
    assert list(read_results(path)) == [Witness(36, PolyId.P2, WitnessTriple(2, 3, 2))]


@pytest.mark.parametrize("text,fragment", [
    ("", "empty"),
    ("q,x,y\n", "unrecognized header"),
    ("q,x,y,z,pi\n1,2\n", ":2: not a row a scan writes"),
    ("q,x,y,z,pi\n1,2,3,4,p9\n", "p9"),
    ("q,x,y,z\n1,a,3,4\n", ":2: not a row a scan writes"),
    ("q,x,y,z,pi\n2,0,1,1,p1\n", "x, y, z >= 1: '2,0,1,1,p1'"),
    ("q,x,y,z\n18,2,,4\n", ":2: not a row a scan writes"),
    ("q,x,y,z\n18,2,1,0\n", "x, y, z >= 1: '18,2,1,0'"),
    ("q,x,y,z,pi\n2,1,1,,p1\n", ":2: not a row a scan writes"),
    # rows end with a newline, the last one too
    ("q,x,y,z,pi\n2,1,1,1,p1", ":2: the file ends in this line, without a newline: '2,1,1,1,p1'"),
    ("q,x,y,z\n18,2,1,4", ":2: the file ends in this line, without a newline: '18,2,1,4'"),
    ("q,x,y,z,pi", ":1: the file ends in this line, without a newline: 'q,x,y,z,pi'"),
])
def test_read_results_errors(tmp_path, text, fragment):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ReportFormatError, match=fragment.replace("(", "\\(")):
        list(read_results(path))


def test_read_results_reads_one_row_at_a_time(tmp_path):
    # the 3rd row is malformed: the first two are handed out before reading reaches it
    path = _coverage_file(tmp_path, ["2,1,1,1,p1\n", "6,1,1,,p3\n", "7,1,1\n", "72,9,,,p4\n"])
    witnesses = read_results(path)
    assert next(witnesses) == Witness(2, PolyId.P1, WitnessTriple(1, 1, 1))
    assert next(witnesses) == Witness(6, PolyId.P3, WitnessTriple(1, 1, 1))
    with pytest.raises(ReportFormatError, match=":4: not a row a scan writes"):
        next(witnesses)


def test_read_results_memory_does_not_grow_with_the_file(tmp_path):
    rows = 2 * 10**5
    path = write_results_batch((f"{q},1,{q},{q},p1\n" for q in range(1, rows + 1)), 1, "coverage", tmp_path)
    tracemalloc.start()
    try:
        count = sum(1 for _ in read_results(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == rows
    # tracemalloc reads about 50 kB here; a list of the witnesses peaks near 47 MB
    assert peak < 1 << 20


def test_split_by_family(tmp_path):
    rows = [
        Row(1, 1, 1, 1, "p2"),
        Row(2, 1, 1, 1, "p1"),
        Row(6, 1, 1, None, "p3"),
        Row(8, 3, 1, 1, "p1"),
        Row(72, 9, None, None, "p4"),
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
    src = write_results_batch(rows_text([Row(36, 2, 3, 2)]), 1, "prime", tmp_path)
    with pytest.raises(ReportFormatError):
        split_by_family(src, tmp_path)


@given(st.lists(st.integers(1, 10**6), unique=True, min_size=0, max_size=50))
def test_unsolved_round_trip(tmp_path_factory, qs):
    out = tmp_path_factory.mktemp("unsolved")
    path = write_unsolved(sorted(qs), 3, "coverage", out)
    assert read_results_q(path) == sorted(qs)
