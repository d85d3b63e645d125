"""CSV artifacts, byte-compatible with the original notebook outputs.

Two row schemas exist: coverage files carry q,x,y,z,pi with empty y/z
fields for families that do not use them, prime files carry q,x,y,z only.
Coverage batch files are named results_batch<B>.csv with an unpadded index
at the output root; prime batch files are results_batch<BBB>.csv, zero
padded to three digits, under a Results/ subdirectory.  Fields are plain
ASCII, comma separated, never quoted; rows end with a newline.  Rows are
written as text from a `Witness` by `coverage_line` and `prime_line` (a
prime row is a P2 witness's, without its label), and by the slice
solvers `batch._wide_slice` and `batch._prime_slice`, which format their
x = 1 rows themselves; the tests `test_coverage_slice_text_is_the_row_rendering`
and `test_prime_slice_text_is_the_row_rendering` keep those rows equal to
the two writers'.  `read_results` accepts a row exactly when writing its
witness back gives the row as it stands.
"""

from __future__ import annotations

import io
import os
from itertools import chain, islice
from pathlib import Path
from typing import Collection, Iterable, Iterator, Optional, Sequence

from .families import P2, P3, P4, PolyId, WitnessTriple
from .search import Witness

COVERAGE_HEADER = "q,x,y,z,pi"
PRIME_HEADER = "q,x,y,z"
HEADERS = {"coverage": COVERAGE_HEADER, "prime": PRIME_HEADER}
_PRIME_DIR = "Results"  # the prime layout's subdirectory of the output root

FAMILY_LABELS = tuple(p.label for p in PolyId)
_POLY_OF_LABEL_LF = {f"{label}\n": p for label, p in zip(FAMILY_LABELS, PolyId)}  # a label as it ends a row


class ReportFormatError(Exception):
    """A CSV file does not match either of the two row schemas."""


def coverage_line(w: Witness) -> str:
    """A witness's coverage row as newline-terminated CSV text."""
    q, poly, (x, y, z) = w
    if poly is P4:
        return f"{q},{x},,,p4\n"
    if poly is P3:
        return f"{q},{x},{y},,p3\n"
    return f"{q},{x},{y},{z},{FAMILY_LABELS[poly - 1]}\n"


def prime_line(w: Witness) -> str:
    """A prime target's P2 witness's row as newline-terminated CSV text."""
    t = w.triple
    return f"{w.q},{t.x},{t.y},{t.z}\n"


def results_batch_path(batch_index: int, mode: str, out_dir: Path) -> Path:
    if mode == "prime":
        return out_dir / _PRIME_DIR / f"results_batch{batch_index:03d}.csv"
    return out_dir / f"results_batch{batch_index}.csv"


def unsolved_path(batch_index: Optional[int], mode: str, out_dir: Path) -> Path:
    if mode == "prime":
        return out_dir / _PRIME_DIR / ("all_unsolved.csv" if batch_index is None else f"unsolved_batch{batch_index:03d}.csv")
    return out_dir / ("unsolved_all.csv" if batch_index is None else f"unsolved_batch{batch_index}.csv")


def write_results_batch(text: Iterable[str], batch_index: int, mode: str, out_dir: Path) -> Path:
    """Write one batch's results file: the schema header, then `text`,
    blocks of newline-terminated rows already in q order."""
    if mode not in HEADERS:
        raise ValueError(f"unknown mode {mode!r}")
    path = results_batch_path(batch_index, mode, Path(out_dir))
    return write_text(path, chain([HEADERS[mode] + "\n"], text))


def write_results_aggregate(batch_paths: Iterable[Path], out_dir: Path) -> Path:
    """Prime mode's all_solutions.csv under Results/: the rows of the prime
    batch files, in the order given, under one header."""

    def text():
        yield PRIME_HEADER + "\n"
        for batch_path in batch_paths:
            with open(batch_path, "r", encoding="ascii", newline="") as fh:
                fh.readline()  # its header
                yield from iter(lambda: fh.read(1 << 20), "")

    path = Path(out_dir) / _PRIME_DIR / "all_solutions.csv"
    return write_text(path, text())


def write_unsolved(qs: Sequence[int], batch_index: Optional[int], mode: str, out_dir: Path) -> Path:
    """Single-column unsolved file; batch_index None means the aggregate."""
    if any(qs[i] >= qs[i + 1] for i in range(len(qs) - 1)):
        raise ValueError("unsolved q values must be sorted and deduplicated")
    path = unsolved_path(batch_index, mode, Path(out_dir))
    return write_lines(path, ["q"] + [str(q) for q in qs])


def write_lines(path: Path, lines: Iterable[str]) -> Path:
    """`write_text` of the lines, newline-terminated, as one block: per line it costs 2x."""
    return write_text(path, ["".join([line + "\n" for line in lines])])


def write_text(path: Path, text: Iterable[str]) -> Path:
    """Write the text blocks, ASCII-encoded, to a temp file beside `path`,
    then rename it over `path`: a crash leaves the old file or the new one,
    and a failed write removes the temp file.  Returns `path`."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for block in text:
                fh.write(block.encode("ascii"))
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise OSError(f"cannot write report file {path}: {exc}") from exc
        raise
    return path


def file_digest(path: Path) -> tuple[str, int]:
    """Hex sha256 of a file's bytes, and how many newlines they hold."""
    import hashlib  # loads OpenSSL (a few ms and MB), which only scans need

    digest, newlines = hashlib.sha256(), 0
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
            newlines += block.count(b"\n")
    return digest.hexdigest(), newlines


def _rows(path: Path, headers: Collection[str]) -> Iterator:
    """Open a file, check that its first line is one of `headers`, and yield that
    header, then (line number, line) per row, newline kept, one at a time.  A last
    line without a newline and a byte outside ASCII (read as U+FFFD) fail every check."""
    with open(path, "r", encoding="ascii", errors="replace", newline="\n") as fh:
        line = fh.readline()
        header = line.removesuffix("\n")
        if not line or header not in headers:
            raise ReportFormatError(f"{path}: " + (f"unrecognized header {header!r}" if line else "empty file"))
        if header == line:
            raise _row_error(path, 1, line, "a header")
        yield header
        yield from enumerate(fh, start=2)


def _row_error(path: Path, lineno: int, line: str, what: str) -> ReportFormatError:
    """The error naming a line that is not `what`, or that ends the file without a newline."""
    if not line.endswith("\n"):
        return ReportFormatError(f"{path}:{lineno}: the file ends in this line, without a newline: {line!r}")
    return ReportFormatError(f"{path}:{lineno}: not {what}: {line[:-1]!r}")


def open_results(path: Path) -> tuple[str, Iterator[Witness]]:
    """Open a results file and check its header: the mode whose schema it
    has, and the witnesses its rows record, one at a time in file order; a
    prime-schema row is a second-family witness.  A row is valid when
    `coverage_line` or `prime_line` writes its witness back as the row stands
    and q and every coordinate are >= 1; raises with a line number on any
    other row, once reading reaches it."""
    path = Path(path)
    rows = _rows(path, HEADERS.values())
    prime = next(rows) == PRIME_HEADER
    return ("prime" if prime else "coverage"), _witnesses(path, rows, prime)


def read_results(path: Path, mode: Optional[str] = None) -> Iterator[Witness]:
    """`open_results`'s witnesses, of either schema, or only of `mode`'s if given."""
    found, witnesses = open_results(path)
    if mode is not None and found != mode:
        raise ReportFormatError(f"{path}: need the {mode} schema {HEADERS[mode]!r}")
    yield from witnesses


def _witnesses(path: Path, rows: Iterator, prime: bool) -> Iterator[Witness]:
    # tuple.__new__ skips the named tuples' Python-level __new__, a sixth of a row's cost
    new = tuple.__new__
    line_of = prime_line if prime else coverage_line
    for lineno, line in rows:
        try:
            if prime:
                q, x, y, z = line.split(",")
                q, x, y, z, poly = int(q), int(x), int(y), int(z), P2
            else:
                q, x, y, z, label = line.split(",")
                q, x, y, z, poly = int(q), int(x), int(y or 1), int(z or 1), _POLY_OF_LABEL_LF[label]
            w = new(Witness, (q, poly, new(WitnessTriple, (x, y, z))))
            text = line_of(w)
        except (ValueError, KeyError):
            text = None
        if text != line or q < 1 or x < 1 or y < 1 or z < 1:
            raise _row_error(path, lineno, line, "a row a scan writes, with q and x, y, z >= 1")
        yield w


def read_results_q(path: Path) -> list[int]:
    """Parse a single-column unsolved file back into q values, each written
    as `write_unsolved` writes it: plain decimal digits, q >= 1."""
    qs = []
    for lineno, line in islice(_rows(path, ["q"]), 1, None):  # past the header
        if not (line[:-1].isdigit() and line.endswith("\n")) or line[0] == "0":  # no digit is outside ASCII
            raise _row_error(path, lineno, line, "a q >= 1 as a scan writes it")
        qs.append(int(line))
    return qs


def split_by_family(results_path: Path, out_dir: Path) -> list[Path]:
    """Split a coverage results file into q_with_p1.csv .. q_with_p4.csv.

    Each output is a headerless single column of q values in file order,
    replicating the original analysis script.  One pass reads the file and
    keeps each family's column as text, which holds a q of any size in
    about its digits; the files are written after it, so a malformed row
    writes none.
    """
    columns = [io.StringIO() for _ in PolyId]
    for q, poly, _ in read_results(results_path, "coverage"):
        columns[poly - 1].write(f"{q}\n")
    out_dir = Path(out_dir)
    return [write_text(out_dir / f"q_with_{p.label}.csv", [c.getvalue()]) for p, c in zip(PolyId, columns)]
