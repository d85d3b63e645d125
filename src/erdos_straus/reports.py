"""CSV artifacts, byte-compatible with the original notebook outputs.

Two row schemas exist: coverage files carry q,x,y,z,pi with empty y/z
fields for families that do not use them, prime files carry q,x,y,z only.
Coverage batch files are named results_batch<B>.csv with an unpadded index
at the output root; prime batch files are results_batch<BBB>.csv, zero
padded to three digits, under a Results/ subdirectory.  Fields are plain
ASCII, comma separated, never quoted; rows end with a newline.  Scans
write rows as text (`coverage_line`, `prime_line`); `SolutionRow` is what
the readers return.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .families import P3, P4, PolyId, WitnessTriple
from .search import Witness

COVERAGE_HEADER = "q,x,y,z,pi"
PRIME_HEADER = "q,x,y,z"
HEADERS = {"coverage": COVERAGE_HEADER, "prime": PRIME_HEADER}

FAMILY_LABELS = ("p1", "p2", "p3", "p4")


class ReportFormatError(Exception):
    """A CSV file does not match either of the two row schemas."""


@dataclass(frozen=True)
class SolutionRow:
    """One solved q.  y/z are None where the family does not use them;
    pi is None in prime-mode files, whose rows use x, y and z.  Every
    coordinate the row's family uses is present and >= 1."""

    q: int
    x: int
    y: Optional[int] = None
    z: Optional[int] = None
    pi: Optional[str] = None

    def __post_init__(self) -> None:
        if self.pi is not None and self.pi not in FAMILY_LABELS:
            raise ValueError(f"bad family label {self.pi!r}")
        y_used = self.pi != "p4"
        z_used = y_used and self.pi != "p3"
        if (self.y is not None and not y_used) or (self.z is not None and not z_used):
            raise ValueError(f"{self.pi} rows must leave {'z' if y_used else 'y and z'} empty")
        if self.x < 1 or (y_used and (self.y or 0) < 1) or (z_used and (self.z or 0) < 1):
            raise ValueError(f"{self.pi or 'prime'} rows must give every coordinate they use, >= 1")


def row_to_witness(row: SolutionRow) -> Witness:
    """The witness a coverage row records; unused coordinates read as 1."""
    if row.pi is None:
        raise ValueError("prime rows carry no family label")
    poly = PolyId.from_label(row.pi)
    return Witness(row.q, poly, WitnessTriple(row.x, row.y or 1, row.z or 1))


def coverage_line(w: Witness) -> str:
    """A witness's coverage row as newline-terminated CSV text."""
    q, poly, (x, y, z) = w
    if poly is P4:
        return f"{q},{x},,,p4\n"
    if poly is P3:
        return f"{q},{x},{y},,p3\n"
    return f"{q},{x},{y},{z},{FAMILY_LABELS[poly - 1]}\n"


def prime_line(q: int, t: WitnessTriple) -> str:
    """A prime target's row as newline-terminated CSV text."""
    return f"{q},{t.x},{t.y},{t.z}\n"


def results_batch_path(batch_index: int, mode: str, out_dir: Path) -> Path:
    if mode == "prime":
        return out_dir / "Results" / f"results_batch{batch_index:03d}.csv"
    return out_dir / f"results_batch{batch_index}.csv"


def unsolved_path(batch_index: Optional[int], mode: str, out_dir: Path) -> Path:
    if mode == "prime":
        base = out_dir / "Results"
        name = "all_unsolved.csv" if batch_index is None else f"unsolved_batch{batch_index:03d}.csv"
    else:
        base = out_dir
        name = "unsolved_all.csv" if batch_index is None else f"unsolved_batch{batch_index}.csv"
    return base / name


def write_results_batch(text: Iterable[str], batch_index: int, mode: str, out_dir: Path) -> Path:
    """Write one batch's results file: the schema header, then `text`,
    blocks of newline-terminated rows already in q order."""
    if mode not in HEADERS:
        raise ValueError(f"unknown mode {mode!r}")
    path = results_batch_path(batch_index, mode, Path(out_dir))
    write_text(path, chain([HEADERS[mode] + "\n"], text))
    return path


def write_results_aggregate(batch_paths: Iterable[Path], out_dir: Path) -> Path:
    """Prime mode's all_solutions.csv under Results/: the rows of the prime
    batch files, in the order given, under one header."""

    def text():
        yield PRIME_HEADER + "\n"
        for batch_path in batch_paths:
            with open(batch_path, "r", encoding="ascii", newline="") as fh:
                fh.readline()  # its header
                yield from iter(lambda: fh.read(1 << 20), "")

    path = Path(out_dir) / "Results" / "all_solutions.csv"
    write_text(path, text())
    return path


def write_unsolved(qs: Sequence[int], batch_index: Optional[int], mode: str, out_dir: Path) -> Path:
    """Single-column unsolved file; batch_index None means the aggregate."""
    if any(qs[i] >= qs[i + 1] for i in range(len(qs) - 1)):
        raise ValueError("unsolved q values must be sorted and deduplicated")
    path = unsolved_path(batch_index, mode, Path(out_dir))
    write_lines(path, ["q"] + [str(q) for q in qs])
    return path


def write_lines(path: Path, lines: Iterable[str]) -> None:
    """`write_text` with a newline after each line."""
    write_text(path, (line + "\n" for line in lines))


def write_text(path: Path, text: Iterable[str]) -> None:
    """Write the text blocks to a temp file beside `path`, then rename it
    over `path`: a crash leaves the old file or the new one."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "w", encoding="ascii", newline="") as fh:
            for block in text:
                fh.write(block)
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(f"cannot write report file {path}: {exc}") from exc
    finally:
        tmp.unlink(missing_ok=True)


def file_sha256(path: Path) -> str:
    """Hex sha256 of a file's bytes."""
    import hashlib  # loads OpenSSL (a few ms and MB), which only scans need

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _read_lines(path: Path) -> list[str]:
    with open(path, "r", encoding="ascii", newline="") as fh:
        lines = fh.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return lines


def read_results(path: Path, mode: Optional[str] = None) -> list[SolutionRow]:
    """Parse either schema by header, or only `mode`'s schema if given;
    raises with a line number on bad rows."""
    path = Path(path)
    lines = _read_lines(path)
    if not lines:
        raise ReportFormatError(f"{path}: empty file")
    header = lines[0]
    if header not in HEADERS.values():
        raise ReportFormatError(f"{path}: unrecognized header {header!r}")
    if mode is not None and header != HEADERS[mode]:
        raise ReportFormatError(f"{path}: need the {mode} schema {HEADERS[mode]!r}")
    prime = header == PRIME_HEADER
    rows = []
    width = 4 if prime else 5
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != width:
            raise ReportFormatError(f"{path}:{lineno}: expected {width} fields, got {len(cells)}")
        try:
            q, x = int(cells[0]), int(cells[1])
            y = int(cells[2]) if cells[2] else None
            z = int(cells[3]) if cells[3] else None
            pi = None if prime else cells[4]
            rows.append(SolutionRow(q, x, y, z, pi))
        except ValueError as exc:
            raise ReportFormatError(f"{path}:{lineno}: {exc}") from None
    return rows


def read_results_q(path: Path) -> list[int]:
    """Parse a single-column unsolved file back into q values."""
    lines = _read_lines(path)
    if not lines or lines[0] != "q":
        raise ReportFormatError(f"{path}: not an unsolved-q file")
    qs = []
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            qs.append(int(line))
        except ValueError:
            raise ReportFormatError(f"{path}:{lineno}: not an integer q: {line!r}") from None
    return qs


def split_by_family(results_path: Path, out_dir: Path) -> list[Path]:
    """Split a coverage results file into q_with_p1.csv .. q_with_p4.csv.

    Each output is a headerless single column of q values in file order,
    replicating the original analysis script.
    """
    rows = read_results(results_path, "coverage")
    out = []
    out_dir = Path(out_dir)
    for label in FAMILY_LABELS:
        path = out_dir / f"q_with_{label}.csv"
        write_lines(path, [str(r.q) for r in rows if r.pi == label])
        out.append(path)
    return out
