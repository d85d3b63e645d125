"""Exact re-verification of everything a benchmark repetition produced.

Stdlib only and independent of the package: the family polynomials, the
prime test and the CSV parsing are written out again here, so a defect in
the package cannot vouch for its own output.  Each check returns
(attempted, failures), where failures is a list of one-line messages, one
per failed item.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from pathlib import Path


def family_value(pi: str, x: int, y: int, z: int) -> int:
    """p1..p4 at (x, y, z), written out independently of the package."""
    if pi == "p1":
        return x * (4 * y * z - 1) - y * z
    if pi == "p2":
        return x * (4 * y * z - z - 1) - y * z
    if pi == "p3":
        return x * (8 * y - 3) - 6 * y + 2
    if pi == "p4":
        return x * x - x
    raise ValueError(f"unknown family {pi!r}")


# Which of y and z a coverage row must leave empty, by family.
_EMPTY = {"p1": (False, False), "p2": (False, False), "p3": (False, True), "p4": (True, True)}


def prime_table(limit: int) -> bytearray:
    """Sieve of Eratosthenes: table[n] == 1 iff n is prime, for n <= limit."""
    table = bytearray([1]) * (limit + 1)
    table[0] = table[1] = 0
    p = 2
    while p * p <= limit:
        if table[p]:
            table[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
        p += 1
    return table


def _read_lines(path: Path, header: str, failures: list[str]) -> list[str]:
    try:
        text = path.read_text(encoding="ascii")
    except (OSError, UnicodeDecodeError) as exc:
        failures.append(f"{path.name}: unreadable: {exc}")
        return []
    lines = text.split("\n")
    if lines[-1] != "":
        failures.append(f"{path.name}: last row not newline-terminated")
    else:
        lines.pop()
    if not lines or lines[0] != header:
        failures.append(f"{path.name}: header is not {header!r}")
        return []
    return lines[1:]


def _read_q_column(path: Path, failures: list[str]) -> list[int]:
    out = []
    for line in _read_lines(path, "q", failures):
        try:
            out.append(int(line))
        except ValueError:
            failures.append(f"{path.name}: bad q {line!r}")
    return out


def _int_or_none(cell: str):
    return int(cell) if cell else None


def _account(window: list[int], seen: dict[int, int], unsolved: list[int], failures: list[str]):
    """Every window q exactly once, nothing outside the window, nothing unsolved."""
    expected = set(window)
    for q, n in seen.items():
        if q not in expected:
            failures.append(f"q={q} is outside the window")
        elif n != 1:
            failures.append(f"q={q} appears {n} times")
    failures.extend(f"q={q} missing" for q in window if q not in seen)
    failures.extend(f"q={q} left unsolved" for q in unsolved)


def check_coverage(out_dir: Path, window: list[int]) -> tuple[int, list[str]]:
    """Coverage artifacts: every row satisfies its family, every q once."""
    out_dir = Path(out_dir)
    failures: list[str] = []
    seen: dict[int, int] = {}
    unsolved: list[int] = []
    batches = sorted(out_dir.glob("results_batch*.csv"))
    if not batches:
        failures.append("no results_batch*.csv written")
    for path in batches:
        for line in _read_lines(path, "q,x,y,z,pi", failures):
            cells = line.split(",")
            try:
                if len(cells) != 5:
                    raise ValueError("expected 5 fields")
                q, x, y, z = int(cells[0]), int(cells[1]), _int_or_none(cells[2]), _int_or_none(cells[3])
                pi = cells[4]
                empty_y, empty_z = _EMPTY[pi]
                if (y is None) != empty_y or (z is None) != empty_z:
                    raise ValueError("wrong fields for family")
                if min(x, y or 1, z or 1) < 1 or family_value(pi, x, y or 1, z or 1) != q:
                    raise ValueError("family value differs from q")
            except (ValueError, KeyError) as exc:
                failures.append(f"{path.name}: row {line!r}: {exc}")
                continue
            seen[q] = seen.get(q, 0) + 1
    for path in sorted(out_dir.glob("unsolved_batch*.csv")):
        for q in _read_q_column(path, failures):
            seen[q] = seen.get(q, 0) + 1
            unsolved.append(q)
    aggregate = out_dir / "unsolved_all.csv"
    if _read_q_column(aggregate, failures) != sorted(unsolved):
        failures.append("unsolved_all.csv differs from the per-batch unsolved files")
    _account(window, seen, unsolved, failures)
    return len(window), failures


def check_primes(out_dir: Path, candidates: list[int]) -> tuple[int, list[str]]:
    """Prime artifacts: P2 identity per row, 4q+1 prime, each prime q once."""
    res = Path(out_dir) / "Results"
    failures: list[str] = []
    primes = prime_table(4 * max(candidates) + 1) if candidates else bytearray(2)
    seen: dict[int, int] = {}
    unsolved: list[int] = []
    all_rows: list[str] = []
    batches = sorted(res.glob("results_batch*.csv"))
    if not batches:
        failures.append("no Results/results_batch*.csv written")
    for path in batches:
        rows = _read_lines(path, "q,x,y,z", failures)
        all_rows.extend(rows)
        for line in rows:
            try:
                q, x, y, z = (int(c) for c in line.split(","))
                if min(x, y, z) < 1:
                    raise ValueError("coordinates must be >= 1")
                if (4 * x - 1) * (4 * y * z - 1) - 4 * x * z != 4 * q + 1:
                    raise ValueError("P2 identity fails")
                if not (4 * q + 1 < len(primes) and primes[4 * q + 1]):
                    raise ValueError("4q+1 is not prime")
            except ValueError as exc:
                failures.append(f"{path.name}: row {line!r}: {exc}")
                continue
            seen[q] = seen.get(q, 0) + 1
    for path in sorted(res.glob("unsolved_batch*.csv")):
        for q in _read_q_column(path, failures):
            seen[q] = seen.get(q, 0) + 1
            unsolved.append(q)
    if _read_lines(res / "all_solutions.csv", "q,x,y,z", failures) != all_rows:
        failures.append("all_solutions.csv differs from the batch files")
    if _read_q_column(res / "all_unsolved.csv", failures) != sorted(unsolved):
        failures.append("all_unsolved.csv differs from the per-batch unsolved files")
    window = [q for q in candidates if primes[4 * q + 1]]
    _account(window, seen, unsolved, failures)
    return len(candidates), failures


def check_triple(a: int, triple) -> bool:
    """1/b + 1/c + 1/d == 4/a by exact rational summation."""
    b, c, d = triple
    if min(b, c, d) < 1:
        return False
    return Fraction(1, b) + Fraction(1, c) + Fraction(1, d) == Fraction(4, a)


def artifact_digest(out_dir: Path) -> str:
    """sha256 over every CSV under out_dir, by relative path and content."""
    out_dir = Path(out_dir)
    h = hashlib.sha256()
    for path in sorted(out_dir.rglob("*.csv")):
        data = path.read_bytes()
        h.update(f"{path.relative_to(out_dir).as_posix()}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()
