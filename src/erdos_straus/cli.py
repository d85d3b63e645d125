"""Command line front end.

Subcommands: cover, primes, decompose, witness, verify-csv, split.  Output
is deterministic for fixed inputs except the timing lines, which carry the
fixed prefix "time:" so tooling can strip them before comparing runs.

Exit codes: 0 success, 1 invalid CSV row, 2 unsolved q remained, 3 witness
search exhausted, 5 strict distinctness violated, 64 usage, 65 malformed
file, 74 I/O failure, 130 cancelled.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from .decompose import UnsolvedError, decompose_any, verify_exact
from .families import PolyId, eval_poly
from .numutil import MR_LIMIT, is_prime
from .reports import _PRIME_DIR, ReportFormatError, coverage_line, open_results, prime_line, split_by_family
from .search import staged_search

EX_UNSOLVED = 2
EX_EXHAUSTED = 3
EX_NONDISTINCT = 5
EX_USAGE = 64
EX_DATAERR = 65
EX_IOERR = 74
EX_CANCELLED = 130


class UsageError(Exception):
    """Arguments that parse but make no valid request (exit 64)."""


class _Exit(Exception):
    """A failure that exits with code `args[0]` after printing `args[1]` to stderr."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit 2
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> _Parser:
    """The command line parser, built once per process and shared by every
    call, so callers parse with it and do not change it."""
    p = _Parser(prog="erdos-straus", description=__doc__.split("\n")[1])
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_range_flags(sp, step=True):
        sp.add_argument("--q-start", type=int, default=1)
        sp.add_argument("--q-max", type=int, required=True)
        if step:
            sp.add_argument("--step", type=int, default=1)
        sp.add_argument("--batch-size", type=int, default=1_000_000)
        sp.add_argument("--workers", type=int, default=os.cpu_count() or 1)
        sp.add_argument("--out-dir", type=Path, default=Path("."))
        sp.add_argument("--resume", action="store_true", help="skip batches recorded complete")

    sp = sub.add_parser("cover", help="classify every q in a range")
    add_range_flags(sp)

    sp = sub.add_parser("primes", help="prime-coverage scan over q = 6c")
    add_range_flags(sp, step=False)

    sp = sub.add_parser("decompose", help="unit-fraction decomposition of 4/a")
    sp.add_argument("a", type=int)
    sp.add_argument("--strict-distinct", action="store_true")

    sp = sub.add_parser("witness", help="family witness for one q")
    sp.add_argument("q", type=int)

    sp = sub.add_parser("verify-csv", help="revalidate every row of a results file")
    sp.add_argument("path", type=Path)

    sp = sub.add_parser("split", help="split a coverage file by family")
    sp.add_argument("path", type=Path)
    sp.add_argument("--out-dir", type=Path, default=Path("."))
    return p


def _run_scan(args, mode: str, q_start: int, step: int, size_label: str) -> tuple:
    """Run a cover or primes scan (`mode` a ScanMode value) after printing
    its range and batch size lines; its config and batch reports.  Only
    these two commands import the scan driver, `batch`, and `signal`.
    While the scan runs, SIGINT and SIGTERM interrupt it where it is, as a
    KeyboardInterrupt, and their earlier handlers are put back when it
    ends.  An interrupted scan leaves as exit 130; a bad checkpoint, a
    batch.ResumeError, is a ReportFormatError and leaves as 65."""
    import signal

    from .batch import BatchConfig, ScanMode, run_coverage

    try:
        cfg = BatchConfig(
            q_start=q_start,
            q_max=args.q_max,
            step=step,
            batch_size=args.batch_size,
            mode=ScanMode(mode),
            worker_count=args.workers,
            output_dir=args.out_dir,
        )
    except ValueError as exc:
        raise UsageError(str(exc).replace("worker_count", "workers").replace("_", "-")) from None  # the flags' spelling
    print(f"qStart = {cfg.q_start}, qMax = {cfg.q_max}, step = {cfg.step}")
    print(f"{size_label} = {cfg.batch_size}")
    saved = {}
    try:
        for signum in (signal.SIGINT, signal.SIGTERM):
            saved[signum] = signal.signal(signum, signal.default_int_handler)
    except ValueError:
        pass  # not the main thread (tests)
    try:
        return cfg, run_coverage(cfg, resume=args.resume)
    except KeyboardInterrupt:
        raise _Exit(EX_CANCELLED, "cancelled: the scan was interrupted; --resume reruns its unrecorded batches") from None
    finally:
        for signum, old in saved.items():
            if old is not None:  # None: set outside Python, cannot be put back
                signal.signal(signum, old)


def _cmd_cover(args) -> int:
    _, reports = _run_scan(args, "coverage", args.q_start, args.step, "Batch size (number of q values per batch)")
    for r in reports:
        print(f"Batch {r.batch_index}: q in [{r.q_range[0]}, {r.q_range[1]}]")
        print(f"Unsolved q in batch {r.batch_index}: {len(r.unsolved)}")
        print(f"Solutions found: {r.solved_count}")
        print(f"time: {r.elapsed_seconds:.2f} sec")
        for poly in PolyId:
            if r.tallies.get(poly):
                print(f"   {poly.label}: {r.tallies[poly]}")
    print("Global unsolved q saved (CSV).")
    print("All batches complete.")
    return EX_UNSOLVED if any(r.unsolved for r in reports) else 0


def _cmd_primes(args) -> int:
    q_start = args.q_start + (-args.q_start) % 6 if args.q_start > 0 else args.q_start  # 6c; BatchConfig refuses < 1
    if args.q_start < q_start and q_start > args.q_max:
        raise UsageError(
            f"--q-start {args.q_start} rounds up to the multiple of 6, q = {q_start}, "
            f"which is above --q-max {args.q_max}"
        )
    cfg, reports = _run_scan(args, "prime", q_start, 6, "Batch size")
    for r in reports:
        print(
            f"Processing batch {r.batch_index}/{len(reports)}: "
            f"q in [{r.q_range[0]}, {r.q_range[1]}]"
        )
        print(f"Solutions found: {r.solved_count}")
        print(f"Unsolved q: {len(r.unsolved)}")
        print(f"time: {r.elapsed_seconds:.2f} sec")
        print(f"Batch {r.batch_index} complete")
    print("Processing complete!")
    print(f"Total solutions found: {sum(r.solved_count for r in reports)}")
    print(f"Total unsolved q: {sum(len(r.unsolved) for r in reports)}")
    print(f"All results saved to: {cfg.output_dir / _PRIME_DIR}")
    return EX_UNSOLVED if any(r.unsolved for r in reports) else 0


def _cmd_decompose(args) -> int:
    if not 2 <= args.a < MR_LIMIT:
        raise UsageError(f"a must be >= 2 and below {MR_LIMIT}, where primality is proven")
    try:
        rec = decompose_any(args.a)
    except UnsolvedError as exc:
        print(f"unsolved: {exc}", file=sys.stderr)
        return EX_EXHAUSTED
    b, c, d = rec.triple
    if not verify_exact(rec.a, rec.triple):
        raise AssertionError(f"identity failed for a={rec.a}: {rec.triple}")
    print(f"a = {rec.a}")
    print(f"provenance = {rec.provenance.value}")
    if rec.witness is not None:
        poly, t = rec.witness
        print(f"witness = {poly.label} ({t.x},{t.y},{t.z})")
    print(f"b c d = {b} {c} {d}")
    print(f"4/{rec.a} = 1/{b} + 1/{c} + 1/{d} (verified exact)")
    if not rec.triple.distinct:
        print("warning: denominators are not pairwise distinct")
        if args.strict_distinct:
            return EX_NONDISTINCT
    return 0


def _cmd_witness(args) -> int:
    if args.q < 1 or 4 * args.q + 1 >= MR_LIMIT:
        raise UsageError(f"q must be >= 1 and 4q+1 below {MR_LIMIT}, where primality is proven")
    w = staged_search(args.q)
    if w is None:
        print(f"no witness found for q = {args.q}")
        return EX_EXHAUSTED
    x, y, z = w.triple
    if w.poly is PolyId.P4:
        print(f"{w.poly.label} x={x}")
    elif w.poly is PolyId.P3:
        print(f"{w.poly.label} x={x} y={y}")
    else:
        print(f"{w.poly.label} x={x} y={y} z={z}")
    return 0


def _cmd_verify_csv(args) -> int:
    # One pass: the first bad row in file order decides the exit code, 1 or 65.
    mode, witnesses = open_results(args.path)
    prime = mode == "prime"  # rows of prime targets 4q+1
    line_of = prime_line if prime else coverage_line
    rows = 0
    for rows, w in enumerate(witnesses, start=1):
        a = 4 * w.q + 1  # unproven, hence unverified, from MR_LIMIT on
        if eval_poly(w.poly, w.triple) != w.q or (prime and not (a < MR_LIMIT and is_prime(a))):
            print(f"{args.path}:{rows + 1}: invalid row {line_of(w).rstrip()}")
            return 1
    print(f"{args.path}: {rows} rows verified")
    return 0


def _cmd_split(args) -> int:
    print(*split_by_family(args.path, args.out_dir), sep="\n")
    return 0


_COMMANDS = {
    "cover": _cmd_cover,
    "primes": _cmd_primes,
    "decompose": _cmd_decompose,
    "witness": _cmd_witness,
    "verify-csv": _cmd_verify_csv,
    "split": _cmd_split,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_USAGE
    except ReportFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_DATAERR
    except _Exit as exc:
        print(exc.args[1], file=sys.stderr)
        return exc.args[0]
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EX_IOERR


if __name__ == "__main__":
    sys.exit(main())
