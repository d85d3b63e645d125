"""Per-layer spans for the traced run, recorded from outside the package.

Each traced function is replaced by a wrapper wherever a module of the
package holds it: in its defining module, in every module that imported it
by name, and in module-level dispatch tables such as the CLI's command map.
Rebinding only the defining module would miss calls made through those
imported names.  Pool workers are forked, so they inherit the wrappers; each
worker writes its totals to a file as it exits and the driving process
merges them.

A span's self time is its duration minus the durations of the spans opened
directly inside it, so it also holds part of the wrapper cost of its
children: the self time of a caller of many cheap traced functions (such as
eval_poly) reads high.  Worker self times are summed over workers, so they
are per-process seconds, not wall seconds.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from math import isqrt
from multiprocessing import util
from pathlib import Path


def _hits(stat, args, result):
    stat["hits"] += result is not None


def _wide(stat, args, result):
    stat["hits"] += result is not None
    stat["x1"] += result is not None and result.triple.x == 1


def _divisors(stat, args, result):
    stat["divisors_returned"] += len(result)
    if args[0] < 1 << 32:  # the root-bounded trial branch
        stat["trial_divisions"] += isqrt(args[0])


def _bytes(stat, args, result):
    stat["bytes"] += os.path.getsize(result)


def _rows(stat, args, result):
    stat["rows"] += len(result)


# (span name, defining module, attribute, hook run on each call's result)
TRACED = (
    ("numutil.divisors_ascending", "numutil", "divisors_ascending", _divisors),
    ("numutil.factorize", "numutil", "factorize", None),
    ("numutil.is_prime", "numutil", "is_prime", None),
    ("search.wide_search", "search", "wide_search", _wide),
    ("search.solve_p1_given_x", "search", "solve_p1_given_x", _hits),
    ("search.solve_p2_given_x", "search", "solve_p2_given_x", _hits),
    ("search.solve_p3_given_x", "search", "solve_p3_given_x", _hits),
    ("search.check_p4", "search", "check_p4", _hits),
    ("search.prime_witness_search", "search", "prime_witness_search", None),
    ("search.small_cube_search", "search", "small_cube_search", _hits),
    ("search.legacy_coverage_scan", "search", "legacy_coverage_scan", None),
    ("families.eval_poly", "families", "eval_poly", None),
    ("families.shifted_value", "families", "shifted_value", None),
    ("decompose.decompose_any", "decompose", "decompose_any", None),
    ("decompose.verify_exact", "decompose", "verify_exact", None),
    ("decompose.decompose_square", "decompose", "decompose_square", None),
    ("batch.run_coverage", "batch", "run_coverage", None),
    ("batch.run_prime_coverage", "batch", "run_prime_coverage", None),
    ("batch.tally", "batch", "tally", None),
    ("batch.checkpoint_resume", "batch", "checkpoint_resume", None),
    ("batch.fan_out", "batch", "_map", None),
    ("reports.witness_to_row", "reports", "witness_to_row", None),
    ("reports.write_results_batch", "reports", "write_results_batch", _bytes),
    ("reports.write_unsolved", "reports", "write_unsolved", None),
    ("reports.write_results_aggregate", "reports", "write_results_aggregate", None),
    ("reports.read_results", "reports", "read_results", _rows),
    ("reports.row_to_witness", "reports", "row_to_witness", None),
    ("reports.split_by_family", "reports", "split_by_family", None),
    ("cli.verify_csv", "cli", "_cmd_verify_csv", None),
    ("cli.split", "cli", "_cmd_split", None),
)

_ZERO = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "hits": 0, "x1": 0,
         "divisors_returned": 0, "trial_divisions": 0, "bytes": 0, "rows": 0}


class Recorder:
    """Span totals of one process, written to trace_dir by pool workers."""

    def __init__(self, trace_dir: Path):
        self.trace_dir = Path(trace_dir)
        self.forks = 0
        self.missing: list[str] = []
        self.reset()

    def reset(self) -> None:
        self.stats = {name: dict(_ZERO) for name, *_ in TRACED}
        self.stack: list[float] = []  # child time of each open span
        self.root_s = 0.0  # time inside outermost spans

    def close(self, stat: dict, t0: float, count: bool = True) -> None:
        dt = time.perf_counter() - t0
        child = self.stack.pop()
        if self.stack:
            self.stack[-1] += dt
        else:
            self.root_s += dt
        stat["calls"] += count
        stat["total_s"] += dt
        stat["self_s"] += dt - child

    def snapshot(self) -> dict:
        return {"pid": os.getpid(), "root_s": self.root_s, "stats": self.stats}

    def _after_fork_in_worker(self) -> None:
        self.reset()
        util.Finalize(None, self._write_worker_file, exitpriority=100)

    def _write_worker_file(self) -> None:
        path = self.trace_dir / f"worker-{os.getpid()}.json"
        path.write_text(json.dumps(self.snapshot()))

    def worker_snapshots(self) -> list[dict]:
        return [json.loads(p.read_text()) for p in sorted(self.trace_dir.glob("worker-*.json"))]


def _wrap(rec: Recorder, name: str, fn, hook):
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def traced_gen(*args, **kwargs):
            stat = rec.stats[name]
            stat["calls"] += 1
            gen = fn(*args, **kwargs)
            while True:  # one span per item, so the work between yields counts
                rec.stack.append(0.0)
                t0 = time.perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    rec.close(stat, t0, count=False)
                yield item

        return traced_gen

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        stat = rec.stats[name]
        rec.stack.append(0.0)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(stat, t0)
        if hook is not None:
            hook(stat, args, result)
        return result

    return traced


def install(trace_dir: Path) -> Recorder:
    """Wrap every TRACED function in the imported package; return the recorder."""
    rec = Recorder(trace_dir)
    rec.trace_dir.mkdir(parents=True, exist_ok=True)
    for module in {module for _, module, _, _ in TRACED}:
        importlib.import_module(f"erdos_straus.{module}")
    modules = [m for n, m in list(sys.modules.items()) if n == "erdos_straus" or n.startswith("erdos_straus.")]
    for name, module, attr, hook in TRACED:
        original = getattr(sys.modules[f"erdos_straus.{module}"], attr, None)
        if original is None:
            rec.missing.append(name)
            continue
        wrapper = _wrap(rec, name, original, hook)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            value[k] = wrapper
    util.register_after_fork(rec, Recorder._after_fork_in_worker)
    os.register_at_fork(after_in_parent=lambda: setattr(rec, "forks", rec.forks + 1))
    return rec
