"""Benchmark of the erdos_straus package: four workloads behind one command.

Run from the root of a checkout (Python 3.10+, stdlib only, nothing to build):

    python3 perfbench/run.py --workload scan-dense --seed 0 --seconds 25 --trace 0

Workloads: scan-dense, scan-hard, primes, targets (see BENCHMARK.json for
why each exists).  Every repetition runs in a fresh process with a fresh
output directory; the command repeats the workload until --seconds have
passed and reports medians over repetitions.  Before that it times the
set-up (a fresh process answering a one-item input) several times.  Times
of serial work are calibrated against the machine's drifting speed
(calibrate.py); the raw wall times are reported beside them.

--trace 0 measures the end-to-end metrics.  --trace 1 alternates untraced
and traced repetitions of the same input and reports the per-layer metrics
of BENCHMARK.json, including the tracing overhead.

All output of the package is re-verified by exact arithmetic (gate.py); the
CSV artifacts of pinned windows must match the sha256 digests in spec.json.
A table of every metric goes to stdout, a result file with metadata and
every repetition's values to .perfbench_runs/results/, and the last stdout
line is one JSON object {correct, attempted, failed, metrics}.  The exit
code is 1 if anything failed verification, 2 if the checkout has no
package to measure.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import datetime
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import workloads

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 7
MIN_REPS = 3
MIN_TRACED_PAIRS = 2
HARD_LIMIT_S = 165  # every child is stopped by then; the command must end within 180 s
EXACT_UNITS = ("count", "B", "x/q")  # per-layer values that must repeat exactly
PR_SET_CHILD_SUBREAPER = 36  # from <linux/prctl.h>


def _median(values):
    return statistics.median(values) if values else 0.0


def _percentile(sorted_values, p):
    """Nearest-rank percentile."""
    if not sorted_values:
        return 0.0
    k = max(0, min(len(sorted_values) - 1, -(-p * len(sorted_values) // 100) - 1))
    return sorted_values[int(k)]


def _become_subreaper() -> None:
    """Adopt the orphans of our children (Linux), so _stop_group can reap them."""
    with contextlib.suppress(OSError, AttributeError):
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def _stop_group(proc: subprocess.Popen) -> None:
    """Kill what is left of a child's session and wait until all of it has ended.

    The child leads its own session and process group (start_new_session), so
    the group holds it and any pool worker it left; orphaned workers come to
    this process (_become_subreaper) and are reaped here.
    """
    with contextlib.suppress(ProcessLookupError):
        os.killpg(proc.pid, signal.SIGKILL)
    if proc.returncode is None:
        proc.communicate()  # drains the pipes of a child that was cut off
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        with contextlib.suppress(ChildProcessError):
            while os.waitid(os.P_PGID, proc.pid, os.WEXITED | os.WNOHANG) is not None:
                pass
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return  # the group is empty
        time.sleep(0.01)


class Runner:
    def __init__(self, args, root: Path):
        self.args = args
        self.root = root
        self.t_begin = time.perf_counter()
        stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%S")
        self.run_id = f"{args.workload}_seed{args.seed}_trace{args.trace}_{stamp}_{os.getpid()}"
        self.run_dir = root / ".perfbench_runs" / self.run_id
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.n_children = 0

    def child(self, mode: str, rep: int, trace: int = 0) -> dict | None:
        """Run child.py once; None (and a counted failure) if it did not report."""
        self.n_children += 1
        out = self.run_dir / f"{self.n_children:03d}_{mode}"
        remaining = HARD_LIMIT_S - (time.perf_counter() - self.t_begin)
        t_spawn = time.perf_counter()
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--rep", str(rep), "--size", self.args.size,
               "--out", str(out), "--mode", mode, "--trace", str(trace), "--spawn-t", repr(t_spawn)]
        proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            stdout, stderr = proc.communicate(timeout=max(1.0, remaining))
        except subprocess.TimeoutExpired:
            stdout = None
        _stop_group(proc)
        if stdout is None:
            return self._lost(f"{mode} repetition {rep} exceeded the time limit")
        lines = stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return self._lost(f"{mode} repetition {rep} exited {proc.returncode}: {stderr.strip()[-2000:]}")
        result = json.loads(lines[-1])
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.failures += result["failures"]
        if not result["failed"]:
            shutil.rmtree(out, ignore_errors=True)  # keep only the output of failed repetitions
        return result

    def _lost(self, message: str) -> None:
        self.failures.append(message)
        self.attempted += 1
        self.failed += 1
        return None

    def elapsed(self) -> float:
        return time.perf_counter() - self.t_begin


def _check_pin(runner: Runner, pins: dict, result: dict) -> str:
    """'match', 'unpinned' or 'MISMATCH' (a counted failure)."""
    want = pins.get(runner.args.workload, {}).get(result["window_key"])
    runner.attempted += 1
    if want is None:
        return "unpinned"
    if want == result["digest"]:
        return "match"
    runner.failed += 1
    runner.failures.append(f"artifact digest {result['digest']} differs from the pinned {want} "
                           f"for {result['window_key']}")
    return "MISMATCH"


def _work_s(result: dict, times: str = "scaled_s") -> float:
    return sum(result[times].values())


def end_to_end(workload: str, reps: list[dict], times: str = "scaled_s") -> dict:
    """Every user-facing number of the repetitions, by the names of spec.json.

    times is "scaled_s" (calibrated, see calibrate.py) or "wall_s" (raw).
    """
    m = {"peak_rss_mb": _median([r["peak_rss_mb"] for r in reps])}
    if workload == "targets":
        key = "latencies_ms" if times == "scaled_s" else "raw_latencies_ms"
        lat = sorted(x for r in reps for x in r[key])
        m["calls_per_s"] = _median([r["items"] / r[times]["calls"] for r in reps])
        m["call_p50_ms"] = _percentile(lat, 50)
        m["call_p99_ms"] = _percentile(lat, 99)
        m["call_samples"] = len(lat)
        m["q_per_s"] = m["calls_per_s"]
    else:
        m["scan_q_per_s"] = _median([r["items"] / r[times]["scan"] for r in reps])
        m["q_per_s"] = m["scan_q_per_s"]
        if workload == "scan-dense":
            m["audit_rows_per_s"] = _median([r["audit_rows"] / r[times]["audit"] for r in reps])
    return m


def per_layer(rep: dict, workers: int, overhead: float) -> dict:
    """Per-layer metrics of one traced repetition, by BENCHMARK.json name.

    Span seconds are scaled by the repetition's mean calibration factor.
    """
    trace = rep["trace"]
    stats = trace["stats"]
    factor = _work_s(rep) / _work_s(rep, "wall_s")

    def ratio(a, b):
        return a / b if b else 0.0

    wide = stats["search.wide_search"]
    fan_out = stats["batch.fan_out"]["total_s"] if workers > 1 else 0.0  # both unscaled
    values = {
        "search.x_tried_per_q": ratio(stats["search.solve_p1_given_x"]["calls"], wide["calls"]),
        "search.witness_x1_ratio": ratio(wide["x1"], wide["calls"]),
        "batch.worker_busy_ratio": ratio(trace["worker_root_s"], workers * fan_out),
        "trace.overhead_ratio": overhead,
        "trace.workers_unseen": max(0, trace["workers_forked"] - trace["worker_files"]),
        "trace.functions_missing": len(trace["missing"]),
    }
    for span, stat in stats.items():
        for key, value in stat.items():
            values[f"{span}.{key}"] = value * factor if key.endswith("_s") else value
    return values


def _collect(r: Runner, pins: dict, sample) -> tuple[list, list, list, set]:
    """Set-up probes, then repetitions until --seconds have passed.

    sample() is called after every child process, to time the calibration
    loop between them.
    """
    args, workload = r.args, r.args.workload
    r.child("setup", 0)  # warm-up: byte-compiles the package once, as any first use would
    sample()
    clock = calibrate.Clock(scale=workloads.workers(workload) == 1)
    probes = []
    for _ in range(SETUP_PROBES):
        probe = r.child("setup", 0)
        sample()
        if probe:
            probe["scaled_setup_s"] = probe["setup_s"] * clock.add("setup", probe["setup_s"])
            probes.append(probe)

    untraced: list[dict] = []
    traced: list[dict] = []
    pin_status = set()
    t_measure = time.perf_counter()
    while r.failed == 0:
        if args.trace:
            pair = [r.child("measure", 0, trace=0), r.child("measure", 0, trace=1)]
            if None in pair:
                break
            untraced.append(pair[0])
            traced.append(pair[1])
            done, needed = len(traced), MIN_TRACED_PAIRS
        else:
            res = r.child("measure", len(untraced))
            if res is None:
                break
            untraced.append(res)
            done, needed = len(untraced), MIN_REPS
        sample()
        if workload != "targets":
            for res in untraced[-1:] + traced[-1:]:
                pin_status.add(_check_pin(r, pins, res))
        spent = time.perf_counter() - t_measure
        if done >= needed and spent * (done + 1) / done > args.seconds:
            break
        if r.elapsed() > HARD_LIMIT_S / 2:
            break
    return probes, untraced, traced, pin_status


def run(args, root: Path) -> int:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    spec_extra = json.loads((HERE / "spec.json").read_text())
    pins = spec_extra["pins"] if args.size == "full" else {}
    r = Runner(args, root)
    workload = args.workload

    n_workers = workloads.workers(workload)
    if n_workers > 1:  # pooled work: one calibration factor for the whole run
        cal = calibrate.PoolCalibrator(sorted(os.sched_getaffinity(0))[:n_workers])
        try:
            probes, untraced, traced, pin_status = _collect(r, pins, cal.sample)
        finally:
            cal.close()
        factor = cal.factor()
        for probe in probes:
            probe["scaled_setup_s"] = probe["setup_s"] * factor
        for res in untraced + traced:
            res["scaled_s"] = {k: v * factor for k, v in res["wall_s"].items()}
    else:
        probes, untraced, traced, pin_status = _collect(r, pins, lambda: None)

    e2e = end_to_end(workload, untraced) if untraced else {}
    e2e["setup_s"] = _median([p["scaled_setup_s"] for p in probes])
    e2e["fail_ratio"] = r.failed / max(1, r.attempted)
    raw = end_to_end(workload, untraced, "wall_s") if untraced else {}
    raw["setup_s"] = _median([p["setup_s"] for p in probes])
    report = {"metrics": {}, "end_to_end": e2e, "raw_end_to_end": raw}
    if args.trace and traced:  # per-layer metrics, with the tracing overhead
        overhead = _median([_work_s(t) for t in traced]) / _median([_work_s(u) for u in untraced]) - 1
        layers = [per_layer(t, workloads.workers(workload), overhead) for t in traced]
        for m in spec["per_layer"]:
            values = [lay.get(m["name"], 0) for lay in layers]
            if m["unit"] in EXACT_UNITS and len(set(values)) > 1:
                r.failed += 1
                r.failures.append(f"{m['name']} differs between traced repetitions: {values}")
            value = values[0] if m["unit"] in EXACT_UNITS else _median(values)
            report["metrics"][m["name"]] = {"value": value, "unit": m["unit"]}
        report["traced_end_to_end"] = end_to_end(workload, traced)
        report["trace_missing"] = traced[0]["trace"]["missing"]
    elif not args.trace:  # end-to-end metrics
        for m in spec["end_to_end"]:
            report["metrics"][m["name"]] = {"value": e2e.get(m["name"], 0.0), "unit": m["unit"]}

    meta = _meta(r, untraced)
    _write_result(r, meta, report, untraced, traced, probes, sorted(pin_status))
    units = {name: m["unit"] for name, m in spec_extra["report_metrics"].items()}
    _print_table(r, meta, report, sorted(pin_status), units)
    correct = r.failed == 0
    print(json.dumps({"correct": correct, "attempted": r.attempted, "failed": r.failed,
                      "metrics": report["metrics"]}))
    return 0 if correct else 1


def _git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _meta(r: Runner, reps: list[dict]) -> dict:
    a = r.args
    meta = {"git_sha": _git_sha(r.root), "python": platform.python_version(),
            "implementation": platform.python_implementation(), "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
            "workload": a.workload, "seed": a.seed, "seconds": a.seconds, "trace": a.trace,
            "size": a.size, "workers": workloads.workers(a.workload)}
    if a.workload == "targets":
        meta["bands"] = [list(b) for b in workloads.TARGET_BANDS]
        meta["calls_per_repetition"] = workloads.SIZES[a.size]["calls"]
        meta["samples"] = sum(len(x["latencies_ms"]) for x in reps)
    else:
        meta["window"] = workloads.scan_window(a.workload, a.seed, a.size)
        meta["samples"] = sum(x["items"] for x in reps)
    meta["repetitions"] = len(reps)
    return meta


def _rep_record(res: dict) -> dict:
    keep = ("wall_s", "scaled_s", "items", "audit_rows", "peak_rss_mb", "digest",
            "attempted", "failed", "failures")
    rec = {k: res[k] for k in keep if k in res}
    for key in ("latencies_ms", "raw_latencies_ms"):
        if key in res:
            lat = sorted(res[key])
            rec[key.replace("latencies_ms", "p50_ms")] = _percentile(lat, 50)
            rec[key.replace("latencies_ms", "p99_ms")] = _percentile(lat, 99)
            rec["samples"] = len(lat)
    if "trace" in res:
        rec["trace"] = res["trace"]
    return rec


def _write_result(r: Runner, meta, report, untraced, traced, probes, pin_status) -> None:
    doc = {"meta": meta, "end_to_end": report["end_to_end"],
           "raw_end_to_end": report["raw_end_to_end"],
           "metrics": report["metrics"], "pins": pin_status,
           "setup_probes_s": [p["setup_s"] for p in probes],
           "setup_probes_scaled_s": [p["scaled_setup_s"] for p in probes],
           "repetitions": [_rep_record(x) for x in untraced],
           "traced_repetitions": [_rep_record(x) for x in traced],
           "traced_end_to_end": report.get("traced_end_to_end"),
           "trace_missing": report.get("trace_missing"),
           "attempted": r.attempted, "failed": r.failed, "failures": r.failures[:50]}
    results = r.root / ".perfbench_runs" / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{r.run_id}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    if not r.failures:
        shutil.rmtree(r.run_dir, ignore_errors=True)
    print(f"result file: {path.relative_to(r.root)}")


def _print_table(r: Runner, meta, report, pin_status, units: dict) -> None:
    print(f"workload {meta['workload']}  seed {meta['seed']}  size {meta['size']}  workers "
          f"{meta['workers']}  repetitions {meta['repetitions']}  samples {meta['samples']}")
    if "window" in meta:
        w = meta["window"]
        print(f"window: {w['command']} q {w['q_start']}..{w['q_max']} step {w['step']} "
              f"batch {w['batch_size']} in {w['parts']} part(s)  artifacts: "
              f"{', '.join(pin_status) or 'none'}")
    raw = report["raw_end_to_end"]
    traced = report.get("traced_end_to_end") or {}
    print(f"{'metric':<20} {'value':>14} {'unit':<8} {'raw wall':>14}"
          + (f" {'traced':>14}" if traced else ""))
    for name, value in report["end_to_end"].items():
        cells = "".join(f" {d[name]:>14.6g}" if name in d else f" {'':>14}" for d in (raw, traced))
        print(f"{name:<20} {value:>14.6g} {units[name]:<8}{cells}".rstrip())
    for name, m in report["metrics"].items():
        if name not in report["end_to_end"]:
            print(f"{name:<44} {m['value']:>14.6g} {m['unit']}")
    if report.get("trace_missing"):
        print("not traced (function not found): " + ", ".join(report["trace_missing"]))
    for line in r.failures[:20]:
        print(f"FAILED: {line}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=workloads.NAMES, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                   help="'tiny' is for the smoke test; only 'full' windows have pinned digests")
    args = p.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "erdos_straus" / "__init__.py").is_file():
        print(f"error: {root} holds no src/erdos_straus package to measure", file=sys.stderr)
        return 2
    _become_subreaper()
    return run(args, root)


if __name__ == "__main__":
    sys.exit(main())
