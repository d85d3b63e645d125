"""One benchmark repetition, run by run.py in a fresh process.

    child.py --workload W --seed S --rep K --size full --out DIR
             --mode setup|measure --trace 0|1 --spawn-t T

`setup` mode answers a one-item input through the workload's entry point
and reports the seconds since the parent spawned it (T is the parent's
time.perf_counter(), which is the system-wide monotonic clock on Linux).
`measure` mode runs the workload once, re-verifies all of its output and
reports the phase times.  Either prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads

calibrate = gate = spans = None  # for measure mode only, so set-up times the package alone

MAX_MESSAGES = 20


def _cli(cli, argv: list[str], failures: list[str]) -> None:
    """One CLI invocation with its stdout discarded; a nonzero exit is a failure."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
    except Exception:
        failures.append(f"{argv[0]} raised: {traceback.format_exc(limit=3)}")
        return
    if rc != 0:
        failures.append(f"{' '.join(argv[:2])} exited with {rc}")


def _scan_argv(window: dict, n_workers: int, out: Path) -> list[str]:
    argv = [window["command"], "--q-start", str(window["q_start"]), "--q-max", str(window["q_max"]),
            "--batch-size", str(window["batch_size"]), "--workers", str(n_workers), "--out-dir", str(out)]
    if window["command"] == "cover":
        argv += ["--step", str(window["step"])]
    return argv


def setup(args, out: Path) -> dict:
    import erdos_straus  # noqa: F401  (import time, with the numutil sieve, is part of set-up)
    from erdos_straus import cli, decompose

    failures: list[str] = []
    if args.workload == "targets":
        decompose.decompose_any(5)
    else:
        one = dict(workloads.scan_window(args.workload, args.seed, args.size))
        one.update(q_start=one["step"], q_max=one["step"], batch_size=1)
        _cli(cli, _scan_argv(one, workloads.workers(args.workload), out / "scan"), failures)
    return {"setup_s": time.perf_counter() - args.spawn_t, "attempted": 1,
            "failed": len(failures), "failures": failures}


def _part_dirs(scan_dir: Path, parts: list[dict]) -> list[Path]:
    return [scan_dir] if len(parts) == 1 else [scan_dir / f"part{i:02d}" for i in range(len(parts))]


def _scan(args, out: Path, clock, failures: list[str]) -> dict:
    from erdos_straus import cli

    window = workloads.scan_window(args.workload, args.seed, args.size)
    parts = workloads.scan_parts(window)
    n_workers = workloads.workers(args.workload)
    scan_dir = out / "scan"
    for part, part_dir in zip(parts, _part_dirs(scan_dir, parts)):
        clock.time("scan", _cli, cli, _scan_argv(part, n_workers, part_dir), failures)
    res = {"items": len(workloads.window_qs(window)), "window": window, "cli_calls": len(parts),
           "window_key": workloads.window_key(window), "digest": gate.artifact_digest(scan_dir)}
    if args.workload == "scan-dense":
        # Audit: reload every batch through --resume, re-verify and split each file.
        batch_files = sorted(scan_dir.glob("results_batch*.csv"))
        clock.time("audit", _cli, cli, _scan_argv(window, n_workers, scan_dir) + ["--resume"], failures)
        for path in batch_files:
            clock.time("audit", _cli, cli, ["verify-csv", str(path)], failures)
        for i, path in enumerate(batch_files, start=1):
            clock.time("audit", _cli, cli, ["split", str(path), "--out-dir", str(out / "split" / str(i))], failures)
        res["cli_calls"] += 1 + 2 * len(batch_files)
        rows = sum(len(p.read_text().splitlines()) - 1 for p in batch_files)
        res["audit_rows"] = 3 * rows  # resume, verify-csv and split each read every row
        if gate.artifact_digest(scan_dir) != res["digest"]:
            failures.append("the audit phase changed the scan artifacts")
    return res


def _check_scan(args, res: dict, out: Path) -> tuple[int, list[str]]:
    check = gate.check_primes if args.workload == "primes" else gate.check_coverage
    parts = workloads.scan_parts(res["window"])
    attempted, failures = 0, []
    for part, part_dir in zip(parts, _part_dirs(out / "scan", parts)):
        n, found = check(part_dir, workloads.window_qs(part))
        attempted += n
        failures += found
    return attempted, failures


def _targets(args, clock) -> dict:
    from erdos_straus import decompose

    draws = workloads.target_draws(args.seed, args.rep, args.size)
    raw_ms, scaled_ms, results = [], [], []
    clock_s = time.perf_counter
    for start in range(0, len(draws), workloads.CALLS_PER_SEGMENT):
        segment = []
        t_seg = clock_s()
        for a in draws[start : start + workloads.CALLS_PER_SEGMENT]:
            t0 = clock_s()
            try:
                results.append(decompose.decompose_any(a))
            except Exception as exc:
                results.append(exc)
            segment.append(1e3 * (clock_s() - t0))
        factor = clock.add("calls", clock_s() - t_seg)
        raw_ms += segment
        scaled_ms += [t * factor for t in segment]
    return {"items": len(draws), "draws": draws, "latencies_ms": scaled_ms,
            "raw_latencies_ms": raw_ms, "results": results}


def _check_targets(res: dict) -> tuple[int, list[str]]:
    from erdos_straus import decompose

    failures = []
    for a, rec in zip(res.pop("draws"), res.pop("results")):
        if isinstance(rec, Exception):
            failures.append(f"decompose_any({a}) raised {rec!r}")
        elif rec.a != a or not decompose.verify_exact(a, rec.triple) or not gate.check_triple(a, rec.triple):
            failures.append(f"decompose_any({a}) returned a wrong triple {tuple(rec.triple)}")
    return len(res["latencies_ms"]), failures


def _trace_totals(rec: spans.Recorder) -> dict:
    snaps = rec.worker_snapshots()
    stats = json.loads(json.dumps(rec.stats))  # a copy: the gate may still call traced code
    for snap in snaps:
        for name, stat in snap["stats"].items():
            for key, value in stat.items():
                stats[name][key] += value
    return {"stats": stats, "worker_root_s": sum(s["root_s"] for s in snaps),
            "workers_forked": rec.forks, "worker_files": len(snaps), "missing": rec.missing}


def measure(args, out: Path) -> dict:
    import erdos_straus  # noqa: F401

    rec = spans.install(out / "trace") if args.trace else None
    failures: list[str] = []
    clock = calibrate.Clock(scale=workloads.workers(args.workload) == 1)
    if args.workload == "targets":
        res = _targets(args, clock)
    else:
        res = _scan(args, out, clock, failures)
    res.update(wall_s=clock.wall, scaled_s=clock.scaled)
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if rec is not None:
        res["trace"] = _trace_totals(rec)
    if args.workload == "targets":
        attempted, found = _check_targets(res)
    else:
        attempted, found = _check_scan(args, res, out)
        attempted += res["cli_calls"]
    failures += found
    res.update(attempted=attempted, failed=len(failures), failures=failures[:MAX_MESSAGES],
               peak_rss_mb=(self_kb + workloads.workers(args.workload) * children_kb) / 1024)
    return res


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=workloads.NAMES, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--rep", type=int, required=True)
    p.add_argument("--size", choices=sorted(workloads.SIZES), required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--mode", choices=("setup", "measure"), required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawn-t", type=float, default=0.0)
    args = p.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    if args.mode == "measure":
        global calibrate, gate, spans
        import calibrate
        import gate
        import spans
    result = (setup if args.mode == "setup" else measure)(args, args.out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
