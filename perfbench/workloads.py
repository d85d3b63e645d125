"""Workload inputs, made from the seed alone (stdlib only, no package import).

Why each workload exists is recorded in BENCHMARK.json; the window sizes
below make one repetition take a few seconds on a 2-core machine.
"""

from __future__ import annotations

import os
import random

NAMES = ("scan-dense", "scan-hard", "primes", "targets")

# Per size: scan windows (q_max, or the number of q for scan-hard), batch
# sizes, how many consecutive CLI calls ("parts") a window is scanned in,
# and the decompose_any calls of one targets repetition.  Parts keep each
# timed segment short enough for calibrate.py to follow the machine's speed;
# scan-dense stays one call, as its audit phase resumes that one scan.
# primes keeps the reference scan's batch size (the CLI default), so each
# part is one batch.  "tiny" is for the smoke test only; no artifact digest
# is pinned for it.
SIZES = {
    "full": {"dense_q_max": 60_000, "dense_batch": 15_000, "hard_count": 1500,
             "hard_parts": 10, "primes_q_max": 600_000, "primes_batch": 1_000_000,
             "primes_parts": 10, "calls": 5000},
    "tiny": {"dense_q_max": 3000, "dense_batch": 1000, "hard_count": 8, "hard_parts": 2,
             "primes_q_max": 3000, "primes_batch": 1_000_000, "primes_parts": 2, "calls": 40},
}

# decompose_any calls timed as one segment of the targets workload.
CALLS_PER_SEGMENT = 250

# Smallest multiple of 6 at or above 10^9: scan-hard windows start here plus
# a seed-chosen offset, so n = q + x stays below 2^32.
HARD_BASE = 1_000_000_002
HARD_OFFSETS = 10**6

# decompose_any targets a = 4q+1, one band per call in turn: [lo, hi).
TARGET_BANDS = (
    (5, 4 * 10**5),
    (4 * 10**9, 4 * 10**9 + 4 * 10**6),
    (4 * 10**12, 4 * 10**12 + 4 * 10**9),
    (4 * 10**18, 4 * 10**18 + 4 * 10**15),
)


def workers(name: str) -> int:
    """Pool size: scan-dense uses the CLI default on 2 cores, never above nproc."""
    return min(2, os.cpu_count() or 1) if name == "scan-dense" else 1


def scan_window(name: str, seed: int, size: str) -> dict:
    """CLI range arguments of a scan workload, and the parts it is run in."""
    s = SIZES[size]
    if name == "scan-dense":
        return {"command": "cover", "q_start": 1, "q_max": s["dense_q_max"], "step": 1,
                "batch_size": s["dense_batch"], "parts": 1}
    if name == "scan-hard":
        start = HARD_BASE + 6 * random.Random(f"scan-hard:{seed}").randrange(HARD_OFFSETS)
        count = s["hard_count"]
        return {"command": "cover", "q_start": start, "q_max": start + 6 * (count - 1),
                "step": 6, "batch_size": count // s["hard_parts"], "parts": s["hard_parts"]}
    if name == "primes":
        return {"command": "primes", "q_start": 6, "q_max": s["primes_q_max"], "step": 6,
                "batch_size": s["primes_batch"], "parts": s["primes_parts"]}
    raise ValueError(f"{name} is not a scan workload")


def scan_parts(window: dict) -> list[dict]:
    """The window cut into `parts` consecutive sub-windows of whole steps."""
    qs = window_qs(window)
    size = -(-len(qs) // window["parts"])
    return [dict(window, q_start=chunk[0], q_max=chunk[-1], parts=1)
            for chunk in (qs[i : i + size] for i in range(0, len(qs), size))]


def window_qs(window: dict) -> list[int]:
    return list(range(window["q_start"], window["q_max"] + 1, window["step"]))


def window_key(window: dict) -> str:
    """Identifies a window's artifact set; pinned digests are keyed by it."""
    return (f"{window['command']} {window['q_start']}..{window['q_max']} step {window['step']} "
            f"batch {window['batch_size']} parts {window['parts']}")


def target_draws(seed: int, rep: int, size: str) -> list[int]:
    """The a values of one targets repetition, each band in turn."""
    rng = random.Random(f"targets:{seed}:{rep}")
    draws = []
    for i in range(SIZES[size]["calls"]):
        lo, hi = TARGET_BANDS[i % len(TARGET_BANDS)]
        draws.append(4 * rng.randrange((lo - 1) // 4, (hi - 1) // 4) + 1)
    return draws
