"""Machine-speed calibration, so that run-to-run drift of a shared host cancels.

On the 2-vCPU x86-64 virtual machine the benchmark was defined on, the
speed of plain Python code drifts by up to 2x over tens of seconds, and
medians of 20 s windows still differ by 10-20%.  Every timed segment of work is therefore
bracketed by two runs of a fixed, benchmark-owned loop, and its wall time
is scaled by REF_S over their mean: the result is the time the segment would
have taken with the loop running at REF_S, i.e. at this machine's typical
speed.  Segments are kept short (well under a second) because the drift is
slower than that.  Raw wall times are reported beside the scaled ones.

Pooled work spreads over cores whose speeds drift apart, and its
repetition-to-repetition noise did not follow any loop timed beside it (one
core, each core in turn, or all at once): scaling each repetition made its
spread worse.  Its run-to-run drift is slower, so pooled work is timed raw
(Clock(scale=False)) and scaled by one factor per run, from the median of
slices run on every CPU at once by a PoolCalibrator between repetitions.
"""

from __future__ import annotations

import contextlib
import os
import statistics
import subprocess
import sys
import time

# Median duration of one calibration slice on the reference machine
# (2-vCPU x86-64 virtual machine, Intel Xeon at 2.1 GHz, Python 3.11.7).
REF_S = 0.042


def slice_s() -> float:
    """Wall time of one fixed trial-division loop (about REF_S)."""
    t0 = time.perf_counter()
    s = 0
    for n in range(1_000_003, 1_005_003):
        for d in range(1, 200):
            if n % d == 0:
                s += d
    return time.perf_counter() - t0


class Clock:
    """Accumulates raw and speed-scaled wall time of work segments, by phase."""

    def __init__(self, scale: bool = True) -> None:
        self.scale = scale
        self.last = slice_s() if scale else REF_S
        self.wall: dict[str, float] = {}
        self.scaled: dict[str, float] = {}

    def add(self, phase: str, wall: float) -> float:
        """Record one segment that took `wall` seconds; return its scale factor."""
        after = slice_s() if self.scale else REF_S
        factor = REF_S / ((self.last + after) / 2)
        self.last = after
        self.wall[phase] = self.wall.get(phase, 0.0) + wall
        self.scaled[phase] = self.scaled.get(phase, 0.0) + wall * factor
        return factor

    def time(self, phase: str, fn, *args):
        """Run fn(*args) as one segment of `phase`; return its result."""
        t0 = time.perf_counter()
        result = fn(*args)
        self.add(phase, time.perf_counter() - t0)
        return result


class PoolCalibrator:
    """One process pinned to each CPU; sample() runs slice_s() on all at once.

    The processes are plain subprocesses of this file (see main()), fed one
    line per slice over stdin; close() ends each and waits for it.
    """

    def __init__(self, cpus: list[int]) -> None:
        self.slices: list[float] = []
        self.procs: list[subprocess.Popen] = []
        try:
            for cpu in cpus:
                self.procs.append(subprocess.Popen(
                    [sys.executable, os.path.abspath(__file__), "--cpu", str(cpu)],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1))
        except BaseException:
            self.close()
            raise

    def sample(self, times: int = 3) -> None:
        for _ in range(times):
            for proc in self.procs:
                proc.stdin.write("1\n")
            self.slices.append(statistics.mean(float(proc.stdout.readline()) for proc in self.procs))

    def factor(self) -> float:
        return REF_S / statistics.median(self.slices)

    def close(self) -> None:
        for proc in self.procs:
            with contextlib.suppress(OSError):
                proc.stdin.close()  # end of input ends main()
        for proc in self.procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()


def main() -> None:
    """Serve PoolCalibrator: one slice_s() per input line, pinned to --cpu."""
    cpu = int(sys.argv[sys.argv.index("--cpu") + 1])
    os.sched_setaffinity(0, {cpu})
    for _ in sys.stdin:
        print(slice_s(), flush=True)


if __name__ == "__main__":
    main()
