"""Core-speed meter: how fast the program's core runs, sampled through a run.

On a shared virtual machine the speed of a core changes by up to 2x for
seconds at a time (other tenants on the same physical core), each core on
its own.  CPU time stretches with wall time, so no clock leaves it out.  The
benchmark therefore pins the program to one core and runs this meter on the
same core: every ``PERIOD`` seconds it times a fixed chunk of pure-Python
work in CPU time.  ``REFERENCE_SECONDS`` is what the chunk takes on a core
of the reference machine at full speed, so ``REFERENCE_SECONDS / reading``
is the core's speed at that moment (1.0 at full speed, 0.5 at half speed).

Every timing metric is reported in *reference seconds*: the wall time of
the interval it covers times the mean speed the meter read over that
interval, i.e. how long the interval would have taken on a core at the
reference speed.  A change that makes the program do less work lowers it
whatever the other tenants do; a stretch of slow core does not.  Timings
that a wall-clock budget sets stay in wall time (``WallClock``).

Usage: ``python perfbench/speed.py OUT``.  The meter samples until its
standard input closes, then writes one ``midpoint cpu_seconds`` line per
reading (CLOCK_MONOTONIC, the clock the benchmark stamps requests with) to
``OUT`` and exits.  It keeps the core affinity it was started with.
"""

from __future__ import annotations

import bisect
import contextlib
import os
import select
import subprocess
import sys
import time
from pathlib import Path

PERIOD = 0.04  # seconds between readings: about 4 % of the core
CHUNK = 4000  # loop iterations of one reading
#: CPU seconds of one chunk at full speed on the reference machine
#: (2 vCPU Intel Xeon virtual machine); only the ratio matters.
REFERENCE_SECONDS = 0.00125
NEAR = 0.2  # readings this close (s) to an interval count for it
MIN_READINGS = 5


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def chunk() -> float:
    """CPU seconds of one fixed chunk of dict, str and int work."""
    start = time.clock_gettime(time.CLOCK_THREAD_CPUTIME_ID)
    table: dict[int, int] = {}
    total = 0
    for i in range(CHUNK):
        table[i % 251] = table.get(i % 251, 0) + i
        total += len(str(i))
    return time.clock_gettime(time.CLOCK_THREAD_CPUTIME_ID) - start


def sample(out: Path) -> None:
    readings = []
    while True:
        ready, _, _ = select.select([sys.stdin], [], [], PERIOD)
        if ready:  # stdin closed (or written to): stop
            break
        start = now()
        cpu = chunk()
        readings.append(f"{(start + now()) / 2:.6f} {cpu:.9f}")
    out.write_text("\n".join(readings) + "\n")


# --------------------------------------------------------------------------- #
# Benchmark side
# --------------------------------------------------------------------------- #
def cores() -> tuple[int, set[int]]:
    """(the program's core, the benchmark's cores) among the allowed ones."""
    allowed = sorted(os.sched_getaffinity(0))
    return allowed[0], set(allowed[1:]) or set(allowed)


@contextlib.contextmanager
def on_core(core: int):
    """Processes started inside the block run on ``core`` only (they inherit
    the calling thread's affinity); the caller gets its own back after."""
    own = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {core})
    try:
        yield
    finally:
        os.sched_setaffinity(0, own)


class CoreSpeed:
    """Readings of the meter: (midpoint, speed) pairs in time order."""

    def __init__(self, times: list[float], speeds: list[float]):
        self.times, self.speeds = times, speeds

    def speed(self, start: float, end: float) -> float:
        """Mean core speed over [start, end]: the readings within ``NEAR``
        seconds of it, or the ``MIN_READINGS`` nearest when there are fewer."""
        if not self.times:
            raise RuntimeError("the speed meter recorded no readings")
        lo = bisect.bisect_left(self.times, start - NEAR)
        hi = bisect.bisect_right(self.times, end + NEAR)
        if hi - lo < MIN_READINGS:
            middle = bisect.bisect_left(self.times, (start + end) / 2)
            lo = max(0, min(middle - MIN_READINGS // 2, len(self.times) - MIN_READINGS))
            hi = min(len(self.times), lo + MIN_READINGS)
        window = self.speeds[lo:hi]
        return sum(window) / len(window)

    def reference_seconds(self, start: float, end: float) -> float:
        """Wall seconds of [start, end] at the reference core speed."""
        return (end - start) * self.speed(start, end)


class SpeedMeter(CoreSpeed):
    """The meter process on the program's core; its readings once stopped."""

    def __init__(self, root: Path, workdir: Path, core: int):
        super().__init__([], [])
        workdir.mkdir(parents=True, exist_ok=True)
        self.out = workdir / "speed.txt"
        with on_core(core):
            self.process = subprocess.Popen(
                [sys.executable, str(root / "perfbench" / "speed.py"), str(self.out)],
                stdin=subprocess.PIPE,
            )

    def stop(self) -> None:
        """End the meter (it writes its readings) and load them; idempotent."""
        if self.process.returncode is None:
            self.process.stdin.close()
            try:
                self.process.wait(30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if not self.times and self.out.exists():
            pairs = [line.split() for line in self.out.read_text().splitlines() if line]
            self.times = [float(t) for t, _ in pairs]
            self.speeds = [REFERENCE_SECONDS / float(c) for _, c in pairs]


class WallClock:
    """Plain wall time, for timings a wall-clock budget sets: a cold request
    races its portfolio for ``budget_seconds`` of wall time however fast
    the core runs, so converting it would credit a slow core."""

    def speed(self, start: float, end: float) -> float:
        return 1.0

    def reference_seconds(self, start: float, end: float) -> float:
        return end - start


if __name__ == "__main__":
    sample(Path(sys.argv[1]))
