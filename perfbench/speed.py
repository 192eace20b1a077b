"""The machine's speed, sampled while a child process works.

On a shared host the same code runs up to half again as long when the
host is busy, and a busy spell lasts from seconds to minutes, so raw
times of one run tell more about the host than about arborchar.  A Speed
object times a fixed pure-Python loop (loop()) five times when the child
starts and stops working and every PERIOD_S from a SIGALRM handler in
between.  A time is then reported at the reference speed:

    reported = measured * REF_S / (median loop time around the measurement)

REF_S is about the loop's time when the machine of the baseline in
README.md runs at full speed, so reported times are seconds as that
machine shows them when it is not shared.  The loop allocates nothing
the garbage collector tracks, so arborchar's heap cannot change its
time.  The sampling's own time is left out of every measured time (see
now()).
"""

from __future__ import annotations

import signal
import statistics
import subprocess
import sys
import time

PERIOD_S = 0.05
LOOPS = 10_000
REF_S = 0.7e-3  # loop() at full speed on a 2.1 GHz Xeon core, Python 3.11
NEAREST = 5  # a measurement with fewer samples inside it uses this many nearest ones
REF_START_S = 0.2  # about reference_start() on the same machine when it is quiet


def reference_start(env: dict, limit_s: float) -> float:
    """Time a fresh ``python3 -c "import numpy"``, spawn to exit.

    A start-up is mostly the kernel's exec, mapping and page-fault work and
    numpy's import, which a busy host slows far more than it slows loop():
    so a child's start-up is scaled by REF_START_S over the time of this
    process, started right before it, not by loop samples."""
    t0 = time.monotonic()
    try:
        subprocess.run([sys.executable, "-c", "import numpy"], env=env, timeout=limit_s,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:  # killed and reaped by subprocess.run
        pass
    return time.monotonic() - t0


def loop() -> int:
    s = 0
    for i in range(LOOPS):
        s += i * i % 7
    return s


class Speed:
    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (perf_counter at start, loop seconds)
        self.spent = 0.0  # time spent in loop() so far

    def sample(self) -> None:
        t0 = time.perf_counter()
        loop()
        dt = time.perf_counter() - t0
        self.samples.append((t0, dt))
        self.spent += dt

    def burst(self) -> None:
        for _ in range(NEAREST):
            self.sample()

    def start(self) -> None:
        """Sample NEAREST times now, then every PERIOD_S until stop()."""
        self.burst()
        signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        """Stop sampling, then sample NEAREST times, so that the last
        operation has samples on both sides."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.burst()

    def now(self) -> float:
        """perf_counter without the time spent sampling."""
        return time.perf_counter() - self.spent

    def factor(self, t0: float = float("-inf"), t1: float = float("inf")) -> float:
        """REF_S over the median loop time of the samples taken between
        perf_counter times t0 and t1, or of the NEAREST nearest to that
        interval when fewer were taken inside it."""
        by_distance = sorted((max(t0 - s, s - t1, 0.0), dt) for s, dt in self.samples)
        inside = [dt for d, dt in by_distance if d == 0.0]
        chosen = inside if len(inside) >= NEAREST else [dt for _, dt in by_distance[:NEAREST]]
        return REF_S / statistics.median(chosen)


class Timer:
    """Times operations on the clock Speed.now(), to be scaled once every
    sample is in: an operation's samples may come after it ends."""

    def __init__(self, speed: Speed) -> None:
        self.speed = speed
        self.spans: list[tuple[float, float, float]] = []  # (start, end, measured seconds)

    def __enter__(self) -> "Timer":
        self._t0, self._p0 = time.perf_counter(), self.speed.now()
        return self

    def __exit__(self, *exc) -> None:
        self.spans.append((self._t0, time.perf_counter(), self.speed.now() - self._p0))

    def raw(self) -> list[float]:
        return [dt for _, _, dt in self.spans]

    def scaled(self) -> list[float]:
        return [dt * self.speed.factor(t0, t1) for t0, t1, dt in self.spans]
