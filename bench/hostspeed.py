"""Host-speed reference: time measurements scaled toward a fixed machine speed.

The cores this benchmark runs on are shared, and the machine's speed
drifts by up to ~1.7x in phases of 20-40 s.  A run of 30 s can fall
wholly into a slow phase, so raw wall and CPU times of the same code
spread by 0.15-0.3 (inter-quartile distance / median) across runs, which
is as large as the regressions the benchmark is meant to catch.

The measured spans are therefore interleaved with samples of a fixed
pure-Python reference (``reference_work``), taken right before, between
and right after them.  Let r be the median of the reference times
sampled during a unit of work (1-10 s) and up to ``WINDOW_S`` before and
after it.  The unit's times are multiplied by (REF_S / r) ** 0.5, where
``REF_S`` is the reference's nominal time: a time that moved with the
reference by half (in log terms) reads as at the nominal speed.  The
reference is the benchmark's own code and never changes with the
program, so a program that does 20% more work still reads 20% slower;
only (most of) the machine's drift divides out.

The exponent (``ELASTICITY``) is a compromise, because the workloads do
not slow alike.  Over ten 30-s runs on the 2-core Xeon VM (105 MB LLC)
the benchmark was written on, a census run that met a reference 1.5x
slower ran about 1.5x slower; an identify pass about 1.35x, and a
cli_session cycle about 1.2x.  Spreads of the ten runs' raw wall times
(inter-quartile distance / median), scaled by each run's median
reference time with exponents 0 / 0.5 / 1: census
0.10 / 0.07 / 0.04, cli_session 0.17 / 0.10 / 0.26, identify 0.09 / 0.12
/ 0.14.  With 1 a cli_session run in a slow phase reads much faster than
one in a fast phase; with 0, runs in other phases spread 0.2-0.4.
"""

from __future__ import annotations

import os
import random
import statistics
import subprocess
import sys
from time import perf_counter

REF_S = 0.1  # nominal seconds of reference_work(); about its fast-phase time on that VM
# How far a time follows the reference: times are scaled by (REF_S / r) ** ELASTICITY.
ELASTICITY = 0.5


def reference_work() -> int:
    """Fixed work (~0.1 s, ~10 MB): build, hash, sort and look up 60,000 tuples.

    Like the program, it allocates many small objects and reaches them in
    scattered order.  Measured against ten identify queries, it followed
    the host's slow phases about twice as closely as a tight integer loop,
    and better than half of it mixed with such a loop.
    """
    rng = random.Random(7)
    keys = [(rng.randrange(1 << 30), i) for i in range(60_000)]
    index = {key: i for i, key in enumerate(keys)}
    acc = 0
    for key in sorted(keys):
        acc += index[key]
    return acc


def reference_s() -> float:
    t0 = perf_counter()
    reference_work()
    return perf_counter() - t0


WINDOW_S = 5.0  # samples this far before or after a unit of work scale it too


def scale(r: float) -> float:
    """The factor for times measured while the reference took r seconds."""
    return (REF_S / r) ** ELASTICITY


class Reference:
    """Reference samples taken between the measured spans of a run.

    Construct it right before the first span and call ``sample`` right
    after each span.  ``factor(start, end)`` scales a unit of work that
    ran from start to end by the median of the samples taken from
    WINDOW_S before it to WINDOW_S after it: wide enough that a single
    sample's own noise (~12%) mostly cancels, narrow enough to follow the
    host's phases (20-40 s).  ``take`` takes one sample, from the helper
    process (see below).
    """

    def __init__(self, take) -> None:
        self.take = take
        self.times: list[float] = []
        self.samples: list[float] = []
        self.sample()

    def sample(self) -> None:
        self.times.append(perf_counter())
        self.samples.append(self.take())

    def factor(self, start: float, end: float) -> float:
        """The scale for the median reference time around the unit from
        start to end.

        A time measured in that unit times this factor is its time at the
        reference speed.
        """
        near = [r for t, r in zip(self.times, self.samples)
                if start - WINDOW_S <= t <= end + WINDOW_S]
        return scale(statistics.median(near))


def mark(take) -> tuple[float, float]:
    """A reference sample between two spans: (when it started, its time)."""
    t = perf_counter()
    return t, take()


def scaled_spans(start: float, before: float, marks: list[tuple[float, float]]) -> tuple[float, float]:
    """The time from start to the last mark, less the marks' own time, as one
    unit: (at the reference speed, raw).  before is the reference time
    sampled right before start.  Marks from another process compare,
    because perf_counter is the system-wide monotonic clock."""
    raw, prev_end = 0.0, start
    for t, r in marks:
        raw += t - prev_end
        prev_end = t + r
    return raw * scale(statistics.median([before] + [r for _, r in marks])), raw


# The reference allocates ~10 MB.  A process keeps much of that, and a
# child forked from it starts with it in its peak RSS, so the samples are
# taken in a helper process of their own, the only one that runs the
# reference.  A process (or a child it hands the pipes to) asks for a
# sample by writing one byte and reads back the sample's time; it waits
# meanwhile, so the sample still falls between its spans.


class Helper:
    """The helper process, and its pipes."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen([sys.executable, os.path.abspath(__file__)],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0)
        self.take = connect(self.fds())

    def fds(self) -> str:
        """The pipes' file descriptors, for ``connect`` in a child process."""
        return f"{self.proc.stdin.fileno()},{self.proc.stdout.fileno()}"

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()


def connect(fds: str):
    """A ``take`` for Reference and mark that asks the helper behind fds."""
    ask, answer = (int(fd) for fd in fds.split(","))

    def take() -> float:
        os.write(ask, b"?")
        line = b""
        while not line.endswith(b"\n"):
            chunk = os.read(answer, 64)
            if not chunk:
                raise EOFError("the reference helper exited")
            line += chunk
        return float(line)

    return take


if __name__ == "__main__":
    # the helper: one sample per byte read, until stdin closes
    while sys.stdin.buffer.read(1):
        sys.stdout.write(f"{reference_s()!r}\n")
        sys.stdout.flush()
