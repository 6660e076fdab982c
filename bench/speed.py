"""Speed probe: a fixed chunk of pure-Python work, timed, to follow how fast
the machine runs Python at the moment.

On a shared host the speed of a fixed Python loop can change by 1.5 times or
more for seconds to minutes at a time, which swamps the changes in fshom the
benchmark is meant to show. The benchmark therefore times a small chunk
(integer dot products over lists, dict stores and a sort, like fshom's own
inner loops) again and again while it measures, and scales each measured
time to a machine on which one chunk takes `REF_CHUNK_S`, about its fastest
state:

    scaled = measured * (REF_CHUNK_S / mean chunk time over the same span) ** e

The elasticity e is how strongly the measured step follows the chunk. A
pass of fshom's commands slows more than the chunk does, likely because it
works on far more memory. On a 2-vCPU KVM guest (Intel Xeon), over about 800
passes in 40 runs of the four workloads, log pass time against log chunk
time gave a least-squares slope of 1.2-1.3 with correlation 0.92-0.96 (a
slope fitted to noisy chunk means reads low), and of e = 1.0, 1.2, ... 1.8,
e = 1.4 left the least spread between the runs' medians on the whole.
Interpreter start-up follows the chunk best with e = 1. Either way the
scaled time is proportional to the measured one, so a change in fshom moves
it by the same share.

`ProbeTimer` interleaves chunks with the work through a SIGALRM interval
timer, so the chunks sample the whole span rather than its ends; the time
the chunks take is taken out of the measured span before scaling.
"""

from __future__ import annotations

import signal
from time import perf_counter

REF_CHUNK_S = 0.0015
PASS_ELASTICITY = 1.4
SETUP_ELASTICITY = 1.0
_N = 30


def chunk() -> float:
    """Seconds taken by one fixed chunk of work."""
    t0 = perf_counter()
    rows = [[(i * 7 + j * 3) % 5 - 2 for j in range(_N)] for i in range(_N)]
    dots = {}
    for i in range(_N):
        ri = rows[i]
        for k in range(_N):
            rk = rows[k]
            s = 0
            for j in range(_N):
                s += ri[j] * rk[j]
            dots[(i, k)] = s
    sorted(dots.items(), key=lambda kv: kv[1])
    return perf_counter() - t0


def mean_chunk(n: int, warm: int = 2) -> float:
    """Mean seconds of `n` chunks, after `warm` uncounted ones."""
    for _ in range(warm):
        chunk()
    return sum(chunk() for _ in range(n)) / n


class ProbeTimer:
    """Runs one chunk every `interval` seconds of wall time, from a SIGALRM
    handler, and records each as (start, seconds)."""

    def __init__(self, interval: float):
        self.interval = interval
        self.samples = []
        self._old = None

    def _tick(self, _signum, _frame) -> None:
        t0 = perf_counter()
        self.samples.append((t0, chunk()))

    def start(self) -> None:
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def within(self, t0: float, t1: float) -> list:
        """Chunk times of the samples that started within [t0, t1]."""
        return [d for s, d in self.samples if t0 <= s <= t1]


def scaled(seconds: float, chunk_s: float, elasticity: float) -> float:
    """`seconds` measured while one chunk took `chunk_s`, scaled to the
    reference speed."""
    return seconds * (REF_CHUNK_S / chunk_s) ** elasticity
