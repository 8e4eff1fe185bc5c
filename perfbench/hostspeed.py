"""The host's current speed, read from a fixed reference kernel.

The benchmark runs on a few vCPUs of a shared host whose speed drifts: the
same job list on the same input ran 20-30% slower for a whole 40 s run
than in the run before it, with CPU time equal to wall time, and no median
over rounds can remove a slowdown that lasts the whole run. So the
measuring process runs this kernel, which is part of the benchmark and
calls nothing of hcscount, every SAMPLE_EVERY_S seconds between jobs, and
divides each timed call by the host factor at the time of the call: the
median of the nearest NEAREST kernel times over REF_SECONDS. A time so
normalised reads in seconds of the reference host's speed. A change to
hcscount moves the timed calls and not the kernel, so it moves the
normalised time as much as the raw one.

The kernel counts the cliques of a fixed G(80, 0.5) by bitset recursion
with a dict tally: interpreted Python on big ints and small dicts, the mix
the engines run.
"""

from __future__ import annotations

import bisect
import random
import statistics
import time

# The kernel's median time between the jobs of a run on the reference
# host (2 vCPUs of a shared x86-64 VM, CPython 3.11; 594 samples over six
# runs of dense read 22-47 ms), so that a host factor near 1 means that
# host at its usual speed. A constant, so that normalised times of two
# commits compare.
REF_SECONDS = 0.040
SAMPLE_EVERY_S = 0.5
NEAREST = 5
_N, _P, _SEED = 80, 0.5, 7
_CLIQUES = 81966        # the kernel's answer, empty set included


def _adjacency() -> list[int]:
    rnd = random.Random(_SEED)
    adj = [0] * _N
    for i in range(_N):
        for j in range(i + 1, _N):
            if rnd.random() < _P:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def kernel(adj: list[int]) -> int:
    """Number of cliques of the graph (the empty one too)."""
    tally: dict[int, int] = {}

    def rec(cand: int, k: int) -> None:
        tally[k] = tally.get(k, 0) + 1
        while cand:
            b = cand & -cand
            cand ^= b
            rec(cand & adj[b.bit_length() - 1], k + 1)

    rec((1 << len(adj)) - 1, 0)
    return sum(tally.values())


class HostSpeed:
    """Kernel times taken through a run, and the host factor at any moment."""

    def __init__(self) -> None:
        self._adj = _adjacency()
        self.at: list[float] = []       # midpoints of the samples, ascending
        self.seconds: list[float] = []  # the kernel's time at each

    def sample(self) -> None:
        t0 = time.perf_counter()
        got = kernel(self._adj)
        t1 = time.perf_counter()
        if got != _CLIQUES:
            raise RuntimeError(f"reference kernel counted {got} cliques, not {_CLIQUES}")
        self.at.append((t0 + t1) / 2)
        self.seconds.append(t1 - t0)

    def maybe_sample(self) -> None:
        """Sample if the last sample is SAMPLE_EVERY_S old."""
        if not self.at or time.perf_counter() - self.at[-1] >= SAMPLE_EVERY_S:
            self.sample()

    def factor(self, t: float) -> float:
        """Kernel time near moment t over REF_SECONDS (> 1: slower than the reference)."""
        i = bisect.bisect_left(self.at, t)
        lo, hi = i, i
        while hi - lo < min(NEAREST, len(self.at)):
            if lo > 0 and (hi == len(self.at) or t - self.at[lo - 1] <= self.at[hi] - t):
                lo -= 1
            else:
                hi += 1
        return statistics.median(self.seconds[lo:hi]) / REF_SECONDS
