"""Reference-normalized wall-clock time.

The host this benchmark was built on changes speed in steps (a fixed
Python+numpy loop ran at 50 ms per pass for minutes, then at 33-40 ms),
so raw wall-clock figures of identical code swing by 2x between runs.
Every timed block is therefore bracketed by a fixed reference kernel,
run only while the program is quiescent, and the block's time is scaled
by ``NOMINAL_REF_SEC / measured``.  The kernel mixes the interpreter
work (dict and loop) and the small numpy calls that dominate the serving
paths, so a host that runs both slower is discounted, while a program
that gets slower is not.

At the scale of milliseconds the host also flips between speed states
(kernel passes of about 0.21, 0.25, 0.33 or 0.42 ms, each state lasting
a few milliseconds and changing within 50 ms).  One reference is thus a
sample of the state the host happened to be in, and a block is
normalized by the *mean* of many references around it: the program
spends its time across the same mix of states.
"""

from __future__ import annotations

import bisect
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

#: Time of one :func:`reference_kernel` pass on the reference host in its
#: fast state (2-CPU x86-64 VM, CPython 3.11, numpy 2.4).  Normalized
#: times read as the time that host would take running at that speed.
NOMINAL_REF_SEC = 0.00021
#: Time of one :meth:`PoolReference.run` pass on the same host.
NOMINAL_POOL_SEC = 0.00035

_PASSES = 3


def reference_kernel() -> float:
    """A fixed unit of interpreter plus small-numpy work (about 0.2 ms)."""
    counts = {}
    for i in range(1500):
        key = i % 61
        counts[key] = counts.get(key, 0) + i
    values = np.arange(64.0)
    for _ in range(30):
        values = np.sqrt(values * 1.0001 + 1.0)
    return float(values.sum()) + len(counts)


class PoolReference:
    """Partition-sized numpy masks fanned out on two threads, the way the
    scan executor runs morsels.

    A workload that scans on two threads waits whenever the second CPU is
    taken by someone else, which the one-thread kernel cannot see
    (measured: such runs drop from 1.15 to 0.85 CPU-seconds per second
    and lose a quarter of their throughput).  This pass waits the same way.
    """

    def __init__(self) -> None:
        self._chunks = [np.linspace(0.0, 100.0, 62_500) for _ in range(4)]
        self._pool = ThreadPoolExecutor(max_workers=2, thread_name_prefix="bench-ref")

    @staticmethod
    def _mask_sum(chunk: np.ndarray) -> int:
        return int(np.count_nonzero((chunk >= 30.0) & (chunk <= 60.0)))

    def run(self) -> int:
        return sum(f.result() for f in [self._pool.submit(self._mask_sum, c)
                                        for c in self._chunks])

    def close(self) -> None:
        self._pool.shutdown(wait=True)


def measure_reference(pool: Optional[PoolReference] = None) -> float:
    """Median seconds of a few kernel passes (robust to one preemption),
    each followed by a pool pass when ``pool`` is given.

    A first, untimed pass absorbs the slow start after the CPU idled.
    """
    def one_pass() -> None:
        reference_kernel()
        if pool is not None:
            pool.run()

    one_pass()
    samples = []
    for _ in range(_PASSES):
        start = time.perf_counter()
        one_pass()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


@dataclass
class Block:
    """One timed block: raw bounds, where its references start in the
    clock's list (and, once known, end), and the factor normalizing it."""

    start: float
    end: float
    ref_index: int
    factor: float
    ref_end: Optional[int] = None

    @property
    def raw_sec(self) -> float:
        return self.end - self.start

    @property
    def norm_sec(self) -> float:
        return self.raw_sec * self.factor


@dataclass
class HostClock:
    """Reference measurements interleaved with timed blocks.

    Call :meth:`reference` while nothing of the program runs, time a
    block, record it with :meth:`add_block`, and measure again.  One
    reference samples a speed state, which barely predicts the block next
    to it (measured: r = 0.18 over 93 blocks), while the host's speed
    steps last seconds to minutes; so a block is normalized by the mean
    of the references around it (:meth:`settle`), or of the latest ones
    while the run is still going (:meth:`causal_factor`).  A block that
    sets ``ref_end`` (references taken in its own idle gaps) uses exactly
    the references from its start to there.
    """

    refs: List[float] = field(default_factory=list)
    blocks: List[Block] = field(default_factory=list)
    pool: Optional[PoolReference] = None

    #: References on each side of a block that its factor is taken over.
    HALF_WINDOW = 25

    def reference(self, samples: int = 1) -> None:
        """Measure ``samples`` references, a couple of milliseconds apart
        (spent busy, so the CPU does not idle between them)."""
        for i in range(samples):
            if i:
                until = time.perf_counter() + 0.002
                while time.perf_counter() < until:
                    pass
            self.refs.append(measure_reference(self.pool))

    @property
    def nominal(self) -> float:
        return NOMINAL_REF_SEC + (NOMINAL_POOL_SEC if self.pool is not None else 0.0)

    def causal_factor(self) -> float:
        return self.nominal / statistics.fmean(self.refs[-(2 * self.HALF_WINDOW + 1):])

    def add_block(self, start: float, end: float, factor: Optional[float] = None) -> Block:
        block = Block(start, end, len(self.refs) - 1,
                      self.causal_factor() if factor is None else factor)
        self.blocks.append(block)
        return block

    def settle(self) -> None:
        """Give every block the mean of the references around it."""
        half = self.HALF_WINDOW
        for block in self.blocks:
            k = block.ref_index
            if block.ref_end is not None:
                window = self.refs[k:block.ref_end]
            else:
                window = self.refs[max(0, k - half):k + half + 2]
            block.factor = self.nominal / statistics.fmean(window)

    def factor_at(self, t: float) -> float:
        """Factor of the last block that started at or before host time ``t``."""
        if not self.blocks:
            return 1.0
        starts = [b.start for b in self.blocks]
        index = max(0, bisect.bisect_right(starts, t) - 1)
        return self.blocks[index].factor

    @property
    def ref_ms(self) -> float:
        return statistics.median(self.refs) * 1e3 if self.refs else 0.0

    @property
    def raw_sec(self) -> float:
        return sum(b.raw_sec for b in self.blocks)

    @property
    def norm_sec(self) -> float:
        return sum(b.norm_sec for b in self.blocks)
