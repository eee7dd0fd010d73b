"""Measurement instruments for cluster runs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.core.metrics import imbalance


class LatencyStats:
    """Online latency statistics with reservoir percentiles.

    Keeps exact count/mean plus a bounded reservoir for percentile
    estimates so that million-tuple runs do not hoard memory.
    """

    def __init__(self, reservoir_size: int = 4096, seed: int = 0):
        if reservoir_size < 1:
            raise ValueError("reservoir_size must be >= 1")
        self.count = 0
        self.mean = 0.0
        self.max = 0.0
        self._reservoir: List[float] = []
        self._reservoir_size = int(reservoir_size)
        self._rng = np.random.default_rng(seed)

    def record(self, value: float) -> None:
        self.count += 1
        self.mean += (value - self.mean) / self.count
        if value > self.max:
            self.max = value
        if len(self._reservoir) < self._reservoir_size:
            self._reservoir.append(value)
        else:
            j = int(self._rng.integers(0, self.count))
            if j < self._reservoir_size:
                self._reservoir[j] = value

    def percentile(self, q: float) -> float:
        """Approximate ``q``-th percentile (q in [0, 100])."""
        if not self._reservoir:
            return 0.0
        return float(np.percentile(self._reservoir, q))

    def __repr__(self) -> str:
        return (
            f"LatencyStats(count={self.count}, mean={self.mean:.6f}, "
            f"p99={self.percentile(99):.6f})"
        )


@dataclass
class RunMetrics:
    """Outcome of one cluster run (the Figure 5 measurables)."""

    scheme: str
    cpu_delay: float
    duration: float
    warmup: float
    emitted: int
    completed: int
    #: completed tuples per second of measured (post-warmup) time
    throughput: float
    #: end-to-end tuple latency stats (emit -> counter completion)
    latency: LatencyStats
    #: time-averaged live partial counters across workers
    average_memory_counters: float
    peak_memory_counters: int
    #: messages flushed from counters to the aggregator
    aggregation_messages: int
    worker_loads: List[int] = field(default_factory=list)

    @property
    def load_imbalance(self) -> float:
        if not self.worker_loads:
            return 0.0
        return imbalance(self.worker_loads)

    def summary(self) -> str:
        return (
            f"{self.scheme}: delay={self.cpu_delay * 1e3:.2f}ms "
            f"throughput={self.throughput:.0f} keys/s "
            f"latency(mean)={self.latency.mean * 1e3:.2f}ms "
            f"memory={self.average_memory_counters:.0f} counters"
        )
