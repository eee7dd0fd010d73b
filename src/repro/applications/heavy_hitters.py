"""Distributed heavy hitters with SPACESAVING (Section VI-C).

Each worker runs an independent SPACESAVING summary over its sub-stream;
queries merge summaries.  The error structure follows the paper:

* **KG** -- a key lives in exactly one summary: error of a single
  summary (sequential quality) but poor load balance;
* **SG** -- a key may appear in all W summaries: merged error is the
  sum of W per-summary errors, growing with parallelism;
* **PKG** -- a key lives in exactly its two candidate summaries: the
  merged error is the sum of **two** error terms *regardless of W*,
  while the load stays balanced -- "both benefits".
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.core.metrics import imbalance
from repro.partitioning.base import Partitioner
from repro.partitioning.shuffle import ShuffleGrouping
from repro.sketches.spacesaving import SpaceSaving


class DistributedHeavyHitters:
    """Parallel top-k / heavy-hitter tracking over W workers.

    Parameters
    ----------
    partitioner:
        Routing scheme for item keys.
    capacity:
        SPACESAVING capacity of each worker's summary.
    """

    def __init__(self, partitioner: Partitioner, capacity: int = 256):
        self.partitioner = partitioner
        self.num_workers = partitioner.num_workers
        self.capacity = int(capacity)
        self.summaries: List[SpaceSaving] = [
            SpaceSaving(capacity) for _ in range(self.num_workers)
        ]
        self.worker_loads = [0] * self.num_workers
        self._broadcast = isinstance(partitioner, ShuffleGrouping)

    def process(self, item, now: float = 0.0) -> int:
        """Route one item to its worker's summary."""
        worker = self.partitioner.route(item, now)
        self.summaries[worker].offer(item)
        self.worker_loads[worker] += 1
        return worker

    def process_stream(self, items: Iterable) -> None:
        for i, item in enumerate(items):
            self.process(item, float(i))

    def _holders(self, item) -> Tuple[int, ...]:
        """Workers whose summaries may track ``item``."""
        if self._broadcast:
            return tuple(range(self.num_workers))
        return tuple(set(self.partitioner.candidates(item)))

    def estimate(self, item) -> int:
        """Merged frequency estimate of ``item``."""
        return sum(self.summaries[w].estimate(item) for w in self._holders(item))

    def error_bound(self, item) -> int:
        """Maximum error of :meth:`estimate`.

        The sum of the contributing summaries' errors: one term for KG,
        two for PKG, W for SG (the bound of Section VI-C).
        """
        return sum(self.summaries[w].error(item) for w in self._holders(item))

    def summaries_probed(self, item) -> int:
        """How many summaries a query for ``item`` must consult."""
        return len(self._holders(item))

    def merged_summary(self) -> SpaceSaving:
        """Merge all worker summaries (what an aggregator would hold)."""
        merged = self.summaries[0]
        for s in self.summaries[1:]:
            merged = merged.merge(s)
        return merged

    def top_k(self, k: int) -> List[Tuple[object, int]]:
        """Global top-k candidates with merged estimates.

        Candidates are drawn from every summary, but each candidate's
        estimate only consults its *holder* summaries, so PKG pays two
        probes per candidate.
        """
        candidates = set()
        for s in self.summaries:
            candidates.update(item for item, _ in s.top_k(self.capacity))
        ranked = sorted(
            ((item, self.estimate(item)) for item in candidates),
            key=lambda kv: (-kv[1], repr(kv[0])),
        )
        return ranked[:k]

    def load_imbalance(self) -> float:
        """I = max - avg of per-worker item counts."""
        return imbalance(self.worker_loads)
