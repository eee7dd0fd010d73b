"""Streaming top-k word count (Sections II-A and V, Q4).

The topology: sources emit words; W counter PEIs accumulate per-word
(partial) counts under some partitioning scheme; every aggregation
period T the counters flush their partials to a single aggregator that
holds the authoritative totals and answers top-k queries.

The scheme determines the costs (Section III-A's example):

* **KG** -- each word counted on exactly one worker: memory O(K), one
  flush entry per word, but load imbalance under skew;
* **SG** -- every worker may count every word: memory O(W*K) and W
  partials to aggregate per word;
* **PKG** -- each word on at most two workers: memory <= 2K and at
  most two partials per word.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.metrics import imbalance
from repro.partitioning.base import Partitioner


def exact_top_k(words: Iterable, k: int) -> List[Tuple[object, int]]:
    """Reference exact top-k by full counting (for tests/validation)."""
    counts: Dict = {}
    for w in words:
        counts[w] = counts.get(w, 0) + 1
    return sorted(counts.items(), key=lambda kv: (-kv[1], repr(kv[0])))[:k]


@dataclass
class WordCountStats:
    """Cost accounting for one run."""

    messages: int = 0
    #: flush messages sent to the aggregator (the aggregation overhead)
    aggregation_messages: int = 0
    #: peak number of live partial counters across all workers
    peak_worker_counters: int = 0
    #: total partial-counter slots summed over flush epochs (for averages)
    counter_slot_sum: int = 0
    flushes: int = 0
    worker_loads: List[int] = field(default_factory=list)

    @property
    def average_worker_counters(self) -> float:
        if self.flushes == 0:
            return float(self.peak_worker_counters)
        return self.counter_slot_sum / self.flushes


class DistributedWordCount:
    """Word count over W workers under a pluggable partitioner.

    Parameters
    ----------
    partitioner:
        Routing scheme for the word stream (KG / SG / PKG instance).
    aggregation_period:
        Flush partial counts to the aggregator every this many
        messages; 0 disables periodic flushing (a single final flush
        happens at :meth:`top_k` time).
    """

    def __init__(self, partitioner: Partitioner, aggregation_period: int = 0):
        if aggregation_period < 0:
            raise ValueError("aggregation_period must be >= 0")
        self.partitioner = partitioner
        self.num_workers = partitioner.num_workers
        self.aggregation_period = int(aggregation_period)
        self.worker_counts: List[Dict] = [dict() for _ in range(self.num_workers)]
        self.aggregator: Dict = {}
        self.stats = WordCountStats(worker_loads=[0] * self.num_workers)
        self._since_flush = 0
        self._live_counters = 0

    def process(self, word, now: float = 0.0) -> int:
        """Route and count one word; returns the worker used."""
        worker = self.partitioner.route(word, now)
        counts = self.worker_counts[worker]
        if word in counts:
            counts[word] += 1
        else:
            counts[word] = 1
            self._live_counters += 1
            if self._live_counters > self.stats.peak_worker_counters:
                self.stats.peak_worker_counters = self._live_counters
        self.stats.messages += 1
        self.stats.worker_loads[worker] += 1
        self._since_flush += 1
        if self.aggregation_period and self._since_flush >= self.aggregation_period:
            self.flush()
        return worker

    def process_stream(self, words: Iterable) -> None:
        for i, w in enumerate(words):
            self.process(w, float(i))

    def flush(self) -> int:
        """Send all partial counters to the aggregator; returns #messages.

        Matches the paper's periodic aggregation: partials are merged
        into the aggregator's totals and the worker-side counters are
        cleared (shorter periods => less worker memory, more messages).
        """
        sent = 0
        live = 0
        for counts in self.worker_counts:
            live += len(counts)
            for word, partial in counts.items():
                self.aggregator[word] = self.aggregator.get(word, 0) + partial
                sent += 1
            counts.clear()
        self.stats.aggregation_messages += sent
        self.stats.counter_slot_sum += live
        self.stats.flushes += 1
        self._since_flush = 0
        self._live_counters = 0
        return sent

    def top_k(self, k: int) -> List[Tuple[object, int]]:
        """Authoritative top-k after a final flush.

        Exact for every scheme: partial counts always sum to the true
        totals; what differs between schemes is *cost*, not accuracy.
        """
        self.flush()
        return sorted(
            self.aggregator.items(), key=lambda kv: (-kv[1], repr(kv[0]))
        )[:k]

    def load_imbalance(self) -> float:
        """Worker load imbalance I = max - avg accumulated so far."""
        return imbalance(self.stats.worker_loads)

    def replication_of(self, word) -> int:
        """Workers currently holding a live partial for ``word``."""
        return sum(1 for counts in self.worker_counts if word in counts)
