"""Executors: spout, counter workers, and aggregator.

The mechanics mirror a Storm word-count topology with acking:

* the spout emits one tuple at a time (per-tuple emit cost) and keeps
  at most ``max_pending`` tuples un-acked -- when a hot worker's queue
  grows, acks slow down and the spout throttles, which is how load
  imbalance becomes a *throughput* loss;
* workers serve their FIFO queue at one tuple per ``cpu_delay``
  seconds, count keys, ack each tuple, and periodically flush partial
  counters to the aggregator (each flushed entry costs worker time --
  the aggregation overhead of Figure 5(b));
* the aggregator merges flushed partials into authoritative totals.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, Optional

from repro.core.engine import EventLoop
from repro.dspe.metrics import LatencyStats
from repro.partitioning.base import Partitioner


class Tuple_:
    """A tuple in flight: key, emit timestamp, and the emitting spout.

    ``origin`` is the spout the worker acks, which keeps acks right in
    multi-source topologies; ``None`` means no ack.
    """

    __slots__ = ("key", "emitted_at", "origin")

    def __init__(self, key, emitted_at: float, origin=None):
        self.key = key
        self.emitted_at = emitted_at
        self.origin = origin


class SpoutExecutor:
    """Single source PEI with max-pending throttling."""

    def __init__(
        self,
        sim: EventLoop,
        key_source: Callable[[], object],
        partitioner: Partitioner,
        workers: List["WorkerExecutor"],
        emit_cost: float,
        network_delay: float,
        max_pending: int,
    ):
        if emit_cost <= 0:
            raise ValueError(f"emit_cost must be positive, got {emit_cost}")
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        self.sim = sim
        self.key_source = key_source
        self.partitioner = partitioner
        self.workers = workers
        self.emit_cost = float(emit_cost)
        self.network_delay = float(network_delay)
        self.max_pending = int(max_pending)
        self.in_flight = 0
        self.emitted = 0
        self._busy = False

    def start(self) -> None:
        self._try_emit()

    def _try_emit(self) -> None:
        if self._busy or self.in_flight >= self.max_pending:
            return
        self._busy = True
        self.sim.schedule(self.emit_cost, self._finish_emit)

    def _finish_emit(self) -> None:
        self._busy = False
        key = self.key_source()
        tup = Tuple_(key, self.sim.now, origin=self)
        worker = self.workers[self.partitioner.route(key, self.sim.now)]
        self.in_flight += 1
        self.emitted += 1
        self.sim.schedule(self.network_delay, lambda: worker.enqueue(tup))
        self._try_emit()

    def on_ack(self) -> None:
        self.in_flight -= 1
        self._try_emit()


class WorkerExecutor:
    """A counter PEI: FIFO queue, per-key CPU delay, periodic flush."""

    def __init__(
        self,
        sim: EventLoop,
        cpu_delay: float,
        network_delay: float,
        latency: LatencyStats,
        warmup: float,
        aggregator: Optional["AggregatorExecutor"] = None,
        flush_period: float = 0.0,
        flush_entry_cost: float = 0.0,
        flush_offset: float = 0.0,
    ):
        if cpu_delay <= 0:
            raise ValueError(f"cpu_delay must be positive, got {cpu_delay}")
        self.sim = sim
        self.cpu_delay = float(cpu_delay)
        self.network_delay = float(network_delay)
        self.latency = latency
        self.warmup = float(warmup)
        self.aggregator = aggregator
        self.flush_period = float(flush_period)
        self.flush_entry_cost = float(flush_entry_cost)

        self.queue: deque = deque()
        self.counts: Dict = {}
        self.processed = 0
        self.completed_after_warmup = 0
        self.flushed_entries = 0
        self._busy = False
        self._flush_requested = False
        if self.flush_period > 0:
            # Workers flush on their own staggered clocks, as executors
            # in a real DSPE would.
            self.sim.schedule(self.flush_period + flush_offset, self._flush_timer)

    # -- queueing ------------------------------------------------------

    def enqueue(self, tup: Tuple_) -> None:
        self.queue.append(tup)
        if not self._busy:
            self._start_next()

    def _start_next(self) -> None:
        if self._flush_requested:
            self._begin_flush()
            return
        if not self.queue:
            self._busy = False
            return
        self._busy = True
        tup = self.queue.popleft()
        self.sim.schedule(self.cpu_delay, lambda: self._complete(tup))

    def _complete(self, tup: Tuple_) -> None:
        key = tup.key
        self.counts[key] = self.counts.get(key, 0) + 1
        self.processed += 1
        if self.sim.now >= self.warmup:
            self.completed_after_warmup += 1
            self.latency.record(self.sim.now - tup.emitted_at)
        if tup.origin is not None:
            self.sim.schedule(self.network_delay, tup.origin.on_ack)
        self._start_next()

    # -- flushing ------------------------------------------------------

    def _flush_timer(self) -> None:
        self._flush_requested = True
        if not self._busy:
            self._begin_flush()
        self.sim.schedule(self.flush_period, self._flush_timer)

    def _begin_flush(self) -> None:
        self._flush_requested = False
        entries = len(self.counts)
        if entries == 0 or self.aggregator is None:
            self._busy = False
            if self.queue:
                self._start_next()
            return
        self._busy = True
        cost = entries * self.flush_entry_cost
        partials = dict(self.counts)
        self.counts.clear()
        self.flushed_entries += entries

        def ship() -> None:
            self.sim.schedule(
                self.network_delay, lambda: self.aggregator.receive(partials)
            )
            self._start_next()

        self.sim.schedule(cost, ship)

    def memory_counters(self) -> int:
        """Live partial counters held right now."""
        return len(self.counts)


class AggregatorExecutor:
    """Downstream aggregator PEI merging flushed partial counts."""

    def __init__(self) -> None:
        self.totals: Dict = {}
        self.received_entries = 0

    def receive(self, partials: Dict) -> None:
        """Absorb one flushed batch.

        Merging costs no simulated time: the aggregator is never the
        bottleneck in Figure 5.
        """
        self.received_entries += len(partials)
        for key, count in partials.items():
            self.totals[key] = self.totals.get(key, 0) + count

    def top_k(self, k: int):
        return sorted(self.totals.items(), key=lambda kv: (-kv[1], repr(kv[0])))[:k]
