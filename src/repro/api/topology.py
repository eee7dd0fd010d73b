"""The simulated word-count cluster: its one description and its assembly.

:class:`Topology` describes the cluster of the paper's Q4 deployment
experiments -- spouts, a partitioning scheme, counter workers
(stragglers and heterogeneous pools included) and an optional
aggregator -- by chaining::

    topo = (Topology()
            .source("WP")
            .spouts(2)
            .partition_by("pkg:d=2")
            .workers(9, cpu_delay=0.4e-3)
            .straggler(3, factor=4.0)
            .aggregate(every=30.0)
            .timing(duration=20.0, warmup=4.0)
            .seed(7))
    result = topo.run()          # or: repro.api.run(topo)

Every setter validates its own arguments eagerly and raises
:class:`TopologyError`; cross-field constraints (straggler index vs
worker count, duration vs warmup, a pinned partitioner instance) are
checked once, at :meth:`Topology.build`, which assembles the
:mod:`repro.dspe` executors into a runnable :class:`WordCountCluster`.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Type,
    Union,
)

import numpy as np

from repro.api.registry import make_partitioner, parse_spec, resolve_scheme_name
from repro.core.engine import EventLoop
from repro.dspe.executors import AggregatorExecutor, SpoutExecutor, WorkerExecutor
from repro.dspe.metrics import LatencyStats, RunMetrics

if TYPE_CHECKING:
    from repro.api.facade import RunResult
    from repro.partitioning.base import Partitioner
    from repro.streams.distributions import KeyDistribution

#: what .partition_by()/.source() accept: spec/name, class, or instance.
_SchemeArg = Union[str, "Partitioner", Type["Partitioner"]]
_SourceArg = Union[str, "KeyDistribution"]

#: period of the live-counter (memory) sampler, in simulated seconds
_MEMORY_SAMPLE_PERIOD = 0.5

__all__ = ["Topology", "TopologyError", "WordCountCluster"]


class TopologyError(ValueError):
    """Invalid topology construction."""


class Topology:
    """Fluent builder for spout -> workers (-> aggregator) clusters.

    Defaults follow the paper's setup where known (1 spout, 9 counters,
    CPU delay swept 0.1-1 ms) and are otherwise calibrated so that the
    spout saturates around 1.5k keys/s at the lowest delay, as observed
    in Figure 5(a).  Times are in seconds.
    """

    def __init__(self) -> None:
        self._source: Optional[_SourceArg] = None
        # Each spout gets its own partitioner instance (sharing the hash
        # seed), so PKG runs with genuinely local per-source estimation,
        # as in the paper's simulations.
        self._num_spouts = 1
        self._scheme: _SchemeArg = "pkg"
        self._scheme_kwargs: Dict[str, Any] = {}
        self._partitioner: Optional["Partitioner"] = None  # instance injection
        self._num_workers = 9
        self._cpu_delay = 0.4e-3
        self._worker_delays: Optional[List[float]] = None
        # Failure injection: multiply this worker's CPU delay by the
        # factor (-1 / 1.0 = no straggler).
        self._straggler_worker = -1
        self._straggler_factor = 1.0
        # 0 = no aggregation stage, as in Figure 5(a).
        self._aggregation_period = 0.0
        # Worker-side cost per flushed counter entry (serialise + send
        # one partial-count tuple).  Flushes drain as an uninterruptible
        # burst, stalling the worker's queue and, through the pending
        # window, the spout -- which is what makes very short
        # aggregation periods eat into throughput, the trade-off of
        # Figure 5(b).  100 us puts the PKG-vs-KG crossover near a 30 s
        # aggregation period, where the paper reports it.
        self._flush_entry_cost = 100e-6
        self._duration = 20.0
        self._warmup = 4.0
        # Per-tuple cost of emitting at the spout; 0.07 ms puts the
        # spout's ceiling (~14.3k keys/s) just above the point where the
        # hottest KG worker saturates at cpu_delay = 0.4 ms, the
        # saturation point the paper reports for KG.
        self._emit_cost = 0.07e-3
        # One-way network hop latency.
        self._network_delay = 0.2e-3
        # Storm's topology.max.spout.pending equivalent; large enough
        # that the spout is throttled by worker backlogs, not by round
        # trips.
        self._max_pending = 64
        self._seed = 0

    # ---------------------------------------------------------- sources

    def source(self, distribution: _SourceArg) -> "Topology":
        """Key source: a ``KeyDistribution`` or a Table I dataset symbol."""
        if distribution is None:
            raise TopologyError("source distribution must not be None")
        self._source = distribution
        return self

    def spouts(self, count: int) -> "Topology":
        """Number of source PEIs (each with its own partitioner state)."""
        if count < 1:
            raise TopologyError(f"spouts must be >= 1, got {count}")
        self._num_spouts = int(count)
        return self

    # ----------------------------------------------------- partitioning

    def partition_by(self, scheme: _SchemeArg, **kwargs: Any) -> "Topology":
        """Partitioning scheme: spec string, name, class, or instance.

        Spec strings go through the registry (``"pkg:d=3"``); keyword
        arguments override spec parameters.  Passing a built
        :class:`~repro.partitioning.base.Partitioner` instance pins that
        exact object to the (single) spout.
        """
        from repro.partitioning.base import Partitioner

        if isinstance(scheme, Partitioner):
            if kwargs:
                raise TopologyError(
                    "cannot apply scheme kwargs to a partitioner instance"
                )
            self._partitioner = scheme
            self._scheme = scheme.name.lower()
            self._scheme_kwargs = {}
            return self
        if isinstance(scheme, str):
            resolve_scheme_name(scheme)  # fail fast on unknown names
        self._partitioner = None
        self._scheme = scheme
        self._scheme_kwargs = dict(kwargs)
        return self

    # ---------------------------------------------------------- workers

    def workers(
        self,
        count: Optional[int] = None,
        cpu_delay: Optional[float] = None,
        delays: Optional[Sequence[float]] = None,
    ) -> "Topology":
        """Worker pool: uniform ``cpu_delay`` or per-worker ``delays``.

        ``delays`` makes the pool heterogeneous (one CPU delay per
        worker); ``count`` may be omitted then and is inferred.
        """
        if delays is not None:
            delays = [float(d) for d in delays]
            if not delays:
                raise TopologyError("delays must not be empty")
            if any(d <= 0 for d in delays):
                raise TopologyError("every worker delay must be positive")
            if count is not None and count != len(delays):
                raise TopologyError(
                    f"count={count} disagrees with len(delays)={len(delays)}"
                )
            self._worker_delays = list(delays)
            self._num_workers = len(delays)
        elif count is not None:
            if count < 1:
                raise TopologyError(f"workers must be >= 1, got {count}")
            self._num_workers = int(count)
            self._worker_delays = None
        elif cpu_delay is None:
            raise TopologyError("workers() needs count, cpu_delay, or delays")
        if cpu_delay is not None:
            if cpu_delay <= 0:
                raise TopologyError(f"cpu_delay must be positive, got {cpu_delay}")
            self._cpu_delay = float(cpu_delay)
        return self

    def straggler(self, worker: int, factor: float) -> "Topology":
        """Slow one worker's CPU by ``factor`` (failure injection)."""
        if worker < 0:
            raise TopologyError(f"straggler worker must be >= 0, got {worker}")
        if factor <= 0:
            raise TopologyError(f"straggler factor must be positive, got {factor}")
        self._straggler_worker = int(worker)
        self._straggler_factor = float(factor)
        return self

    # ------------------------------------------------------ aggregation

    def aggregate(
        self, every: float, flush_entry_cost: Optional[float] = None
    ) -> "Topology":
        """Enable the aggregation stage, flushing every ``every`` seconds.

        ``every=0`` disables aggregation (the Figure 5(a) setup).
        """
        if every < 0:
            raise TopologyError(f"aggregation period must be >= 0, got {every}")
        self._aggregation_period = float(every)
        if flush_entry_cost is not None:
            if flush_entry_cost < 0:
                raise TopologyError("flush_entry_cost must be >= 0")
            self._flush_entry_cost = float(flush_entry_cost)
        return self

    # ----------------------------------------------------------- timing

    def timing(
        self, duration: Optional[float] = None, warmup: Optional[float] = None
    ) -> "Topology":
        """Simulated run length and measurement warmup, in seconds."""
        if duration is not None:
            if duration <= 0:
                raise TopologyError(f"duration must be positive, got {duration}")
            self._duration = float(duration)
        if warmup is not None:
            if warmup < 0:
                raise TopologyError(f"warmup must be >= 0, got {warmup}")
            self._warmup = float(warmup)
        return self

    def network(
        self,
        delay: Optional[float] = None,
        emit_cost: Optional[float] = None,
        max_pending: Optional[int] = None,
    ) -> "Topology":
        """Network hop latency, spout emit cost, and pending window."""
        if delay is not None:
            if delay < 0:
                raise TopologyError(f"network delay must be >= 0, got {delay}")
            self._network_delay = float(delay)
        if emit_cost is not None:
            if emit_cost < 0:
                raise TopologyError(f"emit_cost must be >= 0, got {emit_cost}")
            self._emit_cost = float(emit_cost)
        if max_pending is not None:
            if max_pending < 1:
                raise TopologyError(f"max_pending must be >= 1, got {max_pending}")
            self._max_pending = int(max_pending)
        return self

    def seed(self, seed: int) -> "Topology":
        """Seed for hashing, sampling, and latency reservoirs."""
        self._seed = int(seed)
        return self

    # ------------------------------------------------------------ build

    def _resolve_source(
        self, distribution: Optional[_SourceArg] = None
    ) -> "KeyDistribution":
        from repro.streams.datasets import get_dataset

        dist = distribution if distribution is not None else self._source
        if dist is None:
            raise TopologyError(
                "no key source: call .source(...) or pass a distribution"
            )
        if isinstance(dist, str):
            dist = get_dataset(dist).distribution()
        return dist

    def build(
        self, distribution: Optional[_SourceArg] = None
    ) -> "WordCountCluster":
        """Check the cross-field constraints; assemble the cluster."""
        if self._straggler_worker >= self._num_workers:
            raise TopologyError(
                f"straggler worker {self._straggler_worker} out of range "
                f"for {self._num_workers} workers"
            )
        if self._duration <= self._warmup:
            raise TopologyError(
                f"duration ({self._duration}s) must exceed warmup "
                f"({self._warmup}s)"
            )
        pinned = self._partitioner
        if pinned is not None:
            if self._num_spouts > 1:
                raise TopologyError(
                    "a pinned partitioner instance only supports one spout"
                )
            if pinned.num_workers != self._num_workers:
                raise TopologyError(
                    f"pinned partitioner routes to {pinned.num_workers} "
                    f"workers but the cluster has {self._num_workers}"
                )
        scheme, kwargs = self._scheme, dict(self._scheme_kwargs)
        num_workers, seed = self._num_workers, self._seed

        def partitioners(_spout_index: int) -> "Partitioner":
            if pinned is not None:
                return pinned
            return make_partitioner(scheme, num_workers, seed=seed, **kwargs)

        return WordCountCluster(self, self._resolve_source(distribution), partitioners)

    def run(self, distribution: Optional[_SourceArg] = None) -> "RunResult":
        """Build and run; returns the unified :class:`RunResult`."""
        from repro.api.facade import run as run_facade

        return run_facade(self, distribution=distribution)

    def __repr__(self) -> str:
        scheme = self._scheme if self._partitioner is None else self._partitioner
        return (
            f"Topology(spouts={self._num_spouts}, scheme={scheme!r}, "
            f"workers={self._num_workers}, "
            f"aggregate={self._aggregation_period}, seed={self._seed})"
        )


class WordCountCluster:
    """A runnable spout -> counters (-> aggregator) cluster.

    Built by :meth:`Topology.build` from the topology's settings, the
    key ``distribution`` and ``partitioners(spout_index)``, which gives
    each spout its partitioner.
    """

    def __init__(
        self,
        topology: Topology,
        distribution: "KeyDistribution",
        partitioners: Callable[[int], "Partitioner"],
    ) -> None:
        t = topology
        # Display name: the base scheme, spec parameters stripped.
        self.scheme = parse_spec(t._scheme)[0] if isinstance(t._scheme, str) else "custom"
        self.distribution = distribution
        self.cpu_delay = t._cpu_delay
        self.duration = t._duration
        self.warmup = t._warmup

        self.sim = EventLoop()
        self.latency = LatencyStats(seed=t._seed)
        self._key_buffer = np.array([], dtype=np.int64)
        self._key_pos = 0
        self._rng = np.random.default_rng(t._seed)

        flush_period = t._aggregation_period
        self.aggregator: Optional[AggregatorExecutor] = (
            AggregatorExecutor() if flush_period > 0 else None
        )
        delays = t._worker_delays or [t._cpu_delay] * t._num_workers
        self.workers = [
            WorkerExecutor(
                self.sim,
                cpu_delay=delay
                * (t._straggler_factor if i == t._straggler_worker else 1.0),
                network_delay=t._network_delay,
                latency=self.latency,
                warmup=t._warmup,
                aggregator=self.aggregator,
                flush_period=flush_period,
                flush_entry_cost=t._flush_entry_cost,
                flush_offset=flush_period * i / t._num_workers if flush_period else 0.0,
            )
            for i, delay in enumerate(delays)
        ]
        # Tuples carry their origin spout, so workers ack the right one.
        self.spouts = [
            SpoutExecutor(
                self.sim,
                key_source=self._next_key,
                partitioner=partitioners(s),
                workers=self.workers,
                emit_cost=t._emit_cost * t._num_spouts,
                network_delay=t._network_delay,
                max_pending=max(1, t._max_pending // t._num_spouts),
            )
            for s in range(t._num_spouts)
        ]

        # time-weighted memory sampling
        self._memory_samples = 0
        self._memory_sum = 0.0
        self._memory_peak = 0

    def _next_key(self) -> int:
        if self._key_pos >= self._key_buffer.size:
            self._key_buffer = self.distribution.sample(16384, self._rng)
            self._key_pos = 0
        key = int(self._key_buffer[self._key_pos])
        self._key_pos += 1
        return key

    def _sample_memory(self) -> None:
        live = sum(w.memory_counters() for w in self.workers)
        if self.sim.now >= self.warmup:
            self._memory_samples += 1
            self._memory_sum += live
        if live > self._memory_peak:
            self._memory_peak = live
        self.sim.schedule(_MEMORY_SAMPLE_PERIOD, self._sample_memory)

    def run(self) -> RunMetrics:
        """Run the cluster for the topology's simulated duration."""
        self.sim.schedule(_MEMORY_SAMPLE_PERIOD, self._sample_memory)
        for spout in self.spouts:
            spout.start()
        self.sim.run_until(self.duration)

        completed = sum(w.completed_after_warmup for w in self.workers)
        average_memory = (
            self._memory_sum / self._memory_samples if self._memory_samples else 0.0
        )
        return RunMetrics(
            scheme=self.scheme.upper(),
            cpu_delay=self.cpu_delay,
            duration=self.duration,
            warmup=self.warmup,
            emitted=sum(s.emitted for s in self.spouts),
            completed=completed,
            throughput=completed / (self.duration - self.warmup),
            latency=self.latency,
            average_memory_counters=average_memory,
            peak_memory_counters=self._memory_peak,
            aggregation_messages=(
                self.aggregator.received_entries if self.aggregator else 0
            ),
            worker_loads=[w.processed for w in self.workers],
        )
