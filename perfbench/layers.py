"""Isolated per-layer timings (traced runs only).

Each function times calls into one public layer from the outside, on
the workload's own stream, chunk grid and flush size, and returns plain
numbers.  None of them runs in a gated (untraced) run: they exist to
explain where the end-to-end time goes, not to be gated themselves.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.core.chunks import counting_scatter, factorize, iter_keyed_chunks
from repro.core.engine import EventLoop, replay_stream
from repro.core.metrics import StreamingLoadSeries
from repro.hashing.families import HashFamily
from repro.partitioning.base import Partitioner
from repro.queueing.latency import LatencyStore
from repro.runtime.ring import SpscRing
from repro.runtime.worker import WorkerLoop

#: repeats per isolated timing; the median is reported.
REPEATS = 3


def _median_of(repeats: int, once: Callable[[], float]) -> float:
    return statistics.median(once() for _ in range(repeats))


def route_stage(
    keys: np.ndarray, make: Callable[[], Partitioner], chunk_size: int
) -> Tuple[Dict[str, float], List[np.ndarray]]:
    """The three calls of the runtime's "route" stage, timed apart.

    One pass over the stream on the runtime's chunk grid with a fresh
    partitioner, timing ``route_chunk``, ``remap_masked`` and
    ``StreamingLoadSeries.update`` separately; the median of
    :data:`REPEATS` passes is reported per call.  Also returns the
    routed chunks, for the scatter timing.
    """
    runs: List[Tuple[float, float, float]] = []
    routed: List[np.ndarray] = []
    for _ in range(REPEATS):
        partitioner = make()
        series = StreamingLoadSeries(keys.size, partitioner.num_workers)
        route = remap = update = 0.0
        routed = []
        for _start, _stop, chunk, times in iter_keyed_chunks(keys, chunk_size):
            t0 = time.perf_counter()
            assignments = partitioner.route_chunk(chunk, times)
            t1 = time.perf_counter()
            assignments = partitioner.remap_masked(assignments)
            t2 = time.perf_counter()
            series.update(assignments)
            t3 = time.perf_counter()
            route += t1 - t0
            remap += t2 - t1
            update += t3 - t2
            routed.append(assignments)
        runs.append((route, remap, update))
    return (
        {
            "route_s": statistics.median(r[0] for r in runs),
            "remap_s": statistics.median(r[1] for r in runs),
            "series_update_s": statistics.median(r[2] for r in runs),
        },
        routed,
    )


def factorize_rate(keys: np.ndarray, chunk_size: int) -> float:
    """Messages per second through ``factorize`` on the chunk grid."""

    def once() -> float:
        t0 = time.perf_counter()
        for _start, _stop, chunk, _times in iter_keyed_chunks(keys, chunk_size):
            factorize(chunk)
        return time.perf_counter() - t0

    return keys.size / _median_of(REPEATS, once)


def scatter_rate(routed: List[np.ndarray], num_workers: int) -> float:
    """Messages per second through ``counting_scatter`` on routed chunks."""
    total = sum(int(chunk.size) for chunk in routed)

    def once() -> float:
        base = 0
        t0 = time.perf_counter()
        for chunk in routed:
            counting_scatter(chunk, num_workers, base=base)
            base += chunk.size
        return time.perf_counter() - t0

    return total / _median_of(REPEATS, once)


def ring_rate(messages: int, flush_size: int, capacity: int, max_batch: int) -> float:
    """Messages per second pushed and popped through one local ring.

    Pushes ``flush_size`` batches and pops ``max_batch`` batches, as the
    runtime's source and worker do, without a second process.
    """
    ring = SpscRing.create_local(capacity)
    ids = np.arange(flush_size, dtype=np.int64)
    stamps = np.zeros(flush_size, dtype=np.float64)
    batches = max(1, messages // flush_size)

    def once() -> float:
        t0 = time.perf_counter()
        for _ in range(batches):
            pushed = 0
            while pushed < flush_size:
                pushed += ring.try_push(ids[pushed:], stamps[pushed:])
                while ring.size:
                    ring.try_pop(max_batch)
        return time.perf_counter() - t0

    return batches * flush_size / _median_of(REPEATS, once)


def worker_step_rate(
    messages: int, flush_size: int, capacity: int, max_batch: int
) -> float:
    """Messages per second through ``WorkerLoop.step`` (no service cost).

    The benchmark is the producer: it pushes one flush, then steps the
    worker until the ring is empty, so each step pays its real pop,
    heartbeat, ``record_many`` and checkpoint work.
    """
    batches = max(1, messages // flush_size)
    ids = np.arange(flush_size, dtype=np.int64)

    def once() -> float:
        ring = SpscRing.create_local(capacity)
        loop = WorkerLoop(
            0,
            ring,
            np.zeros(1, dtype=np.int64),
            beats=np.zeros(1, dtype=np.int64),
            max_batch=max_batch,
        )
        elapsed = 0.0
        for _ in range(batches):
            pushed = 0
            stamps = np.full(flush_size, time.perf_counter())
            while pushed < flush_size:
                pushed += ring.try_push(ids[pushed:], stamps[pushed:])
                t0 = time.perf_counter()
                while loop.step():
                    pass
                elapsed += time.perf_counter() - t0
        if loop.count != batches * flush_size:
            raise AssertionError(
                f"worker counted {loop.count} of {batches * flush_size} pushed"
            )
        return elapsed

    return batches * flush_size / _median_of(REPEATS, once)


def record_many_rate(messages: int, flush_size: int, seed: int) -> float:
    """Samples per second through ``LatencyStore.record_many`` per flush."""
    rng = np.random.default_rng(seed)
    lanes = [rng.exponential(3e-4, flush_size) for _ in range(8)]
    batches = max(1, messages // flush_size)

    def once() -> float:
        store = LatencyStore()
        t0 = time.perf_counter()
        for i in range(batches):
            store.record_many(lanes[i % len(lanes)])
        return time.perf_counter() - t0

    return batches * flush_size / _median_of(REPEATS, once)


def eventloop_rate(events: int, timers: int, period: float) -> float:
    """Events per second through ``EventLoop``: ``timers`` periodic chains."""

    def once() -> float:
        loop = EventLoop()
        per_timer = events // timers

        def chain(remaining: List[int]) -> Callable[[], None]:
            def fire() -> None:
                remaining[0] -= 1
                if remaining[0] > 0:
                    loop.schedule(period, fire)

            return fire

        for t in range(timers):
            loop.schedule(period * t / timers, chain([per_timer]))
        t0 = time.perf_counter()
        processed = loop.run()
        elapsed = time.perf_counter() - t0
        if processed != per_timer * timers:
            raise AssertionError(f"event loop ran {processed} events")
        return elapsed

    return (events // timers) * timers / _median_of(REPEATS, once)


def choices_rate(keys: np.ndarray, num_workers: int, seed: int) -> float:
    """Per-tuple ``HashFamily.choices`` calls per second (the DES path)."""
    family = HashFamily(2, seed=seed)
    key_list = keys.tolist()

    def once() -> float:
        t0 = time.perf_counter()
        for key in key_list:
            family.choices(key, num_workers)
        return time.perf_counter() - t0

    return len(key_list) / _median_of(REPEATS, once)


def replay_rate(keys: np.ndarray, make: Callable[[], Partitioner]) -> float:
    """Messages per second of single-process ``replay_stream``."""

    def once() -> float:
        partitioner = make()
        t0 = time.perf_counter()
        replay_stream(keys, partitioner)
        return time.perf_counter() - t0

    return keys.size / _median_of(REPEATS, once)
