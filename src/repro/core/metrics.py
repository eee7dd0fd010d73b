"""Load-balance metrics and their streaming checkpoint accumulation.

All definitions follow Section II of the paper: the load ``Li(t)`` is
the messages handled by worker i up to time t, and the imbalance is
``I(t) = max_i Li(t) - avg_i Li(t)`` (:func:`imbalance`, the one
definition every path uses).  The paper reports ``I(t)`` sampled at
evenly spaced checkpoints (Figures 2-4, Table II);
:class:`StreamingLoadSeries` accumulates that series one routed chunk
at a time, so the engine can route and discard windows while producing
positions and imbalance values that do not depend on the chunk size:
loads are integer bincounts, and the checkpoint grid is a pure function
of the total message count.

The routing-comparison statistics (:func:`jaccard_overlap`,
:func:`agreement_fraction`) and the memory-cost ones
(:func:`count_partial_states`, :func:`replication_factor`) take the
full per-message assignments of a replay run with ``keep_assignments``.
"""

from __future__ import annotations

from typing import Sequence, Tuple, Union

import numpy as np


def imbalance(loads: Union[Sequence[float], np.ndarray]) -> float:
    """``I = max(L) - avg(L)`` of a worker-load vector."""
    values = np.asarray(loads, dtype=np.float64)
    if values.size == 0:
        raise ValueError("imbalance of an empty load vector is undefined")
    return float(values.max() - values.mean())


def checkpoint_positions(num_messages: int, num_checkpoints: int = 100) -> np.ndarray:
    """The checkpoint grid: message counts where ``I(t)`` is sampled.

    ``num_checkpoints`` evenly spaced positions ending exactly at the
    stream end, deduplicated for short streams.
    """
    m = int(num_messages)
    if m == 0:
        return np.array([], dtype=np.int64)
    num_checkpoints = max(1, min(int(num_checkpoints), m))
    positions = (
        np.linspace(m / num_checkpoints, m, num_checkpoints).round().astype(np.int64)
    )
    return np.unique(positions)


class StreamingLoadSeries:
    """Accumulate worker loads and checkpoint imbalances chunk by chunk.

    Parameters
    ----------
    num_messages:
        Total stream length (fixes the checkpoint grid up front).
    num_workers:
        Worker count W; workers never hit still count toward the mean.
    num_checkpoints:
        Number of ``I(t)`` samples; the last lands on the stream end.

    Feed every routed chunk, in arrival order, to :meth:`update`; then
    :meth:`finish` returns ``(positions, imbalances)``, independent of
    how the stream was cut into chunks.
    """

    def __init__(
        self, num_messages: int, num_workers: int, num_checkpoints: int = 100
    ) -> None:
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        self.num_messages = int(num_messages)
        self.num_workers = int(num_workers)
        self.positions = checkpoint_positions(num_messages, num_checkpoints)
        self.loads = np.zeros(num_workers, dtype=np.int64)
        self.imbalances = np.empty(self.positions.size, dtype=np.float64)
        self._consumed = 0
        self._next_checkpoint = 0

    def update(self, workers_chunk: np.ndarray) -> None:
        """Absorb the next chunk of per-message worker assignments."""
        chunk = np.asarray(workers_chunk, dtype=np.int64)
        start = self._consumed
        stop = start + chunk.size
        if stop > self.num_messages:
            raise ValueError(
                f"received {stop} assignments for a {self.num_messages}-message stream"
            )
        # Split the chunk at every checkpoint boundary it crosses so each
        # checkpoint sees exactly the loads of its prefix.
        prev = start
        while (
            self._next_checkpoint < self.positions.size
            and self.positions[self._next_checkpoint] <= stop
        ):
            pos = int(self.positions[self._next_checkpoint])
            self.loads += np.bincount(
                chunk[prev - start : pos - start], minlength=self.num_workers
            )
            self.imbalances[self._next_checkpoint] = imbalance(self.loads)
            prev = pos
            self._next_checkpoint += 1
        if prev < stop:
            self.loads += np.bincount(
                chunk[prev - start :], minlength=self.num_workers
            )
        self._consumed = stop

    @property
    def consumed(self) -> int:
        """Messages absorbed so far."""
        return self._consumed

    def imbalance(self) -> float:
        """Current ``I(t) = max(L) - avg(L)`` over the absorbed prefix."""
        return imbalance(self.loads)

    def finish(self) -> Tuple[np.ndarray, np.ndarray]:
        """The ``(positions, imbalances)`` series; requires a full stream."""
        if self._consumed != self.num_messages:
            raise ValueError(
                f"stream incomplete: consumed {self._consumed} of "
                f"{self.num_messages} messages"
            )
        return self.positions, self.imbalances


def jaccard_overlap(workers_a: np.ndarray, workers_b: np.ndarray) -> float:
    """Jaccard overlap of two routings of the same stream.

    Treats each routing as the set of (message, destination) pairs; the
    intersection is the messages sent to the same worker by both.  This
    is the statistic behind the paper's Q2 observation that G and L
    agree on only ~47% of destinations yet balance equally well.
    """
    workers_a = np.asarray(workers_a)
    workers_b = np.asarray(workers_b)
    if workers_a.shape != workers_b.shape:
        raise ValueError("routings must cover the same messages")
    m = workers_a.size
    if m == 0:
        return 1.0
    equal = int((workers_a == workers_b).sum())
    return equal / (2 * m - equal)


def agreement_fraction(workers_a: np.ndarray, workers_b: np.ndarray) -> float:
    """Fraction of messages routed identically by two schemes."""
    workers_a = np.asarray(workers_a)
    workers_b = np.asarray(workers_b)
    if workers_a.shape != workers_b.shape:
        raise ValueError("routings must cover the same messages")
    if workers_a.size == 0:
        return 1.0
    return float((workers_a == workers_b).mean())


def count_partial_states(keys: np.ndarray, workers: np.ndarray) -> int:
    """Number of distinct (worker, key) partial states created.

    This is the memory cost of a stateful operator under a given
    partitioning (Section III-A): key grouping creates exactly K
    partials, PKG at most 2K, shuffle grouping up to W*K.
    """
    keys = np.asarray(keys)
    workers = np.asarray(workers, dtype=np.int64)
    if keys.shape != workers.shape:
        raise ValueError("keys and workers must align")
    if keys.size == 0:
        return 0
    if np.issubdtype(keys.dtype, np.integer):
        combined = workers.astype(np.int64) * (np.int64(keys.max()) + 1) + keys
        return int(np.unique(combined).size)
    return len(set(zip(workers.tolist(), keys.tolist())))


def replication_factor(keys: np.ndarray, workers: np.ndarray) -> float:
    """Average number of workers holding state for each distinct key."""
    keys = np.asarray(keys)
    num_keys = (
        int(np.unique(keys).size)
        if keys.size
        else 0
    )
    if num_keys == 0:
        return 0.0
    return count_partial_states(keys, workers) / num_keys
