"""The unified chunked execution engine (and the discrete-event loop).

One replay implementation for every path in the repo, and the only API
of the frequency-only simulations (the paper's Section V, Q1-Q3):

* :func:`replay_stream` -- single partitioner, one pass;
* :func:`replay_per_source` -- S independent per-source partitioner
  instances merged back into arrival order;
* :func:`replay_interleaved` -- S sources running Greedy-d under the
  paper's local/global/probing load-estimation modes, interleaved in
  arrival order;
* :class:`EventLoop` -- the deterministic event heap the DSPE
  executors (:mod:`repro.dspe`) schedule on, with no adapter between.

All stream replays drive fixed-size key chunks through
``Partitioner.route_chunk`` (or :class:`InterleavedRouter`) and feed a
:class:`~repro.core.metrics.StreamingLoadSeries`, so metrics
bookkeeping exists exactly once; each returns a :class:`ReplayResult`.
The sequential inner loops (Greedy-d argmin, first-sight binding,
interleaved multi-source routing) dispatch to the C kernels of
:mod:`repro._native` when a compiler is available and to the
pure-Python implementations below otherwise; both are
decision-identical.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro._native import get_kernels
from repro.core.chunks import (
    DEFAULT_CHUNK_SIZE,
    KeyStream,
    StreamLike,
    as_key_array,
    hashed_buckets,
    hashed_choices,
    iter_chunks,
    iter_keyed_chunks,
    stream_length,
)
from repro.core.metrics import StreamingLoadSeries, imbalance
from repro.hashing import HashFamily, HashFunction

if TYPE_CHECKING:
    from repro.partitioning.base import Partitioner

__all__ = [
    "EventLoop",
    "ReplayResult",
    "assign_sources",
    "replay_stream",
    "replay_per_source",
    "replay_interleaved",
    "route_chunked",
    "greedy_route_chunk",
    "least_loaded_chunk",
    "bind_route_chunk",
    "InterleavedRouter",
]


# ---------------------------------------------------------------------------
# Chunk kernels: native dispatch + pure-Python fallbacks
# ---------------------------------------------------------------------------

def greedy_route_chunk(choices: np.ndarray, loads: np.ndarray) -> np.ndarray:
    """Route one chunk with the Greedy-d process, updating ``loads``.

    ``choices`` is the chunk's ``(m, d)`` candidate matrix; each message
    goes to its least-loaded candidate (ties to the earliest), and the
    chosen worker's entry in ``loads`` (int64, mutated in place) is
    incremented before the next message decides.
    """
    choices = np.ascontiguousarray(choices, dtype=np.int64)
    m, d = choices.shape
    out = np.empty(m, dtype=np.int64)
    kernels = get_kernels()
    if kernels is not None:
        kernels.greedy_route(choices, loads, out)
        return out
    view = loads.tolist()
    if d == 2:
        col1, col2 = choices[:, 0].tolist(), choices[:, 1].tolist()
        for i in range(m):
            a, b = col1[i], col2[i]
            w = a if view[a] <= view[b] else b
            view[w] += 1
            out[i] = w
    else:
        cols = [choices[:, j].tolist() for j in range(d)]
        for i in range(m):
            best = cols[0][i]
            best_load = view[best]
            for j in range(1, d):
                c = cols[j][i]
                if view[c] < best_load:
                    best, best_load = c, view[c]
            view[best] += 1
            out[i] = best
    loads[:] = view
    return out


def least_loaded_chunk(m: int, loads: np.ndarray) -> np.ndarray:
    """Route ``m`` messages to the globally least-loaded worker each."""
    out = np.empty(int(m), dtype=np.int64)
    kernels = get_kernels()
    if kernels is not None:
        kernels.least_loaded(int(m), loads, out)
        return out
    view = loads.tolist()
    num_workers = len(view)
    for i in range(int(m)):
        best = 0
        best_load = view[0]
        for w in range(1, num_workers):
            if view[w] < best_load:
                best, best_load = w, view[w]
        view[best] += 1
        out[i] = best
    loads[:] = view
    return out


def bind_route_chunk(
    codes: np.ndarray,
    choices: Optional[np.ndarray],
    num_workers: int,
    table: np.ndarray,
    loads: np.ndarray,
) -> np.ndarray:
    """First-sight binding over one chunk (PoTC / On-Greedy inner loop).

    ``codes`` are dense int64 key ids indexing ``table`` (entry < 0 =
    unbound).  A bound key keeps its worker; an unbound one binds to the
    least-loaded of its row in ``choices`` (or of all ``num_workers``
    when ``choices`` is None).  ``loads`` is charged per message.
    ``table`` and ``loads`` are mutated in place.
    """
    codes = np.ascontiguousarray(codes, dtype=np.int64)
    m = codes.size
    out = np.empty(m, dtype=np.int64)
    if choices is not None:
        choices = np.ascontiguousarray(choices, dtype=np.int64)
    kernels = get_kernels()
    if kernels is not None:
        kernels.bind_route(codes, choices, int(num_workers), table, loads, out)
        return out
    load_list = loads.tolist()
    table_list = table.tolist()
    code_list = codes.tolist()
    cols = (
        [choices[:, j].tolist() for j in range(choices.shape[1])]
        if choices is not None
        else None
    )
    for i in range(m):
        code = code_list[i]
        worker = table_list[code]
        if worker < 0:
            if cols is not None:
                worker = cols[0][i]
                best_load = load_list[worker]
                for col in cols[1:]:
                    c = col[i]
                    if load_list[c] < best_load:
                        worker, best_load = c, load_list[c]
            else:
                worker = 0
                best_load = load_list[0]
                for w in range(1, int(num_workers)):
                    if load_list[w] < best_load:
                        worker, best_load = w, load_list[w]
            table_list[code] = worker
        load_list[worker] += 1
        out[i] = worker
    loads[:] = load_list
    table[:] = table_list
    return out


class InterleavedRouter:
    """Chunk-resumable multi-source Greedy-d routing with shared modes.

    Holds the cross-chunk state of the paper's estimation modes: the
    true load vector, each source's private view (local/probing), and
    each source's probe clock (probing).  :meth:`route` consumes one
    chunk of precomputed candidates and returns its assignments.
    """

    MODES = ("local", "global", "probing")

    def __init__(
        self,
        num_sources: int,
        num_workers: int,
        mode: str = "local",
        probe_period: float = 0.0,
    ) -> None:
        if mode not in self.MODES:
            raise ValueError(f"mode must be one of {self.MODES}, got {mode!r}")
        if mode == "probing" and probe_period <= 0:
            raise ValueError("probing mode requires a positive probe_period")
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        self.mode = mode
        self.num_sources = int(num_sources)
        self.num_workers = int(num_workers)
        self.probe_period = float(probe_period)
        self.true_loads = np.zeros(num_workers, dtype=np.int64)
        self.views: Optional[np.ndarray] = (
            None
            if mode == "global"
            else np.zeros((num_sources, num_workers), dtype=np.int64)
        )
        self.next_probe: Optional[np.ndarray] = (
            np.full(num_sources, probe_period, dtype=np.float64)
            if mode == "probing"
            else None
        )

    def route(
        self,
        choices: np.ndarray,
        sources: np.ndarray,
        times: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Route one chunk; ``times`` is required in probing mode."""
        choices = np.ascontiguousarray(choices, dtype=np.int64)
        sources = np.ascontiguousarray(sources, dtype=np.int64)
        m, d = choices.shape
        # Out-of-range ids would index outside the views matrix or the
        # load vector -- in the C kernel that is an out-of-bounds write,
        # so reject before dispatch rather than corrupt memory.
        _check_source_range(sources, self.num_sources)
        if choices.size and (
            int(choices.min()) < 0 or int(choices.max()) >= self.num_workers
        ):
            raise ValueError(
                f"candidate ids must lie in [0, {self.num_workers}), got "
                f"[{int(choices.min())}, {int(choices.max())}]"
            )
        if self.mode == "probing":
            if times is None:
                raise ValueError("probing mode needs per-message times")
            times = np.ascontiguousarray(times, dtype=np.float64)
        else:
            times = None
        out = np.empty(m, dtype=np.int64)
        kernels = get_kernels()
        if kernels is not None:
            kernels.interleaved_route(
                choices,
                sources,
                self.num_workers,
                self.views,
                self.true_loads,
                times,
                self.probe_period,
                self.next_probe,
                out,
            )
            return out
        self._route_python(choices, sources, times, out)
        return out

    def _route_python(
        self,
        choices: np.ndarray,
        sources: np.ndarray,
        times: Optional[np.ndarray],
        out: np.ndarray,
    ) -> None:
        m, d = choices.shape
        true_loads = self.true_loads.tolist()
        if self.views is None:
            view_rows = None
        else:
            view_rows = [row.tolist() for row in self.views]
        probe_clock = (
            self.next_probe.tolist() if self.next_probe is not None else None
        )
        time_list = times.tolist() if times is not None else None
        if time_list is not None:
            # probing mode: route() guarantees both exist alongside times.
            assert probe_clock is not None and view_rows is not None
        src = sources.tolist()
        cols = [choices[:, j].tolist() for j in range(d)]
        for i in range(m):
            s = src[i]
            view = view_rows[s] if view_rows is not None else true_loads
            if time_list is not None and time_list[i] >= probe_clock[s]:
                view = view_rows[s] = true_loads.copy()
                while probe_clock[s] <= time_list[i]:
                    probe_clock[s] += self.probe_period
            best = cols[0][i]
            best_load = view[best]
            for j in range(1, d):
                c = cols[j][i]
                if view[c] < best_load:
                    best, best_load = c, view[c]
            view[best] += 1
            if view is not true_loads:
                true_loads[best] += 1
            out[i] = best
        self.true_loads[:] = true_loads
        if view_rows is not None:
            assert self.views is not None
            for s, row in enumerate(view_rows):
                self.views[s] = row
        if probe_clock is not None:
            assert self.next_probe is not None
            self.next_probe[:] = probe_clock


# ---------------------------------------------------------------------------
# Replay: the one engine behind every stream path
# ---------------------------------------------------------------------------

@dataclass
class ReplayResult:
    """Outcome of one chunked replay, scheme-agnostic.

    Besides the raw loads and checkpoint series it derives the paper's
    statistics: the final and checkpoint-averaged imbalance (Table II)
    and their normalised "fraction of imbalance" (Figures 2-4).
    """

    num_workers: int
    num_messages: int
    final_loads: np.ndarray
    checkpoint_positions: np.ndarray
    imbalance_series: np.ndarray
    #: per-message worker assignment (kept only on request; large)
    assignments: Optional[np.ndarray] = None

    @property
    def final_imbalance(self) -> float:
        """``I(m)`` at the end of the stream."""
        return imbalance(self.final_loads)

    @property
    def average_imbalance(self) -> float:
        """Mean I(t) over checkpoints -- the Table II statistic."""
        if self.imbalance_series.size == 0:
            return 0.0
        return float(self.imbalance_series.mean())

    @property
    def average_imbalance_fraction(self) -> float:
        """Average imbalance / total messages -- the Figure 2 y-axis."""
        if self.num_messages == 0:
            return 0.0
        return self.average_imbalance / self.num_messages

    @property
    def final_imbalance_fraction(self) -> float:
        if self.num_messages == 0:
            return 0.0
        return self.final_imbalance / self.num_messages

    @property
    def imbalance_fraction_series(self) -> np.ndarray:
        """I(t) normalised by messages-so-far (the Figure 3 y-axis)."""
        positions = np.maximum(self.checkpoint_positions, 1)
        return self.imbalance_series / positions


def _check_source_range(source_ids: np.ndarray, num_sources: int) -> None:
    if source_ids.size and (
        int(source_ids.min()) < 0 or int(source_ids.max()) >= num_sources
    ):
        raise ValueError(
            f"source ids must lie in [0, {num_sources}), got "
            f"[{int(source_ids.min())}, {int(source_ids.max())}]"
        )


def assign_sources(
    num_messages: int,
    num_sources: int,
    source_keys: Optional[KeyStream] = None,
    seed: int = 0,
) -> np.ndarray:
    """Which source PEI handles each message.

    With ``source_keys=None`` messages are spread round-robin (shuffle
    grouping upstream, the paper's default: "read by multiple
    independent sources via shuffle grouping").  Otherwise messages are
    key-grouped on ``source_keys`` -- the skewed split of Q3, where the
    source key is the graph edge's source vertex.
    """
    if num_sources < 1:
        raise ValueError(f"num_sources must be >= 1, got {num_sources}")
    if source_keys is None:
        return np.arange(num_messages, dtype=np.int64) % num_sources
    split_keys = as_key_array(source_keys)
    if split_keys.size != num_messages:
        raise ValueError("source_keys must have one entry per message")
    return hashed_buckets(HashFunction(seed=seed ^ 0x5CE5), split_keys, num_sources)


def _source_ids(
    source_ids: Optional[np.ndarray], num_messages: int, num_sources: int
) -> np.ndarray:
    """Validated per-message source ids, defaulting to
    :func:`assign_sources`' round-robin split."""
    if num_sources < 1:
        raise ValueError(f"num_sources must be >= 1, got {num_sources}")
    if source_ids is None:
        return assign_sources(num_messages, num_sources)
    ids = np.asarray(source_ids, dtype=np.int64)
    if ids.size != num_messages:
        raise ValueError("source_ids must have one entry per message")
    _check_source_range(ids, num_sources)
    return ids


def _finish(
    series: StreamingLoadSeries, assignments: Optional[np.ndarray]
) -> ReplayResult:
    positions, imbalances = series.finish()
    return ReplayResult(
        num_workers=series.num_workers,
        num_messages=series.num_messages,
        final_loads=series.loads.copy(),
        checkpoint_positions=positions,
        imbalance_series=imbalances,
        assignments=assignments,
    )


def _as_times(
    timestamps: Optional[Sequence[float]], num_messages: int
) -> Optional[np.ndarray]:
    if timestamps is None:
        return None
    times = np.asarray(timestamps, dtype=np.float64)
    if times.size != num_messages:
        raise ValueError(
            f"timestamps has {times.size} entries for {num_messages} messages"
        )
    return times


def route_chunked(
    keys: StreamLike,
    partitioner: "Partitioner",
    timestamps: Optional[Sequence[float]] = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> np.ndarray:
    """Full per-message assignments of a stream, routed chunk by chunk.

    ``keys`` is a materialised array or a bounded-memory
    :class:`~repro.core.chunks.ChunkSource`; since ``route_chunk`` is
    chunk-size invariant for every registered scheme, both produce the
    same assignments for the same underlying stream.
    """
    m = stream_length(keys)
    times = _as_times(timestamps, m)
    out = np.empty(m, dtype=np.int64)
    for start, stop, key_chunk, time_chunk in iter_keyed_chunks(
        keys, chunk_size, times
    ):
        out[start:stop] = partitioner.route_chunk(key_chunk, time_chunk)
    return out


def replay_stream(
    keys: StreamLike,
    partitioner: "Partitioner",
    *,
    timestamps: Optional[Sequence[float]] = None,
    num_checkpoints: int = 100,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    keep_assignments: bool = False,
) -> ReplayResult:
    """Replay a stream through one partitioner, measuring balance.

    Routes fixed-size chunks through ``partitioner.route_chunk`` and
    accumulates the checkpoint imbalance series as it goes; the full
    assignment array is only materialised on ``keep_assignments``.
    ``keys`` may be a materialised array or a
    :class:`~repro.core.chunks.ChunkSource` (one fresh pass; a source
    iterates on its own chunk grid).
    """
    m = stream_length(keys)
    times = _as_times(timestamps, m)
    series = StreamingLoadSeries(m, partitioner.num_workers, num_checkpoints)
    assignments = np.empty(m, dtype=np.int64) if keep_assignments else None
    for start, stop, key_chunk, time_chunk in iter_keyed_chunks(
        keys, chunk_size, times
    ):
        chunk = partitioner.route_chunk(key_chunk, time_chunk)
        series.update(chunk)
        if assignments is not None:
            assignments[start:stop] = chunk
    return _finish(series, assignments)


def replay_per_source(
    keys: KeyStream,
    partitioner_factory: Callable[[int], "Partitioner"],
    num_workers: int,
    *,
    num_sources: int = 1,
    source_ids: Optional[np.ndarray] = None,
    timestamps: Optional[Sequence[float]] = None,
    num_checkpoints: int = 100,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    keep_assignments: bool = False,
) -> Tuple[ReplayResult, List["Partitioner"]]:
    """Replay with one independent partitioner instance per source.

    ``partitioner_factory(source_index)`` builds each instance.  Because
    per-source state is private (no shared load vectors), routing each
    source's sub-stream in one chunked pass and merging back into
    arrival order is decision-equivalent to interleaving.
    ``source_ids`` defaults to :func:`assign_sources`' round-robin
    split.  Returns the result and the built instances (for memory
    accounting).
    """
    keys = as_key_array(keys)
    m = int(keys.size)
    times = _as_times(timestamps, m)
    source_ids = _source_ids(source_ids, m, num_sources)

    workers = np.empty(m, dtype=np.int64)
    partitioners: List["Partitioner"] = []
    for s in range(int(num_sources)):
        partitioner = partitioner_factory(s)
        if partitioner.num_workers != num_workers:
            raise ValueError(
                f"source {s}'s partitioner routes to "
                f"{partitioner.num_workers} workers, replay has {num_workers}"
            )
        partitioners.append(partitioner)
        mask = source_ids == s
        workers[mask] = route_chunked(
            keys[mask],
            partitioner,
            times[mask] if times is not None else None,
            chunk_size,
        )

    series = StreamingLoadSeries(m, num_workers, num_checkpoints)
    for start, stop in iter_chunks(m, chunk_size):
        series.update(workers[start:stop])
    return _finish(series, workers if keep_assignments else None), partitioners


def replay_interleaved(
    keys: KeyStream,
    num_workers: int,
    *,
    num_sources: int = 1,
    source_ids: Optional[np.ndarray] = None,
    mode: str = "local",
    num_choices: int = 2,
    probe_period: float = 0.0,
    timestamps: Optional[Sequence[float]] = None,
    num_checkpoints: int = 100,
    seed: int = 0,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    keep_assignments: bool = False,
) -> ReplayResult:
    """PKG (Greedy-d) with S sources under a load-estimation mode.

    Each message's ``num_choices`` candidates come from a
    ``HashFamily(num_choices, seed)``; decisions interleave in arrival
    order, so local views, the shared true loads, and probe resyncs
    evolve exactly as in the paper's multi-source setting, and the
    result's loads are the *true* worker loads summed over all sources.

    ``mode`` is ``"local"`` (the paper's L), ``"global"`` (G, a shared
    oracle), or ``"probing"`` (LP: local, resynced to the true loads
    every ``probe_period`` time units).  In probing mode ``timestamps``
    defaults to the message index.  ``source_ids`` defaults to
    :func:`assign_sources`' round-robin split.
    """
    keys = as_key_array(keys)
    m = int(keys.size)
    source_ids = _source_ids(source_ids, m, num_sources)
    router = InterleavedRouter(num_sources, num_workers, mode, probe_period)
    times = _as_times(timestamps, m)
    if mode == "probing" and times is None:
        times = np.arange(m, dtype=np.float64)
    choice_matrix = hashed_choices(
        HashFamily(size=num_choices, seed=seed), keys, num_workers
    )

    series = StreamingLoadSeries(m, num_workers, num_checkpoints)
    assignments = np.empty(m, dtype=np.int64) if keep_assignments else None
    for start, stop in iter_chunks(m, chunk_size):
        chunk = router.route(
            choice_matrix[start:stop],
            source_ids[start:stop],
            times[start:stop] if times is not None else None,
        )
        series.update(chunk)
        if assignments is not None:
            assignments[start:stop] = chunk
    return _finish(series, assignments)


# ---------------------------------------------------------------------------
# The discrete-event loop (the DSPE cluster's clock)
# ---------------------------------------------------------------------------

class EventLoop:
    """A minimal, deterministic discrete-event loop.

    Events are (time, sequence, callback) triples in a binary heap;
    ties in time break by scheduling order, so runs are exactly
    reproducible.  This is the execution core of the DSPE cluster
    simulation: the :mod:`repro.dspe` executors schedule on it directly.
    """

    def __init__(self) -> None:
        self.now = 0.0
        self._seq = 0
        self._heap: List[Tuple[float, int, Callable[[], None]]] = []
        self._processed = 0

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` ``delay`` seconds from the current time."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        self.schedule_at(self.now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` at absolute simulation ``time``."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule into the past (time={time}, now={self.now})"
            )
        heapq.heappush(self._heap, (time, self._seq, callback))
        self._seq += 1

    def run_until(self, end_time: float, max_events: Optional[int] = None) -> int:
        """Process events up to ``end_time``; returns events processed.

        Events scheduled exactly at ``end_time`` are processed.  The
        clock is left at ``end_time`` (or at the last event if the heap
        drains first).  When ``max_events`` stops the run early --
        eligible events still pending -- the clock stays at the last
        processed event, so a subsequent ``run_until`` resumes exactly
        where this one stopped instead of declaring the skipped events
        to be in the past.  ``max_events=0`` processes nothing.
        """
        if max_events is not None and max_events < 0:
            raise ValueError(f"max_events must be >= 0, got {max_events}")
        processed = 0
        heap = self._heap
        while heap and heap[0][0] <= end_time:
            if max_events is not None and processed >= max_events:
                self._processed += processed
                return processed
            time, _seq, callback = heapq.heappop(heap)
            self.now = time
            callback()
            processed += 1
        if self.now < end_time:
            self.now = end_time
        self._processed += processed
        return processed

    def run(self, max_events: Optional[int] = None) -> int:
        """Drain the heap completely; returns events processed.

        Unlike :meth:`run_until` there is no target time: the clock is
        left at the last processed event (events may schedule further
        events, all of which run).  The open-loop queueing simulator
        (:mod:`repro.queueing`) uses this to run an arrival schedule to
        completion without inventing an artificial horizon.
        """
        if max_events is not None and max_events < 0:
            raise ValueError(f"max_events must be >= 0, got {max_events}")
        processed = 0
        heap = self._heap
        while heap:
            if max_events is not None and processed >= max_events:
                break
            time, _seq, callback = heapq.heappop(heap)
            self.now = time
            callback()
            processed += 1
        self._processed += processed
        return processed

    @property
    def pending_events(self) -> int:
        return len(self._heap)

    @property
    def total_events_processed(self) -> int:
        return self._processed
