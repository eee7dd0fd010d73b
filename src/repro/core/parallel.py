"""Deterministic multi-process sweep execution.

The paper's experiments are grids -- schemes x worker counts x skews x
seeds -- whose cells are *independent*: each builds its own partitioner
state from a fixed seed and routes a deterministic stream.  This module
executes such grids across processes without changing a single routed
decision:

* :func:`parallel_map` -- an order-preserving map over picklable cell
  descriptors.  Cells are sharded over a ``ProcessPoolExecutor`` and
  the results are merged back in input order, so the merged result list
  is exactly what a serial ``[fn(c) for c in cells]`` produces.
  ``REPRO_PARALLEL=0`` forces the serial path (the two are equivalent
  by construction; the env knob exists so CI can prove it).

* **Materialized stream cache** -- grid cells over one dataset replay
  the *same* generated key stream.  :func:`materialized_stream` keeps
  one copy per ``(kind, params)`` key per process; :func:`parallel_map`
  optionally publishes the parent's copies into POSIX shared memory
  (``multiprocessing.shared_memory``) so worker processes map the bytes
  read-only instead of re-generating or re-pickling them.

Job-count resolution (:func:`resolve_jobs`): ``REPRO_PARALLEL=0`` wins
over everything; an explicit ``jobs`` argument (the ``--jobs`` CLI
flag) comes next; then a numeric ``REPRO_PARALLEL``; the default is
``os.cpu_count()``.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "StreamKey",
    "resolve_jobs",
    "effective_jobs",
    "pool_usable",
    "parallel_map",
    "materialized_stream",
    "dataset_stream_cached",
    "edge_stream_cached",
    "clear_stream_cache",
]

#: A stream-cache key: ``(kind, *params)``, hashable and picklable.
StreamKey = Tuple[Any, ...]

#: shared-memory block descriptor: (shm_name, dtype_str, shape).
_BlockDescriptor = Tuple[str, str, Tuple[int, ...]]


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Effective worker-process count for a sweep.

    ``REPRO_PARALLEL=0`` forces 1 (serial) regardless of ``jobs``; an
    explicit ``jobs`` beats a numeric ``REPRO_PARALLEL``; the default
    is ``os.cpu_count()``.
    """
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    env = os.environ.get("REPRO_PARALLEL", "").strip()
    if env == "0":
        return 1
    if jobs is not None:
        return int(jobs)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return os.cpu_count() or 1


#: Whether this process can actually spawn pool workers; None = unknown.
#: parallel_map records what it observes; pool_usable() probes on demand.
_POOL_USABLE: Optional[bool] = None


def pool_usable() -> bool:
    """Whether a worker pool can actually spawn in this environment.

    Restricted sandboxes can block process creation; :func:`parallel_map`
    then silently falls back to serial.  Probed once per process (and
    kept current by every ``parallel_map`` call) so callers reporting
    job counts (``reports run``'s sweep line) report the width sweeps
    really ran at, not the width they asked for.
    """
    global _POOL_USABLE
    if _POOL_USABLE is None:
        try:
            with ProcessPoolExecutor(max_workers=1) as executor:
                executor.submit(_pool_probe).result()
            _POOL_USABLE = True
        except (OSError, BrokenProcessPool):
            _POOL_USABLE = False
    return _POOL_USABLE


def effective_jobs(jobs: Optional[int] = None) -> int:
    """:func:`resolve_jobs`, corrected for pool availability."""
    resolved = resolve_jobs(jobs)
    if resolved <= 1:
        return resolved
    return resolved if pool_usable() else 1


# ---------------------------------------------------------------------------
# Materialized stream cache
# ---------------------------------------------------------------------------

#: Process-local cache: StreamKey -> tuple of numpy arrays.
_CACHE: Dict[StreamKey, Tuple[np.ndarray, ...]] = {}

#: Worker-side descriptors of parent-published shared blocks:
#: StreamKey -> list of (shm_name, dtype_str, shape).
_SHARED_DESCRIPTORS: Dict[StreamKey, List[_BlockDescriptor]] = {}

#: Attached SharedMemory handles, kept alive for the worker's lifetime
#: (the numpy views borrow their buffers).
_ATTACHED: List[Any] = []


def _generate(key: StreamKey) -> Tuple[np.ndarray, ...]:
    """Materialize the arrays of one stream key (imports kept lazy)."""
    kind = key[0]
    if kind == "dataset":
        from repro.streams.datasets import dataset_stream

        _, symbol, num_messages, seed = key
        return (dataset_stream(symbol, int(num_messages), seed=int(seed)),)
    if kind == "edges":
        from repro.streams.graphs import EdgeStream

        _, num_edges, seed = key
        stream = EdgeStream.generate(int(num_edges), seed=int(seed))
        return (stream.source_keys, stream.worker_keys)
    raise ValueError(f"unknown stream kind {kind!r} in cache key {key!r}")


def _attach(key: StreamKey) -> Optional[Tuple[np.ndarray, ...]]:
    """Map a parent-published stream read-only, or None if not shared."""
    descriptors = _SHARED_DESCRIPTORS.get(key)
    if not descriptors:
        return None
    from multiprocessing import shared_memory

    arrays: List[np.ndarray] = []
    for name, dtype_str, shape in descriptors:
        shm = shared_memory.SharedMemory(name=name)
        _ATTACHED.append(shm)
        view = np.ndarray(shape, dtype=np.dtype(dtype_str), buffer=shm.buf)
        view.flags.writeable = False
        arrays.append(view)
    return tuple(arrays)


def materialized_stream(key: StreamKey) -> Tuple[np.ndarray, ...]:
    """The arrays of one stream key: cached, attached, or generated.

    In a worker process a key the parent published resolves to
    read-only views over shared memory; everywhere else it is generated
    once per process.  Either way the *values* are identical (streams
    are pure functions of their key).
    """
    arrays = _CACHE.get(key)
    if arrays is None:
        arrays = _attach(key)
        if arrays is None:
            arrays = _generate(key)
        _CACHE[key] = arrays
    return arrays


def dataset_stream_cached(symbol: str, num_messages: int, seed: int) -> np.ndarray:
    """Cached :func:`repro.streams.datasets.dataset_stream`."""
    key = ("dataset", symbol.upper(), int(num_messages), int(seed))
    return materialized_stream(key)[0]


def edge_stream_cached(num_edges: int, seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """Cached ``EdgeStream.generate`` as ``(source_keys, worker_keys)``."""
    source_keys, worker_keys = materialized_stream(("edges", int(num_edges), int(seed)))
    return source_keys, worker_keys


def clear_stream_cache() -> None:
    """Drop all cached/attached streams (tests and memory pressure)."""
    _CACHE.clear()
    _SHARED_DESCRIPTORS.clear()
    for shm in _ATTACHED:
        try:
            shm.close()
        except OSError:  # pragma: no cover - best-effort cleanup
            pass
    _ATTACHED.clear()


# ---------------------------------------------------------------------------
# Shared-memory publication (parent side)
# ---------------------------------------------------------------------------


class _Publication:
    """Parent-held shared-memory copies of materialized streams."""

    def __init__(self, keys: Iterable[StreamKey]) -> None:
        self.blocks: List[Any] = []
        self.descriptors: Dict[StreamKey, List[_BlockDescriptor]] = {}
        try:
            from multiprocessing import shared_memory
        except ImportError:  # pragma: no cover - always present on CPython
            return
        try:
            self._publish(keys, shared_memory)
        except BaseException:
            # A bad stream key must not leak the blocks already created
            # for earlier keys.
            self.release()
            raise

    def _publish(self, keys: Iterable[StreamKey], shared_memory: Any) -> None:
        for key in dict.fromkeys(keys):
            arrays = materialized_stream(key)
            entry: List[_BlockDescriptor] = []
            try:
                for arr in arrays:
                    arr = np.ascontiguousarray(arr)
                    shm = shared_memory.SharedMemory(
                        create=True, size=max(1, arr.nbytes)
                    )
                    self.blocks.append(shm)
                    view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
                    view[:] = arr
                    entry.append((shm.name, arr.dtype.str, tuple(arr.shape)))
            except OSError:
                # No usable /dev/shm (sandboxes): workers fall back to
                # generating streams themselves -- identical values.
                continue
            self.descriptors[key] = entry

    def release(self) -> None:
        for shm in self.blocks:
            try:
                shm.close()
                shm.unlink()
            except OSError:  # pragma: no cover - already gone
                pass
        self.blocks.clear()


def _pool_probe() -> None:
    """No-op task proving the pool can actually spawn workers."""


def _worker_init(descriptors: Dict[StreamKey, List[_BlockDescriptor]]) -> None:
    """Executor initializer: record where the parent's streams live."""
    _SHARED_DESCRIPTORS.update(descriptors)


# ---------------------------------------------------------------------------
# The order-preserving parallel map
# ---------------------------------------------------------------------------


def parallel_map(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    jobs: Optional[int] = None,
    streams: Iterable[StreamKey] = (),
) -> List[Any]:
    """``[fn(item) for item in items]``, sharded over processes.

    ``fn`` and every item must be picklable (module-level function,
    plain-data descriptors).  Results come back in input order, so the
    output is byte-identical to the serial evaluation -- cells must be
    independent of each other, which every sweep cell in
    ``repro.experiments`` is.

    ``streams`` lists stream-cache keys the cells will read; they are
    materialized once in the parent and published to workers via shared
    memory (workers regenerate them only if shared memory is not
    available).  With one job (or one item) everything runs in-process
    and ``streams`` only warms the local cache.
    """
    items = list(items)
    effective = min(resolve_jobs(jobs), len(items)) if items else 1
    if effective <= 1:
        for key in streams:
            materialized_stream(key)
        return [fn(item) for item in items]

    # Forked workers inherit the parent's stream cache copy-on-write,
    # so warming it is all the sharing needed; spawn/forkserver workers
    # start cold and get read-only shared-memory views instead.
    if multiprocessing.get_start_method() == "fork":
        for key in streams:
            materialized_stream(key)
        publication = _Publication(())
    else:
        publication = _Publication(streams)
    try:
        # Worker processes spawn lazily at first submit, so probe the
        # pool with a no-op before committing to it: where process
        # creation is unavailable (restricted sandbox), the serial path
        # computes the exact same list.  Once the probe has proven the
        # pool works, errors raised by ``fn`` itself propagate.
        global _POOL_USABLE
        try:
            executor = ProcessPoolExecutor(
                max_workers=effective,
                initializer=_worker_init,
                initargs=(publication.descriptors,),
            )
        except (OSError, BrokenProcessPool):
            _POOL_USABLE = False
            return [fn(item) for item in items]
        with executor:
            try:
                executor.submit(_pool_probe).result()
            except (OSError, BrokenProcessPool):
                _POOL_USABLE = False
                return [fn(item) for item in items]
            _POOL_USABLE = True
            chunksize = max(1, len(items) // (4 * effective))
            return list(executor.map(fn, items, chunksize=chunksize))
    finally:
        publication.release()
