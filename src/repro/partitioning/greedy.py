"""Greedy key-grouping baselines: On-Greedy and Off-Greedy (Table II).

Both keep key-grouping semantics (one worker per key, remembered in a
routing table) but consider *all* W workers instead of two hash
choices:

* **On-Greedy** -- online: the first time a key appears, bind it to the
  globally least-loaded worker.
* **Off-Greedy** -- offline: with the whole key-frequency histogram
  known in advance, assign keys in decreasing frequency order to the
  least-loaded worker (LPT scheduling).  An unfair comparison for
  online algorithms; the paper's headline is that PKG beats even this.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.api.registry import register
from repro.core.chunks import factorize
from repro.core.engine import bind_route_chunk
from repro.partitioning.base import LoadAwarePartitioner, Partitioner


def _bind_chunk_with_table(
    partitioner: Any,
    keys: Sequence[Any],
    choices_for: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> np.ndarray:
    """Shared chunk path of the first-sight-binding schemes.

    Factorises the chunk, fills a dense code->worker table from the
    scheme's routing dict (-1 = unbound), runs the binding kernel
    against the scheme's ``loads``, and writes fresh bindings back
    into the dict.  ``choices_for(unique_keys) -> (u, d)`` supplies
    per-key candidate rows; None means "all workers are candidates".
    """
    codes, unique = factorize(keys)
    key_list = unique.tolist()
    table = np.empty(len(key_list), dtype=np.int64)
    lookup = partitioner.routing_table.get
    for u, key in enumerate(key_list):
        worker = lookup(key)
        table[u] = -1 if worker is None else worker
    unbound = table < 0
    choices = None
    if choices_for is not None:
        per_unique = choices_for(unique)
        choices = per_unique[codes]
    out = bind_route_chunk(
        codes, choices, partitioner.num_workers, table, partitioner.loads
    )
    for u in np.flatnonzero(unbound).tolist():
        partitioner.routing_table[key_list[u]] = int(table[u])
    return out


@register(
    "on-greedy",
    aliases=("online-greedy",),
    description="online greedy: bind new keys to the least-loaded worker",
)
class OnlineGreedy(LoadAwarePartitioner):
    """Online greedy: new key -> currently least-loaded worker, fixed."""

    name = "On-Greedy"

    def __init__(self, num_workers: int) -> None:
        super().__init__(num_workers)
        self.routing_table: Dict = {}
        self._all_workers = tuple(range(num_workers))

    def candidates(self, key: Any) -> Tuple[int, ...]:
        if key in self.routing_table:
            return (self.routing_table[key],)
        return self._all_workers

    def route(self, key: Any, now: float = 0.0) -> int:
        worker = self.routing_table.get(key)
        if worker is None:
            worker = self._send(self._all_workers)
            self.routing_table[key] = worker
        else:
            self.loads[worker] += 1
        return worker

    def route_chunk(
        self, keys: Sequence[Any], timestamps: Optional[Sequence[float]] = None
    ) -> np.ndarray:
        # New keys bind to the least-loaded of *all* workers, so the
        # binding kernel runs with an open candidate set.
        return _bind_chunk_with_table(self, keys)

    def memory_entries(self) -> int:
        return len(self.routing_table)

    def reset(self) -> None:
        self.routing_table.clear()
        super().reset()


@register(
    "off-greedy",
    aliases=("offline-greedy", "lpt"),
    description="offline LPT packing from the full frequency histogram",
)
class OfflineGreedy(Partitioner):
    """Offline greedy (LPT): requires the full key-frequency histogram.

    :meth:`fit` sorts keys by decreasing frequency and greedily packs
    them onto the least-loaded worker, the classic makespan heuristic.
    Routing then is a pure table lookup.  Keys never seen during fit
    fall back to the least *assigned-load* worker at first sight.
    """

    name = "Off-Greedy"

    def __init__(self, num_workers: int) -> None:
        super().__init__(num_workers)
        self.routing_table: Dict = {}
        self._planned_load = np.zeros(num_workers, dtype=np.float64)
        self._fitted = False
        #: (table_len, sorted_keys, workers) chunk-lookup cache
        self._sorted_lookup: Optional[
            Tuple[int, Optional[np.ndarray], Optional[np.ndarray]]
        ] = None

    def fit(self, frequencies: Mapping[Any, float]) -> "OfflineGreedy":
        """Plan the assignment from a ``{key: frequency}`` mapping."""
        self.routing_table.clear()
        self._sorted_lookup = None
        self._planned_load[:] = 0.0
        for key, freq in sorted(
            frequencies.items(), key=lambda kv: (-kv[1], repr(kv[0]))
        ):
            worker = int(np.argmin(self._planned_load))
            self.routing_table[key] = worker
            self._planned_load[worker] += freq
        self._fitted = True
        return self

    @classmethod
    def from_stream(cls, keys: Sequence[Any], num_workers: int) -> "OfflineGreedy":
        """Fit directly from the key sequence that will be replayed."""
        arr = np.asarray(keys)
        freqs: Dict[Any, int]
        if np.issubdtype(arr.dtype, np.integer):
            counts = np.bincount(arr.astype(np.int64))
            freqs = {int(k): int(c) for k, c in enumerate(counts) if c > 0}
        else:
            freqs = {}
            for k in arr:
                freqs[k] = freqs.get(k, 0) + 1
        return cls(num_workers).fit(freqs)

    def candidates(self, key: Any) -> Tuple[int, ...]:
        if key in self.routing_table:
            return (self.routing_table[key],)
        return tuple(range(self.num_workers))

    def route(self, key: Any, now: float = 0.0) -> int:
        worker = self.routing_table.get(key)
        if worker is None:
            worker = int(np.argmin(self._planned_load))
            self.routing_table[key] = worker
            self._planned_load[worker] += 1.0
        return worker

    def route_chunk(
        self, keys: Sequence[Any], timestamps: Optional[Sequence[float]] = None
    ) -> np.ndarray:
        keys_arr = np.asarray(keys)
        if self._fitted and keys_arr.size:
            # Pure sorted-table lookup when every key was planned during
            # fit; any unseen key falls back to the sequential
            # first-sight loop, whose bindings depend on arrival order.
            if (
                self._sorted_lookup is None
                or self._sorted_lookup[0] != len(self.routing_table)
            ):
                try:
                    table_keys = np.array(list(self.routing_table))
                    order = np.argsort(table_keys, kind="stable")
                    workers = np.fromiter(
                        self.routing_table.values(),
                        dtype=np.int64,
                        count=len(self.routing_table),
                    )
                    self._sorted_lookup = (
                        len(self.routing_table),
                        table_keys[order],
                        workers[order],
                    )
                except (TypeError, ValueError):  # unsortable/mixed key types
                    self._sorted_lookup = (len(self.routing_table), None, None)
            _, sorted_keys, sorted_workers = self._sorted_lookup
            if sorted_keys is not None and sorted_keys.dtype.kind == keys_arr.dtype.kind:
                idx = np.searchsorted(sorted_keys, keys_arr)
                idx_clipped = np.minimum(idx, sorted_keys.size - 1)
                if np.array_equal(sorted_keys[idx_clipped], keys_arr):
                    return sorted_workers[idx_clipped]
        return super().route_chunk(keys, timestamps)

    def memory_entries(self) -> int:
        return len(self.routing_table)

    def reset(self) -> None:
        self.routing_table.clear()
        self._sorted_lookup = None
        self._planned_load[:] = 0.0
        self._fitted = False
