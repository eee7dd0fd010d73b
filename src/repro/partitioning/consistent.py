"""Consistent-hashing partitioners (Section VII extension).

The paper notes that the two PKG replicas could equally be chosen with
consistent hashing, "using the replication technique used by Chord":
hash workers onto a ring, hash the key, and take the next d distinct
workers clockwise.  The payoff is elasticity -- adding or removing a
worker relocates only the keys in its arc -- while preserving PKG's
two-choice load balancing.

This module implements:

* :class:`HashRing` -- a ring with virtual nodes;
* :class:`ConsistentKeyGrouping` -- single-choice key grouping on the
  ring (the classic distributed-cache baseline);
* :class:`ConsistentPartialKeyGrouping` -- PKG whose candidates are the
  d successor workers on the ring (Chord-style replicas).
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.api.registry import register
from repro.core.chunks import factorize
from repro.core.engine import greedy_route_chunk
from repro.hashing import HashFunction
from repro.partitioning.base import LoadAwarePartitioner, Partitioner


class HashRing:
    """A consistent-hash ring of workers with virtual nodes.

    Parameters
    ----------
    num_workers:
        Workers ``0 .. num_workers-1`` placed on the ring.
    virtual_nodes:
        Ring points per worker; more points smooth the arc sizes.
    seed:
        Seeds both the worker-placement and the key hash.
    """

    def __init__(self, num_workers: int, virtual_nodes: int = 64, seed: int = 0) -> None:
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        if virtual_nodes < 1:
            raise ValueError(f"virtual_nodes must be >= 1, got {virtual_nodes}")
        self.num_workers = int(num_workers)
        self.virtual_nodes = int(virtual_nodes)
        self.seed = int(seed)
        self._key_hash = HashFunction(seed ^ 0xC0FFEE)
        self._points: List[int] = []
        self._owners: List[int] = []
        self._members: Set[int] = set()
        # Lazily built lookup tables (see _points_table/_successor_table);
        # any membership change invalidates them.
        self._points_arr: Optional[np.ndarray] = None
        self._succ_tables: Dict[int, np.ndarray] = {}
        for worker in range(num_workers):
            self.add_worker(worker)

    def _worker_points(self, worker: int) -> List[int]:
        return [
            HashFunction(self.seed ^ (v + 1))((worker << 20) | 0xA5)
            for v in range(self.virtual_nodes)
        ]

    def add_worker(self, worker: int) -> None:
        """Place (or re-place) a worker's virtual nodes on the ring."""
        if worker in self._members:
            return
        self._members.add(worker)
        for point in self._worker_points(worker):
            idx = bisect.bisect_left(self._points, point)
            self._points.insert(idx, point)
            self._owners.insert(idx, worker)
        self._invalidate()

    def remove_worker(self, worker: int) -> None:
        """Remove a worker; its arcs fall to the next ring successors."""
        if worker not in self._members:
            raise KeyError(f"worker {worker} is not on the ring")
        self._members.discard(worker)
        keep = [
            (p, w)
            for p, w in zip(self._points, self._owners)
            if w != worker
        ]
        self._points = [p for p, _ in keep]
        self._owners = [w for _, w in keep]
        self._invalidate()

    @property
    def workers(self) -> Set[int]:
        return set(self._members)

    # -- precomputed lookup tables ------------------------------------

    def _invalidate(self) -> None:
        self._points_arr = None
        self._succ_tables.clear()

    def _points_table(self) -> np.ndarray:
        """The sorted ring points as a numpy array."""
        if self._points_arr is None:
            self._points_arr = np.array(self._points, dtype=np.uint64)
        return self._points_arr

    def _successor_table(self, width: int) -> np.ndarray:
        """``table[i]``: first ``width`` distinct owners clockwise of
        ring position ``i`` -- one walk per *position*, so lookups are a
        searchsorted plus a row gather instead of a walk per key."""
        table = self._succ_tables.get(width)
        if table is None:
            owners = self._owners
            num_points = len(owners)
            table = np.empty((num_points, width), dtype=np.int64)
            for i in range(num_points):
                out: List[int] = []
                seen = set()
                j = i
                while len(out) < width:
                    owner = owners[j]
                    if owner not in seen:
                        seen.add(owner)
                        out.append(owner)
                    j += 1
                    if j == num_points:
                        j = 0
                table[i] = out
            self._succ_tables[width] = table
        return table

    def _positions(self, keys: np.ndarray) -> np.ndarray:
        """Ring position of each key (vectorized ``bisect_right``)."""
        points = self._points_table()
        keys = np.asarray(keys)
        if np.issubdtype(keys.dtype, np.integer):
            hashes = self._key_hash.hash_array(keys)
        else:
            hashes = np.fromiter(
                (self._key_hash(key) for key in keys.tolist()),
                dtype=np.uint64,
                count=keys.size,
            )
        return np.searchsorted(points, hashes, side="right") % points.size

    def successor_matrix(self, keys: Sequence[Any], count: int = 1) -> np.ndarray:
        """Ring successors of each key, as an ``(n, count')`` matrix.

        ``count'`` may be smaller than ``count`` when the ring has
        fewer members (:meth:`successors` truncates identically per
        key).  Row ``i`` equals ``self.successors(keys[i], count)``.
        """
        if not self._points:
            raise RuntimeError("ring has no workers")
        width = min(count, len(self._members))
        table = self._successor_table(width)
        return table[self._positions(keys)]

    def successors(self, key: Any, count: int = 1) -> Tuple[int, ...]:
        """The first ``count`` *distinct* workers clockwise of the key."""
        if not self._points:
            raise RuntimeError("ring has no workers")
        width = min(count, len(self._members))
        table = self._successor_table(width)
        h = self._key_hash(key)
        idx = bisect.bisect_right(self._points, h) % len(self._points)
        return tuple(int(w) for w in table[idx])


@register(
    "ch",
    aliases=("consistent", "ch-kg"),
    params={"vnodes": "virtual_nodes"},
    description="single-choice key grouping on a consistent-hash ring",
)
class ConsistentKeyGrouping(Partitioner):
    """Single-choice key grouping over a consistent-hash ring."""

    name = "CH"

    def __init__(
        self,
        num_workers: int,
        virtual_nodes: int = 64,
        seed: int = 0,
        ring: Optional[HashRing] = None,
    ) -> None:
        super().__init__(num_workers)
        self.ring = ring or HashRing(num_workers, virtual_nodes, seed)

    def route(self, key: Any, now: float = 0.0) -> int:
        return self.ring.successors(key, 1)[0]

    def route_chunk(
        self, keys: Sequence[Any], timestamps: Optional[Sequence[float]] = None
    ) -> np.ndarray:
        # Stateless: one ring lookup per distinct key, gathered back.
        codes, unique = factorize(keys)
        return self.ring.successor_matrix(unique, 1)[:, 0][codes]

    def candidates(self, key: Any) -> Tuple[int, ...]:
        return self.ring.successors(key, 1)


@register(
    "ch-pkg",
    aliases=("consistent-pkg", "ring-pkg"),
    params={"d": "num_choices", "vnodes": "virtual_nodes"},
    description="PKG whose candidates are Chord-style ring successors",
)
class ConsistentPartialKeyGrouping(LoadAwarePartitioner):
    """PKG whose two candidates are Chord-style ring successors.

    Same key-splitting and local-load-estimation behaviour as
    :class:`~repro.partitioning.pkg.PartialKeyGrouping`, but candidate
    sets move minimally when the worker set changes: on
    :meth:`add_worker` / :meth:`remove_worker` only keys whose arc is
    touched change candidates, instead of rehashing the world.
    """

    name = "CH-PKG"

    def __init__(
        self,
        num_workers: int,
        num_choices: int = 2,
        virtual_nodes: int = 64,
        seed: int = 0,
        ring: Optional[HashRing] = None,
    ) -> None:
        super().__init__(num_workers)
        if num_choices < 1:
            raise ValueError(f"num_choices must be >= 1, got {num_choices}")
        self.num_choices = int(num_choices)
        self.ring = ring or HashRing(num_workers, virtual_nodes, seed)

    def candidates(self, key: Any) -> Tuple[int, ...]:
        return self.ring.successors(key, self.num_choices)

    def route(self, key: Any, now: float = 0.0) -> int:
        return self._send(self.candidates(key))

    def route_chunk(
        self, keys: Sequence[Any], timestamps: Optional[Sequence[float]] = None
    ) -> np.ndarray:
        # Ring successors once per distinct key, then the Greedy-d
        # chunk kernel over the gathered candidate matrix.
        codes, unique = factorize(keys)
        choices = self.ring.successor_matrix(unique, self.num_choices)[codes]
        return greedy_route_chunk(choices, self.loads)

    def add_worker(self, worker: int) -> None:
        """Elastically grow the worker set (new arcs only)."""
        if not 0 <= worker < self.num_workers:
            raise ValueError(
                f"worker {worker} outside the load vector's range "
                f"[0, {self.num_workers}); construct with capacity first"
            )
        self.ring.add_worker(worker)

    def remove_worker(self, worker: int) -> None:
        """Elastically shrink the worker set."""
        self.ring.remove_worker(worker)


def relocation_fraction(
    ring_before: HashRing, ring_after: HashRing, keys: Iterable[Any], count: int = 1
) -> float:
    """Fraction of keys whose candidate set changed between two rings.

    The consistent-hashing selling point: adding one of n workers should
    relocate ~1/n of the keys, not all of them.
    """
    keys = list(keys)
    if not keys:
        return 0.0
    moved = sum(
        1
        for k in keys
        if ring_before.successors(k, count) != ring_after.successors(k, count)
    )
    return moved / len(keys)
