"""The stream partitioner interface.

A stream partitioning function ``Pt : K -> [W]`` (Section II) maps each
key to the worker responsible for processing the message carrying it,
possibly as a function of time (of everything routed so far).  One
partitioner instance embodies the routing state of one *source PEI* for
one edge of the DAG; sources sharing an edge use separate instances
built from the same hash family.

Routing has two granularities: :meth:`Partitioner.route` decides one
message (the DSPE event loop's per-tuple path) and
:meth:`Partitioner.route_chunk` decides a whole key window at once (the
chunked replay engine's path, see :mod:`repro.core.engine`).  The two
are decision-identical by contract; chunk implementations hoist hashing
out of the loop and vectorise whatever their state permits.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Optional, Sequence, Set, Tuple

import numpy as np


class Partitioner(ABC):
    """Routes message keys to workers ``0 .. num_workers - 1``.

    **Worker masking (failover).**  The runtime's reroute recovery
    removes dead workers from every scheme's effective candidate set
    via :meth:`mask_worker`: afterwards :meth:`remap_masked` rewrites
    any decision for a masked worker to its deterministic deputy
    (``alive[dead % len(alive)]``), and load-aware schemes additionally
    have their load vector poisoned (see :class:`LoadAwarePartitioner`)
    so they prefer survivors on their own.  The remap keeps the
    underlying routing state evolution untouched -- decisions are
    remapped *after* the scheme makes them -- so masking mid-stream
    never perturbs how unaffected messages route.  Masks survive :meth:`reset` (a dead
    worker stays dead for the rest of the run).
    """

    #: short display name used in experiment tables ("PKG", "H", ...)
    name: str = "base"

    def __init__(self, num_workers: int) -> None:
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        self.num_workers = int(num_workers)
        #: workers removed from service by reroute recovery.
        self._masked: Set[int] = set()
        #: dense worker -> worker remap (None while nothing is masked).
        self._mask_map: Optional[np.ndarray] = None

    @abstractmethod
    def route(self, key: Any, now: float = 0.0) -> int:
        """The worker that must handle the message with this ``key``.

        ``now`` is the message timestamp, for time-aware schemes; every
        registered scheme decides on message counts alone.
        """

    def candidates(self, key: Any) -> Tuple[int, ...]:
        """The workers this key *may* be routed to.

        Key grouping returns a single worker; PKG returns its d hash
        choices; shuffle grouping may return every worker.  Used by
        stateful applications to know which workers hold a key's
        partial state (e.g. the 2-probe queries of Section VI-A).
        """
        return tuple(range(self.num_workers))

    def route_chunk(
        self, keys: Sequence[Any], timestamps: Optional[Sequence[float]] = None
    ) -> np.ndarray:
        """Route one key chunk; returns int64 worker ids.

        Must produce exactly the assignments a per-message
        :meth:`route` replay would (the chunk equivalence contract,
        enforced for every registered scheme by the test suite).  The
        generic fallback loops over :meth:`route`, honouring
        ``timestamps`` entry-by-entry when given; subclasses override
        with vectorised versions (stateless schemes) or precomputed-
        hash chunk loops (stateful schemes).
        """
        keys = np.asarray(keys)
        m = int(keys.size)
        out = np.empty(m, dtype=np.int64)
        if timestamps is None:
            for i in range(m):
                out[i] = self.route(keys[i])
        else:
            if len(timestamps) != m:
                raise ValueError(
                    f"timestamps has {len(timestamps)} entries for {m} keys"
                )
            for i in range(m):
                out[i] = self.route(keys[i], float(timestamps[i]))
        return out

    def reset(self) -> None:
        """Clear any accumulated routing state (masks survive)."""

    # -- worker masking (reroute recovery) ----------------------------------

    @property
    def masked_workers(self) -> Tuple[int, ...]:
        """Workers currently masked out of service, ascending."""
        return tuple(sorted(self._masked))

    def mask_worker(self, worker: int) -> None:
        """Remove ``worker`` from the effective candidate set mid-stream.

        Rebuilds the deputy map over the surviving workers: every
        masked worker ``d`` forwards to ``alive[d % len(alive)]``, a
        deterministic spread so two dead workers don't pile onto one
        survivor.  Raises when masking would leave no worker alive.
        Idempotent per worker.
        """
        worker = int(worker)
        if not 0 <= worker < self.num_workers:
            raise ValueError(
                f"worker must be in [0, {self.num_workers}), got {worker}"
            )
        if worker in self._masked:
            return
        alive = [
            w
            for w in range(self.num_workers)
            if w != worker and w not in self._masked
        ]
        if not alive:
            raise RuntimeError(
                f"cannot mask worker {worker}: no workers would remain"
            )
        self._masked.add(worker)
        mask_map = np.arange(self.num_workers, dtype=np.int64)
        for dead in self._masked:
            mask_map[dead] = alive[dead % len(alive)]
        self._mask_map = mask_map
        self._on_mask()

    def remap_masked(self, assignments: np.ndarray) -> np.ndarray:
        """Rewrite masked workers in routed ``assignments`` to deputies.

        The identity gather when nothing is masked; the engine applies
        this to every routed chunk, which is what makes reroute
        recovery correct for *every* scheme regardless of whether its
        internals know about the mask.
        """
        if self._mask_map is None:
            return assignments
        return self._mask_map[assignments]

    def remap_worker(self, worker: int) -> int:
        """The live deputy for ``worker`` (itself when not masked)."""
        if self._mask_map is None:
            return int(worker)
        return int(self._mask_map[worker])

    def _on_mask(self) -> None:
        """Hook run after the mask changes (default: nothing to do).

        Schemes with maskable state (a load vector, rebalance targets,
        routing tables) may override it; everything else is covered
        by :meth:`remap_masked` alone.
        """

    def memory_entries(self) -> int:
        """Routing-table entries this partitioner must store.

        The paper's practicality argument (Sections II-B, III-A): any
        scheme that remembers a per-key choice needs a routing table
        with one entry per key, which is prohibitive at billions of
        keys.  KG/SG/PKG return 0; static PoTC and the greedy baselines
        return the number of keys seen.
        """
        return 0

    def __repr__(self) -> str:
        return f"{type(self).__name__}(num_workers={self.num_workers})"


#: load sentinel written into masked workers' slots: far above any real
#: count (streams are < 2^40 messages) yet still int64-safe under the
#: +1 increment of every send.
MASKED_LOAD = 2**62


class LoadAwarePartitioner(Partitioner):
    """A scheme that routes on this source's own per-worker load vector.

    ``self.loads`` (int64) counts the messages this instance -- one
    source PEI -- has sent to each worker: the paper's *local* load
    estimate (Section III-B), which needs no communication with the
    workers.  The chunk kernels of :mod:`repro.core.engine` read and
    update the same vector in place, so :meth:`route` and
    :meth:`route_chunk` share one state.  The global-oracle and probing
    comparisons live only in :class:`repro.core.engine.InterleavedRouter`.

    Masking poisons dead workers' slots with :data:`MASKED_LOAD`, so a
    d-choice draw that includes a dead worker resolves to a live one
    whenever the candidate set has any; the sentinel survives
    :meth:`reset`.
    """

    def __init__(self, num_workers: int) -> None:
        super().__init__(num_workers)
        self.loads = np.zeros(self.num_workers, dtype=np.int64)

    def _send(self, candidates: Sequence[int]) -> int:
        """Send one message to the least-loaded of ``candidates``.

        Ties break toward the earliest candidate; candidate order comes
        from independent hashes, so no systematic bias results.
        """
        loads = self.loads
        best = candidates[0]
        best_load = loads[best]
        for c in candidates[1:]:
            if loads[c] < best_load:
                best, best_load = c, loads[c]
        loads[best] += 1
        return int(best)

    def reset(self) -> None:
        self.loads[:] = 0
        self._on_mask()

    def _on_mask(self) -> None:
        if self._masked:
            self.loads[list(self._masked)] = MASKED_LOAD
