"""PARTIAL KEY GROUPING -- the paper's contribution.

PKG = power of two choices + *key splitting* + *local load estimation*:

* each key has d = 2 candidate workers, ``H1(k) mod W`` and
  ``H2(k) mod W``;
* every message is routed to whichever candidate is currently less
  loaded *according to this source's own estimate* -- the key may end up
  split across both candidates (key splitting), so no routing table or
  inter-source agreement is needed;
* the estimate is purely local: each instance (one source) counts
  only the messages it sent itself, in the int64 vector ``self.loads``
  of :class:`~repro.partitioning.base.LoadAwarePartitioner`.  The
  paper's global-oracle (G) and probing (LP) comparisons run on
  :class:`repro.core.engine.InterleavedRouter`.

This implements the Greedy-d scheme of Section IV for arbitrary d;
d = 2 is the paper's PKG (d > 2 "only brings constant factor
improvements", reproduced by ``benchmarks/bench_ablation_dchoices.py``).
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Tuple

import numpy as np

from repro.api.registry import register
from repro.core.chunks import hashed_choices
from repro.core.engine import greedy_route_chunk
from repro.hashing import HashFamily
from repro.partitioning.base import LoadAwarePartitioner


@register(
    "pkg",
    aliases=("partial-key-grouping", "greedy-d"),
    params={"d": "num_choices"},
    description="PARTIAL KEY GROUPING (Greedy-d with key splitting)",
)
class PartialKeyGrouping(LoadAwarePartitioner):
    """Greedy-d stream partitioner with key splitting.

    Parameters
    ----------
    num_workers:
        Downstream parallelism W.
    num_choices:
        d, the number of hash choices per key (default 2 = PKG).
    hash_family:
        The d independent hash functions; built from ``seed`` if absent.
        Sources sharing an edge **must** share a family (same seed) so
        that a key's candidate set is consistent across sources.
    """

    name = "PKG"

    def __init__(
        self,
        num_workers: int,
        num_choices: int = 2,
        hash_family: Optional[HashFamily] = None,
        seed: int = 0,
    ) -> None:
        super().__init__(num_workers)
        if hash_family is not None and len(hash_family) != num_choices:
            raise ValueError(
                f"hash family has {len(hash_family)} functions but "
                f"num_choices={num_choices}"
            )
        self.num_choices = int(num_choices)
        self.family = hash_family or HashFamily(size=num_choices, seed=seed)

    def candidates(self, key: Any) -> Tuple[int, ...]:
        """The d candidate workers of ``key`` (duplicates preserved)."""
        return self.family.choices(key, self.num_workers)

    def route(self, key: Any, now: float = 0.0) -> int:
        return self._send(self.candidates(key))

    def route_chunk(
        self, keys: Sequence[Any], timestamps: Optional[Sequence[float]] = None
    ) -> np.ndarray:
        """Route one chunk with hashing hoisted out of the loop.

        The d hash columns are precomputed for the whole chunk (fully
        vectorised for integer keys, once per *distinct* key
        otherwise); the remaining per-key work is an argmin over the d
        candidate loads, run by the Greedy-d chunk kernel on
        ``self.loads``.  Load counts ignore ``now``, so timestamps do
        not matter.
        """
        choices = hashed_choices(self.family, keys, self.num_workers)
        return greedy_route_chunk(choices, self.loads)

    def __repr__(self) -> str:
        return (
            f"PartialKeyGrouping(num_workers={self.num_workers}, "
            f"num_choices={self.num_choices})"
        )
