"""Static power of two choices (PoTC) *without* key splitting.

The strawman of Section III-A: to keep key-grouping semantics, the first
time a key appears it is bound to the lesser-loaded of its two hash
candidates, and the binding is remembered forever in a routing table.
This requires (a) one table entry per key -- impractical at stream
scale -- and (b) global agreement among sources; the paper shows it is
*also* much worse at balancing than PKG (Table II), because the binding
cannot adapt once the key's frequency is revealed.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.api.registry import register
from repro.core.chunks import hashed_choices
from repro.hashing import HashFamily
from repro.partitioning.base import LoadAwarePartitioner
from repro.partitioning.greedy import _bind_chunk_with_table


@register(
    "potc",
    aliases=("static-potc",),
    description="static power of two choices with a routing table",
)
class StaticPoTC(LoadAwarePartitioner):
    """PoTC applied to key grouping: first-sight binding of key to choice.

    A new key binds to the less loaded of its two hash choices in this
    instance's ``loads``.  For a single source that vector is the true
    load, the most favourable setting for PoTC; it loses to PKG even so.
    """

    name = "PoTC"

    def __init__(
        self,
        num_workers: int,
        hash_family: Optional[HashFamily] = None,
        seed: int = 0,
    ) -> None:
        super().__init__(num_workers)
        self.family = hash_family or HashFamily(size=2, seed=seed)
        self.routing_table: Dict = {}

    def candidates(self, key: Any) -> Tuple[int, ...]:
        if key in self.routing_table:
            return (self.routing_table[key],)
        return self.family.choices(key, self.num_workers)

    def route(self, key: Any, now: float = 0.0) -> int:
        worker = self.routing_table.get(key)
        if worker is None:
            worker = self._send(self.family.choices(key, self.num_workers))
            self.routing_table[key] = worker
        else:
            self.loads[worker] += 1
        return worker

    def route_chunk(
        self, keys: Sequence[Any], timestamps: Optional[Sequence[float]] = None
    ) -> np.ndarray:
        return _bind_chunk_with_table(
            self,
            keys,
            choices_for=lambda unique: hashed_choices(
                self.family, unique, self.num_workers
            ),
        )

    def memory_entries(self) -> int:
        return len(self.routing_table)

    def reset(self) -> None:
        self.routing_table.clear()
        super().reset()
