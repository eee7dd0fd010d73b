"""The d -> n limit of the Greedy-d process: least-loaded routing.

Section IV observes that "when d >> n ln n, all n bins are valid
choices, and we obtain shuffle grouping".  This partitioner routes every
message to the globally least-loaded worker regardless of key -- the
degenerate end of the choice spectrum, used by the d-choices ablation
to anchor the curve, and equivalent to shuffle grouping in balance while
destroying all key locality.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

import numpy as np

from repro.api.registry import register
from repro.core.engine import least_loaded_chunk
from repro.partitioning.base import LoadAwarePartitioner


@register(
    "least-loaded",
    aliases=("ll",),
    description="route to the globally least-loaded worker (d = W limit)",
)
class LeastLoaded(LoadAwarePartitioner):
    """Route each message to the least-loaded worker (d = W choices)."""

    name = "least-loaded"

    def __init__(self, num_workers: int) -> None:
        super().__init__(num_workers)
        self._all_workers = tuple(range(num_workers))

    def route(self, key: Any, now: float = 0.0) -> int:
        return self._send(self._all_workers)

    def route_chunk(
        self, keys: Sequence[Any], timestamps: Optional[Sequence[float]] = None
    ) -> np.ndarray:
        return least_loaded_chunk(len(keys), self.loads)
