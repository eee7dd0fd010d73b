"""What the source does when a worker's ring is full.

A bounded ring plus a slow consumer forces a choice, and the right one
depends on the deployment: a batch replay wants **block** (lossless,
throughput throttled to the slowest worker), a latency-critical path
with an upstream retry wants **drop** (lossy, load shed at the source,
every drop accounted), and a low-latency pinned-core deployment wants
**spin** (lossless, burns CPU instead of sleeping through the scheduler).

:func:`push_with_backpressure` drives one per-worker push to
completion under the chosen policy and returns exact drop accounting.
The ``drain`` hook is how the simulated-rings mode stays lossless in a
single process: with producer and consumer sharing a thread, "wait for
the consumer" must mean "run the consumer", so the engine passes each
worker's drain step as the callback and the policies call it instead of
sleeping.

**No wait here is unbounded.**  A crashed or wedged consumer must never
hang the source, so a lossless push needs a way to tell a slow consumer
from a dead one: the ``alive`` hook, asked (without blocking) at each
full-ring retry, or the ``drain`` hook, whose lack of progress on a
full ring means the same.  A push whose worker is no longer alive
raises :class:`RingStallError` carrying exact partial-progress
accounting (``pushed``/``stalls``), which is what lets the supervision
layer (:mod:`repro.runtime.supervision`) resume or reroute the
remainder of the push after recovery instead of guessing what made it
into the ring.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

__all__ = [
    "POLICIES",
    "PushOutcome",
    "RingStallError",
    "push_with_backpressure",
]

from repro.runtime.ring import SpscRing

#: recognised backpressure policies.
POLICIES: Tuple[str, ...] = ("block", "spin", "drop")

#: seconds the block policy sleeps between full-ring retries.
_BLOCK_SLEEP = 50e-6
#: busy iterations the spin policy burns before degrading to a sleep.
_SPIN_ITERATIONS = 2_000


class RingStallError(RuntimeError):
    """A push found its ring full and its worker no longer alive.

    Blocking on a dead or wedged worker would hang the source, so the
    push gives up loudly instead.  ``pushed`` and ``stalls`` carry the
    partial progress of the failed call: the leading ``pushed``
    messages *are* in the ring (the consumer may or may not have
    processed them), everything after is still the caller's to deliver
    -- exactly what recovery needs to resume.
    """

    def __init__(
        self, message: str, *, pushed: int = 0, stalls: int = 0
    ) -> None:
        super().__init__(message)
        self.pushed = int(pushed)
        self.stalls = int(stalls)


@dataclass
class PushOutcome:
    """Exact accounting of one backpressured push."""

    pushed: int
    dropped: int
    #: times the producer found the ring full and had to wait/shed.
    stalls: int


def push_with_backpressure(
    ring: SpscRing,
    indices: np.ndarray,
    stamps: np.ndarray,
    policy: str,
    drain: Optional[Callable[[], int]] = None,
    alive: Optional[Callable[[], bool]] = None,
) -> PushOutcome:
    """Push every message (or account for every drop) under ``policy``.

    ``block`` and ``spin`` guarantee ``dropped == 0``: the call returns
    only once the ring accepted all messages, or raises
    :class:`RingStallError` once the ring is full and the worker is no
    longer alive.  ``drop`` pushes what fits immediately and sheds the
    rest.  On a full ring a lossless push first runs ``drain``, when
    given (simulated-rings mode: the consumer runs in this thread),
    then asks ``alive``; with no ``alive`` hook a drain that made no
    progress means a dead consumer.  A lossless push with neither hook
    could wait forever and is rejected.
    """
    if policy not in POLICIES:
        raise ValueError(
            f"policy must be one of {POLICIES}, got {policy!r}"
        )
    if policy != "drop" and drain is None and alive is None:
        raise ValueError(
            "a lossless push needs a drain or an alive hook to bound its wait"
        )
    total = int(indices.size)
    offset = 0
    stalls = 0
    while offset < total:
        pushed = ring.try_push(indices[offset:], stamps[offset:])
        if pushed:
            offset += pushed
            continue
        stalls += 1
        if policy == "drop":
            return PushOutcome(pushed=offset, dropped=total - offset, stalls=stalls)
        if drain is not None and drain() > 0:
            continue
        if alive is None or not alive():
            raise RingStallError(
                "ring is full and its worker is dead or wedged",
                pushed=offset,
                stalls=stalls,
            )
        if policy == "spin":
            for _ in range(_SPIN_ITERATIONS):
                if ring.free:
                    break
            else:
                time.sleep(_BLOCK_SLEEP)
        else:  # block
            time.sleep(_BLOCK_SLEEP)
    return PushOutcome(pushed=total, dropped=0, stalls=stalls)
