"""Worker side of the sharded runtime: drain, serve, account privately.

A worker owns one ring (single consumer) and two private accumulators
-- a message count and a :class:`~repro.queueing.latency.LatencyStore`
sojourn sketch -- that nothing else writes.  This is the
privatize-then-reduce discipline: accumulate into per-worker private
state with no synchronisation at all, publish a checkpoint snapshot
into a single-writer slot of the shared progress array every
``checkpoint_interval`` messages, and reduce the full private state
exactly once at shutdown (the report the engine merges).  No CAS, no
locks, no shared hot counters.

**Heartbeats.**  The shared progress block carries two single-writer
lanes per worker: the *count* lane (checkpoint snapshots, as before)
and a *beat* lane the worker bumps on every drain step -- including
idle ones -- so the source can tell "alive but idle" from "gone".  A
worker that is dead, or stalled by an injected fault, stops beating;
that silence is exactly what the supervisor's liveness deadline
measures (:mod:`repro.runtime.supervision`).

**Fault injection.**  A :class:`~repro.runtime.faults.FaultState`
built from the worker's slice of the :class:`~repro.runtime.faults.
FaultPlan` is advanced inside :meth:`WorkerLoop.step`: batches are
clipped so message-count triggers fire on exact boundaries, kills are
abrupt (``os._exit`` in process mode -- no report, no checkpoint, no
cleanup), stalls suppress draining *and* heartbeats, slow multiplies
the service cost, and drop silently discards messages (consumed from
the ring, never counted -- the engine accounts them as *lost*).

:class:`WorkerLoop` holds that logic once, for both deployment modes:
the real multi-process engine runs it inside :func:`worker_main` (a
module-level, picklable entrypoint -- the REPRO004 contract, same as
``parallel_map`` cells), and the simulated-rings fallback calls
:meth:`WorkerLoop.step` inline from the source loop.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.queueing.latency import DEFAULT_RELATIVE_ERROR, LatencyStore
from repro.runtime.backpressure import RingStallError
from repro.runtime.faults import FaultSpec, FaultState
from repro.runtime.ring import SpscRing

__all__ = [
    "FAULT_KILL_EXIT",
    "DRAIN_TIMEOUT_EXIT",
    "WorkerSpec",
    "WorkerLoop",
    "worker_main",
]

#: seconds an idle real-process worker sleeps before re-polling its ring.
_IDLE_SLEEP = 20e-6
#: largest single sleep a stalled process-mode worker takes (keeps the
#: stall interruptible by terminate/kill escalation).
_STALL_SLEEP = 5e-3
#: per-message service floor a fired ``slow`` fault multiplies when the
#: configured service cost is zero (so chaos plans still bite).
_SLOW_FLOOR = 1e-6

#: exit code of a worker killed by an injected ``kill`` fault.
FAULT_KILL_EXIT = 73
#: exit code of a worker whose bounded drain saw no producer progress.
DRAIN_TIMEOUT_EXIT = 71


@dataclass(frozen=True)
class WorkerSpec:
    """Plain-data description of one worker (picklable under spawn)."""

    worker_id: int
    num_workers: int
    #: shared-memory block name of this worker's ring.
    ring_name: str
    #: shared-memory block name of the cluster-wide progress block
    #: (2 int64 lanes per worker: counts then beats).
    progress_name: str
    capacity: int
    #: seconds of simulated per-message service cost (busy-wait).
    service_cost: float
    #: messages between checkpoint publications to the progress array.
    checkpoint_interval: int
    #: seconds of no ring progress before the drain loop gives up (see
    #: drain_until_done).
    drain_deadline: float
    #: LatencyStore relative error for the sojourn sketch.
    relative_error: float = DEFAULT_RELATIVE_ERROR
    #: largest batch one drain step pops.
    max_batch: int = 4096
    #: record every popped message id in the final report ("indices").
    capture_indices: bool = False
    #: this worker's slice of the fault plan (injection harness).
    faults: Tuple[FaultSpec, ...] = ()


def _busy_wait(seconds: float) -> None:
    """Occupy the CPU for ``seconds`` (the simulated service cost).

    Spins on the monotonic clock: the duration models real work, so it
    must consume real time -- sleep would let the OS run the producer
    and understate contention.
    """
    if seconds <= 0:
        return
    # Service cost is elapsed real time by definition (REPRO002 noqa:
    # this measures/creates wall time on purpose; no routing decision
    # or load count depends on the values read here).
    deadline = time.perf_counter() + seconds  # repro: noqa[REPRO002]
    while time.perf_counter() < deadline:  # repro: noqa[REPRO002]
        pass


class WorkerLoop:
    """One worker's drain loop, private accumulators, and fault machine."""

    def __init__(
        self,
        worker_id: int,
        ring: SpscRing,
        progress: np.ndarray,
        *,
        service_cost: float = 0.0,
        checkpoint_interval: int = 4096,
        relative_error: float = DEFAULT_RELATIVE_ERROR,
        max_batch: int = 4096,
        capture_indices: bool = False,
        beats: Optional[np.ndarray] = None,
        faults: Tuple[FaultSpec, ...] = (),
        hard_exit: bool = False,
        allow_sleep: bool = False,
    ) -> None:
        if checkpoint_interval < 1:
            raise ValueError(
                f"checkpoint_interval must be >= 1, got {checkpoint_interval}"
            )
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if service_cost < 0:
            raise ValueError(f"service_cost must be >= 0, got {service_cost}")
        self.worker_id = int(worker_id)
        self.ring = ring
        self.progress = progress
        self.beats = beats
        self.service_cost = float(service_cost)
        self.checkpoint_interval = int(checkpoint_interval)
        self.max_batch = int(max_batch)
        #: private accumulators -- this worker is the only writer.
        self.count = 0
        self.latency = LatencyStore(relative_error)
        self.checkpoints_published = 0
        self._since_checkpoint = 0
        self._beats_sent = 0
        #: crash flag: a killed worker never consumes or reports again.
        self.dead = False
        #: messages silently discarded by a fired ``drop`` fault.
        self.fault_dropped = 0
        #: process mode: a kill fault _exit()s instead of setting flags.
        self.hard_exit = bool(hard_exit)
        #: process mode: stalls may sleep (a simulated loop must not
        #: block its caller, which *is* the source).
        self.allow_sleep = bool(allow_sleep)
        self._faults: Optional[FaultState] = None
        if faults:
            # Fault timing is wall-clock by design (the harness injects
            # real-world failure timing; REPRO002 noqa -- no routing
            # decision or load count reads these values).
            self._faults = FaultState(
                specs=tuple(faults),
                started_at=time.perf_counter(),  # repro: noqa[REPRO002]
            )
        #: popped message ids, batch by batch (tests assert FIFO order
        #: against the replay's assignments; None = not capturing).
        self.captured: Optional[List[np.ndarray]] = (
            [] if capture_indices else None
        )

    @classmethod
    def from_spec(
        cls, spec: WorkerSpec, ring: SpscRing, progress: np.ndarray,
        beats: Optional[np.ndarray] = None,
        hard_exit: bool = False,
        allow_sleep: bool = False,
    ) -> "WorkerLoop":
        return cls(
            spec.worker_id,
            ring,
            progress,
            service_cost=spec.service_cost,
            checkpoint_interval=spec.checkpoint_interval,
            relative_error=spec.relative_error,
            max_batch=spec.max_batch,
            capture_indices=spec.capture_indices,
            beats=beats,
            faults=spec.faults,
            hard_exit=hard_exit,
            allow_sleep=allow_sleep,
        )

    @property
    def fired_faults(self) -> Tuple[FaultSpec, ...]:
        """Faults that have fired on this worker so far."""
        if self._faults is None:
            return ()
        return tuple(self._faults.fired)

    def stall_remaining(self, now: float) -> float:
        """Seconds left in the current injected stall (0.0 = none).

        Read-only (unlike ``FaultState.stall_remaining`` it never
        clears expired stalls): the simulated backend's supervisor uses
        it to decide between sleeping a stall out and condemning the
        worker, without perturbing the fault machine.
        """
        faults = self._faults
        if faults is None or faults.stalled_until is None:
            return 0.0
        if math.isinf(faults.stalled_until):
            return math.inf
        return max(float(faults.stalled_until) - now, 0.0)

    def _beat(self) -> None:
        """Bump this worker's single-writer heartbeat lane."""
        if self.beats is not None:
            self._beats_sent += 1
            self.beats[self.worker_id] = self._beats_sent

    def _die(self) -> None:
        """Abrupt crash: no report, no checkpoint, no cleanup."""
        self.dead = True
        if self.hard_exit:
            os._exit(FAULT_KILL_EXIT)

    def step(self) -> int:
        """Drain one batch from the ring; returns ring slots consumed.

        Returns 0 when the ring is empty *or* the worker is dead or
        mid-stall -- callers distinguish via :attr:`dead` and the ring
        state, never via the return value alone.
        """
        if self.dead:
            return 0
        faults = self._faults
        limit = self.max_batch
        if faults is not None:
            # Fault triggers are wall-clock by design (REPRO002 noqa on
            # this injection-harness read; see __init__).
            now = time.perf_counter()  # repro: noqa[REPRO002]
            if faults.stall_remaining(now) > 0.0:
                # Stalled: no drain, no heartbeat (that silence is the
                # signal supervision detects).
                if self.allow_sleep:
                    time.sleep(
                        min(faults.stall_remaining(now), _STALL_SLEEP)
                    )
                return 0
            faults.poll(self.count, now)
            if faults.killed:
                self._die()
                return 0
            if faults.stalled_until is not None:
                return 0
            budget = faults.message_budget(self.count)
            if budget is not None:
                limit = min(limit, max(budget, 1))
        self._beat()
        indices, stamps = self.ring.try_pop(limit)
        consumed = int(indices.size)
        if consumed == 0:
            return 0
        n = consumed
        if faults is not None and faults.drop_remaining > 0:
            # A fired drop fault discards the leading messages of the
            # batch: consumed from the ring, never counted or measured.
            discard = min(n, faults.drop_remaining)
            faults.drop_remaining -= discard
            self.fault_dropped += discard
            indices = indices[discard:]
            stamps = stamps[discard:]
            n -= discard
        if n == 0:
            return consumed
        if self.captured is not None:
            self.captured.append(indices.copy())
        service = self.service_cost
        if faults is not None and faults.service_factor != 1.0:
            service = max(service, _SLOW_FLOOR) * faults.service_factor
        if service > 0.0:
            _busy_wait(n * service)
        # Sojourn = dequeue-complete minus enqueue stamp: a real
        # end-to-end wall measurement, the quantity throughput_e2e
        # reports (REPRO002 noqa: measurement is the purpose; the
        # values never feed a routing decision or a load count).
        now_done = time.perf_counter()  # repro: noqa[REPRO002]
        self.latency.record_many(now_done - stamps)
        self.count += n
        self._since_checkpoint += n
        if self._since_checkpoint >= self.checkpoint_interval:
            self.publish_checkpoint()
        return consumed

    def publish_checkpoint(self) -> None:
        """Snapshot the private count into this worker's progress slot.

        The slot has exactly one writer (this worker), so a plain
        aligned int64 store is the whole reduction protocol.
        """
        self.progress[self.worker_id] = self.count
        self.checkpoints_published += 1
        self._since_checkpoint = 0

    def drain_until_done(self, deadline: float) -> None:
        """Run until the producer marked done and the ring is empty.

        ``deadline`` bounds the wait: after that many seconds with no
        ring progress (no pops, no end-of-stream), the loop raises
        :class:`~repro.runtime.backpressure.RingStallError` instead of
        waiting forever on a dead producer.  The clock counts *any*
        no-progress time -- a worker wedged by its own stall fault
        trips the same deadline, which is what lets the supervisor
        drive a stalled simulated loop to condemnation.  A worker
        crashed by a kill fault returns immediately (its accumulators
        are already forfeit).
        """
        idle_started: Optional[float] = None
        while not self.dead:
            if self.step() > 0:
                idle_started = None
                continue
            if self.ring.exhausted:
                self.publish_checkpoint()
                return
            # Idle-wait bounding is supervision telemetry, not a routing
            # input (REPRO002 noqa).
            now = time.perf_counter()  # repro: noqa[REPRO002]
            if idle_started is None:
                idle_started = now
            elif now - idle_started >= deadline:
                raise RingStallError(
                    f"worker {self.worker_id} saw no ring progress "
                    f"for {deadline:g}s (producer dead?)"
                )
            time.sleep(_IDLE_SLEEP)

    def kill(self) -> None:
        """Supervisor-side condemnation (simulated mode): stop consuming."""
        self.dead = True

    def report(self) -> Dict[str, Any]:
        """The worker's final reduced state (sent to the engine once)."""
        report: Dict[str, Any] = {
            "worker_id": self.worker_id,
            "count": self.count,
            "checkpoints_published": self.checkpoints_published,
            "latency": self.latency.to_dict(),
            "fault_dropped": self.fault_dropped,
        }
        if self.captured is not None:
            report["indices"] = (
                np.concatenate(self.captured)
                if self.captured
                else np.empty(0, dtype=np.int64)
            )
        return report


def worker_main(spec: WorkerSpec, result_queue: Any) -> None:
    """Process entrypoint: attach shared state, drain, report, exit.

    Module-level by necessity, not style: under the ``spawn`` start
    method the target is pickled by qualified name (REPRO004).
    """
    from multiprocessing import shared_memory

    ring_shm = shared_memory.SharedMemory(name=spec.ring_name)
    progress_shm = shared_memory.SharedMemory(name=spec.progress_name)
    ring = lanes = progress = beats = loop = None
    try:
        ring = SpscRing.from_buffer(ring_shm.buf, spec.capacity)
        lanes = np.ndarray(
            (2 * spec.num_workers,), dtype=np.int64, buffer=progress_shm.buf
        )
        progress = lanes[: spec.num_workers]
        beats = lanes[spec.num_workers :]
        loop = WorkerLoop.from_spec(
            spec, ring, progress, beats=beats, hard_exit=True, allow_sleep=True
        )
        try:
            loop.drain_until_done(deadline=spec.drain_deadline)
        except RingStallError:
            # Producer went silent past the deadline: exit with a
            # recognisable code instead of hanging as an orphan.
            raise SystemExit(DRAIN_TIMEOUT_EXIT) from None
        result_queue.put(loop.report())
    finally:
        # Views must die before the mappings close.
        del ring, progress, beats, lanes, loop
        ring_shm.close()
        progress_shm.close()
