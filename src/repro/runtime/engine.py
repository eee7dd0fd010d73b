"""The sharded runtime: source-routes chunks into per-worker rings.

Topology: one **source** (this process) routes fixed-size key chunks
through any registered partitioner -- the exact
``Partitioner.route_chunk`` chunking that :func:`repro.core.engine.
replay_stream` uses -- and scatters each routed chunk into W bounded
SPSC rings, one per worker.  W workers drain their rings concurrently,
apply the per-message service cost, and keep private accumulators that
merge once at shutdown (:mod:`repro.runtime.worker`).

**Transport path.**  Each routed chunk is grouped by destination with a
*stable counting-sort scatter* (:func:`repro.core.chunks.
counting_scatter`: one ``bincount``, cumulative offsets, one linear
scatter pass -- O(n + W), not a comparison sort), then appended to
per-worker **coalescing staging buffers**.  A worker's stage flushes to
its ring only when full (``flush_size`` ids) or at end-of-stream, with
one wall-clock stamp per flush written into a preallocated stamp lane
-- so ring pushes, clock reads and stamp allocations are amortised over
``flush_size`` messages instead of paid per (chunk, worker).  Because
the scatter is stable and each stage drains in append order, every
worker still sees its sub-stream in arrival order (FIFO end to end) at
*any* flush size.  The input stream itself may be a materialised array
or a bounded-memory :class:`~repro.core.chunks.ChunkSource`.  Per-stage
wall time (route / scatter / flush-stall / drain / recovery) is
measured and reported in ``RuntimeResult.stage_seconds``.

**Determinism contract.**  Every routing decision happens in the source,
on the same chunk boundaries, through the same partitioner state
evolution as the single-process replay.  Workers only *count* what
arrives.  Under a lossless policy (``block``/``spin``) the per-worker
counts are therefore byte-identical to ``replay_stream(...).final_loads``
for every registered scheme -- by construction, not by luck -- no matter
how the OS schedules the worker processes.  Ring timing can change
*when* a message is processed, never *where*.  (Consequently the
runtime wires no completion feedback back into partitioners: ``jbsq``
here is its deterministic replay path, least-loaded-of-d over counters.)

**Supervision & recovery.**  The source doubles as supervisor: workers
heartbeat into the second lane of the progress block on every drain
step, pushes carry a *no-progress* deadline
(:class:`~repro.runtime.backpressure.RingStallError`), and a tripped
deadline asks the backend one question -- did the worker show life
within ``liveness_deadline``?  A worker that did not is condemned
(``"exit"`` if it had died, ``"wedged"`` if it went silent;
terminate->kill escalated).  One death handler then applies
``RuntimeConfig.recovery``, mid-stream and at end-of-stream alike:

* ``fail``    -- unwind cleanly; the result is partial and labeled
  ``status="failed"`` with exact loss accounting, never a hang.
* ``reroute`` -- mask the dead worker out of the partitioner
  (:meth:`~repro.partitioning.base.Partitioner.mask_worker`); its
  undelivered traffic and future decisions go to a deterministic
  deputy, its undrained ring contents are counted *lost*, and the run
  completes ``status="degraded"``.
* ``restart`` -- respawn the worker over the same (reset) ring and
  deterministically replay everything it had ever been delivered: the
  replay re-routes the stream prefix from a forked
  :class:`~repro.core.chunks.ChunkSource` through a pristine copy of
  the partitioner, so the respawned worker rebuilds the exact
  sub-stream the dead one lost and final per-worker counts are
  byte-identical to a fault-free run.  Faults (injected or genuine)
  during the replay recurse, bounded by ``restart_limit``.

The conservation law ``sent == processed + dropped + lost`` is asserted
on every path: ``lost`` is dead workers' delivered-but-uncheckpointed
pipeline plus fault-discarded messages, and aborted runs additionally
report the never-delivered remainder (``undelivered``).

Two interchangeable backends:

* **process** -- real worker processes over
  ``multiprocessing.shared_memory`` rings; requires working process
  spawning and /dev/shm (:func:`runtime_available` probes once).
* **simulated** -- the same rings and worker loops in-process; "wait
  for the consumer" becomes "run the consumer" via the backpressure
  ``drain`` hook, so the block policy cannot deadlock in one thread.
  This is the fallback for 1-core/locked-down containers, mirroring
  ``repro.core.parallel``'s serial fallback.  Supervision is mode-
  blind: the simulated backend condemns wedged loops and respawns
  killed ones exactly like the process backend does.
"""

from __future__ import annotations

import abc
import copy
import multiprocessing
import time
from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.core.chunks import (
    DEFAULT_CHUNK_SIZE,
    StreamLike,
    counting_scatter,
    fork_source,
    iter_keyed_chunks,
    stream_length,
)
from repro.core.metrics import StreamingLoadSeries
from repro.queueing.latency import DEFAULT_RELATIVE_ERROR, LatencyStore
from repro.runtime.backpressure import (
    POLICIES,
    PushOutcome,
    RingStallError,
    push_with_backpressure,
)
from repro.runtime.faults import FaultPlan, FaultSpec, consume_cause
from repro.runtime.ring import SpscRing, ring_nbytes
from repro.runtime.supervision import (
    DEFAULT_REAP_TIMEOUT,
    RECOVERY_POLICIES,
    FailureEvent,
    LivenessDetector,
    RunAborted,
    WorkerDeadError,
    reap_process,
)
from repro.runtime.worker import WorkerLoop, WorkerSpec, worker_main

if TYPE_CHECKING:
    from repro.partitioning.base import Partitioner

__all__ = [
    "MODES",
    "RuntimeConfig",
    "RuntimeResult",
    "runtime_available",
    "run_runtime",
]

#: recognised deployment modes ("auto" resolves to one of the others).
MODES = ("auto", "process", "simulated")

#: seconds between supervisor polls while assessing a silent worker.
_ASSESS_POLL = 5e-3
#: seconds between report-queue polls while waiting on a worker report.
_FINISH_POLL = 50e-3
#: seconds to wait for a dead worker's report still in flight.
_REPORT_RACE = 0.2
#: seconds to wait for each worker report/join before giving up.
_JOIN_TIMEOUT = 120.0


@dataclass(frozen=True)
class RuntimeConfig:
    """Knobs of one runtime deployment (not of the routed decisions)."""

    #: slots per worker ring.
    capacity: int = 8192
    #: backpressure policy: "block", "spin" or "drop".
    policy: str = "block"
    #: seconds of simulated per-message service cost in each worker.
    service_cost: float = 0.0
    #: source-side routing chunk (MUST stay replay_stream's default for
    #: count identity; exposed for tests that stress wrap-around).
    chunk_size: int = DEFAULT_CHUNK_SIZE
    #: messages between worker checkpoint publications.
    checkpoint_interval: int = 4096
    #: "process", "simulated", or "auto" (process when available).
    mode: str = "auto"
    #: sojourn-sketch relative error.
    relative_error: float = DEFAULT_RELATIVE_ERROR
    #: largest batch a worker drains per step.
    max_batch: int = 4096
    #: per-worker staging-buffer slots; a worker's stage flushes to its
    #: ring when full or at end-of-stream.  Flush-size choice never
    #: changes routing or per-worker order (the scatter is stable and
    #: stages drain in append order); it only trades ring-push amortis-
    #: ation against stamp granularity.  Under "drop" a flush larger
    #: than ``capacity`` guarantees shedding.
    flush_size: int = 8192
    #: record each worker's popped message ids in its report (tests
    #: use this to assert end-to-end FIFO order; costs memory).
    capture_indices: bool = False
    #: what to do when a worker dies: "fail", "reroute" or "restart".
    recovery: str = "fail"
    #: seeded fault-injection schedule (None = fault-free).
    faults: Optional[FaultPlan] = None
    #: seconds a lossless push may see *no ring progress* before the
    #: stall is escalated to supervision (None = retry-count backstop).
    #: Escalation is an assessment, not a condemnation -- a live,
    #: beating worker just gets the push retried -- so this can be far
    #: tighter than the liveness deadline; it bounds detection latency.
    push_deadline: Optional[float] = 2.0
    #: seconds of heartbeat silence before a worker is condemned.
    liveness_deadline: float = 5.0
    #: worker-side bound: seconds of no ring progress before a real
    #: worker process exits instead of waiting forever on a dead
    #: producer (must exceed the source's longest routing/replay gap).
    drain_deadline: Optional[float] = 120.0
    #: restarts allowed per worker before escalating to a clean abort.
    restart_limit: int = 3

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {self.capacity}")
        if self.flush_size < 1:
            raise ValueError(
                f"flush_size must be >= 1, got {self.flush_size}"
            )
        if self.policy not in POLICIES:
            raise ValueError(
                f"policy must be one of {POLICIES}, got {self.policy!r}"
            )
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.service_cost < 0:
            raise ValueError(
                f"service_cost must be >= 0, got {self.service_cost}"
            )
        if self.recovery not in RECOVERY_POLICIES:
            raise ValueError(
                f"recovery must be one of {RECOVERY_POLICIES}, got "
                f"{self.recovery!r}"
            )
        if self.recovery == "restart" and self.policy == "drop":
            raise ValueError(
                "recovery='restart' requires a lossless policy: source-side "
                "drops are timing-dependent, so a replayed span could not "
                "be byte-identical"
            )
        if self.push_deadline is not None and self.push_deadline <= 0:
            raise ValueError(
                f"push_deadline must be > 0, got {self.push_deadline}"
            )
        if self.liveness_deadline <= 0:
            raise ValueError(
                f"liveness_deadline must be > 0, got {self.liveness_deadline}"
            )
        if self.drain_deadline is not None and self.drain_deadline <= 0:
            raise ValueError(
                f"drain_deadline must be > 0, got {self.drain_deadline}"
            )
        if self.restart_limit < 1:
            raise ValueError(
                f"restart_limit must be >= 1, got {self.restart_limit}"
            )


@dataclass
class RuntimeResult:
    """Outcome of one sharded run: replay metrics + runtime telemetry."""

    #: backend that actually ran ("process" or "simulated").
    mode: str
    policy: str
    num_workers: int
    num_messages: int
    #: per-worker counts as *routed* by the source (post-mask: after a
    #: reroute, traffic counts at the deputy that actually received it).
    routed_loads: np.ndarray
    #: per-worker counts as *processed* by the workers (a dead worker's
    #: entry is its last published checkpoint).
    worker_loads: np.ndarray
    #: per-worker messages shed at the source (all zero unless "drop").
    dropped_per_worker: np.ndarray
    #: times the source found a full ring and had to wait/shed.
    stalls: int
    checkpoint_positions: np.ndarray
    imbalance_series: np.ndarray
    #: merged end-to-end sojourn sketch (enqueue -> processed).
    latency: LatencyStore
    wall_seconds: float
    #: source-side wall breakdown: "route" (partitioner decisions +
    #: balance metrics), "scatter" (counting-sort grouping + staging
    #: appends), "flush_stall" (ring pushes, including every stall the
    #: backpressure policy absorbed), "drain" (end-of-stream wait for
    #: the workers to finish and report), "recovery" (assessment waits,
    #: respawns and span replays).
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    #: staging-buffer flushes performed (ring pushes issued).
    flushes: int = 0
    worker_reports: List[Dict[str, Any]] = field(default_factory=list)
    #: "ok" (fault-free or fully recovered), "degraded" (completed with
    #: dead workers) or "failed" (cleanly aborted, partial results).
    status: str = "ok"
    #: one dict per detected failure (see FailureEvent.to_dict).
    failures: List[Dict[str, Any]] = field(default_factory=list)
    #: workers dead at the end of the run.
    failed_workers: Tuple[int, ...] = ()
    #: workers masked out by reroute recovery.
    masked_workers: Tuple[int, ...] = ()
    #: per-worker messages lost at that worker: a dead worker's
    #: delivered-but-uncheckpointed pipeline, a survivor's
    #: fault-discarded messages.
    lost_per_worker: Optional[np.ndarray] = None
    #: messages routed but never delivered to any ring (aborts only).
    undelivered: int = 0
    #: worker respawns performed by restart recovery.
    restarts: int = 0
    #: pushes that tripped their no-progress deadline.
    stall_timeouts: int = 0
    #: the injected fault plan, in --fault grammar (provenance).
    injected_faults: Tuple[str, ...] = ()

    @property
    def dropped(self) -> int:
        """Total messages shed by the drop policy."""
        return int(self.dropped_per_worker.sum())

    @property
    def processed(self) -> int:
        """Total messages the workers actually processed."""
        return int(self.worker_loads.sum())

    @property
    def sent(self) -> int:
        """Total messages routed by the source."""
        return int(self.routed_loads.sum())

    @property
    def lost(self) -> int:
        """Total messages lost to failures (0 on a clean lossless run)."""
        pipeline = (
            int(self.lost_per_worker.sum())
            if self.lost_per_worker is not None
            else 0
        )
        return pipeline + int(self.undelivered)

    @property
    def conservation_ok(self) -> bool:
        """Whether ``sent == processed + dropped + lost`` holds exactly."""
        return self.sent == self.processed + self.dropped + self.lost

    @property
    def messages_per_second(self) -> float:
        """End-to-end throughput (processed messages over wall time)."""
        return self.processed / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def transport_overhead_ratio(self) -> float:
        """Source wall time over pure routing time (>= 1.0; 1.0 = free).

        The tracked "transport tax": how much slower the sharded path is
        than the routing decisions alone.  0.0 when the route stage was
        too fast to measure.
        """
        route = self.stage_seconds.get("route", 0.0)
        return self.wall_seconds / route if route > 0 else 0.0

    def p99_sojourn(self) -> float:
        """p99 end-to-end sojourn in seconds (0.0 if nothing processed)."""
        return self.latency.quantile(0.99) if self.latency.count else 0.0


# ---------------------------------------------------------------------------
# Availability probe
# ---------------------------------------------------------------------------

#: Whether real worker processes + shared memory work here; None = unknown.
_RUNTIME_USABLE: Optional[bool] = None


def _probe_child(value: Any) -> None:
    """Child half of the probe: flip the shared flag to prove we ran."""
    value.value = 1


def runtime_available() -> bool:
    """Whether the real multi-process backend can run in this environment.

    Probes once per process: create a tiny ``shared_memory`` block *and*
    spawn one child process that demonstrably executes.  Sandboxes that
    block either make "auto" resolve to the simulated backend, exactly
    as ``repro.core.parallel.pool_usable`` gates the sweep executor.
    """
    global _RUNTIME_USABLE
    if _RUNTIME_USABLE is None:
        _RUNTIME_USABLE = _probe()
    return _RUNTIME_USABLE


def _probe() -> bool:
    from multiprocessing import shared_memory

    try:
        shm = shared_memory.SharedMemory(create=True, size=64)
    except OSError:
        return False
    try:
        flag = multiprocessing.Value("i", 0)
        child = multiprocessing.Process(target=_probe_child, args=(flag,))
        child.start()
        child.join(timeout=30.0)
        if child.is_alive():  # pragma: no cover - hung probe child
            reap_process(child)
            return False
        return child.exitcode == 0 and flag.value == 1
    except OSError:
        return False
    finally:
        shm.close()
        try:
            shm.unlink()
        except OSError:  # pragma: no cover - already unlinked
            pass


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------


class _Backend(abc.ABC):
    """What the supervisor needs from a deployment, written once.

    A subclass allocates the storage (local arrays or shared memory),
    hands it to this constructor, and starts, probes, condemns and
    collects its workers.  Pushes, respawn resets and the end-of-stream
    wait are shared, so recovery upstream is mode-blind.  Liveness is
    one question in both modes: :meth:`shows_life`.
    """

    def __init__(
        self,
        config: RuntimeConfig,
        worker_faults: Dict[int, Tuple[FaultSpec, ...]],
        lanes: np.ndarray,
        rings: List[SpscRing],
        names: Optional[List[str]] = None,
    ) -> None:
        """Adopt 2W progress lanes (counts, then beats) and W rings.

        ``names``: shared-memory names of the progress block, then of
        each ring (process mode), carried to the workers by the specs.
        """
        workers = len(rings)
        self.config = config
        lanes[:] = 0
        self.counts: Any = lanes[:workers]
        self.beats: Any = lanes[workers:]
        self.rings = rings
        progress_name, *ring_names = names or [""] * (workers + 1)
        self.specs = [
            WorkerSpec(
                worker_id=w,
                num_workers=workers,
                ring_name=ring_names[w],
                progress_name=progress_name,
                capacity=config.capacity,
                service_cost=config.service_cost,
                checkpoint_interval=config.checkpoint_interval,
                relative_error=config.relative_error,
                max_batch=config.max_batch,
                capture_indices=config.capture_indices,
                faults=worker_faults[w],
                drain_deadline=config.drain_deadline,
            )
            for w in range(workers)
        ]

    def push(self, worker: int, indices: np.ndarray, stamps: np.ndarray) -> PushOutcome:
        """One push under the configured policy and push deadline."""
        return push_with_backpressure(
            self.rings[worker],
            indices,
            stamps,
            self.config.policy,
            drain=self._drain(worker),
            deadline=self.config.push_deadline,
        )

    def respawn(self, worker: int, reason: str) -> None:
        """Replace ``worker`` over its reset ring, minus the fatal fault."""
        self.condemn(worker)
        self.rings[worker].reset()
        self.counts[worker] = 0
        self.beats[worker] = 0
        spec = self.specs[worker]
        self.specs[worker] = replace(spec, faults=consume_cause(spec.faults, reason))
        self._start(worker)

    def finish_one(self, worker: int) -> Dict[str, Any]:
        """``worker``'s final report, or :class:`WorkerDeadError`."""
        started = time.perf_counter()  # repro: noqa[REPRO002]
        while True:
            report = self._take_report(worker, _FINISH_POLL)
            if report is not None:
                return report
            if not self.shows_life(worker):
                # A dead worker's report may still be in flight.
                report = self._take_report(worker, _REPORT_RACE)
                if report is not None:
                    return report
                raise WorkerDeadError(worker, self.condemn(worker))
            if time.perf_counter() - started >= _JOIN_TIMEOUT:  # repro: noqa[REPRO002]
                self.condemn(worker)
                raise WorkerDeadError(worker, "finish-timeout")

    def close(self) -> None:
        pass

    def _drain(self, worker: int) -> Optional[Callable[[], int]]:
        """The push's drain hook (None: the consumer runs on its own)."""
        return None

    @abc.abstractmethod
    def _start(self, worker: int) -> None:
        """Start ``worker`` from ``self.specs[worker]``."""

    @abc.abstractmethod
    def _take_report(self, worker: int, timeout: float) -> Optional[Dict[str, Any]]:
        """``worker``'s final report if it has finished, else None."""

    @abc.abstractmethod
    def shows_life(self, worker: int) -> bool:
        """Whether ``worker`` shows life within the liveness deadline."""

    @abc.abstractmethod
    def condemn(self, worker: int) -> str:
        """Stop ``worker`` for good: ``"exit"`` if it had died, else ``"wedged"``."""


class _SimulatedBackend(_Backend):
    """Rings + worker loops in one process; running replaces waiting.

    Consumers progress only when the source runs them -- through the
    push's drain hook or here -- so showing life means stepping the
    loop, after sleeping out an injected stall the liveness deadline
    can absorb.
    """

    def __init__(
        self,
        num_workers: int,
        config: RuntimeConfig,
        worker_faults: Dict[int, Tuple[FaultSpec, ...]],
    ) -> None:
        super().__init__(
            config,
            worker_faults,
            np.zeros(2 * num_workers, dtype=np.int64),
            [SpscRing.create_local(config.capacity) for _ in range(num_workers)],
        )
        self.loops: Dict[int, WorkerLoop] = {}
        for w in range(num_workers):
            self._start(w)

    def _start(self, worker: int) -> None:
        self.loops[worker] = WorkerLoop.from_spec(
            self.specs[worker], self.rings[worker], self.counts, beats=self.beats
        )

    def _drain(self, worker: int) -> Optional[Callable[[], int]]:
        return self.loops[worker].step

    def shows_life(self, worker: int) -> bool:
        loop = self.loops[worker]
        # Supervision telemetry (REPRO002 noqa): sleep out or condemn.
        stall = loop.stall_remaining(time.perf_counter())  # repro: noqa[REPRO002]
        if stall >= self.config.liveness_deadline:
            return False
        if stall > 0.0:
            time.sleep(stall + 1e-4)
        loop.step()
        return not loop.dead

    def condemn(self, worker: int) -> str:
        loop = self.loops[worker]
        verdict = "exit" if loop.dead else "wedged"
        loop.kill()
        return verdict

    def _take_report(self, worker: int, timeout: float) -> Optional[Dict[str, Any]]:
        loop = self.loops[worker]
        while loop.step() > 0:
            pass
        if loop.dead or not loop.ring.exhausted:
            return None
        loop.publish_checkpoint()
        return loop.report()


class _ProcessBackend(_Backend):
    """Real worker processes over shared-memory rings."""

    def __init__(
        self,
        num_workers: int,
        config: RuntimeConfig,
        worker_faults: Dict[int, Tuple[FaultSpec, ...]],
    ) -> None:
        from multiprocessing import shared_memory

        self._shms: List[Any] = []
        self.processes: Dict[int, multiprocessing.Process] = {}
        self._retired: List[multiprocessing.Process] = []
        self._collected: Dict[int, Dict[str, Any]] = {}
        self.results: Any = None
        self.liveness: Any = None
        try:
            # One progress block (2 int64 lanes per worker), one ring each.
            sizes = [2 * num_workers * 8] + [ring_nbytes(config.capacity)] * num_workers
            for size in sizes:
                self._shms.append(shared_memory.SharedMemory(create=True, size=size))
            super().__init__(
                config,
                worker_faults,
                np.ndarray((2 * num_workers,), dtype=np.int64, buffer=self._shms[0].buf),
                [
                    SpscRing.from_buffer(shm.buf, config.capacity, initialize=True)
                    for shm in self._shms[1:]
                ],
                [shm.name for shm in self._shms],
            )
            self.liveness = LivenessDetector(self.beats, config.liveness_deadline)
            self.results = multiprocessing.Queue()
            for w in range(num_workers):
                self._start(w)
        except BaseException:
            self.close()
            raise

    def _start(self, worker: int) -> None:
        if worker in self.processes:
            self._retired.append(self.processes[worker])
        proc = multiprocessing.Process(
            target=worker_main, args=(self.specs[worker], self.results), daemon=True
        )
        proc.start()
        self.processes[worker] = proc
        self.liveness.forget(worker)

    def shows_life(self, worker: int) -> bool:
        # The source cannot see a real worker's fault machine: a beat
        # after the question is asked is life; an exit, or silence
        # past the deadline, is not.
        proc = self.processes[worker]
        self.liveness.silent_for(worker)  # beats seen before now answer nothing
        while proc.is_alive():
            time.sleep(_ASSESS_POLL)
            silent = self.liveness.silent_for(worker)
            if silent == 0.0:
                return True
            if silent >= self.liveness.deadline:
                return False
        return False

    def condemn(self, worker: int) -> str:
        proc = self.processes[worker]
        verdict = "wedged" if proc.is_alive() else "exit"
        reap_process(proc, DEFAULT_REAP_TIMEOUT)
        return verdict

    def _take_report(self, worker: int, timeout: float) -> Optional[Dict[str, Any]]:
        import queue as queue_module

        # One queue carries every report; others wait in _collected.
        try:
            while worker not in self._collected:
                report = self.results.get(timeout=timeout)
                self._collected[int(report["worker_id"])] = report
        except queue_module.Empty:
            return None
        # A worker that reported must exit cleanly; anything else is a bug.
        proc = self.processes[worker]
        proc.join(timeout=_JOIN_TIMEOUT)
        if proc.exitcode != 0:  # pragma: no cover - reported, then hung or crashed
            reap_process(proc, DEFAULT_REAP_TIMEOUT)
            raise RuntimeError(
                f"worker pid {proc.pid} exited with code {proc.exitcode} after reporting"
            )
        return self._collected.pop(worker)

    def close(self) -> None:
        for proc in [*self.processes.values(), *self._retired]:
            reap_process(proc, DEFAULT_REAP_TIMEOUT)
        if self.results is not None:
            self.results.close()
            self.results.cancel_join_thread()
            self.results = None
        # Drop the numpy views before closing the mappings they borrow.
        self.rings = []
        self.counts = self.beats = self.liveness = None
        for shm in self._shms:
            try:
                shm.close()
                shm.unlink()
            except OSError:  # pragma: no cover - already gone
                pass
        self._shms.clear()


# ---------------------------------------------------------------------------
# Supervision: the source's recovery brain
# ---------------------------------------------------------------------------


class _Supervisor:
    """Delivery accounting + failure assessment + recovery execution.

    Owns every piece of state the conservation law needs: ``delivered``
    (distinct stream messages that first entered each worker's ring --
    restart replays deliberately do *not* increment it, which is what
    makes the replay span ``delivered[w]`` correct even across repeated
    failures), ``dropped`` (source-side sheds), the dead set, and the
    failure log.
    """

    def __init__(
        self,
        backend: _Backend,
        partitioner: "Partitioner",
        config: RuntimeConfig,
        keys: StreamLike,
        times: Optional[np.ndarray],
        series: StreamingLoadSeries,
    ) -> None:
        self.backend = backend
        self.partitioner = partitioner
        self.config = config
        self.keys = keys
        self.times = times
        self.series = series
        self.num_workers = partitioner.num_workers
        self.delivered = np.zeros(self.num_workers, dtype=np.int64)
        self.dropped = np.zeros(self.num_workers, dtype=np.int64)
        self.stalls = 0
        self.stall_timeouts = 0
        self.restarts = 0
        self.restarts_per_worker = [0] * self.num_workers
        self.failures: List[FailureEvent] = []
        self.dead: Set[int] = set()
        self.aborted: Optional[RunAborted] = None
        self.recovery_seconds = 0.0
        #: set by :meth:`collect`: the stream is over, workers drain.
        self.draining = False
        #: pristine partitioner copy for deterministic span replay.
        self._pristine: Optional["Partitioner"] = (
            copy.deepcopy(partitioner) if config.recovery == "restart" else None
        )

    # -- delivery -----------------------------------------------------------

    def deliver(
        self, worker: int, indices: np.ndarray, stamps: np.ndarray
    ) -> None:
        """Supervised first-time delivery to ``worker`` (or its deputy).

        Retries, reroutes or restarts through failures according to the
        recovery policy; on the ``fail`` policy raises
        :class:`RunAborted` after exact partial accounting.
        """
        offset = 0
        total = int(indices.size)
        target = int(worker)
        while offset < total:
            target = self.partitioner.remap_worker(target)
            pushed, dropped, stalled = self._push(
                target, indices[offset:], stamps[offset:total]
            )
            self.delivered[target] += pushed
            self.dropped[target] += dropped
            offset += pushed + dropped
            if stalled:
                self._recover(target)

    def _push(
        self, worker: int, ids: np.ndarray, stamps: np.ndarray
    ) -> Tuple[int, int, bool]:
        """One deadline-bounded push: ``(pushed, dropped, stalled)``."""
        try:
            outcome = self.backend.push(worker, ids, stamps)
        except RingStallError as exc:
            self.stall_timeouts += 1
            self.stalls += exc.stalls
            return exc.pushed, 0, True
        self.stalls += outcome.stalls
        return outcome.pushed, outcome.dropped, False

    # -- the death handler --------------------------------------------------

    def _recover(self, worker: int, reason: Optional[str] = None) -> None:
        """Apply the recovery policy to a dead ``worker``; books the time.

        A stalled push passes no ``reason``: the worker is first asked
        for a sign of life, and a live one just gets its push retried.
        ``collect`` passes the end-of-stream verdict.  While draining,
        a restarted ring is re-marked done, masking the last survivor
        is moot rather than fatal, and an abort is recorded in
        ``aborted`` instead of raised -- the survivors still report.
        """
        before = time.perf_counter()  # repro: noqa[REPRO002]
        try:
            if reason is None:
                if self.backend.shows_life(worker):
                    return
                reason = self.backend.condemn(worker)
            action = self.config.recovery if self.aborted is None else "fail"
            self._record(worker, reason, action)
            if action == "restart":
                self._restart(worker, reason)
                if self.draining:
                    # The respawn reset the ring's done flag.
                    self.backend.rings[worker].mark_done()
                return
            self.dead.add(worker)
            if action == "fail":
                raise RunAborted(worker, reason)
            try:
                self.partitioner.mask_worker(worker)
            except RuntimeError as exc:
                # Nobody left to reroute to: fatal mid-stream, moot once
                # nothing is left to deliver (loss accounting applies).
                if not self.draining:
                    raise RunAborted(
                        worker, f"reroute impossible ({exc})"
                    ) from exc
        except RunAborted as abort:
            self.dead.add(worker)
            if not self.draining:
                raise
            if self.aborted is None:
                self.aborted = abort
        finally:
            self.recovery_seconds += (
                time.perf_counter() - before  # repro: noqa[REPRO002]
            )

    def _record(self, worker: int, reason: str, action: str) -> None:
        self.failures.append(
            FailureEvent(
                worker=worker,
                reason=reason,
                action=action,
                at_routed=int(self.series.loads.sum()),
                delivered=int(self.delivered[worker]),
                checkpointed=int(self.backend.counts[worker]),
            )
        )

    def _restart(self, worker: int, reason: str) -> None:
        """Respawn ``worker`` and replay its lost span deterministically.

        Loops (not recurses) on failures during the replay itself: the
        span is re-derived from ``delivered`` each attempt, which never
        counts replayed messages, so every attempt rebuilds the same
        prefix.  Bounded by ``restart_limit`` per worker.
        """
        while True:
            self.restarts_per_worker[worker] += 1
            if self.restarts_per_worker[worker] > self.config.restart_limit:
                raise RunAborted(
                    worker,
                    f"exceeded restart limit ({self.config.restart_limit})",
                )
            self.restarts += 1
            self.backend.respawn(worker, reason)
            self.dead.discard(worker)
            if self._replay(worker):
                return
            reason = self.backend.condemn(worker)
            self._record(worker, reason, "restart")

    def _replay(self, worker: int) -> bool:
        """Re-deliver ``worker``'s span; False if it died during it.

        Re-routes the stream prefix from a forked source through a
        pristine partitioner copy -- the same chunk grid and state
        evolution as the original pass, hence the same assignments --
        and pushes only ``worker``'s share of its first
        ``delivered[worker]`` messages.
        """
        assert self._pristine is not None
        fresh = copy.deepcopy(self._pristine)
        span = int(self.delivered[worker])
        seen = 0
        for start, _stop, key_chunk, time_chunk in iter_keyed_chunks(
            fork_source(self.keys), self.config.chunk_size, self.times
        ):
            if seen >= span:
                break
            assignments = fresh.route_chunk(key_chunk, time_chunk)
            mine = np.flatnonzero(assignments == worker)[: span - seen]
            seen += int(mine.size)
            ids = (start + mine).astype(np.int64)
            # Replay stamps are fresh by necessity; sojourns of replayed
            # messages measure re-delivery, not the original enqueue
            # (REPRO002 noqa).
            stamps = np.full(ids.size, time.perf_counter())  # repro: noqa[REPRO002]
            while ids.size:
                pushed, _dropped, stalled = self._push(worker, ids, stamps)
                ids, stamps = ids[pushed:], stamps[pushed:]
                if stalled and not self.backend.shows_life(worker):
                    return False
        return True

    # -- end of stream ------------------------------------------------------

    def collect(self) -> List[Dict[str, Any]]:
        """Drain every surviving worker to completion and gather reports.

        Failures discovered here (a fault firing during the final
        drain, a wedged drain) go through the same death handler;
        reroute at end-of-stream degenerates to masking alone, since a
        dead ring's contents are unrecoverable without replay.
        """
        self.draining = True
        for w in range(self.num_workers):
            if w not in self.dead:
                self.backend.rings[w].mark_done()
        reports: Dict[int, Dict[str, Any]] = {}
        for w in range(self.num_workers):
            while w not in self.dead:
                try:
                    reports[w] = self.backend.finish_one(w)
                    break
                except WorkerDeadError as exc:
                    self._recover(w, exc.reason)
        return [reports[w] for w in sorted(reports)]


# ---------------------------------------------------------------------------
# The run loop
# ---------------------------------------------------------------------------


def _resolve_mode(mode: str) -> str:
    if mode == "auto":
        return "process" if runtime_available() else "simulated"
    if mode == "process" and not runtime_available():
        raise RuntimeError(
            "mode='process' requested but process spawning or shared "
            "memory is unavailable here; use mode='simulated' or 'auto'"
        )
    return mode


def run_runtime(
    keys: StreamLike,
    partitioner: "Partitioner",
    config: Optional[RuntimeConfig] = None,
    *,
    timestamps: Optional[Sequence[float]] = None,
    num_checkpoints: int = 100,
) -> RuntimeResult:
    """Run a stream through the sharded runtime; see the module docstring.

    Routing is chunk-for-chunk identical to
    :func:`repro.core.engine.replay_stream` on the same ``keys`` and a
    fresh ``partitioner``; the returned ``routed_loads``,
    ``checkpoint_positions`` and ``imbalance_series`` are the replay's,
    and under a lossless policy ``worker_loads`` equals ``routed_loads``.
    ``keys`` may be a materialised array or a bounded-memory
    :class:`~repro.core.chunks.ChunkSource` (one fresh pass on the
    source's own chunk grid; ``timestamps`` requires an array input).
    Injected faults and recovery behaviour are configured on
    ``config`` (``faults``, ``recovery`` and the deadline knobs).
    """
    config = config or RuntimeConfig()
    m = stream_length(keys)
    times: Optional[np.ndarray] = None
    if timestamps is not None:
        times = np.asarray(timestamps, dtype=np.float64)
        if times.size != m:
            raise ValueError(
                f"timestamps has {times.size} entries for {m} messages"
            )
    num_workers = partitioner.num_workers
    plan = config.faults or FaultPlan()
    for spec in plan.specs:
        if spec.worker >= num_workers:
            raise ValueError(
                f"fault {spec.describe()!r} targets worker {spec.worker} "
                f"but only {num_workers} workers exist"
            )
    worker_faults = {w: plan.for_worker(w) for w in range(num_workers)}
    mode = _resolve_mode(config.mode)
    backend: _Backend = (
        _ProcessBackend(num_workers, config, worker_faults)
        if mode == "process"
        else _SimulatedBackend(num_workers, config, worker_faults)
    )

    series = StreamingLoadSeries(m, num_workers, num_checkpoints)
    sup = _Supervisor(backend, partitioner, config, keys, times, series)
    flushes = 0
    flush = int(config.flush_size)
    # Coalescing staging: per-worker id rows that fill across chunks and
    # flush to the ring only when full or at end-of-stream.  One stamp
    # lane is shared by every flush -- the ring copies on push -- so the
    # per-flush cost is one clock read plus one vector fill, not a
    # fresh allocation.
    stage_ids = np.empty((num_workers, flush), dtype=np.int64)
    stage_fill = [0] * num_workers
    stamp_lane = np.empty(flush, dtype=np.float64)
    route_seconds = 0.0
    scatter_seconds = 0.0
    flush_seconds = 0.0

    def flush_worker(w: int) -> None:
        """Deliver worker ``w``'s staged ids (one shared stamp per flush)."""
        nonlocal flushes, flush_seconds
        n = stage_fill[w]
        if n == 0:
            return
        # Wall time + enqueue stamps are runtime telemetry, never
        # routing inputs (REPRO002 noqa on each read in this loop): the
        # e2e throughput, sojourn, and stage-breakdown numbers are the
        # point of this engine, and no load count or partitioner
        # decision depends on them.
        before = time.perf_counter()  # repro: noqa[REPRO002]
        recovery_before = sup.recovery_seconds
        stamp_lane[:n] = before
        sup.deliver(w, stage_ids[w, :n], stamp_lane[:n])
        after = time.perf_counter()  # repro: noqa[REPRO002]
        # Recovery time (assessments, respawns, replays) is accounted in
        # its own stage, not as flush stall.
        flush_seconds += (after - before) - (
            sup.recovery_seconds - recovery_before
        )
        flushes += 1
        stage_fill[w] = 0

    try:
        start_wall = time.perf_counter()  # repro: noqa[REPRO002]
        try:
            for start, _stop, key_chunk, time_chunk in iter_keyed_chunks(
                keys, config.chunk_size, times
            ):
                tick = time.perf_counter()  # repro: noqa[REPRO002]
                assignments = partitioner.route_chunk(key_chunk, time_chunk)
                # Reroute recovery: decisions for masked workers forward
                # to their deputies (the identity when nothing is masked).
                assignments = partitioner.remap_masked(assignments)
                series.update(assignments)
                routed_tick = time.perf_counter()  # repro: noqa[REPRO002]
                route_seconds += routed_tick - tick
                flushed_before = flush_seconds
                recovery_before = sup.recovery_seconds
                # Scatter: group the chunk's message ids by worker with the
                # stable counting sort, then append each worker's segment to
                # its staging row, flushing whenever a row fills.  Stability
                # plus append order keeps every worker's sub-stream in
                # arrival order (FIFO end to end) at any flush size.
                _counts, boundaries, grouped = counting_scatter(
                    assignments, num_workers, base=start
                )
                bounds = boundaries.tolist()
                for w in range(num_workers):
                    lo, hi = bounds[w], bounds[w + 1]
                    while lo < hi:
                        fill = stage_fill[w]
                        take = min(hi - lo, flush - fill)
                        stage_ids[w, fill : fill + take] = grouped[
                            lo : lo + take
                        ]
                        stage_fill[w] = fill + take
                        lo += take
                        if stage_fill[w] == flush:
                            flush_worker(w)
                scatter_tick = time.perf_counter()  # repro: noqa[REPRO002]
                # Flushes inside the scatter book their own stall and
                # recovery time; neither is scatter work.
                scatter_seconds += (
                    (scatter_tick - routed_tick)
                    - (flush_seconds - flushed_before)
                    - (sup.recovery_seconds - recovery_before)
                )
            for w in range(num_workers):
                flush_worker(w)
        except RunAborted as exc:
            # Clean abort (fail policy / exhausted recovery): stop
            # routing, collect whatever the survivors processed, and
            # label the result.  Undelivered remainders are accounted
            # below -- the abort is loud but never lossy in bookkeeping.
            sup.aborted = exc
        drain_tick = time.perf_counter()  # repro: noqa[REPRO002]
        recovery_before_drain = sup.recovery_seconds
        reports = sup.collect()
        end_wall = time.perf_counter()  # repro: noqa[REPRO002]
        drain_seconds = (end_wall - drain_tick) - (
            sup.recovery_seconds - recovery_before_drain
        )
        wall = end_wall - start_wall
        # Snapshot the checkpoint lane before close() drops the shared-
        # memory views: dead workers' loads are read from it below.
        checkpoints = np.asarray(backend.counts, dtype=np.int64).copy()
    finally:
        backend.close()

    positions, imbalances = series.finish()
    routed = series.loads.copy()
    # A survivor loses its fault-discarded messages; a dead worker its
    # delivered-but-uncheckpointed pipeline.
    worker_loads = np.zeros(num_workers, dtype=np.int64)
    lost = np.zeros(num_workers, dtype=np.int64)
    for report in reports:
        worker_loads[report["worker_id"]] = report["count"]
        lost[report["worker_id"]] = report.get("fault_dropped", 0)
    for w in sup.dead:
        # A dead worker's survivable count is its last checkpoint; the
        # sup.dead snapshot is taken after collect(), so restarted-and-
        # recovered workers are not in it.
        worker_loads[w] = checkpoints[w]
        lost[w] = sup.delivered[w] - checkpoints[w]
    undelivered = int(routed.sum() - sup.delivered.sum() - sup.dropped.sum())
    latency = LatencyStore.merge_all(
        LatencyStore.from_dict(report["latency"]) for report in reports
    )
    clean = not sup.failures and not plan.specs
    if config.policy != "drop" and clean:
        # The lossless policies promise exactly this; a mismatch means a
        # ring protocol bug, which must never be reported as a result.
        if not np.array_equal(worker_loads + sup.dropped, routed):
            raise AssertionError(
                f"worker counts {worker_loads.tolist()} do not match routed "
                f"loads {routed.tolist()} under policy "
                f"{config.policy!r}"
            )
    if sup.aborted is not None:
        status = "failed"
    elif sup.dead:
        status = "degraded"
    else:
        status = "ok"
    result = RuntimeResult(
        mode=mode,
        policy=config.policy,
        num_workers=num_workers,
        num_messages=m,
        routed_loads=routed,
        worker_loads=worker_loads,
        dropped_per_worker=sup.dropped,
        stalls=sup.stalls,
        checkpoint_positions=positions,
        imbalance_series=imbalances,
        latency=latency,
        wall_seconds=wall,
        stage_seconds={
            "route": route_seconds,
            "scatter": scatter_seconds,
            "flush_stall": flush_seconds,
            "drain": drain_seconds,
            "recovery": sup.recovery_seconds,
        },
        flushes=flushes,
        worker_reports=reports,
        status=status,
        failures=[event.to_dict() for event in sup.failures],
        failed_workers=tuple(sorted(sup.dead)),
        masked_workers=partitioner.masked_workers,
        lost_per_worker=lost,
        undelivered=undelivered,
        restarts=sup.restarts,
        stall_timeouts=sup.stall_timeouts,
        injected_faults=tuple(s.describe() for s in plan.specs),
    )
    if not result.conservation_ok:
        raise AssertionError(
            f"conservation violated: routed {result.sent} != processed "
            f"{result.processed} + dropped {result.dropped} + lost {result.lost}"
        )
    return result
