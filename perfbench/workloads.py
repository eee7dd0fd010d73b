"""The benchmark's workloads, their correctness gate and metrics.

Each workload drives the sharded runtime (``run_runtime``, process
backend, W=2 pkg workers) on a stream the benchmark generates from its
seed.  A workload run sets up several times, makes one untimed warm-up
call, then repeats the public call for the requested number of seconds
and reports medians over the repetitions.  Every call's outputs are
checked; a failing check marks that call failed.

With tracing on, calls alternate between untraced and traced (the
ratio of their throughputs is the tracing overhead), the per-layer
numbers come from the traced calls, and after the timed window come the
isolated layer timings of :mod:`layers` and the discrete-event
word-count block (one gated ``Topology.run`` plus its layers).
"""

from __future__ import annotations

import contextlib
import gc
import json
import math
import statistics
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.api import Topology, make_partitioner
from repro.core.chunks import DEFAULT_CHUNK_SIZE
from repro.core.engine import ReplayResult, replay_stream
from repro.queueing.latency import LatencyStore
from repro.runtime.engine import RuntimeConfig, RuntimeResult, run_runtime
from repro.runtime.faults import FaultPlan
from repro.streams.datasets import get_dataset

import layers
from spans import TracedPartitioner, Tracer

#: runtime workers; never more than the 2 cores the benchmark targets.
NUM_WORKERS = 2
SCHEME = "pkg"
#: set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
DES_REFERENCE = Path(__file__).with_name("des_reference.json")

#: (name, unit, better, bound, definition) of every end-to-end metric.
END_TO_END: List[Tuple[str, str, str, float, str]] = [
    ("throughput_mps", "msg/s", "higher", 0.25,
     "messages processed over the wall time of the public call; median "
     "over calls"),
    ("sojourn_p50_ms", "ms", "lower", 0.25,
     "median enqueue-to-processed sojourn from the merged LatencyStore; "
     "median over calls"),
    ("load_imbalance", "ratio", "lower", 0.05,
     "max/mean of the processed per-worker counts (1.0 = perfect)"),
    ("setup_s", "s", "lower", 0.25,
     "stream generation plus partitioner construction; median of the "
     "set-ups in one run"),
]

#: (name, unit, better, definition) of every per-layer metric.
PER_LAYER: List[Tuple[str, str, str, str]] = [
    ("partitioning.route_mps", "msg/s", "higher",
     "isolated pkg route_chunk on the workload's stream and chunk grid"),
    ("partitioning.remap_s", "s", "lower",
     "isolated remap_masked over the stream's routed chunks"),
    ("core.series_update_s", "s", "lower",
     "isolated StreamingLoadSeries.update over the stream's routed chunks"),
    ("partitioning.route_inflation", "ratio", "lower",
     "in-pipeline route stage over the three isolated route-stage calls"),
    ("core.factorize_mps", "msg/s", "higher",
     "isolated factorize on the stream's chunk grid"),
    ("core.scatter_mps", "msg/s", "higher",
     "isolated counting_scatter of the routed chunks over W workers"),
    ("streams.generate_s", "s", "lower",
     "stream generation share of setup_s (median)"),
    ("runtime.route_s", "s", "lower", "stage_seconds['route'] (median)"),
    ("runtime.scatter_s", "s", "lower", "stage_seconds['scatter'] (median)"),
    ("runtime.flush_stall_s", "s", "lower",
     "stage_seconds['flush_stall'] (median)"),
    ("runtime.drain_s", "s", "lower", "stage_seconds['drain'] (median)"),
    ("runtime.recovery_s", "s", "lower", "stage_seconds['recovery'] (median)"),
    ("runtime.spawn_s", "s", "lower",
     "public-call wall minus RuntimeResult.wall_seconds (median)"),
    ("runtime.residual_s", "s", "lower",
     "wall_seconds minus the sum of the stages (median)"),
    ("runtime.flushes", "count", "lower", "ring pushes issued (median)"),
    ("runtime.stalls", "count", "lower",
     "times the source found a full ring (median)"),
    ("runtime.sojourn_p99_ms", "ms", "lower",
     "p99 sojourn from the merged LatencyStore (median over calls)"),
    ("runtime.sojourn_samples", "count", "higher",
     "sojourn samples behind each p99 (median)"),
    ("ring.push_pop_mps", "msg/s", "higher",
     "isolated SpscRing push/pop at the workload's flush size"),
    ("worker.step_mps", "msg/s", "higher",
     "isolated WorkerLoop.step at the workload's flush size"),
    ("latency.record_many_mps", "msg/s", "higher",
     "isolated LatencyStore.record_many at the workload's flush size"),
    ("runtime.restarts", "count", "lower", "worker respawns (median)"),
    ("runtime.stall_timeouts", "count", "lower",
     "pushes that tripped their no-progress deadline (median)"),
    ("runtime.detect_wait_s", "s", "lower",
     "flush_stall above the fault-free calls' flush_stall (median)"),
    ("core.eventloop_eps", "1/s", "higher",
     "isolated EventLoop events per second (9 periodic chains)"),
    ("hashing.choices_per_s", "1/s", "higher",
     "isolated per-tuple HashFamily.choices calls per second"),
    ("dspe.wall_tps", "1/s", "higher",
     "DES simulated tuples completed per wall second (one call, ungated)"),
    ("dspe.emitted", "count", "higher", "DES tuples emitted"),
    ("dspe.completed", "count", "higher", "DES tuples completed"),
    ("dspe.aggregation_messages", "count", "lower",
     "DES partial-count messages sent to the aggregator"),
    ("dspe.sim_throughput", "1/s", "higher",
     "DES completed tuples per simulated second"),
    ("dspe.sim_p99_ms", "ms", "lower", "DES simulated p99 tuple latency"),
    ("dspe.avg_memory_counters", "count", "lower",
     "DES average live partial counters"),
    ("baseline.replay_mps", "msg/s", "higher",
     "single-process replay_stream on the same stream"),
    ("trace.overhead", "ratio", "higher",
     "traced throughput over untraced throughput in the same run"),
    ("trace.self_setup_s", "s", "lower",
     "setup span self time: construction outside generation (median)"),
    ("trace.self_call_s", "s", "lower",
     "public-call span self time: the call minus in-pipeline "
     "route_chunk spans (median)"),
    ("trace.self_route_chunk_s", "s", "lower",
     "in-pipeline route_chunk span time per call (median)"),
]


@dataclass(frozen=True)
class RuntimeWorkload:
    """A ``run_runtime`` workload on a generated dataset stream."""

    name: str
    dataset: str
    messages: int
    flush_size: int
    #: kill worker 1 this far into its share of the stream and recover
    #: by restart (None = fault-free).
    kill_share: Optional[float] = None


@dataclass(frozen=True)
class DesTopology:
    """The fig5b word-count regime on the discrete-event cluster.

    Measured as a layer block of every traced run, not as a gated
    workload: its wall-clock throughput drifts with the host more than
    any bound allows (see README.md).
    """

    duration: float = 30.0
    workers: int = 9
    cpu_delay: float = 0.5e-3
    every: float = 6.0
    #: the topology seed is ``seed % variants``; each variant's outputs
    #: are recorded in des_reference.json.
    variants: int = 16

    def topology(self, variant: int) -> Topology:
        return (
            Topology()
            .source("WP")
            .partition_by(SCHEME)
            .workers(self.workers, cpu_delay=self.cpu_delay)
            .aggregate(every=self.every)
            .timing(self.duration)
            .seed(variant)
        )


DES = DesTopology()

WORKLOADS: Dict[str, RuntimeWorkload] = {
    wl.name: wl
    for wl in (
        RuntimeWorkload("wp-throughput", "WP", 8_000_000, 8192),
        RuntimeWorkload("lj-smallflush", "LJ", 4_000_000, 256),
        RuntimeWorkload("wp-restart", "WP", 4_000_000, 8192, kill_share=0.4),
    )
}


class Gate:
    """The correctness checks of one workload run."""

    def __init__(self) -> None:
        self.checks: List[Tuple[str, bool, str]] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append((name, bool(ok), detail))
        return bool(ok)

    @property
    def ok(self) -> bool:
        return all(ok for _name, ok, _detail in self.checks)


@dataclass
class Outcome:
    """What one workload run reports."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    gate: Gate
    lines: List[str]


def _median(values: List[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def _quantile_ms(store: LatencyStore, q: float) -> float:
    """Quantile ``q`` of a sojourn sketch in ms, interpolated in its bucket.

    ``LatencyStore.quantile`` returns one value per log bucket (a 2%
    grid at the default relative error), so a steady workload reads
    exactly the same p50 run after run.  This walks the same buckets
    (from the public ``to_dict``) and places the target rank
    log-linearly inside its bucket: still within the sketch's error
    bound, but no longer quantised.
    """
    data = store.to_dict()
    rank = max(1, math.ceil(q * data["count"]))
    seen = data["zero_count"]
    if rank <= seen:
        return 0.0
    gamma = (1.0 + data["relative_error"]) / (1.0 - data["relative_error"])
    for index, count in sorted((int(i), c) for i, c in data["buckets"].items()):
        if seen + count >= rank:
            return gamma ** (index - 1 + (rank - seen) / count) * 1e3
        seen += count
    raise ValueError(f"rank {rank} beyond the sketch's {data['count']} samples")


def _imbalance(loads: np.ndarray) -> float:
    loads = np.asarray(loads, dtype=np.float64)
    return float(loads.max() / loads.mean()) if loads.size and loads.mean() > 0 else 0.0


def _timed_calls(
    seconds: float, min_reps: int, traced: bool, call: Callable[[bool], None]
) -> None:
    """Repeat ``call`` for about ``seconds`` (and at least ``min_reps`` times).

    A further call starts only while the mean call so far still fits in
    the window, so a run measures ``seconds`` rather than overshooting
    by up to one call.  Untraced runs pass ``False`` every time.  Traced
    runs alternate ``False``/``True`` and make at least half of
    ``min_reps`` (rounded up) of each kind.
    """
    need = 2 * ((min_reps + 1) // 2) if traced else min_reps
    started = time.perf_counter()
    done = 0
    while True:
        elapsed = time.perf_counter() - started
        if done >= need and (done == 0 or elapsed + elapsed / done > seconds):
            return
        call(traced and done % 2 == 1)
        done += 1


# ---------------------------------------------------------------------------
# The runtime workloads
# ---------------------------------------------------------------------------


def _check_runtime(
    gate: Gate,
    label: str,
    result: RuntimeResult,
    reference: ReplayResult,
    restart_expected: bool,
    fault_free: Optional[RuntimeResult],
) -> bool:
    ok = gate.check(f"{label}: process backend", result.mode == "process", result.mode)
    ok &= gate.check(
        f"{label}: conservation",
        result.conservation_ok,
        f"sent={result.sent} processed={result.processed} "
        f"dropped={result.dropped} lost={result.lost}",
    )
    ok &= gate.check(f"{label}: status ok", result.status == "ok", result.status)
    ok &= gate.check(
        f"{label}: counts equal replay_stream",
        np.array_equal(result.worker_loads, reference.final_loads)
        and np.array_equal(result.routed_loads, reference.final_loads),
        f"runtime {result.worker_loads.tolist()} replay "
        f"{reference.final_loads.tolist()}",
    )
    ok &= gate.check(
        f"{label}: imbalance series equals replay_stream",
        np.array_equal(result.imbalance_series, reference.imbalance_series),
    )
    ok &= gate.check(
        f"{label}: restarts",
        result.restarts == (1 if restart_expected else 0),
        f"restarts={result.restarts}",
    )
    if fault_free is not None:
        ok &= gate.check(
            f"{label}: counts equal the fault-free run",
            np.array_equal(result.worker_loads, fault_free.worker_loads),
            f"{result.worker_loads.tolist()} vs {fault_free.worker_loads.tolist()}",
        )
    return ok


def run_runtime_workload(
    wl: RuntimeWorkload,
    seed: int,
    seconds: float,
    tracer: Tracer,
    scale: float = 1.0,
    min_reps: int = 3,
    reference_seed: Optional[int] = None,
) -> Outcome:
    traced_run = tracer.enabled
    reference_seed = seed if reference_seed is None else reference_seed
    dataset = get_dataset(wl.dataset)
    n = max(DEFAULT_CHUNK_SIZE, int(wl.messages * scale))
    gate = Gate()
    lines: List[str] = []

    def make(s: int = seed) -> Any:
        return make_partitioner(SCHEME, NUM_WORKERS, seed=s)

    setup_s: List[float] = []
    generate_s: List[float] = []
    for _ in range(SETUP_REPEATS):
        with tracer.span("setup"):
            t0 = time.perf_counter()
            with tracer.span("streams.generate"):
                keys = dataset.stream(n, seed=seed)
            t1 = time.perf_counter()
            with tracer.span("partitioner.build"):
                make()
            t2 = time.perf_counter()
        setup_s.append(t2 - t0)
        generate_s.append(t1 - t0)

    with tracer.span("check.replay"):
        ref_keys = (
            keys if reference_seed == seed else dataset.stream(n, seed=reference_seed)
        )
        reference = replay_stream(ref_keys, make(reference_seed))
        del ref_keys

    base = RuntimeConfig(mode="process", flush_size=wl.flush_size)
    config = base
    restart = wl.kill_share is not None
    fault_free: Optional[RuntimeResult] = None
    fault_free_stall: List[float] = []
    with tracer.span("warmup"):
        # The first call in a process is an outlier; it is also the
        # fault-free baseline the restart workload compares against.
        warm = run_runtime(keys, make(), base)
        _check_runtime(gate, "warm-up", warm, reference, False, None)
        if restart:
            fault_free = warm
            at = int(wl.kill_share * int(warm.worker_loads[1]))
            plan = FaultPlan.parse([f"kill:w=1@n={at}"], seed=seed)
            config = replace(base, recovery="restart", faults=plan)
            lines.append(f"fault plan: {plan.describe()} recovery=restart")
            warm = run_runtime(keys, make(), config)
            _check_runtime(gate, "warm-up", warm, reference, True, fault_free)
            if traced_run:
                for _ in range(3):
                    extra = run_runtime(keys, make(), base)
                    fault_free_stall.append(extra.stage_seconds["flush_stall"])
                    _check_runtime(gate, "fault-free", extra, reference, False, None)
    setup_ok = gate.ok

    samples: Dict[bool, List[Dict[str, float]]] = {False: [], True: []}
    failed = 0

    def call(traced: bool) -> None:
        nonlocal failed
        partitioner = make()
        if traced:
            partitioner = TracedPartitioner(partitioner, tracer)
        gc.collect()
        with tracer.span("call") if traced else contextlib.nullcontext() as record:
            t0 = time.perf_counter()
            result = run_runtime(keys, partitioner, config)
            wall = time.perf_counter() - t0
        label = f"call {len(samples[False]) + len(samples[True]) + 1}"
        if not _check_runtime(gate, label, result, reference, restart, fault_free):
            failed += 1
        stages = result.stage_seconds
        row = {
            "wall": wall,
            "throughput": result.processed / wall,
            "p50": _quantile_ms(result.latency, 0.5),
            "p99": _quantile_ms(result.latency, 0.99),
            "samples": float(result.latency.count),
            "imbalance": _imbalance(result.worker_loads),
            "spawn": wall - result.wall_seconds,
            "residual": result.wall_seconds - sum(stages.values()),
            "flushes": float(result.flushes),
            "stalls": float(result.stalls),
            "restarts": float(result.restarts),
            "stall_timeouts": float(result.stall_timeouts),
        }
        row.update({f"stage.{k}": v for k, v in stages.items()})
        if record is not None:
            spans = [s for s in tracer.children(record["id"]) if s["name"] == "route_chunk"]
            row["route_chunk"] = sum(s["end"] - s["start"] for s in spans)
            row["self_call"] = tracer.self_seconds(record)
            record["attrs"] = {"child_totals": dict(stages), "spawn": row["spawn"],
                               "residual": row["residual"]}
            _reconcile(gate, label, row, stages, lines)
        samples[traced].append(row)

    _timed_calls(seconds, min_reps, traced_run, call)
    attempted = len(samples[False]) + len(samples[True])
    if not setup_ok:
        failed = attempted

    def med(kind: bool, key: str) -> float:
        return _median([row[key] for row in samples[kind]])

    if not traced_run:
        metrics = {
            "throughput_mps": med(False, "throughput"),
            "sojourn_p50_ms": med(False, "p50"),
            "load_imbalance": med(False, "imbalance"),
            "setup_s": _median(setup_s),
        }
        return Outcome(metrics, attempted, failed, gate, lines)

    # Layers this workload does not exercise read 0 (see README.md).
    metrics = {name: 0.0 for name, *_rest in PER_LAYER}
    with tracer.span("isolated"):
        route_total = _runtime_layers(wl, keys, make, tracer, metrics)
        del keys
        if not _des_layers(seed, reference_seed, tracer, gate, lines, metrics):
            failed = attempted
    stall = med(True, "stage.flush_stall")
    metrics.update({
        "partitioning.route_inflation": med(True, "stage.route") / route_total,
        "streams.generate_s": _median(generate_s),
        "runtime.route_s": med(True, "stage.route"),
        "runtime.scatter_s": med(True, "stage.scatter"),
        "runtime.flush_stall_s": stall,
        "runtime.drain_s": med(True, "stage.drain"),
        "runtime.recovery_s": med(True, "stage.recovery"),
        "runtime.spawn_s": med(True, "spawn"),
        "runtime.residual_s": med(True, "residual"),
        "runtime.flushes": med(True, "flushes"),
        "runtime.stalls": med(True, "stalls"),
        "runtime.sojourn_p99_ms": med(True, "p99"),
        "runtime.sojourn_samples": med(True, "samples"),
        "runtime.restarts": med(True, "restarts"),
        "runtime.stall_timeouts": med(True, "stall_timeouts"),
        "runtime.detect_wait_s": (
            stall - _median(fault_free_stall) if restart else 0.0
        ),
        "trace.overhead": med(True, "throughput") / med(False, "throughput"),
        "trace.self_setup_s": _setup_self(tracer),
        "trace.self_call_s": med(True, "self_call"),
        "trace.self_route_chunk_s": med(True, "route_chunk"),
    })
    lines.append(
        f"route stage {metrics['runtime.route_s']:.4f} s in pipeline vs "
        f"{route_total:.4f} s isolated on the same {n}-message stream "
        f"(inflation {metrics['partitioning.route_inflation']:.3f})"
    )
    return Outcome(metrics, attempted, failed, gate, lines)


def _reconcile(
    gate: Gate, label: str, row: Dict[str, float], stages: Dict[str, float],
    lines: List[str],
) -> None:
    """Stages + spawn + residual must add up to the measured call wall.

    A negative residual means two stages booked the same interval; it
    is reported as a finding about the program's stage accounting, not
    gated (see README.md, "Known metric caveats").
    """
    total = row["spawn"] + sum(stages.values()) + row["residual"]
    gate.check(
        f"{label}: stages + residual reconcile to the wall",
        abs(total - row["wall"]) <= 1e-9 * max(1.0, row["wall"]) and row["spawn"] >= 0.0,
        f"wall={row['wall']:.6f} sum={total:.6f} residual={row['residual']:.6f}",
    )
    if row["residual"] < -1e-6:
        lines.append(
            f"{label}: finding: stages overlap by {-row['residual']:.4f} s "
            f"(recovery {stages['recovery']:.4f} s is also booked as scatter)"
        )
    gate.check(
        f"{label}: route_chunk spans fit in the route stage",
        row["route_chunk"] <= stages["route"] + 1e-6,
        f"spans={row['route_chunk']:.6f} route={stages['route']:.6f}",
    )
    lines.append(
        f"{label}: wall {row['wall']:.4f} s = spawn {row['spawn']:.4f} + "
        + " + ".join(f"{k} {v:.4f}" for k, v in stages.items())
        + f" + residual {row['residual']:.4f}"
    )


def _setup_self(tracer: Tracer) -> float:
    return _median(
        [tracer.self_seconds(s) for s in tracer.spans if s["name"] == "setup"]
    )


def _runtime_layers(
    wl: RuntimeWorkload,
    keys: np.ndarray,
    make: Callable[[], Any],
    tracer: Tracer,
    out: Dict[str, float],
) -> float:
    """Fill ``out`` with the isolated runtime-side layer timings.

    Returns the isolated route-stage total (route_chunk + remap_masked
    + series update), the base of ``partitioning.route_inflation``.
    """
    config = RuntimeConfig()
    n = int(keys.size)
    micro = min(n, 2_000_000)
    with tracer.span("isolated.route_stage"):
        route, routed = layers.route_stage(keys, make, config.chunk_size)
    out["partitioning.route_mps"] = n / route["route_s"]
    out["partitioning.remap_s"] = route["remap_s"]
    out["core.series_update_s"] = route["series_update_s"]
    with tracer.span("isolated.factorize"):
        out["core.factorize_mps"] = layers.factorize_rate(keys, config.chunk_size)
    with tracer.span("isolated.scatter"):
        out["core.scatter_mps"] = layers.scatter_rate(routed, NUM_WORKERS)
    del routed
    with tracer.span("isolated.ring"):
        out["ring.push_pop_mps"] = layers.ring_rate(
            micro, wl.flush_size, config.capacity, config.max_batch
        )
    with tracer.span("isolated.worker_step"):
        out["worker.step_mps"] = layers.worker_step_rate(
            micro, wl.flush_size, config.capacity, config.max_batch
        )
    with tracer.span("isolated.record_many"):
        out["latency.record_many_mps"] = layers.record_many_rate(
            micro, wl.flush_size, seed=0
        )
    with tracer.span("isolated.replay"):
        out["baseline.replay_mps"] = layers.replay_rate(keys, make)
    return sum(route.values())


# ---------------------------------------------------------------------------
# Discrete-event word count
# ---------------------------------------------------------------------------


def des_outputs(result: Any) -> Dict[str, Any]:
    """The deterministic outputs of one DES run (must repeat exactly)."""
    details = result.details
    return {
        "emitted": int(details.emitted),
        "completed": int(details.completed),
        "aggregation_messages": int(details.aggregation_messages),
        "sim_throughput": float(details.throughput),
        "sim_p99_ms": float(result.latency_p99) * 1e3,
        "avg_memory_counters": float(details.average_memory_counters),
    }


def des_reference_key() -> Dict[str, Any]:
    return {
        "duration": DES.duration,
        "workers": DES.workers,
        "cpu_delay": DES.cpu_delay,
        "every": DES.every,
        "variants": DES.variants,
    }


def record_des_reference() -> None:
    """Run every topology variant once and store its outputs."""
    variants = {}
    for variant in range(DES.variants):
        variants[str(variant)] = des_outputs(DES.topology(variant).run())
        print(f"variant {variant}: {variants[str(variant)]}", flush=True)
    payload = {"topology": des_reference_key(), "variants": variants}
    DES_REFERENCE.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def _des_layers(
    seed: int,
    reference_seed: int,
    tracer: Tracer,
    gate: Gate,
    lines: List[str],
    out: Dict[str, float],
) -> bool:
    """Fill ``out`` with the DES layer block of a traced run.

    One ``Topology.run`` of the fig5b word count, whose outputs are
    gated against the recorded reference of the seed's variant, plus
    isolated ``EventLoop`` and ``HashFamily.choices`` timings.  Returns
    whether the DES checks passed.
    """
    variant = seed % DES.variants
    recorded = json.loads(DES_REFERENCE.read_text())
    ok = gate.check(
        "DES reference recorded for this topology",
        recorded["topology"] == des_reference_key(),
        f"recorded {recorded['topology']}",
    )
    reference_variant = reference_seed % DES.variants
    reference = recorded["variants"][str(reference_variant)]
    with tracer.span("isolated.des"):
        t0 = time.perf_counter()
        result = DES.topology(variant).run()
        wall = time.perf_counter() - t0
    outputs = des_outputs(result)
    ok &= gate.check(
        "DES outputs equal the recorded reference",
        outputs == reference,
        f"topology seed {variant}, reference {reference_variant}: {json.dumps(outputs)}",
    )
    lines.append(f"DES: topology seed {variant} (seed % {DES.variants}), {wall:.2f} s wall")
    out.update({
        "dspe.wall_tps": outputs["completed"] / wall,
        "dspe.emitted": float(outputs["emitted"]),
        "dspe.completed": float(outputs["completed"]),
        "dspe.aggregation_messages": float(outputs["aggregation_messages"]),
        "dspe.sim_throughput": outputs["sim_throughput"],
        "dspe.sim_p99_ms": outputs["sim_p99_ms"],
        "dspe.avg_memory_counters": outputs["avg_memory_counters"],
    })
    with tracer.span("isolated.eventloop"):
        out["core.eventloop_eps"] = layers.eventloop_rate(
            200_000, DES.workers, DES.cpu_delay
        )
    with tracer.span("isolated.choices"):
        keys = get_dataset("WP").stream(100_000, seed=variant)
        out["hashing.choices_per_s"] = layers.choices_rate(
            keys, DES.workers, seed=variant
        )
    return ok


def run_workload(name: str, seed: int, seconds: float, tracer: Tracer,
                 **options: Any) -> Outcome:
    with tracer.span("run", workload=name, seed=seed):
        return run_runtime_workload(WORKLOADS[name], seed, seconds, tracer, **options)
