"""Command-line entry point: ``python -m repro.runtime``.

Runs one stream through the sharded runtime per scheme and prints a
table of per-worker counts, end-to-end throughput, the per-stage wall
breakdown (route / scatter / flush-stall / drain) and p99 sojourn.
``--verify`` additionally replays the same stream through the
single-process engine with a fresh partitioner and asserts the
per-worker counts match exactly (the determinism contract); the exit
code is non-zero on any mismatch.  ``--streaming`` generates the keys
chunk-wise through the dataset's ``ChunkSource`` instead of
materialising them (the verify replay then re-iterates the same source
-- byte-identical by construction).  The repository benchmark in
``perfbench/`` measures this path with repeated paired runs.

Fault injection and recovery: ``--fault kill:w=1@n=5000`` (repeatable)
injects seeded faults, ``--recovery {fail,reroute,restart}`` picks the
policy, and ``--chaos`` draws a random seeded fault plan when no
explicit ``--fault`` is given.  Under faults, ``--verify`` checks the
conservation law ``sent == processed + dropped + lost`` for every run
and additionally demands byte-identical counts (and a fully recovered
``status=ok``) under ``--recovery restart`` with a lossless policy.
"""

from __future__ import annotations

import argparse
from typing import List, Optional

import numpy as np

from repro.runtime.engine import (
    MODES,
    RuntimeConfig,
    run_runtime,
    runtime_available,
)
from repro.runtime.faults import FaultPlan
from repro.runtime.supervision import RECOVERY_POLICIES

#: the paper's headline schemes plus the queueing-layer baseline.
DEFAULT_E2E_SCHEMES = ("pkg", "kg", "sg", "jbsq")

def main(argv: Optional[List[str]] = None) -> int:
    from repro.api import make_partitioner
    from repro.core.engine import replay_stream
    from repro.runtime.backpressure import POLICIES
    from repro.streams.datasets import get_dataset

    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime",
        description="Sharded multi-process runtime over shared-memory rings.",
    )
    parser.add_argument(
        "--schemes",
        nargs="+",
        default=list(DEFAULT_E2E_SCHEMES),
        help="partitioner spec strings to run (default: %(default)s)",
    )
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--messages", type=int, default=100_000)
    parser.add_argument(
        "--dataset",
        default="WP",
        help="Table I dataset symbol for the key stream (default: WP)",
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--policy",
        choices=POLICIES,
        default="block",
        help="backpressure policy when a ring is full (default: block)",
    )
    parser.add_argument(
        "--capacity",
        type=int,
        default=8192,
        help="slots per worker ring (default: %(default)s)",
    )
    parser.add_argument(
        "--service-cost",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="simulated per-message service cost in each worker",
    )
    parser.add_argument(
        "--mode",
        choices=MODES,
        default="auto",
        help="worker deployment; auto picks real processes when the "
        "environment supports them, else in-process simulated rings",
    )
    parser.add_argument(
        "--flush-size",
        type=int,
        default=8192,
        help="per-worker staging-buffer slots; stages flush to the ring "
        "when full or at end-of-stream (default: %(default)s)",
    )
    parser.add_argument(
        "--fault",
        action="append",
        default=[],
        metavar="SPEC",
        help="inject a fault, e.g. kill:w=1@n=5000, stall:w=0@t=1.5, "
        "slow:w=2@n=1000:factor=8, drop:w=3@n=500:count=200 "
        "(repeatable; n triggers on the worker's processed count)",
    )
    parser.add_argument(
        "--recovery",
        choices=RECOVERY_POLICIES,
        default="fail",
        help="what to do when a worker dies (default: %(default)s)",
    )
    parser.add_argument(
        "--chaos",
        action="store_true",
        help="draw a seeded random fault plan when no --fault is given",
    )
    parser.add_argument(
        "--liveness-deadline",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="heartbeat-silence seconds before a worker is condemned",
    )
    parser.add_argument(
        "--restart-limit",
        type=int,
        default=3,
        help="restarts allowed per worker before a clean abort",
    )
    parser.add_argument(
        "--streaming",
        action="store_true",
        help="generate keys chunk-wise (bounded memory) instead of "
        "materialising the stream up front",
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help="assert per-worker counts equal the single-process replay",
    )
    args = parser.parse_args(argv)

    if args.fault:
        try:
            plan: Optional[FaultPlan] = FaultPlan.parse(
                args.fault, seed=args.seed
            )
        except ValueError as exc:
            parser.error(str(exc))
        for fault in plan.specs:
            if fault.worker >= args.workers:
                parser.error(
                    f"fault {fault.describe()!r} targets worker "
                    f"{fault.worker} but --workers is {args.workers}"
                )
    elif args.chaos:
        plan = FaultPlan.random(
            seed=args.seed,
            num_workers=args.workers,
            num_messages=args.messages,
        )
    else:
        plan = None
    if plan is not None:
        print(f"faults: {plan.describe()}  recovery={args.recovery}")

    config = RuntimeConfig(
        capacity=args.capacity,
        policy=args.policy,
        service_cost=args.service_cost,
        mode=args.mode,
        flush_size=args.flush_size,
        recovery=args.recovery,
        faults=plan,
        liveness_deadline=args.liveness_deadline,
        restart_limit=args.restart_limit,
    )
    if args.mode == "auto" and not runtime_available():
        print(
            "note: process spawning or shared memory unavailable; "
            "running in-process simulated rings"
        )

    spec = get_dataset(args.dataset)
    keys = (
        spec.chunk_source(args.messages, seed=args.seed)
        if args.streaming
        else spec.stream(args.messages, seed=args.seed)
    )
    failures = 0
    for scheme in args.schemes:
        partitioner = make_partitioner(scheme, args.workers, seed=args.seed)
        result = run_runtime(keys, partitioner, config)
        line = (
            f"{scheme:>16}  mode={result.mode:<9} "
            f"throughput={result.messages_per_second:>12,.0f} msg/s  "
            f"p99_sojourn={result.p99_sojourn() * 1e3:8.3f} ms  "
            f"stalls={result.stalls}"
        )
        if result.dropped:
            line += f"  dropped={result.dropped}"
        if result.status != "ok":
            line += f"  status={result.status}"
        print(line)
        print(f"{'':>16}  worker_loads={result.worker_loads.tolist()}")
        if result.failures:
            print(
                f"{'':>16}  failures={len(result.failures)} "
                f"restarts={result.restarts} "
                f"stall_timeouts={result.stall_timeouts} "
                f"lost={result.lost} "
                f"masked={list(result.masked_workers)}"
            )
        stages = result.stage_seconds
        print(
            f"{'':>16}  stages: route={stages['route'] * 1e3:.1f}ms "
            f"scatter={stages['scatter'] * 1e3:.1f}ms "
            f"flush_stall={stages['flush_stall'] * 1e3:.1f}ms "
            f"drain={stages['drain'] * 1e3:.1f}ms  "
            f"flushes={result.flushes}  "
            f"overhead={result.transport_overhead_ratio:.2f}x"
        )
        if args.verify:
            lossless = result.policy in ("block", "spin")
            if not result.conservation_ok:
                failures += 1
                print(
                    f"{'':>16}  verify: CONSERVATION VIOLATED "
                    f"(sent={result.sent} processed={result.processed} "
                    f"dropped={result.dropped} lost={result.lost})"
                )
            elif plan is not None and not (
                args.recovery == "restart" and lossless
            ):
                # Degraded/aborted runs cannot match the fault-free
                # replay; exact conservation is their contract.
                print(
                    f"{'':>16}  verify: conservation holds "
                    f"(sent={result.sent} = processed={result.processed} "
                    f"+ dropped={result.dropped} + lost={result.lost})"
                )
            else:
                fresh = make_partitioner(scheme, args.workers, seed=args.seed)
                replay = replay_stream(keys, fresh)
                expected = (
                    replay.final_loads
                    if lossless
                    else replay.final_loads - result.dropped_per_worker
                )
                recovered = plan is None or result.status == "ok"
                if np.array_equal(result.worker_loads, expected) and recovered:
                    print(
                        f"{'':>16}  verify: counts match replay_stream"
                        + (" (recovered)" if plan is not None else "")
                    )
                else:
                    failures += 1
                    print(
                        f"{'':>16}  verify: MISMATCH "
                        f"(replay {replay.final_loads.tolist()}, "
                        f"status={result.status})"
                    )

    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
