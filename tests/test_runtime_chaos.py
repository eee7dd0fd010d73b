"""Chaos matrix: seeded fault schedules x recovery policies x backends.

Two invariants carry the whole fault-tolerance contract and every run
here asserts at least one of them:

* **Conservation** -- ``sent == processed + dropped + lost`` holds
  exactly for every schedule, every policy, every backend.  Nothing is
  silently lost and nothing is double-counted, even mid-crash.
* **Restart determinism** -- after ``recovery="restart"`` fully
  recovers a killed worker, the per-worker counts are byte-identical
  to the fault-free single-process replay: the respawned worker
  re-processed exactly the span the dead one lost.

The hypothesis matrix drives randomly drawn (but seeded) fault plans
through the simulated backend; the fixed schedules then pin the
acceptance scenarios on real worker processes.  Deadlines are
tightened throughout so a recovery path that *would* hang fails fast
instead.
"""

import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import available_schemes, make_partitioner
from repro.core.engine import replay_stream
from repro.runtime import (
    FaultPlan,
    RuntimeConfig,
    run_runtime,
    runtime_available,
)
from repro.streams.datasets import get_dataset

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")

STREAM = get_dataset("WP").stream(12_000, seed=42)
SMALL = STREAM[:6_000]

needs_processes = pytest.mark.skipif(
    not runtime_available(), reason="process spawning or /dev/shm unavailable"
)

#: the paper's headline schemes, exercised on real processes.
PROCESS_SCHEMES = ("pkg", "kg", "sg", "jbsq")


def simulated_config(recovery, faults, **overrides):
    """Small rings + tight deadlines: force mid-stream interaction."""
    kwargs = dict(
        mode="simulated",
        capacity=128,
        flush_size=128,
        recovery=recovery,
        faults=faults,
        liveness_deadline=1.0,
        drain_deadline=30.0,
    )
    kwargs.update(overrides)
    return RuntimeConfig(**kwargs)


def process_config(recovery, faults, **overrides):
    kwargs = dict(
        mode="process",
        capacity=512,
        flush_size=512,
        recovery=recovery,
        faults=faults,
        liveness_deadline=2.0,
        drain_deadline=60.0,
    )
    kwargs.update(overrides)
    return RuntimeConfig(**kwargs)


class TestChaosMatrixSimulated:
    """Randomly drawn fault plans must never break conservation."""

    @settings(max_examples=25, deadline=None)
    @given(
        chaos_seed=st.integers(min_value=0, max_value=10_000),
        recovery=st.sampled_from(["reroute", "restart"]),
        scheme=st.sampled_from(["pkg", "kg"]),
    )
    def test_conservation_always_holds(self, chaos_seed, recovery, scheme):
        plan = FaultPlan.random(
            seed=chaos_seed, num_workers=3, num_messages=SMALL.size
        )
        result = run_runtime(
            SMALL,
            make_partitioner(scheme, 3, seed=42),
            simulated_config(recovery, plan),
        )
        assert result.status in ("ok", "degraded", "failed")
        assert result.sent == SMALL.size
        assert result.conservation_ok, (
            f"seed={chaos_seed} recovery={recovery} scheme={scheme}: "
            f"sent={result.sent} processed={result.processed} "
            f"dropped={result.dropped} lost={result.lost}"
        )
        assert result.worker_loads.sum() == result.processed
        kinds = {s.kind for s in plan.specs}
        if (
            recovery == "restart"
            and result.status == "ok"
            and "drop" not in kinds
        ):
            # Fully recovered without loss-by-design faults: counts are
            # byte-identical to the fault-free replay.
            replay = replay_stream(
                SMALL, make_partitioner(scheme, 3, seed=42)
            )
            np.testing.assert_array_equal(
                result.worker_loads, replay.final_loads
            )

    @settings(max_examples=10, deadline=None)
    @given(chaos_seed=st.integers(min_value=0, max_value=10_000))
    def test_fail_policy_aborts_cleanly_or_completes(self, chaos_seed):
        # Under `fail`, a lethal fault yields a labeled partial result;
        # a non-lethal plan completes ok.  Either way: conservation.
        plan = FaultPlan.random(
            seed=chaos_seed, num_workers=3, num_messages=SMALL.size
        )
        result = run_runtime(
            SMALL,
            make_partitioner("pkg", 3, seed=42),
            simulated_config("fail", plan),
        )
        lethal = any(s.lethal for s in plan.specs)
        if result.status == "failed":
            assert lethal
            assert result.failures
        assert result.conservation_ok


class TestRestartIdentitySimulated:
    """Every registered scheme survives kill+restart byte-identically."""

    @pytest.mark.parametrize("scheme", sorted(available_schemes()))
    def test_kill_restart_matches_replay(self, scheme):
        plan = FaultPlan.parse(["kill:w=1@n=200"], seed=42)
        result = run_runtime(
            STREAM,
            make_partitioner(scheme, 4, seed=42),
            simulated_config("restart", plan),
        )
        replay = replay_stream(STREAM, make_partitioner(scheme, 4, seed=42))
        assert result.status == "ok", result.failures
        assert result.conservation_ok
        np.testing.assert_array_equal(result.worker_loads, replay.final_loads)
        if replay.final_loads[1] >= 200:  # the trigger actually fired
            assert result.restarts >= 1
            assert result.failures[0]["worker"] == 1

    def test_double_kill_restarts_twice(self):
        # The re-armed schedule: the respawned worker dies again during
        # or after the replay; recovery handles it recursively.
        plan = FaultPlan.parse(
            ["kill:w=1@n=500", "kill:w=1@n=1500"], seed=42
        )
        result = run_runtime(
            STREAM,
            make_partitioner("pkg", 4, seed=42),
            simulated_config("restart", plan),
        )
        replay = replay_stream(STREAM, make_partitioner("pkg", 4, seed=42))
        assert result.status == "ok"
        assert result.restarts == 2
        np.testing.assert_array_equal(result.worker_loads, replay.final_loads)

    def test_restart_limit_aborts_cleanly(self):
        # More kills than the limit allows: a clean, conserved abort --
        # never a hang.
        plan = FaultPlan.parse(
            ["kill:w=1@n=100", "kill:w=1@n=200", "kill:w=1@n=300"],
            seed=42,
        )
        result = run_runtime(
            STREAM,
            make_partitioner("pkg", 4, seed=42),
            simulated_config("restart", plan, restart_limit=2),
        )
        assert result.status == "failed"
        assert result.restarts == 2
        assert result.conservation_ok


class TestRerouteSimulated:
    def test_degraded_run_conserves_and_masks(self):
        plan = FaultPlan.parse(["kill:w=1@n=1000"], seed=42)
        result = run_runtime(
            STREAM,
            make_partitioner("pkg", 4, seed=42),
            simulated_config("reroute", plan),
        )
        assert result.status == "degraded"
        assert result.masked_workers == (1,)
        assert result.conservation_ok
        assert result.lost > 0  # the dead worker's unprocessed span
        # Survivors absorbed the rerouted traffic: everything the dead
        # worker didn't lose was processed by the remaining three.
        assert result.processed == STREAM.size - result.lost

    def test_stall_forever_is_condemned_and_rerouted(self):
        plan = FaultPlan.parse(["stall:w=2@n=1000"], seed=42)
        result = run_runtime(
            STREAM,
            make_partitioner("kg", 4, seed=42),
            simulated_config("reroute", plan),
        )
        assert result.status == "degraded"
        assert result.masked_workers == (2,)
        assert result.failures[0]["reason"] == "wedged"
        assert result.conservation_ok


class TestAllWorkersDead:
    """No worker survives: a failed, conserved result, never a crash.

    A small routing chunk makes the abort land mid-stream, so the
    result covers only the routed prefix and no worker reports back.
    """

    @pytest.mark.parametrize(
        "mode", ["simulated", pytest.param("process", marks=needs_processes)]
    )
    @pytest.mark.parametrize(
        "faults, recovery",
        [
            (["kill:w=0@n=100"], "fail"),
            (["kill:w=0@n=100"], "reroute"),
            (["kill:w=0@n=100", "kill:w=1@n=100"], "reroute"),
        ],
        ids=["w1-fail", "w1-reroute", "w2-reroute"],
    )
    def test_no_survivor_fails_cleanly(self, mode, faults, recovery):
        make_config = simulated_config if mode == "simulated" else process_config
        config = make_config(
            recovery, FaultPlan.parse(faults, seed=42), chunk_size=1024
        )
        result = run_runtime(
            STREAM, make_partitioner("pkg", len(faults), seed=42), config
        )
        assert result.status == "failed"
        assert result.conservation_ok
        assert result.failed_workers == tuple(range(len(faults)))
        assert result.worker_reports == []
        assert result.p99_sojourn() == 0.0
        assert result.checkpoint_positions.size == result.imbalance_series.size
        assert np.all(result.checkpoint_positions <= result.sent)


class TestEndOfStreamDeaths:
    """A worker that dies during the final drain, inside ``collect``.

    The simulated backend only runs a worker when a push finds its ring
    full, so worker 1's last partial flush sits unprocessed in its ring
    until end-of-stream; a kill placed inside that flush fires there.
    """

    @pytest.mark.parametrize(
        "recovery, status", [("fail", "failed"), ("reroute", "degraded"), ("restart", "ok")]
    )
    def test_kill_in_last_partial_flush(self, recovery, status):
        replay = replay_stream(STREAM, make_partitioner("pkg", 4, seed=42))
        config = simulated_config(recovery, None)
        total = int(replay.final_loads[1])
        tail = total % config.flush_size
        assert tail >= 2, "worker 1 needs a partial last flush"
        plan = FaultPlan.parse([f"kill:w=1@n={total - tail // 2}"], seed=42)
        result = run_runtime(
            STREAM,
            make_partitioner("pkg", 4, seed=42),
            replace(config, faults=plan),
        )
        assert result.status == status, result.failures
        assert result.conservation_ok
        assert result.sent == STREAM.size
        first = result.failures[0]
        assert (first["worker"], first["action"]) == (1, recovery)
        assert first["at_routed"] == STREAM.size  # detected after routing
        if recovery == "restart":
            assert result.restarts == 1
            np.testing.assert_array_equal(result.worker_loads, replay.final_loads)
        else:
            assert result.failed_workers == (1,)
            assert result.lost > 0


@needs_processes
class TestProcessChaosMatrix:
    """The acceptance schedules on real worker processes."""

    @pytest.mark.parametrize("scheme", PROCESS_SCHEMES)
    def test_kill_restart_is_byte_identical(self, scheme):
        plan = FaultPlan.parse(["kill:w=1@n=500"], seed=42)
        result = run_runtime(
            STREAM,
            make_partitioner(scheme, 4, seed=42),
            process_config("restart", plan),
        )
        replay = replay_stream(STREAM, make_partitioner(scheme, 4, seed=42))
        assert result.mode == "process"
        assert result.status == "ok", result.failures
        assert result.conservation_ok
        np.testing.assert_array_equal(result.worker_loads, replay.final_loads)
        if replay.final_loads[1] >= 500:
            assert result.restarts >= 1

    @pytest.mark.parametrize("scheme", PROCESS_SCHEMES)
    def test_kill_reroute_conserves_degraded(self, scheme):
        plan = FaultPlan.parse(["kill:w=1@n=500"], seed=42)
        result = run_runtime(
            STREAM,
            make_partitioner(scheme, 4, seed=42),
            process_config("reroute", plan),
        )
        assert result.mode == "process"
        assert result.conservation_ok
        if result.restarts == 0 and result.failures:
            assert result.status == "degraded"
            assert result.masked_workers == (1,)
            assert result.worker_loads.sum() == result.processed

    def test_chaos_plan_on_processes(self):
        # One randomly drawn (seeded) schedule end-to-end on real
        # processes: whatever it drew, nothing leaks and the
        # conservation law holds.
        plan = FaultPlan.random(
            seed=7, num_workers=4, num_messages=STREAM.size
        )
        result = run_runtime(
            STREAM,
            make_partitioner("pkg", 4, seed=42),
            process_config("reroute", plan),
        )
        assert result.injected_faults == tuple(
            s.describe() for s in plan.specs
        )
        assert result.conservation_ok


class TestOneLivenessRule:
    """A full-ring push waits only while its worker is alive.

    Alive means not exited and beaten within ``liveness_deadline``: an
    exit is noticed at once, a slow worker that keeps beating is never
    escalated, and a silent one is condemned after the deadline.
    """

    @needs_processes
    def test_exit_is_noticed_without_waiting(self):
        # A generous liveness deadline must not delay noticing an exit:
        # no detection wait is booked as flush stall.
        plan = FaultPlan.parse(["kill:w=1@n=500"], seed=42)
        result = run_runtime(
            STREAM,
            make_partitioner("pkg", 2, seed=42),
            process_config("restart", plan, liveness_deadline=30.0),
        )
        replay = replay_stream(STREAM, make_partitioner("pkg", 2, seed=42))
        assert result.status == "ok", result.failures
        assert result.restarts == 1
        np.testing.assert_array_equal(result.worker_loads, replay.final_loads)
        assert result.stage_seconds["flush_stall"] < 1.0

    @needs_processes
    def test_slow_beating_worker_is_never_escalated(self):
        # One batch of 8 messages takes 2.2 s of service, so the last
        # push finds the ring full for over 2 s; the worker beats
        # between batches, well inside the liveness deadline.
        stream = STREAM[:17]
        result = run_runtime(
            stream,
            make_partitioner("pkg", 1, seed=42),
            process_config(
                "fail",
                None,
                capacity=8,
                flush_size=8,
                max_batch=8,
                service_cost=0.275,
                liveness_deadline=10.0,
            ),
        )
        replay = replay_stream(stream, make_partitioner("pkg", 1, seed=42))
        assert result.status == "ok", result.failures
        assert result.stall_timeouts == 0
        np.testing.assert_array_equal(result.worker_loads, replay.final_loads)

    @needs_processes
    def test_wedged_worker_is_terminated_not_joined(self):
        # An endless stall is condemned after the liveness deadline and
        # terminated at once: it would never exit on its own.
        plan = FaultPlan.parse(["stall:w=1@n=500"], seed=42)
        started = time.perf_counter()
        result = run_runtime(
            STREAM,
            make_partitioner("pkg", 2, seed=42),
            process_config("reroute", plan, liveness_deadline=1.0),
        )
        assert time.perf_counter() - started < 4.0
        assert result.status == "degraded"
        assert result.failures[0]["reason"] == "wedged"
        assert result.conservation_ok

    @pytest.mark.parametrize(
        "mode", ["simulated", pytest.param("process", marks=needs_processes)]
    )
    def test_short_stall_is_waited_out(self, mode):
        # A stall shorter than the liveness deadline is no death.
        make_config = simulated_config if mode == "simulated" else process_config
        plan = FaultPlan.parse(["stall:w=1@n=500:duration=0.3"], seed=42)
        result = run_runtime(
            STREAM,
            make_partitioner("pkg", 2, seed=42),
            make_config("restart", plan, liveness_deadline=2.0),
        )
        replay = replay_stream(STREAM, make_partitioner("pkg", 2, seed=42))
        assert result.status == "ok", result.failures
        assert not result.failures
        np.testing.assert_array_equal(result.worker_loads, replay.final_loads)
