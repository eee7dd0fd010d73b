"""Tests for the discrete-event simulation core and executors."""

import pytest

from repro.core.engine import EventLoop
from repro.dspe.executors import AggregatorExecutor, SpoutExecutor, Tuple_, WorkerExecutor
from repro.dspe.metrics import LatencyStats
from repro.partitioning import ShuffleGrouping


class TestSimulator:
    def test_events_run_in_time_order(self):
        sim = EventLoop()
        order = []
        sim.schedule(2.0, lambda: order.append("b"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(3.0, lambda: order.append("c"))
        sim.run_until(10.0)
        assert order == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        sim = EventLoop()
        order = []
        sim.schedule(1.0, lambda: order.append(1))
        sim.schedule(1.0, lambda: order.append(2))
        sim.run_until(5.0)
        assert order == [1, 2]

    def test_clock_advances_to_end(self):
        sim = EventLoop()
        sim.run_until(7.5)
        assert sim.now == 7.5

    def test_events_beyond_horizon_not_run(self):
        sim = EventLoop()
        ran = []
        sim.schedule(5.0, lambda: ran.append(1))
        sim.run_until(4.0)
        assert not ran
        sim.run_until(5.0)
        assert ran

    def test_cascading_events(self):
        sim = EventLoop()
        hits = []

        def recurse():
            hits.append(sim.now)
            if len(hits) < 5:
                sim.schedule(1.0, recurse)

        sim.schedule(0.0, recurse)
        sim.run_until(100.0)
        assert hits == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_cannot_schedule_in_past(self):
        sim = EventLoop()
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)
        sim.run_until(5.0)
        with pytest.raises(ValueError):
            sim.schedule_at(1.0, lambda: None)

    def test_max_events(self):
        sim = EventLoop()
        for i in range(10):
            sim.schedule(float(i), lambda: None)
        processed = sim.run_until(100.0, max_events=3)
        assert processed == 3
        assert sim.pending_events == 7

    def test_event_counter(self):
        sim = EventLoop()
        sim.schedule(1.0, lambda: None)
        sim.run_until(2.0)
        assert sim.total_events_processed == 1


class TestLatencyStats:
    def test_mean_exact(self):
        ls = LatencyStats()
        for v in (1.0, 2.0, 3.0):
            ls.record(v)
        assert ls.mean == pytest.approx(2.0)
        assert ls.count == 3
        assert ls.max == 3.0

    def test_percentile_of_empty(self):
        assert LatencyStats().percentile(99) == 0.0

    def test_percentiles_ordered(self):
        ls = LatencyStats()
        for v in range(1000):
            ls.record(float(v))
        assert ls.percentile(50) <= ls.percentile(99)

    def test_reservoir_bounded(self):
        ls = LatencyStats(reservoir_size=100)
        for v in range(10_000):
            ls.record(float(v))
        assert len(ls._reservoir) == 100
        assert ls.count == 10_000


class TestExecutors:
    def test_spout_respects_max_pending(self):
        sim = EventLoop()
        latency = LatencyStats()
        worker = WorkerExecutor(
            sim,
            cpu_delay=1.0,  # very slow: acks never arrive in time
            network_delay=0.01,
            latency=latency,
            warmup=0.0,
        )
        spout = SpoutExecutor(
            sim,
            key_source=lambda: 1,
            partitioner=ShuffleGrouping(1),
            workers=[worker],
            emit_cost=0.001,
            network_delay=0.01,
            max_pending=3,
        )
        spout.start()
        sim.run_until(0.5)
        assert spout.in_flight <= 3
        assert spout.emitted <= 3

    def test_worker_processes_fifo_and_acks(self):
        sim = EventLoop()
        latency = LatencyStats()
        worker = WorkerExecutor(
            sim,
            cpu_delay=0.01,
            network_delay=0.0,
            latency=latency,
            warmup=0.0,
        )
        acks = []

        class FakeSpout:
            def on_ack(self):
                acks.append(sim.now)

        spout = FakeSpout()
        worker.enqueue(Tuple_("k", 0.0, origin=spout))
        worker.enqueue(Tuple_("k", 0.0, origin=spout))
        worker.enqueue(Tuple_("k", 0.0))  # no origin: counted, not acked
        sim.run_until(1.0)
        assert worker.processed == 3
        assert len(acks) == 2
        assert worker.counts["k"] == 3

    def test_latency_only_after_warmup(self):
        sim = EventLoop()
        latency = LatencyStats()
        worker = WorkerExecutor(
            sim,
            cpu_delay=0.01,
            network_delay=0.0,
            latency=latency,
            warmup=100.0,
        )
        worker.enqueue(Tuple_("k", 0.0))
        sim.run_until(1.0)
        assert latency.count == 0
        assert worker.completed_after_warmup == 0

    def test_aggregator_merges_partials(self):
        agg = AggregatorExecutor()
        agg.receive({"a": 2, "b": 1})
        agg.receive({"a": 3})
        assert agg.totals == {"a": 5, "b": 1}
        assert agg.received_entries == 3
        assert agg.top_k(1) == [("a", 5)]

    def test_worker_flush_ships_partials(self):
        sim = EventLoop()
        latency = LatencyStats()
        agg = AggregatorExecutor()
        worker = WorkerExecutor(
            sim,
            cpu_delay=0.01,
            network_delay=0.0,
            latency=latency,
            warmup=0.0,
            aggregator=agg,
            flush_period=0.5,
            flush_entry_cost=0.001,
        )
        for _ in range(3):
            worker.enqueue(Tuple_("w", 0.0))
        sim.run_until(2.0)
        assert agg.totals.get("w") == 3
        assert worker.memory_counters() == 0  # flushed
        assert worker.flushed_entries == 1

    def test_invalid_executor_args(self):
        sim = EventLoop()
        with pytest.raises(ValueError):
            SpoutExecutor(
                sim, lambda: 1, ShuffleGrouping(1), [], emit_cost=0.0,
                network_delay=0.0, max_pending=1,
            )
        with pytest.raises(ValueError):
            WorkerExecutor(
                sim, cpu_delay=0.0, network_delay=0.0,
                latency=LatencyStats(), warmup=0.0,
            )
