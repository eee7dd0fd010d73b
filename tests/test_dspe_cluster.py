"""Integration tests for the simulated word-count cluster (Q4)."""

import pytest

from repro.api import Topology
from repro.partitioning import PartialKeyGrouping
from repro.streams.distributions import ZipfKeyDistribution


def dist():
    return ZipfKeyDistribution(1.05, 10_000)  # WP-like skew (p1 ~ 9%)


def short(scheme="pkg", cpu_delay=0.4e-3, duration=4.0, warmup=1.0, every=0.0):
    return (
        Topology()
        .source(dist())
        .partition_by(scheme)
        .workers(cpu_delay=cpu_delay)
        .aggregate(every=every)
        .timing(duration, warmup)
        .seed(1)
    )


def run_wc(scheme="pkg", **kw):
    """One cluster run's :class:`~repro.dspe.metrics.RunMetrics`."""
    return short(scheme, **kw).build().run()


class TestClusterBasics:
    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            run_wc("magic")

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            short(duration=1.0, warmup=2.0).build()
        with pytest.raises(ValueError):
            short().workers(0)

    def test_metrics_fields(self):
        m = run_wc("pkg")
        assert m.scheme == "PKG"
        assert m.throughput > 0
        assert m.completed > 0
        assert m.emitted >= m.completed
        assert len(m.worker_loads) == 9
        assert m.latency.count == m.completed

    def test_conservation(self):
        m = run_wc("sg")
        assert sum(m.worker_loads) <= m.emitted

    def test_deterministic_given_seed(self):
        a = run_wc("pkg")
        b = run_wc("pkg")
        assert a.throughput == b.throughput
        assert a.completed == b.completed

    def test_custom_partitioner_injection(self):
        m = short().partition_by(PartialKeyGrouping(9)).build().run()
        assert m.throughput > 0

    def test_summary_string(self):
        m = run_wc("kg")
        assert "KG" in m.summary()


class TestFig5aShape:
    def test_low_delay_spout_bound_all_equal(self):
        results = {s: run_wc(s, cpu_delay=0.1e-3) for s in ("kg", "sg", "pkg")}
        values = [r.throughput for r in results.values()]
        assert max(values) - min(values) < 0.05 * max(values)

    def test_high_delay_kg_loses_throughput(self):
        kw = dict(cpu_delay=1.0e-3, duration=6.0, warmup=2.0)
        kg, pkg, sg = run_wc("kg", **kw), run_wc("pkg", **kw), run_wc("sg", **kw)
        assert kg.throughput < 0.8 * pkg.throughput
        assert abs(pkg.throughput - sg.throughput) < 0.1 * sg.throughput

    def test_high_delay_kg_latency_higher(self):
        kw = dict(cpu_delay=1.0e-3, duration=6.0, warmup=2.0)
        kg, pkg = run_wc("kg", **kw), run_wc("pkg", **kw)
        assert kg.latency.mean > pkg.latency.mean

    def test_kg_load_imbalance_highest(self):
        kg, sg = run_wc("kg", cpu_delay=0.2e-3), run_wc("sg", cpu_delay=0.2e-3)
        assert kg.load_imbalance > sg.load_imbalance


class TestFig5bShape:
    def test_aggregation_produces_messages_and_memory(self):
        m = run_wc("pkg", duration=8.0, warmup=2.0, every=1.0, cpu_delay=0.4e-3)
        assert m.aggregation_messages > 0
        assert m.average_memory_counters > 0

    def test_pkg_less_memory_than_sg(self):
        kw = dict(duration=8.0, warmup=2.0, every=2.0, cpu_delay=0.4e-3)
        pkg, sg = run_wc("pkg", **kw), run_wc("sg", **kw)
        assert pkg.average_memory_counters < sg.average_memory_counters
        assert pkg.throughput >= 0.95 * sg.throughput

    def test_longer_period_more_memory(self):
        kw = dict(duration=10.0, warmup=2.0, cpu_delay=0.4e-3)
        short_t = run_wc("pkg", every=0.5, **kw)
        long_t = run_wc("pkg", every=4.0, **kw)
        assert short_t.average_memory_counters < long_t.average_memory_counters

    def test_aggregator_receives_all_flushed_words(self):
        cluster = short(duration=6.0, every=1.0, cpu_delay=0.2e-3).build()
        cluster.run()
        aggregated = sum(cluster.aggregator.totals.values())
        processed = sum(w.processed for w in cluster.workers)
        live_counts = sum(sum(w.counts.values()) for w in cluster.workers)
        # Counts are conserved up to flush batches still in flight when
        # the simulation horizon cuts off.
        assert aggregated + live_counts <= processed
        assert aggregated + live_counts >= 0.9 * processed
