"""Fluent Topology builder tests: validation, build, heterogeneity."""

import pytest

from repro.api import Topology, TopologyError, make_partitioner, run
from repro.partitioning import PartialKeyGrouping
from repro.streams.distributions import ZipfKeyDistribution


def dist():
    return ZipfKeyDistribution(1.05, 10_000)


def tiny(scheme="pkg"):
    return (
        Topology()
        .source(dist())
        .partition_by(scheme)
        .workers(4, cpu_delay=0.2e-3)
        .timing(duration=2.0, warmup=0.5)
    )


class TestValidation:
    def test_spouts_must_be_positive(self):
        with pytest.raises(TopologyError):
            Topology().spouts(0)

    def test_workers_must_be_positive(self):
        with pytest.raises(TopologyError):
            Topology().workers(0)

    def test_workers_needs_an_argument(self):
        with pytest.raises(TopologyError):
            Topology().workers()

    def test_cpu_delay_positive(self):
        with pytest.raises(TopologyError):
            Topology().workers(4, cpu_delay=0.0)

    def test_delays_count_mismatch(self):
        with pytest.raises(TopologyError):
            Topology().workers(3, delays=[1e-3, 2e-3])

    def test_delays_must_be_positive(self):
        with pytest.raises(TopologyError):
            Topology().workers(delays=[1e-3, -1e-3])

    def test_unknown_scheme_fails_fast(self):
        with pytest.raises(ValueError, match="unknown partitioning scheme"):
            Topology().partition_by("magic")  # repro: noqa[REPRO005]

    def test_straggler_validation(self):
        with pytest.raises(TopologyError):
            Topology().straggler(-1, 2.0)
        with pytest.raises(TopologyError):
            Topology().straggler(0, 0.0)

    def test_straggler_out_of_range_at_build(self):
        topo = tiny().workers(4, cpu_delay=0.2e-3).straggler(7, 2.0)
        with pytest.raises(TopologyError, match="out of range"):
            topo.build()

    def test_duration_must_exceed_warmup(self):
        with pytest.raises(TopologyError):
            tiny().timing(duration=1.0, warmup=2.0).build()

    def test_negative_aggregation_period(self):
        with pytest.raises(TopologyError):
            Topology().aggregate(every=-1.0)

    def test_build_without_source(self):
        topo = Topology().partition_by("pkg").workers(2).timing(2.0, 0.5)
        with pytest.raises(TopologyError, match="no key source"):
            topo.build()

    def test_network_validation(self):
        with pytest.raises(TopologyError):
            Topology().network(max_pending=0)
        with pytest.raises(TopologyError):
            Topology().network(delay=-1.0)

    def test_pinned_instance_worker_mismatch(self):
        topo = tiny().partition_by(PartialKeyGrouping(5)).workers(9)
        with pytest.raises(ValueError, match="9"):
            topo.build()

    def test_pinned_instance_with_multiple_spouts(self):
        topo = (
            tiny()
            .partition_by(PartialKeyGrouping(4))
            .spouts(2)
        )
        with pytest.raises(TopologyError, match="one spout"):
            topo.build()


class TestBuild:
    def test_config_reflects_builder(self):
        cluster = (
            Topology()
            .source(dist())
            .spouts(2)
            .workers(6, cpu_delay=0.3e-3)
            .straggler(1, 2.0)
            .aggregate(every=5.0)
            .timing(duration=8.0, warmup=2.0)
            .network(delay=1e-3, emit_cost=0.1e-3, max_pending=10)
            .seed(11)
            .build()
        )
        assert len(cluster.spouts) == 2
        assert [w.cpu_delay for w in cluster.workers] == [
            0.3e-3, 0.6e-3, 0.3e-3, 0.3e-3, 0.3e-3, 0.3e-3
        ]
        assert cluster.aggregator is not None
        assert {w.flush_period for w in cluster.workers} == {5.0}
        assert (cluster.duration, cluster.warmup) == (8.0, 2.0)
        assert {w.network_delay for w in cluster.workers} == {1e-3}
        # the emit budget and the pending window are split across spouts
        assert [(s.emit_cost, s.max_pending) for s in cluster.spouts] == [
            (0.2e-3, 5), (0.2e-3, 5)
        ]
        expected = make_partitioner("pkg", 6, seed=11)
        for spout in cluster.spouts:
            assert all(
                spout.partitioner.candidates(k) == expected.candidates(k)
                for k in range(100)
            )

    def test_heterogeneous_delays_reach_workers(self):
        delays = [0.1e-3, 0.2e-3, 0.4e-3]
        cluster = tiny().workers(delays=delays).build()
        assert [w.cpu_delay for w in cluster.workers] == delays

    def test_spec_string_configures_partitioner(self):
        cluster = tiny("pkg:d=3").build()
        assert cluster.spouts[0].partitioner.num_choices == 3
        assert cluster.scheme == "pkg"

    def test_dataset_symbol_source(self):
        cluster = tiny().source("WP").build()
        assert cluster.distribution.p1 > 0

    def test_each_spout_gets_its_own_partitioner(self):
        cluster = tiny().spouts(3).build()
        partitioners = [s.partitioner for s in cluster.spouts]
        assert len({id(p) for p in partitioners}) == 3


class TestRun:
    def test_run_returns_unified_result(self):
        result = tiny().run()
        assert result.scheme == "PKG"
        assert result.throughput > 0
        assert result.latency_p99 >= result.latency_p50 >= 0
        assert result.num_workers == 4
        assert result.num_messages > 0

    def test_num_messages_counts_the_loads_population(self):
        # The imbalance fractions divide load gaps by num_messages, so
        # both must count the same tuples: every processed one.
        result = tiny("kg").run()
        assert result.worker_loads.sum() == result.num_messages
        assert result.num_messages > result.details.completed

    def test_run_deterministic_for_fixed_seed(self):
        a = tiny().seed(5).run()
        b = tiny().seed(5).run()
        assert a.throughput == b.throughput
        assert a.num_messages == b.num_messages
        assert list(a.worker_loads) == list(b.worker_loads)

    def test_straggler_hurts_kg_throughput(self):
        fair = tiny("kg").run()
        slow = tiny("kg").straggler(0, factor=8.0).run()
        assert slow.throughput < fair.throughput

    def test_facade_accepts_topology(self):
        result = run(tiny())
        assert result.throughput > 0
