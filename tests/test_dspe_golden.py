"""Golden outputs of the simulated word-count cluster.

Each case is one short ``Topology`` run.  Its outputs were recorded
from the executors as they stand, and must repeat exactly: a change to
how the cluster is configured may not move the event order or the RNG
draws.  Re-record only for a deliberate change of the simulation.
"""

import pytest

from repro.api import Topology
from repro.streams.distributions import ZipfKeyDistribution


def topology(case: str) -> Topology:
    scheme, _, shape = case.partition("+")
    topo = (
        Topology()
        .source(ZipfKeyDistribution(1.05, 10_000))
        .partition_by(scheme)
        .workers(6, cpu_delay=0.5e-3)
        .timing(duration=3.0, warmup=1.0)
        .seed(3)
    )
    if shape == "agg":
        topo.aggregate(every=0.5)
    elif shape == "spouts":
        topo.spouts(2).aggregate(every=0.5)
    elif shape == "straggler":
        topo.straggler(2, factor=4.0)
    elif shape == "delays":
        topo.workers(delays=[0.3e-3, 0.4e-3, 0.5e-3, 0.6e-3, 0.7e-3, 0.8e-3])
    return topo


def outputs(result) -> dict:
    details = result.details
    return {
        "emitted": details.emitted,
        "completed": details.completed,
        "aggregation_messages": details.aggregation_messages,
        "throughput": result.throughput,
        "latency_p99": result.latency_p99,
        "average_memory": result.average_memory,
        "worker_loads": [int(load) for load in result.worker_loads],
    }


GOLDEN = {
    "pkg": {
        "emitted": 36022,
        "completed": 24000,
        "aggregation_messages": 0,
        "throughput": 12000.0,
        "latency_p99": 0.009623499999998866,
        "average_memory": 4885.4,
        "worker_loads": [5994, 5994, 5993, 5991, 5993, 5999],
    },
    "sg": {
        "emitted": 36052,
        "completed": 24000,
        "aggregation_messages": 0,
        "throughput": 12000.0,
        "latency_p99": 0.005090000000001815,
        "average_memory": 7733.2,
        "worker_loads": [5999, 5999, 5999, 5999, 5998, 5998],
    },
    "kg": {
        "emitted": 22166,
        "completed": 14879,
        "aggregation_messages": 0,
        "throughput": 7439.5,
        "latency_p99": 0.030140499999997208,
        "average_memory": 3104.0,
        "worker_loads": [2847, 4582, 3216, 2806, 2655, 5999],
    },
    "pkg+agg": {
        "emitted": 30613,
        "completed": 20100,
        "aggregation_messages": 9147,
        "throughput": 10050.0,
        "latency_p99": 0.035871499999999897,
        "average_memory": 1164.4,
        "worker_loads": [5098, 5099, 5097, 5098, 5065, 5096],
    },
    "sg+agg": {
        "emitted": 29134,
        "completed": 19283,
        "aggregation_messages": 12322,
        "throughput": 9641.5,
        "latency_p99": 0.037909000000000095,
        "average_memory": 1369.4,
        "worker_loads": [4855, 4854, 4854, 4854, 4846, 4810],
    },
    "kg+agg": {
        "emitted": 21366,
        "completed": 14278,
        "aggregation_messages": 6318,
        "throughput": 7139.0,
        "latency_p99": 0.04813300000000955,
        "average_memory": 680.0,
        "worker_loads": [2757, 4420, 3094, 2693, 2565, 5774],
    },
    "pkg+spouts": {
        "emitted": 30309,
        "completed": 19925,
        "aggregation_messages": 9071,
        "throughput": 9962.5,
        "latency_p99": 0.035581999999999454,
        "average_memory": 1165.2,
        "worker_loads": [5046, 5047, 5046, 5046, 5014, 5050],
    },
    "kg+straggler": {
        "emitted": 10872,
        "completed": 6944,
        "aggregation_messages": 0,
        "throughput": 3472.0,
        "latency_p99": 0.12571999999998634,
        "average_memory": 1969.2,
        "worker_loads": [1422, 2200, 1499, 1330, 1319, 3038],
    },
    "sg+delays": {
        "emitted": 22840,
        "completed": 15000,
        "aggregation_messages": 0,
        "throughput": 7500.0,
        "latency_p99": 0.04604999999999482,
        "average_memory": 5535.2,
        "worker_loads": [3807, 3806, 3806, 3806, 3805, 3749],
    },
}


@pytest.mark.parametrize("case", list(GOLDEN))
def test_outputs_match_recorded(case):
    assert outputs(topology(case).run()) == GOLDEN[case]
