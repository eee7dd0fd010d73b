"""A Storm-like distributed stream processing engine, simulated.

The paper's Q4 experiments run streaming top-k word count on a real
Storm cluster (one spout + 9 counter PEIs + optional aggregator on 10
VMs).  This package substitutes that testbed with a discrete-event
simulation faithful to the mechanisms that produce Figure 5's
phenomena:

* a **spout** emitting keys with a per-tuple emit cost, throttled by a
  max-pending window (Storm's ``topology.max.spout.pending`` acking
  behaviour);
* **worker** (counter) executors with a configurable per-key CPU delay,
  FIFO input queues, and periodic flushing of partial counters;
* an **aggregator** executor that absorbs flushed partials;
* network hop latency between executors;
* metrics: throughput (keys/s), end-to-end tuple latency, and live
  counter memory.

Load imbalance turns into longer queues at hot workers, which inflates
tuple round-trip time and throttles the spout -- exactly why KG loses
throughput and latency to PKG/SG in the paper.

The executors schedule on :class:`repro.core.engine.EventLoop`; the
cluster is described, assembled and run through
:class:`repro.api.Topology`.
"""

from repro.dspe.executors import (
    AggregatorExecutor,
    SpoutExecutor,
    WorkerExecutor,
)
from repro.dspe.metrics import LatencyStats, RunMetrics

__all__ = [
    "SpoutExecutor",
    "WorkerExecutor",
    "AggregatorExecutor",
    "LatencyStats",
    "RunMetrics",
]
