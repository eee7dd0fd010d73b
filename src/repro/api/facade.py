"""The single ``run()`` entry point and its unified :class:`RunResult`.

Both execution paths of this reproduction -- the frequency-only stream
replay (Sections V's Q1-Q3 simulations) and the discrete-event DSPE
cluster (Q4's throughput/latency/memory deployment experiments) --
report through one result type, so notebooks, experiment harnesses, and
benchmarks can swap paths without reshaping their downstream code.

Both paths also *execute* through one core: the frequency path replays
on the chunked engine (:func:`repro.core.engine.replay_stream` /
``replay_per_source``) and the DSPE path schedules on the same
package's :class:`~repro.core.engine.EventLoop`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional, Sequence, Type, Union

import numpy as np

from repro.api.registry import make_partitioner
from repro.core.engine import ReplayResult, replay_per_source, replay_stream
from repro.core.metrics import imbalance

if TYPE_CHECKING:
    from repro.api.topology import Topology
    from repro.dspe.metrics import RunMetrics
    from repro.partitioning.base import Partitioner
    from repro.streams.distributions import KeyDistribution

__all__ = ["RunResult", "run"]


@dataclass
class RunResult:
    """Unified outcome of one experiment run.

    Frequency-only runs leave the timing fields (``throughput``,
    ``latency_*``) as ``None``; DSPE runs fill everything.  Memory is
    live partial counters for DSPE runs and routing-table entries for
    frequency-only runs (the paper's practicality metric).

    .. note:: The DSPE simulator does not track an imbalance time
       series, so for DSPE runs ``average_imbalance`` equals
       ``final_imbalance`` (both the max-mean of the final worker
       loads); only frequency-only runs report a checkpoint-averaged
       ``average_imbalance``.  Compare like with like across paths.
    """

    scheme: str
    num_workers: int
    num_sources: int
    num_messages: int
    worker_loads: np.ndarray = field(repr=False)
    average_imbalance: float = 0.0
    final_imbalance: float = 0.0
    #: tuples per second of measured time (DSPE path only)
    throughput: Optional[float] = None
    latency_mean: Optional[float] = None
    latency_p50: Optional[float] = None
    latency_p99: Optional[float] = None
    latency_max: Optional[float] = None
    average_memory: Optional[float] = None
    peak_memory: Optional[float] = None
    #: the underlying RunMetrics / ReplayResult, for specialists
    details: Any = field(default=None, repr=False)

    @property
    def average_imbalance_fraction(self) -> float:
        if self.num_messages == 0:
            return 0.0
        return self.average_imbalance / self.num_messages

    @property
    def final_imbalance_fraction(self) -> float:
        if self.num_messages == 0:
            return 0.0
        return self.final_imbalance / self.num_messages

    @classmethod
    def from_replay(
        cls,
        replay: ReplayResult,
        scheme: str,
        num_sources: int,
        memory_entries: Optional[int] = None,
    ) -> "RunResult":
        """Wrap a frequency-only :class:`~repro.core.engine.ReplayResult`."""
        memory = float(memory_entries) if memory_entries is not None else None
        return cls(
            scheme=scheme,
            num_workers=replay.num_workers,
            num_sources=num_sources,
            num_messages=replay.num_messages,
            worker_loads=np.asarray(replay.final_loads),
            average_imbalance=replay.average_imbalance,
            final_imbalance=replay.final_imbalance,
            average_memory=memory,
            peak_memory=memory,
            details=replay,
        )

    @classmethod
    def from_metrics(cls, metrics: "RunMetrics", num_sources: int = 1) -> "RunResult":
        """Wrap a DSPE :class:`~repro.dspe.metrics.RunMetrics`.

        The cluster simulator reports final loads only, so
        ``average_imbalance`` and ``final_imbalance`` are both the
        end-of-run snapshot here (see the class note).  Like the loads,
        ``num_messages`` counts every processed tuple, warmup included.
        """
        loads = np.asarray(metrics.worker_loads, dtype=np.float64)
        final = imbalance(loads) if loads.size else 0.0
        return cls(
            scheme=metrics.scheme,
            num_workers=len(metrics.worker_loads),
            num_sources=num_sources,
            num_messages=sum(metrics.worker_loads),
            worker_loads=loads,
            average_imbalance=final,
            final_imbalance=final,
            throughput=metrics.throughput,
            latency_mean=metrics.latency.mean,
            latency_p50=metrics.latency.percentile(50),
            latency_p99=metrics.latency.percentile(99),
            latency_max=metrics.latency.max,
            average_memory=metrics.average_memory_counters,
            peak_memory=float(metrics.peak_memory_counters),
            details=metrics,
        )

    def summary(self) -> str:
        """One-line human-readable digest of either path."""
        parts = [
            f"{self.scheme}: W={self.num_workers} S={self.num_sources}",
            f"m={self.num_messages}",
            f"avg I={self.average_imbalance:.1f}"
            f" (fraction {self.average_imbalance_fraction:.2e})",
        ]
        if self.throughput is not None:
            parts.append(f"throughput={self.throughput:.0f}/s")
        if self.latency_mean is not None:
            parts.append(f"latency(mean)={self.latency_mean * 1e3:.2f}ms")
        if self.average_memory is not None:
            parts.append(f"memory={self.average_memory:.0f}")
        return " ".join(parts)


def _resolve_distribution(
    distribution: Union[str, "KeyDistribution", None], dataset: Optional[str]
) -> Optional["KeyDistribution"]:
    """Normalise the (distribution, dataset) pair to a KeyDistribution."""
    from repro.streams.datasets import get_dataset

    if distribution is not None and dataset is not None:
        raise ValueError("pass either distribution or dataset, not both")
    if dataset is not None:
        return get_dataset(dataset).distribution()
    if isinstance(distribution, str):
        return get_dataset(distribution).distribution()
    return distribution


def run(
    target: Union[str, "Partitioner", Type["Partitioner"], "Topology"],
    *,
    keys: Optional[Sequence[Any]] = None,
    distribution: Union[str, "KeyDistribution", None] = None,
    dataset: Optional[str] = None,
    num_messages: Optional[int] = None,
    num_workers: Optional[int] = None,
    num_sources: Optional[int] = None,
    seed: Optional[int] = None,
    num_checkpoints: Optional[int] = None,
    timestamps: Optional[Sequence[float]] = None,
    keep_assignments: bool = False,
    **scheme_kwargs: Any,
) -> RunResult:
    """Run one experiment and return a unified :class:`RunResult`.

    Two dispatch modes, by the type of ``target``:

    **Topology** (DSPE path).  ``target`` is a
    :class:`~repro.api.topology.Topology`; the discrete-event cluster is
    built and run.  ``distribution`` / ``dataset`` override the
    topology's own source; other stream arguments are invalid here.

    **Scheme** (frequency path).  ``target`` is a scheme name, spec
    string (``"pkg:d=3"``), registered class, or partitioner instance.
    Keys come from ``keys``, or are sampled from ``distribution`` /
    ``dataset`` (``num_messages`` long, default 100k, seeded by
    ``seed``).  With ``num_sources > 1`` the stream is split among
    independent per-source partitioner instances, as in the paper's
    distributed setting.

    Examples
    --------
    >>> run("pkg", dataset="WP", num_workers=10).average_imbalance
    >>> run("pkg:d=3", keys=my_keys, num_workers=16, num_sources=5)
    >>> run(Topology().source("WP").partition_by("pkg").workers(9))
    """
    from repro.api.topology import Topology

    if isinstance(target, Topology):
        # Reject every frequency-path argument instead of silently
        # ignoring it: a Topology carries its own seed, worker count,
        # spout count, and scheme configuration.
        ignored = {
            "keys": keys is not None,
            "num_messages": num_messages is not None,
            "num_workers": num_workers is not None,
            "num_sources": num_sources is not None,
            "seed": seed is not None,
            "num_checkpoints": num_checkpoints is not None,
            "timestamps": timestamps is not None,
            "keep_assignments": keep_assignments,
        }
        bad = [name for name, given in ignored.items() if given]
        bad += sorted(scheme_kwargs)
        if bad:
            raise ValueError(
                f"{', '.join(bad)} do(es) not apply to a Topology run; "
                "configure the topology itself (.seed(), .workers(), "
                ".spouts(), .partition_by(), .source(), ...)"
            )
        dist = _resolve_distribution(distribution, dataset)
        cluster = target.build(distribution=dist)
        metrics = cluster.run()
        return RunResult.from_metrics(metrics, num_sources=len(cluster.spouts))

    # Frequency-only path.
    from repro.partitioning.base import Partitioner

    num_sources = 1 if num_sources is None else int(num_sources)
    if num_sources < 1:
        raise ValueError(f"num_sources must be >= 1, got {num_sources}")
    seed = 0 if seed is None else int(seed)
    num_checkpoints = 100 if num_checkpoints is None else int(num_checkpoints)

    if num_workers is None:
        if isinstance(target, Partitioner):
            num_workers = target.num_workers
        else:
            raise ValueError(
                "num_workers is required when target is a scheme name"
            )

    if keys is None:
        dist = _resolve_distribution(distribution, dataset)
        if dist is None:
            raise ValueError(
                "provide keys, or a distribution/dataset to sample from"
            )
        n = 100_000 if num_messages is None else int(num_messages)
        key_array = dist.sample(n, np.random.default_rng(seed))
    elif distribution is not None or dataset is not None:
        raise ValueError("pass either keys or a distribution/dataset, not both")
    else:
        key_array = np.asarray(keys)

    if num_sources == 1:
        partitioner = make_partitioner(target, num_workers, seed=seed, **scheme_kwargs)
        replay = replay_stream(
            key_array,
            partitioner,
            timestamps=timestamps,
            num_checkpoints=num_checkpoints,
            keep_assignments=keep_assignments,
        )
        return RunResult.from_replay(
            replay, partitioner.name, 1, partitioner.memory_entries()
        )

    if isinstance(target, Partitioner):
        raise ValueError(
            "multi-source runs need one partitioner per source; pass a "
            "scheme name or spec string instead of a built instance"
        )
    replay, instances = replay_per_source(
        key_array,
        lambda _s: make_partitioner(target, num_workers, seed=seed, **scheme_kwargs),
        num_workers,
        num_sources=num_sources,
        timestamps=timestamps,
        num_checkpoints=num_checkpoints,
        keep_assignments=keep_assignments,
    )
    return RunResult.from_replay(
        replay,
        instances[0].name,
        num_sources,
        sum(p.memory_entries() for p in instances),
    )
