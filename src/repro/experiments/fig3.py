"""Figure 3: fraction of imbalance through time.

For TW and WP (W = 10 and 50) and the drifting CT dataset, track
``I(t) / t`` over the stream under three techniques with S = 5 sources:
the global oracle (G), local estimation (L5), and local estimation with
periodic probing every simulated minute (L5P1).

Expected shape: G and L5 indistinguishable; probing adds nothing; CT's
drift causes occasional spikes that all techniques absorb.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.engine import replay_interleaved
from repro.core.parallel import dataset_stream_cached, parallel_map
from repro.experiments.config import ExperimentConfig, format_table
from repro.streams.datasets import get_dataset

#: dataset -> simulated stream span in hours (mirrors the paper's x-axes)
STREAM_HOURS = {"TW": 30.0, "WP": 40.0, "CT": 600.0}

DEFAULT_CASES: Tuple[Tuple[str, int], ...] = (
    ("TW", 10),
    ("TW", 50),
    ("WP", 10),
    ("WP", 50),
    ("CT", 10),
    ("CT", 50),
)


@dataclass
class Fig3Series:
    dataset: str
    technique: str
    num_workers: int
    #: checkpoint times in hours
    hours: np.ndarray = field(repr=False)
    #: I(t) / messages-so-far at each checkpoint
    imbalance_fraction: np.ndarray = field(repr=False)

    @property
    def final_fraction(self) -> float:
        return float(self.imbalance_fraction[-1])

    @property
    def mean_fraction(self) -> float:
        return float(self.imbalance_fraction.mean())


def _fig3_cell(cell) -> Fig3Series:
    """One series: (dataset, W, technique) on the shared stream."""
    (symbol, messages, w, name, mode, probe_period, num_sources, seed,
     num_checkpoints) = cell
    keys = dataset_stream_cached(symbol, messages, seed)
    hours = STREAM_HOURS.get(symbol, 30.0)
    # Timestamps in minutes, spread uniformly over the span.
    timestamps = np.linspace(0.0, hours * 60.0, messages)
    result = replay_interleaved(
        keys,
        w,
        num_sources=num_sources,
        mode=mode,
        probe_period=probe_period,
        timestamps=timestamps,
        seed=seed,
        num_checkpoints=num_checkpoints,
    )
    positions = result.checkpoint_positions
    return Fig3Series(
        dataset=symbol,
        technique=name,
        num_workers=w,
        hours=timestamps[np.minimum(positions, messages) - 1] / 60.0,
        imbalance_fraction=result.imbalance_fraction_series,
    )


def run_fig3(
    config: Optional[ExperimentConfig] = None,
    cases: Sequence[Tuple[str, int]] = DEFAULT_CASES,
    num_sources: int = 5,
    probe_minutes: float = 1.0,
) -> List[Fig3Series]:
    config = config or ExperimentConfig()
    runs = (
        ("G", "global", 0.0),
        (f"L{num_sources}", "local", 0.0),
        (f"L{num_sources}P1", "probing", probe_minutes),
    )
    cells, streams = [], []
    for symbol, w in cases:
        messages = config.messages_for(get_dataset(symbol))
        streams.append(("dataset", symbol.upper(), messages, config.seed))
        for name, mode, probe_period in runs:
            cells.append(
                (symbol, messages, w, name, mode, probe_period, num_sources,
                 config.seed, max(config.num_checkpoints, 40))
            )
    return parallel_map(_fig3_cell, cells, jobs=config.jobs, streams=streams)


def summarize_fig3(series: List[Fig3Series]) -> dict:
    """Headline stats for EXPERIMENTS.md.

    Per case: the local/global ratio of mean imbalance fraction (the
    paper's claim: G and L5 are indistinguishable) and the probing/local
    ratio (probing adds nothing).
    """
    out = {}
    by_case = {}
    for s in series:
        by_case.setdefault((s.dataset, s.num_workers), {})[s.technique] = s
    for (d, w), techs in sorted(by_case.items()):
        g = next((s for t, s in techs.items() if t == "G"), None)
        local = next(
            (s for t, s in techs.items() if t.startswith("L") and "P" not in t), None
        )
        probing = next((s for t, s in techs.items() if "P" in t), None)
        if g and local and g.mean_fraction > 0:
            out[f"local_over_global[{d},W={w}]"] = local.mean_fraction / g.mean_fraction
        if local and probing and local.mean_fraction > 0:
            out[f"probing_over_local[{d},W={w}]"] = (
                probing.mean_fraction / local.mean_fraction
            )
    return out


def format_fig3(series: List[Fig3Series]) -> str:
    table_rows = []
    for s in series:
        table_rows.append(
            [
                s.dataset,
                s.num_workers,
                s.technique,
                f"{s.mean_fraction:.2e}",
                f"{s.final_fraction:.2e}",
            ]
        )
    return format_table(
        ["dataset", "W", "tech", "mean I(t)/t", "final I(m)/m"],
        table_rows,
        title="Figure 3: imbalance fraction through time (summary)",
    )
