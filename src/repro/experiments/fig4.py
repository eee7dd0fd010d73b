"""Figure 4: robustness to skewed splits of keys onto sources.

The Q3 experiment streams graph edges: source PEIs are keyed by the
edge's *source vertex* (so the out-degree skew lands on the sources)
while workers are keyed by the *destination vertex* (in-degree skew).
We compare PKG-local when the stream is split uniformly over sources
(shuffle) against the skewed key-grouped split.

Expected shape: skewed ~ uniform (PKG is robust and can be chained
after key grouping); imbalance grows mildly with S and W but stays at
very low absolute values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.engine import assign_sources, replay_interleaved
from repro.core.parallel import edge_stream_cached, parallel_map
from repro.experiments.config import ExperimentConfig, format_table
from repro.streams.datasets import get_dataset


@dataclass
class Fig4Row:
    dataset: str
    split: str  # "uniform" | "skewed"
    num_sources: int
    num_workers: int
    average_imbalance_fraction: float


def _fig4_cell(cell) -> Fig4Row:
    """One grid cell: (dataset, S, split, W) on the shared edge stream."""
    symbol, num_edges, s, split, w, seed, num_checkpoints = cell
    source_keys, worker_keys = edge_stream_cached(num_edges, seed)
    if split == "uniform":
        source_ids = assign_sources(len(worker_keys), s)
    else:
        source_ids = assign_sources(
            len(worker_keys), s, source_keys=source_keys, seed=seed
        )
    result = replay_interleaved(
        worker_keys,
        w,
        num_sources=s,
        source_ids=source_ids,
        seed=seed,
        num_checkpoints=num_checkpoints,
    )
    return Fig4Row(
        dataset=symbol,
        split=split,
        num_sources=s,
        num_workers=w,
        average_imbalance_fraction=result.average_imbalance_fraction,
    )


def run_fig4(
    config: Optional[ExperimentConfig] = None,
    datasets: Sequence[str] = ("LJ",),
) -> List[Fig4Row]:
    config = config or ExperimentConfig()
    cells, streams = [], []
    for symbol in datasets:
        num_edges = config.messages_for(get_dataset(symbol))
        streams.append(("edges", num_edges, config.seed))
        for s in config.sources:
            for split in ("uniform", "skewed"):
                for w in config.workers:
                    cells.append(
                        (symbol, num_edges, s, split, w, config.seed,
                         config.num_checkpoints)
                    )
    return parallel_map(_fig4_cell, cells, jobs=config.jobs, streams=streams)


def summarize_fig4(rows: List[Fig4Row]) -> dict:
    """Headline stats for EXPERIMENTS.md.

    The worst skewed/uniform imbalance ratio over all (S, W) per dataset
    (the paper's claim: PKG is robust to skewed source splits, so the
    ratio stays near 1) plus the overall worst absolute fraction.
    """
    out = {}
    datasets = list(dict.fromkeys(r.dataset for r in rows))
    by_key = {
        (r.dataset, r.split, r.num_sources, r.num_workers): (
            r.average_imbalance_fraction
        )
        for r in rows
    }
    for d in datasets:
        ratios = []
        for r in rows:
            if r.dataset != d or r.split != "skewed":
                continue
            uniform = by_key.get((d, "uniform", r.num_sources, r.num_workers))
            if uniform:
                ratios.append(r.average_imbalance_fraction / uniform)
        if ratios:
            out[f"skewed_over_uniform_max[{d}]"] = max(ratios)
        out[f"max_imbalance_fraction[{d}]"] = max(
            r.average_imbalance_fraction for r in rows if r.dataset == d
        )
    return out


def format_fig4(rows: List[Fig4Row]) -> str:
    datasets = list(dict.fromkeys(r.dataset for r in rows))
    workers = sorted({r.num_workers for r in rows})
    blocks = []
    for d in datasets:
        table_rows = []
        combos = list(
            dict.fromkeys(
                (r.split, r.num_sources) for r in rows if r.dataset == d
            )
        )
        by_key: Dict = {
            (r.split, r.num_sources, r.num_workers): r.average_imbalance_fraction
            for r in rows
            if r.dataset == d
        }
        for split, s in combos:
            row = [f"{split} L{s}"]
            for w in workers:
                v = by_key.get((split, s, w))
                row.append("-" if v is None else f"{v:.2e}")
            table_rows.append(row)
        blocks.append(
            format_table(
                ["split"] + [f"W={w}" for w in workers],
                table_rows,
                title=f"Figure 4 [{d}]: imbalance fraction, uniform vs skewed sources",
            )
        )
    return "\n\n".join(blocks)
