"""Figure 2: fraction of average imbalance vs number of workers.

Per dataset (TW, WP, CT, LN1, LN2) and worker count W in {5,10,50,100},
compare hashing (H) against PKG with a global oracle (G) and with local
estimation at S in {5,10,15,20} sources (L5..L20).

Expected shape: H several orders of magnitude above the PKG variants;
L within about one order of magnitude of G and insensitive to S; all
variants collapse together once W exceeds the dataset's O(1/p1) limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.api.registry import make_partitioner
from repro.core.engine import replay_interleaved, replay_stream
from repro.core.parallel import dataset_stream_cached, parallel_map
from repro.experiments.config import ExperimentConfig, format_table
from repro.streams.datasets import get_dataset

DEFAULT_DATASETS = ("TW", "WP", "CT", "LN1", "LN2")


@dataclass
class Fig2Row:
    dataset: str
    technique: str  # "H", "G", "L5", "L10", ...
    num_workers: int
    average_imbalance_fraction: float
    average_imbalance: float


def _fig2_cell(cell) -> Fig2Row:
    """One grid cell: (dataset, technique, W) on the shared stream."""
    symbol, messages, technique, w, seed, num_checkpoints = cell
    keys = dataset_stream_cached(symbol, messages, seed)
    if technique == "H":
        result = replay_stream(
            keys,
            make_partitioner("kg", w, seed=seed),
            num_checkpoints=num_checkpoints,
        )
    elif technique == "G":
        result = replay_interleaved(
            keys,
            w,
            num_sources=5,
            mode="global",
            seed=seed,
            num_checkpoints=num_checkpoints,
        )
    else:
        result = replay_interleaved(
            keys,
            w,
            num_sources=int(technique[1:]),
            mode="local",
            seed=seed,
            num_checkpoints=num_checkpoints,
        )
    return Fig2Row(
        dataset=symbol,
        technique=technique,
        num_workers=w,
        average_imbalance_fraction=result.average_imbalance_fraction,
        average_imbalance=result.average_imbalance,
    )


def run_fig2(
    config: Optional[ExperimentConfig] = None,
    datasets: Sequence[str] = DEFAULT_DATASETS,
) -> List[Fig2Row]:
    config = config or ExperimentConfig()
    techniques = ["H", "G"] + [f"L{s}" for s in config.sources]
    cells, streams = [], []
    for symbol in datasets:
        messages = config.messages_for(get_dataset(symbol))
        streams.append(("dataset", symbol.upper(), messages, config.seed))
        for w in config.workers:
            for technique in techniques:
                cells.append(
                    (symbol, messages, technique, w, config.seed,
                     config.num_checkpoints)
                )
    return parallel_map(_fig2_cell, cells, jobs=config.jobs, streams=streams)


def summarize_fig2(rows: List[Fig2Row]) -> dict:
    """Headline stats for EXPERIMENTS.md.

    Per dataset: the worst-case ratio of local estimation to the global
    oracle over all (W, S) -- the paper claims L stays within about one
    order of magnitude of G -- and the best-case hashing/oracle ratio
    (H is meant to be orders of magnitude worse everywhere feasible).
    """
    by_key = {(r.dataset, r.technique, r.num_workers): r.average_imbalance for r in rows}
    datasets = list(dict.fromkeys(r.dataset for r in rows))
    workers = sorted({r.num_workers for r in rows})
    locals_ = sorted(
        {r.technique for r in rows if r.technique.startswith("L")},
        key=lambda t: int(t[1:]),
    )
    out = {}
    for d in datasets:
        l_over_g, h_over_g = [], []
        for w in workers:
            g = by_key.get((d, "G", w))
            h = by_key.get((d, "H", w))
            if not g:
                continue
            if h:
                h_over_g.append(h / g)
            for t in locals_:
                l = by_key.get((d, t, w))
                if l:
                    l_over_g.append(l / g)
        if l_over_g:
            out[f"local_over_global_max[{d}]"] = max(l_over_g)
        if h_over_g:
            out[f"hash_over_global_min[{d}]"] = min(h_over_g)
    return out


def format_fig2(rows: List[Fig2Row]) -> str:
    datasets = list(dict.fromkeys(r.dataset for r in rows))
    workers = sorted({r.num_workers for r in rows})
    techniques = list(dict.fromkeys(r.technique for r in rows))
    by_key: Dict = {
        (r.dataset, r.technique, r.num_workers): r.average_imbalance_fraction
        for r in rows
    }
    blocks = []
    for d in datasets:
        table_rows = []
        for t in techniques:
            row = [t]
            for w in workers:
                v = by_key.get((d, t, w))
                row.append("-" if v is None else f"{v:.2e}")
            table_rows.append(row)
        blocks.append(
            format_table(
                ["tech"] + [f"W={w}" for w in workers],
                table_rows,
                title=f"Figure 2 [{d}]: fraction of average imbalance",
            )
        )
    return "\n\n".join(blocks)
