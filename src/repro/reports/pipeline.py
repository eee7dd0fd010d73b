"""Run experiment harnesses and persist their artifacts.

This is the engine behind ``python -m repro.reports run``: for each
requested experiment it runs the harness under one shared
:class:`ExperimentConfig`, wraps the rows into a validated
:class:`ExperimentArtifact` and writes it to the artifact directory.
Each artifact's manifest records its harness's wall-clock
``duration_seconds``.
"""

from __future__ import annotations

import time
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence

from repro.experiments import ExperimentConfig
from repro.reports.harnesses import get_harness, harness_names
from repro.reports.schema import (
    ExperimentArtifact,
    RunManifest,
    git_sha,
    write_artifact,
)

__all__ = ["reduced_config", "run_experiments", "utc_now_iso"]

#: Default artifact directory, relative to the repo root.
DEFAULT_RESULTS_DIR = "results"


def utc_now_iso() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def reduced_config(scale: float, seed: int = 42) -> ExperimentConfig:
    """An :class:`ExperimentConfig` whose cost tracks ``scale``.

    At ``scale >= 1`` this is the paper-scale default configuration.
    Below 1 the simulated-cluster duration and the checkpoint/source
    grids shrink with the stream length (mirroring the benchmark
    suite's ``bench_config``) so a 0.1-scale run finishes in minutes.
    """
    if scale >= 1.0:
        return ExperimentConfig(scale=scale, seed=seed)
    return ExperimentConfig(
        scale=scale,
        seed=seed,
        sources=(5, 10),
        num_checkpoints=30,
        cluster_duration=max(6.0, 20.0 * scale),
        cluster_warmup=max(1.5, 5.0 * scale),
    )


def run_experiments(
    names: Optional[Sequence[str]] = None,
    config: Optional[ExperimentConfig] = None,
    out_dir=DEFAULT_RESULTS_DIR,
    progress: Optional[Callable[[str], None]] = None,
    jobs: Optional[int] = None,
) -> Dict[str, ExperimentArtifact]:
    """Run harnesses and write one artifact per experiment.

    Returns the artifacts keyed by experiment name.  ``progress`` (if
    given) receives one human-readable line per completed experiment.
    ``jobs`` (the ``--jobs`` CLI flag) overrides ``config.jobs``: each
    harness fans its grid cells out over that many worker processes via
    :mod:`repro.core.parallel`.  Artifacts are identical at any job
    count (modulo the wall-clock fields of their manifests).
    """
    config = config or ExperimentConfig()
    if jobs is not None:
        config = replace(config, jobs=int(jobs))
    names = list(names) if names else harness_names()
    sha = git_sha()
    created = utc_now_iso()
    artifacts: Dict[str, ExperimentArtifact] = {}
    for name in names:
        harness = get_harness(name)
        start = time.perf_counter()
        rows = harness.run(config)
        duration = time.perf_counter() - start
        artifact = ExperimentArtifact(
            experiment=harness.name,
            paper_section=harness.paper_section,
            manifest=RunManifest.from_config(
                config, created_utc=created, duration_seconds=duration, sha=sha
            ),
            records=harness.records(rows),
            summary=harness.summarize(rows),
            metrics=harness.metrics(rows),
        )
        path = write_artifact(artifact, out_dir)
        artifacts[name] = artifact
        if progress:
            progress(f"{name}: {len(rows)} records in {duration:.1f}s -> {path}")
    return artifacts
