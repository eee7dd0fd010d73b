"""Shared fixtures for the benchmark suite.

Every paper table/figure has one bench module.  Benches run the same
harnesses as ``python -m repro.experiments`` at a reduced scale chosen
so the full suite completes in minutes; the committed EXPERIMENTS.md
numbers come from persisted artifacts instead (regenerate with
``python -m repro.reports run`` / ``render``).  Each bench *asserts the
paper's qualitative claim* so a regression in any algorithm fails the
suite.  Timings are printed by pytest-benchmark and never written to
the repository; the repository's performance record is ``perfbench/``.
"""

import pytest

from repro.experiments import ExperimentConfig


@pytest.fixture(scope="session")
def bench_config():
    """Reduced-scale configuration shared by the table/figure benches."""
    return ExperimentConfig(
        scale=0.1,
        workers=(5, 10, 50, 100),
        sources=(5, 10),
        num_checkpoints=30,
        cluster_duration=6.0,
        cluster_warmup=1.5,
    )


@pytest.fixture(scope="session")
def micro_config():
    """Even smaller configuration for per-iteration micro benches."""
    return ExperimentConfig(
        scale=0.02,
        workers=(5, 10),
        sources=(5,),
        num_checkpoints=10,
        cluster_duration=3.0,
        cluster_warmup=1.0,
    )


def run_once(benchmark, fn, *args, **kwargs):
    """Run a heavy harness exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
