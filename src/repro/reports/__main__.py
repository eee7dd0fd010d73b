"""Command-line entry point: ``python -m repro.reports <subcommand>``.

Subcommands:

* ``run``    -- run experiment harnesses and write ``results/*.json``
  artifacts (each manifest records its harness's duration);
* ``render`` -- regenerate EXPERIMENTS.md from the artifacts on disk
  (``--check`` only verifies freshness, for CI);
* ``diff``   -- compare two artifact sets and exit non-zero on metric
  regressions beyond ``--tolerance``.

Typical PR flow::

    PYTHONPATH=src python -m repro.reports run --scale 0.1
    PYTHONPATH=src python -m repro.reports render
    PYTHONPATH=src python -m repro.reports diff <old-results> results
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.core.parallel import effective_jobs
from repro.reports.diffing import diff_artifacts, load_artifact_set
from repro.reports.harnesses import harness_names
from repro.reports.pipeline import (
    DEFAULT_RESULTS_DIR,
    reduced_config,
    run_experiments,
)
from repro.reports.render import DEFAULT_OUTPUT, is_stale, render_to_file
from repro.reports.schema import SchemaError, load_artifacts


def _parse_experiments(value: str):
    if value == "all":
        return None
    names = [n.strip() for n in value.split(",") if n.strip()]
    known = set(harness_names())
    unknown = [n for n in names if n not in known]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown experiments {unknown}; known: {', '.join(sorted(known))}"
        )
    return names


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.reports",
        description="Persist, render, and compare experiment artifacts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run harnesses and write artifacts")
    run_p.add_argument("--scale", type=float, default=1.0,
                       help="stream-length multiplier; <1 also shrinks "
                            "cluster durations (default 1.0)")
    run_p.add_argument("--seed", type=int, default=42)
    run_p.add_argument("--experiments", type=_parse_experiments, default=None,
                       metavar="NAMES",
                       help="comma-separated subset, or 'all' (default: all of "
                            + ", ".join(harness_names()) + ")")
    run_p.add_argument("--jobs", type=int, default=None,
                       help="worker processes for grid sweeps (default: "
                            "REPRO_PARALLEL or cpu count; results are "
                            "identical at any job count)")
    run_p.add_argument("--out", default=DEFAULT_RESULTS_DIR,
                       help="artifact directory (default: results/)")

    render_p = sub.add_parser("render", help="regenerate EXPERIMENTS.md")
    render_p.add_argument("--results", default=DEFAULT_RESULTS_DIR,
                          help="artifact directory (default: results/)")
    render_p.add_argument("--out", default=DEFAULT_OUTPUT,
                          help=f"output markdown file (default: {DEFAULT_OUTPUT})")
    render_p.add_argument("--check", action="store_true",
                          help="don't write; exit 1 if the file is stale "
                               "relative to the artifacts")

    diff_p = sub.add_parser("diff", help="compare two artifact sets")
    diff_p.add_argument("old", help="baseline artifact directory or file")
    diff_p.add_argument("new", help="candidate artifact directory or file")
    diff_p.add_argument("--tolerance", type=float, default=0.25,
                        help="relative tolerance before a metric counts as "
                             "regressed (default 0.25)")
    diff_p.add_argument("--verbose", action="store_true",
                        help="also list unchanged metrics")
    return parser


def _cmd_run(args) -> int:
    config = reduced_config(args.scale, seed=args.seed)
    start = time.perf_counter()
    run_experiments(
        names=args.experiments,
        config=config,
        out_dir=args.out,
        progress=lambda line: print(line, flush=True),
        jobs=args.jobs,
    )
    wall_clock = time.perf_counter() - start
    # The width the sweep really ran at: pool-availability corrected,
    # so a sandboxed serial fallback is not reported as parallel.
    jobs = effective_jobs(args.jobs)
    print(f"sweep wall clock {wall_clock:.1f}s at jobs={jobs}")
    return 0


def _cmd_render(args) -> int:
    artifacts = load_artifacts(args.results)
    if not artifacts:
        print(f"no artifacts found in {args.results!r}; run "
              "`python -m repro.reports run` first", file=sys.stderr)
        return 2
    if args.check:
        if is_stale(artifacts, args.out):
            print(f"{args.out} is stale relative to {args.results}/; "
                  "regenerate with `python -m repro.reports render`",
                  file=sys.stderr)
            return 1
        print(f"{args.out} is up to date with {args.results}/")
        return 0
    path = render_to_file(artifacts, args.out)
    print(f"wrote {path} from {len(artifacts)} artifact(s)")
    return 0


def _cmd_diff(args) -> int:
    old = load_artifact_set(args.old)
    new = load_artifact_set(args.new)
    report = diff_artifacts(old, new, tolerance=args.tolerance)
    print(report.format(verbose=args.verbose))
    return 1 if report.has_regressions else 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "run": _cmd_run,
        "render": _cmd_render,
        "diff": _cmd_diff,
    }[args.command]
    try:
        return handler(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
