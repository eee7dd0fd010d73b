"""The repository benchmark: one command, one workload, one JSON line.

Run from the repository root::

    python3 perfbench/run.py --workload wp-throughput --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is a separate traced run that reports the per-layer
metrics and writes its spans to ``perfbench/out/``.  Every call's
outputs are checked against a reference.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is 1 when a check failed and
2 when the program under test cannot be imported or run at all.

``--record-des-reference`` re-records the reference outputs of the
discrete-event word count the traced run checks (one run per topology
variant); see README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def git_sha(root: Path) -> Optional[str]:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root: Path) -> str:
    """SHA-256 over the program's source files (a checkout has no .git)."""
    digest = hashlib.sha256()
    src = root / "src"
    for path in sorted(src.rglob("*")):
        if path.suffix in (".py", ".c") and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(src)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def fingerprint() -> Dict[str, Any]:
    import numpy as np

    from repro._native import get_kernels, native_disabled

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "backend": "process",
        "native_kernels": get_kernels() is not None,
        "REPRO_NO_NATIVE": native_disabled(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha(ROOT),
        "source_sha256": source_digest(ROOT),
    }


def _stop_resource_tracker() -> None:
    """Stop multiprocessing's shared-memory tracker and wait for it."""
    try:
        from multiprocessing import resource_tracker

        resource_tracker._resource_tracker._stop()
    except (ImportError, AttributeError, OSError, ChildProcessError):
        pass


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="stream-length multiplier for the runtime workloads (self-tests)",
    )
    parser.add_argument(
        "--min-reps", type=int, default=3,
        help="fewest timed calls per run (default: %(default)s)",
    )
    parser.add_argument(
        "--reference-seed", type=int, default=None,
        help="seed of the reference the outputs are checked against "
        "(default: --seed; another value must trip the gate)",
    )
    parser.add_argument(
        "--record-des-reference", action="store_true",
        help="re-record perfbench/des_reference.json and exit",
    )
    args = parser.parse_args(argv)
    if args.workload is None and not args.record_des_reference:
        parser.error("--workload is required")
    if args.min_reps < 1:
        parser.error("--min-reps must be >= 1")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro

        if src.resolve() not in Path(repro.__file__).resolve().parents:
            raise ImportError(f"repro resolves to {repro.__file__}, outside {src}")
        import workloads
        from spans import Tracer
    except ImportError as exc:
        print(f"perfbench: cannot import the program under test: {exc}", file=sys.stderr)
        return 2

    if args.record_des_reference:
        workloads.record_des_reference()
        return 0
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    info = fingerprint()
    print("fingerprint: " + json.dumps(info, sort_keys=True))
    run_id = f"{args.workload}-seed{args.seed}-{os.getpid()}"
    tracer = Tracer(run_id, enabled=bool(args.trace))
    try:
        outcome = workloads.run_workload(
            args.workload,
            args.seed,
            args.seconds,
            tracer,
            scale=args.scale,
            min_reps=args.min_reps,
            reference_seed=args.reference_seed,
        )
    finally:
        _stop_resource_tracker()

    for line in outcome.lines:
        print(line)
    for name, ok, detail in outcome.gate.checks:
        if not ok or not name.startswith("call "):
            print(f"check {'PASS' if ok else 'FAIL'}: {name}" + (f" ({detail})" if detail else ""))
    passed = sum(ok for _name, ok, _detail in outcome.gate.checks)
    print(f"checks: {passed}/{len(outcome.gate.checks)} passed over "
          f"{outcome.attempted} timed calls")
    names = workloads.PER_LAYER if args.trace else workloads.END_TO_END
    metrics: Dict[str, Dict[str, Any]] = {}
    for name, unit, *_rest in names:
        value = float(outcome.metrics[name])
        metrics[name] = {"value": value, "unit": unit}
        print(f"metric {name} = {value:.6g} {unit}")
    if args.trace:
        path = HERE / "out" / f"trace-{run_id}.json"
        tracer.write(path, {"fingerprint": info, "metrics": metrics,
                            "checks": outcome.gate.checks})
        print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    print(f"elapsed: {time.perf_counter() - started:.1f} s")
    correct = outcome.gate.ok
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
