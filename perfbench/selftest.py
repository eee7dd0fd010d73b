"""Self-tests of the benchmark itself.

Run from the repository root (about two minutes)::

    python3 perfbench/selftest.py

They run each workload at a tiny size and check that every metric
named in BENCHMARK.json is printed with its unit, that a deliberately
mismatched reference trips the correctness gate, and that the command
fails cleanly where the program under test is missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in MANIFEST["workloads"]]
TINY = ["--seconds", "0.1", "--min-reps", "1", "--scale", "0.02"]


def run_bench(
    *args: str, cwd: Path = ROOT
) -> Tuple[int, List[str], Optional[Dict[str, Any]]]:
    """Run the benchmark command; returns (exit code, stdout lines, result)."""
    proc = subprocess.run(
        MANIFEST["command"] + list(args),
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return proc.returncode, lines, result


class TinyRuns(unittest.TestCase):
    def test_every_metric_is_printed_with_its_unit(self) -> None:
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            expected = {m["name"]: m["unit"] for m in MANIFEST[section]}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    code, lines, result = run_bench(
                        "--workload", workload, "--seed", "3", "--trace", trace, *TINY
                    )
                    self.assertEqual(code, 0, "\n".join(lines[-20:]))
                    assert result is not None
                    self.assertEqual(
                        set(result), {"correct", "attempted", "failed", "metrics"}
                    )
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    units = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(units, expected)
                    for name, unit in expected.items():
                        self.assertTrue(
                            any(line.startswith(f"metric {name} = ") and line.endswith(unit)
                                for line in lines),
                            name,
                        )

    def test_mismatched_reference_trips_the_gate(self) -> None:
        # The traced run also checks the discrete-event word count.
        for workload, trace, failing in (
            ("wp-throughput", "0", "check FAIL: warm-up: imbalance series"),
            ("wp-restart", "0", "check FAIL: warm-up: imbalance series"),
            ("wp-throughput", "1", "check FAIL: DES outputs equal the recorded reference"),
        ):
            with self.subTest(workload=workload, trace=trace):
                code, lines, result = run_bench(
                    "--workload", workload, "--seed", "3", "--reference-seed", "4",
                    "--trace", trace, *TINY,
                )
                self.assertEqual(code, 1, "\n".join(lines[-20:]))
                assert result is not None
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], result["attempted"])
                self.assertTrue(any(line.startswith(failing) for line in lines), failing)


class Manifest(unittest.TestCase):
    def test_manifest_matches_the_metric_catalogue(self) -> None:
        sys.path[:0] = [str(HERE), str(ROOT / "src")]
        try:
            import workloads
        finally:
            del sys.path[:2]
        self.assertEqual(WORKLOADS, list(workloads.WORKLOADS))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"], m["bound"]) for m in MANIFEST["end_to_end"]],
            [(n, u, b, bound) for n, u, b, bound, _doc in workloads.END_TO_END],
        )
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in MANIFEST["per_layer"]],
            [(n, u, b) for n, u, b, _doc in workloads.PER_LAYER],
        )

    def test_fails_cleanly_without_the_program(self) -> None:
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=out) as tmp:
            bare = Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(
                HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__")
            )
            code, lines, result = run_bench(
                "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=bare,
            )
        self.assertNotEqual(code, 0)
        self.assertIsNone(result, lines)


if __name__ == "__main__":
    unittest.main()
