#!/usr/bin/env python3
"""Tests of the benchmark's runner and output contract.

    python3 perfbench/tests/test_run.py <build-dir>/tagecon_perfbench

The binary must come from a Release build of perfbench/CMakeLists.txt
(ctest passes it). The tests run small sizes through the size
overrides, so they take seconds, not the benchmark's full run time.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
BINARY = None  # set from argv


def bench(*args):
    """Run the benchmark binary; return (exit code, its JSON result)."""
    r = subprocess.run([str(BINARY), *args], capture_output=True, text=True,
                       timeout=170)
    lines = r.stdout.strip().splitlines()
    return r.returncode, json.loads(lines[-1]) if lines else None


def value(result, name):
    return result["metrics"][name]["value"]


class PeakRss(unittest.TestCase):
    def test_grows_with_serve_evict_stream_count(self):
        # Every stream is parked after its first turn, so ten times the
        # streams must show up in the workload process's peak RSS.
        peaks = []
        for streams in (200, 2000):
            code, result = bench("--workload=serve-evict", "--seconds=0",
                                 "--branches=128", f"--streams={streams}")
            self.assertEqual(code, 0)
            peaks.append(value(result, "peak_rss_mib"))
        self.assertGreater(peaks[1], peaks[0] + 20.0, peaks)


class TracedRun(unittest.TestCase):
    def test_counts_repeat_and_replay_matches(self):
        args = ("--workload=serve-evict", "--seconds=0", "--branches=256",
                "--streams=300", "--trace=1")
        runs = [bench(*args) for _ in range(2)]
        for code, result in runs:
            self.assertEqual(code, 0)  # the replay equals the engine
            self.assertEqual(result["failed"], 0)
            self.assertGreaterEqual(value(result, "bench.layer_coverage"), 0.9)
            self.assertGreater(value(result, "serve.evictions_per_kbranch"), 0)
        for name in ("tage.allocs_per_kbranch", "serve.admissions_per_kbranch",
                     "serve.evictions_per_kbranch", "tage.snapshot_bytes",
                     "engine.turn_samples"):
            self.assertEqual(value(runs[0][1], name), value(runs[1][1], name),
                             name)
        self.assertEqual(runs[0][1]["digest"], runs[1][1]["digest"])


class Contract(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_names_are_well_formed(self):
        names = [w["name"] for w in self.spec["workloads"]]
        names += [m["name"] for g in ("end_to_end", "per_layer")
                  for m in self.spec[g]]
        _, result = bench("--workload=paper-sweep", "--seconds=0",
                          "--branches=1000", "--trace=1")
        names += list(result["metrics"])
        for n in names:
            self.assertRegex(n, NAME_RE)

    def run_py(self, trace):
        env = dict(os.environ, CARGO_TARGET_DIR=str(BINARY.parent))
        r = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", "paper-sweep", "--seed", "3", "--seconds", "0",
             "--trace", str(trace)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=170)
        self.assertEqual(r.returncode, 0, r.stderr)
        return r.stdout.strip().splitlines()

    def test_last_line_carries_the_declared_metrics(self):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            lines = self.run_py(trace)
            result = json.loads(lines[-1])
            self.assertEqual(set(result),
                             {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertGreaterEqual(result["attempted"], 1)
            declared = {m["name"]: m["unit"] for m in self.spec[group]}
            self.assertEqual(
                {n: m["unit"] for n, m in result["metrics"].items()}, declared)
            if trace == 0:
                for m in result["metrics"].values():
                    self.assertGreater(m["value"], 0)
                # All seven end-to-end metrics are printed by name.
                shown = "\n".join(lines)
                for name in list(declared) + ["fail_ratio"]:
                    self.assertIn(f"  {name} = ", shown)
            self.assertTrue(lines[0].startswith("provenance "))

    def test_refuses_without_the_program_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(ROOT / "perfbench", Path(tmp) / "perfbench")
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            r = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "paper-sweep", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=tmp, env=env, capture_output=True, text=True,
                timeout=170)
            self.assertNotEqual(r.returncode, 0)
            self.assertEqual(r.stdout.strip(), "")


if __name__ == "__main__":
    BINARY = Path(sys.argv.pop(1)).resolve()
    unittest.main()
