#!/usr/bin/env python3
"""End-to-end benchmark of tagecon: builds the program from source and
runs one pinned workload.

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 45 --trace 0

Run from the repository root. The first run configures and builds a
Release tree in $CARGO_TARGET_DIR (default .bench_build); later runs
only check it is up to date. The build and the benchmark's diagnostics
go to stderr. Standard output carries a provenance line, the stats
digest, every metric with its unit, and, as its last line, one JSON
object with the keys correct, attempted, failed and metrics: the
end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer
metrics with --trace 1 (the traced run also writes a Chrome trace to
<build>/traces/). Exits 1 when the build fails or an output check
fails, and prints no result line when there is nothing to report.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BINARY = "tagecon_perfbench"

# Build jobs: enough to finish in about a minute on 2-4 cores without
# holding many compilers in memory at once.
BUILD_JOBS = 2

# A run, build check included, must end within 180 s; a benchmark
# binary that overshoots its share is killed and the run fails.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else ROOT / d


def build(out):
    """Configure once, then bring the benchmark binary up to date."""
    steps = []
    # A configure step that failed leaves a cache but no build system.
    if not any((out / f).exists() for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", BINARY,
                  "-j", str(BUILD_JOBS)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return out / BINARY


def git_sha():
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload '{args.workload}'")
    if args.seed < 0:
        fail("--seed must be non-negative")
    out = build_dir()
    binary = build(out)

    cmd = [str(binary), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}"]
    if args.trace:
        (out / "traces").mkdir(exist_ok=True)
        cmd.append("--trace-out=" + str(
            out / "traces" / f"{args.workload}-seed{args.seed}.json"))
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s")
    lines = run.stdout.strip().splitlines()
    if run.returncode not in (0, 1) or not lines:
        fail(f"{args.workload} exited with code {run.returncode}")
    result = json.loads(lines[-1])

    group = "per_layer" if args.trace else "end_to_end"
    measured = result["metrics"]
    metrics = {}
    for m in spec[group]:
        got = measured.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"{m['name']}: the program reported {got}, "
                 f"BENCHMARK.json declares unit {m['unit']}")
        metrics[m["name"]] = got

    provenance = dict(result["provenance"], git=git_sha(), seed=args.seed,
                      workload=args.workload)
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(f"digest {args.workload} seed={args.seed} rounds={result['rounds']} "
          f"{result['digest']}")
    # fail_ratio is 0 on a correct run, so BENCHMARK.json cannot bound
    # it; it is shown here and carried as failed / attempted.
    shown = list(metrics) + ([] if args.trace else ["fail_ratio"])
    for name in shown:
        m = measured[name]
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    correct = run.returncode == 0 and result["failed"] == 0
    print(json.dumps({"correct": correct,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
