#!/usr/bin/env python3
"""Repository benchmark: builds the program from source, runs one workload,
checks its outputs, and prints one JSON result line.

Usage (from the repository root):
    python3 perfbench/run.py --workload fig3b --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12 --trace 0

Workloads: fig3b, contended-rw, real-loopback (see perfbench/README.md);
"all" runs the three in turn and prints one result line each.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.

The last line of stdout is {"correct", "attempted", "failed", "metrics"}.
The exit code is non-zero when a correctness gate fails or the build or run
breaks. The build goes to $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench) inside the checkout; traced runs write their span
files next to it, under spans/.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fig3b", "contended-rw", "real-loopback")
# Every run must end within this many seconds, build excepted.
RUN_DEADLINE_S = 170
# samya_bench's canonical Fig 3b run, which the fig3b workload reproduces.
CANONICAL_ARGS = ["--system", "samya-majority", "--minutes", "20", "--seed", "42"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg, code=2):
    log(f"perfbench: {msg}")
    sys.exit(code)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build():
    """Configures once, then builds (a no-op when nothing changed)."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no repository sources next to {HERE.name}/ (expected src/)")
    if not (ROOT / "tools" / "samya_bench.cc").is_file():
        fail("tools/samya_bench.cc is missing")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd, "configure")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", str(out), "-j", jobs], "build")
    return out


def run_quiet(cmd, what):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        log(proc.stdout[-4000:])
        fail(f"{what} failed (exit {proc.returncode})")


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def samya_bench_canonical(out, deadline):
    """committed, p50 and p99 strings as samya_bench prints them."""
    proc = subprocess.run([str(out / "samya_bench")] + CANONICAL_ARGS,
                          stdout=subprocess.PIPE, text=True,
                          timeout=max(1, deadline - time.monotonic()))
    committed = re.search(r"^committed\s*:\s*(\d+)", proc.stdout, re.M)
    latency = re.search(r"^latency\s*:\s*p50 ([\d.]+) ms, p90 [\d.]+ ms, "
                        r"p99 ([\d.]+) ms", proc.stdout, re.M)
    if proc.returncode != 0 or not committed or not latency:
        return None
    return committed.group(1), latency.group(1), latency.group(2)


def run_workload(out, workload, seed, seconds, trace, expected, deadline):
    spans = out / "spans"
    spans.mkdir(exist_ok=True)
    cmd = [str(out / "samya_perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--out-dir", str(spans)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=max(1, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload}: samya_perfbench exited {proc.returncode}", 1)
    raw = json.loads(lines[-1])
    gates = dict(raw["gates"])

    if workload == "fig3b":
        facts = raw["facts"]
        ours = (facts["canonical_committed"], facts["canonical_p50_ms"],
                facts["canonical_p99_ms"])
        theirs = samya_bench_canonical(out, deadline)
        log(f"canonical cross-check: perfbench {ours} vs samya_bench {theirs}")
        gates["canonical_matches_samya_bench"] = theirs == ours

    metrics = {}
    for name, unit in expected.items():
        got = raw["metrics"].get(name)
        ok = got is not None and got["unit"] == unit
        gates[f"metric_{name}_reported"] = ok
        if ok:
            metrics[name] = {"value": got["value"], "unit": unit}
    for name, ok in gates.items():
        if not ok:
            log(f"GATE FAILED: {name}")
    for name, m in metrics.items():
        log(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    for key, note in raw["facts"].items():
        log(f"  note: {key}: {note}")
    correct = all(gates.values()) and raw["attempted"] >= 1
    return {"correct": correct, "attempted": raw["attempted"],
            "failed": raw["failed"], "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    out = build()
    end_to_end, per_layer = declared_metrics()
    expected = per_layer if args.trace else end_to_end
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    all_correct = True
    for workload in workloads:
        log(f"== {workload} (seed {args.seed}, {args.seconds} s, "
            f"trace {args.trace})")
        deadline = time.monotonic() + RUN_DEADLINE_S
        result = run_workload(out, workload, args.seed, args.seconds,
                              bool(args.trace), expected, deadline)
        all_correct = all_correct and result["correct"]
        print(json.dumps(result), flush=True)
    sys.exit(0 if all_correct else 1)


if __name__ == "__main__":
    main()
