"""Run the benchmark once per seed and summarise each metric.

    python3 bench/sets.py --workloads flow,ma2,ma3,inspect --seeds 1-10 [--trace 1]

Runs are sequential, each in a fresh process, for the run_seconds given in
BENCHMARK.json.  For every workload and metric this prints the median, the
first and third quartiles (statistics.quantiles(values, n=4)) and the
spread (q3 - q1) / median as a markdown table, then every run's raw line.
With --trace 1 it adds each traced run's median operation time
(traced_p50_s), read from its trace file, for the tracing overhead.
"""

from __future__ import annotations

import argparse
import gzip
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="flow,ma2,ma3,inspect")
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    raw = []
    print("| workload | metric | median | q1 | q3 | spread |\n|---|---|---|---|---|---|")
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", args.trace]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: oracle rejected an output\n{out.stderr}")
            if args.trace == "1":
                trace = ROOT / "bench" / "runs" / f"trace-{workload}-{seed}.jsonl.gz"
                with gzip.open(trace, "rt", encoding="utf-8") as fh:
                    p50 = json.loads(fh.readline())["traced_p50_s"]
                result["metrics"]["traced_p50_s"] = {"value": p50, "unit": "s"}
            runs.append(result)
            raw.append(f"{workload} seed {seed}: {json.dumps(result)}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            print(f"| {workload} | {name} | {med:.6g} | {q1:.6g} | {q3:.6g} | {spread:.4f} |")
    print()
    print("\n".join(raw))


if __name__ == "__main__":
    main()
