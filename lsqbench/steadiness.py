#!/usr/bin/env python3
"""Run the benchmark once per seed and tabulate how steady each metric is.

Usage, from the repository root:

    python3 lsqbench/steadiness.py [--runs 10] [--seconds 20] [--trace 0]
        [--first-seed 1] [workload ...]

For every workload and end-to-end metric it prints the median, the first
and third quartiles (`statistics.quantiles(values, n=4)`) and their
distance as a share of the median, next to the bound in BENCHMARK.json.
Each run's result line is appended to `.bench_work/steadiness.jsonl`.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", default="0")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*")
    opts = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = opts.seconds or bench["run_seconds"]
    workloads = opts.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    log = ROOT / ".bench_work" / "steadiness.jsonl"
    log.parent.mkdir(exist_ok=True)
    print("| workload | metric | median | Q1 | Q3 | (Q3-Q1)/median | bound |")
    print("|---|---|---|---|---|---|---|")
    for w in workloads:
        values = {}
        for seed in range(opts.first_seed, opts.first_seed + opts.runs):
            cmd = [
                sys.executable, str(ROOT / "lsqbench" / "run.py"), "--workload", w,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", opts.trace,
            ]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if out.returncode != 0:
                print(out.stderr, file=sys.stderr)
                return out.returncode
            lines = out.stdout.strip().splitlines()
            info, result = json.loads(lines[-2]), json.loads(lines[-1])
            with log.open("a") as f:
                f.write(json.dumps({"info": info, **result}) + "\n")
            if not result["correct"]:
                print(f"{w} seed {seed}: incorrect result {result}", file=sys.stderr)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            print(f"| {w} | {name} | {med:.6g} | {q1:.6g} | {q3:.6g} | {spread:.3f} | {bound} |")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
