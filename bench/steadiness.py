"""Run-to-run spread of the end-to-end metrics.

    python3 bench/steadiness.py --workloads flow checks descent --runs 10

Runs bench/run.py once per seed (seeds first-seed .. first-seed+runs-1) for
each workload, one run at a time, and prints for every end-to-end metric the
median, the first and third quartiles (statistics.quantiles, n=4) and the
quartile spread as a share of the median, next to the metric's bound in
BENCHMARK.json.  Run it from the root of a checkout.  The runs' JSON lines
are kept in .bench_out/steadiness.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="+", default=["flow", "checks", "descent"])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    args = ap.parse_args()

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = Path(".bench_out")
    out.mkdir(exist_ok=True)
    runs = {}
    for workload in args.workloads:
        runs[workload] = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True, timeout=300,
            )
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return 1
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            runs[workload].append({"seed": seed, **line})
            print(f"{workload} seed={seed} correct={line['correct']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in line["metrics"].items()),
                  flush=True)
        print(f"{'workload':<8} {'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs[workload]]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"{workload:<8} {name:<14} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.4f} {bounds[name]:>6}", flush=True)
    (out / "steadiness.json").write_text(json.dumps(runs, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
