"""Run-to-run spread of the end-to-end metrics over several seeds.

Run from the root of a source checkout:

    python3 perfbench/spread.py --workload bulk --seeds 1 2 3 4 5

Each seed is one run of ``run.py`` in its own process. For every end-to-end
metric the script prints the median of the runs and the distance between
the first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of that median, next to the metric's bound from BENCHMARK.json and a
third of it, the margin a steady benchmark keeps.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args()

    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        t0 = time.monotonic()
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} sessions failed")
        print(f"seed {seed} ({time.monotonic() - t0:.0f} s): " + ", ".join(f"{k} {v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        for name in values:
            values[name].append(result["metrics"][name]["value"])

    print(f"{args.workload}, {len(args.seeds)} runs of {args.seconds:g} s")
    for metric in spec["end_to_end"]:
        vals = values[metric["name"]]
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median, median, median)
        spread = (q3 - q1) / median if median else float("nan")
        print(
            f"  {metric['name']:22s} median {median:12.6g} {metric['unit']:5s} spread {spread:6.3f}"
            f"  bound {metric['bound']:.3f}  third {metric['bound'] / 3:.3f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
