#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize each metric.

    python3 benchmarks/baseline.py --seeds 1-10 --output benchmarks/baseline.json

For every workload in BENCHMARK.json and every seed it runs ``run.py
--trace 0`` for ``run_seconds``, one run at a time, and once per workload
``--trace 1`` on the first seed.  Each end-to-end metric gets its median,
quartiles and spread: the distance between the quartiles as a share of the
median, the figure compared against the metric's bound.  Exit status 1 when
a spread is above a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def run(workload: str, seed: int, seconds: int, trace: int):
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True)
    *_, detail, result = done.stdout.splitlines()
    return json.loads(detail), json.loads(result)


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--output", type=Path, default=None)
    args = parser.parse_args(argv)

    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run(workload, seed, seconds, 0) for seed in args.seeds]
        entry = {
            "host": runs[0][0]["host"],
            "attempted": [r["attempted"] for _, r in runs],
            "failed": [r["failed"] for _, r in runs],
            "passes": [d["pass_s"]["n"] for d, _ in runs],
            "metrics": {},
        }
        for name in bounds:
            stats = spread([r["metrics"][name]["value"] for _, r in runs])
            stats["bound"] = bounds[name]
            entry["metrics"][name] = stats
            flag = "" if stats["spread"] <= bounds[name] / 3 else "  WIDE"
            steady &= not flag
            print(f"{workload:13} {name:12} median {stats['median']:.4f}"
                  f" spread {stats['spread']:.3f} bound {bounds[name]}{flag}", file=sys.stderr)
        detail, result = run(workload, args.seeds[0], seconds, 1)
        entry["traced"] = {
            "seed": args.seeds[0],
            "pass_s": detail["pass_s"],
            "traced_pass_s": detail["traced_pass_s"],
            "spans": detail["spans"],
            "per_layer": {k: v["value"] for k, v in result["metrics"].items()},
        }
        summary["workloads"][workload] = entry
    text = json.dumps(summary, indent=1)
    if args.output:
        args.output.write_text(text + "\n")
    else:
        print(text)
    return 0 if steady else 1


if __name__ == "__main__":
    raise SystemExit(main())
