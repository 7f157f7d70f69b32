#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize the spread.

Run from the root of a checkout:

    python3 perfbench/sweep.py --seeds 1-10 --seconds 40 --out perfbench/out/sweep.json

For each workload it runs ``run.py`` once per seed with tracing off, one
run after another, and reports each end-to-end metric's median,
quartiles and spread (the distance between the quartiles as a share of
the median, as ``statistics.quantiles(values, n=4)`` gives them).  With
``--trace-seed`` it adds one traced run per workload for the per-layer
metrics.
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
WORKLOADS = ("report", "classify", "checks")


def parse_seeds(text: str):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=str(ROOT))
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}: {proc.stderr[-500:]}")
    lines = proc.stdout.strip().splitlines()
    return {"detail": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=list(WORKLOADS))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace-seed", type=int, default=None)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    summary = {"seeds": seeds, "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in seeds:
            out = run_once(workload, seed, args.seconds, 0)
            res = out["result"]
            row = {k: v["value"] for k, v in res["metrics"].items()}
            print(workload, seed, res["attempted"], res["failed"],
                  " ".join(f"{k}={v:.4f}" for k, v in row.items()), flush=True)
            runs.append({"seed": seed, "attempted": res["attempted"], "failed": res["failed"],
                         "input_digest": out["detail"]["input_digest"], "metrics": row})
        entry = {"runs": runs, "provenance": out["detail"]["provenance"], "end_to_end": {}}
        units = {k: v["unit"] for k, v in res["metrics"].items()}
        for name in runs[0]["metrics"]:
            stats = spread([r["metrics"][name] for r in runs])
            stats["unit"] = units[name]
            entry["end_to_end"][name] = stats
            print(f"  {name:12s} median={stats['median']:.4f} spread={stats['spread']:.4f}",
                  flush=True)
        if args.trace_seed is not None:
            traced = run_once(workload, args.trace_seed, args.seconds, 1)
            entry["per_layer"] = {
                "seed": args.trace_seed,
                "attempted": traced["result"]["attempted"],
                "failed": traced["result"]["failed"],
                "metrics": traced["result"]["metrics"],
            }
        summary["workloads"][workload] = entry
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
