#!/usr/bin/env python3
"""Run every workload once per seed and report, per end-to-end metric, the
median over the seeds and the spread: the distance between the first and
third quartiles (statistics.quantiles(values, n=4)) over the median.

Run from the repository root:

    python3 perfbench/baseline.py --seeds 1,2,3,4,5,6,7,8,9,10 --out perfbench/baseline.json

Runs are sequential, one process at a time.  The JSON written holds every
run's result line as well as the summary, so two such files (before and
after a change) can be compared metric by metric.
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
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = BENCH["command"] + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    out = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {out.returncode}:\n{out.stdout}\n{out.stderr}")
    doc = json.loads(out.stdout.strip().splitlines()[-1])
    doc["seed"], doc["wall_s"] = seed, time.perf_counter() - t0
    return doc


def summarize(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10", help="comma-separated workload seeds")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in BENCH["workloads"]))
    ap.add_argument("--seconds", type=int, default=BENCH["run_seconds"])
    ap.add_argument("--out", default=None, help="write runs and summary here as JSON")
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    result = {"seeds": seeds, "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            runs.append(run_once(workload, seed, args.seconds))
            r = runs[-1]
            print(f"{workload} seed {seed}: correct {r['correct']} failed {r['failed']}/{r['attempted']} wall {r['wall_s']:.1f} s", flush=True)
        summary = summarize(runs) if len(runs) >= 2 else {}
        for name, s in summary.items():
            flag = "" if s["spread"] <= bounds[name] else "  SPREAD ABOVE BOUND"
            print(f"  {name:14s} median {s['median']:.6g}  spread {s['spread']:.3f} (bound {bounds[name]}){flag}")
        result["workloads"][workload] = {"runs": runs, "summary": summary}
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
