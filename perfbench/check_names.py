#!/usr/bin/env python3
"""Check that the benchmark's metric and workload names match BENCHMARK.json.

Run from the repository root:

    python3 perfbench/check_names.py

It feeds placeholder values through the functions that build the printed
results (run.end_to_end and run.emit for untraced runs, tracing.layer_metrics
for traced ones) and compares the names and units they produce with
BENCHMARK.json; it also checks that spec.json names only declared metrics and
workloads.  Exits 1 and lists every difference it finds.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def printed(units: dict, values: dict) -> dict:
    """name -> unit as run.emit prints them."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.emit(True, 1, 0, values, units)
    doc = json.loads(out.getvalue().strip().splitlines()[-1])
    return {name: m["unit"] for name, m in doc["metrics"].items()}


def differences(label: str, got: dict, want: dict) -> list[str]:
    out = [f"{label}: {n} printed but not declared" for n in sorted(set(got) - set(want))]
    out += [f"{label}: {n} declared but not printed" for n in sorted(set(want) - set(got))]
    out += [
        f"{label}: {n} printed in {got[n]!r}, declared in {want[n]!r}"
        for n in sorted(set(got) & set(want))
        if got[n] != want[n]
    ]
    return out


def main() -> int:
    if run.load_program() is None:
        print("cannot import buchicong from src/", file=sys.stderr)
        return 2
    import tracing
    import workloads

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    spec = json.loads((HERE / "spec.json").read_text())
    declared_e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}

    e2e = run.end_to_end([("op", 0.001), ("op", 0.002)], 1.0)
    empty = {"time": {}, "calls": {}, "self_time": {}, "sizes": {}, "successors": 0, "distinct_steps": 0}
    layers = tracing.layer_metrics(empty, empty, 1, 0.0)
    problems = differences("end_to_end", printed(run.END_TO_END, e2e), declared_e2e)
    problems += differences("per_layer", printed(tracing.PER_LAYER, layers), declared_layer)

    workload_names = {w["name"] for w in bench["workloads"]}
    for label, names in (("workloads.WORKLOADS", workloads.WORKLOADS), ("run.DETAIL", run.DETAIL)):
        if set(names) != workload_names:
            problems.append(f"{label} names {sorted(names)}, BENCHMARK.json {sorted(workload_names)}")

    details = {name for per in run.DETAIL.values() for name in per}
    for p in spec["predictions"]:
        problems += [f"spec.json: unknown layer metric {n}" for n in p["layer"] if n not in declared_layer]
        problems += [
            f"spec.json: unknown end-to-end metric {n}"
            for n in p["moves"]
            if n not in declared_e2e and n not in details
        ]
        if p["workload"] not in workload_names:
            problems.append(f"spec.json: unknown workload {p['workload']}")

    for line in problems:
        print(line)
    print("metric names match BENCHMARK.json" if not problems else f"{len(problems)} mismatches")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
