#!/usr/bin/env python3
"""Benchmark of the buchicong pipeline: complement builds, containment and
membership queries, end to end and, in a separate traced run, per layer.

Run from the repository root:

    python3 perfbench/run.py --workload complement-sweep --seed 1729 --seconds 12 --trace 0

Workloads (see workloads.py): complement-sweep, contains-product,
member-queries.  One process, no extra threads, a closed loop: each operation
starts when the previous one has returned and passed its correctness check.
The loop runs whole passes over the workload's operations, each pass in a
fresh shuffled order, until at least three passes ran and their summed time
reaches --seconds.  An operation's time is the median over its passes.

Times are scaled to a reference machine speed.  The machine this benchmark
was built on shares its cores, and its speed drifts by up to 1.7x for tens
of seconds at a time.  So every quarter second of operations, and around
every set-up, the runner times a fixed pure-Python calibration loop that
never calls buchicong, and scales the operations in between by
REF_CALIBRATION_S / (calibration time then).  A change to the program cannot
move the calibration loop; a change in machine speed moves both alike.  The
raw, unscaled figures are printed on the human-readable lines too.

Every line but the last is for people; the last line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.  With --trace 0 the metrics
are END_TO_END; with --trace 1 they are tracing.PER_LAYER (unscaled) and the
spans are written to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
DEFAULT_SEED = 1729  # the CLI's default seed

# metric name -> unit; an untraced run prints exactly these
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
}
# per-workload metrics printed on the human-readable lines: name -> (unit, op kinds)
DETAIL = {
    "complement-sweep": {
        "optimal_builds_per_s": ("1/s", ("optimal",)),
        "improved_builds_per_s": ("1/s", ("improved",)),
        "build_p50_ms": ("ms", ("optimal", "improved")),
    },
    "contains-product": {
        "contains_per_s": ("1/s", ("fails", "holds")),
        "contains_p50_ms": ("ms", ("fails", "holds")),
        "fails_p50_ms": ("ms", ("fails",)),
        "holds_p50_ms": ("ms", ("holds",)),
    },
    "member-queries": {
        "member_queries_per_s": ("1/s", ("query",)),
        "member_p50_us": ("us", ("query",)),
        "member_p99_us": ("us", ("query",)),
    },
}
SETUP_MIN_REPS = 3
SETUP_MIN_S = 1.0
MIN_PASSES = 3
WINDOW_S = 0.25
# calibration_loop's time on an unloaded 2-vCPU VM with Python 3.11
REF_CALIBRATION_S = 0.007


def load_program():
    """Import buchicong from this checkout's src/, or return None."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import buchicong
    except ImportError:
        return None
    if not Path(buchicong.__file__).resolve().is_relative_to(src):
        return None
    return buchicong


def calibration_loop() -> int:
    """Fixed work in the program's style (tuple keys, dicts, frozensets)."""
    table: dict = {}
    for i in range(12_000):
        key = (i % 251, i % 241)
        table[key] = table.get(key, frozenset()) | {i % 17}
    return len(table)


class Clock:
    """Machine-speed samples: seconds calibration_loop takes, the faster of
    two back-to-back runs, measured after a collection."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> float:
        gc.collect()
        best = float("inf")
        for _ in range(2):
            t0 = perf_counter()
            calibration_loop()
            best = min(best, perf_counter() - t0)
        self.samples.append(best)
        return best


def timed_setup(make_pool, seed, clock: Clock):
    """Build the pool at least SETUP_MIN_REPS times and for SETUP_MIN_S;
    return the last pool and the median scaled set-up time."""
    scaled, raw = [], 0.0
    before = clock.sample()
    while len(scaled) < SETUP_MIN_REPS or raw < SETUP_MIN_S:
        window = []
        while not window or sum(window) < WINDOW_S:
            pool = None
            t0 = perf_counter()
            pool = make_pool(seed)
            window.append(perf_counter() - t0)
        after = clock.sample()
        scaled += [d * 2 * REF_CALIBRATION_S / (before + after) for d in window]
        raw += sum(window)
        before = after
    return pool, statistics.median(scaled)


class Runner:
    """Runs operations one at a time, timing each call and checking its
    result outside the timed region.  A call that raises or a result that
    fails its check is a failed operation."""

    def __init__(self, clock: Clock, tracer=None):
        self.clock = clock
        self.tracer = tracer
        self.attempted = 0
        self.errors: list[str] = []
        self.raw_busy = 0.0
        self.check_s = 0.0

    def run(self, op, op_id: int) -> float | None:
        """Seconds the call took, or None when the operation failed."""
        self.attempted += 1
        gc.collect()
        try:
            if self.tracer is None:
                t0 = perf_counter()
                result = op.call()
                dur = perf_counter() - t0
            else:
                with self.tracer.operation(op_id, op.kind):
                    t0 = perf_counter()
                    result = op.call()
                    dur = perf_counter() - t0
            t1 = perf_counter()
            err = op.check(result)
            self.check_s += perf_counter() - t1
        except Exception as e:  # an operation that raises is a failed operation
            self.errors.append(f"{op.label} {op.kind}: {type(e).__name__}: {e}")
            return None
        if err:
            self.errors.append(err)
            return None
        return dur

    def passes(self, ops, seconds: float, rng, min_passes: int = MIN_PASSES) -> list[list[float]]:
        """Whole passes over ops, each in a fresh shuffled order, until at
        least min_passes ran and their summed time reaches seconds.  Returns
        each operation's scaled times; a failed run leaves no time."""
        samples: list[list[float]] = [[] for _ in ops]
        busy, done = 0.0, 0
        while done < min_passes or busy < seconds:
            order = list(range(len(ops)))
            rng.shuffle(order)
            before = self.clock.sample()
            window: list[tuple[int, float]] = []
            for n, i in enumerate(order):
                dur = self.run(ops[i], done * len(ops) + i)
                if dur is not None:
                    window.append((i, dur))
                    busy += dur
                if n == len(order) - 1 or sum(d for _, d in window) >= WINDOW_S:
                    after = self.clock.sample()
                    scale = 2 * REF_CALIBRATION_S / (before + after)
                    for j, d in window:
                        samples[j].append(d * scale)
                        self.raw_busy += d
                    before, window = after, []
            done += 1
            if busy == 0.0:
                break
        return samples


def op_times(ops, samples) -> list[tuple[str, float]]:
    """(kind, median scaled time) per operation that succeeded."""
    return [(op.kind, statistics.median(s)) for op, s in zip(ops, samples) if s]


def quantile(values, q: float) -> float:
    """q-quantile with linear interpolation between order statistics."""
    return statistics.quantiles(values, n=1000, method="inclusive")[round(q * 1000) - 1]


def end_to_end(records, setup_s: float) -> dict:
    durs = [d for _, d in records]
    return {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops_per_s": len(durs) / sum(durs),
        "op_p50_ms": statistics.median(durs) * 1e3,
        "op_p90_ms": quantile(durs, 0.90) * 1e3,
    }


def details(workload: str, records) -> dict:
    out = {}
    for name, (unit, kinds) in DETAIL[workload].items():
        durs = [d for k, d in records if k in kinds]
        if name.endswith("_per_s"):
            value = len(durs) / sum(durs)
        else:
            q = 0.99 if "_p99_" in name else 0.5
            value = quantile(durs, q) * (1e6 if unit == "us" else 1e3)
        out[name] = (value, unit, len(durs))
    return out


def emit(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> None:
    if set(metrics) != set(units):
        raise AssertionError(f"metric names differ from the registry: {sorted(set(metrics) ^ set(units))}")
    doc = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(doc), flush=True)


def pass_rng(args) -> random.Random:
    return random.Random(f"passes/{args.workload}/{args.seed}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if load_program() is None:
        print(f"cannot import buchicong from {ROOT / 'src'}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    make_pool = WORKLOADS[args.workload]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    if args.trace:
        return traced(args, make_pool)

    clock = Clock()
    pool, setup_s = timed_setup(make_pool, args.seed, clock)
    gc.freeze()  # keep the long-lived inputs out of every later collection
    runner = Runner(clock)
    setup_errors = [e for e in (check() for check in pool.setup_checks) if e]
    for i, op in enumerate(pool.warmup):
        runner.run(op, i)
    records = op_times(pool.ops, runner.passes(pool.ops, args.seconds, pass_rng(args)))
    return report(args, runner, setup_errors, records, END_TO_END, lambda: end_to_end(records, setup_s))


def traced(args, make_pool) -> int:
    """Set up traced, run at least two passes untraced for half of --seconds,
    then the same number of passes traced.  The difference in summed
    operation time is the tracing overhead."""
    from tracing import PER_LAYER, Tracer, layer_metrics

    with Tracer() as tracer:
        pool = make_pool(args.seed)
        setup_aggr = tracer.take()
    gc.freeze()
    clock = Clock()
    plain = Runner(clock)
    setup_errors = [e for e in (check() for check in pool.setup_checks) if e]
    for i, op in enumerate(pool.warmup):
        plain.run(op, i)
    untraced = plain.passes(pool.ops, args.seconds / 2, pass_rng(args), 2)
    n_passes = len(untraced[0])
    runner = Runner(clock, tracer)
    with tracer:
        records = op_times(pool.ops, runner.passes(pool.ops, 0.0, pass_rng(args), n_passes))
        op_aggr = tracer.take()
    base = sum(d for _, d in op_times(pool.ops, untraced))
    overhead = sum(d for _, d in records) / base - 1 if base else 0.0
    runner.attempted += plain.attempted
    runner.errors += plain.errors

    def metrics():
        values = layer_metrics(setup_aggr, op_aggr, n_passes, overhead)
        dump = OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
        tracer.dump(dump, {"workload": args.workload, "seed": args.seed, "layer_metrics": values})
        print(f"spans: {len(tracer.spans)} written to {dump.relative_to(ROOT)}")
        return values

    return report(args, runner, setup_errors, records, PER_LAYER, metrics)


def report(args, runner, setup_errors, records, units, metrics) -> int:
    errors = setup_errors + runner.errors
    attempted = runner.attempted + len(setup_errors)
    for err in errors[:20]:
        print(f"FAILED: {err}")
    if not records:
        print("no operation succeeded")
        return 1
    values = metrics()
    for name, unit in units.items():
        print(f"{name:40s} {values[name]:>14.6g} {unit:6s} n={len(records)}")
    if units is END_TO_END:
        for name, (value, unit, n) in details(args.workload, records).items():
            print(f"{name:40s} {value:>14.6g} {unit:6s} n={n}")
    cal = runner.clock.samples
    print(f"{'failed_ops_ratio':40s} {len(errors) / attempted:>14.6g} {'ratio':6s} n={attempted}")
    print(
        f"calibration: median {statistics.median(cal) * 1e3:.3f} ms over {len(cal)} samples"
        f" (reference {REF_CALIBRATION_S * 1e3:g} ms); unscaled busy time {runner.raw_busy:.3f} s;"
        f" correctness checks {runner.check_s:.3f} s"
    )
    emit(not errors, attempted, len(errors), values, units)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
