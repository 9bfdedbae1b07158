"""Traced runs: wrap the public functions of buchicong at each module boundary,
where their callers look them up, and record spans and counts in memory.

A span is (name, start, end, id, parent id, op id); times are perf_counter
seconds.  Self time is a span's duration minus that of its direct child
spans, summed per layer, where the layer is the module defining the wrapped
function (the op spans the benchmark opens itself are layer `bench`).  The
two hottest calls, `preorder.ordered_step` and `profiles.compose`, are timed
and counted but not kept as individual spans, and `Nbw.successors` is only
counted, so that a traced run stays within memory and its overhead stays
measurable.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from buchicong import automata, families, fdfw, preorder, profiles

# metric name -> unit; a traced run prints exactly these
PER_LAYER = {
    "preorder.progress_s": "s",
    "preorder.progress_classes": "count",
    "preorder.progress_classes_per_s": "1/s",
    "preorder.ordered_step_calls": "count",
    "preorder.ordered_step_s": "s",
    "preorder.ordered_step_distinct_ratio": "ratio",
    "preorder.leading_s": "s",
    "preorder.leading_classes": "count",
    "profiles.improved_progress_s": "s",
    "profiles.improved_progress_classes": "count",
    "profiles.compose_calls": "count",
    "profiles.compose_s": "s",
    "profiles.subset_s": "s",
    "profiles.subset_classes": "count",
    "profiles.periodic_membership_calls": "count",
    "profiles.periodic_membership_s": "s",
    "fdfw.mark_s": "s",
    "fdfw.mark_calls": "count",
    "fdfw.accepting_ratio": "ratio",
    "fdfw.to_nbw_s": "s",
    "fdfw.to_nbw_states": "count",
    "fdfw.to_nbw_bound_ratio": "ratio",
    "fdfw.complement_s": "s",
    "fdfw.accepts_saturated_s": "s",
    "fdfw.accepts_saturated_calls": "count",
    "fdfw.accepts_general_s": "s",
    "fdfw.accepts_general_calls": "count",
    "automata.intersect_s": "s",
    "automata.product_states": "count",
    "automata.is_empty_s": "s",
    "automata.lasso_membership_s": "s",
    "automata.lasso_membership_calls": "count",
    "automata.successors_calls": "count",
    "families.generate_s": "s",
    "automata.self_s": "s",
    "fdfw.self_s": "s",
    "preorder.self_s": "s",
    "profiles.self_s": "s",
    "bench.self_s": "s",
    "trace.overhead_ratio": "ratio",
}

# (module, attribute, span name, keep individual spans)
WRAPPED = [
    (families, "random_nbw", "families.generate", True),
    (families, "gen_bn", "families.generate", True),
    (families, "gen_bn_dbw", "families.generate", True),
    (fdfw, "complement_fdfw_optimal", "fdfw.complement", True),
    (fdfw, "complement_fdfw_improved", "fdfw.complement", True),
    (fdfw, "containment", "fdfw.containment", True),
    (fdfw, "optimal_leading_congruence", "preorder.leading", True),
    (fdfw, "optimal_progress_congruence", "preorder.progress", True),
    (preorder, "ordered_step", "preorder.ordered_step", False),
    (fdfw, "subset_congruence", "profiles.subset", True),
    (fdfw, "progress_congruence_improved", "profiles.improved_progress", True),
    (profiles, "compose", "profiles.compose", False),
    (fdfw, "periodic_membership_from_profile", "profiles.periodic_membership", True),
    (fdfw, "lasso_membership", "fdfw.mark", True),
    (fdfw, "fdfw_to_nbw", "fdfw.to_nbw", True),
    (fdfw, "accepts_upword_saturated", "fdfw.accepts_saturated", True),
    (fdfw, "accepts_upword_general", "fdfw.accepts_general", True),
    (fdfw, "intersect", "automata.intersect", True),
    (fdfw, "is_empty", "automata.is_empty", True),
    (automata, "lasso_membership", "automata.lasso_membership", True),
]

SPAN_FIELDS = ["name", "start", "end", "id", "parent", "op"]


class Tracer:
    """Installs the wrappers on enter and restores the originals on exit.
    Aggregates (time, calls, self time per layer, result sizes) accumulate
    until take() hands them out and starts afresh; spans are kept for dump()."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op = -1
        self._stack: list[list] = []  # [span id, child time]
        self._next_id = 0
        self._restore: list[tuple] = []
        self._reset()

    def _reset(self):
        self.time = defaultdict(float)
        self.calls = defaultdict(int)
        self.self_time = defaultdict(float)
        self.sizes = defaultdict(int)
        self.successors = 0
        self._distinct = 0
        self._step_inputs: set = set()

    # --- installing -------------------------------------------------------

    def __enter__(self):
        for module, attr, name, keep in WRAPPED:
            fn = getattr(module, attr)
            layer = fn.__module__.rsplit(".", 1)[-1]
            self._patch(module, attr, self._wrap(fn, name, layer, keep))
        original = automata.Nbw.successors

        def successors(nbw, q, a):
            self.successors += 1
            return original(nbw, q, a)

        self._patch(automata.Nbw, "successors", successors)
        return self

    def __exit__(self, *exc):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        return False

    def _patch(self, owner, attr, replacement):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, fn, name, layer, keep):
        stack = self._stack
        note = self._note_result

        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                self.self_time[layer] += dur - frame[1]
                self.time[name] += dur
                self.calls[name] += 1
                if keep:
                    self.spans.append((name, t0, t1, span_id, parent, self.op))
            note(name, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _note_result(self, name, args, result):
        if name in ("preorder.leading", "preorder.progress", "profiles.subset", "profiles.improved_progress"):
            self.sizes[name + "_classes"] += len(result)
        elif name == "preorder.ordered_step":
            self._step_inputs.add((args[1], args[2]))
        elif name == "fdfw.complement":
            self.sizes["accepting"] += sum(len(p.accepting) for p in result.progress.values())
            self.sizes["progress"] += result.size()[1]
        elif name == "fdfw.to_nbw":
            self.sizes["nbw_states"] += len(result.states)
            self.sizes["nbw_bound"] += fdfw.nbw_state_bound(args[0])
        elif name == "automata.intersect":
            self.sizes["product_states"] += len(result.states)

    # --- ops and results ----------------------------------------------------

    @contextmanager
    def operation(self, op_id: int, kind: str):
        """Span of one benchmark operation; ordered_step inputs are counted
        distinct per operation, the scope a memo inside one build would have."""
        self.op = op_id
        span_id = self._next_id
        self._next_id += 1
        frame = [span_id, 0.0]
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.self_time["bench"] += (t1 - t0) - frame[1]
            self.spans.append((f"op.{kind}", t0, t1, span_id, -1, op_id))
            self._distinct += len(self._step_inputs)
            self._step_inputs.clear()
            self.op = -1

    def take(self) -> dict:
        """Aggregates since the last take(), then start afresh."""
        self._distinct += len(self._step_inputs)
        out = {
            "time": dict(self.time),
            "calls": dict(self.calls),
            "self_time": dict(self.self_time),
            "sizes": dict(self.sizes),
            "successors": self.successors,
            "distinct_steps": self._distinct,
        }
        self._reset()
        return out

    def dump(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            json.dump({"fields": SPAN_FIELDS, "spans": self.spans, **extra}, fh)


def layer_metrics(setup: dict, ops: dict, passes: int, overhead: float) -> dict:
    """PER_LAYER values, per pass over the workload's operations, from the
    aggregates of the traced setup and of `passes` traced passes.  Only
    families.generate_s comes from setup; a ratio whose base is zero on a
    workload reads 0."""
    t = {k: v / passes for k, v in ops["time"].items()}
    s = {k: v / passes for k, v in ops["self_time"].items()}
    c = {k: v // passes for k, v in ops["calls"].items()}
    z = {k: v // passes for k, v in ops["sizes"].items()}

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "preorder.progress_s": t.get("preorder.progress", 0.0),
        "preorder.progress_classes": z.get("preorder.progress_classes", 0),
        "preorder.progress_classes_per_s": ratio(z.get("preorder.progress_classes", 0), t.get("preorder.progress", 0.0)),
        "preorder.ordered_step_calls": c.get("preorder.ordered_step", 0),
        "preorder.ordered_step_s": t.get("preorder.ordered_step", 0.0),
        "preorder.ordered_step_distinct_ratio": ratio(ops["distinct_steps"], ops["calls"].get("preorder.ordered_step", 0)),
        "preorder.leading_s": t.get("preorder.leading", 0.0),
        "preorder.leading_classes": z.get("preorder.leading_classes", 0),
        "profiles.improved_progress_s": t.get("profiles.improved_progress", 0.0),
        "profiles.improved_progress_classes": z.get("profiles.improved_progress_classes", 0),
        "profiles.compose_calls": c.get("profiles.compose", 0),
        "profiles.compose_s": t.get("profiles.compose", 0.0),
        "profiles.subset_s": t.get("profiles.subset", 0.0),
        "profiles.subset_classes": z.get("profiles.subset_classes", 0),
        "profiles.periodic_membership_calls": c.get("profiles.periodic_membership", 0),
        "profiles.periodic_membership_s": t.get("profiles.periodic_membership", 0.0),
        "fdfw.mark_s": t.get("fdfw.mark", 0.0),
        "fdfw.mark_calls": c.get("fdfw.mark", 0),
        "fdfw.accepting_ratio": ratio(z.get("accepting", 0), z.get("progress", 0)),
        "fdfw.to_nbw_s": t.get("fdfw.to_nbw", 0.0),
        "fdfw.to_nbw_states": z.get("nbw_states", 0),
        "fdfw.to_nbw_bound_ratio": ratio(z.get("nbw_states", 0), z.get("nbw_bound", 0)),
        "fdfw.complement_s": t.get("fdfw.complement", 0.0),
        "fdfw.accepts_saturated_s": t.get("fdfw.accepts_saturated", 0.0),
        "fdfw.accepts_saturated_calls": c.get("fdfw.accepts_saturated", 0),
        "fdfw.accepts_general_s": t.get("fdfw.accepts_general", 0.0),
        "fdfw.accepts_general_calls": c.get("fdfw.accepts_general", 0),
        "automata.intersect_s": t.get("automata.intersect", 0.0),
        "automata.product_states": z.get("product_states", 0),
        "automata.is_empty_s": t.get("automata.is_empty", 0.0),
        "automata.lasso_membership_s": t.get("automata.lasso_membership", 0.0),
        "automata.lasso_membership_calls": c.get("automata.lasso_membership", 0),
        "automata.successors_calls": ops["successors"] // passes,
        "families.generate_s": setup["time"].get("families.generate", 0.0),
        "automata.self_s": s.get("automata", 0.0),
        "fdfw.self_s": s.get("fdfw", 0.0),
        "preorder.self_s": s.get("preorder", 0.0),
        "profiles.self_s": s.get("profiles", 0.0),
        "bench.self_s": s.get("bench", 0.0),
        "trace.overhead_ratio": overhead,
    }
