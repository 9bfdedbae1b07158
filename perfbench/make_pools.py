#!/usr/bin/env python3
"""Regenerate perfbench/pools.json, the candidate instances the workloads draw
from, with the class counts and output digests every build is checked against.

Run from the repository root:

    python3 perfbench/make_pools.py

Each universe is a run of consecutive `random_nbw` seeds starting at the CLI's
default seed.  An instance whose complement families together hold more than
CLASS_CAP progress classes is kept in the file, marked excluded, and never
drawn: a handful of 6-state seeds build hundreds of thousands of classes and
several gigabytes, which one benchmark run cannot afford.  The named families
(bn, bn-dbw) are stored the same way.  Everything here is deterministic, so
rerunning the script on unchanged code reproduces the file byte for byte.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from buchicong import fdfw as F  # noqa: E402
from buchicong import families  # noqa: E402
from buchicong.cli import DEFAULT_SEED  # noqa: E402
from workloads import describe  # noqa: E402

CLASS_CAP = 30_000
# universe name -> (states per automaton, number of consecutive seeds)
UNIVERSES = {"sweep": (6, 400), "contains": (4, 200), "member": (5, 200)}
NAMED = [(f"bn{n}", families.gen_bn, n) for n in range(3, 7)] + [
    (f"bn-dbw{n}", families.gen_bn_dbw, n) for n in range(3, 7)
]


class OverCap(Exception):
    pass


def capped_builds(a) -> dict:
    """Both complement families and their NBWs, or OverCap once the progress
    relations built so far exceed CLASS_CAP classes in total."""
    built = [0]
    originals = {
        name: getattr(F, name)
        for name in ("optimal_progress_congruence", "progress_congruence_improved")
    }

    def counted(fn):
        def wrapper(*args, **kwargs):
            dfw = fn(*args, **kwargs)
            built[0] += len(dfw)
            if built[0] > CLASS_CAP:
                raise OverCap
            return dfw

        return wrapper

    for name, fn in originals.items():
        setattr(F, name, counted(fn))
    try:
        out = {}
        for variant, builder in (
            ("optimal", F.complement_fdfw_optimal),
            ("improved", F.complement_fdfw_improved),
        ):
            f = builder(a, CLASS_CAP)
            out[variant] = describe(f, F.fdfw_to_nbw(f))
        return out
    finally:
        for name, fn in originals.items():
            setattr(F, name, fn)


def entry(aid: str, a) -> dict:
    try:
        return {"id": aid, **capped_builds(a)}
    except OverCap:
        return {"id": aid, "excluded": f"over {CLASS_CAP} progress classes"}


def render(doc: dict) -> str:
    """The pool file as JSON with one instance per line."""

    def rows(items):
        return ",\n".join("  " + json.dumps(r, sort_keys=True) for r in items)

    parts = [f' "class_cap": {doc["class_cap"]}', ' "named": [\n' + rows(doc["named"]) + "\n ]"]
    for name in UNIVERSES:
        u = doc[name]
        parts.append(f' "{name}": {{"states": {u["states"]}, "instances": [\n' + rows(u["instances"]) + "\n ]}")
    return "{\n" + ",\n".join(parts) + "\n}\n"


def main() -> int:
    doc = {
        "class_cap": CLASS_CAP,
        "named": [entry(aid, gen(n)) for aid, gen, n in NAMED],
    }
    for name, (states, count) in UNIVERSES.items():
        rows = []
        for seed in range(DEFAULT_SEED, DEFAULT_SEED + count):
            row = entry(f"rnd{seed}n{states}", families.random_nbw(seed, states))
            rows.append({"seed": seed, **row})
            print(name, row["id"], "excluded" if "excluded" in row else "", flush=True)
        doc[name] = {"states": states, "instances": rows}
    out = Path(__file__).resolve().parent / "pools.json"
    out.write_text(render(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
