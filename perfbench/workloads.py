"""The three benchmark workloads: how each draws its inputs from the seed,
which operations it times, and the correctness gate every operation passes.

Each operation calls the public functions of `buchicong` through their module
attributes (`F.containment`, `A.lasso_membership`, ...), the names the traced
run wraps.

Random automata have heavy-tailed costs: among 400 six-state seeds the
median pair of builds takes 50 ms, the slowest 6 s, and some need gigabytes.
A pool drawn afresh per seed would therefore change its cost by tens of
percent from seed to seed.  So each workload's automata are one fixed draw,
one from each cost stratum of a pre-measured candidate list (`pools.json`),
and the seed renames and reorders their states, orders the operations, and
makes the workload's other inputs (the large left automata of
contains-product, the words of member-queries).  Renaming states leaves every
class count and serialized output unchanged, so each build is checked against
the digests stored for its instance.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from buchicong import automata as A
from buchicong import families
from buchicong import fdfw as F
from buchicong import serialize_fdfw, serialize_nbw
from buchicong.cli import DEFAULT_SEED

POOLS_FILE = Path(__file__).resolve().parent / "pools.json"
VARIANTS = {
    "optimal": lambda a: F.complement_fdfw_optimal(a),
    "improved": lambda a: F.complement_fdfw_improved(a),
}


@dataclass
class Op:
    """One timed operation.  `check` runs after the timed call and returns an
    error message, or None when the result is right."""

    kind: str
    label: str
    call: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass
class Pool:
    """The timed operations, the warm-up subset run first, and checks on what
    setup built, run once after setup is timed."""

    warmup: list[Op]
    ops: list[Op]
    setup_checks: list[Callable[[], str | None]] = field(default_factory=list)


@functools.cache
def pools() -> dict:
    return json.loads(POOLS_FILE.read_text())


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def describe(f, nbw) -> dict:
    """The per-build record stored in pools.json."""
    leading, progress = f.size()
    return {
        "leading": leading,
        "progress": progress,
        "accepting": sum(len(p.accepting) for p in f.progress.values()),
        "nbw_states": len(nbw.states),
        "nbw_bound": F.nbw_state_bound(f),
        "fdfw_sha": _digest(serialize_fdfw(f)),
        "nbw_sha": _digest(serialize_nbw(nbw)),
    }


def draw(universe: str, k: int, cost: Callable[[dict], int], limit: int | None = None) -> list[dict]:
    """One candidate from each of k equal strata of the universe ranked by
    cost, leaving out excluded candidates and those costing more than limit.
    The draw is fixed: it does not depend on the workload seed."""
    rng = random.Random(universe)
    ranked = sorted(
        (
            r
            for r in pools()[universe]["instances"]
            if "excluded" not in r and (limit is None or cost(r) <= limit)
        ),
        key=lambda r: (cost(r), r["seed"]),
    )
    return [rng.choice(ranked[i * len(ranked) // k : (i + 1) * len(ranked) // k]) for i in range(k)]


def generate(row: dict, states: int, rng: random.Random):
    return relabel(families.random_nbw(row["seed"], states), rng)


def relabel(a, rng: random.Random):
    """The same automaton with its state names permuted, which permutes the
    state indices every construction works on."""
    names = list(a.states)
    rng.shuffle(names)
    new = dict(zip(a.states, names))
    return A.Nbw(
        a.alphabet,
        a.states,
        frozenset(new[q] for q in a.initial),
        {(new[q], sym): frozenset(new[r] for r in rs) for (q, sym), rs in a.transitions.items()},
        frozenset(new[q] for q in a.accepting),
    )


def small_words(alphabet) -> list:
    """Canonical ultimately periodic words with |u|, |v| <= 2."""
    return list(dict.fromkeys(w.canonical() for w in A.enumerate_upwords(alphabet, 2, 2)))


def oracle_errors(a, f, nbw) -> str | None:
    """The family and its NBW must reject exactly the words the input accepts,
    and the NBW must be disjoint from the input."""
    for w in small_words(a.alphabet):
        inside = A.lasso_membership(a, w).accepted
        if F.accepts_upword(f, w) == inside:
            return f"family verdict on {w} equals the input's"
        if A.lasso_membership(nbw, w).accepted == inside:
            return f"complement NBW verdict on {w} equals the input's"
    if not A.is_empty(A.intersect(a, nbw))[0]:
        return "complement NBW intersects the input"
    return None


# --- complement-sweep ----------------------------------------------------------


SWEEP_RANDOM = 40


def sweep_pool(seed: int) -> Pool:
    """gen_bn(3..6), gen_bn_dbw(3..6) and 40 six-state automata, one from each
    of 40 strata of progress-class counts; each built with both variants."""
    rng = random.Random(f"complement-sweep/{seed}")
    named = {"bn": families.gen_bn, "bn-dbw": families.gen_bn_dbw}
    instances = []
    for row in pools()["named"]:  # ids like bn3, bn-dbw6
        family = row["id"].rstrip("0123456789")
        instances.append((row, relabel(named[family](int(row["id"][len(family):])), rng)))
    states = pools()["sweep"]["states"]
    rows = draw("sweep", SWEEP_RANDOM, lambda r: r["optimal"]["progress"] + r["improved"]["progress"])
    instances += [(row, generate(row, states, rng)) for row in rows]

    def build_op(row, a, variant) -> Op:
        expected = row[variant]
        checked = []

        def call():
            f = VARIANTS[variant](a)
            return f, F.fdfw_to_nbw(f)

        def check(result):
            f, nbw = result
            got = describe(f, nbw)
            if got != expected:
                return f"{row['id']} {variant}: built {got}, stored {expected}"
            if not checked:
                checked.append(True)
                err = oracle_errors(a, f, nbw)
                if err:
                    return f"{row['id']} {variant}: {err}"
            return None

        return Op(variant, row["id"], call, check)

    ops = [build_op(row, a, v) for row, a in instances for v in VARIANTS]
    rng.shuffle(ops)
    warmup = [op for op in ops if not op.label.startswith("rnd")]
    return Pool(warmup, ops)


# --- contains-product ------------------------------------------------------------


CONTAINS_PAIRS = 40
CONTAINS_MAX_COMPLEMENT = 30


def _reachable(a) -> int:
    seen = set(a.initial)
    todo = list(seen)
    while todo:
        q = todo.pop()
        for sym in a.alphabet:
            for r in a.successors(q, sym):
                if r not in seen:
                    seen.add(r)
                    todo.append(r)
    return len(seen)


def contains_pool(seed: int) -> Pool:
    """Pairs (x, b) and (intersect(x, b), b): b a 4-state automaton from one of
    40 strata of complement-NBW sizes (at most 30 states), x a 300..400-state
    automaton at least half of whose states are reachable, so that every
    pair builds a large product.  The first pair mostly fails, the second
    always holds."""
    rng = random.Random(f"contains-product/{seed}")
    states = pools()["contains"]["states"]
    rows = draw("contains", CONTAINS_PAIRS, lambda r: r["optimal"]["nbw_states"], CONTAINS_MAX_COMPLEMENT)
    ops = []
    for i, row in enumerate(rows):
        b = generate(row, states, rng)
        x_seed = DEFAULT_SEED + 1000 + i
        while True:
            x = families.random_nbw(x_seed, 300 + x_seed % 101)
            if _reachable(x) * 2 >= len(x.states):
                break
            x_seed += 1000
        x = relabel(x, rng)
        xb = A.intersect(x, b)
        label = f"{row['id']}/x{x_seed}"
        ops.append(Op("fails", label, lambda x=x, b=b: F.containment(x, b), _contains_check(x, b, False)))
        ops.append(Op("holds", label, lambda xb=xb, b=b: F.containment(xb, b), _contains_check(xb, b, True)))
    rng.shuffle(ops)
    return Pool(ops[:2], ops)


def _contains_check(left, right, must_hold: bool):
    first = []

    def check(result):
        if first:
            return None if result == first[0] else "verdict differs from the first pass"
        first.append(result)
        holds, cex = result
        if must_hold:
            return None if holds else f"containment fails with counterexample {cex}"
        if holds:
            # cross-check with the other complement pipeline
            comp = F.fdfw_to_nbw(F.complement_fdfw_improved(right))
            if not A.is_empty(A.intersect(left, comp))[0]:
                return "holds, but the improved complement meets the left side"
            return None
        if not A.lasso_membership(left, cex).accepted:
            return f"counterexample {cex} is not in the left language"
        if A.lasso_membership(right, cex).accepted:
            return f"counterexample {cex} is in the right language"
        return None

    return check


# --- member-queries ----------------------------------------------------------------


MEMBER_INSTANCES = 20
MEMBER_WORDS = 50


def member_pool(seed: int) -> Pool:
    """20 five-state automata, one from each of 20 strata of complement-NBW
    sizes, with both families and both complement NBWs built here; 50 seeded
    words per automaton with |u| in 0..12 and |v| in 1..12.  A query answers
    one word six ways: accepts_upword on both families, accepts_upword_general
    on the optimal one, lasso_membership on both complement NBWs and on the
    input."""
    rng = random.Random(f"member-queries/{seed}")
    states = pools()["member"]["states"]
    rows = draw("member", MEMBER_INSTANCES, lambda r: r["optimal"]["nbw_states"] + r["improved"]["nbw_states"])
    ops = []
    checks = []
    for row in rows:
        a = generate(row, states, rng)
        built = {}
        for variant, build in VARIANTS.items():
            f = build(a)
            built[variant] = (f, F.fdfw_to_nbw(f))
        checks.append(lambda row=row, a=a, built=built: _built_errors(row, a, built))
        (fo, no), (fi, ni) = built["optimal"], built["improved"]
        symbols = a.alphabet.symbols
        for _ in range(MEMBER_WORDS):
            u = tuple(rng.choice(symbols) for _ in range(rng.randint(0, 12)))
            v = tuple(rng.choice(symbols) for _ in range(rng.randint(1, 12)))
            w = A.UpWord(u, v)

            def call(a=a, fo=fo, fi=fi, no=no, ni=ni, w=w):
                return (
                    F.accepts_upword(fo, w),
                    F.accepts_upword(fi, w),
                    F.accepts_upword_general(fo, w),
                    A.lasso_membership(no, w).accepted,
                    A.lasso_membership(ni, w).accepted,
                    A.lasso_membership(a, w).accepted,
                )

            def check(verdicts, row=row, w=w):
                *complement, inside = verdicts
                if any(c == inside for c in complement):
                    return f"{row['id']} {w}: verdicts {verdicts} disagree with the oracle"
                return None

            ops.append(Op("query", row["id"], call, check))
    rng.shuffle(ops)
    return Pool(ops[:MEMBER_WORDS], ops, checks)


def _built_errors(row: dict, a, built: dict) -> str | None:
    for variant, (f, nbw) in built.items():
        got = describe(f, nbw)
        if got != row[variant]:
            return f"{row['id']} {variant}: built {got}, stored {row[variant]}"
        err = oracle_errors(a, f, nbw)
        if err:
            return f"{row['id']} {variant}: {err}"
    return None


WORKLOADS = {
    "complement-sweep": sweep_pool,
    "contains-product": contains_pool,
    "member-queries": member_pool,
}
