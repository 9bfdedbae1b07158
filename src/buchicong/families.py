"""Benchmark automaton families and a seeded random generator.

The permutation family gen_bn(n) has n + 2 states over symbols 0..n and is
built so that the subset congruence stays tiny (n + 3 classes) while the
pair-profile congruence explodes past n! classes.  gen_bn_dbw(n) is its
deterministic sibling with the sink behaviour inverted, useful for the
per-class progress bounds.
"""

from __future__ import annotations

import random

from .automata import Alphabet, Nbw


def _permutation_core(
    n: int,
) -> tuple[Alphabet, tuple[str, ...], dict[tuple[str, str], frozenset[str]]]:
    """Alphabet 0..n, states q, q1..qn, q0, and the transitions both families
    share: symbol i in 1..n swaps the roles of q and qi, and 0 funnels all of
    them into q0.  q0's own transitions are left to the caller."""
    if n < 1:
        raise ValueError("n must be at least 1")
    alphabet = Alphabet(tuple(str(i) for i in range(n + 1)))
    mids = tuple(f"q{i}" for i in range(1, n + 1))
    trans: dict[tuple[str, str], frozenset[str]] = {("q", "0"): frozenset({"q0"})}
    for i, qi in enumerate(mids, start=1):
        trans[("q", str(i))] = frozenset({qi})
        trans[(qi, "0")] = frozenset({"q0"})
        for j in range(1, n + 1):
            trans[(qi, str(j))] = frozenset({"q"} if j == i else {qi})
    return alphabet, ("q",) + mids + ("q0",), trans


def gen_bn(n: int) -> Nbw:
    """Permutation family member with states q, q1..qn, q0, qm1 over 0..n.

    Symbol i in 1..n swaps the roles of q and qi; 0 funnels everything into
    q0, which then feeds the accepting sink qm1 while also persisting.  The
    hub keeps a copy of itself on every letter so its subset row never decays.
    """
    alphabet, states, trans = _permutation_core(n)
    for sym in alphabet:
        trans[("q0", sym)] = frozenset({"q0", "qm1"})
        trans[("qm1", sym)] = frozenset({"qm1"})
    return Nbw(alphabet, states + ("qm1",), frozenset({"q"}), trans, frozenset({"q", "qm1"}))


def gen_bn_dbw(n: int) -> Nbw:
    """Deterministic complete variant: same permutation core, q0 a rejecting
    sink, and only the hub q accepting."""
    alphabet, states, trans = _permutation_core(n)
    for sym in alphabet:
        trans[("q0", sym)] = frozenset({"q0"})
    return Nbw(alphabet, states, frozenset({"q"}), trans, frozenset({"q"}))


def random_nbw(seed: int, n_states: int, symbols: tuple[str, ...] = ("a", "b")) -> Nbw:
    """Seeded random automaton.  Successor counts lean sparse (weights for
    0..3 successors are 0.15 / 0.5 / 0.25 / 0.10), one or two initial states,
    each state accepting with probability 0.35 so empty acceptance sets occur.
    """
    if n_states < 1:
        raise ValueError("need at least one state")
    rng = random.Random(seed)
    states = tuple(f"s{i}" for i in range(n_states))
    alphabet = Alphabet(symbols)
    trans: dict[tuple[str, str], frozenset[str]] = {}
    for q in states:
        for sym in symbols:
            k = rng.choices((0, 1, 2, 3), weights=(0.15, 0.5, 0.25, 0.10))[0]
            k = min(k, n_states)
            if k:
                trans[(q, sym)] = frozenset(rng.sample(states, k))
    n_init = 1 if n_states == 1 else rng.choice((1, 2))
    initial = frozenset(rng.sample(states, n_init))
    accepting = frozenset(q for q in states if rng.random() < 0.35)
    return Nbw(alphabet, states, initial, trans, accepting)
