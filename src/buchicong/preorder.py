"""Ordered-subset congruences: the leading equivalence tracks a sequence of
disjoint state blocks rather than a flat set, ordering blocks by how recently
their runs touched acceptance.  The progress side adds, per current state,
the strongest block of origin it is reachable from and one flag saying
whether some run from that strongest block meets acceptance on the way.

The acceptance flag is what makes periodic membership a class invariant:
two periods that shuffle the same states back to the same arrangement can
still differ on whether the loop passes an accepting state, and dropping
the flag would merge them.  Leading classes number at most the arrangements
over n states, sum over k of C(n, k) times the k-th Fubini number; progress
classes stay within n^n (n+1)^n on everything the suite measures.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automata import Nbw, Word
from .profiles import (
    DEFAULT_CLASS_BUDGET,
    CongruenceDfw,
    build_congruence_dfw,
)


@dataclass(frozen=True)
class PreorderedSubset:
    """Disjoint non-empty blocks of states, least-recently-accepting first.
    State ids are automaton indices; blocks are frozensets.  The rightmost
    block is the maximal one under the tracked preorder."""

    blocks: tuple[frozenset[int], ...]

    def __post_init__(self):
        seen: set[int] = set()
        for b in self.blocks:
            if not b:
                raise ValueError("empty block")
            if b & seen:
                raise ValueError("blocks must be disjoint")
            seen |= b

    def states(self) -> frozenset[int]:
        out: set[int] = set()
        for b in self.blocks:
            out |= b
        return frozenset(out)

    def block_of(self, q: int) -> int:
        for i, b in enumerate(self.blocks):
            if q in b:
                return i
        raise KeyError(q)

    def pretty(self, names: tuple[str, ...]) -> str:
        parts = []
        for b in self.blocks:
            inner = ",".join(names[i] for i in sorted(b))
            parts.append("{" + inner + "}")
        return "<" + ",".join(parts) + ">"


def initial_preordered(a: Nbw) -> PreorderedSubset:
    """Initial states split into a non-accepting block then an accepting one,
    empty blocks dropped.  Accepting sits rightmost: a length-0 run from an
    accepting state already counts as visiting acceptance."""
    non_acc = frozenset(a.index(q) for q in a.initial if q not in a.accepting)
    acc = frozenset(a.index(q) for q in a.initial if q in a.accepting)
    blocks = tuple(b for b in (non_acc, acc) if b)
    return PreorderedSubset(blocks)


def ordered_step(a: Nbw, ps: PreorderedSubset, sym: str) -> PreorderedSubset:
    """One-letter successor.  Each successor state is keyed by the highest
    block index among its predecessors and by whether it is accepting; keys
    sort ascending, acceptance breaking ties upward, and each state lands in
    the block of its strongest key.  Empty groups vanish."""
    acc_ids = {a.index(q) for q in a.accepting}
    best: dict[int, tuple[int, int]] = {}
    for bi, block in enumerate(ps.blocks):
        for qi in block:
            q = a.states[qi]
            for r in a.successors(q, sym):
                ri = a.index(r)
                key = (bi, 1 if ri in acc_ids else 0)
                if ri not in best or key > best[ri]:
                    best[ri] = key
    groups: dict[tuple[int, int], set[int]] = {}
    for ri, key in best.items():
        groups.setdefault(key, set()).add(ri)
    blocks = tuple(frozenset(groups[k]) for k in sorted(groups))
    return PreorderedSubset(blocks)


def ordered_reach(a: Nbw, word: Word) -> PreorderedSubset:
    ps = initial_preordered(a)
    for sym in word:
        ps = ordered_step(a, ps, sym)
    return ps


# --- leading congruence ------------------------------------------------------


def optimal_leading_congruence(a: Nbw, budget: int = DEFAULT_CLASS_BUDGET) -> CongruenceDfw:
    """Right congruence with PreorderedSubset payloads."""
    return build_congruence_dfw(
        a.alphabet,
        initial_preordered(a),
        lambda ps, sym: ordered_step(a, ps, sym),
        budget,
    )


# --- progress congruence ------------------------------------------------------


@dataclass(frozen=True)
class OptProgressState:
    """Progress payload for one leading class: the ordered successor
    arrangement of the word read so far, the index of the base block each
    current state's run started in (maximised over runs), and the set of
    current states with a run from that strongest base block that visits
    acceptance at one of its steps.  `back` is indexed by state id and holds
    -1 for states that are not current.  The base arrangement is the same
    for every payload of one progress DFW, so it is not part of the value.

    The run start itself is never counted as a visit: a length-0 segment
    contributes nothing, and the visit a state makes by standing at the end
    of one segment already belongs to that segment."""

    blocks: PreorderedSubset
    back: tuple[int, ...]
    via_acc: frozenset[int]

    def __post_init__(self):
        tracked = frozenset(qi for qi, bi in enumerate(self.back) if bi >= 0)
        if tracked != self.blocks.states():
            raise ValueError("back map must cover exactly the current states")
        if not self.via_acc <= tracked:
            raise ValueError("acceptance flags must sit on current states")


def initial_progress_state(a: Nbw, base: PreorderedSubset) -> OptProgressState:
    back = [-1] * len(a.states)
    for bi, b in enumerate(base.blocks):
        for q in b:
            back[q] = bi
    return OptProgressState(base, tuple(back), frozenset())


def progress_step(a: Nbw, st: OptProgressState, sym: str) -> OptProgressState:
    nxt = ordered_step(a, st.blocks, sym)
    acc_ids = {a.index(q) for q in a.accepting}
    back = [-1] * len(st.back)
    hit = [False] * len(st.back)
    for qi, bi in enumerate(st.back):
        if bi < 0:
            continue
        q = a.states[qi]
        qhit = qi in st.via_acc
        for r in a.successors(q, sym):
            ri = a.index(r)
            if bi > back[ri]:
                # stronger origin found: its flag replaces any weaker one
                back[ri] = bi
                hit[ri] = qhit
            elif bi == back[ri] and qhit:
                hit[ri] = True
    via_acc = frozenset(
        ri for ri, bi in enumerate(back) if bi >= 0 and (hit[ri] or ri in acc_ids)
    )
    # successors of tracked states are exactly the states of nxt
    return OptProgressState(nxt, tuple(back), via_acc)


def optimal_progress_congruence(
    a: Nbw, base: PreorderedSubset, budget: int = DEFAULT_CLASS_BUDGET
) -> CongruenceDfw:
    """Progress congruence for the leading class whose payload is `base`."""
    return build_congruence_dfw(
        a.alphabet,
        initial_progress_state(a, base),
        lambda st, sym: progress_step(a, st, sym),
        budget,
    )

