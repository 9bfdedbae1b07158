"""Congruence relations on finite words, represented as deterministic
transition systems over payload values.

Three constructions live here:

* the classical right congruence whose payload records, for every state pair
  (q, r), whether a run on the word exists and whether one visits an accepting
  state (at most 3^(n^2) classes);
* the subset congruence tracking the successor set of the initial states
  (at most 2^n classes), used as the leading equivalence;
* the improved progress congruence that restricts the pair profile to rows
  in a fixed source set (again at most 3^(n^2) classes, but typically far
  fewer per source set).

Profiles are stored as per-row bitmasks over the state order of the
automaton, which keeps composition cheap and hashable.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Hashable, Iterator, Mapping

from .automata import Alphabet, Nbw, Word, step

DEFAULT_CLASS_BUDGET = 200_000


class BudgetExceededError(RuntimeError):
    """Raised when a congruence exploration would exceed its class budget.
    `count` is the number of classes discovered before giving up; `phase`
    names the relation, as `subset` or `optimal-progress[<leading witness>]`."""

    def __init__(self, count: int, budget: int, phase: str):
        self.count = count
        self.budget = budget
        self.phase = phase
        super().__init__(f"class budget exceeded in {phase}: {count} classes, budget {budget}")


# --- pair profiles ---------------------------------------------------------


@dataclass(frozen=True)
class Profile:
    """Two nested relations on state pairs, row-encoded as bitmasks:
    bit j of reach[i] says a run on the word goes from state i to state j,
    bit j of reach_f[i] says some such run visits an accepting state
    (endpoints included).  reach_f[i] is always a submask of reach[i]."""

    size: int
    reach: tuple[int, ...]
    reach_f: tuple[int, ...]

    def __post_init__(self):
        if len(self.reach) != self.size or len(self.reach_f) != self.size:
            raise ValueError("row count must equal size")
        for r, rf in zip(self.reach, self.reach_f):
            if rf & ~r:
                raise ValueError("reach_f must be contained in reach")

    def to_triples(self, states: tuple[str, ...]) -> str:
        """Readable form: one `p -> q` or `p => q` item per related pair,
        `=>` marking pairs whose run can visit acceptance."""
        items = []
        for i, p in enumerate(states):
            for j, q in enumerate(states):
                if self.reach_f[i] >> j & 1:
                    items.append(f"{p} => {q}")
                elif self.reach[i] >> j & 1:
                    items.append(f"{p} -> {q}")
        return "{" + ", ".join(items) + "}"


@dataclass(frozen=True)
class RestrictedProfile:
    """A pair profile with rows zeroed outside a fixed source set.  The source
    set itself is part of the value, so equal masks over different sources
    stay distinct."""

    sources: frozenset[int]
    profile: Profile

    def __post_init__(self):
        for i in range(self.profile.size):
            if i not in self.sources and (self.profile.reach[i] or self.profile.reach_f[i]):
                raise ValueError("nonzero row outside the source set")

    def image(self) -> frozenset[int]:
        out = 0
        for i in self.sources:
            out |= self.profile.reach[i]
        return frozenset(_bits(out))


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def epsilon_profile(a: Nbw) -> Profile:
    diagonal = tuple(1 << i for i in range(len(a.states)))
    return Profile(len(diagonal), diagonal, tuple(d & a.bitmasks()[1] for d in diagonal))


def letter_profile(a: Nbw, sym: str) -> Profile:
    """Single-letter profile.  A pair (q, r) with r a successor of q counts as
    visiting acceptance when either endpoint is accepting."""
    succ, acc = a.bitmasks()
    rows = succ[sym]
    reach_f = tuple(row if acc >> i & 1 else row & acc for i, row in enumerate(rows))
    return Profile(len(rows), rows, reach_f)


def _row_compose(row_r: int, row_rf: int, second: Profile) -> tuple[int, int]:
    out_r = 0
    out_rf = 0
    for j in _bits(row_r):
        out_r |= second.reach[j]
        out_rf |= second.reach_f[j]
    for j in _bits(row_rf):
        out_rf |= second.reach[j]
    return out_r, out_rf & out_r


def compose(first: Profile, second: Profile) -> Profile:
    """Profile of a concatenation from the profiles of its parts.  A composed
    pair visits acceptance when either leg does on some stitching midpoint."""
    if first.size != second.size:
        raise ValueError("profile sizes differ")
    rows = [_row_compose(first.reach[i], first.reach_f[i], second) for i in range(first.size)]
    return Profile(first.size, tuple(r for r, _ in rows), tuple(rf for _, rf in rows))


def restrict(p: Profile, sources: frozenset[int]) -> RestrictedProfile:
    reach = tuple(p.reach[i] if i in sources else 0 for i in range(p.size))
    reach_f = tuple(p.reach_f[i] if i in sources else 0 for i in range(p.size))
    return RestrictedProfile(sources, Profile(p.size, reach, reach_f))


def periodic_membership_from_profile(a: Nbw, rp: RestrictedProfile) -> bool:
    """Whether s v^omega is accepted from some source state s, given the
    restricted profile of v over sources S with image(v) == S.

    Stability of S under v lets the infinite run be folded into pairs over S:
    we close the relation {(i, j, f)} under composition with the profile and
    report whether some source i can return to itself with an acceptance
    visit.  Requires the image condition, otherwise the folding is unsound.
    """
    srcs = sorted(rp.sources)
    if frozenset(rp.image()) != rp.sources:
        raise ValueError("periodic membership needs image(v) == sources")
    p = rp.profile
    # closure[i] = (reach mask, reach_f mask) over one or more copies of v
    closure_r = {i: p.reach[i] for i in srcs}
    closure_rf = {i: p.reach_f[i] for i in srcs}
    changed = True
    while changed:
        changed = False
        for i in srcs:
            r, rf = _row_compose(closure_r[i], closure_rf[i], p)
            nr, nrf = closure_r[i] | r, closure_rf[i] | rf
            if nr != closure_r[i] or nrf != closure_rf[i]:
                closure_r[i], closure_rf[i] = nr, nrf
                changed = True
    return any(closure_rf[i] >> i & 1 for i in srcs)


# --- generic congruence explorer -------------------------------------------


@dataclass(frozen=True)
class DfwClass:
    """One class of a right congruence: its id, the canonical access word
    (None only for classes a parsed structure declares but never reaches)
    and the payload value that defines it."""

    cid: int
    witness: Word | None
    payload: Hashable


@dataclass(frozen=True)
class CongruenceDfw:
    """Deterministic complete transition system over congruence classes.
    `table` maps (class id, symbol) to class id; `accepting` is optional and
    used when the structure doubles as a DFW over finite words."""

    alphabet: Alphabet
    classes: tuple[DfwClass, ...]
    table: Mapping[tuple[int, str], int]
    initial: int = 0
    accepting: frozenset[int] | None = None

    def __len__(self) -> int:
        return len(self.classes)

    def run(self, word: Word, start: int | None = None) -> int:
        cur = self.initial if start is None else start
        for sym in word:
            cur = self.table[(cur, sym)]
        return cur

    def accepts(self, word: Word) -> bool:
        if self.accepting is None:
            raise ValueError("no accepting set attached")
        return self.run(word) in self.accepting

    def payload_of(self, word: Word) -> Hashable:
        return self.classes[self.run(word)].payload

    def with_accepting(self, accepting: frozenset[int]) -> "CongruenceDfw":
        return dataclasses.replace(self, accepting=accepting)


def build_congruence_dfw(
    phase: str,
    alphabet: Alphabet,
    initial_payload: Hashable,
    step_payload: Callable[[Hashable, str], Hashable],
    budget: int = DEFAULT_CLASS_BUDGET,
) -> CongruenceDfw:
    """Explore the reachable payloads of a deterministic payload-step function
    breadth first.  Witnesses are canonical: shortest, ties broken by alphabet
    order, which BFS in declaration order yields by construction.  Raises
    BudgetExceededError, naming `phase`, when more than `budget` classes
    appear."""
    ids: dict[Hashable, int] = {initial_payload: 0}
    payloads: list[Hashable] = [initial_payload]
    witnesses: list[Word] = [()]
    table: dict[tuple[int, str], int] = {}
    # class ids are handed out in discovery order, so the list is the queue
    for cid, payload in enumerate(payloads):
        word = witnesses[cid]
        for sym in alphabet:
            nxt = step_payload(payload, sym)
            nid = ids.get(nxt)
            if nid is None:
                if len(ids) >= budget:
                    raise BudgetExceededError(len(ids), budget, phase)
                nid = len(ids)
                ids[nxt] = nid
                payloads.append(nxt)
                witnesses.append(word + (sym,))
            table[(cid, sym)] = nid
    classes = tuple(DfwClass(cid, witnesses[cid], payloads[cid]) for cid in range(len(payloads)))
    return CongruenceDfw(alphabet, classes, table)


# --- the three concrete congruences ----------------------------------------


def classical_congruence(a: Nbw, budget: int = DEFAULT_CLASS_BUDGET) -> CongruenceDfw:
    """Right congruence refined by the full pair profile of the word."""
    letters = {sym: letter_profile(a, sym) for sym in a.alphabet}
    return build_congruence_dfw(
        "classical",
        a.alphabet,
        epsilon_profile(a),
        lambda p, sym: compose(p, letters[sym]),
        budget,
    )


def subset_congruence(a: Nbw, budget: int = DEFAULT_CLASS_BUDGET) -> CongruenceDfw:
    """Right congruence refined by the successor set of the initial states.
    Payloads are frozensets of state names."""
    return build_congruence_dfw(
        "subset", a.alphabet, a.initial, lambda s, sym: step(a, s, sym), budget
    )


def progress_congruence_improved(
    a: Nbw, lead: CongruenceDfw, m: int, budget: int = DEFAULT_CLASS_BUDGET
) -> CongruenceDfw:
    """Progress congruence for class m of the subset leading congruence
    `lead`: the pair profile restricted to rows in the class's successor
    set.  Only source rows are composed, and each row image is computed once
    per build."""
    cls = lead.classes[m]
    sources = frozenset(a.index(q) for q in cls.payload)
    n = len(a.states)
    letters = {sym: letter_profile(a, sym) for sym in a.alphabet}
    images: dict[str, dict[tuple[int, int], tuple[int, int]]] = {sym: {} for sym in a.alphabet}

    def step_profile(rp: RestrictedProfile, sym: str) -> RestrictedProfile:
        memo = images[sym]
        reach = [0] * n
        reach_f = [0] * n
        for i in sources:
            row = rp.profile.reach[i], rp.profile.reach_f[i]
            img = memo.get(row)
            if img is None:
                img = memo[row] = _row_compose(*row, letters[sym])
            reach[i], reach_f[i] = img
        return RestrictedProfile(sources, Profile(n, tuple(reach), tuple(reach_f)))

    return build_congruence_dfw(
        f"improved-progress[{' '.join(cls.witness)}]",
        a.alphabet,
        restrict(epsilon_profile(a), sources),
        step_profile,
        budget,
    )
