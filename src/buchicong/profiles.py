"""Congruence relations on finite words, represented as deterministic
transition systems over payload values.

Two constructions live here, both over the compiled successor rows of
`Nbw.bitmasks()`:

* the subset congruence tracking the successor set of the initial states
  as a state bitmask (at most 2^n classes), used as the leading equivalence;
* the pair-profile congruence over a source set of states, whose payload
  records, for every pair (q, r) with q a source, whether a run on the word
  exists and whether one visits an accepting state.  With every state a
  source it is the classical right congruence (at most 3^(n^2) classes);
  with the states of one subset class as sources it is that class's improved
  progress congruence (again at most 3^(n^2) classes, but typically far
  fewer).

A profile is the NamedTuple (reach, reach_f) of plain tuples of row bitmasks
over the state order of the automaton.  It has no size field, and only
`compose` and `periodic_membership_from_profile` validate profiles.  The
pair-profile congruences store each class as one packed int instead: row i
occupies bits [2n*i, 2n*i + 2n), its low n bits holding reach[i] and its high
n bits reach_f[i], and rows outside the source set are zero.  `unpack_profile`
turns such a payload back into a `Profile`.  The image of an improved
progress class's profile is the state mask of the subset class its members
lead the sources to; the complement builder reads that class off the leading
DFW's rows by the return map of `fdfw.complement_fdfw_improved`, not off the code.
"""

from __future__ import annotations

import dataclasses
from array import array
from dataclasses import dataclass
from typing import Callable, Hashable, Mapping, NamedTuple, Sequence

from .automata import Alphabet, Nbw, Word, _bits, _image, path_to

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


class Profile(NamedTuple):
    """Two nested relations on state pairs, as plain tuples of row bitmasks:
    bit j of reach[i] says a run on the word goes from state i to state j,
    bit j of reach_f[i] says some such run visits an accepting state
    (endpoints included), so reach_f[i] is a submask of reach[i].  The state
    count is len(reach), not len(profile), which is 2.  Building one checks
    nothing; the readers `compose` and `periodic_membership_from_profile` do.
    A profile built over a source set keeps the rows of all other states
    zero; the source set is fixed per build and not part of the value."""

    reach: tuple[int, ...]
    reach_f: tuple[int, ...]


def letter_profile(a: Nbw, sym: str) -> Profile:
    """Single-letter profile.  A pair (q, r) with r a successor of q counts as
    visiting acceptance when either endpoint is accepting."""
    succ, acc = a.bitmasks()
    rows = succ[sym]
    reach_f = tuple(row if acc >> i & 1 else row & acc for i, row in enumerate(rows))
    return Profile(rows, reach_f)


def _row_compose(row_r: int, row_rf: int, second: Profile) -> tuple[int, int]:
    out_r = _image(second.reach, row_r)
    return out_r, (_image(second.reach_f, row_r) | _image(second.reach, row_rf)) & out_r


def _check(*profiles: Profile) -> None:
    for p in profiles:
        if len(p.reach) != len(p.reach_f) or any(rf & ~r for r, rf in zip(p.reach, p.reach_f)):
            raise ValueError("reach_f needs one row per reach row, each a submask of it")


def compose(first: Profile, second: Profile) -> Profile:
    """Profile of a concatenation from the profiles of its parts.  A composed
    pair visits acceptance when either leg does on some stitching midpoint."""
    _check(first, second)
    if len(first.reach) != len(second.reach):
        raise ValueError("profile sizes differ")
    rows = [_row_compose(r, rf, second) for r, rf in zip(first.reach, first.reach_f)]
    return Profile(tuple(r for r, _ in rows), tuple(rf for _, rf in rows))


def unpack_profile(code: int, n: int) -> Profile:
    """The profile a pair-profile congruence over n states packs into `code`:
    row i is bits [2n*i, 2n*i + 2n), reach[i] low and reach_f[i] high."""
    mask = (1 << n) - 1
    return Profile(
        tuple(code >> 2 * n * i & mask for i in range(n)),
        tuple(code >> (2 * i + 1) * n & mask for i in range(n)),
    )


def periodic_membership_from_profile(p: Profile, sources: int) -> bool:
    """Whether s v^omega is accepted from some source state s, given the
    profile p of v built over the source mask S, with image(v) == S.

    Stability of S under v lets the infinite run be folded into pairs over S:
    in the graph with an edge i -> j for each pair p relates, some source
    loops through acceptance exactly when a flagged pair (i, j) closes a
    cycle, that is when j reaches i again.  The reachability closure `star`
    comes from Warshall's algorithm on the row bitmasks.  Requires the image
    condition, otherwise the folding is unsound.
    """
    _check(p)
    image = outside = 0
    # not automata._image: one fused pass over the rows costs less than two _image calls here
    for i, r in enumerate(p.reach):
        image |= r
        if not sources >> i & 1:
            outside |= r  # reach_f rows are submasks of reach rows
    if outside:
        raise ValueError("nonzero row outside the source set")
    if image != sources:
        raise ValueError("periodic membership needs image(v) == sources")
    # star[i]: states reachable from i along a non-empty path; rows outside
    # the sources are zero, so paths stay inside them
    star = list(p.reach)
    srcs = list(_bits(sources))
    for k in srcs:
        bit, via_k = 1 << k, star[k]
        for i in srcs:
            if star[i] & bit:
                star[i] |= via_k
    return any(star[j] >> i & 1 for i in srcs for j in _bits(p.reach_f[i]))


# --- generic congruence explorer -------------------------------------------


@dataclass(frozen=True)
class CongruenceDfw:
    """Deterministic complete transition system over congruence classes,
    numbered from 0.  Class c has the payload `payloads[c]` that defines it,
    and `rows[sym][c]` is its successor on symbol sym.  The edge that first
    reached c leaves class `parent[c]` on the symbol of index `via[c]`, so
    `witness(c)` rebuilds c's canonical access word; `via` holds -1 for the
    initial class and for classes a parsed structure declares but never
    reaches.  `accepting` is optional and used when the structure doubles as
    a DFW over finite words."""

    alphabet: Alphabet
    payloads: tuple[Hashable, ...]
    rows: Mapping[str, Sequence[int]]
    parent: Sequence[int]
    via: Sequence[int]
    initial: int = 0
    accepting: frozenset[int] | None = None

    def __len__(self) -> int:
        return len(self.payloads)

    def witness(self, c: int) -> Word | None:
        """Shortest word reaching class c, ties broken by alphabet order, or
        None when no word does."""
        nodes, letters = path_to(self.parent, self.via, c)
        return tuple(self.alphabet.symbols[k] for k in letters) if nodes[0] == self.initial else None

    def run(self, word: Word, start: int | None = None) -> int:
        cur = self.initial if start is None else start
        try:
            for sym in word:
                cur = self.rows[sym][cur]
        except KeyError:
            raise ValueError(f"symbol {sym!r} not in alphabet") from None
        return cur

    def accepts(self, word: Word) -> bool:
        if self.accepting is None:
            raise ValueError("no accepting set attached")
        return self.run(word) in self.accepting

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
    parent, via = array("i", [-1]), array("i", [-1])
    rows = {sym: array("i") for sym in alphabet.symbols}
    letters = list(enumerate(rows.items()))
    # class ids are handed out in discovery order, so the list is the queue
    for cid, payload in enumerate(payloads):
        for k, (sym, row) in letters:
            nxt = step_payload(payload, sym)
            nid = ids.get(nxt)
            if nid is None:
                if len(ids) >= budget:
                    raise BudgetExceededError(len(ids), budget, phase)
                nid = ids[nxt] = len(payloads)
                payloads.append(nxt)
                parent.append(cid)
                via.append(k)
            row.append(nid)
    return CongruenceDfw(alphabet, tuple(payloads), rows, parent, via)


# --- the concrete congruences ----------------------------------------------


def subset_congruence(a: Nbw, budget: int = DEFAULT_CLASS_BUDGET) -> CongruenceDfw:
    """Right congruence refined by the successor set of the initial states.
    Payloads are state bitmasks, bit i standing for the state of index i."""
    succ, _ = a.bitmasks()
    init = sum(1 << a.index(q) for q in a.initial)
    return build_congruence_dfw("subset", a.alphabet, init, lambda s, sym: _image(succ[sym], s), budget)


def _profile_congruence(
    a: Nbw, phase: str, sources: int, budget: int, memo: dict[str, dict] | None = None
) -> CongruenceDfw:
    """Right congruence refined by the pair profile's rows in the source mask
    `sources`; the other rows stay zero.  Payloads are packed profiles (see
    the module docstring).  Only source rows are composed, and each row image
    is computed once per `memo`, which maps each letter to a dict from the
    2n-bit row codes found so far to their image codes.  Row images depend
    only on `a`, so builds over other source masks may share it; without
    one, a fresh memo is used."""
    n = len(a.states)
    low = (1 << n) - 1
    row_mask = (1 << 2 * n) - 1
    shifts = [2 * n * i for i in _bits(sources)]
    letters = {sym: letter_profile(a, sym) for sym in a.alphabet}
    memo = {} if memo is None else memo
    images: dict[str, dict[int, int]] = {sym: memo.setdefault(sym, {}) for sym in a.alphabet}

    def step_profile(code: int, sym: str) -> int:
        known = images[sym]
        out = 0
        for shift in shifts:
            row = code >> shift & row_mask
            img = known.get(row)
            if img is None:
                r, rf = _row_compose(row & low, row >> n, letters[sym])
                img = known[row] = r | rf << n
            out |= img << shift
        return out

    # epsilon rows are diagonal: source i relates to itself only, and visits
    # acceptance when i is accepting
    acc = a.bitmasks()[1]
    init = sum((1 << i | (acc & 1 << i) << n) << 2 * n * i for i in _bits(sources))
    return build_congruence_dfw(phase, a.alphabet, init, step_profile, budget)


def classical_congruence(a: Nbw, budget: int = DEFAULT_CLASS_BUDGET) -> CongruenceDfw:
    """Right congruence refined by the full pair profile of the word: every
    state is a source."""
    return _profile_congruence(a, "classical", (1 << len(a.states)) - 1, budget)


def progress_congruence_improved(
    a: Nbw,
    lead: CongruenceDfw,
    m: int,
    budget: int = DEFAULT_CLASS_BUDGET,
    memo: dict[str, dict] | None = None,
) -> CongruenceDfw:
    """Progress congruence for class m of the subset leading congruence
    `lead`: the pair profile over the class's state mask as sources.  The
    progress DFWs of every class of `lead` may share one row-image `memo`."""
    return _profile_congruence(
        a, f"improved-progress[{' '.join(lead.witness(m))}]", lead.payloads[m], budget, memo
    )
