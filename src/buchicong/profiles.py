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
pair-profile congruences hand out each class's payload as its `Profile`,
with the rows outside the source set zero.  Inside, a class is the row id
of each state, numbered per build from the rows its sources reach, and one
step maps the ids through a per-letter table with a single
`bytes.translate`; the payload column builds a class's profile on read.
The image of an improved progress class's profile is the state mask of the
subset class its members lead the sources to; the complement builder reads
that class off the leading DFW's rows by the return map of
`fdfw.complement_fdfw_improved`, not off the payload.
"""

from __future__ import annotations

import copy
import dataclasses
import itertools
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


@dataclass(frozen=True, eq=False, repr=False)
class CongruenceDfw:
    """Deterministic complete transition system over congruence classes,
    numbered from 0.  Class c has the payload `payloads[c]` that defines it,
    and `rows[sym][c]` is its successor on symbol sym.  The edge that first
    reached c leaves class `parent[c]` on the symbol of index `via[c]`, so
    `witness(c)` rebuilds c's canonical access word; `via` holds -1 for the
    initial class and for classes a parsed structure declares but never
    reaches.  `accepting` is optional and used when the structure doubles as
    a DFW over finite words.  A DFW is an identity object: `==` and `hash`
    go by id, `repr` reads no column, and `with_accepting` copies the
    instance dict, so a lazy DFW's copy shares its scan or its columns."""

    alphabet: Alphabet
    payloads: Sequence[Hashable]
    rows: Mapping[str, Sequence[int]]
    parent: Sequence[int]
    via: Sequence[int]
    initial: int = 0
    accepting: frozenset[int] | None = None

    def __len__(self) -> int:
        return len(self.parent)

    def witness(self, c: int) -> Word | None:
        """Shortest word reaching class c, ties broken by alphabet order, or
        None when no word does."""
        nodes, letters = path_to(self.parent, self.via, c)
        return tuple(self.alphabet.symbols[k] for k in letters) if nodes[0] == self.initial else None

    def run(self, word: Word, start: int | None = None) -> int:
        cur = self.initial if start is None else start
        rows = self.rows
        try:
            for sym in word:
                cur = rows[sym][cur]
        except KeyError:
            raise ValueError(f"symbol {sym!r} not in alphabet") from None
        return cur

    def accepts(self, word: Word) -> bool:
        if self.accepting is None:
            raise ValueError("no accepting set attached")
        return self.run(word) in self.accepting

    def with_accepting(self, accepting: frozenset[int]) -> "CongruenceDfw":
        dfw = copy.copy(self)
        object.__setattr__(dfw, "accepting", accepting)
        return dfw


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


class _ProfileColumn(Sequence[Profile]):
    """The payload column of a pair-profile congruence.  Class c is stored as
    `ids[c*n:(c+1)*n]`, the row id of each of the n states, and reads as its
    `Profile`.  `rows[r]` is the row of id r as a 2n-bit code, reach low and
    reach_f high; id 0 marks the rows outside the sources and is zero."""

    def __init__(self, ids: bytes | array, count: int, rows: list[int], n: int):
        self.ids, self.count, self.rows, self.n = ids, count, rows, n
        low = (1 << n) - 1
        self._reach = [row & low for row in rows]
        self._reach_f = [row >> n for row in rows]

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, c: int | slice) -> Profile | tuple[Profile, ...]:
        if isinstance(c, slice):
            return tuple(map(self.__getitem__, range(self.count)[c]))
        c = range(self.count)[c]
        code = self.ids[c * self.n : (c + 1) * self.n]
        return Profile(tuple(map(self._reach.__getitem__, code)), tuple(map(self._reach_f.__getitem__, code)))


def _profile_congruence(
    a: Nbw, phase: str, sources: int, budget: int, memo: dict[str, dict] | None = None
) -> CongruenceDfw:
    """Right congruence refined by the pair profile's rows in the source mask
    `sources`; the other rows stay zero.  Payloads read as profiles (see
    `_ProfileColumn`).  Each row image is computed once per `memo`, which
    maps each letter to a dict from the 2n-bit row codes found so far to
    their image codes.  Row images depend
    only on `a`, so builds over other source masks may share it; without
    one, a fresh memo is used.

    Before the search, the rows reachable from the diagonal source rows are
    numbered from 1, and each letter gets the table of its image ids.  A
    class is the row id of every state, 0 outside the sources, so one step
    maps each id through the letter's table: one `bytes.translate` while the
    ids fit a byte, a tuple of ids otherwise.  Every reachable row is a row
    of some class, so more than `budget` times |sources| rows mean more
    than `budget` classes, and the build raises as the search would."""
    n = len(a.states)
    low = (1 << n) - 1
    symbols = a.alphabet.symbols
    letters = [letter_profile(a, sym) for sym in symbols]
    memo = {} if memo is None else memo
    images = [memo.setdefault(sym, {}) for sym in symbols]
    srcs = list(_bits(sources))
    # epsilon rows are diagonal: source i relates to itself only, and visits
    # acceptance when i is accepting
    acc = a.bitmasks()[1]
    diagonal = [1 << i | (acc & 1 << i) << n for i in srcs]
    rows = [0] + diagonal
    ids = {row: r for r, row in enumerate(rows) if r}
    tables: list[list[int]] = [[0] for _ in symbols]
    limit = max(budget, 1) * len(srcs)
    # row ids are handed out in discovery order, so the list is the queue
    for row in itertools.islice(rows, 1, None):
        for known, second, table in zip(images, letters, tables):
            img = known.get(row)
            if img is None:
                r, rf = _row_compose(row & low, row >> n, second)
                img = known[row] = r | rf << n
            j = ids.get(img)
            if j is None:
                if len(ids) >= limit:
                    # the search raises at its first class past max(budget, 1)
                    raise BudgetExceededError(max(budget, 1), budget, phase)
                j = ids[img] = len(rows)
                rows.append(img)
            table.append(j)
    start = [0] * n
    for r, i in enumerate(srcs, 1):
        start[i] = r
    if len(rows) <= 256:
        # a translate table has 256 entries; those past the last id are never read
        narrow = {sym: bytes(t).ljust(256, b"\0") for sym, t in zip(symbols, tables)}
        init, step = bytes(start), lambda code, sym: code.translate(narrow[sym])
    else:
        wide = {sym: t.__getitem__ for sym, t in zip(symbols, tables)}
        init, step = tuple(start), lambda code, sym: tuple(map(wide[sym], code))
    dfw = build_congruence_dfw(phase, a.alphabet, init, step, budget)
    # one flat column for the whole DFW: a bytes object per class costs 48 bytes
    codes = dfw.payloads
    column = b"".join(codes) if len(rows) <= 256 else array("L", itertools.chain.from_iterable(codes))
    return dataclasses.replace(dfw, payloads=_ProfileColumn(column, len(dfw), rows, n))


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
    try:
        return _profile_congruence(a, "improved-progress", lead.payloads[m], budget, memo)
    except BudgetExceededError as err:
        # the phase is formatted only here: for every leading class of a
        # complement-sweep pass, both builders' phases took 2.2 ms
        raise BudgetExceededError(err.count, err.budget, f"improved-progress[{' '.join(lead.witness(m))}]") from None
