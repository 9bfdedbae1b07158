"""Ordered-subset congruences: the leading equivalence tracks a sequence of
disjoint state blocks rather than a flat set, ordering blocks by how recently
their runs touched acceptance.  A progress payload holds the leading class
reached so far, whose arrangement the leading DFW already stores, and per
base block a bitmask of the current states whose strongest origin it is,
plus a bitmask of the states whose run from that origin meets acceptance.
Blocks are bitmasks over state indices too, and both one-letter steps run
the same claim: blocks take their successors from the strongest down.

The acceptance flag is what makes periodic membership a class invariant, one
that `OptProgressState.accepts_period` reads off the payload: two periods
that shuffle the same states back to the same arrangement can still differ
on whether the loop passes an accepting state, and dropping the flag would
merge them.  Leading classes number at most the arrangements over n states,
sum over k of C(n, k) times the k-th Fubini number; progress classes stay
within n^n (n+1)^n on everything the suite measures.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import NamedTuple

from .automata import Nbw
from .profiles import (
    DEFAULT_CLASS_BUDGET,
    BudgetExceededError,
    CongruenceDfw,
    build_congruence_dfw,
)


@dataclass(frozen=True)
class PreorderedSubset:
    """Disjoint non-empty blocks of states, least-recently-accepting first.
    Each block is a bitmask over automaton state indices, bit i standing for
    state i.  The rightmost block is the maximal one under the tracked
    preorder.  `mask` is the union of the blocks."""

    blocks: tuple[int, ...]
    mask: int = field(init=False, repr=False, compare=False, default=0)

    def __post_init__(self):
        seen = 0
        for b in self.blocks:
            if not b:
                raise ValueError("empty block")
            if b & seen:
                raise ValueError("blocks must be disjoint")
            seen |= b
        object.__setattr__(self, "mask", seen)


def initial_preordered(a: Nbw) -> PreorderedSubset:
    """Initial states split into a non-accepting block then an accepting one,
    empty blocks dropped.  Accepting sits rightmost: a length-0 run from an
    accepting state already counts as visiting acceptance."""
    init = sum(1 << a.index(q) for q in a.initial)
    acc = a.bitmasks()[1]
    return PreorderedSubset(tuple(b for b in (init & ~acc, init & acc) if b))


def _claim(post: list[int], acc: int, blocks: tuple[int, ...], flagged: int) -> tuple[list, int]:
    """Successors of `blocks` under the rows `post`, claimed top down: the
    strongest block takes its whole image, each weaker one what is left.
    Also returns the flagged claims: claimed states that are accepting or
    were reached from a `flagged` state of the block that claimed them."""
    claims = [0] * len(blocks)
    taken = hit = 0
    for b in range(len(blocks) - 1, -1, -1):
        img = img_flagged = 0
        src = blocks[b]
        # not automata._image: one walk gives both images in the optimal builders' hottest step
        while src:
            low = src & -src
            row = post[low.bit_length() - 1]
            img |= row
            if low & flagged:
                img_flagged |= row
            src ^= low
        claims[b] = img & ~taken
        taken |= img
        hit |= claims[b] & (img_flagged | acc)
    return claims, hit


def ordered_step(a: Nbw, ps: PreorderedSubset, sym: str) -> PreorderedSubset:
    """One-letter successor.  Blocks claim successors from the strongest
    down, and each claim splits into its non-accepting then its accepting
    states, which rank just above; empty groups vanish."""
    succ, acc = a.bitmasks()
    claims, _ = _claim(succ[sym], acc, ps.blocks, 0)
    return PreorderedSubset(tuple(g for c in claims for g in (c & ~acc, c & acc) if g))


# --- leading congruence ------------------------------------------------------


def optimal_leading_congruence(a: Nbw, budget: int = DEFAULT_CLASS_BUDGET) -> CongruenceDfw:
    """Right congruence with PreorderedSubset payloads."""
    return build_congruence_dfw(
        "optimal",
        a.alphabet,
        initial_preordered(a),
        lambda ps, sym: ordered_step(a, ps, sym),
        budget,
    )


# --- progress congruence ------------------------------------------------------


class OptProgressState(NamedTuple):
    """Progress payload for leading class m with base arrangement B: the
    leading class id of u.v, for u in m and v the word read so far; per
    block b of B, the mask of current states whose strongest run starts in
    b; and the mask of current states with a run from that strongest block
    that visits acceptance at one of its steps.  Bit i is state index i.  B
    is fixed for one progress DFW, so it is not part of the value.

    The run start itself is never counted as a visit: a length-0 segment
    contributes nothing, and the visit a state makes by standing at the end
    of one segment already belongs to that segment."""

    lead: int
    back: tuple[int, ...]
    via_acc: int

    def check(self, states_mask: int) -> "OptProgressState":
        """self, after checking it against the state mask of its leading class."""
        tracked = 0
        for mask in self.back:
            tracked |= mask
        if tracked != states_mask:
            raise ValueError("back map must cover exactly the current states")
        if self.via_acc & ~tracked:
            raise ValueError("acceptance flags must sit on current states")
        return self

    def accepts_period(self, base: tuple[int, ...]) -> bool:
        """Whether u.v^omega is in L(A), for v in this class and u in leading
        class self.lead, when `base` holds that class's blocks: whether some
        block b keeps states of its own (back[b] meets base[b]), one flagged.

        Proof.  Each level u.v^i carries the same arrangement, every block
        has one parent block a letter earlier, and blocks are ordered by
        ancestor first.  So each block c has one origin o(c) a period
        earlier, o is monotone, and its fixed points are the only cycles of
        the block graph o(c) -> c.  States of c are flagged iff c's block
        path from o(c) meets an accepting block: a flagged run through a
        weaker block left that path at an acceptance split.  By the reduced
        run DAG argument (Kähler and Wilke, ICALP 2008; Fogarty, Kupferman,
        Vardi and Wilke, I&C 2015), u.v^omega is accepted iff some branch of
        blocks meets acceptance infinitely often: the strongest blocks with
        an accepting continuation form one, and König's lemma turns one into
        a run.  Over periods a branch settles on a fixed point b of o, and
        it meets acceptance every period iff b's states are flagged."""
        return any(back & b & self.via_acc for back, b in zip(self.back, base))


def initial_progress_state(lead: CongruenceDfw, m: int) -> OptProgressState:
    base = lead.payloads[m]
    return OptProgressState(m, base.blocks, 0).check(base.mask)


def progress_step(a: Nbw, lead: CongruenceDfw, st: OptProgressState, sym: str) -> OptProgressState:
    """One-letter successor: the arrangement is looked up in the leading DFW;
    base blocks claim successors from the strongest down, and a claimed state
    is flagged when accepting or reached from a flagged state of its block."""
    succ, acc = a.bitmasks()
    back, via = _claim(succ[sym], acc, st.back, st.via_acc)
    nxt = lead.rows[sym][st.lead]
    return OptProgressState(nxt, tuple(back), via).check(lead.payloads[nxt].mask)


class ScannedProgressDfw(CongruenceDfw):
    """A progress DFW of the optimal congruence whose classes, `parent` and
    `via` are known from its scan and whose `rows` and `payloads` are filled
    on first read.  `candidates` lists (class id, payload) for the classes
    whose payload's `lead` is the leading class the DFW belongs to, the root
    first; `reentered` says whether some edge leads back into the root.  The
    fill drops the DFW's reference to the scan, so a shared payload graph
    lives only as long as some DFW of its family is unfilled."""

    def __init__(self, alphabet, parent, via, candidates, reentered, scan, accepting=None):
        # the scan: the global ids in class order, and the payload graph's
        # payload list and per-letter successor lists
        names = "alphabet", "parent", "via", "candidates", "reentered", "_scan", "accepting"
        for name, value in zip(names, (alphabet, parent, via, candidates, reentered, scan, accepting)):
            object.__setattr__(self, name, value)

    def _fill(self) -> None:
        order, payloads, succ = self._scan
        # rebuilt, not kept from the scan: kept for every unfilled DFW, the
        # maps raised the peak of a process building rnd1732n7 from 26 MB
        # to 53 MB, to save 0.03 s of its fill
        local = dict(zip(order, range(len(order))))
        # one itemgetter call per column; the root is picked twice and dropped
        # again, because itemgetter answers a single key with a bare value
        pick = itemgetter(*order, order[0])
        rows = {
            sym: array("i", itemgetter(*pick(row))(local)[:-1])
            for sym, row in zip(self.alphabet.symbols, succ)
        }
        for name, value in (("rows", rows), ("payloads", pick(payloads)[:-1]), ("_scan", None)):
            object.__setattr__(self, name, value)

    # the first read of either column fills both into the instance dict,
    # where later reads find them; a __getattr__ hook would slow every
    # attribute read of the DFW, filled or not
    rows = cached_property(lambda self: self._fill() or self.rows)
    payloads = cached_property(lambda self: self._fill() or self.payloads)


def optimal_progress_congruence(
    a: Nbw,
    lead: CongruenceDfw,
    m: int,
    budget: int = DEFAULT_CLASS_BUDGET,
    memo: dict | None = None,
) -> ScannedProgressDfw:
    """Progress congruence for class m of the optimal leading congruence `lead`.
    `memo` holds a payload graph: `memo["payloads"]` lists each distinct
    payload once, by global id, `memo["ids"]` maps it back, and `memo[k]` lists
    each id's successor on the symbol of index k, -1 until first stepped.  A
    step reads only the payload, the letter, `a` and `lead`, so the progress
    DFWs of every class of `lead` may share one graph, each a breadth-first
    scan over global ids whose discovery order numbers the classes; without
    a memo, a fresh graph is used.  The DFW's rows and payloads are filled
    from the scan on first read.  Raises BudgetExceededError as
    `build_congruence_dfw` would."""
    memo = {} if memo is None else memo
    payloads, ids = memo.setdefault("payloads", []), memo.setdefault("ids", {})
    symbols = a.alphabet.symbols
    succ = [memo.setdefault(k, []) for k in range(len(symbols))]

    def node(st: OptProgressState) -> int:
        g = ids.setdefault(st, len(payloads))
        if g == len(payloads):
            payloads.append(st)
            for row in succ:
                row.append(-1)
        return g

    root = node(initial_progress_state(lead, m))
    order, seen = [root], {root}
    parent, via = array("i", [-1]), array("i", [-1])
    candidates, reentered = [(0, payloads[root])], False
    letters = list(enumerate(succ))
    # not build_congruence_dfw: its rows and payload column cost more than this
    # scan when no reader fills them (rnd1732n7's optimal build: 0.44 s with
    # it, 0.25 s with this loop, on a 2-vCPU VM).  The scan records the class
    # order and the parent and via columns as it goes, which the fill could
    # only recover by a second search.
    for c, g in enumerate(order):
        for k, row in letters:
            nxt = row[g]
            if nxt < 0:
                nxt = row[g] = node(progress_step(a, lead, payloads[g], symbols[k]))
            if nxt not in seen:
                if len(order) >= budget:
                    # the phase is formatted only here: for every leading class of
                    # a complement-sweep pass, both builders' phases took 2.2 ms
                    phase = f"optimal-progress[{' '.join(lead.witness(m))}]"
                    raise BudgetExceededError(len(order), budget, phase)
                seen.add(nxt)
                st = payloads[nxt]
                if st.lead == m:
                    candidates.append((len(order), st))
                order.append(nxt)
                parent.append(c)
                via.append(k)
            elif nxt == root:
                reentered = True
    return ScannedProgressDfw(a.alphabet, parent, via, candidates, reentered, (order, payloads, succ))
