"""Reference computations the tests compare the library against, each
written without sharing code with the construction it checks, plus
test-only helpers over the library: `ordered_reach`, `pretty`,
`epsilon_profile` and `image`.  `is_normalized`, `is_captured` and
`accepts_decomposition` are the per-decomposition semantics of a family.
`find_accepting_lasso_tarjan` shares the library's BFS and Tarjan routine
and differs from the library's lasso search only in when it runs them;
`lasso_membership_full` is the oracle that hands the whole word graph,
prefix positions included, to the library's lasso search or to
`find_accepting_lasso_tarjan`;
`product_verdict_tarjan` is the product verdict that runs Tarjan over
every pair.  `complement_fdfw_optimal_eager` is the optimal complement
builder that renumbers every progress DFW during the build,
`profile_congruence_packed` the pair-profile builder that steps packed
ints row by row, and `unpack_profile` reads its payloads as profiles."""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Iterator

from buchicong import (
    Fdfw,
    Lasso,
    MembershipVerdict,
    Nbw,
    Profile,
    UpWord,
    Word,
)
from buchicong.automata import Edges, _bits, _find_accepting_lasso, cyclic_components, explore, path_to
from buchicong.preorder import (
    PreorderedSubset,
    initial_preordered,
    initial_progress_state,
    optimal_leading_congruence,
    ordered_step,
    progress_step,
)
from buchicong.profiles import (
    DEFAULT_CLASS_BUDGET,
    CongruenceDfw,
    _row_compose,
    build_congruence_dfw,
    compose,
    letter_profile,
)


def step(a: Nbw, subset: frozenset[str], sym: str) -> frozenset[str]:
    """One-symbol successor of a state set, by state name."""
    return frozenset().union(*(a.successors(q, sym) for q in subset))


def reach(a: Nbw, word: Iterable[str]) -> frozenset[str]:
    """States reachable from the initial set along `word`, by state name."""
    cur = a.initial
    for sym in word:
        cur = step(a, cur, sym)
    return cur


def state_mask(a: Nbw, states: Iterable[str]) -> int:
    """Bitmask of a set of state names, bit i standing for state index i."""
    return sum(1 << a.index(q) for q in states)


def ordered_reach(a: Nbw, word: Word) -> PreorderedSubset:
    """The arrangement reached along `word`: ordered_step folded over it from
    the initial arrangement."""
    ps = initial_preordered(a)
    for sym in word:
        ps = ordered_step(a, ps, sym)
    return ps


def pretty(ps: PreorderedSubset, names: tuple[str, ...]) -> str:
    """The blocks by state name, weakest first, as in <{q0},{q1,q2}>."""
    parts = []
    for b in ps.blocks:
        inner = ",".join(names[i] for i in range(len(names)) if b >> i & 1)
        parts.append("{" + inner + "}")
    return "<" + ",".join(parts) + ">"


@dataclass(frozen=True)
class OrderedRunDag:
    """Levelled reduced run DAG over a finite word: one PreorderedSubset per
    prefix length plus, per level, the flags saying which blocks are made of
    accepting states.  Built by an explicit partition/keep-rightmost sweep,
    deliberately not sharing code with ordered_step, so the two can check
    each other."""

    levels: tuple[PreorderedSubset, ...]


def ordered_run_dag(a: Nbw, word: Word) -> OrderedRunDag:
    acc_ids = {a.index(q) for q in a.accepting}
    init = sorted(a.index(q) for q in a.initial)
    lvl_blocks: list[tuple[frozenset[int], ...]] = []
    first_na = frozenset(i for i in init if i not in acc_ids)
    first_a = frozenset(i for i in init if i in acc_ids)
    lvl_blocks.append(tuple(b for b in (first_na, first_a) if b))
    for sym in word:
        prev = lvl_blocks[-1]
        # raw successor blocks in preorder position: for block j (0-based),
        # non-accepting successors precede accepting successors of the same
        # block, and later blocks dominate earlier ones entirely
        raw: list[set[int]] = []
        for block in prev:
            succ: set[int] = set()
            for qi in block:
                q = a.states[qi]
                for r in a.successors(q, sym):
                    succ.add(a.index(r))
            raw.append(succ - acc_ids)
            raw.append(succ & acc_ids)
        # keep only the rightmost occurrence of every state
        claimed: set[int] = set()
        kept: list[frozenset[int]] = []
        for grp in reversed(raw):
            grp2 = frozenset(grp - claimed)
            claimed |= grp2
            kept.append(grp2)
        kept.reverse()
        lvl_blocks.append(tuple(b for b in kept if b))
    return OrderedRunDag(
        tuple(
            PreorderedSubset(tuple(sum(1 << qi for qi in b) for b in bs))
            for bs in lvl_blocks
        )
    )


def max_class_map_direct(
    a: Nbw, base: PreorderedSubset, word: Word
) -> dict[int, tuple[int, bool]]:
    """Reference computation of the back map and acceptance flags: one
    plain reach set and one acceptance-touched reach set per base block,
    pushed level by level without the incremental trick.  Used to
    cross-check progress_step in tests."""
    acc_ids = {a.index(q) for q in a.accepting}
    reach: list[set[int]] = [
        {qi for qi in range(len(a.states)) if b >> qi & 1} for b in base.blocks
    ]
    touched: list[set[int]] = [set() for _ in base.blocks]
    for sym in word:
        for bi in range(len(base.blocks)):
            nxt_r: set[int] = set()
            nxt_t: set[int] = set()
            for qi in reach[bi]:
                for r in a.successors(a.states[qi], sym):
                    ri = a.index(r)
                    nxt_r.add(ri)
                    if ri in acc_ids or qi in touched[bi]:
                        nxt_t.add(ri)
            reach[bi], touched[bi] = nxt_r, nxt_t
    out: dict[int, tuple[int, bool]] = {}
    for bi in range(len(base.blocks)):
        for qi in reach[bi]:
            if qi not in out or bi > out[qi][0]:
                out[qi] = (bi, qi in touched[bi])
    return out


def epsilon_profile(a: Nbw) -> Profile:
    """Profile of the empty word: the identity, flagged on accepting states."""
    diagonal = tuple(1 << i for i in range(len(a.states)))
    return Profile(diagonal, tuple(d & a.bitmasks()[1] for d in diagonal))


def image(p: Profile) -> int:
    """Mask of the states some run on the word ends in."""
    out = 0
    for r in p.reach:
        out |= r
    return out


def word_profile(a: Nbw, word: Word) -> Profile:
    """Pair profile of a word, composed one letter at a time from the empty
    word's.  The profile tests check it against run enumeration."""
    p = epsilon_profile(a)
    for sym in word:
        p = compose(p, letter_profile(a, sym))
    return p


def restrict(p: Profile, sources: int) -> Profile:
    """The profile with every row outside the source mask zeroed."""
    reach = tuple(r if sources >> i & 1 else 0 for i, r in enumerate(p.reach))
    reach_f = tuple(rf if sources >> i & 1 else 0 for i, rf in enumerate(p.reach_f))
    return Profile(reach, reach_f)


def profile_congruence_packed(
    a: Nbw, phase: str, sources: int, budget: int, memo: dict[str, dict] | None = None
) -> CongruenceDfw:
    """Right congruence refined by the pair profile's rows in the source mask
    `sources`; the other rows stay zero.  Payloads are packed profiles (see
    `unpack_profile`).  Only source rows are composed, and each row image
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


def unpack_profile(code: int, n: int) -> Profile:
    """The profile `profile_congruence_packed` over n states packs into
    `code`: row i is bits [2n*i, 2n*i + 2n), reach[i] low and reach_f[i]
    high."""
    mask = (1 << n) - 1
    return Profile(
        tuple(code >> 2 * n * i & mask for i in range(n)),
        tuple(code >> (2 * i + 1) * n & mask for i in range(n)),
    )


def periodic_membership_tarjan(p: Profile, sources: int) -> bool:
    """The folded periodic membership verdict by strongly connected
    components: some flagged pair (i, j) has i and j in one component of the
    pair graph over the sources.  `periodic_membership_from_profile` answers
    with a reachability closure instead and also checks its input; this
    checks nothing."""

    def bits(mask: int) -> list[int]:
        return [i for i in range(mask.bit_length()) if mask >> i & 1]

    visit = cyclic_components(lambda i: bits(p.reach[i]))
    for root in bits(sources):
        for nodes, _ in visit(root):
            members = sum(1 << i for i in nodes)
            if any(p.reach_f[i] & members for i in nodes):
                return True
    return False


def accepting_composition_closed(f: Fdfw, q: int) -> bool:
    """Whether concatenating members of any two accepting classes of q's
    progress DFW lands in an accepting class again, by running the DFW from
    every accepting class on every accepting class's witness: |acc|² runs,
    and False as soon as an accepting class has no witness."""
    prog = f.progress[q]
    acc = prog.accepting
    for w2 in map(prog.witness, acc):
        if w2 is None or not acc.issuperset(prog.run(w2, start=f1) for f1 in acc):
            return False
    return True


def is_normalized(f: Fdfw, prefix: Word, period: Word) -> bool:
    m = f.leading.run(prefix)
    return f.leading.run(period, start=m) == m


def is_captured(f: Fdfw, prefix: Word, period: Word) -> bool:
    return f.progress[f.leading.run(prefix)].accepts(period)


def accepts_decomposition(f: Fdfw, prefix: Word, period: Word) -> bool:
    if not period:
        raise ValueError("period must be non-empty")
    return is_normalized(f, prefix, period) and is_captured(f, prefix, period)


def find_accepting_lasso_tarjan(
    roots: Iterable[Hashable],
    successors: Callable[[Hashable], Edges],
    is_acc: Callable[[Hashable], int],
):
    """Search the graph reachable from `roots`, whose edges leave node x as
    successors(x) = [targets of letter 0, targets of letter 1, ...], for a
    cycle through a node satisfying is_acc; nodes are hashable keys.
    Returns the nodes and letter indices (stem_nodes, stem_letters,
    cycle_nodes, cycle_letters), or None.

    The answer is fixed by the BFS numbering of explore: roots first, then
    each new target in the order successors lists it.  The target is the
    first accepting node in that order that lies on a cycle, the stem is
    the BFS path to it, and the cycle is a shortest way back to it inside
    its component, trying letters in order and the targets of one letter in
    the order successors lists them.  The search stops at that lasso: the
    BFS runs only as far as the candidates need, and one resumable Tarjan
    search tests the candidates in order on its own keys, numbering nothing
    and expanding each node once over all candidates.

    This is the Tarjan-first search that `automata._find_accepting_lasso`
    replaced: every candidate is tested by a Tarjan run before its return
    search.  The tests check that both return the same lasso."""
    out: dict = {}  # node -> successors(node), for the nodes expanded so far

    def edges(x: Hashable) -> Edges:
        e = out.get(x)
        if e is None:
            e = out[x] = successors(x)
        return e

    keys, _, pred, via, steps = explore(roots, edges)
    visit = cyclic_components(lambda x: itertools.chain.from_iterable(edges(x)))
    cycles: dict = {}  # node -> the node set of its component, for nodes on a cycle
    i = 0
    while True:
        while i == len(keys):
            if next(steps, None) is None:
                return None
        target = keys[i]
        if is_acc(target):
            for nodes, cyclic in visit(target):
                if cyclic:
                    cycles.update(dict.fromkeys(nodes, set(nodes)))
            if target in cycles:
                break
        i += 1
    stem_nodes, stem_letters = path_to(pred, via, i)

    on = cycles[target]  # the return search runs inside the target's component
    back = {target: None}  # node -> (node, letter index) of the edge the return search reached it by
    queue = [target]
    for node in queue:  # the loop visits the nodes appended while it runs
        for k, targets in enumerate(edges(node)):
            if target in targets:
                cycle_nodes, cycle_letters = [node], [k]
                while node != target:
                    node, k = back[node]
                    cycle_nodes.append(node)
                    cycle_letters.append(k)
                return [keys[j] for j in stem_nodes], stem_letters, cycle_nodes[::-1], cycle_letters[::-1]
            for x in targets:
                if x in on and x not in back:
                    back[x] = node, k
                    queue.append(x)
    raise AssertionError("node in cyclic component must close a cycle")


def lasso_membership_full(a: Nbw, w: UpWord, search=_find_accepting_lasso) -> MembershipVerdict:
    """Ground-truth membership of the ultimately periodic word in L(a).

    Builds the product of the automaton with the lasso-shaped word graph
    (one position per letter of prefix and period, period positions cyclic)
    and hands it to `search`, a lasso search with the signature of
    `automata._find_accepting_lasso`, which it defaults to.  The product
    state (q, pos) is keyed pos * |a| + q over the state index q.

    This is the oracle that `automata.lasso_membership` replaced: the lasso
    search runs from the initial states over generic keys and numbers every
    prefix position, where the library walks the whole lasso as layers of
    states.  The tests check that both return the same verdict and witness."""
    word = w.prefix + w.period
    for sym in word:
        if sym not in a.alphabet:
            raise ValueError(f"symbol {sym!r} not in alphabet")
    n = len(a.states)
    rows, acc = a.adjacency()
    letters = [a.alphabet.symbols.index(sym) for sym in word]

    def successors(key: int) -> list[list[int]]:
        pos, q = divmod(key, n)
        base = (pos + 1 if pos + 1 < len(word) else len(w.prefix)) * n
        return [[base + r for r in rows[q][letters[pos]]]]

    roots = sorted(a.index(q) for q in a.initial)
    # keys below period_start are prefix positions, which lie on no cycle
    period_start = len(w.prefix) * n
    hit = search(roots, successors, lambda key: key >= period_start and acc[key % n])
    if hit is None:
        return MembershipVerdict(False, None)
    stem_nodes, _, cycle_nodes, _ = hit
    # each node reads one letter, the one at its position
    return MembershipVerdict(
        True,
        Lasso(
            tuple(a.states[key % n] for key in stem_nodes),
            tuple(word[key // n] for key in stem_nodes[:-1]),
            tuple(a.states[key % n] for key in cycle_nodes),
            tuple(word[key // n] for key in cycle_nodes),
        ),
    )


def product_verdict_tarjan(a: Nbw, b: Nbw) -> bool:
    """Whether intersect(a, b) is non-empty, decided by one Tarjan pass over
    every reachable pair of the pair graph, on the keys q * |a| + p: the
    product is non-empty exactly when some cyclic component holds a pair
    with p accepting in a and a pair with q accepting in b.  The pass stops
    at the first such component.

    This is the verdict that `automata._product_lasso` ran before it handed
    Tarjan only the pairs whose q lies in a live component of b.  The tests
    check that both give the same verdict."""
    (rows_a, acc_a), (rows_b, acc_b) = a.adjacency(), b.adjacency()
    na = len(a.states)
    # the successors q' of b as q' * |a|
    rows_b = [tuple([tuple([na * qq for qq in t]) for t in row]) for row in rows_b]

    def letters(pair: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
        """Per symbol, the successors of the pair's two states."""
        q, p = divmod(pair, na)
        return zip(rows_a[p], rows_b[q])

    roots = [
        b.index(q) * na + a.index(p)
        for p in a.sort_states(a.initial)
        for q in b.sort_states(b.initial)
    ]
    visit = cyclic_components(lambda pair: [pa + qb for ta, tb in letters(pair) for pa in ta for qb in tb])
    return any(
        cyclic
        and any(acc_a[pair % na] for pair in nodes)
        and any(acc_b[pair // na] for pair in nodes)
        for root in roots
        for nodes, cyclic in visit(root)
    )


def complement_fdfw_optimal_eager(a: Nbw, budget: int = DEFAULT_CLASS_BUDGET) -> Fdfw:
    """The optimal complement family, every progress DFW built whole during
    the build.  Per leading class m, `build_congruence_dfw` explores the
    progress congruence over one payload graph shared by the build (global
    payload ids, one successor list per letter, -1 until first stepped) and
    the classes are renumbered in discovery order.  The return map fills
    back[p], the leading class u v reaches for u in m and v in class p, in
    one pass over `parent` and `via`; a class with back[p] == m accepts when
    `accepts_period` rejects, except class 0 when no row enters it.

    This is the builder that `fdfw.complement_fdfw_optimal` replaced with a
    scan whose DFWs are filled on first read.  The tests check that both give
    the same families and the same budget errors."""
    lead = optimal_leading_congruence(a, budget)
    symbols = a.alphabet.symbols
    lead_rows = [lead.rows[sym] for sym in symbols]
    payloads: list = []
    ids: dict = {}
    succ: dict[str, list[int]] = {sym: [] for sym in symbols}

    def node(st) -> int:
        g = ids.setdefault(st, len(payloads))
        if g == len(payloads):
            payloads.append(st)
            for row in succ.values():
                row.append(-1)
        return g

    def step(g: int, sym: str) -> int:
        row = succ[sym]
        nxt = row[g]
        if nxt < 0:
            nxt = row[g] = node(progress_step(a, lead, payloads[g], sym))
        return nxt

    progress = {}
    for m in range(len(lead)):
        dfw = build_congruence_dfw(
            f"optimal-progress[{' '.join(lead.witness(m))}]",
            a.alphabet,
            node(initial_progress_state(lead, m)),
            step,
            budget,
        )
        prog = dataclasses.replace(dfw, payloads=tuple(payloads[g] for g in dfw.payloads))
        back = [m]
        for parent, k in zip(prog.parent[1:], prog.via[1:]):
            back.append(lead_rows[k][back[parent]])
        entered = any(0 in row for row in prog.rows.values())
        base = lead.payloads[m].blocks
        progress[m] = prog.with_accepting(
            frozenset(
                p
                for p, b in enumerate(back)
                if b == m and (p or entered) and not prog.payloads[p].accepts_period(base)
            )
        )
    return Fdfw(a.alphabet, lead, progress, saturated=True)
