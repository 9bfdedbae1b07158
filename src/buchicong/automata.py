"""Büchi automata on infinite words: data model, text formats, run semantics,
and the lasso-product membership oracle that everything else is checked against.

Words are tuples of symbol tokens.  Ultimately periodic words are kept as an
explicit (prefix, period) decomposition; the same infinite word has many such
decompositions and every operation here is invariant under redecomposition.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Container, Hashable, Iterable, Iterator, Mapping, Sequence

Word = tuple[str, ...]

_RESERVED_TOKENS = {"->"}


class ParseError(ValueError):
    """Malformed automaton text.  Carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class AlphabetMismatchError(ValueError):
    """Binary operation applied to automata over different alphabets."""


def _check_token(tok: str, kind: str, line: int | None = None) -> str:
    # every text format reads `#` as the start of a comment
    if not tok or len(tok.split()) != 1 or "#" in tok or tok in _RESERVED_TOKENS:
        raise ParseError(f"invalid {kind} token {tok!r}", line)
    return tok


@dataclass(frozen=True)
class Alphabet:
    """Ordered, duplicate-free symbol list.  The declared order is the tie-break
    order used for canonical witnesses and deterministic iteration everywhere."""

    symbols: tuple[str, ...]

    def __post_init__(self):
        if not self.symbols:
            raise ValueError("alphabet must be non-empty")
        for a in self.symbols:
            _check_token(a, "symbol")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("duplicate alphabet symbols")

    def __iter__(self) -> Iterator[str]:
        return iter(self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def __contains__(self, a: object) -> bool:
        return a in self.symbols


@dataclass(frozen=True)
class UpWord:
    """Ultimately periodic word prefix . period^omega, period non-empty."""

    prefix: Word
    period: Word

    def __post_init__(self):
        if not self.period:
            raise ValueError("period must be non-empty")

    def canonical(self) -> "UpWord":
        """Shortest-prefix, primitive-period representation of the same word.

        The period is reduced to its primitive root, then the prefix is rolled
        back while its last letter matches the period's last letter.  Every
        decomposition of the infinite word then starts at or after this prefix
        and uses a power of a rotation of this period.
        """
        v = self.period
        d = len(v)
        for k in range(1, len(v)):
            if len(v) % k == 0 and v == v[:k] * (len(v) // k):
                d = k
                break
        v = v[:d]
        u = self.prefix
        while u and u[-1] == v[-1]:
            u = u[:-1]
            v = v[-1:] + v[:-1]
        return UpWord(u, v)

    def __str__(self) -> str:
        return f"({' '.join(self.prefix)}, {' '.join(self.period)})"


@dataclass(frozen=True)
class Lasso:
    """Concrete accepting run shape: a stem followed by a cycle that revisits
    its first state.  cycle_states[0] is re-entered after the last cycle letter."""

    stem_states: tuple[str, ...]
    stem_letters: Word
    cycle_states: tuple[str, ...]
    cycle_letters: Word

    def word(self) -> UpWord:
        return UpWord(self.stem_letters, self.cycle_letters)


@dataclass(frozen=True)
class MembershipVerdict:
    accepted: bool
    witness: Lasso | None


@dataclass(frozen=True)
class Nbw:
    """Nondeterministic Büchi automaton.  Missing (state, symbol) entries in
    `transitions` mean the empty successor set.  State identity is the string
    id; `states` fixes the canonical iteration order.  Two integer views are
    compiled separately, each on first use: adjacency(), read by the graph
    searches, and bitmasks(), read by the bit-parallel set algorithms."""

    alphabet: Alphabet
    states: tuple[str, ...]
    initial: frozenset[str]
    transitions: Mapping[tuple[str, str], frozenset[str]]
    accepting: frozenset[str]
    _order: dict = field(init=False, repr=False, compare=False, default=None)
    _masks: tuple = field(init=False, repr=False, compare=False, default=None)
    _adjacency: tuple = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        if len(set(self.states)) != len(self.states):
            raise ValueError("duplicate state ids")
        for q in self.states:
            _check_token(q, "state")
        known = set(self.states)
        if not self.initial <= known:
            raise ValueError("initial states not declared")
        if not self.accepting <= known:
            raise ValueError("accepting states not declared")
        for (q, a), targets in self.transitions.items():
            if q not in known or not targets <= known:
                raise ValueError(f"transition on undeclared state: {(q, a)}")
            if a not in self.alphabet:
                raise ValueError(f"transition on undeclared symbol: {(q, a)}")
        object.__setattr__(self, "_order", {q: i for i, q in enumerate(self.states)})

    def index(self, q: str) -> int:
        return self._order[q]

    def sort_states(self, qs: Iterable[str]) -> tuple[str, ...]:
        return tuple(sorted(qs, key=self._order.__getitem__))

    def successors(self, q: str, a: str) -> frozenset[str]:
        return self.transitions.get((q, a), frozenset())

    def bitmasks(self) -> tuple[dict[str, tuple[int, ...]], int]:
        """(symbol -> successor mask of each state index, accepting mask),
        with bit i standing for the state of index i; compiled on first use."""
        if self._masks is None:
            order = self._order
            succ = {
                sym: tuple(sum(1 << order[r] for r in self.successors(q, sym)) for q in self.states)
                for sym in self.alphabet
            }
            acc = sum(1 << order[q] for q in self.accepting)
            object.__setattr__(self, "_masks", (succ, acc))
        return self._masks

    def adjacency(self) -> tuple[tuple[tuple[tuple[int, ...], ...], ...], bytes]:
        """(rows, acc): rows[i][k] the ascending indices of the successors of
        the state of index i under letter k, acc[i] 1 if that state accepts
        and 0 if not; compiled on first use."""
        if self._adjacency is None:
            order = self._order
            rows = tuple(
                tuple(tuple(sorted([order[r] for r in self.successors(q, sym)])) for sym in self.alphabet)
                for q in self.states
            )
            acc = bytes(q in self.accepting for q in self.states)
            object.__setattr__(self, "_adjacency", (rows, acc))
        return self._adjacency

    def is_deterministic(self) -> bool:
        return len(self.initial) <= 1 and all(
            len(v) <= 1 for v in self.transitions.values()
        )

    def is_complete(self) -> bool:
        return len(self.initial) >= 1 and all(
            self.successors(q, a) for q in self.states for a in self.alphabet
        )


Edges = Sequence[Sequence[Hashable]]


def explore(
    roots: Iterable[Hashable], successors: Callable[[Hashable], Edges]
) -> tuple[list, dict, list[int], list[int], Iterator[Edges]]:
    """Breadth-first search from `roots` of the graph whose edges leave node
    x as successors(x) = [targets of letter 0, targets of letter 1, ...];
    nodes are hashable keys.  The search numbers the nodes in discovery
    order: the roots first, then each target seen for the first time, in
    the order successors lists it, so the node numbered i is the i-th one
    expanded.  Returns (keys, ids, pred, via, steps): keys[i] is the node
    numbered i and ids[x] the number of node x; steps expands one node per
    step and yields its edges, so a caller that needs less than the whole
    graph stops or pauses it; keys, ids, pred and via grow as steps runs,
    pred and via holding the number and letter index of the edge that
    discovered each node (-1 for a root)."""
    keys = list(dict.fromkeys(roots))
    ids = {x: i for i, x in enumerate(keys)}
    pred = [-1] * len(keys)
    via = [-1] * len(keys)

    def steps() -> Iterator[Edges]:
        for i, x in enumerate(keys):  # the loop visits the nodes appended while it runs
            edges = successors(x)
            for k, targets in enumerate(edges):
                for y in targets:
                    if y not in ids:
                        ids[y] = len(keys)
                        keys.append(y)
                        pred.append(i)
                        via.append(k)
            yield edges

    return keys, ids, pred, via, steps()


def path_to(pred: list[int], via: list[int], node: int) -> tuple[list[int], list[int]]:
    """(nodes, letters) of the path that `pred` and `via`, as returned by
    explore, record from a root to `node`."""
    nodes = [node]
    letters: list[int] = []
    while pred[node] >= 0:
        letters.append(via[node])
        node = pred[node]
        nodes.append(node)
    nodes.reverse()
    letters.reverse()
    return nodes, letters


def _find_accepting_lasso(
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
    BFS runs only as far as the candidates need.

    A candidate that no Tarjan run has reached is tested first by its own
    return search, which skips the nodes finished runs reached: none of
    them leads back to it.  No node outside its component leads back into
    it either, so a search that returns finds the cycle above.  Only a
    search that fails starts the resumable Tarjan run from the candidate,
    which settles every node it reaches, so no later return search enters
    them and successors is called once per node over all candidates.  This
    is the early cycle detection of on-the-fly emptiness checks (Schwoon
    and Esparza, "A Note on On-the-Fly Verification Algorithms", TACAS
    2005).  It is the search behind is_empty and the witness pass of
    _product_lasso; lasso_membership finds the same lasso on the word graph
    by a layered walk of its own."""
    out: dict = {}  # node -> successors(node), for the nodes expanded so far

    def edges(x: Hashable) -> Edges:
        e = out.get(x)
        if e is None:
            e = out[x] = successors(x)
        return e

    def way_back(target: Hashable, on) -> tuple[list, list[int]] | None:
        """(cycle_nodes, cycle_letters) of a shortest way back to target
        through the nodes x with done.get(x) is on, or None."""
        back = {target: None}  # node -> (node, letter index) of the edge the search reached it by
        queue = [target]
        for node in queue:  # the loop visits the nodes appended while it runs
            for k, targets in enumerate(edges(node)):
                if target in targets:
                    cycle_nodes, cycle_letters = [node], [k]
                    while node != target:
                        node, k = back[node]
                        cycle_nodes.append(node)
                        cycle_letters.append(k)
                    return cycle_nodes[::-1], cycle_letters[::-1]
                for x in targets:
                    if x not in back and done.get(x) is on:
                        back[x] = node, k
                        queue.append(x)
        return None

    keys, _, pred, via, steps = explore(roots, edges)
    visit = cyclic_components(lambda x: itertools.chain.from_iterable(edges(x)))
    done: dict = {}  # node -> its component's node set if cyclic, else (), once a Tarjan run has finished it
    i = 0
    while True:
        while i == len(keys):
            if next(steps, None) is None:
                return None
        target = keys[i]
        if is_acc(target):
            on = done.get(target)  # None while no Tarjan run has reached the target
            if on != ():
                cycle = way_back(target, on)
                if cycle is not None:
                    break
                if on is not None:
                    raise AssertionError("node in cyclic component must close a cycle")
                for nodes, cyclic in visit(target):
                    done.update(dict.fromkeys(nodes, set(nodes) if cyclic else ()))
                continue  # the target again, now settled: a cyclic one searches its component
        i += 1
    stem_nodes, stem_letters = path_to(pred, via, i)
    return [keys[j] for j in stem_nodes], stem_letters, *cycle


def cyclic_components(
    successors: Callable[[Hashable], Iterable[Hashable]],
) -> Callable[[Hashable], Iterator[tuple[list, bool]]]:
    """Tarjan's strongly connected components of the graph whose edges
    leave node x to the nodes of successors(x), found on the fly; nodes
    are hashable keys.  Returns
    visit(root): a generator that runs Tarjan's search from root, unless an
    earlier run has reached root, and yields (nodes, cyclic) for each
    component as it completes, root's own last; cyclic means more than one
    node or a self-loop.  Runs share what they have found, so visiting any
    number of roots expands each node once.  A caller may stop reading a
    run once it has its answer, but then must not start another."""
    index: dict = {}  # node -> Tarjan index, _DONE once its component is out
    low: list[int] = []  # per Tarjan index
    stack: list = []
    loops: set = set()

    def visit(root) -> Iterator[tuple[list, bool]]:
        if root in index:
            return
        index[root] = i = len(low)
        low.append(i)
        work = [(root, i, len(stack), iter(successors(root)))]
        stack.append(root)
        while work:
            node, i, at, edges = work[-1]
            lo = low[i]
            for nxt in edges:
                x = index.get(nxt)
                if x is None:
                    low[i] = lo
                    index[nxt] = x = len(low)
                    low.append(x)
                    work.append((nxt, x, len(stack), iter(successors(nxt))))
                    stack.append(nxt)
                    break
                if x < lo:
                    lo = x
                elif x == i:
                    loops.add(node)
            else:
                work.pop()
                if lo == i:
                    nodes = stack[at:]
                    del stack[at:]
                    for x in nodes:
                        index[x] = _DONE
                    yield nodes, len(nodes) > 1 or node in loops
                else:
                    parent = work[-1][1]
                    if lo < low[parent]:
                        low[parent] = lo

    return visit


_DONE = 1 << 62  # above every Tarjan index, so a finished node lowers no low-link


def lasso_membership(a: Nbw, w: UpWord) -> MembershipVerdict:
    """Ground-truth membership of the ultimately periodic word in L(a).

    Searches the product of the automaton with the lasso-shaped word graph
    (one position per letter of prefix and period, period positions cyclic)
    for a reachable cycle through an accepting state.  The answer is the
    lasso _find_accepting_lasso would find from the initial states: the
    first accepting node in BFS order that lies on a cycle, the BFS stem to
    it and the BFS shortest way back to it.

    In this graph every node has one edge list, so the BFS layer at depth
    d holds the states first reached at position d, wrapped into the
    period, and the search is one layered walk over the whole lasso: a
    layer is built from the one before in BFS order, skipping the states an
    earlier layer held at the same position, and each state keeps the
    state that reached it first.  No prefix position lies on a cycle, so
    the walk tests the accepting states of each period layer, in order, and
    stops at the first that closes a cycle.  A candidate's return search is
    a layered walk of its own, which skips the nodes a Tarjan run settled:
    none of them leads back to an unsettled candidate.  Only when it fails
    does cyclic_components run from the candidate, to settle every node it
    reaches; later candidates a run settled on no cycle are skipped.  The
    way back found is the one a return search confined to the candidate's
    component finds: a node outside that component cannot lead back into
    it, so it is never the parent of a node inside, and the nodes inside
    are reached in the same order either way.
    """
    index = {sym: k for k, sym in enumerate(a.alphabet.symbols)}
    word = w.prefix + w.period
    try:
        letters = [index[sym] for sym in word]
    except KeyError as e:
        raise ValueError(f"symbol {e.args[0]!r} not in alphabet") from None
    n, start, m = len(a.states), len(w.prefix), len(w.period)
    rows, acc = a.adjacency()
    after = [*range(1, len(word)), start]  # the position after each
    # per position: the states a Tarjan run settled, and those of them on a cycle
    settled, looped = [0] * len(word), [0] * len(word)
    visit = None

    # the return search is a layered walk too, not a generic search over
    # keys: sharing _find_accepting_lasso's return search took the 3,000
    # oracle calls of a member-queries pass (seed 1729) from 0.059-0.066 s
    # to 0.079-0.092 s over ten interleaved rounds
    def way_back(t0: int, q0: int, blocked: list[int]) -> list[int] | None:
        """The states of a shortest way from q0 at position t0 back to it,
        through no state blocked at its position; None if there is none."""
        seen = blocked[:]
        seen[t0] |= 1 << q0
        layer: Iterable[int] = (q0,)
        backs = []  # per step: each state of the next layer -> the state that reached it first
        t = t0
        while layer:
            k, t = letters[t], after[t]
            s = seen[t]
            back: dict[int, int] = {}
            for q in layer:
                targets = rows[q][k]
                if t == t0 and q0 in targets:
                    return _path(backs, q)
                for r in targets:
                    if not s >> r & 1:
                        s |= 1 << r
                        back[r] = q
            seen[t] = s
            backs.append(back)
            layer = back
        return None

    def closes(t: int, q: int) -> list[int] | None:
        """The way back to the candidate q at position t, or None when it
        lies on no cycle."""
        nonlocal visit
        if settled[t] >> q & 1:
            # a candidate a run settled on a cycle searches outside the settled acyclic nodes
            return way_back(t, q, [s ^ c for s, c in zip(settled, looped)]) if looped[t] >> q & 1 else None
        cycle = way_back(t, q, settled)
        if cycle is None:
            if visit is None:
                visit = cyclic_components(
                    lambda key: [after[key // n] * n + r for r in rows[key % n][letters[key // n]]]
                )
            for nodes, cyclic in visit(t * n + q):
                for key in nodes:
                    settled[key // n] |= 1 << key % n
                    if cyclic:
                        looped[key // n] |= 1 << key % n
        return cycle

    layer: Iterable[int] = sorted(a.index(q) for q in a.initial)
    seen = [0] * len(word)  # per position: the states a layer has held there
    seen[0] = sum(1 << q for q in layer)
    ups = []  # per step: each state of the next layer, in discovery order -> the state that reached it first
    t = 0
    while layer:
        k, nt = letters[t], after[t]
        s = seen[nt]
        up = {}
        for q in layer:
            if acc[q] and t >= start:  # no prefix position lies on a cycle
                cycle = closes(t, q)
                if cycle is not None:
                    # each state reads the letter at its position
                    return MembershipVerdict(
                        True,
                        Lasso(
                            tuple(a.states[r] for r in _path(ups, q)),
                            w.prefix + tuple(w.period[d % m] for d in range(len(ups) - start)),
                            tuple(a.states[r] for r in cycle),
                            tuple(w.period[(t - start + d) % m] for d in range(len(cycle))),
                        ),
                    )
            for r in rows[q][k]:
                if not s >> r & 1:
                    s |= 1 << r
                    up[r] = q
        seen[nt] = s
        ups.append(up)
        layer = up
        t = nt
    return MembershipVerdict(False, None)


def _path(ups: list[dict[int, int]], q: int) -> list[int]:
    """The states, first layer first, of the path to q that the parents
    `ups` of a layered walk record, ups[i] those of layer i + 1."""
    path = [q]
    for up in reversed(ups):
        q = up[q]
        path.append(q)
    return path[::-1]


def is_empty(a: Nbw) -> tuple[bool, Lasso | None]:
    """Language emptiness; returns (empty, witness lasso when non-empty)."""
    syms = a.alphabet.symbols
    rows, acc = a.adjacency()
    hit = _find_accepting_lasso(sorted(a.index(q) for q in a.initial), rows.__getitem__, acc.__getitem__)
    if hit is None:
        return True, None
    stem_nodes, stem_letters, cycle_nodes, cycle_letters = hit
    return False, Lasso(
        tuple(a.states[q] for q in stem_nodes),
        tuple(syms[k] for k in stem_letters),
        tuple(a.states[q] for q in cycle_nodes),
        tuple(syms[k] for k in cycle_letters),
    )


def intersect(a: Nbw, b: Nbw) -> Nbw:
    """Büchi intersection via the usual two-copy counter; only the reachable
    part is kept, so the result has at most 2|a||b| states.  The search runs
    on triples (p, q, c) of state indices and the counter, and names each
    reached state once, as (p,q,c) over the state names."""
    if a.alphabet != b.alphabet:
        raise AlphabetMismatchError("intersection needs a shared alphabet")
    syms = a.alphabet.symbols
    (rows_a, acc_a), (rows_b, acc_b) = a.adjacency(), b.adjacency()

    def successors(node: tuple[int, int, int]) -> list[list[tuple[int, int, int]]]:
        p, q, c = node
        # the counter turns to 1 on leaving an accepting state of a, back to 0
        # on leaving an accepting state of b
        nc = acc_a[p] if c == 0 else 1 - acc_b[q]
        return [[(pp, qq, nc) for pp in ta for qq in tb] for ta, tb in zip(rows_a[p], rows_b[q])]

    roots = [(a.index(p), b.index(q), 0) for p in a.sort_states(a.initial) for q in b.sort_states(b.initial)]
    keys, ids, _, _, steps = explore(roots, successors)
    edges = list(steps)
    if not keys:
        return Nbw(a.alphabet, ("(dead)",), frozenset(), {}, frozenset())
    names = [f"({a.states[p]},{b.states[q]},{c})" for p, q, c in keys]
    trans = {
        (names[i], sym): frozenset([names[ids[y]] for y in targets])
        for i, out in enumerate(edges)
        for sym, targets in zip(syms, out)
        if targets
    }
    accepting = frozenset(names[i] for i, (_, q, c) in enumerate(keys) if c and acc_b[q])
    return Nbw(a.alphabet, tuple(names), frozenset(names[: len(roots)]), trans, accepting)


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _image(rows: Sequence[int], mask: int) -> int:
    """The union of rows[i] over the set bits i of `mask`."""
    out = 0
    while mask:
        low = mask & -mask
        out |= rows[low.bit_length() - 1]
        mask ^= low
    return out


def _product_lasso(a: Nbw, b: Nbw) -> UpWord | None:
    """The word of an accepting lasso of intersect(a, b), or None when that
    product is empty; a and b must share their alphabet.  Both
    passes run on integer keys over the state indices p of a and q of b
    and build no product automaton.

    The verdict: the product is non-empty exactly when some reachable cyclic
    component of the pair graph, on the keys q * |a| + p, holds a pair with
    p accepting in a and a pair with q accepting in b.  A cycle of pairs
    projects to a cycle of b, so each pair component lies inside one
    component of b, and an accepting one inside a live component: a cyclic
    one that holds an accepting state of b.  One Tarjan pass over b alone
    finds them.  Then one forward search reaches every pair.  A pair whose
    q lies in no live component is only searched; any other starts a
    Tarjan run, unless an earlier run reached it, that follows only the
    edges staying inside q's component and hands the edges of its pairs
    that leave it back to the forward search.  So each pair is expanded
    once, Tarjan sees only the pairs of live components, the verdict stops
    at the first accepting pair component, and a product found empty
    stores no edges.  This is the decomposition of the product by the
    components of the property automaton (Renault, Duret-Lutz, Kordon and
    Poitrenaud, TACAS 2013).

    The witness: a non-empty product is searched again with intersect's
    two-copy counter c, keyed c * |a||b| + q * |a| + p, since a node of an
    accepting pair component need not lie on a cycle of the counter graph.
    Listing each symbol's targets in (p, q) index order makes the search
    number the nodes as intersect does, so the target, the stem and the
    cycle length are those of is_empty(intersect(a, b)); only the cycle's
    letters can differ, at a tie within a letter.  Both passes read the
    adjacency() rows of a and b, the latter scaled by |a| once per pass."""
    (rows_a, acc_a), (rows_b, acc_b) = a.adjacency(), b.adjacency()
    na, nb = len(a.states), len(b.states)
    syms = a.alphabet.symbols
    # live[q]: the number of q's component of b if that component is live, else -1
    live = [-1] * nb
    visit = cyclic_components(lambda q: itertools.chain.from_iterable(rows_b[q]))
    for number, (nodes, cyclic) in enumerate(comp for q in range(nb) for comp in visit(q)):
        if cyclic and any(acc_b[q] for q in nodes):
            for q in nodes:
                live[q] = number

    def split(q: int, stay: bool) -> tuple[tuple[int, ...], ...]:
        """Per symbol, the successors r of q as r * |a|: those in q's live
        component if stay, else the others.  Tuples, which the collector
        stops tracking, so that the rows do not slow its later passes."""
        return tuple([tuple([na * r for r in t if (live[r] == live[q] >= 0) == stay]) for t in rows_b[q]])

    inner = [split(q, True) for q in range(nb)]
    outer = [split(q, False) for q in range(nb)]
    # whether q has an edge out of its live component; most states of live
    # components have none, and listing their empty rows cost a third of the gain
    leaves = [any(row) for row in outer]

    roots = [
        b.index(q) * na + a.index(p)
        for p in a.sort_states(a.initial)
        for q in b.sort_states(b.initial)
    ]
    # the forward search is a loop of its own: explore, which can take a
    # Tarjan run's leaving edges only once the run is over, took the 40
    # holding searches of contains-product (seed 1729) from 0.18 s to 0.24 s
    # on a 2-vCPU VM
    queue = list(dict.fromkeys(roots))
    seen = set(queue)  # the pairs queued or expanded by a Tarjan run

    def inside(pair: int) -> list[int]:
        """Tarjan's successors of a pair in a live component: its targets in
        that component.  Its other targets go to the forward search."""
        seen.add(pair)  # so that no leaving edge queues it again
        q, p = divmod(pair, na)
        row = rows_a[p]
        if leaves[q]:
            for y in [pa + qb for ta, tb in zip(row, outer[q]) for pa in ta for qb in tb]:
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        return [pa + qb for ta, tb in zip(row, inner[q]) for pa in ta for qb in tb]

    runs = cyclic_components(inside)
    for pair in queue:  # the loop visits the pairs appended while it runs
        q, p = divmod(pair, na)
        if live[q] < 0:  # inside's loop written out: calling inside here measured slower
            for y in [pa + qb for ta, tb in zip(rows_a[p], outer[q]) for pa in ta for qb in tb]:
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        elif any(
            cyclic and any(acc_a[x % na] for x in nodes) and any(acc_b[x // na] for x in nodes)
            for nodes, cyclic in runs(pair)
        ):
            break
    else:
        return None

    # the witness pass reads the successors r of b as r * |a|, tuples like inner and outer
    rows_b = [tuple([tuple([na * r for r in t]) for t in row]) for row in rows_b]
    count = na * nb

    def successors(key: int) -> tuple[tuple[int, ...], ...]:
        c, pair = divmod(key, count)
        q, p = divmod(pair, na)
        if c:
            base = 0 if acc_b[q] else count
        else:
            base = count if acc_a[p] else 0
        # tuples, like the rows: the search keeps every node's edges
        return tuple([tuple([base + pa + qb for pa in ta for qb in tb]) for ta, tb in zip(rows_a[p], rows_b[q])])

    hit = _find_accepting_lasso(
        roots, successors, lambda key: key >= count and acc_b[(key - count) // na]
    )
    if hit is None:
        raise AssertionError("the verdict found the product non-empty, but the witness search found no lasso")
    return UpWord(tuple(syms[k] for k in hit[1]), tuple(syms[k] for k in hit[3]))


def _simulation_reduce(c: Nbw) -> Nbw:
    """An automaton with the language of c, reduced by direct simulation
    (Etessami, Wilke and Schuller, SIAM J. Comput. 2005): r simulates q
    when r is accepting if q is and, for every letter, each successor of q
    is simulated by some successor of r.  States that simulate each other
    merge into the one of least index; a successor, or an initial state,
    that a sibling simulates strictly is dropped; only reachable states
    stay, with their names and order from c.

    sim[q], the mask of the states that simulate q, starts from the
    acceptance condition and shrinks to the greatest fixpoint on a
    worklist: when sim[r] shrinks, its pre-image under each letter is taken
    once and cut into sim[q] for each predecessor q of r."""
    rows, acc = c.adjacency()
    n = len(c.states)
    # per letter, per state r: the mask of the states with r as a successor
    preds = [[0] * n for _ in c.alphabet]
    for q, row in enumerate(rows):
        for pred, targets in zip(preds, row):
            for r in targets:
                pred[r] |= 1 << q
    full = (1 << n) - 1
    accepting = sum(1 << q for q in range(n) if acc[q])
    sim = [accepting if acc[q] else full for q in range(n)]
    images: dict = {}  # (letter index, mask) -> the pre-image of the mask
    work = dict.fromkeys(range(n))  # a stack that holds each state once
    while work:
        r, _ = work.popitem()
        s = sim[r]
        for k, pred in enumerate(preds):
            if not pred[r]:
                continue
            image = images.get((k, s))
            if image is None:
                image = images[k, s] = _image(pred, s)
            for q in _bits(pred[r]):
                if sim[q] & ~image:
                    sim[q] &= image
                    work[q] = None
    # rep[q]: the least state that simulates q and that q simulates
    rep = [next(r for r in _bits(s) if sim[r] >> q & 1) for q, s in enumerate(sim)]

    def maximal(states: Iterable[int]) -> list[int]:
        """The classes of `states` that no other class among them simulates."""
        m = 0
        for q in states:
            m |= 1 << rep[q]
        return [t for t in _bits(m) if sim[t] & m == 1 << t]

    initial = maximal(c.index(q) for q in c.initial)
    keys, _, _, _, steps = explore(initial, lambda q: [maximal(targets) for targets in rows[q]])
    names = c.states
    trans = {
        (names[q], sym): frozenset(names[t] for t in targets)
        for q, edges in zip(keys, list(steps))
        for sym, targets in zip(c.alphabet.symbols, edges)
        if targets
    }
    kept = sorted(keys)
    return Nbw(
        c.alphabet,
        tuple(names[q] for q in kept),
        frozenset(names[q] for q in initial),
        trans,
        frozenset(names[q] for q in kept if acc[q]),
    )


def _words_upto(alphabet: Alphabet, lo: int, hi: int) -> Iterator[Word]:
    for length in range(lo, hi + 1):
        yield from itertools.product(alphabet.symbols, repeat=length)


def enumerate_upwords(alphabet: Alphabet, max_u: int, max_v: int) -> Iterator[UpWord]:
    """All (prefix, period) pairs with |prefix| <= max_u, 1 <= |period| <= max_v,
    ordered by (|u|, u, |v|, v) in alphabet order.  Pairs are distinct even when
    they denote the same infinite word; callers needing word identity can key by
    UpWord.canonical()."""
    if max_u < 0:
        raise ValueError("max_u must be at least 0")
    if max_v < 1:
        raise ValueError("max_v must be at least 1")
    for u in _words_upto(alphabet, 0, max_u):
        for v in _words_upto(alphabet, 1, max_v):
            yield UpWord(u, v)


def canonical_upwords(alphabet: Alphabet, max_u: int, max_v: int) -> list[UpWord]:
    """The distinct words of enumerate_upwords, canonical, in first-occurrence order."""
    return list(dict.fromkeys(w.canonical() for w in enumerate_upwords(alphabet, max_u, max_v)))


def parse_word(alphabet: Alphabet, text: str) -> Word:
    """Word from CLI text: whitespace-separated tokens, or one symbol per
    character when the alphabet is single-character.  Empty text is epsilon."""
    text = text.strip()
    if not text:
        return ()
    parts = text.split()
    if len(parts) == 1 and parts[0] not in alphabet:
        if all(len(a) == 1 for a in alphabet):
            parts = list(parts[0])
    for p in parts:
        if p not in alphabet:
            raise ValueError(f"symbol {p!r} not in alphabet")
    return tuple(parts)


# --- text formats ---------------------------------------------------------


def serialize_nbw(a: Nbw) -> str:
    lines = [
        "nbw",
        "alphabet: " + " ".join(a.alphabet.symbols),
        "states: " + " ".join(a.states),
        "initial: " + " ".join(a.sort_states(a.initial)),
        "accepting: " + " ".join(a.sort_states(a.accepting)),
    ]
    for q in a.states:
        for sym in a.alphabet:
            targets = a.successors(q, sym)
            if targets:
                lines.append(f"trans: {q} {sym} -> " + " ".join(a.sort_states(targets)))
    return "\n".join(lines) + "\n"


def _meaningful_lines(text: str) -> Iterator[tuple[int, str]]:
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield no, line


def _read_fields(
    lines: Iterable[tuple[int, str]], once: Iterable[str], repeated: Iterable[str]
) -> tuple[dict[str, tuple[int, str]], dict[str, list[tuple[int, str]]]]:
    """Split `key: value` header lines.  Returns (key -> (line number, value))
    for the keys of `once` that appear and (key -> [(line number, value), ...]
    in line order) for every key of `repeated`; values are stripped.  A second
    line for a key of `once`, or a line with any other key, is a ParseError
    at that line."""
    fields: dict[str, tuple[int, str]] = {}
    repeats: dict[str, list[tuple[int, str]]] = {key: [] for key in repeated}
    for no, line in lines:
        key, colon, value = line.partition(":")
        if colon and key in repeats:
            repeats[key].append((no, value.strip()))
        elif colon and key in once:
            if key in fields:
                raise ParseError(f"duplicate {key} line", no)
            fields[key] = (no, value.strip())
        else:
            raise ParseError(f"unrecognized line {line!r}", no)
    return fields, repeats


def _read_alphabet(no: int, value: str) -> Alphabet:
    """The alphabet declared by the header value at line `no`."""
    try:
        return Alphabet(tuple(value.split()))
    except ValueError as e:
        raise ParseError(str(e), no) from None


def _read_trans(
    no: int, value: str, states: Container[str], alphabet: Alphabet
) -> tuple[str, str, list[str]]:
    """(source, symbol, targets) of the `trans:` value at line `no`, with
    every state in `states` and the symbol in `alphabet`."""
    toks = value.split()
    if len(toks) < 3 or toks[2] != "->":
        raise ParseError("expected 'trans: <state> <symbol> -> <state>...'", no)
    src, sym, targets = toks[0], toks[1], toks[3:]
    if sym not in alphabet:
        raise ParseError(f"undeclared symbol {sym!r}", no)
    for q in (src, *targets):
        if q not in states:
            raise ParseError(f"undeclared state {q!r}", no)
    return src, sym, targets


def parse_nbw(text: str | bytes) -> Nbw:
    """Parse the native `nbw` format or the restricted HOA-style subset
    (see README).  Serialization always emits the native format."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    lines = list(_meaningful_lines(text))
    if not lines:
        raise ParseError("empty input", 1)
    no, head = lines[0]
    if head == "nbw":
        return _parse_native(lines[1:])
    if head.startswith("HOA:"):
        return _parse_hoa(lines[1:])
    raise ParseError(f"unknown format header {head!r}", no)


def _parse_native(lines: list[tuple[int, str]]) -> Nbw:
    fields, repeats = _read_fields(
        lines, ("alphabet", "states", "initial", "accepting"), ("trans",)
    )
    for key in ("alphabet", "states", "initial"):
        if key not in fields:
            raise ParseError(f"missing {key} line")
    alphabet = _read_alphabet(*fields["alphabet"])
    no, value = fields["states"]
    states = tuple(_check_token(q, "state", no) for q in value.split())
    known = set(states)
    if len(known) != len(states):
        raise ParseError("duplicate state declaration", no)
    groups = {key: fields.get(key, (None, ""))[1].split() for key in ("initial", "accepting")}
    for kind, group in groups.items():
        for q in group:
            if q not in known:
                raise ParseError(f"undeclared {kind} state {q!r}", fields[kind][0])
    trans: dict[tuple[str, str], set[str]] = {}
    for no, value in repeats["trans"]:
        src, sym, targets = _read_trans(no, value, known, alphabet)
        trans.setdefault((src, sym), set()).update(targets)
    return Nbw(
        alphabet,
        states,
        frozenset(groups["initial"]),
        {k: frozenset(v) for k, v in trans.items()},
        frozenset(groups["accepting"]),
    )


def _hoa_int(tok: str, what: str, no: int) -> int:
    """The non-negative integer `tok`, else a ParseError at line `no`."""
    if not tok.isdecimal():
        raise ParseError(f"expected {what}, got {tok!r}", no)
    return int(tok)


_HOA_HEADERS = ("States", "Start", "Alphabet", "Acceptance")


def _parse_hoa(lines: list[tuple[int, str]]) -> Nbw:
    body_at = next((i for i, (_, line) in enumerate(lines) if line == "--BODY--"), None)
    # headers outside the subset are tolerated and ignored
    head = [
        (no, line)
        for no, line in lines[:body_at]
        if ":" in line and line.partition(":")[0] in _HOA_HEADERS
    ]
    fields, repeats = _read_fields(head, ("States", "Alphabet", "Acceptance"), ("Start",))
    starts = [
        (no, _hoa_int(t, "a start index", no))
        for no, value in repeats["Start"]
        for t in value.split()
    ]
    if "States" not in fields or "Alphabet" not in fields or body_at is None:
        raise ParseError("HOA subset needs States:, Alphabet: and --BODY--")
    if fields.get("Acceptance", (None, ""))[1] not in ("Buchi", "1 Inf(0)"):
        raise ParseError("HOA subset needs 'Acceptance: Buchi'")
    n_states = _hoa_int(fields["States"][1], "a state count", fields["States"][0])
    alphabet = _read_alphabet(*fields["Alphabet"])
    states = tuple(f"s{i}" for i in range(n_states))
    accepting: set[str] = set()
    trans: dict[tuple[str, str], set[str]] = {}
    cur: str | None = None
    defined: set[int] = set()
    for no, line in lines[body_at + 1:]:
        if line == "--END--":
            break
        if line.startswith("State:"):
            head, _, mark = line.removeprefix("State:").partition("{")
            rest = head.split()
            idx = _hoa_int(rest[0] if rest else "", "'State: <index>'", no)
            if not 0 <= idx < n_states:
                raise ParseError(f"state index {idx} out of range", no)
            if idx in defined:
                raise ParseError(f"duplicate 'State: {idx}' line", no)
            defined.add(idx)
            cur = states[idx]
            # the acceptance signature {...}: Buchi acceptance has set 0 alone
            sets = mark.partition("}")[0].split()
            for acc in sets:
                if acc != "0":
                    raise ParseError(f"acceptance set {acc!r} not in 'Acceptance: Buchi'", no)
            if sets:
                accepting.add(cur)
        else:
            if cur is None:
                raise ParseError("edge before any State: line", no)
            toks = line.split()
            if len(toks) != 2:
                raise ParseError("expected '<symbol> <target-index>'", no)
            sym, tgt = toks[0], _hoa_int(toks[1], "a target index", no)
            if sym not in alphabet:
                raise ParseError(f"undeclared symbol {sym!r}", no)
            if not 0 <= tgt < n_states:
                raise ParseError(f"state index {tgt} out of range", no)
            trans.setdefault((cur, sym), set()).add(states[tgt])
    for no, s in starts:
        if not 0 <= s < n_states:
            raise ParseError(f"start index {s} out of range", no)
    return Nbw(
        alphabet,
        states,
        frozenset(states[s] for _, s in starts),
        {k: frozenset(v) for k, v in trans.items()},
        frozenset(accepting),
    )
