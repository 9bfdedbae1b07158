"""Büchi automata on infinite words: data model, text formats, run semantics,
and the lasso-product membership oracle that everything else is checked against.

Words are tuples of symbol tokens.  Ultimately periodic words are kept as an
explicit (prefix, period) decomposition; the same infinite word has many such
decompositions and every operation here is invariant under redecomposition.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Container, Iterable, Iterator, Mapping, Sequence

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
    if not tok or len(tok.split()) != 1 or tok in _RESERVED_TOKENS:
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
    id; `states` fixes the canonical iteration order."""

    alphabet: Alphabet
    states: tuple[str, ...]
    initial: frozenset[str]
    transitions: Mapping[tuple[str, str], frozenset[str]]
    accepting: frozenset[str]
    _order: dict = field(init=False, repr=False, compare=False, default=None)
    _masks: tuple = field(init=False, repr=False, compare=False, default=None)

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

    def is_deterministic(self) -> bool:
        return len(self.initial) <= 1 and all(
            len(v) <= 1 for v in self.transitions.values()
        )

    def is_complete(self) -> bool:
        return len(self.initial) >= 1 and all(
            self.successors(q, a) for q in self.states for a in self.alphabet
        )


def _numbering(first: Iterable) -> tuple[list, Callable[[object], int]]:
    """(keys, number): number(key) is the id of `key`, handing out 0, 1, ...
    in the order keys are first seen and appending each new key to `keys`.
    The keys of `first` are numbered first."""
    keys: list = []
    ids: dict = {}

    def number(key) -> int:
        i = ids.get(key)
        if i is None:
            i = ids[key] = len(keys)
            keys.append(key)
        return i

    for key in first:
        number(key)
    return keys, number


Edges = Sequence[Sequence[int]]


def explore(roots: int, expand: Callable[[int], Edges]):
    """Breadth-first search of a graph on the nodes 0, 1, ..., whose edges
    leave node i as expand(i) = [targets of letter 0, targets of letter 1,
    ...], one sequence of node ids per letter index.  The caller numbers
    the nodes in discovery order: 0 .. roots - 1 are the initial nodes, and
    a target seen for the first time, in the order of expand's output, gets
    the next unused number, so node i is expanded as the i-th.  Returns
    (adj, pred, via): adj[i] = expand(i), and the node and letter index of
    the edge that discovered node i (-1 for a root)."""
    adj: list[Edges] = []
    pred = [-1] * roots
    via = [-1] * roots
    n = roots
    i = 0
    while i < n:
        edges = expand(i)
        adj.append(edges)
        for k, targets in enumerate(edges):
            for j in targets:
                if j >= n:
                    pred.append(i)
                    via.append(k)
                    n += 1
        i += 1
    return adj, pred, via


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


def _find_accepting_lasso(roots: int, expand: Callable[[int], Edges], is_acc: Callable[[int], int]):
    """Search the graph of explore(roots, expand) for a reachable cycle
    through a node satisfying is_acc.  Returns the node ids and letter
    indices (stem_nodes, stem_letters, cycle_nodes, cycle_letters), or None.
    The target is the first accepting node in discovery order that lies on
    a cycle; the cycle is a shortest way back to it inside its component."""
    adj, pred, via = explore(roots, expand)
    accepting = [i for i in range(len(adj)) if is_acc(i)]
    if not accepting:
        return None
    comp, cyclic = cyclic_components(adj)
    target = next((i for i in accepting if cyclic[comp[i]]), None)
    if target is None:
        return None
    stem_nodes, stem_letters = path_to(pred, via, target)

    tgt_comp = comp[target]
    back = [-2] * len(adj)  # -2: not reached by the return search
    back[target] = -1
    back_via = [-1] * len(adj)
    queue = [target]
    for node in queue:  # the loop visits the nodes appended while it runs
        for k, targets in enumerate(adj[node]):
            if target in targets:
                cycle_nodes, cycle_letters = path_to(back, back_via, node)
                return stem_nodes, stem_letters, cycle_nodes, cycle_letters + [k]
            for j in targets:
                if back[j] == -2 and comp[j] == tgt_comp:
                    back[j] = node
                    back_via[j] = k
                    queue.append(j)
    raise AssertionError("node in cyclic component must close a cycle")


def cyclic_components(adj: Sequence[Edges]) -> tuple[list[int], list[bool]]:
    """Strongly connected components of the graph on the nodes
    0 .. len(adj) - 1 whose edges leave node i to the targets in the
    sequences of adj[i], found by iterative Tarjan from the nodes in order.
    Returns (component id of each node, per component id whether it is
    cyclic: it has more than one node or a self-loop)."""
    n = len(adj)
    index = [-1] * n
    low = [0] * n
    comp = [-1] * n  # a node with an index and no component is on the stack
    cyclic: list[bool] = []
    stack: list[int] = []
    count = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = count
        count += 1
        stack.append(root)
        work = [(root, itertools.chain.from_iterable(adj[root]))]
        while work:
            node, edges = work[-1]
            lo = low[node]
            for nxt in edges:
                x = index[nxt]
                if x < 0:
                    low[node] = lo
                    index[nxt] = low[nxt] = count
                    count += 1
                    stack.append(nxt)
                    work.append((nxt, itertools.chain.from_iterable(adj[nxt])))
                    break
                if x < lo and comp[nxt] < 0:
                    lo = x
            else:
                work.pop()
                if lo == index[node]:
                    cid = len(cyclic)
                    x = stack.pop()
                    comp[x] = cid
                    size = 1
                    while x != node:
                        x = stack.pop()
                        comp[x] = cid
                        size += 1
                    cyclic.append(size > 1 or node in itertools.chain.from_iterable(adj[node]))
                else:
                    low[node] = lo
                    if lo < low[work[-1][0]]:
                        low[work[-1][0]] = lo
    return comp, cyclic


def lasso_membership(a: Nbw, w: UpWord) -> MembershipVerdict:
    """Ground-truth membership of the ultimately periodic word in L(a).

    Builds the product of the automaton with the lasso-shaped word graph
    (one position per letter of prefix and period, period positions cyclic)
    and searches for a reachable cycle through an accepting state.  The
    product state (q, pos) is keyed pos * |a| + q over the state index q.
    """
    word = w.prefix + w.period
    for sym in word:
        if sym not in a.alphabet:
            raise ValueError(f"symbol {sym!r} not in alphabet")
    n = len(a.states)
    succ, acc = a.bitmasks()
    masks = [succ[sym] for sym in word]
    keys, number = _numbering(sorted(a.index(q) for q in a.initial))

    def expand(i: int) -> list[list[int]]:
        pos, q = divmod(keys[i], n)
        base = (pos + 1 if pos + 1 < len(word) else len(w.prefix)) * n
        return [[number(base + r) for r in _bits(masks[pos][q])]]

    hit = _find_accepting_lasso(len(keys), expand, lambda i: acc >> keys[i] % n & 1)
    if hit is None:
        return MembershipVerdict(False, None)
    stem_nodes, _, cycle_nodes, _ = hit
    # each node reads one letter, the one at its position
    return MembershipVerdict(
        True,
        Lasso(
            tuple(a.states[keys[i] % n] for i in stem_nodes),
            tuple(word[keys[i] // n] for i in stem_nodes[:-1]),
            tuple(a.states[keys[i] % n] for i in cycle_nodes),
            tuple(word[keys[i] // n] for i in cycle_nodes),
        ),
    )


def is_empty(a: Nbw) -> tuple[bool, Lasso | None]:
    """Language emptiness; returns (empty, witness lasso when non-empty)."""
    syms = a.alphabet.symbols
    succ, acc = a.bitmasks()
    masks = [succ[sym] for sym in syms]
    states, number = _numbering(sorted(a.index(q) for q in a.initial))

    def expand(i: int) -> list[list[int]]:
        q = states[i]
        return [[number(r) for r in _bits(m[q])] for m in masks]

    hit = _find_accepting_lasso(len(states), expand, lambda i: acc >> states[i] & 1)
    if hit is None:
        return True, None
    stem_nodes, stem_letters, cycle_nodes, cycle_letters = hit
    return False, Lasso(
        tuple(a.states[states[i]] for i in stem_nodes),
        tuple(syms[k] for k in stem_letters),
        tuple(a.states[states[i]] for i in cycle_nodes),
        tuple(syms[k] for k in cycle_letters),
    )


def intersect(a: Nbw, b: Nbw) -> Nbw:
    """Büchi intersection via the usual two-copy counter; only the reachable
    part is kept, so the result has at most 2|a||b| states."""
    if a.alphabet != b.alphabet:
        raise AlphabetMismatchError("intersection needs a shared alphabet")

    def name(p: str, q: str, c: int) -> str:
        return f"({p},{q},{c})"

    start = [
        (p, q, 0)
        for p in a.sort_states(a.initial)
        for q in b.sort_states(b.initial)
    ]
    seen: dict[tuple[str, str, int], None] = dict.fromkeys(start)
    order = list(seen)
    trans: dict[tuple[str, str], frozenset[str]] = {}
    i = 0
    while i < len(order):
        p, q, c = order[i]
        i += 1
        if c == 0:
            nc = 1 if p in a.accepting else 0
        else:
            nc = 0 if q in b.accepting else 1
        for sym in a.alphabet:
            targets = []
            for pp in a.sort_states(a.successors(p, sym)):
                for qq in b.sort_states(b.successors(q, sym)):
                    node = (pp, qq, nc)
                    if node not in seen:
                        seen[node] = None
                        order.append(node)
                    targets.append(name(*node))
            if targets:
                trans[(name(p, q, c), sym)] = frozenset(targets)
    states = tuple(name(*n) for n in order)
    if not states:
        states = ("(dead)",)
        return Nbw(a.alphabet, states, frozenset(), {}, frozenset())
    return Nbw(
        a.alphabet,
        states,
        frozenset(name(*n) for n in start),
        trans,
        frozenset(name(p, q, c) for (p, q, c) in order if c == 1 and q in b.accepting),
    )


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _product_lasso(a: Nbw, b: Nbw) -> UpWord | None:
    """The word of the lasso that is_empty(intersect(a, b)) returns, or None
    when that product is empty; a and b must share their alphabet.

    The search runs on integer nodes and builds no product automaton.  The
    product state (p, q, c), over the state indices of a and b and
    intersect's two-copy counter c, is packed into the key
    2 * (p * |b| + q) + c, and its node is the index at which the BFS
    discovers it.  Expanding nodes in BFS order numbers new targets as
    intersect does: per symbol, in (p, q) index order.  Each symbol's edges
    are listed in node order, the order in which is_empty visits the
    successors of intersect's states, so the stem, the cycle and the word
    match.  Successor rows are decoded only for the states the search
    reaches.  Edges are tuples, which the collector stops tracking, so the
    graph does not slow down its later passes."""
    succ_a, acc_a = a.bitmasks()
    succ_b, acc_b = b.bitmasks()
    nb = len(b.states)
    syms = a.alphabet.symbols
    masks = [(succ_a[sym], succ_b[sym], [None] * len(a.states), [None] * nb) for sym in syms]
    keys = [
        2 * (a.index(p) * nb + b.index(q))
        for p in a.sort_states(a.initial)
        for q in b.sort_states(b.initial)
    ]
    # numbered inline: a _numbering call per edge slows the search by about 12%
    node_of = {key: i for i, key in enumerate(keys)}

    def expand(i: int) -> Edges:
        key = keys[i]
        p, q = divmod(key >> 1, nb)
        if key & 1:
            nc = 0 if acc_b >> q & 1 else 1
        else:
            nc = acc_a >> p & 1
        edges = []
        for mask_a, mask_b, rows_a, rows_b in masks:
            targets_a = rows_a[p]
            if targets_a is None:
                targets_a = rows_a[p] = [2 * nb * pp for pp in _bits(mask_a[p])]
            targets_b = rows_b[q]
            if targets_b is None:
                targets_b = rows_b[q] = [2 * qq for qq in _bits(mask_b[q])]
            nodes = []
            for pa in targets_a:
                pa += nc
                for qb in targets_b:
                    j = node_of.get(pa + qb)
                    if j is None:
                        j = node_of[pa + qb] = len(keys)
                        keys.append(pa + qb)
                    nodes.append(j)
            nodes.sort()
            edges.append(tuple(nodes))
        return tuple(edges)

    def is_acc(i: int) -> bool:
        key = keys[i]
        return key & 1 == 1 and acc_b >> (key >> 1) % nb & 1 == 1

    hit = _find_accepting_lasso(len(keys), expand, is_acc)
    if hit is None:
        return None
    return UpWord(tuple(syms[k] for k in hit[1]), tuple(syms[k] for k in hit[3]))


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
    states = tuple(value.split())
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
            rest = line.split(":", 1)[1].split()
            idx = _hoa_int(rest[0] if rest else "", "'State: <index>'", no)
            if not 0 <= idx < n_states:
                raise ParseError(f"state index {idx} out of range", no)
            if idx in defined:
                raise ParseError(f"duplicate 'State: {idx}' line", no)
            defined.add(idx)
            cur = states[idx]
            if any(tok.startswith("{") for tok in rest[1:]):
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
