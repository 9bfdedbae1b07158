"""Büchi automata on infinite words: data model, text formats, run semantics,
and the lasso-product membership oracle that everything else is checked against.

Words are tuples of symbol tokens.  Ultimately periodic words are kept as an
explicit (prefix, period) decomposition; the same infinite word has many such
decompositions and every operation here is invariant under redecomposition.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Container, Iterable, Iterator, Mapping

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


def explore(inits: Iterable, expand: Callable[[object], list[tuple[str, object]]]):
    """Breadth-first search of the edge-labelled graph with edges
    expand(node) = [(letter, successor), ...] from the nodes `inits`.
    Returns (order, adj, parent): the reachable nodes in discovery order,
    node -> its expanded edges, and node -> (predecessor, letter) of the
    edge that discovered it (None for an initial node)."""
    order: list = []
    parent: dict = {}
    for node in inits:
        if node not in parent:
            parent[node] = None
            order.append(node)
    adj: dict = {}
    for node in order:  # the loop visits the nodes appended while it runs
        edges = adj[node] = expand(node)
        for letter, nxt in edges:
            if nxt not in parent:
                parent[nxt] = (node, letter)
                order.append(nxt)
    return order, adj, parent


def path_to(parent: dict, node) -> tuple[tuple, Word]:
    """(nodes, letters) of the path that `parent`, as returned by explore,
    records from a root to `node`."""
    nodes: list = [node]
    letters: list[str] = []
    while parent[node] is not None:
        node, letter = parent[node]
        nodes.append(node)
        letters.append(letter)
    return tuple(reversed(nodes)), tuple(reversed(letters))


def _find_accepting_lasso(
    inits: list,
    expand: Callable[[object], list[tuple[str, object]]],
    is_acc: Callable[[object], bool],
):
    """Search a finite edge-labelled graph for a reachable cycle through a node
    satisfying is_acc.  Returns (stem_nodes, stem_letters, cycle_nodes,
    cycle_letters) or None.  Deterministic: nodes are explored in BFS order."""
    order, adj, parent = explore(inits, expand)
    accepting = [n for n in order if is_acc(n)]
    if not accepting:
        return None
    comp, cyclic = cyclic_components(order, adj)
    target = next((n for n in accepting if comp[n] in cyclic), None)
    if target is None:
        return None
    stem_nodes, stem_letters = path_to(parent, target)

    # Shortest way back to the target inside its own component.
    tgt_comp = comp[target]
    back: dict = {target: None}
    dq = deque([target])
    found = None
    while found is None and dq:
        node = dq.popleft()
        for letter, nxt in adj[node]:
            if nxt == target:
                found = (node, letter)
                break
            if comp.get(nxt) == tgt_comp and nxt not in back:
                back[nxt] = (node, letter)
                dq.append(nxt)
    assert found is not None, "node in cyclic component must close a cycle"

    last, last_letter = found
    cycle_nodes, cycle_letters = path_to(back, last)
    return stem_nodes, stem_letters, cycle_nodes, cycle_letters + (last_letter,)


def cyclic_components(order: list, adj: dict) -> tuple[dict, set[int]]:
    """Strongly connected components of the graph whose edges are
    adj[node] = [(letter, successor), ...], found by iterative Tarjan from
    the nodes of `order`.  Returns (node -> component id, ids of the cyclic
    components: those with more than one node or with a self-loop)."""
    index: dict = {}
    low: dict = {}
    onstack: set = set()
    stack: list = []
    comp: dict = {}
    cyclic: set[int] = set()
    ncomp = 0
    for root in order:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        onstack.add(root)
        work: list = [(root, iter(adj[root]))]
        while work:
            node, edges = work[-1]
            for _, nxt in edges:
                if nxt not in index:
                    index[nxt] = low[nxt] = len(index)
                    stack.append(nxt)
                    onstack.add(nxt)
                    work.append((nxt, iter(adj[nxt])))
                    break
                if nxt in onstack and index[nxt] < low[node]:
                    low[node] = index[nxt]
            else:
                work.pop()
                if low[node] == index[node]:
                    size = 0
                    while True:
                        x = stack.pop()
                        onstack.discard(x)
                        comp[x] = ncomp
                        size += 1
                        if x == node:
                            break
                    if size > 1 or any(nxt == node for _, nxt in adj[node]):
                        cyclic.add(ncomp)
                    ncomp += 1
                if work and low[node] < low[work[-1][0]]:
                    low[work[-1][0]] = low[node]
    return comp, cyclic


def lasso_membership(a: Nbw, w: UpWord) -> MembershipVerdict:
    """Ground-truth membership of the ultimately periodic word in L(a).

    Builds the product of the automaton with the lasso-shaped word graph
    (one position per letter of prefix and period, period positions cyclic)
    and searches for a reachable cycle through an accepting state.
    """
    for sym in w.prefix + w.period:
        if sym not in a.alphabet:
            raise ValueError(f"symbol {sym!r} not in alphabet")
    lu, lv = len(w.prefix), len(w.period)
    total = lu + lv

    def letter_at(pos: int) -> str:
        return w.prefix[pos] if pos < lu else w.period[pos - lu]

    def next_pos(pos: int) -> int:
        return pos + 1 if pos + 1 < total else lu

    def expand(node):
        q, pos = node
        sym = letter_at(pos)
        np = next_pos(pos)
        return [(sym, (r, np)) for r in a.sort_states(a.successors(q, sym))]

    inits = [(q, 0) for q in a.sort_states(a.initial)]
    hit = _find_accepting_lasso(inits, expand, lambda n: n[0] in a.accepting)
    if hit is None:
        return MembershipVerdict(False, None)
    stem_nodes, stem_letters, cycle_nodes, cycle_letters = hit
    return MembershipVerdict(
        True,
        Lasso(
            tuple(n[0] for n in stem_nodes),
            stem_letters,
            tuple(n[0] for n in cycle_nodes),
            cycle_letters,
        ),
    )


def is_empty(a: Nbw) -> tuple[bool, Lasso | None]:
    """Language emptiness; returns (empty, witness lasso when non-empty)."""

    def expand(q):
        out = []
        for sym in a.alphabet:
            for r in a.sort_states(a.successors(q, sym)):
                out.append((sym, r))
        return out

    hit = _find_accepting_lasso(
        a.sort_states(a.initial), expand, lambda q: q in a.accepting
    )
    if hit is None:
        return True, None
    stem_nodes, stem_letters, cycle_nodes, cycle_letters = hit
    return False, Lasso(stem_nodes, stem_letters, cycle_nodes, cycle_letters)


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
    reaches."""
    succ_a, acc_a = a.bitmasks()
    succ_b, acc_b = b.bitmasks()
    nb = len(b.states)
    syms = a.alphabet.symbols
    rows_a = {sym: [None] * len(a.states) for sym in syms}
    rows_b = {sym: [None] * nb for sym in syms}
    keys = [
        2 * (a.index(p) * nb + b.index(q))
        for p in a.sort_states(a.initial)
        for q in b.sort_states(b.initial)
    ]
    node_of = {key: i for i, key in enumerate(keys)}

    def expand(i: int) -> list[tuple[str, int]]:
        key = keys[i]
        p, q = divmod(key >> 1, nb)
        if key & 1:
            nc = 0 if acc_b >> q & 1 else 1
        else:
            nc = acc_a >> p & 1
        edges: list[tuple[str, int]] = []
        for sym in syms:
            targets_a = rows_a[sym][p]
            if targets_a is None:
                targets_a = rows_a[sym][p] = [2 * nb * pp for pp in _bits(succ_a[sym][p])]
            targets_b = rows_b[sym][q]
            if targets_b is None:
                targets_b = rows_b[sym][q] = [2 * qq for qq in _bits(succ_b[sym][q])]
            nodes = []
            for pa in targets_a:
                for qb in targets_b:
                    key = pa + qb + nc
                    j = node_of.get(key)
                    if j is None:
                        j = node_of[key] = len(keys)
                        keys.append(key)
                    nodes.append(j)
            nodes.sort()
            edges += zip(itertools.repeat(sym), nodes)
        return edges

    def is_acc(i: int) -> bool:
        key = keys[i]
        return key & 1 == 1 and acc_b >> (key >> 1) % nb & 1 == 1

    hit = _find_accepting_lasso(list(range(len(keys))), expand, is_acc)
    if hit is None:
        return None
    return UpWord(hit[1], hit[3])


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
