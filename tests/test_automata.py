"""Data model, word handling, parsing, and the lasso membership oracle."""

from __future__ import annotations

import hashlib
import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from buchicong import (
    Alphabet,
    AlphabetMismatchError,
    Lasso,
    MembershipVerdict,
    Nbw,
    ParseError,
    UpWord,
    complement_fdfw_improved,
    complement_fdfw_optimal,
    enumerate_upwords,
    fdfw_to_nbw,
    gen_bn,
    gen_bn_dbw,
    intersect,
    is_empty,
    lasso_membership,
    parse_fdfw,
    parse_nbw,
    parse_word,
    random_nbw,
    serialize_fdfw,
    serialize_nbw,
)
from buchicong import automata
from buchicong.automata import _product_lasso, cyclic_components, explore, path_to
from conftest import canonical_corpus, seeded_nbws, words
from reference import find_accepting_lasso_tarjan, lasso_membership_full, product_verdict_tarjan, reach, step


def inf_many(sym: str, other: str) -> Nbw:
    """Deterministic automaton accepting words with infinitely many `sym`."""
    alphabet = Alphabet(tuple(sorted((sym, other))))
    trans = {
        ("hit", sym): frozenset({"hit"}),
        ("hit", other): frozenset({"wait"}),
        ("wait", sym): frozenset({"hit"}),
        ("wait", other): frozenset({"wait"}),
    }
    return Nbw(alphabet, ("hit", "wait"), frozenset({"wait"}), trans, frozenset({"hit"}))


def dead_end() -> Nbw:
    """go loops on a and moves to stuck on b; stuck loops on a and has no b
    successor, so no run survives the prefix b b.  Both states accept."""
    trans = {
        ("go", "a"): frozenset({"go"}),
        ("go", "b"): frozenset({"stuck"}),
        ("stuck", "a"): frozenset({"stuck"}),
    }
    return Nbw(Alphabet(("a", "b")), ("go", "stuck"), frozenset({"go"}), trans, frozenset({"go", "stuck"}))


# --- words ----------------------------------------------------------------------


def test_upword_rejects_empty_period():
    with pytest.raises(ValueError):
        UpWord((), ())


def test_canonical_reduces_period_to_primitive_root():
    w = UpWord((), ("a", "b", "a", "b"))
    assert w.canonical() == UpWord((), ("a", "b"))


def test_canonical_rolls_prefix_into_period():
    w = UpWord(("a", "b"), ("a", "b"))
    assert w.canonical() == UpWord((), ("a", "b"))
    w2 = UpWord(("b", "a"), ("a",))
    assert w2.canonical() == UpWord(("b",), ("a",))


@given(words(max_len=3), words(max_len=4).filter(bool))
def test_canonical_is_idempotent(u, v):
    c = UpWord(u, v).canonical()
    assert c.canonical() == c


@given(words(max_len=3), words(max_len=3).filter(bool))
def test_canonical_identifies_equivalent_decompositions(u, v):
    w = UpWord(u, v).canonical()
    # absorbing one period turn, doubling the period, or rotating the period
    # into the prefix never changes the infinite word
    assert UpWord(u + v, v).canonical() == w
    assert UpWord(u, v + v).canonical() == w
    assert UpWord(u + v[:1], v[1:] + v[:1]).canonical() == w


def test_enumerate_upwords_counts_pairs():
    alphabet = Alphabet(("a", "b"))
    got = list(enumerate_upwords(alphabet, 2, 2))
    # (1 + 2 + 4) prefixes times (2 + 4) periods
    assert len(got) == 42
    assert len(set(got)) == 42
    assert got[0] == UpWord((), ("a",))


def test_enumerate_upwords_rejects_zero_period_bound():
    with pytest.raises(ValueError):
        list(enumerate_upwords(Alphabet(("a",)), 1, 0))
    with pytest.raises(ValueError):
        list(enumerate_upwords(Alphabet(("a",)), -1, 1))


def test_parse_word_splits_tokens_and_single_chars():
    ab = Alphabet(("a", "b"))
    assert parse_word(ab, "a b a") == ("a", "b", "a")
    assert parse_word(ab, "aba") == ("a", "b", "a")
    assert parse_word(ab, "") == ()
    multi = Alphabet(("aa", "b"))
    assert parse_word(multi, "aa") == ("aa",)
    with pytest.raises(ValueError):
        parse_word(ab, "a c")


# --- structure and runs ------------------------------------------------------------


def test_nbw_validates_declarations():
    ab = Alphabet(("a",))
    # `#` starts a comment in every text format, so no token may hold one
    with pytest.raises(ValueError, match="invalid state token"):
        Nbw(ab, ("q#1",), frozenset(), {}, frozenset())
    with pytest.raises(ValueError, match="invalid symbol token"):
        Alphabet(("a#1", "b"))
    with pytest.raises(ValueError):
        Nbw(ab, ("p", "p"), frozenset(), {}, frozenset())
    with pytest.raises(ValueError):
        Nbw(ab, ("p",), frozenset({"q"}), {}, frozenset())
    with pytest.raises(ValueError, match="accepting states not declared"):
        Nbw(ab, ("p",), frozenset(), {}, frozenset({"q"}))
    with pytest.raises(ValueError, match="transition on undeclared state"):
        Nbw(ab, ("p",), frozenset(), {("p", "a"): frozenset({"q"})}, frozenset())
    with pytest.raises(ValueError):
        Nbw(ab, ("p",), frozenset(), {("p", "z"): frozenset({"p"})}, frozenset())


def test_step_and_reach():
    a = inf_many("a", "b")
    assert step(a, frozenset({"wait"}), "a") == frozenset({"hit"})
    assert reach(a, ("a", "b", "b")) == frozenset({"wait"})
    assert reach(a, ()) == a.initial


def test_deterministic_and_complete_flags(b3):
    a = inf_many("a", "b")
    assert a.is_deterministic() and a.is_complete()
    assert not b3.is_deterministic()
    assert b3.is_complete()


# --- membership oracle ---------------------------------------------------------------


def test_membership_on_known_language():
    a = inf_many("a", "b")
    assert lasso_membership(a, UpWord((), ("a",))).accepted
    assert not lasso_membership(a, UpWord((), ("b",))).accepted
    assert not lasso_membership(a, UpWord(("a", "a"), ("b",))).accepted
    assert lasso_membership(a, UpWord(("b",), ("a", "b"))).accepted


def test_membership_witness_is_a_real_run():
    a = inf_many("a", "b")
    v = lasso_membership(a, UpWord(("b",), ("a", "b")))
    assert v.accepted and v.witness is not None
    lasso = v.witness
    assert lasso.stem_states[0] in a.initial
    assert len(lasso.stem_states) == len(lasso.stem_letters) + 1
    assert len(lasso.cycle_states) == len(lasso.cycle_letters)
    assert lasso.stem_states[-1] == lasso.cycle_states[0]
    for i, sym in enumerate(lasso.stem_letters):
        assert lasso.stem_states[i + 1] in a.successors(lasso.stem_states[i], sym)
    ring = lasso.cycle_states + (lasso.cycle_states[0],)
    for i, sym in enumerate(lasso.cycle_letters):
        assert ring[i + 1] in a.successors(ring[i], sym)
    assert any(q in a.accepting for q in lasso.cycle_states)
    assert lasso.word().canonical().period and lasso.word().prefix == lasso.stem_letters


def test_membership_rejects_foreign_symbols():
    a = inf_many("a", "b")
    with pytest.raises(ValueError):
        lasso_membership(a, UpWord(("z",), ("a",)))
    # a foreign symbol in the period only, and after a prefix that no run
    # survives; the message names the first foreign symbol in word order
    dead = dead_end()
    assert reach(dead, ("b", "b")) == frozenset()
    for b, w, sym in [
        (a, UpWord(("a", "b"), ("a", "z")), "z"),
        (dead, UpWord(("b", "b", "z"), ("a",)), "z"),
        (dead, UpWord(("b", "b"), ("a", "z")), "z"),
        (dead, UpWord(("b", "b", "y"), ("z",)), "y"),
    ]:
        with pytest.raises(ValueError, match=f"^symbol '{sym}' not in alphabet$"):
            lasso_membership(b, w)


@settings(max_examples=200)
@given(seeded_nbws(6), st.booleans(), words(max_len=12), words(max_len=6).filter(bool))
@example(dead_end(), False, ("b", "b"), ("a",))  # no run survives the prefix
@example(dead_end(), False, ("a", "a", "b"), ("a", "b"))  # the period kills every run
@example(dead_end(), False, ("a", "a", "b", "a"), ("a",))  # accepted; every prefix position accepts
def test_membership_matches_the_search_over_the_whole_word_graph(a, every, u, v):
    # with every state accepting, every prefix position is accepting too;
    # the prefix walk must still find the lasso the whole search found
    if every:
        a = Nbw(a.alphabet, a.states, a.initial, a.transitions, frozenset(a.states))
    w = UpWord(u, v)
    assert lasso_membership(a, w) == lasso_membership_full(a, w)


def test_membership_matches_the_tarjan_first_search_from_the_initial_states():
    # the oracle walks the whole lasso as layers of states: it must find the
    # lasso that the Tarjan-first search and the return-first search find
    # over the whole word graph from the initial states, with the period's
    # first layer empty in some cases and holding several states in others
    layers = set()
    for s in range(12):
        a = random_nbw(s, 1 + s % 6)
        for w in canonical_corpus(a.alphabet, 4, 2):
            got = lasso_membership(a, w)
            assert got == lasso_membership_full(a, w, find_accepting_lasso_tarjan), (s, w)
            assert got == lasso_membership_full(a, w), (s, w)
            layers.add(len(reach(a, w.prefix)))
    assert 0 in layers and max(layers) > 1


def test_membership_on_translated_complements_matches_the_search_over_the_whole_word_graph():
    # the automata member-queries reads: the translated complements of both
    # builders on five-state automata, on words with |u| in 0..12 and |v| in
    # 1..12; at |v| = 1 the one period position is its own successor.  The
    # complements of seeds 1, 3, 9 and 13 have 24 to 180 states, and every
    # finite word has a run in them, so the 5- and 7-state complements of
    # seeds 14 and 35 bring the prefixes that kill every run
    rng = random.Random("translated complements")
    sizes, verdicts, dead = [], set(), 0
    for s in (1, 3, 9, 13, 14, 35):
        a = random_nbw(s, 5)
        for build in (complement_fdfw_optimal, complement_fdfw_improved):
            c = fdfw_to_nbw(build(a))
            sizes.append(len(c.states))
            for i in range(52):
                u = tuple(rng.choice(c.alphabet.symbols) for _ in range(i % 13))
                v = tuple(rng.choice(c.alphabet.symbols) for _ in range(1 + i % 12))
                got = lasso_membership(c, UpWord(u, v))
                assert got == lasso_membership_full(c, UpWord(u, v)), (s, build.__name__, u, v)
                verdicts.add(got.accepted)
                dead += not reach(c, u)
    assert sum(size >= 24 for size in sizes) == 8 and max(sizes) >= 150
    assert verdicts == {False, True} and dead > 0


def test_membership_with_accepting_prefix_states_matches_the_tarjan_first_search():
    # a run may pass an accepting state at a prefix position, which lies on
    # no cycle: the oracle must still find the lasso that the Tarjan-first
    # search and the return-first search find over the whole word graph,
    # and some case's run passes such a state
    go = Nbw(
        Alphabet(("a", "b")),
        ("go", "stuck"),
        frozenset({"go"}),
        {("go", "a"): frozenset({"go"}), ("go", "b"): frozenset({"stuck"}), ("stuck", "a"): frozenset({"stuck"})},
        frozenset({"go"}),
    )
    cases = [(go, UpWord(("a", "a", "b"), ("a",))), (go, UpWord(("a", "a"), ("a", "a", "b")))]
    for s in range(20):
        a = random_nbw(s, 1 + s % 4)
        every = Nbw(a.alphabet, a.states, a.initial, a.transitions, frozenset(a.states))
        cases += [(every, w) for w in canonical_corpus(a.alphabet, 3, 2) if w.prefix]
    verdicts, accepting_prefix = set(), 0
    for a, w in cases:
        got = lasso_membership(a, w)
        verdicts.add(got.accepted)
        assert got == lasso_membership_full(a, w, find_accepting_lasso_tarjan), (a, w)
        assert got == lasso_membership_full(a, w), (a, w)
        accepting_prefix += any(reach(a, w.prefix[:pos]) & a.accepting for pos in range(len(w.prefix)))
    assert verdicts == {False, True}
    assert accepting_prefix > 0


@given(seeded_nbws(), words(max_len=2), words(max_len=3).filter(bool))
def test_membership_is_decomposition_invariant(a, u, v):
    w = UpWord(u, v)
    base = lasso_membership(a, w).accepted
    assert lasso_membership(a, UpWord(u + v, v)).accepted == base
    assert lasso_membership(a, UpWord(u, v + v)).accepted == base
    assert lasso_membership(a, w.canonical()).accepted == base


# --- emptiness and product --------------------------------------------------------------


def test_is_empty_without_reachable_accepting_cycle():
    ab = Alphabet(("a",))
    trans = {("p", "a"): frozenset({"q"})}
    a = Nbw(ab, ("p", "q"), frozenset({"p"}), trans, frozenset({"q"}))
    empty, witness = is_empty(a)
    assert empty and witness is None


def test_is_empty_witness_is_accepted():
    a = inf_many("a", "b")
    empty, witness = is_empty(a)
    assert not empty
    assert lasso_membership(a, witness.word()).accepted


def test_intersection_language():
    infa = inf_many("a", "b")
    infb = inf_many("b", "a")
    both = intersect(infa, infb)
    assert lasso_membership(both, UpWord((), ("a", "b"))).accepted
    assert not lasso_membership(both, UpWord((), ("a",))).accepted
    assert not lasso_membership(both, UpWord(("a",), ("b",))).accepted


def test_intersection_without_an_initial_pair_is_one_dead_state():
    a = parse_nbw("nbw\nalphabet: a\nstates: p\ninitial:\naccepting: p\ntrans: p a -> p\n")
    b = parse_nbw("nbw\nalphabet: a\nstates: q\ninitial: q\naccepting: q\ntrans: q a -> q\n")
    for left, right in ((a, b), (b, a)):
        c = intersect(left, right)
        assert (c.states, c.initial, c.accepting) == (("(dead)",), frozenset(), frozenset())
        assert is_empty(c) == (True, None)


def test_intersection_requires_shared_alphabet():
    with pytest.raises(AlphabetMismatchError):
        intersect(inf_many("a", "b"), inf_many("a", "c"))


@given(seeded_nbws(max_states=3), st.integers(min_value=0, max_value=9999))
def test_intersection_agrees_with_conjunction(a, seed2):
    from buchicong import random_nbw

    b = random_nbw(seed2, 2)
    prod = intersect(a, b)
    for w in canonical_corpus(a.alphabet, 1, 2):
        want = lasso_membership(a, w).accepted and lasso_membership(b, w).accepted
        assert lasso_membership(prod, w).accepted == want


# sha256 over serialize_nbw(intersect(a, b)) and repr(is_empty(intersect(a,
# b))) on a fixed corpus: any change to the product's states, their names
# or order, its transitions or the lasso found in it shows here
INTERSECT_DIGEST = "3b597411b5caa250474282539adf0a5fd7da0637011ba64c83f8104614798ba9"


def intersect_pairs() -> list[tuple[Nbw, Nbw]]:
    pairs = [(random_nbw(s, 1 + s % 7), random_nbw(s + 11, 1 + s % 5)) for s in range(4000, 4600)]
    abc = ("a", "b", "c")
    pairs += [(random_nbw(s, 2 + s % 4, abc), random_nbw(s + 11, 1 + s % 3, abc)) for s in range(4600, 4660)]
    pairs += [(gen_bn(n), gen_bn_dbw(n)) for n in range(1, 5)]
    return pairs + [(gen_bn_dbw(n), gen_bn(n)) for n in range(1, 5)]


def test_intersection_outputs_are_pinned():
    h = hashlib.sha256()
    for a, b in intersect_pairs():
        c = intersect(a, b)
        h.update(serialize_nbw(c).encode())
        h.update(repr(is_empty(c)).encode())
    assert h.hexdigest() == INTERSECT_DIGEST


@given(seeded_nbws(max_states=4), seeded_nbws(max_states=4))
def test_product_search_matches_the_named_product(a, b):
    # the verdict pass drops intersect's counter; the witness pass keeps it,
    # so its stem and cycle length are the named product's, and only the
    # cycle's letters may differ where a letter's targets tie
    empty, lasso = is_empty(intersect(a, b))
    word = _product_lasso(a, b)
    assert (word is None) == empty
    if not empty:
        named = lasso.word()
        assert word.prefix == named.prefix and len(word.period) == len(named.period)
        assert lasso_membership(a, word).accepted and lasso_membership(b, word).accepted


def shared_tail_chain(k: int) -> Nbw:
    """k accepting chain states that each step into one shared tail of k
    non-accepting states ending in a self-loop, so no accepting state lies
    on a cycle; a cycle test that rescanned the tail for each of the k
    candidates would expand about k * k nodes."""
    chain = [f"c{i}" for i in range(k)]
    tail = [f"t{i}" for i in range(k)]
    trans = {(c, "a"): frozenset({tail[0], *chain[i + 1:i + 2]}) for i, c in enumerate(chain)}
    trans.update({(t, "a"): frozenset({tail[min(i + 1, k - 1)]}) for i, t in enumerate(tail)})
    return Nbw(Alphabet(("a",)), tuple(chain + tail), frozenset({"c0"}), trans, frozenset(chain))


def test_lasso_search_expands_each_node_a_bounded_number_of_times(monkeypatch):
    a = shared_tail_chain(2000)
    counts = {"expanded": 0, "cycle test": 0}
    search, components = automata._find_accepting_lasso, automata.cyclic_components

    def counted_search(roots, successors, is_acc):
        def counted(x):
            counts["expanded"] += 1
            return successors(x)

        return search(roots, counted, is_acc)

    def counted_components(successors):
        def counted(x):
            counts["cycle test"] += 1
            return successors(x)

        return components(counted)

    monkeypatch.setattr(automata, "_find_accepting_lasso", counted_search)
    monkeypatch.setattr(automata, "cyclic_components", counted_components)
    assert is_empty(a) == (True, None)
    # every successors call is counted, so a few per node, not one per
    # (candidate, tail node) pair: the BFS, the first candidate's failed
    # return search and its Tarjan run each expand every node once; the
    # search reaches every node, so it expands each at least once
    assert len(a.states) <= counts["expanded"] <= 3 * len(a.states)
    assert counts["cycle test"] <= 3 * len(a.states)


def test_membership_oracle_reads_each_row_a_bounded_number_of_times():
    # on (epsilon, a) the word graph is the automaton itself; the failed
    # return search of the first candidate must settle the graph, or each
    # later candidate walks the whole tail again
    a = shared_tail_chain(1000)
    word = UpWord((), ("a",))

    class CountedRows(tuple):
        reads = 0

        def __getitem__(self, q):
            self.reads += 1
            return tuple.__getitem__(self, q)

    rows, acc = a.adjacency()
    rows = CountedRows(rows)
    object.__setattr__(a, "_adjacency", (rows, acc))
    assert lasso_membership(a, word) == MembershipVerdict(False, None)
    # the walk, the failed return search and the Tarjan run each read a
    # node's row once
    nodes, reads = len(a.states) * len(word.prefix + word.period), rows.reads
    assert nodes <= reads <= 3 * nodes


def test_lasso_search_runs_no_tarjan_search_when_the_first_candidate_closes_a_cycle(monkeypatch):
    # the first accepting state the BFS meets, hit, loops on a: its return
    # search finds the cycle, so no candidate needs a Tarjan run
    called = []
    components = automata.cyclic_components

    def counted_components(successors):
        def counted(x):
            called.append(x)
            return successors(x)

        return components(counted)

    monkeypatch.setattr(automata, "cyclic_components", counted_components)
    assert is_empty(inf_many("a", "b")) == (False, Lasso(("wait", "hit"), ("a",), ("hit",), ("a",)))
    assert called == []


def test_simulation_reduction_keeps_the_language_and_never_grows():
    def transitions(c: Nbw) -> int:
        return sum(map(len, c.transitions.values()))

    shrunk = 0
    for s in range(2000, 2100):
        a = random_nbw(s, 2 + s % 5)
        for build in (complement_fdfw_optimal, complement_fdfw_improved):
            c = fdfw_to_nbw(build(a))
            r = automata._simulation_reduce(c)
            assert len(r.states) <= len(c.states) and transitions(r) <= transitions(c), s
            shrunk += len(r.states) < len(c.states)
            for w in canonical_corpus(a.alphabet, 2, 2):
                assert lasso_membership(r, w).accepted == lasso_membership(c, w).accepted, (s, w)
    assert shrunk > 0


def test_product_search_with_an_automaton_without_transitions_is_empty():
    # the right side accepts nothing: its one state has no transition, so
    # no pair lies on a cycle
    a = inf_many("a", "b")
    nothing = Nbw(a.alphabet, ("r",), frozenset({"r"}), {}, frozenset())
    assert _product_lasso(a, nothing) is None


@st.composite
def layered_nbws(draw, symbols: tuple[str, ...] = ("a", "b")) -> Nbw:
    """An automaton whose states fall into two to four layers, with edges
    only inside a layer or into a later one, so it has at least one
    component per layer: cyclic or trivial, with or without an accepting
    state."""
    sizes = draw(st.lists(st.integers(min_value=1, max_value=3), min_size=2, max_size=4))
    layer = [k for k, size in enumerate(sizes) for _ in range(size)]
    states = tuple(f"s{i}" for i in range(len(layer)))
    trans = {}
    for i, q in enumerate(states):
        later = [r for j, r in enumerate(states) if layer[j] >= layer[i]]
        for sym in symbols:
            targets = draw(st.sets(st.sampled_from(later), max_size=2))
            if targets:
                trans[q, sym] = frozenset(targets)
    initial = {states[0], *draw(st.sets(st.sampled_from(states), max_size=1))}
    accepting = draw(st.sets(st.sampled_from(states)))
    return Nbw(Alphabet(symbols), states, frozenset(initial), trans, frozenset(accepting))


@given(seeded_nbws(max_states=5), layered_nbws())
def test_product_verdict_matches_the_tarjan_pass_over_every_pair(a, b):
    assert (_product_lasso(a, b) is None) == (not product_verdict_tarjan(a, b))


def universal(alphabet: Alphabet) -> Nbw:
    """One accepting state that loops on every symbol."""
    return Nbw(alphabet, ("u",), frozenset({"u"}), {("u", sym): frozenset({"u"}) for sym in alphabet}, frozenset({"u"}))


def chain(edges: dict[tuple[str, str], str], accepting: str) -> Nbw:
    """A deterministic automaton over a, b from its edges, starting in x."""
    states = tuple(dict.fromkeys(["x", *(q for q, _ in edges), *edges.values()]))
    trans = {key: frozenset({r}) for key, r in edges.items()}
    return Nbw(Alphabet(("a", "b")), states, frozenset({"x"}), trans, frozenset(accepting.split()))


PRODUCT_VERDICT_CASES = {
    # x accepts but lies on no cycle; the cycle it leads to does not accept
    "accepting state on a trivial component": (universal, chain({("x", "a"): "y", ("y", "a"): "y"}, "x"), False),
    # the cycle y z accepts nothing, and the accepting f has no edge
    "only cycle without an accepting state": (
        universal,
        chain({("x", "a"): "y", ("y", "a"): "z", ("z", "a"): "y", ("x", "b"): "f"}, "f"),
        False,
    ),
    # f's component is the single state f, cyclic through its self-loop
    "self-loop": (universal, chain({("x", "a"): "f", ("f", "a"): "f"}, "f"), True),
    # x's component, a b-loop, is not live: the forward search reaches
    # (u, f) and starts the Tarjan run that finds the accepting component
    "accepting component behind a component that is not live": (
        universal,
        chain({("x", "b"): "x", ("x", "a"): "f", ("f", "a"): "f"}, "f"),
        True,
    ),
    # both components of b, x's b-loop and f's a-loop, are live, but a
    # accepts only in f's: the Tarjan run inside x's component hands the
    # edge on a to the forward search, which starts the run that finds it
    "accepting component behind a live one": (
        lambda alphabet: inf_many("a", "b"),
        chain({("x", "b"): "x", ("x", "a"): "f", ("f", "a"): "f"}, "x f"),
        True,
    ),
}


@pytest.mark.parametrize("case", PRODUCT_VERDICT_CASES)
def test_product_verdict_on_hand_made_components(case):
    left, b, non_empty = PRODUCT_VERDICT_CASES[case]
    a = left(b.alphabet)
    assert product_verdict_tarjan(a, b) == non_empty
    assert (_product_lasso(a, b) is not None) == non_empty


def live_states(b: Nbw) -> set[int]:
    """The state indices of b whose component is cyclic and holds an
    accepting state, found by reachability alone."""
    rows, acc = b.adjacency()
    reaches = steps_reach(rows)
    return {
        q
        for q in range(len(b.states))
        if q in reaches[q] and any(acc[r] and r in reaches[q] and q in reaches[r] for r in range(len(b.states)))
    }


def test_product_verdict_runs_tarjan_only_inside_live_components(monkeypatch):
    # on a product that is empty, the verdict is the only pass: the first
    # Tarjan routine _product_lasso makes runs over the complement alone,
    # and the second one is the verdict's, over the pairs
    x, b = random_nbw(1729, 320), random_nbw(1730, 4)
    a = intersect(x, b)
    c = automata._simulation_reduce(fdfw_to_nbw(complement_fdfw_optimal(b)))
    expanded: list[list] = []
    components = automata.cyclic_components

    def counted_components(successors):
        calls = []
        expanded.append(calls)

        def counted(node):
            calls.append(node)
            return successors(node)

        return components(counted)

    monkeypatch.setattr(automata, "cyclic_components", counted_components)
    assert _product_lasso(a, c) is None
    monkeypatch.undo()
    assert len(expanded) == 2
    na, live = len(a.states), live_states(c)
    assert live < set(range(len(c.states)))  # some pairs are only searched
    pairs = expanded[1]
    assert len(pairs) == len(set(pairs))
    assert all(pair // na in live for pair in pairs)

    (rows_a, _), (rows_c, _) = a.adjacency(), c.adjacency()
    roots = [(a.index(p), c.index(q)) for p in a.initial for q in c.initial]
    keys, _, _, _, steps = explore(
        roots, lambda pq: [[(pp, qq) for pp in ta for qq in tc] for ta, tc in zip(rows_a[pq[0]], rows_c[pq[1]])]
    )
    for _ in steps:
        pass
    assert 0 < len(pairs) < len(keys)


# --- dense graph core ---------------------------------------------------------------------


@st.composite
def int_graphs(draw):
    """Edges of a graph on the nodes 0 .. n - 1, one target list per letter."""
    n = draw(st.integers(min_value=1, max_value=8))
    letters = draw(st.integers(min_value=1, max_value=2))
    node = st.integers(min_value=0, max_value=n - 1)
    return [[draw(st.lists(node, max_size=3)) for _ in range(letters)] for _ in range(n)]


def steps_reach(adj) -> list[set[int]]:
    """Per node, the nodes it reaches in one or more steps."""
    out = []
    for i in range(len(adj)):
        seen: set[int] = set()
        todo = [j for targets in adj[i] for j in targets]
        while todo:
            j = todo.pop()
            if j not in seen:
                seen.add(j)
                todo += [k for targets in adj[j] for k in targets]
        out.append(seen)
    return out


# node 0 has a self-loop, node 1 no edge at all, nodes 2 and 3 form a cycle
# that node 0 does not reach, and node 4 is reached only from that cycle
@example([[[0]], [[]], [[3]], [[2, 4]], [[]]])
@given(int_graphs())
def test_cyclic_components_match_mutual_reachability(adj):
    visit = cyclic_components(lambda i: itertools.chain.from_iterable(adj[i]))
    found = [c for root in range(len(adj)) for c in visit(root)]
    comp = {i: cid for cid, (nodes, _) in enumerate(found) for i in nodes}
    cyclic = [flag for _, flag in found]
    reaches = steps_reach(adj)
    for i in range(len(adj)):
        assert cyclic[comp[i]] == (i in reaches[i])
        for j in range(len(adj)):
            mutual = i == j or (j in reaches[i] and i in reaches[j])
            assert (comp[i] == comp[j]) == mutual


@st.composite
def lasso_graphs(draw):
    """An int_graphs() graph with drawn roots and accepting nodes."""
    adj = draw(int_graphs())
    node = st.integers(min_value=0, max_value=len(adj) - 1)
    return adj, draw(st.lists(node, max_size=3)), draw(st.sets(node))


# node 0 is accepting and on no cycle, and its Tarjan run settles the cycle
# 1 -> 2 -> 1 before the BFS meets the accepting node 2; from root 3, the
# accepting node 4 steps into that settled cycle before it loops back
@example(([[[1]], [[2]], [[1]]], [0], {0, 2}))
@example(([[[1]], [[2]], [[1]], [[4]], [[1, 3]]], [0, 3], {0, 4}))
@given(lasso_graphs())
def test_lasso_search_matches_the_tarjan_first_search(graph):
    adj, roots, acc = graph
    want = find_accepting_lasso_tarjan(roots, adj.__getitem__, acc.__contains__)
    assert automata._find_accepting_lasso(roots, adj.__getitem__, acc.__contains__) == want


@example([[[0]], [[]], [[3]], [[2, 4]], [[]]])
@given(int_graphs())
def test_explore_finds_shortest_paths_in_numbering_order(adj):
    # explore numbers the nodes reachable from node 0 in discovery order
    keys, _, pred, via, steps = explore([0], adj.__getitem__)
    found = list(steps)
    assert sorted(keys) == sorted({0} | steps_reach(adj)[0]) and len(found) == len(keys)
    dist = {0: 0}
    layer = [0]
    while layer:
        nxt = []
        for i in layer:
            for targets in adj[i]:
                for j in targets:
                    if j not in dist:
                        dist[j] = dist[i] + 1
                        nxt.append(j)
        layer = nxt
    for i, node in enumerate(keys):
        nodes, letters = path_to(pred, via, i)
        assert nodes[0] == 0 and nodes[-1] == i and len(letters) == dist[node]
        for src, k, dst in zip(nodes, letters, nodes[1:]):
            assert keys[dst] in adj[keys[src]][k]


# --- text formats ----------------------------------------------------------------------


@given(seeded_nbws())
def test_native_format_round_trip(a):
    b = parse_nbw(serialize_nbw(a))
    assert b.alphabet == a.alphabet
    assert b.states == a.states
    assert b.initial == a.initial
    assert b.accepting == a.accepting
    assert {k: v for k, v in b.transitions.items() if v} == {
        k: v for k, v in a.transitions.items() if v
    }


def test_parse_accepts_comments_and_bytes(b3):
    text = "# heading\n" + serialize_nbw(b3) + "# trailing\n"
    assert parse_nbw(text.encode()).states == b3.states


def test_parse_hoa_subset():
    text = """HOA: v1
States: 2
Start: 0
Alphabet: a b
Acceptance: 1 Inf(0)
--BODY--
State: 0
a 0
b 1
State: 1 {0}
a 0
b 1
--END--
"""
    a = parse_nbw(text)
    assert len(a.states) == 2
    assert a.initial == frozenset({a.states[0]})
    assert a.accepting == frozenset({a.states[1]})
    assert lasso_membership(a, UpWord((), ("b",))).accepted


def _hoa_text(a: Nbw) -> str:
    """`a`, whose states must be s0, s1, ... in order, in the HOA subset with
    one Start: line per initial state."""
    lines = ["HOA: v1", f"States: {len(a.states)}"]
    lines += [f"Start: {a.index(q)}" for q in a.sort_states(a.initial)]
    lines += ["Alphabet: " + " ".join(a.alphabet), "Acceptance: Buchi", "--BODY--"]
    for q in a.states:
        lines.append(f"State: {a.index(q)}" + (" {0}" if q in a.accepting else ""))
        for sym in a.alphabet:
            lines += [f"{sym} {a.index(r)}" for r in a.sort_states(a.successors(q, sym))]
    return "\n".join(lines + ["--END--"]) + "\n"


@given(seeded_nbws(max_states=3), st.integers(min_value=0, max_value=10**6), st.booleans())
def test_text_formats_read_back_and_reject_damage_as_parse_errors(a, pick, duplicate):
    hoa = _hoa_text(a)
    assert serialize_nbw(parse_nbw(hoa)) == serialize_nbw(a)
    # deleting or duplicating one line yields a text that parses or is a
    # ParseError, never another exception
    family = serialize_fdfw(complement_fdfw_optimal(a))
    for text, parse in ((serialize_nbw(a), parse_nbw), (hoa, parse_nbw), (family, parse_fdfw)):
        lines = text.splitlines(keepends=True)
        i = pick % len(lines)
        damaged = lines[:i + 1] + lines[i:] if duplicate else lines[:i] + lines[i + 1:]
        try:
            parse("".join(damaged))
        except ParseError:
            pass


def test_parse_rejects_malformed_input():
    with pytest.raises(ParseError):
        parse_nbw("")
    with pytest.raises(ParseError):
        parse_nbw("nbw\nalphabet: a\nstates: p\ninitial: q\naccepting:\n")
    with pytest.raises(ParseError):
        parse_nbw("nbw\nalphabet: a a\nstates: p\ninitial: p\naccepting:\n")
    with pytest.raises(ParseError) as exc:
        # a HOA state line without its index
        parse_nbw(
            "HOA: v1\nStates: 1\nStart: 0\nAlphabet: a\n"
            "Acceptance: Buchi\n--BODY--\nState:\na 0\n--END--\n"
        )
    assert exc.value.line == 7
    # a non-integer or negative state count, an out-of-range start and a
    # non-integer edge target, each reported at its own line
    for states, start, edge, line in (
        ("two", "0", "a 0", 2),
        ("-2", "0", "a 0", 2),
        ("1", "5", "a 0", 3),
        ("1", "0", "a x", 8),
    ):
        with pytest.raises(ParseError) as exc:
            parse_nbw(
                f"HOA: v1\nStates: {states}\nStart: {start}\nAlphabet: a\n"
                f"Acceptance: Buchi\n--BODY--\nState: 0\n{edge}\n--END--\n"
            )
        assert exc.value.line == line
    # a repeated States:, Alphabet: or Acceptance: header, which used to
    # override the earlier one silently, is an error at the repeat
    hoa = (
        "HOA: v1\nStates: 2\nStart: 0\nAlphabet: a\nAcceptance: Buchi\n"
        "--BODY--\nState: 0\na 0\n--END--\n"
    )
    for first, second, line in (
        ("States: 2", "States: 1", 3),
        ("Alphabet: a", "Alphabet: a b", 5),
        ("Acceptance: Buchi", "Acceptance: 1 Inf(0)", 6),
    ):
        with pytest.raises(ParseError) as exc:
            parse_nbw(hoa.replace(first, f"{first}\n{second}"))
        assert exc.value.line == line
    # a second State: line for an index, which used to merge its edges and
    # marks into the first, is an error at the repeat
    with pytest.raises(ParseError) as exc:
        parse_nbw(
            "HOA: v1\nStates: 2\nStart: 0\nAlphabet: a\nAcceptance: Buchi\n--BODY--\n"
            "State: 0\na 1\nState: 1\na 1\nState: 0 {0}\na 0\n--END--\n"
        )
    assert exc.value.line == 11


def test_hoa_marks_follow_the_acceptance_signature():
    # {} puts the state in no set and Buchi acceptance declares set 0 alone;
    # both used to make the state accepting
    hoa = (
        "HOA: v1\nStates: 1\nStart: 0\nAlphabet: a\nAcceptance: Buchi\n"
        "--BODY--\nState: 0 {mark}\na 0\n--END--\n"
    )
    assert parse_nbw(hoa.format(mark="{0}")).accepting == frozenset({"s0"})
    assert parse_nbw(hoa.format(mark="{}")).accepting == frozenset()
    for mark in ("{1}", "{0 1}"):
        with pytest.raises(ParseError, match="acceptance set '1'") as exc:
            parse_nbw(hoa.format(mark=mark))
        assert exc.value.line == 7


def test_parse_errors_name_their_line():
    nbw = "nbw\nalphabet: a\nstates: p q\ninitial: p\naccepting: q\ntrans: p a -> q\n"
    for old, new, message in (
        # a state id `->` used to fail later, in Nbw, without its line
        ("states: p q", "states: -> q", "invalid state token '->'"),
        ("states: p q", "states: p p", "duplicate state declaration"),
        ("alphabet: a", "alphabet:", "alphabet must be non-empty"),
        ("trans: p a -> q", "trans: p a q", "expected 'trans:"),
        ("trans: p a -> q", "trans: p b -> q", "undeclared symbol 'b'"),
        ("trans: p a -> q", "trans: p a -> r", "undeclared state 'r'"),
    ):
        with pytest.raises(ParseError, match=message) as exc:
            parse_nbw(nbw.replace(old, new))
        assert exc.value.line == nbw.splitlines().index(old) + 1
    hoa = (
        "HOA: v1\nStates: 2\nStart: 0\nAlphabet: a\nAcceptance: Buchi\n"
        "--BODY--\nState: 0\na 1\n--END--\n"
    )
    for old, new, message in (
        ("State: 0", "State: 2", "state index 2 out of range"),
        ("a 1", "a 1 1", "expected '<symbol> <target-index>'"),
        ("a 1", "b 1", "undeclared symbol 'b'"),
        ("a 1", "a 2", "state index 2 out of range"),
    ):
        with pytest.raises(ParseError, match=message) as exc:
            parse_nbw(hoa.replace(old, new))
        assert exc.value.line == hoa.splitlines().index(old) + 1


@given(seeded_nbws(max_states=6))
def test_compiled_masks_match_successors(a):
    succ, acc = a.bitmasks()
    assert a.bitmasks() is a.bitmasks()

    def decode(mask: int) -> frozenset[str]:
        assert 0 <= mask < 1 << len(a.states)
        return frozenset(q for i, q in enumerate(a.states) if mask >> i & 1)

    assert set(succ) == set(a.alphabet)
    for sym in a.alphabet:
        assert len(succ[sym]) == len(a.states)
        for i, q in enumerate(a.states):
            assert decode(succ[sym][i]) == a.successors(q, sym)
    assert decode(acc) == a.accepting


@given(seeded_nbws(max_states=6))
def test_adjacency_matches_successors(a):
    rows, acc = a.adjacency()
    assert a.adjacency() is a.adjacency()
    assert len(rows) == len(a.states)
    for i, q in enumerate(a.states):
        assert rows[i] == tuple(tuple(sorted(a.index(r) for r in a.successors(q, sym))) for sym in a.alphabet)
    assert acc == bytes(q in a.accepting for q in a.states)
