"""Shared fixtures: benchmark pools, complement pipelines computed once per
session, hypothesis profile, and the acceptance reporter that mirrors one
PASS/FAIL line per criterion into the terminal summary."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from buchicong import (
    Alphabet,
    CongruenceDfw,
    Fdfw,
    Nbw,
    UpWord,
    accepts_upword,
    canonical_upwords,
    complement_fdfw_improved,
    complement_fdfw_optimal,
    fdfw_to_nbw,
    gen_bn,
    lasso_membership,
    optimal_leading_congruence,
    optimal_progress_congruence,
    progress_congruence_improved,
    random_nbw,
    subset_congruence,
)
from buchicong.cli import DEFAULT_SEED
from buchicong.profiles import classical_congruence

settings.register_profile(
    "suite",
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


# --- strategies ---------------------------------------------------------------


def seeded_nbws(max_states: int = 4, symbols: tuple[str, ...] = ("a", "b")):
    return st.builds(
        random_nbw,
        st.integers(min_value=0, max_value=9999),
        st.integers(min_value=1, max_value=max_states),
        st.just(symbols),
    )


def words(symbols: tuple[str, ...] = ("a", "b"), max_len: int = 5):
    return st.lists(st.sampled_from(symbols), max_size=max_len).map(tuple)


# --- corpora -------------------------------------------------------------------


def canonical_corpus(alphabet: Alphabet, max_u: int, max_v: int) -> list[UpWord]:
    """Distinct infinite words with some decomposition within the bounds."""
    return canonical_upwords(alphabet, max_u, max_v)


def pool_automaton(i: int) -> Nbw:
    """Member i of the seeded benchmark pool: 2 to 4 states, two symbols."""
    return random_nbw(DEFAULT_SEED + i, 2 + i % 3)


def bound_pool_automaton(i: int) -> Nbw:
    """Member i of the class-count pool: 3 to 4 states, two symbols.  The
    arrangement-count cap checked by the acceptance gate is provable at these
    sizes; an incomplete two-state automaton can exceed it by one through the
    dead class (pinned as a regression in test_preorder)."""
    return random_nbw(DEFAULT_SEED + i, 3 + i % 2)


def witnesses(dfw: CongruenceDfw) -> list:
    """dfw.witness(c) for every class c, in class order."""
    return [dfw.witness(c) for c in range(len(dfw))]


def edge_members(dfw: CongruenceDfw):
    """(class id, member) for every edge src --sym--> cid of the rows: the
    word witness(src) + (sym,) belongs to class cid."""
    for src, word in enumerate(witnesses(dfw)):
        for sym in dfw.alphabet.symbols:
            yield dfw.rows[sym][src], word + (sym,)


# --- handcrafted families --------------------------------------------------------


def single_word_family() -> Fdfw:
    """One leading class over {a, b}; its progress structure accepts exactly
    the word ab.  Not saturated: the infinite word (ab)^omega owns both a
    captured decomposition (ab, ab) and an uncaptured one (ab, abab)."""
    alphabet = Alphabet(("a", "b"))
    lead = CongruenceDfw(alphabet, ("s",), {"a": [0], "b": [0]}, [-1], [-1])
    # the witnesses are (), a, a b and b
    rows = {"a": [1, 3, 3, 3], "b": [3, 2, 3, 3]}
    payloads = tuple(f"n{i}" for i in range(4))
    prog = CongruenceDfw(alphabet, payloads, rows, [-1, 0, 1, 0], [-1, 0, 1, 1], accepting=frozenset({2}))
    return Fdfw(alphabet, lead, {0: prog}, saturated=False)


# a family whose one leading class is named `->`, which no text format allows
# as a state id; its `states:` line is line 4
ARROW_CLASS_FAMILY = """fdfw
alphabet: a
leading:
states: ->
initial: ->
trans: -> a -> ->
progress ->:
states: n0
initial: n0
accepting: n0
trans: n0 a -> n0
"""


def mixed_blocks_nbw() -> Nbw:
    """Three fully initial states where state 3 alone is accepting and the two
    letters hand acceptance chances back and forth.  Its complement families
    have accepting progress classes that do not compose with each other, so
    the family-to-automaton translation must keep their blocks apart."""
    alphabet = Alphabet(("a", "b"))
    states = ("1", "2", "3")
    trans = {
        ("1", "a"): frozenset({"1", "3"}),
        ("2", "a"): frozenset({"2"}),
        ("3", "a"): frozenset({"2"}),
        ("1", "b"): frozenset({"1"}),
        ("2", "b"): frozenset({"2", "3"}),
        ("3", "b"): frozenset({"1"}),
    }
    return Nbw(alphabet, states, frozenset(states), trans, frozenset({"3"}))


# --- session-scoped heavy fixtures ------------------------------------------------


@pytest.fixture(scope="session")
def b3() -> Nbw:
    return gen_bn(3)


@pytest.fixture(scope="session")
def random_pool() -> list[tuple[str, Nbw]]:
    """100 seeded automata, 3 to 4 states each, for the bound and refinement
    properties."""
    return [(f"rnd{i}", bound_pool_automaton(i)) for i in range(100)]


@dataclass
class PoolRelations:
    """Every congruence of one pool automaton, built once."""

    aid: str
    nbw: Nbw
    classical: CongruenceDfw
    subset: CongruenceDfw
    improved: dict[int, CongruenceDfw]
    optimal: CongruenceDfw
    optimal_progress: dict[int, CongruenceDfw]


@pytest.fixture(scope="session")
def pool_relations(random_pool) -> tuple[list[PoolRelations], float]:
    t0 = time.perf_counter()
    rows = []
    for aid, a in random_pool:
        lead = subset_congruence(a)
        olead = optimal_leading_congruence(a)
        rows.append(
            PoolRelations(
                aid,
                a,
                classical_congruence(a),
                lead,
                {m: progress_congruence_improved(a, lead, m) for m in range(len(lead))},
                olead,
                {m: optimal_progress_congruence(a, olead, m) for m in range(len(olead))},
            )
        )
    return rows, time.perf_counter() - t0


@dataclass
class ComplementRun:
    """One complement pipeline: the family, its automaton translation, and
    both verdict maps over the corpus."""

    family: Fdfw
    nbw: Nbw
    family_accepts: dict[UpWord, bool]
    nbw_accepts: dict[UpWord, bool] = field(default_factory=dict)


@dataclass
class CorpusRun:
    aid: str
    nbw: Nbw
    corpus: list[UpWord]
    oracle: dict[UpWord, bool]
    variants: dict[str, ComplementRun]


@pytest.fixture(scope="session")
def complement_runs(b3) -> tuple[list[CorpusRun], float]:
    """Both complement variants of the permutation automaton and 50 seeded
    random automata, with family, translated automaton, and corpus verdicts
    (decomposition bounds 3/3) computed once for the whole session."""
    t0 = time.perf_counter()
    automata = [("bn3", b3)]
    automata += [(f"rnd{i}", pool_automaton(i)) for i in range(50)]
    rows = []
    for aid, a in automata:
        corpus = canonical_corpus(a.alphabet, 3, 3)
        oracle = {w: lasso_membership(a, w).accepted for w in corpus}
        variants = {}
        for name, build in (
            ("optimal", complement_fdfw_optimal),
            ("improved", complement_fdfw_improved),
        ):
            f = build(a)
            nbw = fdfw_to_nbw(f)
            variants[name] = ComplementRun(
                f,
                nbw,
                {w: accepts_upword(f, w) for w in corpus},
                {w: lasso_membership(nbw, w).accepted for w in corpus},
            )
        rows.append(CorpusRun(aid, a, corpus, oracle, variants))
    return rows, time.perf_counter() - t0


# --- acceptance reporting ----------------------------------------------------------

_AC_LINES: list[str] = []


def record_criterion(name: str, ok: bool, detail: str = "") -> None:
    line = f"{name} {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    _AC_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _AC_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _AC_LINES:
            terminalreporter.write_line(line)
