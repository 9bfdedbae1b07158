"""Pair profiles, their congruences, and the folded periodic membership test."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from buchicong import (
    Alphabet,
    BudgetExceededError,
    Nbw,
    Profile,
    UpWord,
    classical_congruence,
    complement_fdfw_improved,
    gen_bn,
    gen_bn_dbw,
    lasso_membership,
    optimal_leading_congruence,
    optimal_progress_congruence,
    periodic_membership_from_profile,
    progress_congruence_improved,
    random_nbw,
    serialize_dfw,
    subset_congruence,
)
from buchicong import profiles
from buchicong.profiles import DEFAULT_CLASS_BUDGET, _row_compose, compose, letter_profile
from conftest import edge_members, seeded_nbws, witnesses, words
from reference import (
    epsilon_profile,
    image,
    periodic_membership_tarjan,
    profile_congruence_packed,
    reach,
    restrict,
    state_mask,
    step,
    unpack_profile,
    word_profile,
)
from test_automata import inf_many


def brute_profile(a: Nbw, word) -> Profile:
    """Independent reference: track (state, visited-acceptance) pairs per
    source state, letter by letter, with no mask arithmetic."""
    n = len(a.states)
    out_r = [0] * n
    out_rf = [0] * n
    for i, q in enumerate(a.states):
        frontier = {(q, q in a.accepting)}
        for sym in word:
            nxt = set()
            for state, hit in frontier:
                for r in a.successors(state, sym):
                    nxt.add((r, hit or r in a.accepting))
            frontier = nxt
        for state, hit in frontier:
            j = a.index(state)
            out_r[i] |= 1 << j
            if hit:
                out_rf[i] |= 1 << j
    return Profile(tuple(out_r), tuple(out_rf))


# --- profile values ---------------------------------------------------------------


def test_profile_rejects_visit_outside_reach():
    # the constructor checks nothing; the public readers reject a visit
    # outside reach and rows of different lengths
    good = Profile((1,), (0,))
    for bad in (Profile((0,), (1,)), Profile((1,), (0, 0))):
        with pytest.raises(ValueError, match="reach_f needs"):
            periodic_membership_from_profile(bad, 1)
        for pair in ((bad, good), (good, bad)):
            with pytest.raises(ValueError, match="reach_f needs"):
                compose(*pair)


def test_epsilon_profile_is_identity_with_accepting_diagonal():
    a = inf_many("a", "b")
    p = epsilon_profile(a)
    assert p.reach == tuple(1 << i for i in range(len(a.states)))
    hit, wait = a.index("hit"), a.index("wait")
    assert p.reach_f[hit] == 1 << hit
    assert p.reach_f[wait] == 0


def test_letter_profile_marks_either_endpoint():
    a = inf_many("a", "b")
    hit, wait = a.index("hit"), a.index("wait")
    p = letter_profile(a, "a")
    # every a-move lands on the accepting state, so reach and reach_f agree
    assert p.reach == p.reach_f
    q = letter_profile(a, "b")
    # b-moves land on the waiting state; only the accepting source is marked
    assert q.reach[hit] == 1 << wait and q.reach_f[hit] == 1 << wait
    assert q.reach[wait] == 1 << wait and q.reach_f[wait] == 0


@given(seeded_nbws(), words(max_len=4))
def test_word_profile_matches_run_enumeration(a, w):
    assert word_profile(a, w) == brute_profile(a, w)


@given(seeded_nbws(), words(max_len=3), words(max_len=3))
def test_profile_composition_is_concatenation(a, x, y):
    got = compose(word_profile(a, x), word_profile(a, y))
    assert got == word_profile(a, x + y)


def test_compose_rejects_size_mismatch():
    with pytest.raises(ValueError, match="sizes differ"):
        compose(Profile((1,), (0,)), Profile((1, 2), (0, 0)))


# --- restriction and periodic membership ----------------------------------------------


def test_restrict_zeroes_foreign_rows():
    a = inf_many("a", "b")
    wait = 1 << a.index("wait")
    p = restrict(word_profile(a, ("b",)), wait)
    assert p.reach[a.index("hit")] == 0
    assert p.reach_f[a.index("hit")] == 0
    assert p.reach[a.index("wait")] == wait
    assert image(p) == wait


def test_periodic_membership_requires_stable_image():
    a = inf_many("a", "b")
    wait = 1 << a.index("wait")
    bad = restrict(word_profile(a, ("a",)), wait)
    with pytest.raises(ValueError, match="image"):
        periodic_membership_from_profile(bad, wait)
    # a row of a state outside the sources makes the fold meaningless too
    foreign = word_profile(a, ("b",))
    assert image(foreign) == wait
    with pytest.raises(ValueError, match="outside the source set"):
        periodic_membership_from_profile(foreign, wait)


def test_periodic_membership_on_known_loops():
    a = inf_many("a", "b")
    hit, wait = 1 << a.index("hit"), 1 << a.index("wait")
    stays_out = restrict(word_profile(a, ("b",)), wait)
    assert not periodic_membership_from_profile(stays_out, wait)
    stays_in = restrict(word_profile(a, ("a",)), hit)
    assert periodic_membership_from_profile(stays_in, hit)
    # a two-letter loop through the accepting state, seen from outside it
    round_trip = restrict(word_profile(a, ("a", "b")), wait)
    assert periodic_membership_from_profile(round_trip, wait)


def run_set(a: Nbw, start: frozenset[str], word) -> frozenset[str]:
    cur = start
    for sym in word:
        cur = step(a, cur, sym)
    return cur


@given(seeded_nbws(max_states=3), words(max_len=3).filter(bool))
def test_periodic_membership_agrees_with_oracle(a, v):
    # walk the subset orbit of v until it repeats, then fold the cycle into
    # one longer period whose source set is stable
    orbit = [a.initial]
    while True:
        nxt = run_set(a, orbit[-1], v)
        if nxt in orbit:
            h = orbit.index(nxt)
            p = len(orbit) - h
            break
        orbit.append(nxt)
    sources = orbit[h]
    if not sources:
        return
    period = v * p
    stem = v * h
    src = state_mask(a, sources)
    p = restrict(word_profile(a, period), src)
    assert image(p) == src
    want = lasso_membership(a, UpWord(stem, period)).accepted
    assert periodic_membership_from_profile(p, src) == want


def test_closure_reader_agrees_with_the_tarjan_fold():
    # every class the improved marking hands to the reader, on 100 random
    # automata of 2 to 6 states
    verdicts = set()
    for s in range(2000, 2100):
        a = random_nbw(s, 2 + s % 5)
        f = complement_fdfw_improved(a)
        for m, prog in f.progress.items():
            sources = f.leading.payloads[m]
            for p in prog.payloads:
                if image(p) == sources:
                    got = periodic_membership_from_profile(p, sources)
                    assert got == periodic_membership_tarjan(p, sources), (s, m, p)
                    verdicts.add(got)
    assert verdicts == {False, True}


# --- congruence structures ---------------------------------------------------------------


def test_classical_class_count_on_permutation_family(b3):
    assert len(classical_congruence(b3)) == 65


def test_classical_bytes_are_pinned():
    # classical_congruence runs the profile builder that every improved
    # progress DFW shares, so these bytes pin that builder too
    corpus = [gen_bn(3), gen_bn_dbw(3)] + [random_nbw(s, 2 + s % 5) for s in range(2000, 2100)]
    digest = hashlib.sha256()
    for a in corpus:
        digest.update(serialize_dfw(classical_congruence(a)).encode())
    assert digest.hexdigest() == "65842ed440a77d46f80be5b0c08d93092c045a9ddca2fb595de84d00734a52d0"


@pytest.mark.parametrize("aid", ["bn3", "rnd1729n6"])
def test_packed_payload_is_the_witness_profile_on_its_sources(aid):
    # a payload is the profile of its class's witness, with every row
    # outside the sources zero
    a = gen_bn(3) if aid == "bn3" else random_nbw(1729, 6)
    n = len(a.states)
    lead = subset_congruence(a)
    relations = [(classical_congruence(a), (1 << n) - 1)]
    relations += [(progress_congruence_improved(a, lead, m), lead.payloads[m]) for m in range(len(lead))]
    for dfw, sources in relations:
        for p, w in zip(dfw.payloads, witnesses(dfw)):
            assert p == restrict(word_profile(a, w), sources)
        # slices read as tuples of profiles, as a tuple column would
        column = tuple(dfw.payloads)
        assert dfw.payloads[0:2] == column[0:2] and dfw.payloads[::-2] == column[::-2]
        assert dfw.payloads[-1] == column[-1]


def test_subset_classes_on_permutation_family(b3):
    lead = subset_congruence(b3)
    assert len(lead) == 6
    payloads = set(lead.payloads)
    assert payloads == {
        state_mask(b3, qs)
        for qs in (("q",), ("q1",), ("q2",), ("q3",), ("q0",), ("q0", "qm1"))
    }


def test_improved_progress_sizes_on_permutation_family(b3):
    lead = subset_congruence(b3)
    sizes = {
        lead.witness(m): len(progress_congruence_improved(b3, lead, m))
        for m in range(len(lead))
    }
    assert sizes == {
        (): 6,
        ("0",): 2,
        ("1",): 9,
        ("2",): 9,
        ("3",): 9,
        ("0", "0"): 2,
    }


def test_budget_stops_exploration(b3):
    with pytest.raises(BudgetExceededError) as err:
        subset_congruence(b3, budget=3)
    assert err.value.budget == 3
    assert err.value.count == 3
    assert err.value.phase == "subset"


def test_witnesses_are_shortest_lex_and_alternates_stay_in_class(b3):
    lead = subset_congruence(b3)
    for witness, payload in zip(witnesses(lead), lead.payloads):
        assert state_mask(b3, reach(b3, witness)) == payload
    for cid, member in edge_members(lead):
        assert state_mask(b3, reach(b3, member)) == lead.payloads[cid]
        assert len(member) >= len(lead.witness(cid))
    by_payload = dict(zip(lead.payloads, witnesses(lead)))
    assert by_payload[state_mask(b3, ("q0", "qm1"))] == ("0", "0")
    assert by_payload[state_mask(b3, ("q",))] == ()


def test_dfw_run_and_accepting_helpers(b3):
    lead = subset_congruence(b3)
    assert lead.run(()) == lead.initial
    assert lead.payloads[lead.run(("1", "1"))] == state_mask(b3, ("q",))
    with pytest.raises(ValueError):
        lead.accepts(("1",))
    marked = lead.with_accepting(frozenset({lead.run(("0",))}))
    assert marked.accepts(("0",))
    assert not marked.accepts(())


def _shortlex_witnesses(dfw) -> dict:
    """Class -> first word reaching it in shortlex order (length, then
    alphabet order), by a breadth-first search that only calls run()."""
    found = {dfw.initial: ()}
    queue = [dfw.initial]
    for c in queue:
        for sym in dfw.alphabet.symbols:
            d = dfw.run((sym,), start=c)
            if d not in found:
                found[d] = found[c] + (sym,)
                queue.append(d)
    return found


@pytest.mark.parametrize("aid", ["bn3", "rnd1729n6"])
def test_witness_is_the_shortlex_first_word_of_every_class(aid):
    a = gen_bn(3) if aid == "bn3" else random_nbw(1729, 6)
    relations = [classical_congruence(a)]
    for build_lead, build_progress in (
        (subset_congruence, progress_congruence_improved),
        (optimal_leading_congruence, optimal_progress_congruence),
    ):
        lead = build_lead(a)
        relations += [lead] + [build_progress(a, lead, m) for m in range(len(lead))]
    for dfw in relations:
        expected = _shortlex_witnesses(dfw)
        assert len(expected) == len(dfw)
        assert [dfw.witness(c) for c in range(len(dfw))] == [expected[c] for c in range(len(dfw))]
        assert len(dfw.witness(len(dfw) - 1)) == max(map(len, expected.values()))


def test_run_rejects_symbols_outside_the_alphabet(b3):
    lead = subset_congruence(b3)
    for word in (("z",), ("1", "z")):
        with pytest.raises(ValueError, match="symbol 'z' not in alphabet"):
            lead.run(word)


def test_one_build_composes_each_row_once_per_letter(monkeypatch):
    # row images depend only on the automaton, so one complement build
    # composes each (source row, letter) once across all its progress DFWs
    calls = [0]

    def counted(row_r, row_rf, second):
        calls[0] += 1
        return _row_compose(row_r, row_rf, second)

    monkeypatch.setattr("buchicong.profiles._row_compose", counted)
    for a in [gen_bn(3), gen_bn_dbw(3), random_nbw(1731, 5), random_nbw(1729, 6)]:
        calls[0] = 0
        f = complement_fdfw_improved(a)
        rows = {
            (p.reach[i], p.reach_f[i], sym)
            for m, prog in f.progress.items()
            for p in prog.payloads
            for i in range(len(a.states))
            if f.leading.payloads[m] >> i & 1
            for sym in a.alphabet
        }
        assert calls[0] == len(rows)


def _columns(dfw, n: int | None = None) -> tuple:
    """Rows, parents, access letters and payloads, as plain lists; given n,
    the payloads are the packed reference's over n states, read as profiles."""
    rows = {sym: list(row) for sym, row in dfw.rows.items()}
    payloads = list(dfw.payloads) if n is None else [unpack_profile(code, n) for code in dfw.payloads]
    return rows, list(dfw.parent), list(dfw.via), payloads


def test_row_id_steps_build_the_packed_reference():
    # classes stepped as byte strings of row ids equal the classes of the
    # packed reference; of the DFWs built here, only random_nbw(1731, 11)'s
    # first progress DFW closes over more than 255 rows and steps tuples of
    # ids instead
    automata = [gen_bn(n) for n in range(1, 5)] + [gen_bn_dbw(n) for n in range(1, 5)]
    automata += [random_nbw(s, 2 + s % 5) for s in range(2000, 2100)]
    for a in automata:
        full = (1 << len(a.states)) - 1
        pairs = [(classical_congruence(a), profile_congruence_packed(a, "classical", full, DEFAULT_CLASS_BUDGET))]
        f = complement_fdfw_improved(a)
        for m, prog in f.progress.items():
            pairs.append((prog, profile_congruence_packed(a, "", f.leading.payloads[m], DEFAULT_CLASS_BUDGET)))
        for got, ref in pairs:
            assert type(got.payloads.ids) is bytes, a
            assert _columns(got) == _columns(ref, len(a.states)), a
        # DFWs compare by identity; a rebuilt twin has the same alphabet,
        # initial class, accepting set and columns
        got, twin = pairs[0][0], classical_congruence(a)
        fields = [(d.alphabet, d.initial, d.accepting, _columns(d)) for d in (got, twin)]
        assert fields[0] == fields[1], a
        assert got == got and got != twin and len({got, twin}) == 2, a
    a = random_nbw(1731, 11)
    lead = subset_congruence(a)
    got = progress_congruence_improved(a, lead, 0)
    assert len(got.payloads.rows) > 256 and type(got.payloads.ids) is not bytes
    assert _columns(got) == _columns(profile_congruence_packed(a, "", lead.payloads[0], DEFAULT_CLASS_BUDGET), 11)


def test_row_closure_raises_the_reference_budget_error(monkeypatch):
    # random_nbw(1731, 11)'s progress DFW of leading class 1 has 482 classes
    # over 479 rows of two sources: budget 2 stops the row closure before
    # any search, budget 400 stops the search, and both raise as the packed
    # reference
    searches = []
    search = profiles.build_congruence_dfw
    monkeypatch.setattr(profiles, "build_congruence_dfw", lambda *args: searches.append(args) or search(*args))
    a = random_nbw(1731, 11)
    lead = subset_congruence(a)
    phase = "improved-progress[a]"
    for budget, searched in ((2, 0), (400, 1)):
        searches.clear()
        with pytest.raises(BudgetExceededError) as got:
            progress_congruence_improved(a, lead, 1, budget)
        with pytest.raises(BudgetExceededError) as want:
            profile_congruence_packed(a, phase, lead.payloads[1], budget)
        assert (got.value.count, got.value.phase) == (want.value.count, want.value.phase) == (budget, phase)
        assert len(searches) == searched
