"""Ordered-subset congruences: arrangements, the levelled run DAG reference,
and the acceptance-flagged progress payloads."""

from __future__ import annotations

import pytest
from hypothesis import given

from buchicong import (
    Alphabet,
    Nbw,
    OptProgressState,
    complement_fdfw_optimal,
    gen_bn,
    gen_bn_dbw,
    optimal_leading_congruence,
    optimal_progress_congruence,
)
from buchicong import random_nbw
from buchicong.preorder import (
    PreorderedSubset,
    initial_preordered,
    initial_progress_state,
    ordered_step,
    progress_step,
)
from conftest import seeded_nbws, witnesses, words
from reference import (
    max_class_map_direct,
    ordered_reach,
    ordered_run_dag,
    pretty,
    reach,
    state_mask,
)
from test_automata import inf_many


def arrangement(a: Nbw, *groups: tuple[str, ...]) -> PreorderedSubset:
    return PreorderedSubset(
        tuple(sum(1 << a.index(q) for q in grp) for grp in groups)
    )


# --- arrangements ---------------------------------------------------------------


def test_blocks_must_be_disjoint_and_non_empty():
    with pytest.raises(ValueError):
        PreorderedSubset((0,))
    with pytest.raises(ValueError):
        PreorderedSubset((0b1, 0b11))


def test_initial_split_puts_accepting_rightmost():
    ab = Alphabet(("a",))
    trans = {("p", "a"): frozenset({"p"}), ("f", "a"): frozenset({"f"})}
    a = Nbw(ab, ("p", "f"), frozenset({"p", "f"}), trans, frozenset({"f"}))
    got = initial_preordered(a)
    assert got == arrangement(a, ("p",), ("f",))


def test_initial_split_drops_empty_sides(b3):
    # the only initial state is accepting, so one block remains
    assert initial_preordered(b3) == arrangement(b3, ("q",))


def test_ordered_step_on_permutation_family(b3):
    start = initial_preordered(b3)
    assert ordered_step(b3, start, "1") == arrangement(b3, ("q1",))
    assert ordered_step(b3, start, "0") == arrangement(b3, ("q0",))
    hub = arrangement(b3, ("q0",))
    split = ordered_step(b3, hub, "0")
    # the sink is accepting and newly reached, so it outranks the hub
    assert split == arrangement(b3, ("q0",), ("qm1",))
    assert ordered_step(b3, split, "2") == split
    assert pretty(split, b3.states) == "<{q0},{qm1}>"


def test_ordered_step_tolerates_dying_runs():
    ab = Alphabet(("a",))
    a = Nbw(ab, ("p",), frozenset({"p"}), {}, frozenset())
    assert ordered_reach(a, ("a",)) == PreorderedSubset(())


@given(seeded_nbws(), words(max_len=5))
def test_ordered_reach_is_fold_of_steps(a, w):
    # the leading DFW steps its payloads through its table, not ordered_step
    lead = optimal_leading_congruence(a)
    assert lead.payloads[lead.run(w)] == ordered_reach(a, w)


@given(seeded_nbws(), words(max_len=5))
def test_run_dag_levels_match_arrangement_prefixes(a, w):
    dag = ordered_run_dag(a, w)
    assert len(dag.levels) == len(w) + 1
    for i in range(len(w) + 1):
        assert dag.levels[i] == ordered_reach(a, w[:i])


# --- leading congruence ------------------------------------------------------------


def test_leading_classes_on_permutation_family(b3):
    lead = optimal_leading_congruence(b3)
    assert len(lead) == 6
    assert set(witnesses(lead)) == {(), ("0",), ("1",), ("2",), ("3",), ("0", "0")}


def test_arrangement_states_equal_reachable_set(b3):
    lead = optimal_leading_congruence(b3)
    for witness, payload in zip(witnesses(lead), lead.payloads):
        assert payload.mask == state_mask(b3, reach(b3, witness))
        assert payload.mask == sum(payload.blocks)


@given(seeded_nbws())
def test_arrangement_count_refines_subset_count(a):
    from buchicong import subset_congruence

    # each arrangement flattens to one subset, so the quotient is no coarser
    lead = optimal_leading_congruence(a)
    flat = subset_congruence(a)
    assert len(lead) >= len(flat)
    for witness, payload in zip(witnesses(lead), lead.payloads):
        assert payload.mask == flat.payloads[flat.run(witness)]
        assert payload.mask == state_mask(a, reach(a, witness))


def test_dead_class_pushes_two_state_arrangements_past_the_live_cap():
    # A two-state automaton reaches at most 4 = 2**2 live arrangements.  An
    # incomplete one also reaches the dead arrangement, so the total class
    # count lands one past n**n (the bounds suite caps it by the 6
    # arrangements that exist over two states instead).
    # The bound pool in conftest therefore starts at three states, where the
    # cap exceeds the total number of arrangements outright.
    a = random_nbw(1741, 2)
    lead = optimal_leading_congruence(a)
    live = [p for p in lead.payloads if p.blocks]
    dead = [p for p in lead.payloads if not p.blocks]
    assert len(live) == 4
    assert len(dead) == 1
    assert len(lead) == 5 > 2**2


# --- progress congruence --------------------------------------------------------------


def test_progress_sizes_on_permutation_family(b3):
    lead = optimal_leading_congruence(b3)
    sizes = {
        lead.witness(m): len(optimal_progress_congruence(b3, lead, m))
        for m in range(len(lead))
    }
    assert sizes == {
        (): 12,
        ("0",): 2,
        ("1",): 9,
        ("2",): 9,
        ("3",): 9,
        ("0", "0"): 2,
    }


def test_acceptance_flag_separates_silent_and_visiting_loops(b3):
    # both periods return {q1} to its own arrangement, but only the second
    # passes through the accepting hub on the way
    lead = optimal_leading_congruence(b3)
    m = lead.run(("1",))
    prog = optimal_progress_congruence(b3, lead, m)
    silent = prog.run(("2",))
    visiting = prog.run(("1", "1"))
    assert silent != visiting
    q1 = b3.index("q1")
    assert prog.payloads[silent].lead == m
    assert prog.payloads[visiting].lead == m
    assert prog.payloads[silent].via_acc == 0
    assert prog.payloads[visiting].via_acc == 1 << q1


def test_progress_state_validates_its_maps(b3):
    # one base block holding state 0, checked against the state mask {0}
    with pytest.raises(ValueError):
        OptProgressState(0, (0,), 0).check(0b1)
    with pytest.raises(ValueError):
        OptProgressState(0, (0b11,), 0).check(0b1)
    with pytest.raises(ValueError):
        OptProgressState(0, (0b1,), 0b10).check(0b1)
    assert OptProgressState(0, (0b1,), 0b1).check(0b1) == (0, (0b1,), 0b1)
    # a back map tracking every state of b3 is wrong for the class of "1"
    # (state set {q1}): its successors on 0 overshoot the states of the
    # next leading class, which progress_step rejects
    lead = optimal_leading_congruence(b3)
    m = lead.run(("1",))
    everything = OptProgressState(m, (2 ** len(b3.states) - 1,), 0)
    with pytest.raises(ValueError):
        progress_step(b3, lead, everything, "0")


@given(seeded_nbws(), words(max_len=2), words(max_len=4))
def test_progress_payload_matches_reference_map(a, u, w):
    lead = optimal_leading_congruence(a)
    m = lead.run(u)
    base = lead.payloads[m]
    assert base == ordered_reach(a, u)
    state = initial_progress_state(lead, m)
    for sym in w:
        state = progress_step(a, lead, state, sym)
    direct = max_class_map_direct(a, base, w)
    # the per-block masks are disjoint and name each state's strongest block
    assert sum(bin(mask).count("1") for mask in state.back) == len(direct)
    assert {
        qi: bi
        for bi, mask in enumerate(state.back)
        for qi in range(len(a.states))
        if mask >> qi & 1
    } == {qi: bi for qi, (bi, _) in direct.items()}
    assert state.via_acc == sum(1 << qi for qi, (_, hit) in direct.items() if hit)
    assert lead.payloads[state.lead] == ordered_reach(a, u + w)


def test_one_build_steps_each_payload_once_per_letter(monkeypatch):
    # a progress step does not depend on the leading class whose DFW reached
    # the payload, so one complement build steps each (payload, letter) once
    # however many of its progress DFWs share the payload
    calls: dict[tuple[OptProgressState, str], int] = {}

    def counted(a, lead, st, sym):
        calls[st, sym] = calls.get((st, sym), 0) + 1
        return progress_step(a, lead, st, sym)

    monkeypatch.setattr("buchicong.preorder.progress_step", counted)
    for a in [gen_bn(3), gen_bn_dbw(3), random_nbw(1731, 5), random_nbw(1729, 6)]:
        calls.clear()
        f = complement_fdfw_optimal(a)
        payloads = [p for prog in f.progress.values() for p in prog.payloads]
        assert len(set(payloads)) < len(payloads)  # some payload is shared
        assert set(calls) == {(p, sym) for p in payloads for sym in a.alphabet}
        assert set(calls.values()) == {1}
