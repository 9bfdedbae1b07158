"""Acceptance suite: one test per shipped guarantee, each printing a single
PASS/FAIL line (mirrored into the terminal summary by conftest).

Heavy inputs are shared session fixtures; wall-clock limits count the fixture
construction time where the guarantee covers it."""

from __future__ import annotations

import random
import time

from buchicong import (
    Nbw,
    UpWord,
    check_saturation_sampled,
    classical_congruence,
    complement_fdfw_improved,
    gen_bn,
    gen_bn_dbw,
    intersect,
    is_empty,
    lasso_membership,
    nbw_state_bound,
    periodic_membership_from_profile,
    progress_congruence_improved,
    subset_congruence,
)
from conftest import edge_members, pool_automaton, record_criterion, single_word_family, witnesses
from reference import image, ordered_reach, ordered_run_dag, state_mask


def bn_payloads(a: Nbw, n: int) -> set[int]:
    singles = [("q",), ("q0",), ("q0", "qm1")] + [(f"q{i}",) for i in range(1, n + 1)]
    return {state_mask(a, qs) for qs in singles}


def test_ac01_classical_blowup_vs_progress_compactness():
    t0 = time.perf_counter()
    failures = []
    for n, lo, hi in ((3, 6, 12), (4, 24, 14)):
        a = gen_bn(n)
        classical = len(classical_congruence(a))
        if classical < lo:
            failures.append(f"n={n}: classical {classical} < {lo}")
        lead = subset_congruence(a)
        for m in range(len(lead)):
            got = len(progress_congruence_improved(a, lead, m))
            if got > hi:
                failures.append(f"n={n}: progress {got} > {hi}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        failures.append(f"{elapsed:.1f}s over the 10s limit")
    record_criterion("AC-1", not failures, f"sizes on two family members, {elapsed:.2f}s")
    assert not failures, failures


def test_ac02_subset_classes_are_pinned():
    t0 = time.perf_counter()
    failures = []
    for n in (3, 4):
        a = gen_bn(n)
        lead = subset_congruence(a)
        if len(lead) != n + 3:
            failures.append(f"n={n}: {len(lead)} classes, wanted {n + 3}")
        payloads = set(lead.payloads)
        if payloads != bn_payloads(a, n):
            failures.append(f"n={n}: payload sets differ")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        failures.append(f"{elapsed:.2f}s over the 1s limit")
    record_criterion("AC-2", not failures, f"exact payload lists, {elapsed:.2f}s")
    assert not failures, failures


def test_ac03_deterministic_family_progress_is_quadratic():
    t0 = time.perf_counter()
    failures = []
    for n in (3, 4, 5):
        a = gen_bn_dbw(n)
        lead = subset_congruence(a)
        sizes = [len(progress_congruence_improved(a, lead, m)) for m in range(len(lead))]
        if max(sizes) > 2 * (n + 2):
            failures.append(f"n={n}: max {max(sizes)} > {2 * (n + 2)}")
        if sum(sizes) > 2 * (n + 2) ** 2:
            failures.append(f"n={n}: sum {sum(sizes)} > {2 * (n + 2) ** 2}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 5.0:
        failures.append(f"{elapsed:.1f}s over the 5s limit")
    record_criterion("AC-3", not failures, f"per-class and summed caps, {elapsed:.2f}s")
    assert not failures, failures


def test_ac04_universal_class_bounds(pool_relations):
    rows, built = pool_relations
    t0 = time.perf_counter()
    failures = []
    for row in rows:
        n = len(row.nbw.states)
        if len(row.classical) > 3 ** (n * n):
            failures.append(f"{row.aid}: classical")
        if len(row.subset) > 2**n:
            failures.append(f"{row.aid}: subset")
        if len(row.optimal) > n**n:
            failures.append(f"{row.aid}: arrangement count")
        for prog in row.optimal_progress.values():
            if len(prog) > n**n * (n + 1) ** n:
                failures.append(f"{row.aid}: progress count")
    elapsed = built + time.perf_counter() - t0
    if elapsed >= 120.0:
        failures.append(f"{elapsed:.0f}s over the 120s limit")
    record_criterion(
        "AC-4", not failures, f"four bounds on {len(rows)} automata, {elapsed:.2f}s"
    )
    assert not failures, failures


def test_ac05_refinement_between_relations(pool_relations):
    rows, _ = pool_relations
    failures = []
    for row in rows:
        # equal full-profile classes must land in equal per-source classes
        for cid, member in edge_members(row.classical):
            witness = row.classical.witness(cid)
            for prog in row.improved.values():
                if prog.run(member) != prog.run(witness):
                    failures.append(f"{row.aid}: profile class split by {member}")
        # equal arrangements must flatten to the same successor set
        for cid, member in edge_members(row.optimal):
            if row.subset.run(member) != row.subset.run(row.optimal.witness(cid)):
                failures.append(f"{row.aid}: arrangement class split by {member}")
    record_criterion(
        "AC-5", not failures, f"refinement on all class members of {len(rows)} automata"
    )
    assert not failures, failures


def test_ac06_complement_matches_negated_oracle(complement_runs):
    rows, built = complement_runs
    failures = []
    words_checked = 0
    for row in rows:
        for variant, run in row.variants.items():
            bad = [
                w
                for w in row.corpus
                if run.family_accepts[w] == row.oracle[w]
            ]
            words_checked += len(row.corpus)
            if bad:
                failures.append(f"{row.aid}/{variant}: {len(bad)} overlaps, first {bad[0]}")
    if built >= 300.0:
        failures.append(f"{built:.0f}s over the 300s limit")
    record_criterion(
        "AC-6",
        not failures,
        f"{words_checked} verdicts on {len(rows)} automata, both variants, {built:.1f}s",
    )
    assert not failures, failures


def test_ac07_complements_are_saturated_and_probe_has_teeth(complement_runs):
    rows, _ = complement_runs
    failures = []
    for row in rows:
        for variant, run in row.variants.items():
            got = check_saturation_sampled(run.family, 3, 3)
            if got:
                failures.append(f"{row.aid}/{variant}: {got[0]}")
    probe = check_saturation_sampled(single_word_family(), 3, 3)
    by_word = {v.word: v for v in probe}
    pinned = by_word.get(UpWord((), ("a", "b")))
    if pinned is None:
        failures.append("handcrafted violation not found")
    else:
        if UpWord(("a", "b"), ("a", "b")) not in pinned.captured:
            failures.append("expected captured cut missing")
        if UpWord(("a", "b"), ("a", "b", "a", "b")) not in pinned.uncaptured:
            failures.append("expected uncaptured cut missing")
    record_criterion(
        "AC-7", not failures, f"no violations on {2 * len(rows)} families, probe flags the bad one"
    )
    assert not failures, failures


def test_ac08_translation_agrees_and_fits_the_bound(complement_runs):
    rows, _ = complement_runs
    failures = []
    for row in rows:
        for variant, run in row.variants.items():
            bad = [
                w
                for w in row.corpus
                if run.nbw_accepts[w] != run.family_accepts[w]
            ]
            if bad:
                failures.append(f"{row.aid}/{variant}: {len(bad)} verdict gaps")
            bound = nbw_state_bound(run.family)
            if len(run.nbw.states) > bound:
                failures.append(
                    f"{row.aid}/{variant}: {len(run.nbw.states)} states > {bound}"
                )
    record_criterion("AC-8", not failures, f"automaton translation on {2 * len(rows)} families")
    assert not failures, failures


def test_ac09_complement_is_disjoint_and_covering(complement_runs):
    rows, _ = complement_runs
    failures = []
    for row in rows:
        for variant, run in row.variants.items():
            if not is_empty(intersect(row.nbw, run.nbw))[0]:
                failures.append(f"{row.aid}/{variant}: shared lasso")
            split = [
                w for w in row.corpus if row.oracle[w] == run.nbw_accepts[w]
            ]
            if split:
                failures.append(f"{row.aid}/{variant}: {len(split)} words not split")
    record_criterion(
        "AC-9", not failures, f"product emptiness and exact coverage on {len(rows)} automata"
    )
    assert not failures, failures


def test_ac10_macrostate_accounting():
    failures = []
    for n in (3, 4):
        leading, progress = complement_fdfw_improved(gen_bn(n)).size()
        cap = (n + 3) + 2 * (n + 3) ** 2
        if leading + progress > cap:
            failures.append(f"n={n}: {leading + progress} macrostates > {cap}")
    leading, progress = complement_fdfw_improved(gen_bn_dbw(3)).size()
    cap = (3 + 2) + 2 * (3 + 2) ** 2
    if leading + progress > cap:
        failures.append(f"dbw n=3: {leading + progress} macrostates > {cap}")
    record_criterion("AC-10", not failures, "quadratic macrostate caps on both families")
    assert not failures, failures


def test_ac11_run_dag_levels_match_arrangements():
    rng = random.Random(1729)
    failures = []
    for i in range(200):
        a = pool_automaton(i % 100)
        word = tuple(
            rng.choice(a.alphabet.symbols) for _ in range(rng.randrange(0, 7))
        )
        dag = ordered_run_dag(a, word)
        want = tuple(ordered_reach(a, word[: k]) for k in range(len(word) + 1))
        if dag.levels != want:
            failures.append(f"pair {i}: levels diverge on {word}")
    record_criterion("AC-11", not failures, "200 seeded automaton and word pairs")
    assert not failures, failures


def test_ac12_folded_membership_matches_oracle(pool_relations, complement_runs):
    # improved classes fold their own source-row profile; optimal classes
    # that return to their leading class read the verdict off the payload,
    # as complement_fdfw_optimal does
    rows, _ = pool_relations
    failures = []
    compared = {"improved": 0, "optimal": 0}

    def members(prog):
        # a non-empty member per class: its witness, else the first edge in
        out = {cid: w for cid, w in enumerate(witnesses(prog)) if w}
        for cid, v in edge_members(prog):
            out.setdefault(cid, v)
        return out

    def compare(kind, aid, a, u, v, folded):
        compared[kind] += 1
        if folded != lasso_membership(a, UpWord(u, v)).accepted:
            failures.append(f"{aid}/{kind}: ({u}, {v})")

    for row in rows:
        a = row.nbw
        for m, (u, sources) in enumerate(zip(witnesses(row.subset), row.subset.payloads)):
            prog = row.improved[m]
            for cid, v in members(prog).items():
                p = prog.payloads[cid]
                if image(p) == sources:
                    folded = periodic_membership_from_profile(p, sources)
                    compare("improved", row.aid, a, u, v, folded)
        for m, (u, base) in enumerate(zip(witnesses(row.optimal), row.optimal.payloads)):
            prog = row.optimal_progress[m]
            for cid, v in members(prog).items():
                st = prog.payloads[cid]
                if st.lead == m:
                    folded = st.accepts_period(base.blocks)
                    compare("optimal", row.aid, a, u, v, folded)
    # the class only the empty word reaches is no period and never accepts
    eps_only = 0
    for run in complement_runs[0]:
        for m, prog in run.variants["optimal"].family.progress.items():
            if not any(0 in row for row in prog.rows.values()):
                eps_only += 1
                if 0 in prog.accepting:
                    failures.append(f"{run.aid}: epsilon-only class of m{m} accepts")
    record_criterion(
        "AC-12",
        not failures,
        f"{compared['improved']} improved and {compared['optimal']} optimal "
        f"eligible class pairs against the oracle, {eps_only} epsilon-only classes",
    )
    assert not failures, failures
    assert compared["optimal"] > 0 and eps_only > 0
