"""Families of deterministic transition systems over congruence classes: one
leading structure classifying finite prefixes plus, per leading class, a
progress structure classifying candidate periods.

Acceptance of an ultimately periodic word is decided through its
decompositions.  A decomposition (u, v) is accepted when reading v loops on
u's leading class (normalized) and v lands in an accepting progress class
(captured).  A family is saturated when, for every ultimately periodic word,
all normalized decompositions agree; the complement builders below produce
saturated families, and saturation of arbitrary families can be probed on
samples.

The conversion to a nondeterministic Büchi automaton pins one accepting
progress class per run and tracks the leading round trip inside each gadget,
so it accepts exactly the family's words for any saturated family, not only
the constructed ones.  For an unsaturated family it accepts a superset: the
blocks of an accepting run need not be powers of one period.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from .automata import (
    Alphabet,
    AlphabetMismatchError,
    Nbw,
    ParseError,
    UpWord,
    Word,
    _check_token,
    _meaningful_lines,
    _product_lasso,
    _read_alphabet,
    _read_fields,
    _read_trans,
    _simulation_reduce,
    canonical_upwords,
    explore,
    path_to,
    intersect,  # noqa: F401  perfbench/tracing.py patches it here
    is_empty,  # noqa: F401  perfbench/tracing.py patches it here
    lasso_membership,  # noqa: F401  no builder calls it; perfbench/tracing.py patches it here
)
from .preorder import optimal_leading_congruence, optimal_progress_congruence
from .profiles import (
    DEFAULT_CLASS_BUDGET,
    CongruenceDfw,
    build_congruence_dfw,
    periodic_membership_from_profile,
    progress_congruence_improved,
    subset_congruence,
)


@dataclass(frozen=True, eq=False)
class Fdfw:
    """Leading structure plus one progress structure per leading class id.
    Progress structures carry accepting sets; the leading one never does.
    `saturated` is a promise made by the builder, trusted by the fast
    acceptance path and checkable with check_saturation_sampled."""

    alphabet: Alphabet
    leading: CongruenceDfw
    progress: Mapping[int, CongruenceDfw]
    saturated: bool = False

    def __post_init__(self):
        object.__setattr__(self, "progress", dict(self.progress))
        if set(self.progress) != set(range(len(self.leading))):
            raise ValueError("need exactly one progress structure per leading class")
        for cid, prog in self.progress.items():
            if prog.alphabet != self.alphabet or self.leading.alphabet != self.alphabet:
                raise ValueError("alphabet mismatch inside family")
            if prog.accepting is None:
                raise ValueError(f"progress structure {cid} lacks an accepting set")

    def size(self) -> tuple[int, int]:
        """(leading classes, total progress classes)."""
        return len(self.leading), sum(len(p) for p in self.progress.values())


# --- acceptance over all decompositions -------------------------------------


def _normalized_powers(f: Fdfw, m: int, rot: Word) -> Iterator[tuple[int, bool]]:
    """(j, captured) for every power rot^j, j >= 1, that returns to leading
    class m, in increasing j.  The walk over (leading, progress) state pairs
    stops at the first repeated pair, within |leading| * |progress| steps;
    later powers only revisit pairs already reported."""
    lead = f.leading
    prog = f.progress[m]
    seen: set[tuple[int, int]] = set()
    mm, pp = m, prog.initial
    while True:
        mm = lead.run(rot, start=mm)
        pp = prog.run(rot, start=pp)
        if (mm, pp) in seen:
            return
        seen.add((mm, pp))
        if mm == m:
            yield len(seen), pp in prog.accepting


def _cuts(f: Fdfw, w: UpWord) -> Iterator[tuple[int, Word, int]]:
    """(t, period rotated by t, leading class) for every cut t period letters
    past the prefix of canonical w = (u, v), the leading class being that of
    u v^(t // |v|) v[:t % |v|].  Every decomposition of w is such a cut plus
    a power of its rotated period, and the cuts run over enough period turns
    to see every (leading class, phase) pair at least once."""
    u, v = w.prefix, w.period
    rots = [v[i:] + v[:i] for i in range(len(v))]
    rows = f.leading.rows
    m = f.leading.run(u)
    for t in range(len(v) * (len(f.leading) + 1) + 1):
        phase = t % len(v)
        yield t, rots[phase], m
        m = rows[v[phase]][m]


def accepts_upword_general(f: Fdfw, w: UpWord) -> bool:
    """Acceptance by existence of some accepted decomposition.  Always sound;
    the reference semantics for arbitrary families.  Verdicts depend only on
    (leading class, phase), and the cut walk steps that key by a function of
    itself, so every key after the first repeated one repeats too: the
    search stops there.  A leading class whose progress DFW accepts nothing
    captures no decomposition, so its powers are not walked."""
    w = w.canonical()
    for sym in w.prefix + w.period:  # the walk may step on a symbol before any run reads it
        if sym not in f.alphabet:
            raise ValueError(f"symbol {sym!r} not in alphabet")
    seen: set[tuple[int, int]] = set()
    for t, rot, m in _cuts(f, w):
        key = (m, t % len(w.period))
        if key in seen:
            return False
        seen.add(key)
        if f.progress[m].accepting and any(captured for _, captured in _normalized_powers(f, m, rot)):
            return True
    return False


def _pumping(f: Fdfw, d: UpWord) -> tuple[int, int, int]:
    """(h, k, m) for the given pair (u, v): minimal h >= 0, then minimal
    k >= 1, such that the leading class m of u v^h recurs at u v^(h+k).
    Both h and k are at most the number of leading classes."""
    lead = f.leading
    seen: dict[int, int] = {}
    m = lead.run(d.prefix)
    while m not in seen:
        seen[m] = len(seen)
        m = lead.run(d.period, start=m)
    return seen[m], len(seen) - seen[m], m


def accepts_upword_saturated(f: Fdfw, w: UpWord) -> bool:
    """Acceptance decided on one pumped normalized decomposition (u v^h, v^k):
    the pumping walk ends at its leading class m, so only v^k is read, by m's
    progress DFW.  Equals the general semantics exactly when saturated."""
    _, k, m = _pumping(f, w)
    return f.progress[m].accepts(w.period * k)


def accepts_upword(f: Fdfw, w: UpWord) -> bool:
    """Dispatch: the pumped fast path for families built saturated, the full
    decomposition search otherwise."""
    if f.saturated:
        return accepts_upword_saturated(f, w)
    return accepts_upword_general(f, w)


# --- saturation probing ------------------------------------------------------


@dataclass(frozen=True)
class SaturationViolation:
    """One ultimately periodic word with disagreeing normalized
    decompositions: some captured, some not."""

    word: UpWord
    captured: tuple[UpWord, ...]
    uncaptured: tuple[UpWord, ...]

    def __str__(self):
        return (
            f"word {self.word}: captured {[str(d) for d in self.captured]}, "
            f"uncaptured {[str(d) for d in self.uncaptured]}"
        )


def _normalized_verdicts(
    f: Fdfw, w: UpWord, cap: int
) -> tuple[list[UpWord], list[UpWord]]:
    """Normalized decompositions of canonical w split by capturedness, each
    list truncated to `cap` entries.  Cuts are not deduplicated, so the
    reported examples keep their natural cut points."""
    u, v = w.prefix, w.period
    captured: list[UpWord] = []
    uncaptured: list[UpWord] = []
    for t, rot, m in _cuts(f, w):
        for j, hit in _normalized_powers(f, m, rot):
            target = captured if hit else uncaptured
            if len(target) < cap:
                q, phase = divmod(t, len(v))
                target.append(UpWord(u + v * q + v[:phase], rot * j))
        if len(captured) >= cap and len(uncaptured) >= cap:
            break
    return captured, uncaptured


def check_saturation_sampled(
    f: Fdfw, max_prefix: int, max_period: int, cap: int = 8
) -> list[SaturationViolation]:
    """Scan all ultimately periodic words within the given decomposition
    bounds (up to word identity) and report every word whose normalized
    decompositions disagree, keeping at most `cap` >= 1 examples per side."""
    if cap < 1:
        raise ValueError("cap must be at least 1")
    out: list[SaturationViolation] = []
    for c in canonical_upwords(f.alphabet, max_prefix, max_period):
        cap_list, unc_list = _normalized_verdicts(f, c, cap)
        if cap_list and unc_list:
            out.append(SaturationViolation(c, tuple(cap_list), tuple(unc_list)))
    return out


def containment(a: Nbw, b: Nbw, budget: int = DEFAULT_CLASS_BUDGET) -> tuple[bool, UpWord | None]:
    """Language containment L(a) subseteq L(b), decided by a search of the
    product of a with the complement pipeline of b for an accepting lasso.
    Returns (holds, counterexample): the counterexample is an ultimately
    periodic word in L(a) \\ L(b) with the stem and cycle length of the
    lasso is_empty(intersect(a, reduced)) would give, where reduced is the
    complement reduced by direct simulation.  It may differ from the word
    of the unreduced product."""
    if a.alphabet != b.alphabet:
        raise AlphabetMismatchError("containment needs a shared alphabet")
    word = _product_lasso(a, _simulation_reduce(fdfw_to_nbw(complement_fdfw_optimal(b, budget))))
    if word is None:
        return True, None
    return False, word.canonical()


# --- complement builders -----------------------------------------------------


def complement_fdfw_optimal(a: Nbw, budget: int = DEFAULT_CLASS_BUDGET) -> Fdfw:
    """Complement family over the ordered-subset congruences.  A progress
    class of leading class m is normalized when its payload's `lead` is m,
    and such a class accepts when `OptProgressState.accepts_period` rejects.
    Class 0 holds only the empty word, no period, unless the scan met an edge
    back into it, and is left non-accepting without one.  The improved
    builder has no such rule, and the two differ there on purpose: both
    families are pinned byte for byte.  One payload graph serves every
    leading class of this build, and each progress DFW is filled on its
    first read of rows or payloads, so readers of class counts, accepting
    sets and witnesses fill none."""
    lead = optimal_leading_congruence(a, budget)
    progress: dict = {}
    memo: dict = {}
    for m in range(len(lead)):
        prog = optimal_progress_congruence(a, lead, m, budget, memo=memo)
        base = lead.payloads[m].blocks
        progress[m] = prog.with_accepting(
            frozenset(p for p, st in prog.candidates if (p or prog.reentered) and not st.accepts_period(base))
        )
    return Fdfw(a.alphabet, lead, progress, saturated=True)


def complement_fdfw_improved(a: Nbw, budget: int = DEFAULT_CLASS_BUDGET) -> Fdfw:
    """Complement family over the subset leading congruence and pair profiles
    over each leading class's states.  One row-image memo serves every
    leading class of this build.  Normalization is decided on the leading
    DFW alone, by the return map: back[p] is the leading class u v reaches
    for u in m and v in class p, which is the same for every member v
    because the progress congruence refines the leading one.  Parents
    precede their children in class-id order, so one pass over `parent` and
    `via` fills it.  A class with back[p] == m accepts when the folded
    periodic membership test on its profile, read off the class's row ids,
    fails.  Unlike the optimal builder, this accepts a class 0 with no edge
    into it whenever the leading class holds no accepting state (the empty
    word's profile then has no flagged pair); changing either builder's rule
    would change its pinned output."""
    lead = subset_congruence(a, budget)
    lead_rows = [lead.rows[sym] for sym in a.alphabet.symbols]
    progress: dict[int, CongruenceDfw] = {}
    memo: dict = {}
    for m in range(len(lead)):
        prog = progress_congruence_improved(a, lead, m, budget, memo=memo)
        back = [m]
        for parent, k in zip(prog.parent[1:], prog.via[1:]):
            back.append(lead_rows[k][back[parent]])
        sources = lead.payloads[m]
        progress[m] = prog.with_accepting(
            frozenset(
                p
                for p, b in enumerate(back)
                if b == m and not periodic_membership_from_profile(prog.payloads[p], sources)
            )
        )
    return Fdfw(a.alphabet, lead, progress, saturated=True)


def complement_saturated_fdfw(f: Fdfw) -> Fdfw:
    """Family for the complemented word language of a saturated family: same
    structures, every progress accepting set flipped.  Decomposition
    acceptance demands normalized AND captured, so flipping capture verdicts
    complements exactly the words all of whose normalized decompositions
    agreed, which saturation guarantees is all of them."""
    progress = {
        cid: p.with_accepting(frozenset(range(len(p))) - p.accepting)
        for cid, p in f.progress.items()
    }
    return Fdfw(f.alphabet, f.leading, progress, saturated=f.saturated)


# --- conversion to a Büchi automaton -----------------------------------------


def _accepting_composition_closed(f: Fdfw, q: int) -> bool:
    """True when concatenating members of any two accepting classes of q's
    progress DFW always lands in an accepting class again.  Running the DFW
    from a class on another class's witness computes the concatenation class:
    both progress payloads compose, so the landing class does not depend on
    which member stands in for the second class.  One walk down the witness
    tree, root first, carries the images of all accepting classes at once."""
    prog, acc = f.progress[q], f.progress[q].accepting
    images = {prog.initial: list(acc)}
    for fa in acc:
        nodes, letters = path_to(prog.parent, prog.via, fa)  # a parent may have the higher id
        if nodes[0] != prog.initial:  # an unreached class has no witness
            return False
        for parent, c, k in zip(nodes, nodes[1:], letters):
            if c not in images:
                images[c] = [prog.rows[f.alphabet.symbols[k]][x] for x in images[parent]]
    return all(acc.issuperset(images[fa]) for fa in acc)


def _reversed(rows: list[Sequence[int]]) -> list[list[int]]:
    """Per node of the deterministic graph whose edges leave node i to row[i]
    for each row, the sources of the edges into it."""
    preds: list[list[int]] = [[] for _ in rows[0]]
    for row in rows:
        for i, j in enumerate(row):
            preds[j].append(i)
    return preds


def fdfw_to_nbw(f: Fdfw) -> Nbw:
    """Büchi automaton for the omega-language induced by the family: words
    decomposable as u v1 v2 ... where u reaches some leading class q and every
    block vi both returns the leading structure to q and ends captured.

    Gadgets track the progress state and the leading round trip and may close
    a block exactly at (acceptance, q).  When q's accepting classes are
    closed under composition, one shared gadget may close at any of them:
    a word chopped into blocks from several such classes regroups, by
    Ramsey's theorem on the finitely many composition classes, into blocks
    of one single accepting class, which the family already rules on.
    Without closure each accepting class gets its own gadget, pinned so that
    every block of a run ends in that same class; mixing unrelated accepting
    classes is unsound.  Relays between blocks are the accepting states.

    Only states that can reach a relay are kept.  The copies of q share one
    product of prog(q) and the leading DFW; a backward search in it finds a
    copy's nodes that reach a step closing a block, and the copy is live when
    its start (progress initial, q) is one.  A leading class is kept when a
    live start is reachable from it.  A reachable relay lies on a cycle: it
    is entered from nodes its copy's start reaches, and steps like that start.
    Whatever reaches a kept state is kept, so a search listing kept targets
    only names L<m>, G<q>.<fa>.<p>.<m> and R<q>.<fa> in a full search's order."""
    lead, symbols, nl = f.leading, f.alphabet.symbols, len(f.leading)
    lead_rows = [lead.rows[sym] for sym in symbols]
    # copies[c] = (q, fa, keys, rows, useful, closing), fa == -1 for a shared gadget; search
    # keys: (-1, m) for leading class m, (c, i) for product node i of copy c, (c, -1) its relay
    copies, starts = [], [[] for _ in range(nl)]
    for q, prog in f.progress.items():
        if prog.accepting:
            # prog(q) times the leading DFW from (progress initial, q) on keys p * |leading| + m;
            # it has at most |prog(q)| * |leading| nodes, so the budget cannot bind
            product = build_congruence_dfw(
                "translation", f.alphabet, prog.initial * nl + q,
                lambda x, sym: prog.rows[sym][x // nl] * nl + lead.rows[sym][x % nl], len(prog) * nl,
            )
            ids = {x: i for i, x in enumerate(product.payloads)}
            rows = [product.rows[sym] for sym in symbols]
            preds = _reversed(rows)
            for fa in [-1] if _accepting_composition_closed(f, q) else sorted(prog.accepting):
                ends = [fa * nl + q] if fa >= 0 else [a * nl + q for a in prog.accepting]
                closing = {ids[x] for x in ends if x in ids}
                _, useful, _, _, steps = explore((i for j in closing for i in preds[j]), lambda i: [preds[i]])
                for _ in steps:  # the search on reversed edges lists the nodes reaching a closing step
                    pass
                if 0 in useful:
                    starts[q].append(len(copies))
                    copies.append((q, fa, product.payloads, rows, useful, closing))
    rev = _reversed(lead_rows)
    _, kept, _, _, steps = explore((q for q in range(nl) if starts[q]), lambda m: [rev[m]])
    for _ in steps:
        pass
    if lead.initial not in kept:
        return Nbw(f.alphabet, ("dead",), frozenset({"dead"}), {}, frozenset())

    def successors(x: tuple[int, int]) -> list[list[tuple[int, int]]]:
        c, i = x
        if c < 0:  # the next letter may instead start the first block at class i
            out = [[(-1, row[i])] if row[i] in kept else [] for row in lead_rows]
            run, i = starts[i], 0
        else:  # a relay starts the next block exactly like its copy's start, node 0
            out, run, i = [[] for _ in symbols], [c], max(i, 0)
        for c in run:
            _, _, _, rows, useful, closing = copies[c]
            for targets, j in zip(out, [row[i] for row in rows]):
                targets += ([(c, j)] if j in useful else []) + ([(c, -1)] if j in closing else [])
        return out

    def label(c: int, i: int) -> str:
        if c < 0:
            return f"L{i}"
        q, fa, keys = copies[c][:3]
        return f"R{q}.{fa}" if i < 0 else "G{}.{}.{}.{}".format(q, fa, *divmod(keys[i], nl))

    nodes, _, _, _, steps = explore([(-1, lead.initial)], successors)
    adj = list(steps)
    name = {x: label(*x) for x in nodes}
    trans = {
        (name[x], sym): frozenset(map(name.__getitem__, targets))
        for x, edges in zip(nodes, adj) for sym, targets in zip(symbols, edges) if targets
    }
    relays = frozenset(name[x] for x in nodes if x[0] >= 0 > x[1])
    return Nbw(f.alphabet, tuple(name.values()), frozenset({name[nodes[0]]}), trans, relays)


def nbw_state_bound(f: Fdfw) -> int:
    """Budget the conversion is measured against: the leading copy plus, per
    leading class, a leading-sized band of every progress structure and one
    relay."""
    lead_n = len(f.leading)
    return lead_n + sum(lead_n * len(p) + 1 for p in f.progress.values())


# --- text formats ------------------------------------------------------------


def _serialize_dfw_block(dfw: CongruenceDfw, prefix: str) -> list[str]:
    names = [f"{prefix}{c}" for c in range(len(dfw))]
    lines = [
        "states: " + " ".join(names),
        f"initial: {names[dfw.initial]}",
    ]
    if dfw.accepting is not None:
        lines.append("accepting: " + " ".join(names[c] for c in sorted(dfw.accepting)))
    for cid in range(len(names)):
        for sym in dfw.alphabet.symbols:
            lines.append(f"trans: {names[cid]} {sym} -> {names[dfw.rows[sym][cid]]}")
    return lines


DFW_CLASS_PREFIX = "c"


def serialize_dfw(dfw: CongruenceDfw) -> str:
    lines = ["dfw", "alphabet: " + " ".join(dfw.alphabet.symbols)]
    lines.extend(_serialize_dfw_block(dfw, DFW_CLASS_PREFIX))
    return "\n".join(lines) + "\n"


def serialize_fdfw(f: Fdfw) -> str:
    lines = [
        "fdfw",
        "alphabet: " + " ".join(f.alphabet.symbols),
        f"saturated: {'true' if f.saturated else 'false'}",
        "leading:",
    ]
    lines.extend(_serialize_dfw_block(f.leading, "m"))
    for cid in range(len(f.leading)):
        lines.append(f"progress m{cid}:")
        lines.extend(_serialize_dfw_block(f.progress[cid], "n"))
    return "\n".join(lines) + "\n"


def _parse_dfw_block(
    alphabet: Alphabet,
    lines: list[tuple[int, str]],
    want_accepting: bool,
) -> CongruenceDfw:
    fields, repeats = _read_fields(lines, ("states", "initial", "accepting"), ("trans",))
    if "states" not in fields or "initial" not in fields:
        raise ParseError("block needs states and initial lines")
    no, value = fields["states"]
    names = tuple(_check_token(nm, "state", no) for nm in value.split())
    if not names or len(set(names)) != len(names):
        raise ParseError("states must be non-empty and distinct", no)
    ids = {nm: i for i, nm in enumerate(names)}
    no, value = fields["initial"]
    if len(value.split()) != 1:
        raise ParseError("need exactly one initial state", no)
    if value not in ids:
        raise ParseError(f"undeclared initial state {value!r}", no)
    initial = ids[value]
    if "accepting" in fields and not want_accepting:
        raise ParseError("leading block must not carry an accepting line", fields["accepting"][0])
    table: dict[tuple[int, str], int] = {}
    for no, value in repeats["trans"]:
        src, sym, targets = _read_trans(no, value, ids, alphabet)
        if len(targets) != 1:
            raise ParseError("expected 'trans: <state> <symbol> -> <state>'", no)
        if (ids[src], sym) in table:
            raise ParseError(f"duplicate transition for {src!r} on {sym!r}", no)
        table[(ids[src], sym)] = ids[targets[0]]
    for nm in names:
        for sym in alphabet:
            if (ids[nm], sym) not in table:
                raise ParseError(f"missing transition for {nm!r} on {sym!r}")
    rows = {sym: array("i", (table[(c, sym)] for c in range(len(names)))) for sym in alphabet.symbols}
    acc_ids = None
    if want_accepting:
        no, value = fields.get("accepting", (None, ""))
        for nm in value.split():
            if nm not in ids:
                raise ParseError(f"undeclared accepting state {nm!r}", no)
        acc_ids = frozenset(ids[nm] for nm in value.split())
    # witness edges by a search numbering the classes in discovery order
    found, _, pred, via, steps = explore([initial], lambda c: [[row[c]] for row in rows.values()])
    for _ in steps:  # the search lists the classes it reaches in `found`
        pass
    parent, letter = array("i", [-1]) * len(names), array("i", [-1]) * len(names)
    for r in range(1, len(found)):  # found[0] is the initial class
        parent[found[r]], letter[found[r]] = found[pred[r]], via[r]
    return CongruenceDfw(alphabet, names, rows, parent, letter, initial, acc_ids)


def parse_fdfw(text: str | bytes) -> Fdfw:
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    lines = list(_meaningful_lines(text))
    if not lines or lines[0][1] != "fdfw":
        raise ParseError("expected 'fdfw' header", lines[0][0] if lines else 1)
    # the header lines, then one body per `leading:` or `progress <class>:` line
    header: list[tuple[int, str]] = []
    blocks: list[tuple[int, str, list[tuple[int, str]]]] = []
    for no, line in lines[1:]:
        if line == "leading:":
            blocks.append((no, "leading", []))
        elif line.startswith("progress ") and line.endswith(":"):
            blocks.append((no, line[len("progress "):-1].strip(), []))
        else:
            (blocks[-1][2] if blocks else header).append((no, line))
    fields, _ = _read_fields(header, ("alphabet", "saturated"), ())
    if "alphabet" not in fields:
        raise ParseError("missing alphabet line")
    alphabet = _read_alphabet(*fields["alphabet"])
    no, saturated = fields.get("saturated", (None, "false"))
    if saturated not in ("true", "false"):
        raise ParseError("saturated must be true or false", no)
    if not blocks or blocks[0][1] != "leading":
        raise ParseError("first block must be 'leading:'")
    leading = _parse_dfw_block(alphabet, blocks[0][2], want_accepting=False)
    name_to_cid = {name: cid for cid, name in enumerate(leading.payloads)}
    progress: dict[int, CongruenceDfw] = {}
    for no, name, body in blocks[1:]:
        if name == "leading":
            raise ParseError("duplicate leading block", no)
        if name not in name_to_cid:
            raise ParseError(f"progress block for unknown leading class {name!r}", no)
        cid = name_to_cid[name]
        if cid in progress:
            raise ParseError(f"duplicate progress block for {name!r}", no)
        progress[cid] = _parse_dfw_block(alphabet, body, want_accepting=True)
    missing = set(range(len(leading))) - set(progress)
    if missing:
        raise ParseError(f"missing progress blocks for {len(missing)} leading classes")
    return Fdfw(alphabet, leading, progress, saturated=saturated == "true")
