"""Command-line surface and experiment harness.

Every reporting subcommand emits TSV on stdout (header row first) and the
same data as one JSON document with --json.  Reports are byte-identical
across runs for the same inputs and flags, except for wall-clock columns:
`classes` always emits `elapsed_ms`; `complement`, `bounds-suite` and
`equiv-suite` add it only with --timings.

Exit codes: 0 success, 1 a bound/equivalence/saturation/containment check
failed, 2 malformed input or usage, 3 class budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

from .automata import (
    Nbw,
    ParseError,
    UpWord,
    _product_lasso,
    canonical_upwords,
    lasso_membership,
    parse_nbw,
    parse_word,
    serialize_nbw,
)
from .families import gen_bn, gen_bn_dbw, random_nbw
from .fdfw import (
    DFW_CLASS_PREFIX,
    Fdfw,
    accepts_upword,
    check_saturation_sampled,
    complement_fdfw_improved,
    complement_fdfw_optimal,
    containment,
    fdfw_to_nbw,
    nbw_state_bound,
    parse_fdfw,
    serialize_dfw,
    serialize_fdfw,
)
from .preorder import optimal_leading_congruence, optimal_progress_congruence
from .profiles import (
    DEFAULT_CLASS_BUDGET,
    BudgetExceededError,
    CongruenceDfw,
    classical_congruence,
    progress_congruence_improved,
    subset_congruence,
)

DEFAULT_SEED = 1729

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_BUDGET = 3


def _positive_budget(raw: str) -> int:
    """The class budget given by --budget or CONGRUENCE_BUDGET."""
    try:
        val = int(raw)
    except ValueError:
        val = 0
    if val < 1:
        raise argparse.ArgumentTypeError(
            f"--budget and CONGRUENCE_BUDGET must be positive integers, got {raw!r}"
        )
    return val


def _int_at_least(low: int):
    """argparse type for an integer option that must be at least `low`."""

    def integer(raw: str) -> int:
        if int(raw) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {raw!r}")
        return int(raw)

    return integer


def _int_list(raw: str) -> list[int]:
    """argparse type for a comma list of sizes, integers of at least 1 such
    as `2,3`."""
    try:
        sizes = [int(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a comma list of integers, got {raw!r}") from None
    if any(n < 1 for n in sizes):
        raise argparse.ArgumentTypeError(f"every size must be at least 1, got {raw!r}")
    return sizes


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_nbw(path: str) -> Nbw:
    return parse_nbw(_read_text(path))


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit(columns: list[str], rows: list[dict], args) -> None:
    """Print rows under `columns` as TSV, or as one JSON list with --json.  A
    command that offers --timings keeps its elapsed_ms column only with it."""
    if not getattr(args, "timings", True):
        columns = [c for c in columns if c != "elapsed_ms"]
    if args.json:
        print(json.dumps([{c: row.get(c) for c in columns} for row in rows], indent=2))
    else:
        sys.stdout.write(_tsv(columns, rows))


def _tsv(columns: list[str], rows: list[dict]) -> str:
    lines = ["\t".join(columns)]
    lines += ["\t".join(_cell(row.get(c)) for c in columns) for row in rows]
    return "\n".join(lines) + "\n"


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "yes" if value else "no"
    return str(value)


def _join_word(word) -> str:
    return " ".join(word)


# --- classes -----------------------------------------------------------------


_LEADING_AND_PROGRESS = (
    ("subset", subset_congruence, "improved-progress", progress_congruence_improved),
    ("optimal", optimal_leading_congruence, "optimal-progress", optimal_progress_congruence),
)


def _timed(build, *args) -> tuple:
    """(build(*args), its wall-clock time in ms)."""
    t0 = time.perf_counter()
    out = build(*args)
    return out, int(round((time.perf_counter() - t0) * 1000))


def _relations(a: Nbw, relation: str, context: tuple[str, ...], budget: int):
    """(name, quotient DFW, its build time in ms), built row by row, for one
    --relation choice: a progress relation names the class of `context`, and
    `all` lists every relation with the progress relations of every leading class."""
    if relation in ("classical", "all"):
        yield "classical", *_timed(classical_congruence, a, budget)
    for lead_name, build_lead, progress_name, build_progress in _LEADING_AND_PROGRESS:
        if relation == lead_name:
            yield lead_name, *_timed(build_lead, a, budget)
        elif relation in (progress_name, "all"):
            lead, elapsed = _timed(build_lead, a, budget)
            if relation == "all":
                yield lead_name, lead, elapsed
            for m in range(len(lead)) if relation == "all" else [lead.run(context)]:
                yield (
                    f"{progress_name}[{_join_word(lead.witness(m))}]",
                    *_timed(build_progress, a, lead, m, budget),
                )


def cmd_classes(args) -> int:
    a = _load_nbw(args.infile)
    context = parse_word(a.alphabet, args.u or "")
    if args.dump == "-" or (args.dump and args.relation == "all"):
        need = "a file name, not -" if args.dump == "-" else "one concrete --relation"
        print(f"--dump needs {need}", file=sys.stderr)
        return EXIT_BAD_INPUT
    rows = []
    dumped: CongruenceDfw | None = None
    for name, dfw, elapsed in _relations(a, args.relation, context, args.budget):
        rows.append(
            {
                "relation": name,
                "classes": len(dfw),
                # classes are numbered breadth first, so the last is the deepest
                "max_witness_len": len(dfw.witness(len(dfw) - 1)),
                "elapsed_ms": elapsed,
            }
        )
        dumped = dfw
    if args.dump and dumped is not None:
        _write_text(args.dump, serialize_dfw(dumped))
        witnesses = [
            {"class": f"{DFW_CLASS_PREFIX}{c}", "witness": _join_word(dumped.witness(c) or ())}
            for c in range(len(dumped))
        ]
        _write_text(args.dump + ".witnesses.tsv", _tsv(["class", "witness"], witnesses))
    _emit(["relation", "classes", "max_witness_len", "elapsed_ms"], rows, args)
    return EXIT_OK


# --- complement / to-nbw -----------------------------------------------------


_VARIANTS = {"optimal": complement_fdfw_optimal, "improved": complement_fdfw_improved}


def cmd_complement(args) -> int:
    a = _load_nbw(args.infile)
    f, elapsed = _timed(_VARIANTS[args.variant], a, args.budget)
    if args.out:
        _write_text(args.out, serialize_fdfw(f))
    leading, progress = f.size()
    row = {
        "variant": args.variant,
        "leading_classes": leading,
        "progress_classes": progress,
        "accepting_classes": sum(len(p.accepting) for p in f.progress.values()),
        "macrostates": leading + progress,
        "elapsed_ms": elapsed,
    }
    _emit(list(row), [row], args)
    return EXIT_OK


def _family(args) -> tuple[Fdfw, str]:
    """The family a command works on and the name of its source: the --fdfw
    file, else the --variant complement of the --in automaton."""
    if args.fdfw is not None:
        return parse_fdfw(_read_text(args.fdfw)), args.fdfw
    variant = args.variant or "optimal"
    return _VARIANTS[variant](_load_nbw(args.infile), args.budget), variant


def cmd_to_nbw(args) -> int:
    f, source = _family(args)
    # a family file only claims saturation, so the claim is probed on
    # saturation-check's default corpus
    if not f.saturated or (args.fdfw is not None and check_saturation_sampled(f, *_CORPUS_BOUNDS, cap=1)):
        print("warning: unsaturated family, so the automaton may accept more words", file=sys.stderr)
    nbw = fdfw_to_nbw(f)
    if args.out:
        _write_text(args.out, serialize_nbw(nbw))
    bound = nbw_state_bound(f)
    row = {
        "source": source,
        "nbw_states": len(nbw.states),
        "state_bound": bound,
        "within_bound": len(nbw.states) <= bound,
    }
    _emit(list(row), [row], args)
    return EXIT_OK if row["within_bound"] else EXIT_CHECK_FAILED


# --- member / contains ---------------------------------------------------------


def cmd_member(args) -> int:
    a = _load_nbw(args.infile)
    u = parse_word(a.alphabet, args.u)
    v = parse_word(a.alphabet, args.v)
    if not v:
        print("--v must be a non-empty period", file=sys.stderr)
        return EXIT_BAD_INPUT
    w = UpWord(u, v)
    row: dict = {"u": _join_word(u), "v": _join_word(v), "via": args.via}
    if args.via == "oracle":
        verdict = lasso_membership(a, w)
        lasso = verdict.witness
        row["accepted"] = verdict.accepted
        row["witness_stem"] = _join_word(lasso.stem_letters) if lasso else None
        row["witness_cycle"] = _join_word(lasso.cycle_letters) if lasso else None
    else:
        # the complement family accepts exactly the words outside L(A), so
        # membership is its negated verdict
        f = _VARIANTS[args.via.removeprefix("complement-")](a, args.budget)
        row["accepted"] = not accepts_upword(f, w)
    _emit(list(row), [row], args)
    return EXIT_OK


def cmd_contains(args) -> int:
    a = _load_nbw(args.left)
    b = _load_nbw(args.right)
    holds, cex = containment(a, b, args.budget)
    row = {
        "holds": holds,
        "counterexample_prefix": _join_word(cex.prefix) if cex else None,
        "counterexample_period": _join_word(cex.period) if cex else None,
    }
    _emit(list(row), [row], args)
    return EXIT_OK if holds else EXIT_CHECK_FAILED


# --- family --------------------------------------------------------------------


def cmd_family(args) -> int:
    if args.variant == "bn":
        a = gen_bn(args.n)
    elif args.variant == "bn-dbw":
        a = gen_bn_dbw(args.n)
    else:
        a = random_nbw(args.seed, args.n, tuple(args.symbols.split()))
    _write_text(args.out, serialize_nbw(a))
    return EXIT_OK


# --- saturation-check ------------------------------------------------------------


def _fmt_decomp(d: UpWord) -> str:
    return f"{_join_word(d.prefix)},{_join_word(d.period)}"


def cmd_saturation_check(args) -> int:
    f, _ = _family(args)
    violations = check_saturation_sampled(f, args.max_u, args.max_v, cap=args.cap)
    rows = [
        {
            "word_prefix": _join_word(v.word.prefix),
            "word_period": _join_word(v.word.period),
            "captured": "|".join(_fmt_decomp(d) for d in v.captured),
            "uncaptured": "|".join(_fmt_decomp(d) for d in v.uncaptured),
        }
        for v in violations
    ]
    _emit(["word_prefix", "word_period", "captured", "uncaptured"], rows, args)
    return EXIT_OK if not violations else EXIT_CHECK_FAILED


# --- bounds suite ----------------------------------------------------------------


def _arrangement_count(n: int) -> int:
    """Number of arrangements over n states, the payload space of the
    optimal leading congruence: ordered partitions (Fubini numbers) of every
    subset, so 2, 6, 26, 150 for n = 1..4."""
    fubini = [1]
    for k in range(1, n + 1):
        fubini.append(sum(math.comb(k, i) * fubini[k - i] for i in range(1, k + 1)))
    return sum(math.comb(n, k) * fubini[k] for k in range(n + 1))


def run_bounds_suite(automata: list[tuple[str, Nbw]], budget: int) -> list[dict]:
    """Compute every congruence per automaton, check the per-relation class
    bounds, and account complement macrostates per variant.  A count is None
    when its phase exceeded the class budget; budget_exceeded names the phase,
    and the table goes on."""
    rows = []
    for aid, a in automata:
        n = len(a.states)
        deterministic = a.is_deterministic() and a.is_complete()
        blown: list[str] = []
        t0 = time.perf_counter()

        def guarded(thunk):
            try:
                return thunk()
            except BudgetExceededError as e:
                blown.append(e.phase)
                return None

        def measure(build_lead, build_progress):
            """(leading classes, progress max, progress sum, macrostates), None
            for what a blown budget left unknown.  The progress relations of
            one leading DFW share a step memo, as in a complement build."""
            lead = guarded(lambda: build_lead(a, budget))
            if lead is None:
                return None, None, None, None
            memo: dict = {}
            sizes = [
                guarded(lambda m=m: len(build_progress(a, lead, m, budget, memo=memo)))
                for m in range(len(lead))
            ]
            if None in sizes:
                return len(lead), None, None, None
            return len(lead), max(sizes), sum(sizes), len(lead) + sum(sizes)

        row = {"id": aid, "n": n, "deterministic": deterministic}
        row["classical"] = guarded(lambda: len(classical_congruence(a, budget)))
        progress_columns = (
            ("improved_max", "improved_sum", "macro_improved"),
            ("optimal_progress_max", "optimal_progress_sum", "macro_optimal"),
        )
        for (lead_name, build_lead, _, build_progress), names in zip(_LEADING_AND_PROGRESS, progress_columns):
            row.update(zip((lead_name, *names), measure(build_lead, build_progress)))
        # the paper's class bounds as (count, cap), skipping None counts; the
        # 2n^2 cap on the improved progress sum holds for deterministic automata
        bounds = [
            (row["classical"], 3 ** (n * n)),
            (row["subset"], 2**n),
            (row["improved_max"], 3 ** (n * n)),
            (row["improved_sum"] if deterministic else None, 2 * n * n),
            (row["optimal"], _arrangement_count(n)),
            (row["optimal_progress_max"], n**n * (n + 1) ** n),
        ]
        row["bounds_ok"] = all(count <= cap for count, cap in bounds if count is not None)
        row["budget_exceeded"] = ";".join(blown)
        row["elapsed_ms"] = int(round((time.perf_counter() - t0) * 1000))
        rows.append(row)
    return rows


_BOUNDS_COLUMNS = [
    "id", "n", "deterministic", "classical", "subset", "improved_max", "improved_sum", "optimal",
    "optimal_progress_max", "optimal_progress_sum", "macro_improved", "macro_optimal",
    "bounds_ok", "budget_exceeded", "elapsed_ms",
]


def _suite_automata(args) -> list[tuple[str, Nbw]]:
    out = [(f"bn{n}", gen_bn(n)) for n in args.bn]
    out += [(f"bn-dbw{n}", gen_bn_dbw(n)) for n in args.bn_dbw]
    symbols = tuple(args.symbols.split())
    for i in range(args.random):
        size = 2 + i % (args.states - 1) if args.states > 1 else 1
        seed = args.seed + i
        out.append((f"rnd{seed}n{size}", random_nbw(seed, size, symbols)))
    return out


def cmd_bounds_suite(args) -> int:
    rows = run_bounds_suite(_suite_automata(args), args.budget)
    _emit(_BOUNDS_COLUMNS, rows, args)
    if any(not r["bounds_ok"] for r in rows):
        return EXIT_CHECK_FAILED
    return EXIT_BUDGET if any(r["budget_exceeded"] for r in rows) else EXIT_OK


# --- equivalence suite -------------------------------------------------------------


def run_equivalence_suite(aid: str, a: Nbw, max_u: int, max_v: int, budget: int) -> list[dict]:
    """One row per complement variant: the mismatches of complement-family and
    complement-automaton acceptance against the negated lasso oracle over the
    whole corpus, plus the exact product-emptiness check."""
    corpus = canonical_upwords(a.alphabet, max_u, max_v)
    oracle = {w: lasso_membership(a, w).accepted for w in corpus}
    rows = []
    for variant, builder in _VARIANTS.items():
        t0 = time.perf_counter()
        f = builder(a, budget)
        nbw = fdfw_to_nbw(f)
        leading, progress = f.size()
        rows.append(
            {
                "id": aid,
                "n": len(a.states),
                "variant": variant,
                "corpus": len(corpus),
                "fdfw_mismatches": sum(1 for w in corpus if accepts_upword(f, w) == oracle[w]),
                "nbw_mismatches": sum(
                    1 for w in corpus if lasso_membership(nbw, w).accepted == oracle[w]
                ),
                "disjoint": _product_lasso(a, nbw) is None,
                "macrostates": leading + progress,
                "nbw_states": len(nbw.states),
                "nbw_within_bound": len(nbw.states) <= nbw_state_bound(f),
                "elapsed_ms": int(round((time.perf_counter() - t0) * 1000)),
            }
        )
    return rows


_EQUIV_COLUMNS = [
    "id", "n", "variant", "corpus", "fdfw_mismatches", "nbw_mismatches", "disjoint",
    "macrostates", "nbw_states", "nbw_within_bound", "elapsed_ms",
]


def cmd_equiv_suite(args) -> int:
    automata = _suite_automata(args)
    if args.infile:
        automata.insert(0, (args.infile, _load_nbw(args.infile)))
    rows: list[dict] = []
    for aid, a in automata:
        rows += run_equivalence_suite(aid, a, args.max_u, args.max_v, args.budget)
    _emit(_EQUIV_COLUMNS, rows, args)
    failed = any(
        r["fdfw_mismatches"] or r["nbw_mismatches"] or not r["disjoint"]
        or not r["nbw_within_bound"]
        for r in rows
    )
    return EXIT_CHECK_FAILED if failed else EXIT_OK


# --- argument parsing -----------------------------------------------------------


def _add_common(p: argparse.ArgumentParser):
    # no default: main() reads $CONGRUENCE_BUDGET, so that a --budget given
    # where it does not apply can be told apart from the default
    p.add_argument(
        "--budget",
        type=_positive_budget,
        help=f"class budget (default: $CONGRUENCE_BUDGET, else {DEFAULT_CLASS_BUDGET})",
    )
    p.add_argument("--json", action="store_true", help="emit JSON instead of TSV")


def _add_suite_selection(p: argparse.ArgumentParser):
    p.add_argument("--bn", type=_int_list, default="3", help="comma list of permutation family sizes")
    p.add_argument("--bn-dbw", type=_int_list, default="", help="comma list of deterministic family sizes")
    p.add_argument("--random", type=_int_at_least(0), default=5, help="number of random automata")
    p.add_argument("--states", type=_int_at_least(1), default=4, help="max states of random automata")
    p.add_argument("--symbols", default="a b", help="alphabet of random automata")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="base RNG seed")
    p.add_argument("--timings", action="store_true", help="append wall-clock column")


_CORPUS_BOUNDS = (3, 3)  # the default prefix and period length bounds of the word corpus


def _add_corpus_bounds(p: argparse.ArgumentParser) -> None:
    """The prefix and period length bounds of the canonical word corpus."""
    p.add_argument("--max-u", type=int, default=_CORPUS_BOUNDS[0])
    p.add_argument("--max-v", type=int, default=_CORPUS_BOUNDS[1])


def _add_source(p: argparse.ArgumentParser, fdfw_help: str) -> None:
    """Exactly one input: an automaton to complement with --variant, or a
    family file."""
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--in", dest="infile", help="automaton file (nbw/HOA)")
    src.add_argument("--fdfw", help=fdfw_help)
    p.add_argument(
        "--variant",
        choices=["optimal", "improved"],
        help="complement variant for --in (default: optimal)",
    )


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="buchicong",
        description="Congruence-based complementation toolkit for Büchi automata",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classes", help="congruence class statistics")
    p.add_argument("--in", dest="infile", required=True, help="automaton file (nbw/HOA)")
    p.add_argument(
        "--relation",
        default="all",
        choices=["classical", "subset", "optimal", "improved-progress", "optimal-progress", "all"],
    )
    p.add_argument("--u", default=None, help="context word for progress relations")
    p.add_argument("--dump", default=None, help="write the quotient DFW here (plus .witnesses.tsv)")
    _add_common(p)
    p.set_defaults(func=cmd_classes)

    p = sub.add_parser("complement", help="build a complement family")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--variant", required=True, choices=["optimal", "improved"])
    p.add_argument("--out", default=None, help="write the family file here")
    p.add_argument("--timings", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_complement)

    p = sub.add_parser("to-nbw", help="translate a family to a Büchi automaton")
    _add_source(p, "translate this family file instead")
    p.add_argument("--out", default=None, help="write the automaton here")
    _add_common(p)
    p.set_defaults(func=cmd_to_nbw)

    p = sub.add_parser("member", help="ultimately periodic membership")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--u", default="", help="prefix word")
    p.add_argument("--v", required=True, help="period word (non-empty)")
    p.add_argument(
        "--via",
        default="oracle",
        choices=["oracle", "complement-optimal", "complement-improved"],
        help="oracle checks the automaton; complement-* check its complement family",
    )
    _add_common(p)
    p.set_defaults(func=cmd_member)

    p = sub.add_parser("contains", help="language containment L(a) within L(b)")
    p.add_argument("left", help="automaton file for the left language")
    p.add_argument("right", help="automaton file for the right language")
    _add_common(p)
    p.set_defaults(func=cmd_contains)

    p = sub.add_parser("family", help="emit a benchmark family automaton")
    p.add_argument("--variant", required=True, choices=["bn", "bn-dbw", "random"])
    p.add_argument("--n", type=int, required=True, help="family size / state count")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="seed for random variant")
    p.add_argument("--symbols", default="a b", help="alphabet for random variant")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("saturation-check", help="probe saturation on a word corpus")
    _add_source(p, "check this family file instead")
    _add_corpus_bounds(p)
    p.add_argument("--cap", type=int, default=8, help="examples kept per violation side")
    _add_common(p)
    p.set_defaults(func=cmd_saturation_check)

    p = sub.add_parser("bounds-suite", help="class-count bound table")
    _add_suite_selection(p)
    _add_common(p)
    p.set_defaults(func=cmd_bounds_suite)

    p = sub.add_parser("equiv-suite", help="complement pipeline equivalence table")
    p.add_argument("--in", dest="infile", default=None, help="also include this automaton file")
    _add_suite_selection(p)
    _add_corpus_bounds(p)
    _add_common(p)
    p.set_defaults(func=cmd_equiv_suite)

    return ap


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "fdfw", None) is not None:
        for flag in ("variant", "budget"):
            if getattr(args, flag) is not None:
                parser.error(f"--{flag} applies to --in, not to --fdfw")
    if args.command == "classes" and args.u is not None and not args.relation.endswith("progress"):
        parser.error("--u applies to --relation improved-progress or optimal-progress")
    if "budget" in vars(args) and args.budget is None:
        raw = os.environ.get("CONGRUENCE_BUDGET", str(DEFAULT_CLASS_BUDGET))
        try:
            args.budget = _positive_budget(raw)
        except argparse.ArgumentTypeError as e:
            parser.error(str(e))
    # these commands print a report on stdout, which the output file must not share
    if args.command in ("complement", "to-nbw") and args.out == "-":
        print("--out needs a file name, not -", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        return args.func(args)
    except ParseError as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except BudgetExceededError as e:
        print(f"budget error: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
