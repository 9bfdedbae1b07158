"""Command-line surface: subcommands, formats, exit codes, and determinism."""

from __future__ import annotations

import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import buchicong
from buchicong import parse_fdfw, parse_nbw, serialize_fdfw, serialize_nbw
from buchicong.cli import main
from conftest import ARROW_CLASS_FAMILY, single_word_family


@pytest.fixture(scope="module")
def b3_file(tmp_path_factory, b3):
    path = tmp_path_factory.mktemp("auto") / "b3.nbw"
    path.write_text(serialize_nbw(b3))
    return str(path)


@pytest.fixture(scope="module")
def dbw3_file(tmp_path_factory):
    from buchicong import gen_bn_dbw

    path = tmp_path_factory.mktemp("auto") / "dbw3.nbw"
    path.write_text(serialize_nbw(gen_bn_dbw(3)))
    return str(path)


def run(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def tsv_rows(out: str) -> list[dict]:
    lines = out.strip().splitlines()
    header = lines[0].split("\t")
    return [dict(zip(header, line.split("\t"))) for line in lines[1:]]


# --- family and classes -----------------------------------------------------------


def test_family_writes_a_parseable_automaton(tmp_path, capsys):
    out = tmp_path / "bn2.nbw"
    code, _ = run(capsys, "family", "--variant", "bn", "--n", "2", "--out", str(out))
    assert code == 0
    a = parse_nbw(out.read_text())
    assert len(a.states) == 5
    assert a.alphabet.symbols == ("0", "1", "2")


def test_module_entry_point_runs():
    # the child imports the package from where this process found it, which
    # need not be on the inherited PYTHONPATH (pytest's `pythonpath` setting)
    package_root = str(Path(buchicong.__file__).parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "buchicong", "family", "--variant", "bn", "--n", "2"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("nbw\n")


def test_family_bn_dbw_is_deterministic(capsys):
    code, out = run(capsys, "family", "--variant", "bn-dbw", "--n", "3")
    assert code == 0
    a = parse_nbw(out)
    assert a.is_deterministic() and a.is_complete()
    assert len(a.states) == 5


def test_dash_reads_the_automaton_from_stdin(b3, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(serialize_nbw(b3)))
    code, out = run(capsys, "member", "--in", "-", "--u", "1", "--v", "1 1")
    assert code == 0
    assert tsv_rows(out)[0]["accepted"] == "yes"


def test_classes_reports_one_relation(b3_file, capsys):
    code, out = run(capsys, "classes", "--in", b3_file, "--relation", "subset")
    assert code == 0
    rows = tsv_rows(out)
    assert len(rows) == 1
    assert rows[0]["relation"] == "subset"
    assert rows[0]["classes"] == "6"
    assert rows[0]["max_witness_len"] == "2"


def test_classes_reports_every_relation(b3_file, capsys):
    code, out = run(capsys, "classes", "--in", b3_file)
    assert code == 0
    counts = {r["relation"]: r["classes"] for r in tsv_rows(out)}
    assert counts["classical"] == "65"
    assert counts["subset"] == "6"
    assert counts["optimal"] == "6"
    assert counts["improved-progress[]"] == "6"
    assert counts["optimal-progress[0 0]"] == "2"
    assert len(counts) == 15


def test_classes_all_times_each_leading_relation(b3_file, capsys, monkeypatch):
    # `all` used to build each leading DFW before its row and time nothing
    def slow(build):
        def wrapped(*args):
            time.sleep(0.1)
            return build(*args)

        return wrapped

    builders = buchicong.cli._LEADING_AND_PROGRESS
    monkeypatch.setattr(
        buchicong.cli,
        "_LEADING_AND_PROGRESS",
        tuple((lead, slow(b), prog, bp) for lead, b, prog, bp in builders),
    )
    for relation in ("subset", "optimal", "all"):
        code, out = run(capsys, "classes", "--in", b3_file, "--relation", relation, "--json")
        assert code == 0
        elapsed = {r["relation"]: r["elapsed_ms"] for r in json.loads(out)}
        for lead in {"subset", "optimal"} & set(elapsed):
            assert elapsed[lead] >= 100


def test_classes_context_word_needs_a_progress_relation(b3_file, capsys):
    # --u used to be ignored silently outside the progress relations
    for relation in ("classical", "subset", "optimal", "all"):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "classes", "--in", b3_file, "--relation", relation, "--u", "0")
        assert exc.value.code == 2
        assert "error: --u applies to --relation improved-progress" in capsys.readouterr().err
    for relation in ("improved-progress", "optimal-progress"):
        code, out = run(capsys, "classes", "--in", b3_file, "--relation", relation, "--u", "0")
        assert code == 0
        assert len(tsv_rows(out)) == 1


def test_classes_json_mode(b3_file, capsys):
    code, out = run(capsys, "classes", "--in", b3_file, "--relation", "optimal", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc[0]["relation"] == "optimal"
    assert doc[0]["classes"] == 6


def test_classes_dump_writes_quotient_and_witnesses(b3_file, tmp_path, capsys):
    dump = tmp_path / "subset.dfw"
    code, _ = run(
        capsys, "classes", "--in", b3_file, "--relation", "subset", "--dump", str(dump)
    )
    assert code == 0
    assert dump.read_text().startswith("dfw\n")
    table = (tmp_path / "subset.dfw.witnesses.tsv").read_text().strip().splitlines()
    assert table[0] == "class\twitness"
    assert len(table) == 7


def test_classes_dump_needs_a_concrete_relation(b3_file, tmp_path, capsys):
    code, _ = run(
        capsys, "classes", "--in", b3_file, "--dump", str(tmp_path / "x.dfw")
    )
    assert code == 2


def test_classes_dump_rejects_stdout(b3_file, tmp_path, capsys, monkeypatch):
    # "-" would put the DFW into the stdout report and the class table into
    # a file named "-.witnesses.tsv"
    monkeypatch.chdir(tmp_path)
    code = main(["classes", "--in", b3_file, "--relation", "subset", "--dump", "-"])
    assert code == 2
    assert "--dump" in capsys.readouterr().err
    assert not (tmp_path / "-.witnesses.tsv").exists()
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["complement", "to-nbw"])
def test_out_rejects_stdout(command, b3_file, tmp_path, capsys, monkeypatch):
    # "-" would put the family or automaton text and the report on one stdout
    monkeypatch.chdir(tmp_path)
    code = main([command, "--in", b3_file, "--variant", "optimal", "--out", "-"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "--out needs a file name, not -\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_family_out_dash_still_writes_stdout(capsys):
    code, out = run(capsys, "family", "--variant", "bn", "--n", "2", "--out", "-")
    assert code == 0
    assert len(parse_nbw(out).states) == 5


def test_family_rejects_a_symbol_holding_a_comment_mark(tmp_path, capsys):
    # the written file would lose every token after the `#` on reading
    out = tmp_path / "x.nbw"
    code = main(["family", "--variant", "random", "--n", "2", "--symbols", "a#1 b", "--out", str(out)])
    assert code == 2
    assert "invalid symbol token 'a#1'" in capsys.readouterr().err
    assert not out.exists()


# --- membership and containment ------------------------------------------------------


def test_member_oracle_reports_witness(b3_file, capsys):
    code, out = run(capsys, "member", "--in", b3_file, "--u", "1", "--v", "1 1")
    assert code == 0
    row = tsv_rows(out)[0]
    assert row["accepted"] == "yes"
    assert row["witness_cycle"]


def test_member_routes_agree(b3_file, capsys):
    for via in ("oracle", "complement-optimal", "complement-improved"):
        code, out = run(
            capsys, "member", "--in", b3_file, "--u", "1", "--v", "2", "--via", via
        )
        assert code == 0
        assert tsv_rows(out)[0]["accepted"] == "no"


def test_member_needs_a_period(b3_file, capsys):
    code, _ = run(capsys, "member", "--in", b3_file, "--v", "")
    assert code == 2


def test_contains_both_directions(b3_file, dbw3_file, capsys):
    code, out = run(capsys, "contains", dbw3_file, b3_file)
    assert code == 0
    assert tsv_rows(out)[0]["holds"] == "yes"
    code, out = run(capsys, "contains", b3_file, dbw3_file)
    assert code == 1
    row = tsv_rows(out)[0]
    assert row["holds"] == "no"
    assert row["counterexample_period"] == "0"


def test_contains_rejects_mismatched_alphabets_before_any_build(tmp_path, capsys):
    # even a budget of one class must not be reached: the alphabets are
    # compared before the right side's complement is built
    left, right = tmp_path / "l.nbw", tmp_path / "r.nbw"
    left.write_text("nbw\nalphabet: a b\nstates: p\ninitial: p\naccepting: p\ntrans: p a -> p\n")
    right.write_text("nbw\nalphabet: a c\nstates: p\ninitial: p\naccepting: p\ntrans: p c -> p\n")
    for budget in ((), ("--budget", "1")):
        code = main(["contains", *budget, str(left), str(right)])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == "error: containment needs a shared alphabet\n"


# --- complement, translation, saturation ----------------------------------------------


def test_complement_reports_sizes_and_writes_family(b3_file, tmp_path, capsys):
    out_file = tmp_path / "b3.fdfw"
    code, out = run(
        capsys,
        "complement",
        "--in",
        b3_file,
        "--variant",
        "optimal",
        "--out",
        str(out_file),
    )
    assert code == 0
    row = tsv_rows(out)[0]
    assert row == {
        "variant": "optimal",
        "leading_classes": "6",
        "progress_classes": "43",
        "accepting_classes": "3",
        "macrostates": "49",
    }
    f = parse_fdfw(out_file.read_text())
    assert f.size() == (6, 43)


def test_complement_timings_column_is_opt_in(b3_file, capsys):
    code, out = run(capsys, "complement", "--in", b3_file, "--variant", "improved")
    assert "elapsed_ms" not in out
    code, out = run(
        capsys, "complement", "--in", b3_file, "--variant", "improved", "--timings"
    )
    assert code == 0
    assert "elapsed_ms" in out.splitlines()[0]


def test_to_nbw_from_variant_and_from_file(b3_file, tmp_path, capsys):
    code, out = run(capsys, "to-nbw", "--in", b3_file, "--variant", "optimal")
    assert code == 0
    row = tsv_rows(out)[0]
    assert row["nbw_states"] == "10"
    assert row["state_bound"] == "270"
    assert row["within_bound"] == "yes"

    fam = tmp_path / "single.fdfw"
    fam.write_text(serialize_fdfw(single_word_family()))
    nbw_out = tmp_path / "single.nbw"
    code, out = run(capsys, "to-nbw", "--fdfw", str(fam), "--out", str(nbw_out))
    assert code == 0
    assert tsv_rows(out)[0]["source"] == str(fam)
    parse_nbw(nbw_out.read_text())


def test_to_nbw_warns_on_an_unsaturated_family(b3_file, tmp_path, capsys):
    fam = tmp_path / "single.fdfw"
    fam.write_text(serialize_fdfw(single_word_family()))
    code = main(["to-nbw", "--fdfw", str(fam)])
    out, err = capsys.readouterr()
    assert code == 0
    assert tsv_rows(out)[0]["within_bound"] == "yes"
    assert err.count("\n") == 1
    assert err.startswith("warning: unsaturated family")
    # a built complement is saturated and translates without a word
    assert main(["to-nbw", "--in", b3_file]) == 0
    assert capsys.readouterr().err == ""


def test_to_nbw_probes_a_family_file_that_claims_saturation(b3_file, tmp_path, capsys):
    fam = tmp_path / "single.fdfw"
    honest = serialize_fdfw(single_word_family())
    fam.write_text(honest)
    assert main(["to-nbw", "--fdfw", str(fam)]) == 0
    out_honest = capsys.readouterr().out
    # the same family, claiming saturation falsely: (a b)^omega has a
    # captured and an uncaptured decomposition within |u|, |v| <= 3
    fam.write_text(honest.replace("saturated: false", "saturated: true"))
    code = main(["to-nbw", "--fdfw", str(fam)])
    out, err = capsys.readouterr()
    assert code == 0
    assert out == out_honest
    assert err == "warning: unsaturated family, so the automaton may accept more words\n"
    # a built complement's file claims saturation truly
    built = tmp_path / "b3.fdfw"
    assert main(["complement", "--in", b3_file, "--variant", "optimal", "--out", str(built)]) == 0
    capsys.readouterr()
    assert main(["to-nbw", "--fdfw", str(built)]) == 0
    assert capsys.readouterr().err == ""


def test_to_nbw_rejects_a_family_with_an_arrow_class_name(tmp_path, capsys):
    fam = tmp_path / "arrow.fdfw"
    fam.write_text(ARROW_CLASS_FAMILY)
    code = main(["to-nbw", "--fdfw", str(fam)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "line 4: invalid state token '->'" in err


def test_to_nbw_exits_1_on_a_bound_breach(b3_file, capsys, monkeypatch):
    monkeypatch.setattr("buchicong.cli.nbw_state_bound", lambda f: 0)
    code, out = run(capsys, "to-nbw", "--in", b3_file, "--variant", "optimal")
    assert code == 1
    assert tsv_rows(out)[0]["within_bound"] == "no"


def test_to_nbw_needs_some_input(capsys):
    for cmd in ("to-nbw", "saturation-check"):
        with pytest.raises(SystemExit) as exc:
            run(capsys, cmd)
        assert exc.value.code == 2


def test_in_and_fdfw_exclude_each_other(b3_file, tmp_path, capsys):
    # with both given, --in used to be ignored silently and the command exited 0
    fam = tmp_path / "b3.fdfw"
    code, _ = run(capsys, "complement", "--in", b3_file, "--variant", "optimal", "--out", str(fam))
    assert code == 0
    for cmd in ("to-nbw", "saturation-check"):
        with pytest.raises(SystemExit) as exc:
            run(capsys, cmd, "--in", b3_file, "--fdfw", str(fam))
        assert exc.value.code == 2


def test_variant_and_budget_do_not_apply_to_fdfw(b3_file, tmp_path, capsys):
    # both used to be ignored silently, and the command exited 0
    fam = tmp_path / "b3.fdfw"
    code, _ = run(capsys, "complement", "--in", b3_file, "--variant", "optimal", "--out", str(fam))
    assert code == 0
    for cmd in ("to-nbw", "saturation-check"):
        for flag, value in (("--variant", "optimal"), ("--budget", "1")):
            with pytest.raises(SystemExit) as exc:
                run(capsys, cmd, "--fdfw", str(fam), flag, value)
            assert exc.value.code == 2
            assert f"error: {flag} applies to --in" in capsys.readouterr().err


def test_saturation_check_passes_on_built_complements(b3_file, capsys):
    code, out = run(
        capsys,
        "saturation-check",
        "--in",
        b3_file,
        "--variant",
        "improved",
        "--max-u",
        "2",
        "--max-v",
        "2",
    )
    assert code == 0
    assert tsv_rows(out) == []


def test_saturation_check_flags_the_handcrafted_family(tmp_path, capsys):
    fam = tmp_path / "single.fdfw"
    fam.write_text(serialize_fdfw(single_word_family()))
    code, out = run(
        capsys, "saturation-check", "--fdfw", str(fam), "--max-u", "2", "--max-v", "2"
    )
    assert code == 1
    rows = tsv_rows(out)
    hit = [r for r in rows if r["word_period"] == "a b" and not r["word_prefix"]]
    assert hit
    assert "a b,a b" in hit[0]["captured"]
    assert "a b,a b a b" in hit[0]["uncaptured"]


def test_saturation_check_rejects_a_zero_cap(tmp_path, capsys):
    # with no example kept per side no word could show a disagreement, so
    # the probe would pass vacuously
    fam = tmp_path / "single.fdfw"
    fam.write_text(serialize_fdfw(single_word_family()))
    code, out = run(capsys, "saturation-check", "--fdfw", str(fam), "--cap", "0")
    assert code == 2
    assert out == ""


# --- suites -----------------------------------------------------------------------------


def test_bounds_suite_reports_and_passes(capsys):
    code, out = run(
        capsys, "bounds-suite", "--bn", "3", "--bn-dbw", "3", "--random", "2"
    )
    assert code == 0
    rows = {r["id"]: r for r in tsv_rows(out)}
    assert rows["bn3"]["classical"] == "65"
    assert rows["bn3"]["macro_optimal"] == "49"
    assert rows["bn-dbw3"]["subset"] == "5"
    assert rows["bn-dbw3"]["macro_improved"] == "32"
    assert all(r["bounds_ok"] == "yes" for r in rows.values())


def test_bounds_suite_caps_optimal_by_the_arrangement_count(capsys):
    # rnd1741n2 reaches 5 arrangements, above 2**2 but within the 6 that
    # exist over two states
    code, out = run(capsys, "bounds-suite", "--bn", "", "--random", "13")
    assert code == 0
    rows = {r["id"]: r for r in tsv_rows(out)}
    assert rows["rnd1741n2"]["optimal"] == "5"
    assert rows["rnd1741n2"]["bounds_ok"] == "yes"


def test_bounds_suite_exits_3_after_the_whole_table_on_a_blown_budget(capsys):
    code, out = run(
        capsys, "bounds-suite", "--bn", "3", "--random", "2", "--budget", "2"
    )
    assert code == 3
    rows = tsv_rows(out)
    assert [r["id"] for r in rows] == ["bn3", "rnd1729n2", "rnd1730n3"]
    assert rows[0]["budget_exceeded"] == "classical;subset;optimal"
    assert rows[1]["budget_exceeded"] == ""


def test_bounds_suite_names_blown_relations_by_their_budget_phase(capsys):
    code, out = run(
        capsys, "bounds-suite", "--bn", "3", "--random", "4", "--budget", "9"
    )
    assert code == 3
    rows = {r["id"]: r for r in tsv_rows(out)}
    assert rows["rnd1730n3"]["budget_exceeded"] == (
        "classical;improved-progress[a a];improved-progress[b b];"
        "improved-progress[a a b]"
    )
    assert rows["bn3"]["budget_exceeded"] == "classical;optimal-progress[]"


def test_bounds_suite_exits_1_after_the_whole_table_on_a_broken_cap(capsys, monkeypatch):
    monkeypatch.setattr("buchicong.cli._arrangement_count", lambda n: 0)
    code, out = run(capsys, "bounds-suite", "--bn", "2,3", "--random", "2")
    assert code == 1
    rows = tsv_rows(out)
    assert [r["id"] for r in rows] == ["bn2", "bn3", "rnd1729n2", "rnd1730n3"]
    assert {r["bounds_ok"] for r in rows} == {"no"}


def test_suites_reject_negative_counts_and_empty_state_ranges(capsys):
    # a negative --random printed an empty table and --states 0 built
    # one-state automata, both with exit 0
    for suite in ("bounds-suite", "equiv-suite"):
        for bad in (("--random", "-3"), ("--states", "0")):
            with pytest.raises(SystemExit) as exc:
                run(capsys, suite, "--bn", "", *bad)
            assert exc.value.code == 2


def test_suites_name_the_flag_of_a_bad_family_list(capsys):
    for suite in ("bounds-suite", "equiv-suite"):
        for flag, bad in (("--bn", "x"), ("--bn-dbw", "2,y")):
            with pytest.raises(SystemExit) as exc:
                run(capsys, suite, flag, bad, "--random", "0")
            assert exc.value.code == 2
            assert f"argument {flag}: must be a comma list of integers" in capsys.readouterr().err
        # a size below 1 used to reach the family generator, whose error
        # named no flag
        for flag, bad in (("--bn", "0"), ("--bn-dbw", "2,-1"), ("--bn", "2,0")):
            with pytest.raises(SystemExit) as exc:
                run(capsys, suite, flag, bad, "--random", "0")
            assert exc.value.code == 2
            assert f"argument {flag}: every size must be at least 1, got {bad!r}" in capsys.readouterr().err


def test_readme_reproduction_commands_pass(capsys):
    code, _ = run(capsys, "bounds-suite", "--bn", "2,3", "--bn-dbw", "2,3", "--random", "20")
    assert code == 0
    code, _ = run(capsys, "equiv-suite", "--bn", "2,3", "--random", "15")
    assert code == 0


def test_readme_command_line_examples_pass(tmp_path, monkeypatch, capsys):
    # every command of the README's "Command line" block, in order, so the
    # files the first ones write feed the later ones
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("buchicong ")]
    assert len(commands) == 15
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, argv
    capsys.readouterr()


def test_reports_are_byte_identical(capsys):
    argv = ("bounds-suite", "--bn", "1", "--random", "2")
    code1, out1 = run(capsys, *argv)
    code2, out2 = run(capsys, *argv)
    assert (code1, code2) == (0, 0)
    assert out1 == out2
    argv = ("equiv-suite", "--bn", "", "--random", "1", "--max-u", "2", "--max-v", "2")
    code1, out1 = run(capsys, *argv)
    code2, out2 = run(capsys, *argv)
    assert (code1, code2) == (0, 0)
    assert out1 == out2


def _mask_elapsed(out: str) -> str:
    """The report with every elapsed_ms value replaced by `-`."""
    if out.startswith("["):
        return re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": -', out)
    rows = [line.split("\t") for line in out.splitlines()]
    if rows and "elapsed_ms" in rows[0]:
        col = rows[0].index("elapsed_ms")
        for row in rows[1:]:
            row[col] = "-"
    return "".join("\t".join(row) + "\n" for row in rows)


def _report_commands() -> list[tuple[tuple[str, ...], tuple[str, ...]]]:
    """(argv, files it writes) for every subcommand on bn3 and bn-dbw3."""
    cmds: list = [
        (("family", "--variant", "bn", "--n", "3"), ()),
        (("family", "--variant", "bn-dbw", "--n", "3"), ()),
        (("contains", "bn3.nbw", "dbw3.nbw"), ()),
        (("contains", "dbw3.nbw", "bn3.nbw", "--json"), ()),
        (("saturation-check", "--fdfw", "single.fdfw", "--max-u", "2", "--max-v", "2"), ()),
        (("saturation-check", "--fdfw", "single.fdfw", "--max-u", "1", "--max-v", "2", "--json"), ()),
    ]
    suites = ("--bn", "3", "--bn-dbw", "3", "--random", "0")
    for extra in ((), ("--json",), ("--timings",), ("--json", "--timings"), ("--budget", "9")):
        cmds.append((("bounds-suite", *suites, *extra), ()))
    for name in ("bn3", "dbw3"):
        src = ("--in", f"{name}.nbw")
        for fmt in ((), ("--json",)):
            cmds.append((("classes", *src, *fmt), ()))
            for relation in ("subset", "optimal-progress"):
                dump = f"{name}.{relation}{''.join(fmt)}.dfw"
                context = ("--u", "0") if relation.endswith("progress") else ()
                argv = ("classes", *src, "--relation", relation, *context, "--dump", dump, *fmt)
                cmds.append((argv, (dump, dump + ".witnesses.tsv")))
            for variant in ("optimal", "improved"):
                fam = f"{name}.{variant}{''.join(fmt)}.fdfw"
                for timings in ((), ("--timings",)):
                    argv = ("complement", *src, "--variant", variant, *timings, *fmt)
                    cmds.append((argv, ()))
                cmds.append((("complement", *src, "--variant", variant, "--out", fam, *fmt), (fam,)))
                cmds.append((("to-nbw", "--fdfw", fam, "--out", fam + ".nbw", *fmt), (fam + ".nbw",)))
                cmds.append((("to-nbw", *src, "--variant", variant, *fmt), ()))
                argv = ("saturation-check", *src, "--variant", variant, "--max-u", "1", "--max-v", "2", *fmt)
                cmds.append((argv, ()))
            for via in ("oracle", "complement-optimal", "complement-improved"):
                for u, v in (("1", "1 1"), ("", "0"), ("0 1", "2 3")):
                    cmds.append((("member", *src, "--u", u, "--v", v, "--via", via, *fmt), ()))
            for timings in ((), ("--timings",)):
                argv = ("equiv-suite", *src, "--bn", "", "--random", "0", "--max-u", "2", "--max-v", "2")
                cmds.append(((*argv, *timings, *fmt), ()))
    return cmds


# sha256 over the argv, exit code, stdout and written files of every command
# of _report_commands, with elapsed_ms values masked
REPORT_DIGEST = "a04647d9057c0b64"


def test_every_report_is_pinned(tmp_path, capsys, monkeypatch, b3):
    from buchicong import gen_bn_dbw

    monkeypatch.chdir(tmp_path)
    Path("bn3.nbw").write_text(serialize_nbw(b3))
    Path("dbw3.nbw").write_text(serialize_nbw(gen_bn_dbw(3)))
    Path("single.fdfw").write_text(serialize_fdfw(single_word_family()))
    h = hashlib.sha256()
    for argv, written in _report_commands():
        code, out = run(capsys, *argv)
        h.update(f"{argv!r}\n{code}\n{_mask_elapsed(out)}".encode())
        for path in written:
            h.update(Path(path).read_bytes())
    assert h.hexdigest()[:16] == REPORT_DIGEST


def test_equiv_suite_exit_reflects_agreement(capsys):
    code, out = run(
        capsys, "equiv-suite", "--bn", "", "--random", "2", "--max-u", "2", "--max-v", "2"
    )
    assert code == 0
    for row in tsv_rows(out):
        assert row["fdfw_mismatches"] == "0"
        assert row["nbw_mismatches"] == "0"
        assert row["disjoint"] == "yes"
        assert row["nbw_within_bound"] == "yes"


def test_equiv_suite_includes_the_in_file(b3_file, capsys):
    code, out = run(
        capsys, "equiv-suite", "--in", b3_file, "--bn", "", "--random", "1",
        "--max-u", "1", "--max-v", "1",
    )
    assert code == 0
    rows = tsv_rows(out)
    assert [(r["id"], r["variant"]) for r in rows] == [
        (b3_file, "optimal"), (b3_file, "improved"), ("rnd1729n2", "optimal"), ("rnd1729n2", "improved")
    ]
    assert rows[0]["n"] == "6"


def test_equiv_suite_counts_a_bound_breach_as_failure(capsys, monkeypatch):
    monkeypatch.setattr("buchicong.cli.nbw_state_bound", lambda f: 0)
    code, out = run(
        capsys, "equiv-suite", "--bn", "", "--random", "1", "--max-u", "1", "--max-v", "1"
    )
    assert code == 1
    assert {r["nbw_within_bound"] for r in tsv_rows(out)} == {"no"}


# --- budgets and failure modes ------------------------------------------------------------


def test_budget_flag_exits_with_budget_code(b3_file, capsys):
    code, _ = run(
        capsys, "classes", "--in", b3_file, "--relation", "subset", "--budget", "2"
    )
    assert code == 3


def test_budget_error_names_the_progress_phase(b3_file, capsys):
    # bn3's leading DFWs fit both budgets; the first progress DFW to exceed
    # one is named by its leading witness
    for variant, budget, phase in (
        ("optimal", "10", "optimal-progress[]"),
        ("improved", "8", "improved-progress[1]"),
    ):
        code = main(["complement", "--in", b3_file, "--variant", variant, "--budget", budget])
        out, err = capsys.readouterr()
        assert code == 3
        assert out == ""
        want = f"class budget exceeded in {phase}: {budget} classes, budget {budget}"
        assert err == f"budget error: {want}\n"


def test_budget_env_override(b3_file, capsys, monkeypatch):
    monkeypatch.setenv("CONGRUENCE_BUDGET", "2")
    code, _ = run(capsys, "classes", "--in", b3_file, "--relation", "subset")
    assert code == 3
    monkeypatch.setenv("CONGRUENCE_BUDGET", "50")
    code, _ = run(capsys, "classes", "--in", b3_file, "--relation", "subset")
    assert code == 0


def test_budget_env_rejects_garbage(b3_file, capsys, monkeypatch):
    for raw in ("zero", "0", "-3"):
        monkeypatch.setenv("CONGRUENCE_BUDGET", raw)
        with pytest.raises(SystemExit) as exc:
            run(capsys, "classes", "--in", b3_file, "--relation", "subset")
        assert exc.value.code == 2


def test_budget_flag_rejects_non_positive_values(b3_file, capsys):
    for raw in ("0", "-3"):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "classes", "--in", b3_file, "--relation", "subset", f"--budget={raw}")
        assert exc.value.code == 2


def test_missing_file_is_bad_input(capsys):
    code, _ = run(capsys, "classes", "--in", "no-such-file.nbw")
    assert code == 2


def test_malformed_file_is_bad_input(tmp_path, capsys):
    bad = tmp_path / "bad.nbw"
    bad.write_text("totally not an automaton\n")
    code, _ = run(capsys, "member", "--in", str(bad), "--v", "a")
    assert code == 2


def test_bad_state_id_is_bad_input_at_its_line(tmp_path, capsys):
    bad = tmp_path / "arrow.nbw"
    bad.write_text("nbw\nalphabet: a\nstates: -> q\ninitial: q\n")
    code = main(["member", "--in", str(bad), "--v", "a"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err == "input error: line 3: invalid state token '->'\n"


def test_foreign_symbol_is_bad_input(b3_file, capsys):
    code, _ = run(capsys, "member", "--in", b3_file, "--v", "9")
    assert code == 2
