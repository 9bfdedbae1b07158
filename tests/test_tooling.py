"""The traced benchmark looks library functions up by name and checks its
metric names against BENCHMARK.json; a refactor must keep both working."""

from __future__ import annotations

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

from buchicong import fdfw, random_nbw
from reference import image

ROOT = Path(__file__).resolve().parents[1]


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_functions_resolve():
    tracing = _load_tracing()
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _, _ in tracing.WRAPPED
        if not callable(getattr(module, attr, None))
    ]
    assert not missing


def test_benchmark_names_match_its_declaration():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "check_names.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_tracing_only_imports_are_still_wrapped():
    # fdfw.py imports some names only so that tracing can patch them there;
    # once tracing stops wrapping one, this names the import to delete
    tracing = _load_tracing()
    source = (ROOT / "src" / "buchicong" / "fdfw.py").read_text()
    pinned = re.findall(r"^\s+(\w+),\s+# noqa: F401\b.*perfbench/tracing\.py", source, re.M)
    wrapped = {attr for module, attr, _, _ in tracing.WRAPPED if module is fdfw}
    assert pinned
    assert [name for name in pinned if name not in wrapped] == []


def test_traced_build_counts_every_progress_relation():
    # the per-layer progress metrics count one traced call per leading class
    # and sum their class counts, even though the progress DFWs of one build
    # share the step memo of their leading DFW
    tracing = _load_tracing()
    a = random_nbw(1731, 5)
    for build, name in [
        ("complement_fdfw_optimal", "preorder.progress"),
        ("complement_fdfw_improved", "profiles.improved_progress"),
    ]:
        with tracing.Tracer() as tracer:
            f = getattr(fdfw, build)(a)
            got = tracer.take()
        assert got["calls"][name] == len(f.leading)
        assert got["sizes"][name + "_classes"] == f.size()[1]


def test_traced_improved_marking_reads_every_candidate_class():
    # the improved marking hands each class whose image is its leading
    # class's state mask to the traced public reader, and no other class
    tracing = _load_tracing()
    a = random_nbw(1731, 5)
    with tracing.Tracer() as tracer:
        f = fdfw.complement_fdfw_improved(a)
        got = tracer.take()
    candidates = sum(
        image(p) == f.leading.payloads[m]
        for m, prog in f.progress.items()
        for p in prog.payloads
    )
    assert candidates > 0
    assert got["calls"]["profiles.periodic_membership"] == candidates


def test_benchmark_workloads_pass_their_correctness_gate(monkeypatch):
    # every workload's set-up checks and op checks compare the built families
    # and automata with the digests pinned for the benchmark instances, so a
    # change to their bytes fails here rather than in a benchmark run
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    for name, make_pool in workloads.WORKLOADS.items():
        pool = make_pool(1729)
        assert [err for err in (check() for check in pool.setup_checks) if err] == [], name
        assert [err for err in (op.check(op.call()) for op in pool.ops) if err] == [], name
