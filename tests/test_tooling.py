"""The traced benchmark looks library functions up by name and checks its
metric names against BENCHMARK.json; a refactor must keep both working."""

from __future__ import annotations

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

from buchicong import fdfw

ROOT = Path(__file__).resolve().parents[1]


def test_traced_functions_resolve():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
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
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    source = (ROOT / "src" / "buchicong" / "fdfw.py").read_text()
    pinned = re.findall(r"^\s+(\w+),\s+# noqa: F401\b.*perfbench/tracing\.py", source, re.M)
    wrapped = {attr for module, attr, _, _ in tracing.WRAPPED if module is fdfw}
    assert pinned
    assert [name for name in pinned if name not in wrapped] == []
