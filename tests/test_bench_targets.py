"""The names the benchmark reads from the package still exist.

``bench/tracing.py`` replaces the names listed in its ``TARGETS`` inside the
modules that bind them, and ``bench/run.py`` reads ``cci.<name>`` only at run
time. Renaming or deleting one breaks the benchmark; these tests catch that
in the ordinary suite.
"""

import importlib.util
import re
from pathlib import Path

import cci

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACING = BENCH / "tracing.py"


def test_every_traced_name_is_bound_in_its_owner():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for owner_path, attr, _ in tracing.TARGETS:
        owner = cci
        for part in owner_path.split("."):
            owner = getattr(owner, part)
        assert attr in owner.__dict__, f"{owner_path}.{attr}"
        assert callable(owner.__dict__[attr])


def test_every_name_bench_reads_from_cci_exists():
    names = set()
    for path in BENCH.glob("*.py"):
        text = path.read_text()
        names.update(re.findall(r"\bcci\.(\w+)", text))
        for paren, line in re.findall(r"^from cci import (?:\(([^)]*)\)|([^(\n]+))", text, re.M):
            names.update(item.split()[0] for item in (paren or line).split(",") if item.strip())
    assert {"PairStatus", "load_problem", "solve", "BezierCurve"} <= names
    assert [name for name in sorted(names) if not hasattr(cci, name)] == []
