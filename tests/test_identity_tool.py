"""``tools/identity.py``: its per-case lines carry each solve's squares and roots."""

import importlib.util
import sys
from pathlib import Path

import cci

TOOL = Path(__file__).resolve().parent.parent / "tools" / "identity.py"


def _identity_tool(monkeypatch):
    """tools/identity.py as a module, run on ``paper_suite`` alone. Importing
    it sets OPENBLAS_NUM_THREADS and registers bench/workloads.py in
    sys.modules; both are undone after the test."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delitem(sys.modules, "bench_workloads", raising=False)
    spec = importlib.util.spec_from_file_location("identity_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "RUNS", (("paper_suite", 0),))
    return module


def test_cases_prints_one_line_per_solve_with_its_squares_and_root_bits(monkeypatch, capsys):
    identity = _identity_tool(monkeypatch)
    assert identity.main(["--cases"]) == 0
    lines = capsys.readouterr().out.splitlines()
    cases = identity.load_workloads().build("paper_suite", 0, cci.load_problem)
    assert len(lines) == len(cases) == 48
    total = 0
    for case, line in zip(cases, lines):
        report = identity.solve(case)
        head, *roots = line.split("; ")
        assert head == f"paper_suite {case.name}: {report.squares_examined} squares"
        assert len(roots) == len(report.intersections)
        for text, record in zip(roots, report.intersections):
            fields = text.split()
            values = (record.u, record.v, record.residual, *record.point)
            assert [float.fromhex(f) for f in fields[:6]] == list(values)
            assert fields[6:] == identity.square_key(record.source_square).split()
        total += report.squares_examined
    assert total == 1804
    assert "paper_suite p07/fixed: 105 squares; " in "\n".join(lines)


def test_default_output_is_one_digest_line_per_workload(monkeypatch, capsys):
    identity = _identity_tool(monkeypatch)
    assert identity.main([]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    squares, _, digest = line.removeprefix("paper_suite: ").partition(" squares sha256 ")
    assert squares == "1804" and len(digest) == 64
