"""Command-line interface: exit codes, result documents and bench CSV."""

import csv
import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

from cci.cli import main
from cci.engine import SolverConfig
from cci.problems import load_problem
from conftest import subprocess_env

runner = CliRunner()

# Finite coordinates whose differences pass the largest float.
HUGE_PAIR = {
    "curve1": {"degree": 1, "control_points": [[1.7e308, 0, 0], [1.7e308, 1, 0]]},
    "curve2": {"degree": 1, "control_points": [[-1.7e308, 0, 0], [-1.7e308, 1, 0]]},
}


def _run(args, **kw):
    return runner.invoke(main, args, catch_exceptions=False, **kw)


# ---------------------------------------------------------------------------
# solve

def test_solve_crossing_segments(problems_dir, tmp_path):
    out = tmp_path / "result.json"
    result = _run(["solve", str(problems_dir / "crossing_segments.json"), "-o", str(out)])
    assert result.exit_code == 0
    doc = json.loads(out.read_text())
    assert doc["name"] == "crossing segments"
    assert doc["counters"]["squares_examined"] == 5
    assert not doc["truncated"]
    assert len(doc["intersections"]) == 1
    rec = doc["intersections"][0]
    assert (rec["u"], rec["v"]) == (0.5, 0.5)
    assert rec["point"] == [0.5, 0.5, 0.0]


def test_solve_writes_to_stdout_by_default(problems_dir):
    path = problems_dir / "disjoint_segments.json"
    result = _run(["solve", str(path)])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["intersections"] == []
    assert doc["counters"]["squares_examined"] == 1
    # The CLI defaults are SolverConfig's; zero_tol is reported as resolved,
    # 1e-6 times the largest |c1_i - c2_j|.
    assert {**doc["config"], "zero_tol": None} == dataclasses.asdict(SolverConfig())
    problem = load_problem(path)
    a, b = problem.curve1.control_points, problem.curve2.control_points
    assert doc["config"]["zero_tol"] == 1e-6 * np.abs(a[:, None] - b[None, :]).max()


def test_solve_malformed_file_exits_1(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "curve1": {"degree": 1, "control_points": [[0, 0, 0], [1, 1, 0], [2, 2, 0]]},
        "curve2": {"degree": 1, "control_points": [[1, 0, 0], [0, 1, 0]]},
    }))
    result = _run(["solve", str(path)])
    assert result.exit_code == 1
    assert "curve1" in result.output and "expected 2" in result.output


def test_solve_overflowing_difference_exits_1(tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(HUGE_PAIR))
    result = _run(["solve", str(path)])
    assert result.exit_code == 1
    assert result.stderr.startswith(f"error: {path}: ")
    assert "difference overflows" in result.stderr and result.stdout == ""


def test_solve_missing_file_exits_1(tmp_path):
    result = _run(["solve", str(tmp_path / "nope.json")])
    assert result.exit_code == 1


@pytest.mark.parametrize("args", [
    ["solve", "p06.json", "--zero-tol=-1"],
    ["solve", "p06.json", "--max-squares=0"],
    ["solve", "p06.json", "--epsilon=-0.1"],
    ["solve", "p06.json", "--epsilon=nan"],
    ["solve", "p06.json", "--epsilon=inf"],
    ["solve", "p06.json", "--zero-tol=nan"],
    ["bench", ".", "--epsilons=-0.1"],
    ["bench", ".", "--epsilons=0.05,inf"],
])
def test_bad_settings_exit_1_before_solving(problems_dir, args):
    command, path, option = args
    result = _run([command, str(problems_dir / "suite" / path), option])
    assert result.exit_code == 1
    assert result.stderr.startswith("error: ") and result.stdout == ""


@pytest.mark.parametrize("args, message", [
    # Settings that are constants now: the depth cap, Newton's step
    # tolerance and the fixed column of bench.
    (["solve", "p06.json", "--max-depth=-1"], "No such option"),
    (["solve", "p06.json", "--newton-tol=1e-7"], "No such option"),
    (["bench", ".", "--max-depth=-1"], "No such option"),
    (["bench", ".", "--no-baseline"], "No such option"),
    (["solve", "p06.json", "--no-such-flag"], "No such option"),
    (["solve", "p06.json", "--max-squares=abc"], "not a valid integer"),
])
def test_usage_errors_exit_1_before_solving(problems_dir, monkeypatch, args, message):
    # Exit code 2 means a truncated run, so a usage error must not use it.
    calls = []
    monkeypatch.setattr("cci.cli.solve", lambda *a, **kw: calls.append(a))
    command, path, option = args
    result = _run([command, str(problems_dir / "suite" / path), option])
    assert result.exit_code == 1
    assert message in result.stderr and result.stdout == ""
    assert calls == []


def test_bad_settings_print_no_traceback(problems_dir):
    for args in (["solve", str(problems_dir / "suite" / "p06.json"), "--max-squares", "0"],
                 ["bench", str(problems_dir / "suite"), "--epsilons=-0.1"]):
        proc = subprocess.run([sys.executable, "-m", "cci.cli", *args],
                              capture_output=True, text=True, env=subprocess_env())
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")


def test_solve_tangential_contact_exits_2(problems_dir, tmp_path):
    out = tmp_path / "result.json"
    result = _run(["solve", str(problems_dir / "tangential_contact.json"), "-o", str(out)])
    assert result.exit_code == 2
    doc = json.loads(out.read_text())
    assert doc["truncated"]


def test_solve_result_round_trips_exactly(problems_dir, tmp_path):
    out = tmp_path / "result.json"
    _run(["solve", str(problems_dir / "suite" / "p03.json"),
          "--epsilon", "0.1", "-o", str(out)])
    doc = json.loads(out.read_text())
    again = json.loads(json.dumps(doc))
    assert again == doc
    for key, value in doc["counters"].items():
        assert isinstance(value, int), key
    assert list(doc["config"]) == ["mode", "epsilon", "zero_tol", "max_squares"]
    assert doc["config"]["epsilon"] == 0.1


# ---------------------------------------------------------------------------
# bench

def test_bench_default_columns(problems_dir, tmp_path):
    out = tmp_path / "table.csv"
    result = _run(["bench", str(problems_dir / "suite"), "-o", str(out)])
    assert result.exit_code == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["name", "degrees", "eps=0.01", "eps=0.05", "eps=0.1",
                       "eps=0.15", "eps=0.2", "fixed"]
    assert len(rows) == 9  # header + 8 problems


def test_bench_single_problem_dir(problems_dir, tmp_path):
    src = problems_dir / "crossing_segments.json"
    single = tmp_path / "dir"
    single.mkdir()
    (single / "only.json").write_text(src.read_text())
    result = _run(["bench", str(single)])
    rows = list(csv.reader(result.output.splitlines()))
    assert len(rows) == 2
    assert rows[1][0] == "crossing segments"
    assert rows[1][2:] == ["5", "5", "5", "5", "5", "5"]


def test_bench_epsilon_zero_matches_baseline(problems_dir, tmp_path):
    out = tmp_path / "table.csv"
    result = _run(["bench", str(problems_dir / "suite"), "--epsilons", "0", "-o", str(out)])
    assert result.exit_code == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["name", "degrees", "eps=0", "fixed"]
    for row in rows[1:]:
        assert row[2] == row[3]


def test_bench_skips_bad_files_and_continues(problems_dir, tmp_path):
    d = tmp_path / "dir"
    d.mkdir()
    (d / "good.json").write_text((problems_dir / "crossing_segments.json").read_text())
    (d / "bad.json").write_text("{ not json")
    (d / "huge.json").write_text(json.dumps(HUGE_PAIR))
    (d / "not_utf8.json").write_bytes(b"\xff\xfe\x00bad")
    result = _run(["bench", str(d), "--epsilons", "0.05"])
    assert result.exit_code == 0
    for name in ("bad.json", "huge.json", "not_utf8.json"):
        assert f"skipping {name}" in result.stderr
    rows = [r for r in csv.reader(result.output.splitlines()) if r and r[0][0] != "w"]
    assert len(rows) == 2


def test_bench_missing_dir_exits_1(tmp_path):
    result = _run(["bench", str(tmp_path / "missing")])
    assert result.exit_code == 1


@pytest.mark.parametrize("args", [
    ["solve", "crossing_segments.json", "-o", "missing/out"],
    ["bench", "suite", "--epsilons", "0.05", "-o", "missing/out"],
    # An existing directory is no file to write to either.
    ["solve", "crossing_segments.json", "-o", "."],
    ["bench", "suite", "--epsilons", "0.05", "-o", "."],
])
def test_output_into_missing_dir_exits_1(problems_dir, tmp_path, monkeypatch, args):
    # The output path is checked before any solve.
    calls = []
    monkeypatch.setattr("cci.cli.solve", lambda *a, **kw: calls.append(a))
    command, path, *options, output = args
    result = _run([command, str(problems_dir / path), *options, str(tmp_path / output)])
    assert result.exit_code == 1
    assert result.stderr.startswith("error: ")
    assert "Traceback" not in result.stderr
    assert calls == []


# ---------------------------------------------------------------------------
# logging env var (subprocess so the env is read at startup)

def test_trace_logging_emits_queue_pops(problems_dir):
    # p01 has both a discarded square and an intersection
    proc = subprocess.run(
        [sys.executable, "-m", "cci.cli", "solve",
         str(problems_dir / "suite" / "p01.json")],
        capture_output=True, text=True, env=subprocess_env(CCI_LOG_LEVEL="trace"),
    )
    assert proc.returncode == 0
    assert "pop depth=0" in proc.stderr
    assert "exclusion test passed" in proc.stderr
    assert "new intersection" in proc.stderr
