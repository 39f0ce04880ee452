"""Command-line interface: exit codes, result documents, bench CSV and
plot exports."""

import csv
import json
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

from cci.cli import main
from cci.problems import load_problem
from conftest import subprocess_env

runner = CliRunner()


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
    result = _run(["solve", str(problems_dir / "disjoint_segments.json")])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["intersections"] == []
    assert doc["counters"]["squares_examined"] == 1


def test_solve_malformed_file_exits_1(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "curve1": {"degree": 1, "control_points": [[0, 0, 0], [1, 1, 0], [2, 2, 0]]},
        "curve2": {"degree": 1, "control_points": [[1, 0, 0], [0, 1, 0]]},
    }))
    result = _run(["solve", str(path)])
    assert result.exit_code == 1
    assert "curve1" in result.output and "expected 2" in result.output


def test_solve_missing_file_exits_1(tmp_path):
    result = _run(["solve", str(tmp_path / "nope.json")])
    assert result.exit_code == 1


@pytest.mark.parametrize("args", [
    ["solve", "p06.json", "--max-depth=-1"],
    ["solve", "p06.json", "--max-squares=0"],
    ["solve", "p06.json", "--epsilon=-0.1"],
    ["solve", "p06.json", "--epsilon=nan"],
    ["solve", "p06.json", "--newton-tol=-1"],
    ["solve", "p06.json", "--zero-tol=nan"],
    ["bench", ".", "--epsilons=-0.1"],
    ["bench", ".", "--epsilons=0.05,inf"],
    ["bench", ".", "--max-depth=-1"],
])
def test_bad_settings_exit_1_before_solving(problems_dir, args):
    command, path, option = args
    result = _run([command, str(problems_dir / "suite" / path), option])
    assert result.exit_code == 1
    assert result.stderr.startswith("error: ") and result.stdout == ""


def test_bad_settings_print_no_traceback(problems_dir):
    for args in (["solve", str(problems_dir / "suite" / "p06.json"), "--max-depth", "-1"],
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
    assert doc["config"]["epsilon"] == 0.1
    assert doc["config"]["newton_tol"] == 1e-7


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
    result = _run(["bench", str(d), "--epsilons", "0.05"])
    assert "skipping bad.json" in result.output
    rows = [r for r in csv.reader(result.output.splitlines()) if r and r[0][0] != "w"]
    assert len(rows) == 2


def test_bench_missing_dir_exits_1(tmp_path):
    result = _run(["bench", str(tmp_path / "missing")])
    assert result.exit_code == 1


# ---------------------------------------------------------------------------
# plot-data

def test_plot_data_two_samples_are_endpoints(problems_dir, tmp_path):
    result = _run(["plot-data", str(problems_dir / "crossing_segments.json"),
                   "--samples", "2", "-o", str(tmp_path)])
    assert result.exit_code == 0
    rows = list(csv.reader((tmp_path / "crossing_segments_curves.csv").read_text().splitlines()))
    assert rows[0] == ["curve_id", "t", "x", "y", "z"]
    data = [[float(x) for x in row[1:]] for row in rows[1:]]
    assert data == [
        [0.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 1.0, 0.0],
    ]


def test_plot_data_samples_inside_control_bbox(problems_dir, tmp_path):
    path = problems_dir / "suite" / "p05.json"
    result = _run(["plot-data", str(path), "--samples", "64", "-o", str(tmp_path)])
    assert result.exit_code == 0
    problem = load_problem(path)
    rows = list(csv.reader((tmp_path / "p05_curves.csv").read_text().splitlines()))[1:]
    for curve_id, curve in ((1, problem.curve1), (2, problem.curve2)):
        lo = curve.control_points.min(axis=0) - 1e-12
        hi = curve.control_points.max(axis=0) + 1e-12
        pts = np.array([[float(x) for x in r[2:]] for r in rows if r[0] == str(curve_id)])
        assert pts.shape[0] == 64
        assert (pts >= lo).all() and (pts <= hi).all()


def test_plot_data_intersections_match_solve(problems_dir, tmp_path):
    path = problems_dir / "suite" / "p02.json"
    _run(["plot-data", str(path), "-o", str(tmp_path)])
    rows = list(csv.reader((tmp_path / "p02_intersections.csv").read_text().splitlines()))
    assert rows[0] == ["u", "v", "x", "y", "z"]
    solved = _run(["solve", str(path)])
    doc = json.loads(solved.output)
    assert len(rows) - 1 == len(doc["intersections"])
    for row, rec in zip(rows[1:], doc["intersections"]):
        assert float(row[0]) == rec["u"]
        assert float(row[1]) == rec["v"]
        assert [float(c) for c in row[2:]] == rec["point"]


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
