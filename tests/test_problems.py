"""Problem-file parsing and validation messages."""

import json

import pytest

from cci.problems import (
    Problem,
    ProblemFormatError,
    load_problem,
    parse_problem,
)


def test_load_named_fixture(problems_dir):
    problem = load_problem(problems_dir / "crossing_segments.json")
    assert problem.name == "crossing segments"
    assert problem.curve1.degree == 1
    assert problem.curve2.degree == 1


def test_name_defaults_to_file_stem(tmp_path):
    path = tmp_path / "my_problem.json"
    path.write_text(json.dumps({
        "curve1": {"degree": 1, "control_points": [[0, 0, 0], [1, 1, 0]]},
        "curve2": {"degree": 1, "control_points": [[1, 0, 0], [0, 1, 0]]},
    }))
    assert load_problem(path).name == "my_problem"


def test_point_count_mismatch_names_curve():
    data = {
        "curve1": {"degree": 1, "control_points": [[0, 0, 0], [1, 1, 0], [2, 2, 0]]},
        "curve2": {"degree": 1, "control_points": [[1, 0, 0], [0, 1, 0]]},
    }
    with pytest.raises(ProblemFormatError) as err:
        parse_problem(data, source="bad.json")
    msg = str(err.value)
    assert "curve1" in msg and "expected 2" in msg and "got 3" in msg


def test_json_syntax_error_carries_line_and_column(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "curve1": {\n')
    with pytest.raises(ProblemFormatError) as err:
        load_problem(path)
    assert f"{path}:3:" in str(err.value)


def test_missing_curve_key():
    with pytest.raises(ProblemFormatError) as err:
        parse_problem({"curve1": {"degree": 0, "control_points": [[0, 0, 0]]}})
    assert "curve2" in str(err.value)


def test_bad_point_shape_reports_index():
    data = {
        "curve1": {"degree": 1, "control_points": [[0, 0, 0], [1, 1]]},
        "curve2": {"degree": 0, "control_points": [[0, 0, 0]]},
    }
    with pytest.raises(ProblemFormatError) as err:
        parse_problem(data)
    assert "control point 1" in str(err.value)


def test_negative_degree_rejected():
    data = {
        "curve1": {"degree": -1, "control_points": []},
        "curve2": {"degree": 0, "control_points": [[0, 0, 0]]},
    }
    with pytest.raises(ProblemFormatError):
        parse_problem(data)


# bool is a subclass of int, so JSON true/false would otherwise pass as 1/0.
@pytest.mark.parametrize("curve, message", [
    ({"degree": True, "control_points": [[0, 0, 0], [1, 1, 0]]},
     "degree must be a nonnegative integer"),
    ({"degree": 1, "control_points": [[0, 0, 0], [True, False, 0]]},
     "control point 1 must be a finite [x, y, z] triple"),
])
def test_booleans_are_not_numbers(curve, message):
    data = {"curve1": curve, "curve2": {"degree": 0, "control_points": [[0, 0, 0]]}}
    with pytest.raises(ProblemFormatError) as err:
        parse_problem(data)
    assert message in str(err.value)


def test_degree_past_float_binomials_rejected():
    data = {
        "curve1": {"degree": 0, "control_points": [[0, 0, 0]]},
        "curve2": {"degree": 1030, "control_points": [[0, 0, 0]] * 1031},
    }
    with pytest.raises(ProblemFormatError) as err:
        parse_problem(data, source="big.json")
    assert str(err.value).startswith("big.json: curve2: degree 1030 exceeds 1029")


def test_missing_file_reported():
    with pytest.raises(ProblemFormatError):
        load_problem("/nonexistent/path/problem.json")
