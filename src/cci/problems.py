"""Reading curve-pair problem files.

A problem file is JSON shaped like::

    {
      "name": "crossing segments",
      "curve1": {"degree": 1, "control_points": [[0,0,0],[1,1,0]]},
      "curve2": {"degree": 1, "control_points": [[1,0,0],[0,1,0]]}
    }

Validation errors carry the file path and, for JSON syntax errors, the
line and column.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .geometry import BezierCurve


class ProblemFormatError(ValueError):
    """A problem file failed to parse or validate."""


@dataclass(frozen=True)
class Problem:
    name: str
    curve1: BezierCurve
    curve2: BezierCurve


def _parse_curve(data: object, label: str, source: str) -> BezierCurve:
    if not isinstance(data, dict):
        raise ProblemFormatError(f"{source}: {label} must be an object")
    if "degree" not in data or "control_points" not in data:
        raise ProblemFormatError(
            f"{source}: {label} needs 'degree' and 'control_points'"
        )
    degree = data["degree"]
    if isinstance(degree, bool) or not isinstance(degree, int) or degree < 0:
        raise ProblemFormatError(
            f"{source}: {label}: degree must be a nonnegative integer, got {degree!r}"
        )
    points = data["control_points"]
    if not isinstance(points, list):
        raise ProblemFormatError(f"{source}: {label}: control_points must be a list")
    if len(points) != degree + 1:
        raise ProblemFormatError(
            f"{source}: {label}: expected {degree + 1} control points for "
            f"degree {degree}, got {len(points)}"
        )
    for k, p in enumerate(points):
        if (
            not isinstance(p, list)
            or len(p) != 3
            or not all(isinstance(c, (int, float)) and not isinstance(c, bool)
                       and math.isfinite(c) for c in p)
        ):
            raise ProblemFormatError(
                f"{source}: {label}: control point {k} must be a finite [x, y, z] triple"
            )
    try:
        return BezierCurve(points)
    except ValueError as e:
        raise ProblemFormatError(f"{source}: {label}: {e}") from e


def parse_problem(data: object, source: str = "<problem>") -> Problem:
    if not isinstance(data, dict):
        raise ProblemFormatError(f"{source}: top level must be an object")
    for key in ("curve1", "curve2"):
        if key not in data:
            raise ProblemFormatError(f"{source}: missing {key!r}")
    name = data.get("name", "")
    if not isinstance(name, str):
        raise ProblemFormatError(f"{source}: name must be a string")
    return Problem(
        name=name,
        curve1=_parse_curve(data["curve1"], "curve1", source),
        curve2=_parse_curve(data["curve2"], "curve2", source),
    )


def load_problem(path: str | Path) -> Problem:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as e:
        raise ProblemFormatError(f"{path}: {e.strerror or e}") from e
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ProblemFormatError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from e
    problem = parse_problem(data, source=str(path))
    if not problem.name:
        problem = Problem(path.stem, problem.curve1, problem.curve2)
    return problem
