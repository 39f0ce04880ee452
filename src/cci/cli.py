"""Command-line front end: solve single problems and benchmark a directory.

Exit codes for ``solve``: 0 on success, 1 on a usage error, a parse or
validation failure or an unwritable output file, 2 when the run was
truncated (depth limit at a tangential or degenerate contact, or the square
budget on overlapping curves) and the result is therefore possibly
incomplete. ``bench`` exits 0 or 1.

Set CCI_LOG_LEVEL=trace to log every queue pop with the square, test
results and test-domain multipliers; cci logs nothing else.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import logging
import os
import sys
from pathlib import Path
from typing import NoReturn

import click

from .engine import TRACE, SolveReport, SolverConfig, solve
from .problems import Problem, ProblemFormatError, load_problem

DEFAULT_EPSILONS = (0.01, 0.05, 0.1, 0.15, 0.2)


class _Command(click.Command):
    """A command whose usage errors exit 1, as bad settings do: 2 means truncated."""

    def make_context(self, *args, **kwargs) -> click.Context:
        try:
            return super().make_context(*args, **kwargs)
        except click.UsageError as e:
            e.exit_code = 1
            raise


@click.group()
def main() -> None:
    """Find all intersections of two 3D Bezier curves."""
    if os.environ.get("CCI_LOG_LEVEL", "").lower() == "trace":
        logging.basicConfig(level=TRACE, stream=sys.stderr,
                            format="%(levelname)s %(name)s: %(message)s")


def _solver_options(f):
    f = click.option("--mode", type=click.Choice(["adaptive", "fixed"]),
                     default=SolverConfig.mode, show_default=True,
                     help="Adapt test-domain sizes, or keep them fixed.")(f)
    f = click.option("--epsilon", type=float, default=SolverConfig.epsilon, show_default=True,
                     help="Adaptation step for the test-domain multipliers.")(f)
    f = click.option("--zero-tol", type=float, default=None,
                     help="Residual below which a point counts as an "
                          "intersection [default: scale-aware].")(f)
    f = click.option("--max-squares", type=int, default=SolverConfig.max_squares, show_default=True,
                     help="Stop, truncated, after this many squares "
                          "(safety valve for overlapping curves).")(f)
    return f


def _report_to_dict(problem: Problem, config: SolverConfig, report: SolveReport) -> dict:
    return {
        "name": problem.name,
        "config": {**dataclasses.asdict(config), "zero_tol": report.zero_tol},
        "intersections": [
            {
                "u": r.u,
                "v": r.v,
                "point": list(r.point),
                "residual": r.residual,
            }
            for r in report.intersections
        ],
        "counters": {
            "squares_examined": report.squares_examined,
            "subdivisions": report.subdivisions,
            "exclusion_passes": report.exclusion_passes,
            "kantorovich_passes": report.kantorovich_passes,
            "max_depth_reached": report.max_depth_reached,
        },
        "truncated": report.truncated,
    }


def _fail(message: object) -> NoReturn:
    click.echo(f"error: {message}", err=True)
    sys.exit(1)


def _check_output(output: Path | None) -> None:
    """Fail before any solve when the output file could not be written."""
    if output is None:
        return
    if output.is_dir():
        _fail(f"{output} is a directory")
    if not output.parent.is_dir():
        _fail(f"{output.parent} is not a directory")


def _emit(text: str, output: Path | None) -> None:
    """Write text to the output file, or to stdout when there is none."""
    if output is None:
        click.echo(text, nl=False)
        return
    try:
        output.write_text(text, newline="")
    except OSError as e:
        _fail(e)


@main.command("solve", cls=_Command)
@click.argument("input_path", type=click.Path(path_type=Path))
@_solver_options
@click.option("-o", "--output", type=click.Path(path_type=Path), default=None,
              help="Write the result JSON here instead of stdout.")
def cmd_solve(input_path, output, **options) -> None:
    """Solve one problem file and emit a result document."""
    try:
        config = SolverConfig(**options)
        problem = load_problem(input_path)
    except ValueError as e:  # a ProblemFormatError is a ValueError
        _fail(e)
    _check_output(output)
    report = solve(problem.curve1, problem.curve2, config)
    doc = _report_to_dict(problem, config, report)
    _emit(json.dumps(doc, indent=2) + "\n", output)
    sys.exit(2 if report.truncated else 0)


@main.command("bench", cls=_Command)
@click.argument("input_dir", type=click.Path(path_type=Path))
@click.option("--epsilons", default=",".join(str(e) for e in DEFAULT_EPSILONS),
              show_default=True,
              help="Comma-separated adaptation steps, one result column each.")
@click.option("-o", "--output", type=click.Path(path_type=Path), default=None,
              help="Write the CSV here instead of stdout.")
def cmd_bench(input_dir, epsilons, output) -> None:
    """Count squares examined per problem, per adaptation step, plus baseline.

    Reads every .json problem file in INPUT_DIR (sorted by name); rows are
    problems, columns are the adaptation steps and, last, the fixed-mode
    baseline.
    """
    if not input_dir.is_dir():
        _fail(f"{input_dir} is not a directory")
    try:
        eps_values = [float(tok) for tok in epsilons.split(",") if tok.strip() != ""]
    except ValueError:
        _fail(f"bad --epsilons list {epsilons!r}")
    try:
        configs = [SolverConfig(mode="adaptive", epsilon=e) for e in eps_values]
        configs.append(SolverConfig(mode="fixed"))
    except ValueError as e:
        _fail(e)
    paths = sorted(input_dir.glob("*.json"))
    if not paths:
        _fail(f"no .json problem files in {input_dir}")
    _check_output(output)

    rows = [["name", "degrees"] + [f"eps={e:g}" for e in eps_values] + ["fixed"]]
    for path in paths:
        try:
            problem = load_problem(path)
        except ProblemFormatError as e:
            click.echo(f"warning: skipping {path.name}: {e}", err=True)
            continue
        degrees = f"({problem.curve1.degree}, {problem.curve2.degree})"
        cells: list[str] = [problem.name, degrees]
        for config in configs:
            report = solve(problem.curve1, problem.curve2, config)
            cells.append(str(report.squares_examined))
        rows.append(cells)

    table = io.StringIO()
    csv.writer(table).writerows(rows)
    _emit(table.getvalue(), output)


if __name__ == "__main__":
    main()
