"""Write ``reference/paper_suite.json``: roots and squares of the paper's table.

Solves every ``problems/suite`` file in each configuration of the paper's
table and records the roots, the squares examined and the truncation flag.
Each root set is cross-checked against ``brute_force_intersections`` to
1e-6 before anything is written. Run from the repository root::

    PYTHONPATH=src python3 bench/make_reference.py
"""

from __future__ import annotations

import json
import sys

import workloads
from cci import SolverConfig, brute_force_intersections, load_problem, solve

ORACLE_TOL = 1e-6


def main() -> int:
    reference = {}
    for path in sorted(workloads.SUITE_DIR.glob("*.json")):
        problem = load_problem(path)
        oracle = brute_force_intersections(problem.curve1, problem.curve2)
        row = {}
        for config in workloads.PAPER_CONFIGS:
            report = solve(problem.curve1, problem.curve2, SolverConfig(**config))
            roots = sorted((r.u, r.v) for r in report.intersections)
            if len(roots) != len(oracle) or any(
                max(abs(a - c), abs(b - d)) > ORACLE_TOL for (a, b), (c, d) in zip(roots, oracle)
            ):
                print(f"error: {path.name} {config}: {roots} disagrees with oracle {oracle}", file=sys.stderr)
                return 1
            row[workloads.config_label(config)] = {
                "roots": roots,
                "squares_examined": report.squares_examined,
                "truncated": report.truncated,
            }
        reference[path.name] = row
        print(path.name, " ".join(str(cell["squares_examined"]) for cell in row.values()))
    workloads.REFERENCE.parent.mkdir(exist_ok=True)
    workloads.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
