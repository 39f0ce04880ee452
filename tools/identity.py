"""Print a digest of everything the solver decides, per benchmark workload.

Solves every case of ``paper_suite`` and of ``spatial_crossings`` at seeds
1, 2 and 17 with the cci of this checkout's ``src``, and prints per workload
the number of squares examined and one SHA-256 over the run::

    python3 tools/identity.py

The digest covers every observer event with its square (center, half-width,
test-domain multiplier and depth), each convergence test's projection P,
status, eta, omega, rho_minus and rho_plus (``-`` where the test left one
unset), each Newton root and every reported root with its residual and its
point on the first curve, floats by their exact bits. Two commits that print
the same lines made the same decisions, certified them with the same values
and found the same roots. Under ``OPENBLAS_CORETYPE=Haswell`` with numpy's
AVX-512 dispatch it prints ``tools/identity_haswell.txt``, which CI checks.

With ``--cases`` it prints instead one line per solve: the workload, the
case's name, its squares examined and each reported root's u, v, residual,
point and source square, floats by their exact bits::

    python3 tools/identity.py --cases > after.txt
    diff before.txt after.txt

so a diff of two checkouts' output names every case whose squares or roots
moved.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # as bench/run.py: the pinned bits assume it

import argparse
import hashlib
import importlib.util
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

import cci  # noqa: E402

# (workload, seed); paper_suite ignores its seed.
RUNS = (("paper_suite", 0), ("spatial_crossings", 1), ("spatial_crossings", 2), ("spatial_crossings", 17))


def load_workloads():
    """bench/workloads.py as a module; its dataclasses need it in sys.modules."""
    spec = importlib.util.spec_from_file_location("bench_workloads", REPO / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def bits(x) -> str:
    return "-" if x is None else float(x).hex()


def square_key(sq) -> str:
    return " ".join([*map(bits, sq.center), bits(sq.half_width), bits(sq.scale), str(sq.depth)])


def record_bits(record) -> str:
    """A reported root: u, v, residual, point and source square."""
    return " ".join([*map(bits, (record.u, record.v, record.residual, *record.point)),
                     square_key(record.source_square)])


def event_line(event: str, payload: dict) -> str:
    """One event as text: its name, its square and what it decided."""
    parts = [event]
    if "square" in payload:
        parts.append(square_key(payload["square"]))
    if event == "kantorovich":
        for t in payload["outcome"].pairs:
            rows = [bits(x) for row in t.projection or () for x in row] or ["-"]
            parts += [*rows, t.status.value, *map(bits, (t.eta, t.omega, t.rho_minus, t.rho_plus))]
    elif event == "newton":
        result = payload["result"]
        parts += [str(result.converged), *map(bits, result.root)]
    elif event == "intersection":
        parts.append(record_bits(payload["record"]))
    elif event == "truncated":
        parts.append(payload["reason"])
    return " ".join(parts)


def solve(case, observer=None):
    config = cci.SolverConfig(**case.config)
    return cci.solve(cci.BezierCurve(case.curve1), cci.BezierCurve(case.curve2), config, observer)


def case_lines(label: str, cases):
    """One line per case: its squares examined and its roots' bits."""
    for case in cases:
        report = solve(case)
        roots = "".join(f"; {record_bits(r)}" for r in report.intersections)
        yield f"{label} {case.name}: {report.squares_examined} squares{roots}"


def digest(cases) -> tuple[int, str]:
    """Squares examined over the cases, and the SHA-256 of their events and roots."""
    sha, squares = hashlib.sha256(), 0

    def observer(event: str, payload: dict) -> None:
        sha.update((event_line(event, payload) + "\n").encode())

    for case in cases:
        report = solve(case, observer)
        squares += report.squares_examined
        roots = " ".join(f"{bits(r.u)},{bits(r.v)}" for r in report.intersections)
        sha.update(f"case {case.name} {report.truncated} {roots}\n".encode())
    return squares, sha.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--cases", action="store_true", help="print one line per case, not per workload")
    args = parser.parse_args(argv)
    workloads = load_workloads()
    for workload, seed in RUNS:
        cases = workloads.build(workload, seed, cci.load_problem)
        label = workload if workload == "paper_suite" else f"{workload} seed {seed}"
        if args.cases:
            for line in case_lines(label, cases):
                print(line, flush=True)
        else:
            squares, hexdigest = digest(cases)
            print(f"{label}: {squares} squares sha256 {hexdigest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
