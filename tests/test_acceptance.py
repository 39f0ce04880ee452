"""Acceptance suite: eight go/no-go criteria for the solver.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion. The oracle-equivalence sweep (criterion 3) is executed once and
its recorded convergence-test passes are audited by criterion 4.
"""

import csv
import json
import math
import time

import numpy as np
import pytest
from click.testing import CliRunner

from cci.cli import main as cli_main
from cci.engine import SolverConfig, solve
from cci.exclusion import exclusion_test
from cci.geometry import (
    ControlNet,
    Rect,
    _jet_weights,
    eval_net,
    jet_table,
    reparametrize,
)
from cci.kantorovich import PairStatus
from cci.newton import newton_solve
from cci.problems import load_problem
from conftest import (
    full_test_omega,
    match_point_sets,
    monomial_grid,
    newton_path,
    pair_test_at,
    projected_net,
    random_net_coeffs,
    random_transversal_problem,
)

EPSILONS = ("0.01", "0.05", "0.1", "0.15", "0.2")
# The paper's table: squares examined for p01..p08, one column per epsilon
# above, then the fixed baseline.
SUITE_SQUARES = [
    [5] * 6,
    [21] * 6,
    [25, 25, 25, 21, 21, 25],
    [29] * 6,
    [29, 29, 29, 25, 25, 29],
    [73, 77, 73, 69, 69, 73],
    [109, 113, 109, 109, 109, 105],
    [13] * 6,
]
runner = CliRunner()


def _bench_csv(problems_dir, epsilons: str) -> list[list[str]]:
    result = runner.invoke(
        cli_main,
        ["bench", str(problems_dir / "suite"), "--epsilons", epsilons],
        catch_exceptions=False,
    )
    assert result.exit_code == 0, result.output
    return [r for r in csv.reader(result.output.splitlines()) if r]


@pytest.fixture(scope="session")
def bench_run(problems_dir):
    t0 = time.monotonic()
    table = _bench_csv(problems_dir, ",".join(EPSILONS))
    zero_table = _bench_csv(problems_dir, "0")
    elapsed = time.monotonic() - t0
    return table, zero_table, elapsed


@pytest.fixture(scope="session")
def oracle_sweep():
    """Criterion 3's run: 200 random transversal problems vs the oracle,
    with every convergence-test pass recorded for criterion 4."""
    rng = np.random.default_rng(2024)
    t0 = time.monotonic()
    records = []
    for _ in range(200):
        problem, expected = random_transversal_problem(rng, max_degree=6)
        passes = []

        def observer(event, payload):
            if event == "kantorovich":
                outcome = payload["outcome"]
                if outcome.passed is not None:
                    passes.append((payload["square"].center, outcome.passed))

        report = solve(problem.curve1, problem.curve2, SolverConfig(), observer=observer)
        records.append((problem, expected, report, passes))
    elapsed = time.monotonic() - t0
    return records, elapsed


def test_acceptance_1_bench_table_structure(bench_run):
    table, zero_table, elapsed = bench_run
    header = table[0]
    assert header[:2] == ["name", "degrees"]
    assert header[2:] == [f"eps={e}" for e in ("0.01", "0.05", "0.1", "0.15", "0.2")] + ["fixed"]
    assert len(table) == 9, "expected 8 problem rows"
    assert [[int(c) for c in row[2:]] for row in table[1:]] == SUITE_SQUARES
    # adaptive with a zero adaptation step must equal the fixed baseline
    assert zero_table[0][2:] == ["eps=0", "fixed"]
    for row in zero_table[1:]:
        assert row[2] == row[3], f"eps=0 differs from baseline for {row[0]}"
    assert elapsed < 60.0, f"bench took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 PASS: bench table + eps=0 baseline equality ({elapsed:.1f}s)")


def test_acceptance_2_directional_consistency(bench_run):
    table, _, _ = bench_run
    strictly_better = 0
    for row in table[1:]:
        baseline = int(row[-1])
        adaptive = [int(c) for c in row[2:-1]]
        for count in adaptive:
            assert count <= baseline + 8, f"{row[0]}: {count} > {baseline} + 8"
        if any(count < baseline for count in adaptive):
            strictly_better += 1
    assert strictly_better >= 1
    print(f"ACCEPTANCE 2 PASS: adaptive within +8 everywhere; "
          f"strictly better on {strictly_better} of 8 problems")


def test_acceptance_3_oracle_equivalence(oracle_sweep):
    records, elapsed = oracle_sweep
    assert len(records) == 200
    for problem, expected, report, _ in records:
        assert not report.truncated
        got = [(r.u, r.v) for r in report.intersections]
        assert match_point_sets(got, expected, tol=1e-6), (
            f"solver {got} vs oracle {expected}"
        )
    assert elapsed < 300.0, f"sweep took {elapsed:.1f}s"
    total = sum(len(e) for _, e, _, _ in records)
    print(f"ACCEPTANCE 3 PASS: 200 problems, {total} intersections, "
          f"zero missed/spurious ({elapsed:.1f}s)")


def test_acceptance_4_kantorovich_pass_soundness(oracle_sweep):
    records, _ = oracle_sweep
    audited = 0
    for problem, _, _, passes in records:
        from cci.geometry import difference_net

        net = difference_net(problem.curve1, problem.curve2)
        for center, passed in passes:
            # Newton from the center on g = P f, the system the test certified.
            pair_net = projected_net(net, passed)
            result = newton_solve(pair_net, center, tol=1e-7, max_iter=30)
            assert result.converged, "Newton failed after a certified pass"
            assert result.iterations <= 30
            root = np.array(result.root)
            dist = np.abs(root - np.array(center)).max()
            assert dist <= passed.rho_minus + 1e-9
            h = passed.eta * passed.omega
            if h > 0.0:
                base = 1.0 - math.sqrt(1.0 - 2.0 * h)
                path = newton_path(pair_net, center, tol=1e-7, max_iter=30)
                for k, p in enumerate(path):
                    bound = (passed.eta / h) * (base ** (2.0**k)) / (2.0**k)
                    assert np.abs(np.array(p) - root).max() <= bound + 1e-9
            audited += 1
    assert audited > 200, "pass audit must not be vacuous"
    print(f"ACCEPTANCE 4 PASS: {audited} convergence-test passes audited, "
          f"zero violations")


def test_acceptance_5_exclusion_soundness():
    rng = np.random.default_rng(2025)
    ts = np.linspace(0.0, 1.0, 100)
    passes = 0
    for _ in range(500):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 9))
        coeffs = random_net_coeffs(rng, m, n)
        if rng.random() < 0.5:
            coeffs = coeffs + rng.normal(scale=1.5, size=3)
        net = ControlNet(coeffs)
        if exclusion_test(net):
            passes += 1
            grid = np.abs(monomial_grid(net.coeffs, ts, ts)).max(axis=2)
            assert grid.min() > 0.0, "exclusion passed on a net with a zero"
    assert passes > 50
    print(f"ACCEPTANCE 5 PASS: 500 nets, {passes} exclusion passes, zero violations")


def test_acceptance_6_numerical_kernels():
    rng = np.random.default_rng(2026)

    worst_pu = 0.0
    for m in range(21):
        for t in rng.uniform(0, 1, 50):
            total = sum(_jet_weights(m, t, 0)[0])
            worst_pu = max(worst_pu, abs(total - 1.0))
    assert worst_pu <= 1e-12

    worst_rep = 0.0
    for _ in range(10):
        net = ControlNet(random_net_coeffs(rng, 8, 8))
        target = Rect(*sorted(rng.uniform(-0.3, 1.3, 2)), *sorted(rng.uniform(-0.3, 1.3, 2)))
        out = reparametrize(net, target)
        for s, t in rng.uniform(0, 1, (20, 2)):
            u = target.lo_u + s * (target.hi_u - target.lo_u)
            v = target.lo_v + t * (target.hi_v - target.lo_v)
            worst_rep = max(worst_rep, float(np.abs(eval_net(out, s, t) - eval_net(net, u, v)).max()))
    assert worst_rep <= 1e-10

    worst_jac = 0.0
    h = 1e-6
    for _ in range(10):
        net = ControlNet(random_net_coeffs(rng, 6, 6))
        for u, v in rng.uniform(0.05, 0.95, (10, 2)):
            jac = jet_table(net, (u, v))[(1, 0), (0, 1)].T
            fd = np.stack(
                [
                    (eval_net(net, u + h, v) - eval_net(net, u - h, v)) / (2 * h),
                    (eval_net(net, u, v + h) - eval_net(net, u, v - h)) / (2 * h),
                ],
                axis=1,
            )
            worst_jac = max(worst_jac, float(np.abs(jac - fd).max() / max(1.0, np.abs(jac).max())))
    assert worst_jac <= 1e-6

    violations = 0
    checked = 0
    while checked < 10:
        pair_net = ControlNet(random_net_coeffs(rng, 3, 3, d=2))
        x0 = (0.5, 0.5)
        test = pair_test_at(pair_net, x0, 0.6)
        if test.status is PairStatus.SINGULAR_JACOBIAN:
            continue
        jac0 = jet_table(pair_net, x0)[(1, 0), (0, 1)].T
        omega, domain = full_test_omega(pair_net, test), test.test_domain
        checked += 1
        jac0_inv = np.linalg.inv(jac0)
        for _ in range(100):
            x = rng.uniform(domain.lo_u, domain.hi_u, 2)
            y = rng.uniform(domain.lo_u, domain.hi_u, 2)
            change = (jet_table(pair_net, tuple(x)) - jet_table(pair_net, tuple(y)))[(1, 0), (0, 1)].T
            lhs = np.abs(jac0_inv @ change).sum(axis=1).max()
            if lhs > omega * np.abs(x - y).max() * (1 + 1e-9) + 1e-12:
                violations += 1
    assert violations == 0
    print(
        "ACCEPTANCE 6 PASS: partition of unity "
        f"{worst_pu:.1e} <= 1e-12; reparametrization {worst_rep:.1e} <= 1e-10; "
        f"Jacobian FD {worst_jac:.1e} <= 1e-6; Lipschitz violations 0"
    )


def test_acceptance_7_hand_traced_fixtures(problems_dir):
    crossing = load_problem(problems_dir / "crossing_segments.json")
    report = solve(crossing.curve1, crossing.curve2)
    assert report.squares_examined == 1
    assert len(report.intersections) == 1
    rec = report.intersections[0]
    assert (rec.u, rec.v) == (0.5, 0.5)

    disjoint = load_problem(problems_dir / "disjoint_segments.json")
    report = solve(disjoint.curve1, disjoint.curve2)
    assert report.squares_examined == 1
    assert report.intersections == []
    print("ACCEPTANCE 7 PASS: crossing fixture (1 square, one root at (0.5, 0.5)); "
          "disjoint fixture (1 square, no roots)")


def test_acceptance_8_degenerate_contact_truncates(problems_dir):
    t0 = time.monotonic()
    result = runner.invoke(
        cli_main,
        ["solve", str(problems_dir / "tangential_contact.json")],
        catch_exceptions=False,
    )
    elapsed = time.monotonic() - t0
    assert result.exit_code == 2
    doc = json.loads(result.output)
    assert doc["truncated"]
    assert doc["counters"]["max_depth_reached"] == 40
    assert elapsed < 30.0, f"tangential solve took {elapsed:.1f}s"
    print(f"ACCEPTANCE 8 PASS: tangential contact truncated at depth 40, "
          f"exit code 2 ({elapsed:.1f}s)")
