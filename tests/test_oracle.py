"""Brute-force oracle behavior and oracle/solver cross-validation."""

import numpy as np
import pytest

from cci.engine import SolverConfig, solve
from cci.geometry import BezierCurve
from cci.oracle import brute_force_intersections
from conftest import match_point_sets


def test_crossing_segments():
    c1 = BezierCurve([[0, 0, 0], [1, 1, 0]])
    c2 = BezierCurve([[1, 0, 0], [0, 1, 0]])
    roots = brute_force_intersections(c1, c2)
    assert len(roots) == 1
    assert roots[0] == pytest.approx((0.5, 0.5), abs=1e-9)


def test_disjoint_curves():
    c1 = BezierCurve([[0, 0, 0], [1, 1, 0]])
    c2 = BezierCurve([[0, 0, 1], [1, 1, 1]])
    assert brute_force_intersections(c1, c2) == []


def test_near_miss_not_reported():
    # curves pass within 1e-3 of each other but never touch
    c1 = BezierCurve([[0, 0, 0], [1, 0, 0]])
    c2 = BezierCurve([[0, 1, 0.001], [1, -1, 0.001]])
    assert brute_force_intersections(c1, c2) == []


def test_results_sorted_and_deduplicated():
    rng = np.random.default_rng(80)
    for _ in range(5):
        a = rng.uniform(0, 1, (6, 3)); a[:, 2] = 0
        b = rng.uniform(0, 1, (6, 3)); b[:, 2] = 0
        roots = brute_force_intersections(BezierCurve(a), BezierCurve(b))
        assert roots == sorted(roots)
        for i, r in enumerate(roots):
            for s in roots[i + 1:]:
                assert max(abs(r[0] - s[0]), abs(r[1] - s[1])) > 1e-6


def test_agreement_with_solver_on_random_quintics():
    rng = np.random.default_rng(81)
    agreements = 0
    for _ in range(20):
        a = rng.uniform(0, 1, (6, 3)); a[:, 2] = 0
        b = rng.uniform(0, 1, (6, 3)); b[:, 2] = 0
        c1, c2 = BezierCurve(a), BezierCurve(b)
        report = solve(c1, c2)
        if report.truncated:
            continue  # near-tangential draw; outside the oracle's contract
        got = [(r.u, r.v) for r in report.intersections]
        assert match_point_sets(got, brute_force_intersections(c1, c2))
        agreements += 1
    assert agreements >= 15
