"""Driver tests: hand-traced fixtures, adaptation rules, pruning, and
whole-solver properties on generated transversal problems."""

import numpy as np
import pytest

from cci.engine import (
    SolverConfig,
    Square,
    point_is_known,
    region_prunes_square,
    solve,
    update_scales,
)
from cci.geometry import BezierCurve, Rect
from cci.kantorovich import (
    ExploredRegion,
    KantorovichOutcome,
    PairStatus,
    PairTest,
)
from conftest import match_point_sets, random_transversal_problem

CROSSING = (
    BezierCurve([[0, 0, 0], [1, 1, 0]]),
    BezierCurve([[1, 0, 0], [0, 1, 0]]),
)
DISJOINT = (
    BezierCurve([[0, 0, 0], [1, 1, 0]]),
    BezierCurve([[0, 0, 1], [1, 1, 1]]),
)
TANGENTIAL = (
    BezierCurve([[0, 1, 0], [0.5, -1, 0], [1, 1, 0]]),
    BezierCurve([[0, -1, 0], [0.5, 1, 0], [1, -1, 0]]),
)


def _pt(pair, status, **kw):
    return PairTest(pair, status, Rect.ball((0.5, 0.5), 0.75), **kw)


# ---------------------------------------------------------------------------
# Hand-traced fixtures

def test_crossing_segments_trace():
    report = solve(*CROSSING)
    assert report.squares_examined == 5
    assert report.subdivisions == 1
    assert report.kantorovich_passes == 1
    assert report.newton_calls == 1
    assert not report.truncated
    assert len(report.intersections) == 1
    rec = report.intersections[0]
    assert (rec.u, rec.v) == (0.5, 0.5)
    assert np.array_equal(rec.point, [0.5, 0.5, 0.0])
    assert rec.residual == 0.0


def test_disjoint_segments_trace():
    report = solve(*DISJOINT)
    assert report.squares_examined == 1
    assert report.exclusion_passes == 1
    assert report.subdivisions == 0
    assert report.intersections == []


def test_tangential_contact_truncates():
    report = solve(*TANGENTIAL, SolverConfig(max_depth=40))
    assert report.truncated
    assert report.max_depth_reached == 40


def test_dyadic_planar_contact_is_flagged_or_found():
    # Degree-4 pair in z=0 touching tangentially at (1/2, 1/2); every
    # coefficient is dyadic, so midpoint subdivision keeps the contact exact.
    # Restricting each square from the root net rounded it away, and the run
    # ended after 377 squares with no root and no truncation flag.
    c1 = BezierCurve(
        [[0, -0.375, 0], [0.25, -0.84375, 0], [0.5, -0.75, 0], [0.75, -0.84375, 0], [1, -0.375, 0]]
    )
    c2 = BezierCurve(
        [[0, -0.8125, 0], [0.25, -0.78125, 0], [0.5, -0.71875, 0], [0.75, -0.6875, 0], [1, -1, 0]]
    )
    report = solve(c1, c2)
    found = [(r.u, r.v) for r in report.intersections]
    assert report.truncated or any(
        max(abs(u - 0.5), abs(v - 0.5)) <= 1e-6 for u, v in found
    )


def test_single_crossing_quadratics_need_five_squares_in_both_modes():
    # root certifies its zero immediately, the four children are pruned
    c1 = BezierCurve([[0, 0, 0], [0.5, 0.6, 0], [1, 1, 0]])
    c2 = BezierCurve([[1, 0, 0], [0.5, 0.4, 0], [0, 1, 0]])
    for config in [SolverConfig(mode="fixed")] + [
        SolverConfig(mode="adaptive", epsilon=e) for e in (0.01, 0.05, 0.1, 0.15, 0.2)
    ]:
        report = solve(c1, c2, config)
        assert report.squares_examined == 5
        assert len(report.intersections) == 1


# ---------------------------------------------------------------------------
# Adaptation rule

def test_update_scales_pass_keeps_parent_scales():
    outcome = KantorovichOutcome((_pt((0, 1), PairStatus.PASS, eta=0.0),))
    assert update_scales(outcome, (1.5, 1.5, 1.5), 0.1) == (1.5, 1.5, 1.5)


def test_update_scales_failure_modes():
    outcome = KantorovichOutcome(
        (
            _pt((0, 1), PairStatus.FAIL_CONTAINMENT),
            _pt((0, 2), PairStatus.FAIL_CONVERGENCE),
            _pt((1, 2), PairStatus.FAIL_CONVERGENCE),
        )
    )
    new = update_scales(outcome, (1.5, 1.05, 1.0), 0.1)
    assert new == pytest.approx((1.6, 1.0, 1.0), abs=1e-15)


def test_update_scales_singular_unchanged():
    outcome = KantorovichOutcome(
        tuple(_pt(p, PairStatus.SINGULAR_JACOBIAN) for p in ((0, 1), (0, 2), (1, 2)))
    )
    assert update_scales(outcome, (1.5, 1.5, 1.5), 0.2) == (1.5, 1.5, 1.5)


def test_update_scales_never_below_one():
    outcome = KantorovichOutcome(
        tuple(_pt(p, PairStatus.FAIL_CONVERGENCE) for p in ((0, 1), (0, 2), (1, 2)))
    )
    assert update_scales(outcome, (1.0, 1.2, 3.0), 0.5) == (1.0, 1.0, 2.5)


# ---------------------------------------------------------------------------
# Region pruning

def _region(center, rho_plus, clip=None):
    return ExploredRegion(
        center=center, rho_minus=rho_plus / 2, rho_plus=rho_plus,
        pair=(0, 1), clip=clip, zero=center,
    )


def test_region_prunes_square_empty_list():
    assert not region_prunes_square([], Square((0.5, 0.5), 0.25, (1.5,) * 3))


def test_region_prunes_square_inside_one_region():
    regions = [_region((0.5, 0.5), 0.4)]
    assert region_prunes_square(regions, Square((0.5, 0.5), 0.25, (1.5,) * 3))


def test_region_union_does_not_prune():
    # the square is covered only by the union of the two regions
    regions = [_region((0.25, 0.5), 0.3), _region((0.75, 0.5), 0.3)]
    square = Square((0.5, 0.5), 0.3, (1.5,) * 3)
    assert not region_prunes_square(regions, square)
    assert all(
        r.contains_point(p) or other.contains_point(p)
        for r, other in [regions]
        for p in [(0.2, 0.5), (0.8, 0.5), (0.5, 0.5)]
    )


def test_point_is_known():
    assert not point_is_known([], (0.5, 0.5))
    regions = [_region((0.5, 0.5), 0.2)]
    assert point_is_known(regions, (0.5, 0.5))
    assert point_is_known(regions, (0.7, 0.5))  # boundary is closed
    assert not point_is_known(regions, (0.71, 0.5))


# ---------------------------------------------------------------------------
# Square and config validation

def test_square_validation():
    with pytest.raises(ValueError):
        Square((0.5, 0.5), 0.25, (0.9, 1.5, 1.5))
    with pytest.raises(ValueError):
        Square((0.9, 0.9), 0.5, (1.5, 1.5, 1.5))
    with pytest.raises(ValueError):
        Square((0.5, 0.5), 0.0, (1.5, 1.5, 1.5))


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(mode="other")
    with pytest.raises(ValueError):
        SolverConfig(epsilon=-0.1)
    with pytest.raises(ValueError):
        SolverConfig(fixed_scale=0.5)
    SolverConfig(epsilon=0.0)  # zero step must be allowed (baseline equivalence)


# ---------------------------------------------------------------------------
# Whole-solver properties

def test_completeness_and_soundness_on_generated_problems():
    rng = np.random.default_rng(70)
    problems = [random_transversal_problem(rng, max_degree=5) for _ in range(6)]
    configs = [SolverConfig(mode="fixed")] + [
        SolverConfig(mode="adaptive", epsilon=e) for e in (0.01, 0.05, 0.1, 0.15, 0.2)
    ]
    for problem, expected in problems:
        scale = 1.0 + max(
            np.abs(problem.curve1.control_points).max(),
            np.abs(problem.curve2.control_points).max(),
        )
        for config in configs:
            report = solve(problem.curve1, problem.curve2, config)
            assert not report.truncated
            got = [(r.u, r.v) for r in report.intersections]
            assert match_point_sets(got, expected, tol=1e-6)
            # soundness and duplicate separation
            for rec in report.intersections:
                assert rec.residual <= 1e-6 * scale
            for i, a in enumerate(got):
                for b in got[i + 1:]:
                    assert max(abs(a[0] - b[0]), abs(a[1] - b[1])) > 1e-6


def test_determinism():
    rng = np.random.default_rng(71)
    problem, _ = random_transversal_problem(rng, max_degree=5)
    r1 = solve(problem.curve1, problem.curve2, SolverConfig(epsilon=0.1))
    r2 = solve(problem.curve1, problem.curve2, SolverConfig(epsilon=0.1))
    assert r1.squares_examined == r2.squares_examined
    assert r1.subdivisions == r2.subdivisions
    assert [(a.u, a.v) for a in r1.intersections] == [(b.u, b.v) for b in r2.intersections]
    assert [a.source_square for a in r1.intersections] == [
        b.source_square for b in r2.intersections
    ]


def test_baseline_equivalence_epsilon_zero():
    rng = np.random.default_rng(72)
    for _ in range(4):
        problem, _ = random_transversal_problem(rng, max_degree=5)
        adaptive = solve(problem.curve1, problem.curve2,
                         SolverConfig(mode="adaptive", epsilon=0.0))
        fixed = solve(problem.curve1, problem.curve2, SolverConfig(mode="fixed"))
        assert adaptive.squares_examined == fixed.squares_examined
        assert adaptive.subdivisions == fixed.subdivisions
        assert adaptive.kantorovich_passes == fixed.kantorovich_passes
        assert [(a.u, a.v) for a in adaptive.intersections] == [
            (b.u, b.v) for b in fixed.intersections
        ]


def test_bookkeeping_matches_observer_counts():
    rng = np.random.default_rng(73)
    problem, _ = random_transversal_problem(rng, max_degree=5)
    pops = []
    tested = []

    def observer(event, payload):
        if event == "square":
            pops.append(payload["square"])
        elif event == "kantorovich":
            tested.append(payload["square"])

    report = solve(problem.curve1, problem.curve2, SolverConfig(), observer=observer)
    assert report.squares_examined == len(pops)
    assert not report.truncated
    # every tested square was subdivided (none hit the depth cap)
    assert report.subdivisions == len(tested)
    assert report.squares_examined == 4 * report.subdivisions + 1


def test_zero_tol_override():
    # an unreachably small residual tolerance suppresses every acceptance
    c1 = BezierCurve([[0, 0, 0], [0.3, 1, 0], [1, 0.2, 0]])
    c2 = BezierCurve([[0, 1, 0], [0.5, -0.5, 0], [1, 1, 0]])
    baseline = solve(c1, c2)
    assert len(baseline.intersections) >= 1
    report = solve(c1, c2, SolverConfig(zero_tol=1e-300, max_depth=12))
    assert report.intersections == []


def test_unclipped_explored_region_mode_runs():
    report = solve(*CROSSING, SolverConfig(clip_explored_region=False))
    assert len(report.intersections) == 1
    assert report.squares_examined == 5


def test_overlapping_curves_hit_square_budget():
    # coincident curves have a one-dimensional zero set, so non-excludable
    # squares multiply with depth; the square budget must stop the run
    c = BezierCurve([[0, 0, 0], [0.3, 1, 0.2], [0.7, -0.2, 0.1], [1, 1, 0]])
    report = solve(c, c, SolverConfig(max_squares=3000))
    assert report.truncated
    assert report.squares_examined == 3000


def test_square_budget_not_hit_on_ordinary_problems():
    rng = np.random.default_rng(74)
    problem, _ = random_transversal_problem(rng, max_degree=5)
    report = solve(problem.curve1, problem.curve2, SolverConfig())
    assert not report.truncated
    assert report.squares_examined < 1000
