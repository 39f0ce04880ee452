"""Driver tests: hand-traced fixtures, adaptation rules, pruning, and
whole-solver properties on generated transversal problems."""

import dataclasses
import hashlib
import importlib.util
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from cci import brute_force_intersections, engine, kantorovich
from cci.engine import (
    SolverConfig,
    Square,
    point_is_known,
    region_prunes_square,
    solve,
    update_scale,
)
from cci.geometry import BezierCurve, Rect, difference_net, eval_net, sample_curve
from cci.kantorovich import (
    KantorovichOutcome,
    PairStatus,
    PairSystem,
    PairTest,
    explored_region,
)
from cci.problems import load_problem
from conftest import ball, forced_crossing_pair, match_point_sets, random_transversal_problem

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


def _outcome(status, **kw):
    return KantorovichOutcome((PairTest(None, status, ball((0.5, 0.5), 0.75), **kw),))


# ---------------------------------------------------------------------------
# Hand-traced fixtures

def test_crossing_segments_trace():
    # The root certifies the crossing, and its explored region covers it.
    report = solve(*CROSSING)
    assert report.squares_examined == 1
    assert report.subdivisions == 0
    assert report.kantorovich_passes == 1
    assert not report.truncated
    assert len(report.intersections) == 1
    rec = report.intersections[0]
    assert (rec.u, rec.v) == (0.5, 0.5)
    assert np.array_equal(rec.point, [0.5, 0.5, 0.0])
    assert rec.residual == 0.0


def test_rounding_level_near_tangency_is_singular_in_any_units():
    # A near-tangent crossing at the root square's center, exact in binary,
    # whose Jacobian row (d, 0) is two units in the last place of the
    # coefficients a/4 = 384. Beside the net's scale that Jacobian is
    # singular, so no pair certifies the crossing in any units, and the
    # near-tangency truncates after the same squares.
    a, d = 1536.0, 2.0**-43
    c1 = np.array([[0, a / 4 - d / 2, 0], [0.5, -a / 4, 0], [1, a / 4 + d / 2, 0]])
    c2 = np.array([[0, 0, 0], [0.5, 0, 0], [1, 0, 0]])
    for exponent in (-4, 0, 10):
        s = 2.0**exponent
        report = solve(BezierCurve(c1 * s), BezierCurve(c2 * s))
        assert report.intersections == []
        assert report.squares_examined == 629
        assert report.truncated


def test_disjoint_segments_trace():
    report = solve(*DISJOINT)
    assert report.squares_examined == 1
    assert report.exclusion_passes == 1
    assert report.subdivisions == 0
    assert report.intersections == []


def test_tangential_contact_truncates():
    report = solve(*TANGENTIAL)
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


def test_single_crossing_quadratics_need_one_square_in_both_modes():
    # the root certifies its zero, and its explored region covers it
    c1 = BezierCurve([[0, 0, 0], [0.5, 0.6, 0], [1, 1, 0]])
    c2 = BezierCurve([[1, 0, 0], [0.5, 0.4, 0], [0, 1, 0]])
    for config in [SolverConfig(mode="fixed")] + [
        SolverConfig(mode="adaptive", epsilon=e) for e in (0.01, 0.05, 0.1, 0.15, 0.2)
    ]:
        report = solve(c1, c2, config)
        assert report.squares_examined == 1
        assert len(report.intersections) == 1


@pytest.mark.parametrize("planar", [False, True])
@pytest.mark.parametrize("n", [2, 5])
def test_a_point_or_a_segment_against_a_curve_solves(planar, n):
    # Nets of degrees (0, n), (1, n) and the swapped ones: omega's raised
    # second-derivative nets start from degree 0 along an axis. A point just
    # off the curve meets it nowhere. A segment through the curve's point at
    # v = 0.3 crosses it there, at the segment's middle, and wherever else
    # the oracle finds.
    rng = np.random.default_rng(70 + n)
    points = rng.uniform(0.0, 1.0, (n + 1, 3))
    if planar:
        points[:, 2] = 0.0
    curve = BezierCurve(points)
    on = sample_curve(curve, [0.3])[0]
    step = np.array([*rng.normal(size=2), 0.0 if planar else rng.normal()])
    point = BezierCurve([on + [0.05, 0.0, 0.0]])
    segment = BezierCurve([on - step, on + step])
    for first, second in ((point, curve), (curve, point)):
        report = solve(first, second)
        assert report.intersections == [] and not report.truncated
    for first, second, expected in ((segment, curve, (0.5, 0.3)), (curve, segment, (0.3, 0.5))):
        report = solve(first, second)
        found = [(r.u, r.v) for r in report.intersections]
        assert not report.truncated
        assert match_point_sets(found, brute_force_intersections(first, second))
        assert any(max(abs(u - expected[0]), abs(v - expected[1])) <= 1e-9 for u, v in found)


# ---------------------------------------------------------------------------
# Adaptation rule

def test_update_scales_pass_keeps_parent_scales():
    assert update_scale(_outcome(PairStatus.PASS, eta=0.0), 1.5, 0.1) == 1.5


def test_update_scale_step_zero_keeps_the_scale():
    for status in (PairStatus.FAIL_CONTAINMENT, PairStatus.FAIL_CONVERGENCE):
        assert update_scale(_outcome(status), 1.25, 0.0) == 1.25


def test_update_scales_failure_modes():
    # A containment failure grows the square's one multiplier; a convergence
    # failure shrinks it.
    assert update_scale(_outcome(PairStatus.FAIL_CONTAINMENT), 1.05, 0.1) == 1.05 + 0.1
    assert update_scale(_outcome(PairStatus.FAIL_CONVERGENCE), 1.25, 0.1) == 1.25 - 0.1


def test_update_scales_singular_unchanged():
    assert update_scale(_outcome(PairStatus.SINGULAR_JACOBIAN), 1.5, 0.2) == 1.5


def test_update_scales_never_below_one():
    shrinking = _outcome(PairStatus.FAIL_CONVERGENCE)
    assert update_scale(shrinking, 3.0, 0.5) == 2.5
    assert update_scale(shrinking, 1.2, 0.5) == 1.0
    assert update_scale(shrinking, 1.0, 0.5) == 1.0


# ---------------------------------------------------------------------------
# Region pruning

def _region(center, rho_plus):
    # an explored region whose test domain is wider than its uniqueness ball
    return ball(center, rho_plus)


def test_region_prunes_square_empty_list():
    assert not region_prunes_square([], (0.5, 0.5), 0.25)


def test_region_prunes_square_inside_one_region():
    regions = [_region((0.5, 0.5), 0.4)]
    assert region_prunes_square(regions, (0.5, 0.5), 0.25)


def test_region_union_does_not_prune():
    # the square is covered only by the union of the two regions
    regions = [_region((0.25, 0.5), 0.3), _region((0.75, 0.5), 0.3)]
    assert not region_prunes_square(regions, (0.5, 0.5), 0.3)
    assert all(point_is_known(regions, p) for p in [(0.2, 0.5), (0.8, 0.5), (0.5, 0.5)])


def _finished_squares_pop_nothing(c1, c2, config):
    """Assert no square is popped inside a square whose pass recorded an
    intersection, or refound a recorded one, with an explored region
    covering it; return the report and the counts of both kinds."""
    net = difference_net(c1, c2)
    zero_tol = 1e-9 * float(np.abs(net.coeffs).max())
    finished, refound, recorded, passes = [], [], [], []

    def covering(passed, sq):
        region = explored_region(passed, sq.center)
        return region is not None and region_prunes_square([region], sq.center, sq.half_width)

    def observer(event, payload):
        if event == "square":
            sq = payload["square"]
            assert not any(
                region_prunes_square([ball(f.center, f.half_width)], sq.center, sq.half_width)
                for f in finished + refound
            ), sq
        elif event == "newton":
            sq, result = payload["square"], payload["result"]
            passes.append(payload["passed"])
            u, v = result.root
            if (
                result.converged
                and any(max(abs(u - r.u), abs(v - r.v)) <= engine._DUPLICATE_TOL for r in recorded)
                and float(np.abs(eval_net(net, u, v)).max()) <= zero_tol
                and covering(passes[-1], sq)
            ):
                refound.append(sq)
        elif event == "intersection":
            record = payload["record"]
            recorded.append(record)
            if covering(passes[-1], record.source_square):
                finished.append(record.source_square)

    report = solve(c1, c2, config, observer=observer)
    assert not report.truncated
    return report, len(finished), len(refound)


@pytest.mark.parametrize("name", [f"p0{k}" for k in range(1, 9)])
def test_square_its_explored_region_covers_is_finished(problems_dir, name):
    problem = load_problem(problems_dir / "suite" / f"{name}.json")
    for config in (SolverConfig(epsilon=0.05), SolverConfig(mode="fixed")):
        _finished_squares_pop_nothing(problem.curve1, problem.curve2, config)


def test_square_its_explored_region_covers_is_finished_spatial(monkeypatch):
    workloads = _bench_workloads(monkeypatch)
    finished = 0
    for case in workloads.spatial_crossings(1)[:8]:
        c1, c2 = BezierCurve(case.curve1), BezierCurve(case.curve2)
        finished += _finished_squares_pop_nothing(c1, c2, SolverConfig())[1]
    assert finished > 0


def test_a_pass_that_refinds_a_recorded_root_finishes_its_square():
    # A root on the quadtree lines lies in up to four squares at every
    # level, and Newton from each passing one refinds the recorded root. The
    # pass's explored region then holds that root as its only zero, so the
    # square it covers is finished like a new root's: 133 squares when only
    # new roots added regions, 77 now.
    rng = np.random.default_rng([0, 7])
    c1, c2, expected = forced_crossing_pair(rng, [(0.5, 0.5)], planar=True)
    report, _, refound = _finished_squares_pop_nothing(c1, c2, SolverConfig())
    assert match_point_sets([(r.u, r.v) for r in report.intersections], expected)
    assert report.squares_examined == 77
    assert refound > 0


@pytest.mark.parametrize("k, roots", enumerate([
    [(0.5, 0.5)],
    [(0.25, 0.5)],
    [(0.0, 0.0)],
    [(1.0, 0.0)],
    [(0.5, 1.0)],
    [(0.25, 0.5), (0.75, 0.25)],
]))
def test_roots_at_dyadic_parameters_are_all_found_in_both_modes(k, roots):
    # Roots on quadtree lines, at corners and on edges of the unit square,
    # where refound roots finish the most squares: a planar and a spatial
    # pair each, against the oracle.
    rng = np.random.default_rng([k, 11])
    for planar in (True, False):
        c1, c2, expected = forced_crossing_pair(rng, roots, planar)
        for config in (SolverConfig(), SolverConfig(mode="fixed")):
            report = _finished_squares_pop_nothing(c1, c2, config)[0]
            assert match_point_sets([(r.u, r.v) for r in report.intersections], expected)


def test_omega_lies_between_its_floor_and_four_times_the_largest_coefficient(
    problems_dir, monkeypatch
):
    # On every full convergence test of the suite (epsilon 0.05 and fixed)
    # and of the first 20 ``spatial_crossings`` seed-1 cases: the floor that
    # let the square through, over the center and the corners, is at most
    # omega, and omega, the row sums of the per-net maxima, is at most
    # 4 max |P c| over the whole block.
    workloads = _bench_workloads(monkeypatch)
    floor, omega = kantorovich._omega_floor, PairSystem.omega
    floors, sharper = {}, []

    def recorded_floor(system, rows, curvature, slack):
        floors[system] = floor(system, rows, curvature, slack)
        return floors[system]

    def checked_omega(system, rows, block):
        value = omega(system, rows, block)
        whole = 4.0 * float(np.abs(block @ np.array(rows).T).max())
        assert floors.pop(system) <= value <= whole
        sharper.append(value < whole)
        return value

    monkeypatch.setattr(kantorovich, "_omega_floor", recorded_floor)
    monkeypatch.setattr(PairSystem, "omega", checked_omega)
    runs = [
        (problem.curve1, problem.curve2, config)
        for problem in map(load_problem, sorted((problems_dir / "suite").glob("*.json")))
        for config in (SolverConfig(epsilon=0.05), SolverConfig(mode="fixed"))
    ]
    runs += [
        (BezierCurve(case.curve1), BezierCurve(case.curve2), SolverConfig())
        for case in workloads.spatial_crossings(1)[:20]
    ]
    for c1, c2, config in runs:
        solve(c1, c2, config)
    # 87 full tests, omega strictly below the single-maximum bound in each.
    assert len(sharper) >= 80 and sum(sharper) >= 0.9 * len(sharper), sharper


def test_finished_square_at_max_depth_is_not_truncated(monkeypatch):
    # The root certifies the crossing and its region covers it, so nothing
    # is left unexplored although no square may be split.
    monkeypatch.setattr(engine, "MAX_DEPTH", 0)
    events = []
    report = solve(*CROSSING, observer=lambda event, payload: events.append(event))
    assert not report.truncated and "truncated" not in events
    assert report.squares_examined == 1
    assert [(r.u, r.v) for r in report.intersections] == [(0.5, 0.5)]


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
        Square((0.5, 0.5), 0.25, 0.9)
    with pytest.raises(ValueError):
        Square((0.9, 0.9), 0.5, 1.5)
    with pytest.raises(ValueError):
        Square((0.5, 0.5), 0.0, 1.5)
    # NaN fails every comparison; it and infinities must still be refused.
    nan, inf = float("nan"), float("inf")
    for center, half_width, scale in (
        ((0.5, 0.5), nan, 1.5),
        ((0.5, 0.5), inf, 1.5),
        ((nan, 0.5), 0.25, 1.5),
        ((0.5, nan), 0.25, 1.5),
        ((0.5, 0.5), 0.25, nan),
        ((0.5, 0.5), 0.25, inf),
    ):
        with pytest.raises(ValueError):
            Square(center, half_width, scale)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(mode="other")
    with pytest.raises(ValueError):
        SolverConfig(epsilon=-0.1)
    SolverConfig(epsilon=0.0)  # zero step must be allowed (baseline equivalence)
    for bad in ({"epsilon": float("nan")}, {"epsilon": float("inf")}):
        with pytest.raises(ValueError):
            SolverConfig(**bad)
    # The depth cap, Newton's step tolerance, the residual tolerance and the
    # square budget are constants, not settings.
    for removed in (
        {"max_depth": 40},
        {"newton_tol": 1e-7},
        {"zero_tol": 1e-9},
        {"max_squares": 5},
    ):
        with pytest.raises(TypeError):
            SolverConfig(**removed)
    assert [f.name for f in dataclasses.fields(SolverConfig)] == ["mode", "epsilon"]


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


def _report_fields(report):
    """Every field of a report; each record as its fields, its point as a list."""
    fields = {f.name: getattr(report, f.name) for f in dataclasses.fields(report)}
    fields["intersections"] = [
        (r.u, r.v, r.point.tolist(), r.residual, r.source_square) for r in report.intersections
    ]
    return fields


def test_an_observer_changes_no_report_field(problems_dir):
    # The solver builds a ``Square`` only for an event payload or a record, so
    # a run with an observer must report what a run without one does, down to
    # each record's source square and the deepest level examined.
    runs = [
        (problem.curve1, problem.curve2, config)
        for problem in map(load_problem, sorted((problems_dir / "suite").glob("p0*.json")))
        for config in (SolverConfig(epsilon=0.05), SolverConfig(mode="fixed"))
    ]
    rng = np.random.default_rng(27)
    for k in range(20):
        problem, _ = random_transversal_problem(rng)
        runs.append((problem.curve1, problem.curve2, SolverConfig(epsilon=0.05 * (k % 3))))
    runs.append((*TANGENTIAL, SolverConfig()))  # truncated at depth 40
    assert len(runs) == 37
    for c1, c2, config in runs:
        events = []
        quiet = _report_fields(solve(c1, c2, config, observer=None))
        observed = _report_fields(solve(c1, c2, config, lambda event, payload: events.append(event)))
        assert observed == quiet
        assert events.count("square") == quiet["squares_examined"]


def test_units_do_not_change_the_run(problems_dir):
    # Scaling both curves scales the difference net: the same squares must be
    # examined and the same (u, v) found, from 1e-12 to 1e12.
    problem = load_problem(problems_dir / "suite" / "p07.json")
    base = solve(problem.curve1, problem.curve2)
    assert len(base.intersections) == 5
    for exponent in range(-12, 13, 4):
        s = 10.0**exponent
        report = solve(
            BezierCurve(problem.curve1.control_points * s),
            BezierCurve(problem.curve2.control_points * s),
        )
        assert report.squares_examined == base.squares_examined, s
        assert len(report.intersections) == len(base.intersections), s
        # The default residual tolerance is relative: it scales with the input.
        assert abs(report.zero_tol - s * base.zero_tol) <= math.ulp(s * base.zero_tol), s
        for a, b in zip(report.intersections, base.intersections):
            assert max(abs(a.u - b.u), abs(a.v - b.v)) <= 1e-12, s


# Suite p01-p08 with both curves mapped by an invertible dyadic matrix, so the
# curves leave the plane and no Jacobian is singular: squares examined and
# every root's (u.hex(), v.hex()), per config. A change that keeps every
# decision and every rounding keeps these.
SPATIAL_MAP = np.array([[1.0, 0.5, 0.25], [-0.25, 1.0, 0.5], [0.5, -0.5, 1.0]])
SPATIAL_SUITE_FINGERPRINT = {
    ("p01", 0.05): (5, [
        ("0x1.7659a276117dbp-2", "0x1.7ba331ffb07e6p-1"),
    ]),
    ("p01", "fixed"): (5, [
        ("0x1.7659a276117dbp-2", "0x1.7ba331ffb07e6p-1"),
    ]),
    ("p02", 0.05): (21, [
        ("0x1.909fcadb8354ap-1", "0x1.a16eb77bded35p-2"),
        ("0x1.227626ee3023dp-1", "0x1.ace122dccd70ep-1"),
    ]),
    ("p02", "fixed"): (21, [
        ("0x1.909fcadb8354ap-1", "0x1.a16eb77bded35p-2"),
        ("0x1.227626ee3023dp-1", "0x1.ace122dccd70ep-1"),
    ]),
    ("p03", 0.05): (25, [
        ("0x1.94872a4ff5af8p-2", "0x1.e62b754753fc5p-1"),
    ]),
    ("p03", "fixed"): (25, [
        ("0x1.94872a4ff5af8p-2", "0x1.e62b754753fc5p-1"),
    ]),
    ("p04", 0.05): (29, [
        ("0x1.6dd7a90b6ab3bp-2", "0x1.0c2e116fc59b2p-1"),
    ]),
    ("p04", "fixed"): (29, [
        ("0x1.6dd7a90b6ab3bp-2", "0x1.0c2e116fc59b2p-1"),
    ]),
    ("p05", 0.05): (29, [
        ("0x1.4f3ada6661babp-1", "0x1.18e6901be98a7p-1"),
    ]),
    ("p05", "fixed"): (29, [
        ("0x1.4f3ada6661babp-1", "0x1.18e6901be98a7p-1"),
    ]),
    ("p06", 0.05): (77, [
        ("0x1.ddb3f9bee6b26p-2", "0x1.b2050da65f22cp-1"),
        ("0x1.fefaf8b5515b9p-2", "0x1.0cd23bb0099bap-2"),
        ("0x1.da54ee369e22cp-3", "0x1.b7ee8dfe078bap-1"),
        ("0x1.a677d7ff65b6ep-2", "0x1.213b723a13844p-3"),
    ]),
    ("p06", "fixed"): (73, [
        ("0x1.ddb3f9bee6b26p-2", "0x1.b2050da65f22cp-1"),
        ("0x1.fefaf8b5515b9p-2", "0x1.0cd23bb0099bap-2"),
        ("0x1.da54ee369e22cp-3", "0x1.b7ee8dfe078bap-1"),
        ("0x1.a677d7ff65b6fp-2", "0x1.213b723a13840p-3"),
    ]),
    ("p07", 0.05): (113, [
        ("0x1.6e68dac6534e7p-1", "0x1.9c0a5b724c7f1p-1"),
        ("0x1.c5991b9f3e6f8p-1", "0x1.b8e561badd100p-1"),
        ("0x1.624c0aba5a529p-1", "0x1.2efa9c2ce1343p-5"),
        ("0x1.26853e952ef34p-2", "0x1.c8ec43c010845p-1"),
        ("0x1.bfca333927c92p-1", "0x1.3df082bdfd6e2p-8"),
    ]),
    ("p07", "fixed"): (105, [
        ("0x1.6e68dac6534e7p-1", "0x1.9c0a5b724c7f1p-1"),
        ("0x1.c5991b9f3e6f8p-1", "0x1.b8e561badd100p-1"),
        ("0x1.624c0aba5a529p-1", "0x1.2efa9c2ce1343p-5"),
        ("0x1.bfca333927c92p-1", "0x1.3df082bdfd6edp-8"),
        ("0x1.26853e952ef34p-2", "0x1.c8ec43c010845p-1"),
    ]),
    ("p08", 0.05): (13, [
    ]),
    ("p08", "fixed"): (13, [
    ]),
}


@pytest.mark.parametrize("name, config", sorted(SPATIAL_SUITE_FINGERPRINT, key=str))
def test_spatial_suite_fingerprint(problems_dir, name, config):
    problem = load_problem(problems_dir / "suite" / f"{name}.json")
    singular = []

    def observer(event, payload):
        if event == "kantorovich":
            singular.extend(
                t for t in payload["outcome"].pairs if t.status is PairStatus.SINGULAR_JACOBIAN
            )

    report = solve(
        BezierCurve(problem.curve1.control_points @ SPATIAL_MAP.T),
        BezierCurve(problem.curve2.control_points @ SPATIAL_MAP.T),
        SolverConfig(mode="fixed") if config == "fixed" else SolverConfig(epsilon=config),
        observer=observer,
    )
    squares, roots = SPATIAL_SUITE_FINGERPRINT[name, config]
    assert singular == [] and not report.truncated
    assert report.squares_examined == squares
    assert [(r.u.hex(), r.v.hex()) for r in report.intersections] == roots


def test_a_rotation_of_both_curves_moves_no_square():
    # Rotating both curves by one orthogonal Q turns f and its Jacobian J by
    # Q, and leaves the tested system P f, P = (J^T J)^-1 J^T, as it was. So
    # 60 problems of the oracle sweep examine the same squares and find the
    # same roots after the rotation, to rounding.
    q, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(3, 3)))
    rng = np.random.default_rng(2024)
    for k in range(60):
        problem, _ = random_transversal_problem(rng)
        base = solve(problem.curve1, problem.curve2)
        turned = solve(
            BezierCurve(problem.curve1.control_points @ q.T),
            BezierCurve(problem.curve2.control_points @ q.T),
        )
        assert turned.squares_examined == base.squares_examined, k
        assert len(turned.intersections) == len(base.intersections), k
        for a, b in zip(turned.intersections, base.intersections):
            assert max(abs(a.u - b.u), abs(a.v - b.v)) <= 1e-12, k


def _elevated(points: np.ndarray, degree: int) -> np.ndarray:
    """The same curve's control points at a higher degree."""
    n = len(points) - 1
    weights = np.array([
        [math.comb(n, i) * math.comb(degree - n, j - i) / math.comb(degree, j) if i <= j else 0.0
         for i in range(n + 1)]
        for j in range(degree + 1)
    ])
    return weights @ points


@pytest.mark.parametrize("degrees", [(56, 48), (64, 50)])
def test_high_degree_curves_solve_as_their_low_degree_originals(problems_dir, degrees):
    # Suite p02, mapped off the plane and degree-elevated from (3, 3): the
    # convergence test's allowance doubles its depth levels from degree 50,
    # and the pair still solves to p02's two crossings in as many squares.
    problem = load_problem(problems_dir / "suite" / "p02.json")
    curves = [c.control_points @ SPATIAL_MAP.T for c in (problem.curve1, problem.curve2)]
    base = solve(*map(BezierCurve, curves))
    report = solve(*(BezierCurve(_elevated(c, d)) for c, d in zip(curves, degrees)))
    assert report.squares_examined == base.squares_examined == 21
    assert not report.truncated
    expected = [(r.u, r.v) for r in base.intersections]
    assert len(expected) == 2
    assert match_point_sets([(r.u, r.v) for r in report.intersections], expected, tol=1e-9)


# Suite p01-p08: the number of observer events and the first 16 hex digits of
# the SHA-256 of their lines, one per event: its name, then the depth and
# the center's (u.hex(), v.hex()) of its square (an intersection's source
# square; none for the budget's truncation). FIFO order and child order are
# part of ``solve``'s contract, so batching the nets' restriction must not
# move a single event.
EVENT_STREAMS = {
    ("p01", 0.05): (12, "90f1d2e428ddc947"),
    ("p01", "fixed"): (12, "90f1d2e428ddc947"),
    ("p02", 0.05): (46, "3bd5553c65a92d27"),
    ("p02", "fixed"): (46, "3bd5553c65a92d27"),
    ("p03", 0.05): (52, "58807f8788949f82"),
    ("p03", "fixed"): (52, "58807f8788949f82"),
    ("p04", 0.05): (60, "db36f3cc5c6efc78"),
    ("p04", "fixed"): (60, "db36f3cc5c6efc78"),
    ("p05", 0.05): (60, "ff80bfc5baf9cdf0"),
    ("p05", "fixed"): (60, "ff80bfc5baf9cdf0"),
    ("p06", 0.05): (162, "0d36207d863a3386"),
    ("p06", "fixed"): (154, "38ce3b40bb7dfeef"),
    ("p07", 0.05): (236, "6f40a9d7fe753b44"),
    ("p07", "fixed"): (221, "dc127fe8a6ccbcc3"),
    ("p08", 0.05): (26, "a6f5f967e5fac52d"),
    ("p08", "fixed"): (26, "a6f5f967e5fac52d"),
}


@pytest.mark.parametrize("name, config", sorted(EVENT_STREAMS, key=str))
def test_suite_event_stream(problems_dir, name, config):
    problem = load_problem(problems_dir / "suite" / f"{name}.json")
    digest, lines = hashlib.sha256(), []

    def observer(event, payload):
        square = payload["record"].source_square if event == "intersection" else payload.get("square")
        if square is None:
            line = event
        else:
            line = f"{event} {square.depth} {square.center[0].hex()} {square.center[1].hex()}"
        digest.update(line.encode() + b"\n")
        lines.append(line)

    solve(
        problem.curve1,
        problem.curve2,
        SolverConfig(mode="fixed") if config == "fixed" else SolverConfig(epsilon=config),
        observer=observer,
    )
    assert (len(lines), digest.hexdigest()[:16]) == EVENT_STREAMS[name, config]


def test_near_miss_is_no_intersection_in_any_units():
    # An arch in z = 0 and a line that crosses it in xy, 3e-6 above it in z
    # there. The default residual tolerance is relative, so the near miss is
    # rejected at every scale; an absolute floor accepted it below 2^-20.
    c1 = np.array([[0.0, 0.0, 0.0], [0.5, 2.0, 0.0], [1.0, 0.0, 0.0]])
    c2 = np.array([[0.0, 0.5, -0.25], [1.0, 0.5, 0.75]])
    c2[:, 2] += 3e-6 + 0.25 - (1.0 - 0.5**0.5) / 2.0
    squares = set()
    for exponent in range(-40, 41, 20):
        s = 2.0**exponent
        report = solve(BezierCurve(c1 * s), BezierCurve(c2 * s))
        assert report.intersections == [], exponent
        assert not report.truncated
        squares.add(report.squares_examined)
    assert len(squares) == 1


def test_residual_of_huge_coordinates_does_not_overflow():
    # The caller-unit net's Jacobian at the root passes the largest float;
    # under filterwarnings=error its overflow warning would fail the solve.
    c1 = BezierCurve([[-1.7e308, 0, 0], [1.7e308, 0, 0]])
    c2 = BezierCurve([[0, -1.7e308, 0], [0, 1.7e308, 0]])
    report = solve(c1, c2)
    assert [(r.u, r.v, r.residual) for r in report.intersections] == [(0.5, 0.5, 0.0)]
    assert not report.truncated


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
    events = {"square": [], "pruned": [], "excluded": [], "kantorovich": []}

    def observer(event, payload):
        if event in events:
            events[event].append(payload["square"])

    report = solve(problem.curve1, problem.curve2, SolverConfig(), observer=observer)
    pops, tested = events["square"], events["kantorovich"]
    assert report.squares_examined == len(pops)
    # every popped square meets exactly one fate
    assert len(pops) == len(events["pruned"]) + len(events["excluded"]) + len(tested)
    assert report.exclusion_passes == len(events["excluded"])
    assert not report.truncated
    # every tested square was subdivided (none hit the depth cap)
    assert report.subdivisions == len(tested)
    assert report.squares_examined == 4 * report.subdivisions + 1


def test_overlapping_curves_hit_square_budget(monkeypatch):
    # coincident curves have a one-dimensional zero set, so non-excludable
    # squares multiply with depth; the square budget must stop the run
    c = BezierCurve([[0, 0, 0], [0.3, 1, 0.2], [0.7, -0.2, 0.1], [1, 1, 0]])
    truncations = []

    def observer(event, payload):
        if event == "truncated":
            truncations.append(payload["reason"])

    monkeypatch.setattr(engine, "MAX_SQUARES", 3000)
    report = solve(c, c, observer=observer)
    assert report.truncated
    assert report.squares_examined == 3000
    assert truncations == ["max_squares"]


@pytest.mark.parametrize("budget, truncated, squares", [(5, False, 5), (4, True, 4), (1, True, 1)])
def test_square_budget_at_batch_boundaries(monkeypatch, budget, truncated, squares):
    # Two quadratics whose root square fails the convergence test, then one
    # batch of its four children: the second certifies the crossing and is
    # finished, the other three are excluded. The budget is checked before
    # every square, so it can end the run inside a batch or between two, but
    # not when the queue is empty.
    c1 = BezierCurve([[0.5, 0, 0], [0.75, 0.25, 0], [0.75, 1, 0]])
    c2 = BezierCurve([[0.875, 0.5, 0], [0.625, 1, 0], [0.125, 0.5, 0]])
    events = []

    def observer(event, payload):
        events.append(payload.get("reason", event))

    monkeypatch.setattr(engine, "MAX_SQUARES", budget)
    report = solve(c1, c2, observer=observer)
    assert report.truncated is truncated
    assert report.squares_examined == squares == events.count("square")
    assert events.count("max_squares") == int(truncated)
    # The root alone is depth 0; a level's depth counts once one of its
    # squares is examined, not when its batch is built.
    assert report.max_depth_reached == int(squares > 1)
    assert events[:2] == ["square", "kantorovich"] and "newton" not in events[:3]
    # The root's second child, the run's third square, records the crossing.
    assert len(report.intersections) == int(squares >= 3)
    assert all(r.source_square.depth == 1 for r in report.intersections)


def test_square_budget_not_hit_on_ordinary_problems():
    rng = np.random.default_rng(74)
    problem, _ = random_transversal_problem(rng, max_degree=5)
    report = solve(problem.curve1, problem.curve2, SolverConfig())
    assert not report.truncated
    assert report.squares_examined < 1000


def _bench_workloads(monkeypatch):
    """bench/workloads.py as a module; its dataclasses need it in sys.modules."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_huge_epsilon_fails_far_test_domains_instead_of_overflowing(monkeypatch):
    # SolverConfig takes any finite epsilon. From about 1e14 a containment
    # failure grows a child's test domain so far past the unit square that
    # the restriction growth overflows a float, and from about 1e200 so does
    # omega's block. Such domains fail their pairs' convergence test, the
    # conservative answer, with no exception or warning, and every crossing
    # of these benchmark pairs is still found.
    workloads = _bench_workloads(monkeypatch)
    names = {f"spatial{k}" for k in (33, 35, 42, 43, 47, 58, 65, 79)}
    cases = [case for case in workloads.spatial_crossings(1) if case.name in names]
    assert len(cases) == len(names)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for epsilon in (1e14, 1e17, 1e200):
            for case in cases:
                c1, c2 = BezierCurve(case.curve1), BezierCurve(case.curve2)
                report = solve(c1, c2, SolverConfig(epsilon=epsilon))
                roots = [(r.u, r.v) for r in report.intersections]
                assert workloads.check(case, roots, report.truncated) is None, (case.name, epsilon)
