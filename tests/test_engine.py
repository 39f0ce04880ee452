"""Driver tests: hand-traced fixtures, adaptation rules, pruning, and
whole-solver properties on generated transversal problems."""

import hashlib
import math

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
    KantorovichOutcome,
    PairStatus,
    PairTest,
)
from cci.problems import load_problem
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

def _region(center, rho_plus):
    # an explored region whose test domain is wider than its uniqueness ball
    return Rect.ball(center, rho_plus)


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
    # NaN fails every comparison; it and infinities must still be refused.
    nan, inf = float("nan"), float("inf")
    for center, half_width, scales in (
        ((0.5, 0.5), nan, (1.5, 1.5, 1.5)),
        ((0.5, 0.5), inf, (1.5, 1.5, 1.5)),
        ((nan, 0.5), 0.25, (1.5, 1.5, 1.5)),
        ((0.5, nan), 0.25, (1.5, 1.5, 1.5)),
        ((0.5, 0.5), 0.25, (1.5, nan, 1.5)),
        ((0.5, 0.5), 0.25, (1.5, 1.5, inf)),
    ):
        with pytest.raises(ValueError):
            Square(center, half_width, scales)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(mode="other")
    with pytest.raises(ValueError):
        SolverConfig(epsilon=-0.1)
    SolverConfig(epsilon=0.0)  # zero step must be allowed (baseline equivalence)
    # Non-finite steps and tolerances, or tolerances of the wrong sign: with
    # zero_tol=nan a run would report no roots at all.
    for bad in (
        {"epsilon": float("nan")},
        {"epsilon": float("inf")},
        {"zero_tol": -1e-9},
        {"zero_tol": float("nan")},
        {"max_squares": 0},
    ):
        with pytest.raises(ValueError):
            SolverConfig(**bad)
    SolverConfig(zero_tol=0.0)
    # The depth cap and Newton's step tolerance are constants, not settings.
    for removed in ({"max_depth": 40}, {"newton_tol": 1e-7}):
        with pytest.raises(TypeError):
            SolverConfig(**removed)


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
# curves leave the plane and no pair is singular: squares examined and every
# root's (u.hex(), v.hex()), per config. A change that keeps every decision
# and every rounding keeps these.
SPATIAL_MAP = np.array([[1.0, 0.5, 0.25], [-0.25, 1.0, 0.5], [0.5, -0.5, 1.0]])
SPATIAL_SUITE_FINGERPRINT = {
    ("p01", 0.05): (25, [
        ("0x1.7659a27611738p-2", "0x1.7ba331ffb07e9p-1"),
    ]),
    ("p01", "fixed"): (25, [
        ("0x1.7659a27611738p-2", "0x1.7ba331ffb07e9p-1"),
    ]),
    ("p02", 0.05): (41, [
        ("0x1.909fcadb8354ap-1", "0x1.a16eb77bded36p-2"),
        ("0x1.227626ee3023dp-1", "0x1.ace122dccd70fp-1"),
    ]),
    ("p02", "fixed"): (41, [
        ("0x1.909fcadb8354ap-1", "0x1.a16eb77bded36p-2"),
        ("0x1.227626ee3023dp-1", "0x1.ace122dccd70fp-1"),
    ]),
    ("p03", 0.05): (33, [
        ("0x1.94872a4ff5accp-2", "0x1.e62b754753fd4p-1"),
    ]),
    ("p03", "fixed"): (37, [
        ("0x1.94872a4ff5b01p-2", "0x1.e62b754753fbfp-1"),
    ]),
    ("p04", 0.05): (37, [
        ("0x1.6dd7a90b6ab3cp-2", "0x1.0c2e116fc59b2p-1"),
    ]),
    ("p04", "fixed"): (41, [
        ("0x1.6dd7a90b6ab44p-2", "0x1.0c2e116fc59b1p-1"),
    ]),
    ("p05", 0.05): (45, [
        ("0x1.4f3ada6661ba9p-1", "0x1.18e6901be989bp-1"),
    ]),
    ("p05", "fixed"): (45, [
        ("0x1.4f3ada6661ba9p-1", "0x1.18e6901be989bp-1"),
    ]),
    ("p06", 0.05): (117, [
        ("0x1.da54ee369e22ep-3", "0x1.b7ee8dfe078bap-1"),
        ("0x1.fefaf8b5515c2p-2", "0x1.0cd23bb0099c6p-2"),
        ("0x1.ddb3f9bee6b7fp-2", "0x1.b2050da65f1f8p-1"),
        ("0x1.a677d7ff65b68p-2", "0x1.213b723a13839p-3"),
    ]),
    ("p06", "fixed"): (117, [
        ("0x1.da54ee369e22ep-3", "0x1.b7ee8dfe078bap-1"),
        ("0x1.fefaf8b5515c2p-2", "0x1.0cd23bb0099c6p-2"),
        ("0x1.ddb3f9bee6b7fp-2", "0x1.b2050da65f1f8p-1"),
        ("0x1.a677d7ff65b68p-2", "0x1.213b723a13839p-3"),
    ]),
    ("p07", 0.05): (161, [
        ("0x1.6e68dac6534b8p-1", "0x1.9c0a5b724c7d1p-1"),
        ("0x1.624c0aba5a529p-1", "0x1.2efa9c2ce1344p-5"),
        ("0x1.c5991b9f3e6f8p-1", "0x1.b8e561badd100p-1"),
        ("0x1.bfca333927c92p-1", "0x1.3df082bdfd6dbp-8"),
        ("0x1.26853e952ef35p-2", "0x1.c8ec43c010845p-1"),
    ]),
    ("p07", "fixed"): (161, [
        ("0x1.6e68dac6534b8p-1", "0x1.9c0a5b724c7d1p-1"),
        ("0x1.624c0aba5a529p-1", "0x1.2efa9c2ce1344p-5"),
        ("0x1.c5991b9f3e6f8p-1", "0x1.b8e561badd100p-1"),
        ("0x1.bfca333927c92p-1", "0x1.3df082bdfd6dbp-8"),
        ("0x1.26853e952ef35p-2", "0x1.c8ec43c010845p-1"),
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


# Suite p01-p08: the number of observer events and the first 16 hex digits of
# the SHA-256 of their lines, one per event: its name, then the depth and
# the center's (u.hex(), v.hex()) of its square (an intersection's source
# square; none for the budget's truncation). FIFO order and child order are
# part of ``solve``'s contract, so batching the nets' restriction must not
# move a single event.
EVENT_STREAMS = {
    ("p01", 0.05): (44, "260fe3e9feb55221"),
    ("p01", "fixed"): (44, "260fe3e9feb55221"),
    ("p02", 0.05): (86, "9ad2721bc6d0435c"),
    ("p02", "fixed"): (86, "9ad2721bc6d0435c"),
    ("p03", 0.05): (68, "51d600f3f949925c"),
    ("p03", "fixed"): (76, "241ac35d6dbf523e"),
    ("p04", 0.05): (76, "d4b06f61d3aaf346"),
    ("p04", "fixed"): (84, "2ee9a43e756cc440"),
    ("p05", 0.05): (84, "bec32d92796b6790"),
    ("p05", "fixed"): (92, "79a9ff42fd345958"),
    ("p06", 0.05): (242, "5f6010b55ae25a1d"),
    ("p06", "fixed"): (242, "5f6010b55ae25a1d"),
    ("p07", 0.05): (332, "09cb52ee1c4f64ef"),
    ("p07", "fixed"): (332, "09cb52ee1c4f64ef"),
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


def test_zero_tol_override():
    # an unreachably small residual tolerance suppresses every acceptance
    c1 = BezierCurve([[0, 0, 0], [0.3, 1, 0], [1, 0.2, 0]])
    c2 = BezierCurve([[0, 1, 0], [0.5, -0.5, 0], [1, 1, 0]])
    baseline = solve(c1, c2)
    assert len(baseline.intersections) >= 1
    report = solve(c1, c2, SolverConfig(zero_tol=1e-300))
    assert report.intersections == []


def test_overlapping_curves_hit_square_budget():
    # coincident curves have a one-dimensional zero set, so non-excludable
    # squares multiply with depth; the square budget must stop the run
    c = BezierCurve([[0, 0, 0], [0.3, 1, 0.2], [0.7, -0.2, 0.1], [1, 1, 0]])
    truncations = []

    def observer(event, payload):
        if event == "truncated":
            truncations.append(payload["reason"])

    report = solve(c, c, SolverConfig(max_squares=3000), observer=observer)
    assert report.truncated
    assert report.squares_examined == 3000
    assert truncations == ["max_squares"]


@pytest.mark.parametrize("budget, truncated, squares", [(5, False, 5), (4, True, 4), (1, True, 1)])
def test_square_budget_at_batch_boundaries(budget, truncated, squares):
    # The crossing segments take the root, then one batch of its four
    # children. The budget is checked before every square, so it can end the
    # run inside a batch or between two, but not when the queue is empty.
    events = []

    def observer(event, payload):
        events.append(payload.get("reason", event))

    report = solve(*CROSSING, SolverConfig(max_squares=budget), observer=observer)
    assert report.truncated is truncated
    assert report.squares_examined == squares == events.count("square")
    assert events.count("max_squares") == int(truncated)
    # The root alone records the crossing.
    assert [(r.u, r.v) for r in report.intersections] == [(0.5, 0.5)]


def test_square_budget_not_hit_on_ordinary_problems():
    rng = np.random.default_rng(74)
    problem, _ = random_transversal_problem(rng, max_degree=5)
    report = solve(problem.curve1, problem.curve2, SolverConfig())
    assert not report.truncated
    assert report.squares_examined < 1000
