"""Exclusion test: soundness, conservativeness and invariances."""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import cci
import cci.exclusion as exclusion
import nearest_face_reference
import wolfe_reference
from cci.exclusion import exclusion_test
from cci.geometry import BezierCurve, ControlNet, difference_net
from cci.problems import load_problem
from conftest import monomial_grid, random_net_coeffs


def _cloud_test(points, tol=1e-12):
    """``exclusion_test`` on a net whose coefficients are the cloud's rows."""
    pts = np.asarray(points, dtype=float)
    return exclusion_test(ControlNet(pts.reshape(-1, 1, pts.shape[-1])), tol)


def test_pass_when_plane_separates():
    rng = np.random.default_rng(30)
    coeffs = random_net_coeffs(rng, 3, 3)
    coeffs[:, :, 2] = rng.uniform(0.1, 1.0, size=(4, 4))
    assert exclusion_test(ControlNet(coeffs))


def test_fail_when_origin_is_midpoint():
    c1 = BezierCurve([[0, 0, 0], [1, 1, 0]])
    c2 = BezierCurve([[1, 0, 0], [0, 1, 0]])
    assert not exclusion_test(difference_net(c1, c2))


def test_fail_when_origin_on_hull_boundary():
    points = np.array([[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    assert not _cloud_test(points)


def test_fail_for_zero_cloud():
    assert not _cloud_test(np.zeros((4, 3)))


def test_soundness_on_random_nets():
    # a pass must imply the map is nowhere zero on the unit square
    rng = np.random.default_rng(31)
    us = np.linspace(0.0, 1.0, 50)
    passes = 0
    for _ in range(200):
        coeffs = random_net_coeffs(rng, int(rng.integers(1, 6)), int(rng.integers(1, 6)))
        if rng.random() < 0.5:
            coeffs = coeffs + rng.normal(scale=1.5, size=3)
        net = ControlNet(coeffs)
        if exclusion_test(net):
            passes += 1
            grid = np.abs(monomial_grid(net.coeffs, us, us)).max(axis=2)
            assert grid.min() > 0.0
    assert passes > 20  # the check must not be vacuous


def test_scale_invariance():
    rng = np.random.default_rng(32)
    for _ in range(50):
        coeffs = random_net_coeffs(rng, 3, 3) + rng.normal(scale=1.0, size=3)
        net = ControlNet(coeffs)
        outcome = exclusion_test(net)
        for factor in (1e-6, 1e-2, 7.3, 1e4):
            assert exclusion_test(ControlNet(coeffs * factor)) == outcome


def test_translation_far_from_origin_forces_pass():
    rng = np.random.default_rng(33)
    for _ in range(20):
        coeffs = random_net_coeffs(rng, 4, 4)
        cloud = coeffs.reshape(-1, 3)
        diameter = np.abs(cloud[:, None, :] - cloud[None, :, :]).max()
        distance = np.abs(cloud).max()
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        shift = (diameter + distance + 1.0) * direction
        assert exclusion_test(ControlNet(coeffs + shift))


def test_oblique_separation_detected():
    # hull excluded only by a non-axis-aligned plane
    rng = np.random.default_rng(34)
    for _ in range(20):
        coeffs = random_net_coeffs(rng, 4, 4)
        w = rng.normal(size=3)
        w /= np.linalg.norm(w)
        proj = coeffs.reshape(-1, 3) @ w
        coeffs = coeffs + (0.25 - proj.min()) * w
        cloud = coeffs.reshape(-1, 3)
        # ensure no axis separates, so the certificate must be oblique
        if (cloud.min(axis=0) > 0).any() or (cloud.max(axis=0) < 0).any():
            continue
        assert exclusion_test(ControlNet(coeffs))


# ---------------------------------------------------------------------------
# Every pass holds exactly, and the walk passes wherever Gilbert did,
# except within a few margins of the origin


def _start(pts, tol=1e-12):
    """The index of the walk's start row, as the axis stage hands it over:
    the cloud's first row of least norm (``_check_axis_batch`` checks it)."""
    return int(exclusion.axis_test(pts[None], tol)[2][0])


def _gilbert_reference(points, tol=1e-12):
    """The hull test without the inside certificate: axis test, then Gilbert.

    A test oracle, kept verbatim from before the corrals replaced Gilbert's
    iteration but for its start row, which the axis stage gives; wherever
    it passes, ``exclusion_test`` must pass too, unless the origin lies
    within a few margins of the hull.
    """
    pts = np.asarray(points, dtype=float)
    pts = pts.reshape(-1, pts.shape[-1])
    scale = np.abs(pts).max(initial=0.0)
    if scale == 0.0:
        return False
    margin = tol * scale
    if (pts.min(axis=0) > margin).any() or (pts.max(axis=0) < -margin).any():
        return True
    x = pts[_start(pts, tol)].copy()
    stall = 0
    nx2 = float(x @ x)
    for _ in range(128):
        nx = math.sqrt(nx2)
        if nx <= margin:
            return False
        dots = pts @ x
        j = int(dots.argmin())
        if dots[j] > margin * nx:
            return True
        gap = nx2 - float(dots[j])
        if gap <= 0.0:
            return False
        d = x - pts[j]
        dd = float(d @ d)
        if dd == 0.0:
            return False
        x -= min(1.0, gap / dd) * d
        new_nx2 = float(x @ x)
        stall = stall + 1 if new_nx2 > (1.0 - 1e-3) * nx2 else 0
        nx2 = new_nx2
        if stall >= 10:
            break
    return False


def _pass_direction(pts, tol=1e-12):
    """The direction a pass rests on: a signed axis, or the walk's x."""
    margin = tol * np.abs(pts).max()
    for axis in np.eye(pts.shape[1]):
        for x in (axis, -axis):
            if (pts @ x).min() > margin:
                return x
    return exclusion._separating_direction(pts, margin, _start(pts, tol))


def _exact_min_dot(pts, x):
    """min p.x over the float points p, in exact arithmetic."""
    x = [Fraction(float(c)) for c in x]
    return min(sum(Fraction(float(c)) * w for c, w in zip(p, x)) for p in pts)


def _solve_exactly(matrix, rhs):
    """Gauss-Jordan elimination in rational arithmetic."""
    rows = [[*row, b] for row, b in zip(matrix, rhs)]
    n = len(rows)
    for c in range(n):
        pivot = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        for r in range(n):
            if r != c:
                f = rows[r][c] / rows[c][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return [rows[r][n] / rows[r][r] for r in range(n)]


def _exact_nearest_point(pts):
    """Convex weights {index: weight} of the hull point nearest the origin.

    Wolfe's corrals in rational arithmetic over the float points. Exact
    affine minimizers keep every corral affinely independent, so the
    iteration ends at the exact minimum-norm point.
    """
    pts = [[Fraction(float(c)) for c in p] for p in pts]

    def dot(a, b):
        return sum(s * t for s, t in zip(a, b))

    def combine(weights):
        return [sum(w * pts[i][c] for i, w in weights.items()) for c in range(len(pts[0]))]

    weights = {min(range(len(pts)), key=lambda i: dot(pts[i], pts[i])): Fraction(1)}
    while True:
        x = combine(weights)
        j = min(range(len(pts)), key=lambda i: dot(pts[i], x))
        if dot(pts[j], x) >= dot(x, x):
            return weights
        weights[j] = Fraction(0)
        while True:
            p0, *rest = [pts[i] for i in weights]
            q = [[a - b for a, b in zip(p, p0)] for p in rest]
            beta = _solve_exactly([[dot(a, b) for b in q] for a in q], [-dot(a, p0) for a in q])
            alpha = dict(zip(weights, [1 - sum(beta), *beta]))
            if all(a > 0 for a in alpha.values()):
                weights = alpha
                break
            theta = min(w / (w - alpha[i]) for i, w in weights.items() if alpha[i] <= 0)
            weights = {i: (1 - theta) * w + theta * alpha[i] for i, w in weights.items()}
            weights = {i: w for i, w in weights.items() if w > 0}


def _check_cloud(points, tol=1e-12):
    """A pass holds exactly, and a Gilbert pass is kept unless a hull point
    lies within 4 margins of the origin. Returns both decisions."""
    pts = np.asarray(points, dtype=float)
    pts = pts.reshape(-1, pts.shape[-1])
    passed = _cloud_test(pts, tol)
    if passed:
        x = _pass_direction(pts, tol)
        assert x is not None and _exact_min_dot(pts, x) > 0
    reference = _gilbert_reference(pts, tol)
    if reference and not passed:
        weights = _exact_nearest_point(pts)
        assert all(w >= 0 for w in weights.values()) and sum(weights.values()) == 1
        y = [
            sum(w * Fraction(float(pts[i, c])) for i, w in weights.items())
            for c in range(pts.shape[1])
        ]
        margin = Fraction(tol * float(np.abs(pts).max()))
        assert sum(c * c for c in y) <= (4 * margin) ** 2
    return passed, reference


# name: (decision, points)
DEGENERATE_CLOUDS = {
    "one point": (True, [[0.3, -0.2, 0.1]]),
    "one point at the origin": (False, [[0.0, 0.0, 0.0]]),
    "all identical": (True, [[0.0, 0.5, -0.25]] * 6),
    "two antipodal": (False, [[1.0, -2.0, 0.5], [-1.0, 2.0, -0.5]]),
    "collinear through the origin": (False, [[t, 2 * t, -3 * t] for t in (-1.0, -0.3, 0.2, 0.9)]),
    "collinear within the margin": (False, [[t, 2 * t, 1e-13] for t in (-1.0, 0.5, 2.0)]),
    "planar with z=0": (
        False,
        [[1.0, 0.2, 0.0], [-0.5, 0.8, 0.0], [-0.4, -0.9, 0.0], [0.3, -0.1, 0.0]],
    ),
    "planar 2D": (False, [[1.0, 0.2], [-0.5, 0.8], [-0.4, -0.9]]),
    "duplicated vertices": (
        False,
        [[1.0, 0.2, 0.3], [-0.5, 0.8, -0.1], [-0.4, -0.9, 0.2], [0.1, 0.1, -1.0]] * 3,
    ),
    "all-zero column": (
        False,
        [[0.0, 1.0, 0.5], [0.0, -1.0, 0.5], [0.0, 0.0, -1.0], [0.0, 0.3, 0.3]],
    ),
    "exactly on an edge": (
        False,
        [[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 1.0, 1.0]],
    ),
    "exactly on a vertex": (
        False,
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    ),
    "just outside a face, within the margin": (
        False,
        [[1.0, 0.0, 2.0**-60], [-1.0, 1.0, 2.0**-60], [-1.0, -1.0, 2.0**-60], [0.0, 0.0, 1.0]],
    ),
    "just outside a face, beyond the margin": (
        True,
        [[1.0, 0.0, 1e-11], [-1.0, 1.0, 1e-11], [-1.0, -1.0, 1e-11], [0.0, 0.0, 1.0]],
    ),
}


@pytest.mark.parametrize("name", sorted(DEGENERATE_CLOUDS))
def test_degenerate_clouds_end_within_the_bound(name, monkeypatch):
    decision, points = DEGENERATE_CLOUDS[name]
    points = np.array(points, dtype=float)
    steps, active = [], []
    nearest_face = exclusion._nearest_face

    def counted(simplex):
        if not active:  # a major step's call, not one it makes on a facet
            steps.append(len(simplex))
        active.append(simplex)
        try:
            return nearest_face(simplex)
        finally:
            active.pop()

    monkeypatch.setattr(exclusion, "_nearest_face", counted)
    assert _cloud_test(points) == decision == wolfe_reference.decides(points)
    # Each major step reduces one simplex of at most four points.
    assert len(steps) <= exclusion._MAX_MAJOR
    assert all(size <= 4 for size in steps)
    _check_cloud(points)


def _seeded_clouds(seed, count):
    """2D and 3D clouds with the origin inside, outside, or 1e-13 to 1e-2
    (relative to the cloud's size) from a hull vertex or edge."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        d = 2 + k % 2
        pts = rng.normal(size=(int(rng.integers(d + 1, 30)), d))
        kind = (k // 2) % 5
        size = np.abs(pts).max()
        delta = 10.0 ** rng.uniform(-13, -2) * size
        u = rng.normal(size=d)
        u /= np.linalg.norm(u)
        if kind == 0:
            pts -= pts.mean(axis=0)
        elif kind == 1:
            pts += 3.0 * rng.normal(size=d)
        elif kind in (2, 3):
            # The vertex extreme along -u sits delta outside (or inside) the
            # origin, so the hull lies on one side of the plane through it.
            vertex = pts[(pts @ u).argmin()]
            pts = pts - vertex + (delta if kind == 2 else -delta) * u
        else:
            # The origin near the midpoint of two points.
            a, b = rng.choice(len(pts), size=2, replace=False)
            pts = pts - (pts[a] + pts[b]) / 2 + delta * u
        yield pts


def test_certificate_agrees_with_gilbert_on_seeded_clouds():
    decisions = Counter(_check_cloud(pts) for pts in _seeded_clouds(60, 3000))
    assert decisions[True, True] >= 1000  # the agreement must not be vacuous


def _dyadic_tangential_pair(rng, degree):
    """Planar degree-2..4 pair touching at (1/2, 1/2), every coefficient dyadic.

    Both curves share x(s) = degree * s / 4; y1 = c + (s - 1/2)^2 h1 and
    y2 = c - (s - 1/2)^2 h2 with h1, h2 > 0, so the contact is exact in
    floating point and midpoint subdivision keeps it exact.
    """
    square = [Fraction(1, 4), Fraction(-1, 4), Fraction(1, 4)]

    def bump():
        while True:
            h = [Fraction(int(k), 4) for k in rng.integers(1, 9, degree - 1)]
            out = [Fraction(0)] * (degree + 1)
            for i, a in enumerate(square):
                for j, b in enumerate(h):
                    out[i + j] += math.comb(2, i) * math.comb(degree - 2, j) * a * b
            out = [c / math.comb(degree, k) for k, c in enumerate(out)]
            if all(c.denominator & (c.denominator - 1) == 0 for c in out):
                return out

    c = Fraction(int(rng.integers(-8, 9)), 8)
    y1, y2 = [c + b for b in bump()], [c - b for b in bump()]
    return (
        BezierCurve([[i / 4, float(y), 0.0] for i, y in enumerate(y1)]),
        BezierCurve([[i / 4, float(y), 0.0] for i, y in enumerate(y2)]),
    )


def _record_hull_tested_batches(monkeypatch):
    """A list that collects every batch of nets the solver hull-tests.

    The solver axis-tests each batch of nets at once, so every net it
    hull-tests passes through ``engine.axis_test``, axis-decided ones
    included.
    """
    batches = []
    reference = cci.engine.axis_test

    def recorded(nets, tol=1e-12):
        batches.append(nets.copy())
        return reference(nets, tol)

    monkeypatch.setattr(cci.engine, "axis_test", recorded)
    return batches


def _clouds(batches):
    """Each net's coefficient cloud, as rows, over every batch."""
    return [net.reshape(-1, net.shape[-1]) for batch in batches for net in batch]


def test_certificate_agrees_with_gilbert_on_tangential_nets(monkeypatch):
    # Every net a solve hands to the hull test, down to depth 40 at an exact
    # tangential contact: the clouds touch or nearly touch the origin.
    batches = _record_hull_tested_batches(monkeypatch)
    rng = np.random.default_rng(61)
    for degree in (2, 3, 4):
        cci.solve(*_dyadic_tangential_pair(rng, degree))
    monkeypatch.undo()
    clouds = _clouds(batches)
    assert len(clouds) > 1000
    decisions = Counter(_check_cloud(points) for points in clouds)
    assert decisions[True, True] > 1000


# ---------------------------------------------------------------------------
# The GJK walk decides as Wolfe's corrals did (``wolfe_reference``) but for
# sharper passes near the margin, and its simplex step is exact up to rounding


def _walk_decisions(clouds, tol=1e-12):
    """Counter of (walk reached, decision) over the clouds, and the clouds on
    which the decision differs from that of Wolfe's corrals."""
    decisions, differing = Counter(), []
    for pts in clouds:
        pts = np.asarray(pts, dtype=float).reshape(-1, np.shape(pts)[-1])
        margin = tol * np.abs(pts).max()
        axis = (pts.min(axis=0) > margin).any() or (pts.max(axis=0) < -margin).any()
        passed = _cloud_test(pts, tol)
        decisions[not axis, passed] += 1
        if passed != wolfe_reference.decides(pts, tol):
            differing.append(pts)
    return decisions, differing


def _suite_batches(problems_dir, monkeypatch):
    """Every batch of nets the 8 suite problems hull-test at epsilon 0.05 and
    in fixed mode."""
    batches = _record_hull_tested_batches(monkeypatch)
    for path in sorted((problems_dir / "suite").glob("*.json")):
        problem = load_problem(path)
        for config in (cci.SolverConfig(epsilon=0.05), cci.SolverConfig(mode="fixed")):
            cci.solve(problem.curve1, problem.curve2, config)
    monkeypatch.undo()
    return batches


def test_decisions_match_wolfe_on_every_suite_hull_call(problems_dir, monkeypatch):
    decisions, differing = _walk_decisions(_clouds(_suite_batches(problems_dir, monkeypatch)))
    assert not differing
    # The walk both passes and fails many times.
    assert decisions[True, True] >= 50 and decisions[True, False] >= 50


def test_decisions_match_wolfe_on_seeded_clouds_but_for_sharper_passes():
    decisions, differing = _walk_decisions(_seeded_clouds(60, 3000))
    assert decisions[True, True] >= 300 and decisions[True, False] >= 1000
    # Near the margin the corrals' x was less accurate than the walk's: on
    # 11 of these clouds they met a repeated support row before x separated,
    # and failed. The walk passes those; the exact nearest point of each
    # lies 1.02 to 669 margins from the origin, so a pass is due.
    assert len(differing) <= 11
    for pts in differing:
        assert _cloud_test(pts)
        weights = _exact_nearest_point(pts)
        y = [sum(w * Fraction(pts[i, c]) for i, w in weights.items()) for c in range(pts.shape[1])]
        assert sum(c * c for c in y) > Fraction(1e-12 * np.abs(pts).max()) ** 2


def _seeded_simplices(seed, count):
    """(points, affinely dependent) for segments, triangles and tetrahedra
    in 2D (padded to 3D) and 3D: in general position, or with collinear,
    coplanar or repeated points. Their offsets put the origin inside some."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        d, size, kind = 2 + k % 2, 2 + (k // 2) % 3, (k // 6) % 4
        pts = rng.normal(size=(size, d)) + rng.uniform(0.0, 1.0) * rng.normal(size=d)
        if kind == 1 and size >= 3:
            pts[2:] = pts[0] + rng.normal(size=(size - 2, 1)) * (pts[1] - pts[0])
        elif kind == 2 and size == 4:
            s, t = rng.normal(size=2)
            pts[3] = pts[0] + s * (pts[1] - pts[0]) + t * (pts[2] - pts[0])
        elif kind == 3:
            pts[-1] = pts[int(rng.integers(size - 1))]
        dependent = (kind == 1 and size >= 3) or (kind == 2 and size == 4) or kind == 3
        yield [(*p, *(0.0,) * (3 - d)) for p in pts.tolist()], dependent or size > d + 1


# Simplices whose nearest point gives some point a weight of exactly 0.
BOUNDARY_SIMPLICES = [
    [(1.0, 0.0, 0.0), (1.0, 1.0, 0.0)],
    [(-1.0, 0.0, 1.0), (1.0, 0.0, 1.0), (0.0, 1.0, 1.0)],
    [(-1.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)],
]


def test_nearest_face_matches_the_exact_nearest_point():
    outcomes = Counter()
    for simplex, dependent in [
        *_seeded_simplices(62, 2400),
        *((simplex, False) for simplex in BOUNDARY_SIMPLICES),
    ]:
        nearest = exclusion._nearest_face(simplex)
        if nearest is None:
            assert dependent  # only a degenerate face ends the step
            outcomes["degenerate"] += 1
            continue
        y, face = nearest
        weights = _exact_nearest_point(simplex)
        exact = [sum(w * Fraction(simplex[i][c]) for i, w in weights.items()) for c in range(3)]
        scale = max(abs(c) for p in simplex for c in p)
        assert max(abs(Fraction(a) - b) for a, b in zip(y, exact)) <= 1e-13 * scale
        # The smallest face holding the nearest point: its exact support.
        assert set(face) == {simplex[i] for i in weights}
        outcomes[len(face)] += 1
    assert outcomes["degenerate"] >= 400
    assert all(outcomes[size] >= 50 for size in (1, 2, 3)) and outcomes[4] >= 5


def _near_degenerate_simplices(seed, count):
    """Segments, triangles and tetrahedra of 1 to 4 random points, half of
    them made nearly degenerate: a repeated point, or a last point off the
    others' line or plane by a relative 1e-4 to 1e-8, about where
    ``_DEGENERATE`` starts to fail the face."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        size = 1 + k % 4
        pts = rng.normal(size=(size, 3)) * 10.0 ** rng.uniform(-3, 3) + rng.normal(size=3)
        if k % 8 >= 4 and size >= 2:
            base = pts[0]
            if size > 2:  # a point of the others' line (triangle) or plane (tetrahedron)
                base = base + rng.normal(size=size - 2) @ (pts[1:-1] - pts[0])
            off = 10.0 ** rng.uniform(-8, -4) * np.abs(pts).max() * rng.normal(size=3)
            pts[-1] = base + (0.0 if k % 16 >= 12 else off)
        yield [tuple(p) for p in pts.tolist()]


def test_inlined_nearest_face_is_the_helper_based_one_bit_for_bit():
    # ``_nearest_face`` writes its vector algebra out inline, in the order of
    # the helpers it replaced; every result, None included, must be the same.
    seen = Counter()
    simplices = [s for s, _ in _seeded_simplices(64, 1200)] + BOUNDARY_SIMPLICES
    for simplex in [*simplices, *_near_degenerate_simplices(65, 4000)]:
        found = exclusion._nearest_face(simplex)
        expected = nearest_face_reference.nearest_face(simplex)
        if expected is None:
            assert found is None
            seen["degenerate"] += 1
            continue
        (y, face), (y_ref, face_ref) = found, expected
        assert [x.hex() for x in y] == [x.hex() for x in y_ref] and face == face_ref
        seen[len(simplex), len(face)] += 1
    assert seen["degenerate"] >= 200
    assert all(seen[size, size] >= 20 for size in (1, 2, 3, 4)), seen
    assert all(seen[size, 1] + seen[size, 2] >= 20 for size in (3, 4)), seen


def test_nets_of_more_than_three_dimensions_take_the_axis_test_alone(monkeypatch):
    def unreachable(pts, margin, start):
        raise AssertionError("the walk runs in at most three dimensions")

    monkeypatch.setattr(exclusion, "_separating_direction", unreachable)
    rng = np.random.default_rng(63)
    coeffs = rng.normal(size=(3, 3, 4))
    coeffs[:, :, 3] = np.abs(coeffs[:, :, 3]) + 0.1
    assert exclusion_test(ControlNet(coeffs))
    # Every coordinate takes both signs, so no axis separates, but every
    # coefficient's coordinates sum to 1: an oblique plane would. It fails.
    oblique = [[2.0, -1.0, 0.0, 0.0], [-1.0, 2.0, 0.0, 0.0], [0.0, 0.0, 2.0, -1.0], [0.0, 0.0, -1.0, 2.0]]
    assert not _cloud_test(oblique)


# ---------------------------------------------------------------------------
# The axis test over a stack of nets decides, and sets each margin, bit for
# bit as it did one net at a time, and hands each walk its start row


def _single_axis_test(pts, tol=1e-12):
    """The axis stage on one cloud's rows, as ``exclusion_test`` ran it
    before the solver batched it: (decision, margin)."""
    margin = tol * np.abs(pts).max()
    return bool((pts.min(axis=0) > margin).any() or (pts.max(axis=0) < -margin).any()), margin


def _check_axis_batch(batch, tol=1e-12):
    """``axis_test`` on the stack equals the single-net stage on each net, in
    decision and in every bit of the margin, and each start row is the net's
    first row of least ``einsum`` norm, so walks start where the walk's own
    ``einsum`` would. Returns the decisions."""
    passed, margins, starts = exclusion.axis_test(batch, tol)
    assert passed.shape == margins.shape == starts.shape == (len(batch),)
    decisions = []
    for net, got, margin, start in zip(batch, passed.tolist(), margins.tolist(), starts.tolist()):
        pts = net.reshape(-1, net.shape[-1])
        expected, expected_margin = _single_axis_test(pts, tol)
        assert got == expected
        assert margin.hex() == float(expected_margin).hex()
        assert start == int(np.einsum("ij,ij->i", pts, pts).argmin())
        decisions.append(got)
    return decisions


_AT = 2.0**-40  # the margin of a cloud whose largest magnitude is 1, at tol 2^-40
# name: (axis decision, points), every margin computed at tol 2^-40
AXIS_CLOUDS = {
    "all zero": (False, [[0.0, 0.0, 0.0]] * 4),
    "signed zeros": (False, [[-0.0, 0.0, -0.0], [0.0, -0.0, -0.0], [-0.0, -0.0, -0.0]]),
    "signed zeros beside a positive column": (True, [[-0.0, 1.0, 0.0], [0.0, 0.5, -0.0], [-0.0, 0.25, -0.0]]),
    "a single coefficient": (True, [[0.3, -0.2, 0.1]]),
    "a single coefficient at the origin": (False, [[0.0, -0.0, 0.0]]),
    "exactly at +margin": (False, [[1.0, _AT, 0.0], [-1.0, _AT, 0.5], [0.5, 0.25, -0.5]]),
    "just above +margin": (
        True,
        [[1.0, np.nextafter(_AT, 1.0), 0.0], [-1.0, _AT * 2, 0.5], [0.5, 0.25, -0.5]],
    ),
    "exactly at -margin": (False, [[1.0, -_AT, 0.0], [-1.0, -_AT, 0.5], [0.5, -0.25, -0.5]]),
    "just below -margin": (
        True,
        [[1.0, np.nextafter(-_AT, -1.0), 0.0], [-1.0, -_AT * 2, 0.5], [0.5, -0.25, -0.5]],
    ),
    "dim 4, no axis": (
        False,
        [[2.0, -1.0, 0.0, 0.0], [-1.0, 2.0, 0.0, 0.0], [0.0, 0.0, 2.0, -1.0], [0.0, 0.0, -1.0, 2.0]],
    ),
    "two rows of least norm, the first wins": (
        False,
        [[1.0, -1.0, 1.0], [0.5, -0.25, 0.0], [-0.25, 0.0, 0.5], [0.0, 1.0, -1.0]],
    ),
    # Summed as einsum sums, (x0^2 + x2^2) + x1^2, the second row is least
    # by one rounding; summed left to right, the first is.
    "least norm in einsum's order of sums": (
        False,
        [[0.66, 0.99, 0.294], [0.66, 0.294, 0.99], [-1.0, -1.0, -1.0]],
    ),
    "dim 4, a positive column": (
        True,
        [[2.0, -1.0, 0.0, 0.5], [-1.0, 2.0, 0.0, 0.5], [0.0, 0.0, 2.0, 1.0], [0.0, 0.0, -1.0, 2.0]],
    ),
}


@pytest.mark.parametrize("name", sorted(AXIS_CLOUDS))
def test_axis_test_of_a_stack_matches_the_single_net_stage_on_edge_clouds(name):
    decision, points = AXIS_CLOUDS[name]
    cloud = np.array(points, dtype=float)
    rng = np.random.default_rng(64)
    for count, position in ((1, 0), (5, 0), (5, 2), (9, 8)):
        batch = rng.normal(size=(count, *cloud.shape))
        batch[position] = cloud
        assert _check_axis_batch(batch, _AT)[position] == decision
        # The batch kept the signs of its zeros.
        assert np.array_equal(np.signbit(batch[position]), np.signbit(cloud))
    # The whole hull test passes what the axis test passes, and in four
    # dimensions, where the walk does not run, the axis test alone decides.
    if decision or cloud.shape[1] > 3:
        assert _cloud_test(cloud, _AT) == decision


def test_axis_test_of_a_stack_matches_the_single_net_stage_on_every_suite_net(
    problems_dir, monkeypatch
):
    batches = _suite_batches(problems_dir, monkeypatch)
    decisions = Counter()
    for batch in batches:
        decisions.update(_check_axis_batch(batch))
    # Batches of one and of many nets; both decisions, many times.
    assert min(map(len, batches)) == 1 and max(map(len, batches)) >= 16
    assert decisions[True] >= 150 and decisions[False] >= 150
