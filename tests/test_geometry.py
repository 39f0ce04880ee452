"""Bernstein kernel tests, cross-checked against monomial-basis oracles."""

import math

import numpy as np
import pytest

from cci.geometry import (
    BezierCurve,
    ControlNet,
    Rect,
    UNIT_SQUARE,
    bernstein_basis,
    derivative_curve,
    derivative_net,
    difference_net,
    eval_curve,
    eval_net,
    extract_pair,
    jacobian,
    jet,
    reparametrize,
    sample_curve,
    sample_net,
)
from conftest import monomial_eval_curve, monomial_eval_net, random_net_coeffs


# ---------------------------------------------------------------------------
# Basis polynomials

def test_bernstein_basis_values():
    assert bernstein_basis(0, 0, 0.7) == 1.0
    assert bernstein_basis(1, 2, 0.5) == pytest.approx(0.5, abs=1e-15)
    # hand evaluation: 3 * 0.6 * 0.4^2
    assert bernstein_basis(2, 3, 0.4) == pytest.approx(0.288, abs=1e-15)


def test_bernstein_basis_bad_index():
    with pytest.raises(ValueError):
        bernstein_basis(3, 2, 0.5)
    with pytest.raises(ValueError):
        bernstein_basis(-1, 2, 0.5)


def test_partition_of_unity():
    rng = np.random.default_rng(1)
    for m in range(21):
        for t in rng.uniform(0, 1, 100):
            total = sum(bernstein_basis(i, m, t) for i in range(m + 1))
            assert abs(total - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# Curves

def test_eval_curve_segment_midpoint():
    c = BezierCurve([[0, 0, 0], [1, 1, 0]])
    assert np.allclose(eval_curve(c, 0.5), [0.5, 0.5, 0.0], atol=0)


def test_eval_curve_endpoints_interpolate():
    rng = np.random.default_rng(2)
    c = BezierCurve(rng.normal(size=(6, 3)))
    assert np.array_equal(eval_curve(c, 0.0), c.control_points[0])
    assert np.array_equal(eval_curve(c, 1.0), c.control_points[-1])


def test_eval_curve_matches_monomial_oracle():
    rng = np.random.default_rng(3)
    c = BezierCurve(rng.uniform(-1, 1, (8, 3)))
    for t in [0.3] + list(rng.uniform(0, 1, 20)):
        assert np.abs(eval_curve(c, t) - monomial_eval_curve(c.control_points, t)).max() <= 1e-12


def test_sample_curve_matches_pointwise():
    rng = np.random.default_rng(4)
    c = BezierCurve(rng.normal(size=(7, 3)))
    ts = rng.uniform(0, 1, 17)
    pts = sample_curve(c, ts)
    for t, p in zip(ts, pts):
        assert np.abs(p - eval_curve(c, t)).max() <= 1e-13


def test_derivative_curve_finite_difference():
    rng = np.random.default_rng(5)
    c = BezierCurve(rng.normal(size=(6, 3)))
    d = derivative_curve(c)
    h = 1e-6
    for t in rng.uniform(0.1, 0.9, 20):
        fd = (eval_curve(c, t + h) - eval_curve(c, t - h)) / (2 * h)
        assert np.abs(eval_curve(d, t) - fd).max() <= 1e-6


def test_curve_validation():
    with pytest.raises(ValueError):
        BezierCurve(np.zeros((3, 2)))
    with pytest.raises(ValueError):
        BezierCurve([[0.0, np.nan, 0.0]])


# ---------------------------------------------------------------------------
# Difference nets and net evaluation

def test_difference_net_single_points():
    c = BezierCurve([[1.0, 2.0, 3.0]])
    net = difference_net(c, c)
    assert net.coeffs.shape == (1, 1, 3)
    assert np.array_equal(net.coeffs[0, 0], [0, 0, 0])


def test_difference_net_segments():
    c1 = BezierCurve([[0, 0, 0], [1, 1, 0]])
    c2 = BezierCurve([[1, 0, 0], [0, 1, 0]])
    net = difference_net(c1, c2)
    expected = np.array(
        [[[-1, 0, 0], [0, -1, 0]], [[0, 1, 0], [1, 0, 0]]], dtype=float
    )
    assert np.array_equal(net.coeffs, expected)


def test_difference_net_eval_consistency():
    rng = np.random.default_rng(6)
    c1 = BezierCurve(rng.uniform(-1, 1, (5, 3)))
    c2 = BezierCurve(rng.uniform(-1, 1, (7, 3)))
    net = difference_net(c1, c2)
    for u, v in rng.uniform(0, 1, (100, 2)):
        lhs = eval_net(net, u, v)
        rhs = eval_curve(c1, u) - eval_curve(c2, v)
        assert np.abs(lhs - rhs).max() <= 1e-12


def test_eval_net_corner_and_constant():
    rng = np.random.default_rng(7)
    net = ControlNet(random_net_coeffs(rng, 4, 3))
    assert np.array_equal(eval_net(net, 0.0, 0.0), net.coeffs[0, 0])

    const = ControlNet(np.tile(np.array([1.5, -2.0, 0.25]), (4, 5, 1)))
    for u, v in rng.uniform(0, 1, (10, 2)):
        assert np.abs(eval_net(const, u, v) - [1.5, -2.0, 0.25]).max() <= 1e-13


def test_eval_net_matches_monomial_oracle():
    rng = np.random.default_rng(8)
    net = ControlNet(random_net_coeffs(rng, 3, 3))
    for u, v in [(0.25, 0.75)] + list(rng.uniform(0, 1, (30, 2))):
        assert np.abs(eval_net(net, u, v) - monomial_eval_net(net.coeffs, u, v)).max() <= 1e-12


def test_sample_net_matches_eval_net():
    rng = np.random.default_rng(9)
    net = ControlNet(random_net_coeffs(rng, 5, 4))
    us = rng.uniform(0, 1, 6)
    vs = rng.uniform(0, 1, 5)
    grid = sample_net(net, us, vs)
    for i, u in enumerate(us):
        for j, v in enumerate(vs):
            assert np.abs(grid[i, j] - eval_net(net, u, v)).max() <= 1e-12


def test_convex_hull_containment_sampled():
    rng = np.random.default_rng(10)
    for _ in range(20):
        net = ControlNet(random_net_coeffs(rng, 4, 4))
        lo = net.coeffs.reshape(-1, 3).min(axis=0)
        hi = net.coeffs.reshape(-1, 3).max(axis=0)
        for u, v in rng.uniform(0, 1, (25, 2)):
            val = eval_net(net, u, v)
            assert (val >= lo - 1e-12).all() and (val <= hi + 1e-12).all()


# ---------------------------------------------------------------------------
# Derivatives and Jacobians

def test_derivative_net_linear_slope():
    p = np.array([0.5, 1.0, -2.0])
    q = np.array([2.5, 0.0, 1.0])
    net = ControlNet(np.stack([p, q])[:, None, :])
    d = derivative_net(net, "u")
    assert d.coeffs.shape == (1, 1, 3)
    assert np.allclose(d.coeffs[0, 0], q - p, atol=0)


def test_derivative_net_constant_is_zero():
    net = ControlNet(np.tile(np.array([3.0, 1.0, 2.0]), (3, 3, 1)))
    for axis in ("u", "v"):
        d = derivative_net(net, axis)
        assert np.abs(d.coeffs).max() == 0.0


def test_derivative_net_degree_zero_axis():
    net = ControlNet(np.ones((1, 4, 3)))
    d = derivative_net(net, "u")
    assert d.coeffs.shape == (1, 4, 3)
    assert np.abs(d.coeffs).max() == 0.0


def test_derivative_net_finite_difference():
    rng = np.random.default_rng(11)
    net = ControlNet(random_net_coeffs(rng, 4, 5))
    du = derivative_net(net, "u")
    dv = derivative_net(net, "v")
    h = 1e-6
    for u, v in rng.uniform(0.05, 0.95, (50, 2)):
        fd_u = (eval_net(net, u + h, v) - eval_net(net, u - h, v)) / (2 * h)
        fd_v = (eval_net(net, u, v + h) - eval_net(net, u, v - h)) / (2 * h)
        assert np.abs(eval_net(du, u, v) - fd_u).max() <= 1e-6
        assert np.abs(eval_net(dv, u, v) - fd_v).max() <= 1e-6


def test_jacobian_affine_is_constant():
    b = np.array([0.1, 0.2, 0.3])
    g = np.array([1.0, -2.0, 0.5])
    hvec = np.array([0.25, 1.5, -1.0])
    m, n = 3, 2
    coeffs = np.empty((m + 1, n + 1, 3))
    for i in range(m + 1):
        for j in range(n + 1):
            coeffs[i, j] = b + (i / m) * g + (j / n) * hvec
    net = ControlNet(coeffs)
    rng = np.random.default_rng(12)
    for u, v in rng.uniform(0, 1, (10, 2)):
        jac = jacobian(net, (u, v))
        assert np.abs(jac[:, 0] - g).max() <= 1e-12
        assert np.abs(jac[:, 1] - hvec).max() <= 1e-12


def test_jacobian_zero_net():
    net = ControlNet(np.zeros((3, 3, 3)))
    assert np.abs(jacobian(net, (0.3, 0.7))).max() == 0.0


def test_jacobian_finite_difference_relative():
    rng = np.random.default_rng(13)
    for m, n in [(3, 3), (6, 4), (10, 10)]:
        net = ControlNet(random_net_coeffs(rng, m, n))
        h = 1e-6
        for u, v in rng.uniform(0.05, 0.95, (10, 2)):
            jac = jacobian(net, (u, v))
            fd = np.stack(
                [
                    (eval_net(net, u + h, v) - eval_net(net, u - h, v)) / (2 * h),
                    (eval_net(net, u, v + h) - eval_net(net, u, v - h)) / (2 * h),
                ],
                axis=1,
            )
            scale = max(1.0, np.abs(jac).max())
            assert np.abs(jac - fd).max() / scale <= 1e-6


def test_jet_matches_de_casteljau():
    rng = np.random.default_rng(13)
    for m, n in [(0, 0), (1, 0), (0, 2), (3, 5), (9, 9), (16, 12)]:
        net = ControlNet(random_net_coeffs(rng, m, n))
        du = derivative_net(net, "u")
        dv = derivative_net(net, "v")
        for x in [(0.5, 0.5), (0.0, 1.0), tuple(rng.uniform(0, 1, 2))]:
            value, jac = jet(net, x)
            assert np.abs(value - eval_net(net, *x)).max() <= 1e-14
            expected = np.stack([eval_net(du, *x), eval_net(dv, *x)], axis=1)
            assert np.abs(jac - expected).max() <= 1e-13 * max(1, m, n)


# ---------------------------------------------------------------------------
# Reparametrization

def test_reparametrize_identity():
    rng = np.random.default_rng(14)
    net = ControlNet(random_net_coeffs(rng, 5, 5))
    out = reparametrize(net, UNIT_SQUARE)
    assert np.array_equal(out.coeffs, net.coeffs)


def test_reparametrize_eval_consistency():
    rng = np.random.default_rng(15)
    net = ControlNet(random_net_coeffs(rng, 8, 8))
    target = Rect(0.25, 0.5, 0.5, 0.75)
    out = reparametrize(net, target)
    for s, t in rng.uniform(0, 1, (100, 2)):
        u, v = target.map_from_unit(s, t)
        assert np.abs(eval_net(out, s, t) - eval_net(net, u, v)).max() <= 1e-10


def test_reparametrize_outside_unit_square():
    rng = np.random.default_rng(16)
    net = ControlNet(random_net_coeffs(rng, 5, 6))
    target = Rect(-0.25, 1.25, -0.25, 1.25)
    out = reparametrize(net, target)
    for s, t in rng.uniform(0, 1, (50, 2)):
        u, v = target.map_from_unit(s, t)
        assert np.abs(eval_net(out, s, t) - eval_net(net, u, v)).max() <= 1e-10


def test_reparametrize_affine_corner_interpolation():
    b = np.array([1.0, 0.0, -1.0])
    g = np.array([2.0, 1.0, 0.0])
    hvec = np.array([0.0, -1.0, 3.0])
    coeffs = np.empty((2, 2, 3))
    for i in range(2):
        for j in range(2):
            coeffs[i, j] = b + i * g + j * hvec
    net = ControlNet(coeffs)
    target = Rect(0.2, 0.7, -0.1, 0.9)
    out = reparametrize(net, target)
    for (s, t), (i, j) in [((0, 0), (0, 0)), ((1, 0), (1, 0)), ((0, 1), (0, 1)), ((1, 1), (1, 1))]:
        u, v = target.map_from_unit(s, t)
        assert np.abs(out.coeffs[i, j] - eval_net(net, u, v)).max() <= 1e-12


def test_reparametrize_composition():
    rng = np.random.default_rng(17)
    net = ControlNet(random_net_coeffs(rng, 6, 6))
    r1 = Rect(0.1, 0.8, 0.2, 0.9)
    r2 = Rect(0.25, 0.75, 0.4, 0.6)
    nested = reparametrize(reparametrize(net, r1), r2)
    lo_u, lo_v = r1.map_from_unit(r2.lo_u, r2.lo_v)
    hi_u, hi_v = r1.map_from_unit(r2.hi_u, r2.hi_v)
    direct = reparametrize(net, Rect(lo_u, hi_u, lo_v, hi_v))
    for s, t in rng.uniform(0, 1, (50, 2)):
        assert np.abs(eval_net(nested, s, t) - eval_net(direct, s, t)).max() <= 1e-10


def test_carried_nets_match_direct_restriction():
    # Nets carried down 40 quarterings agree with restricting the root net
    # over the same square, to well inside the exclusion test's 1e-12 margin.
    rng = np.random.default_rng(19)
    quarters = [Rect(a, a + 0.5, b, b + 0.5) for b in (0.0, 0.5) for a in (0.0, 0.5)]
    for _ in range(24):
        m, n = rng.integers(0, 17, 2)
        root = ControlNet(random_net_coeffs(rng, m, n))
        carried = root
        lo_u = lo_v = 0.0
        width = 1.0
        for k in rng.integers(0, 4, 40):
            quarter = quarters[k]
            carried = reparametrize(carried, quarter)
            width *= 0.5
            lo_u += quarter.lo_u * 2.0 * width
            lo_v += quarter.lo_v * 2.0 * width
            direct = reparametrize(root, Rect(lo_u, lo_u + width, lo_v, lo_v + width))
            drift = np.abs(carried.coeffs - direct.coeffs).max()
            assert drift <= 1e-13 * np.abs(direct.coeffs).max()


def test_derivative_commutes_with_reparametrize():
    rng = np.random.default_rng(18)
    net = ControlNet(random_net_coeffs(rng, 5, 5))
    target = Rect(0.3, 0.55, 0.6, 0.95)
    out = reparametrize(net, target)
    # chain rule: d/ds of the restriction is width_u times the restricted du
    lhs = derivative_net(out, "u")
    rhs = reparametrize(derivative_net(net, "u"), target)
    for s, t in rng.uniform(0, 1, (30, 2)):
        a = eval_net(lhs, s, t)
        b = target.width_u * eval_net(rhs, s, t)
        assert np.abs(a - b).max() <= 1e-10


def test_rect_validation():
    with pytest.raises(ValueError):
        Rect(0.5, 0.5, 0.0, 1.0)
    with pytest.raises(ValueError):
        Rect(0.0, 1.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        Rect.ball((0.5, 0.5), 0.0)


# ---------------------------------------------------------------------------
# Component pairs

def test_extract_pair_selects_coordinates():
    rng = np.random.default_rng(19)
    net = ControlNet(random_net_coeffs(rng, 3, 4))
    sub = extract_pair(net, (0, 1))
    assert np.array_equal(sub.coeffs, net.coeffs[:, :, [0, 1]])


def test_extract_pair_eval_consistency():
    rng = np.random.default_rng(20)
    net = ControlNet(random_net_coeffs(rng, 4, 4))
    for pair in [(0, 1), (0, 2), (1, 2)]:
        sub = extract_pair(net, pair)
        for u, v in rng.uniform(0, 1, (10, 2)):
            full = eval_net(net, u, v)
            assert np.abs(eval_net(sub, u, v) - full[list(pair)]).max() <= 1e-13


def test_extract_pair_covers_all_coordinates():
    covered = sorted(set((0, 1)) | set((0, 2)) | set((1, 2)))
    assert covered == [0, 1, 2]


def test_extract_pair_invalid():
    net = ControlNet(np.zeros((2, 2, 3)))
    for pair in [(0, 0), (0, 3), (-1, 1)]:
        with pytest.raises(ValueError):
            extract_pair(net, pair)
