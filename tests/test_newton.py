"""Newton refinement on 2-component sub-systems."""

import numpy as np
import pytest

from cci.geometry import ControlNet, _center_weights, center_jet, eval_net, jet_table
from cci.kantorovich import inverse_2x2
from cci.newton import newton_solve
from conftest import newton_path, random_net_coeffs


def _affine_pair_net(b, gu, gv):
    coeffs = np.empty((2, 2, 2))
    for i in range(2):
        for j in range(2):
            coeffs[i, j] = b + i * gu + j * gv
    return ControlNet(coeffs)


def _parabola_line_net():
    # f(u, v) = (u^2 - 0.25, v - 0.5): u^2 has Bernstein coefficients (0, 0, 1)
    f1 = np.array([-0.25, -0.25, 0.75])
    f2 = np.array([-0.5, 0.5])
    coeffs = np.empty((3, 2, 2))
    for i in range(3):
        for j in range(2):
            coeffs[i, j] = (f1[i], f2[j])
    return ControlNet(coeffs)


def test_affine_system_converges_in_one_step():
    net = _affine_pair_net(
        np.array([-0.75, 0.25]), np.array([1.0, 0.0]), np.array([0.0, -1.0])
    )
    # zero of (u - 0.75, -v + 0.25) is (0.75, 0.25)
    result = newton_solve(net, (0.1, 0.9))
    assert result.converged
    assert result.root == pytest.approx((0.75, 0.25), abs=1e-15)
    assert result.iterations <= 2  # exact step, then a zero step to confirm


def test_start_at_zero_stops_immediately():
    net = _parabola_line_net()
    result = newton_solve(net, (0.5, 0.5))
    assert result.converged
    assert result.iterations <= 1
    # f is exactly zero at the start, so the one step J^-1 f is exactly zero
    assert not jet_table(net, (0.5, 0.5))[0, 0].any()
    assert result.root == (0.5, 0.5)


def test_scalar_newton_sequence():
    # u iterates follow u <- (u^2 + 0.25) / (2u) from 1; v lands in one step
    net = _parabola_line_net()
    result = newton_solve(net, (1.0, 0.0), tol=1e-7)
    path = newton_path(net, (1.0, 0.0), tol=1e-7)
    assert result.converged
    assert path[-1] == result.root
    expected_u = [1.0]
    while len(expected_u) < len(path):
        u = expected_u[-1]
        expected_u.append((u * u + 0.25) / (2.0 * u))
    for (u, v), eu in zip(path, expected_u):
        assert u == pytest.approx(eu, abs=1e-14)
    assert path[1][1] == pytest.approx(0.5, abs=1e-15)
    assert result.root == pytest.approx((0.5, 0.5), abs=1e-7)
    assert [round(u, 6) for u, _ in path[:4]] == [1.0, 0.625, 0.5125, 0.500152]


def test_singular_jacobian_reported():
    # f = (u^2 - 0.25, v^2 - 0.25) has a singular Jacobian at the origin
    f1 = np.array([-0.25, -0.25, 0.75])
    coeffs = np.empty((3, 3, 2))
    for i in range(3):
        for j in range(3):
            coeffs[i, j] = (f1[i], f1[j])
    result = newton_solve(ControlNet(coeffs), (0.0, 0.0))
    assert not result.converged
    assert "singular" in result.failure_reason


def test_max_iter_reported():
    net = _parabola_line_net()
    result = newton_solve(net, (1.0, 0.0), tol=1e-12, max_iter=2)
    assert not result.converged
    assert result.iterations == 2
    assert "max_iter" in result.failure_reason


def test_quadratic_convergence_near_root():
    rng = np.random.default_rng(60)
    seen = 0
    while seen < 10:
        coeffs = random_net_coeffs(rng, 3, 3, d=2)
        net = ControlNet(coeffs)
        z = tuple(rng.uniform(0.3, 0.7, 2))
        net = ControlNet(coeffs - eval_net(net, *z))
        x0 = (z[0] + 0.02, z[1] - 0.02)
        result = newton_solve(net, x0, tol=1e-13, max_iter=40)
        path = newton_path(net, x0, tol=1e-13, max_iter=40)
        if not result.converged or len(path) < 4:
            continue
        steps = [
            max(abs(a[0] - b[0]), abs(a[1] - b[1]))
            for a, b in zip(path, path[1:])
        ]
        # quadratic tail: each late step is at most C times the previous squared
        tail = [s for s in steps[-4:] if s > 0]
        for s_prev, s_next in zip(tail, tail[1:]):
            assert s_next <= 100.0 * s_prev * s_prev + 1e-15
        seen += 1


def test_newton_iterates_leave_the_center_weights_cached():
    # Every convergence test reuses the Bernstein weights at t = 1/2; Newton's
    # iterates build their weights afresh, so a long run cannot evict them.
    net = _parabola_line_net()
    _center_weights.cache_clear()
    center_jet(net)
    before = _center_weights.cache_info()
    result = newton_solve(net, (0.9, 0.1))
    assert result.converged and result.iterations > 3
    after = _center_weights.cache_info()
    assert (after.currsize, after.misses) == (before.currsize, before.misses)


def test_newton_step_is_float_arithmetic_on_the_inverse_entries():
    # The step J^-1 f is summed in Python floats, as the convergence test
    # sums eta. numpy's 2x2 product rounds apart from that on some BLAS
    # kernels, so the iterates' last bits would depend on the kernel. Newton
    # reads f and J as floats from ``jet_table``: f must be ``eval_net``'s
    # bit for bit, so one evaluator stands behind Newton and the residual.
    rng = np.random.default_rng(61)
    steps = 0
    for _ in range(30):
        net = ControlNet(random_net_coeffs(rng, 3, 3, d=2))
        path = newton_path(net, tuple(rng.uniform(0.2, 0.8, 2)), max_iter=6)
        for (u, v), x in zip(path, path[1:]):
            table = jet_table(net, (u, v))
            value, jac = eval_net(net, u, v), table[(1, 0), (0, 1)].T
            ((f0, f1), (fv0, fv1)), ((fu0, fu1), _) = table.tolist()
            assert [f.hex() for f in (f0, f1)] == [f.hex() for f in value.tolist()]
            assert [f.hex() for f in (fu0, fv0, fu1, fv1)] == [f.hex() for f in jac.ravel().tolist()]
            a, b, c, d = inverse_2x2(fu0, fv0, fu1, fv1)
            assert x == (u - (a * f0 + b * f1), v - (c * f0 + d * f1))
            steps += 1
    assert steps >= 100
