"""Bernstein kernel tests, cross-checked against monomial-basis oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest

from cci.geometry import (
    _center_weights,
    _contract,
    _jet_weights,
    _restriction_matrix,
    _split_pair,
    BezierCurve,
    ControlNet,
    QUARTERS,
    Rect,
    center_jet,
    derivative_curve,
    derivative_coeffs,
    difference_net,
    elevate,
    eval_curve,
    eval_net,
    jet_table,
    reparametrize,
    restrict_quarters,
    sample_curve,
)
from conftest import monomial_eval_curve, monomial_eval_net, random_net_coeffs


# ---------------------------------------------------------------------------
# Basis polynomials

def _curve_weights(m, ts):
    """The degree-m basis at each of ``ts`` as ``sample_curve`` applies it,
    shape (len(ts), m + 1): sampling a curve whose control points are 1 in
    one column and 0 elsewhere picks weights out exactly, three at a time."""
    weights = np.empty((len(ts), m + 1))
    for lo in range(0, m + 1, 3):
        pts = np.zeros((m + 1, 3))
        hi = min(lo + 3, m + 1)
        pts[lo:hi, : hi - lo] = np.eye(hi - lo)
        weights[:, lo:hi] = sample_curve(BezierCurve(pts), ts)[:, : hi - lo]
    return weights


def test_bernstein_basis_values():
    assert _jet_weights(0, 0.7, 0)[0, 0] == 1.0
    assert _jet_weights(2, 0.5, 0)[0, 1] == pytest.approx(0.5, abs=1e-15)
    # hand evaluation: 3 * 0.6 * 0.4^2
    assert _jet_weights(3, 0.4, 0)[0, 2] == pytest.approx(0.288, abs=1e-15)


def test_basis_matrix_matches_closed_form():
    # Exact at t = 1/2, where every weight is C(m, i) / 2^m; within 4 ulp of
    # the closed form C(m, i) (1 - t)^(m - i) t^i elsewhere.
    ts = np.array([0.5, 0.0, 1.0, 0.1, 1 / 3, 0.7, 0.999, -0.25, 1.5])
    for m in range(17):
        weights = _curve_weights(m, ts)
        assert weights.shape == (len(ts), m + 1)
        for i in range(m + 1):
            assert weights[0, i] == math.comb(m, i) / 2**m
            for row, t in zip(weights[1:], ts[1:]):
                closed = math.comb(m, i) * (1.0 - float(t)) ** (m - i) * float(t) ** i
                assert abs(row[i] - closed) <= 4 * math.ulp(closed)


def test_partition_of_unity():
    rng = np.random.default_rng(1)
    for m in range(21):
        for t in rng.uniform(0, 1, 100):
            total = sum(_jet_weights(m, t, 0)[0])
            assert abs(total - 1.0) <= 1e-12


def _closed_form_jet_weights(m, t):
    """The degree-m basis at t and its derivative, each entry evaluated
    elementwise in closed form, as ``_jet_weights(m, t)`` must give them."""
    comb = np.vectorize(math.comb, otypes=[float])
    i = np.arange(m + 1)
    expected = np.zeros((2, m + 1))
    expected[0] = comb(m, i) * (1.0 - t) ** (m - i) * t**i
    if m:
        lower = m * (comb(m - 1, i[:m]) * (1.0 - t) ** (m - 1 - i[:m]) * t ** i[:m])
        expected[1, 1:] += lower
        expected[1, :-1] -= lower
    return expected


def _fresh_split(m, t, side):
    """The degree-m split at t in closed form, evaluated elementwise over
    arrays, as numpy's vector pow may round differently from scalar pow."""
    comb = np.vectorize(math.comb, otypes=[float])
    k, j = np.indices((m + 1, m + 1))
    if side == 0:
        return comb(k, j) * t**j * (1.0 - t) ** np.maximum(k - j, 0)
    binom = np.where(j >= k, comb(m - k, np.maximum(j - k, 0)), 0.0)
    return binom * t ** np.maximum(j - k, 0) * (1.0 - t) ** (m - j)


def _check_split_matrices(m, t, t_right=None):
    """Both degree-m split matrices, to [0, t] and to [t_right, 1] (t_right
    defaults to t), equal the closed form."""
    t_right = t if t_right is None else t_right
    left, right = _split_pair(m, t, t_right)
    assert np.array_equal(left, _fresh_split(m, t, 0)), (m, t)
    assert np.array_equal(right, _fresh_split(m, t_right, 1)), (m, t_right)


def test_split_matrices_are_the_closed_form_at_each_degree_bit_for_bit():
    # Each degree builds its pair of splits at its own degree, raising both
    # parameters in one np.power call: every entry must be the closed form,
    # in any order of degrees. Domains reach past [0, 1].
    rng = np.random.default_rng(19)
    ts = [0.3, 1.0 / 3.0, -0.25, 1.25, 0.1 + 2.0**-40, *rng.uniform(-2.0, 3.0, 10).tolist()]
    for t, t_right in zip(ts, reversed(ts)):
        for m in (40, *range(20, -1, -1), 33, 7):
            _check_split_matrices(m, t, t_right)
        for m in range(21):
            _check_split_matrices(m, t)
    # Far out, powers up to degree 15 stay finite and past it overflow,
    # without a warning.
    for t in (1e20, -1e20):
        for m in range(15, -1, -1):
            _check_split_matrices(m, t)
        assert np.isinf(_split_pair(16, t, t)[0, -1, -1])


def test_restriction_matrices_are_products_of_their_own_degree_splits_bit_for_bit():
    # Each restriction matrix must be the product of two fresh degree-m
    # splits, in the order the range picks, bit for bit. On [0, 1] both
    # splits are identities (0**0 is 1), so their product is the identity.
    rng = np.random.default_rng(21)
    ranges = [(0.0, 0.5), (0.5, 1.0), (0.3, 0.7), (-0.25, 1.25), (1.0, 1.5), (-0.5, 0.0),
              (0.0, 1.0), (0.1 + 2.0**-40, 0.2), *np.sort(rng.uniform(-1.0, 2.0, (8, 2))).tolist()]
    for a, b in ranges:
        _restriction_matrix.cache_clear()
        for m in (*range(21), 16, 31, 40, 7):
            if abs(1.0 - a) >= abs(b):
                expected = _fresh_split(m, (b - a) / (1.0 - a), 0) @ _fresh_split(m, a, 1)
            else:
                expected = _fresh_split(m, a / b, 1) @ _fresh_split(m, b, 0)
            assert np.array_equal(_restriction_matrix(m, a, b), expected), (a, b, m)
            if (a, b) == (0.0, 1.0):
                assert _restriction_matrix(m, a, b).tobytes() == np.eye(m + 1).tobytes(), m


def test_split_and_jet_weights_are_the_closed_form_bit_for_bit():
    # The tables gather powers of t and 1 - t from short vectors; every
    # entry must equal binom * t**j * (1 - t)**k evaluated elementwise over
    # arrays, as numpy's vector pow may round differently from scalar pow.
    comb = np.vectorize(math.comb, otypes=[float])
    ts = np.array([0.0, 0.3, 0.5, 1.0, -0.25, 1.25])
    rng = np.random.default_rng(24)
    for m in range(21):
        i = np.arange(m + 1)
        basis = comb(m, i) * (1.0 - ts[:, None]) ** (m - i) * ts[:, None] ** i
        # Curves read the same weights: row by row, and through the points
        # of a random curve, with eval_curve's (1, m + 1) product per row.
        assert np.array_equal(_curve_weights(m, ts), basis), m
        curve = BezierCurve(rng.normal(size=(m + 1, 3)))
        assert np.array_equal(sample_curve(curve, ts), basis @ curve.control_points), m
        for k, t in enumerate(ts.tolist()):
            expected = (basis[k : k + 1] @ curve.control_points)[0]
            assert eval_curve(curve, t).tobytes() == expected.tobytes(), (m, t)
        for t in ts.tolist():
            _check_split_matrices(m, t)
            assert np.array_equal(_jet_weights(m, t), _closed_form_jet_weights(m, t)), (m, t)
        # The second-derivative row at 1/2, in the weights every convergence
        # test caches: m (m - 1) (B_{i-2} - 2 B_{i-1} + B_i) of degree m - 2.
        expected = np.zeros((3, m + 1))
        expected[:2] = _jet_weights(m, 0.5)
        if m >= 2:
            lower = m * (m - 1) * (comb(m - 2, i[: m - 1]) * 0.5 ** (m - 2))
            expected[2, 2:] += lower
            expected[2, 1:-1] -= 2.0 * lower
            expected[2, :-2] += lower
        assert np.array_equal(_jet_weights(m, 0.5, 2), expected), m
        assert np.array_equal(_center_weights(m), expected), m
        assert not _center_weights(m).flags.writeable


def _exact_center_weights(m: int) -> list[list[Fraction]]:
    """``_center_weights(m)`` in exact arithmetic: row k is m!/(m-k)! times
    the degree-(m-k) basis at 1/2, differenced k times."""
    rows = []
    for k in range(3):
        if k > m:
            rows.append([Fraction(0)] * (m + 1))
            continue
        row = [Fraction(math.comb(m - k, i), 2 ** (m - k)) for i in range(m - k + 1)]
        for _ in range(k):
            padded = [Fraction(0), *row, Fraction(0)]
            row = [x - y for x, y in zip(padded[:-1], padded[1:])]
        rows.append([math.perm(m, k) * x for x in row])
    return rows


def test_weights_at_one_half_are_exact_below_the_degrees_the_floor_proof_names():
    # omega's lower bound takes the center weights as exact below degree 50
    # and the quarter splits' as exact below 57; from there on they round,
    # and the bound's allowance covers it (``kantorovich._omega_floor``).
    for m in range(61):
        center = [[Fraction(w) for w in row] for row in _center_weights(m).tolist()]
        assert (center == _exact_center_weights(m)) == (m < 50), m
        left, right = _restriction_matrix(m, 0.0, 0.5), _restriction_matrix(m, 0.5, 1.0)
        exact = all(
            Fraction(left[k, j]) == Fraction(math.comb(k, j), 2**k)
            and Fraction(right[m - k, m - j]) == Fraction(math.comb(k, j), 2**k)
            for k in range(m + 1) for j in range(k + 1)
        )
        assert exact == (m < 57), m


def test_jet_is_the_closed_form_contraction_bit_for_bit():
    # ``jet_table`` gathers both axes' weights in one pass. Its entries must
    # be the net contracted with each axis's closed-form weights, bit for bit
    # (signed zeros included), inside [0, 1] and outside it.
    rng = np.random.default_rng(23)
    points = [0.0, 0.5, 1.0, -0.0, 0.3, -0.25, 1.25, *rng.uniform(-0.3, 1.3, 3).tolist()]
    # Keyed by position: 0.0 and -0.0 are one dictionary key.
    weights = [[_closed_form_jet_weights(m, t) for t in points] for m in range(21)]
    for m in range(21):
        for t, expected in zip(points, weights[m]):
            assert _jet_weights(m, t).tobytes() == expected.tobytes(), (m, t)
    pairs = [(k, (k + 4) % len(points)) for k in range(len(points))]
    for m in range(21):
        for n in range(21):
            for dim in (1, 2, 3):
                net = ControlNet(rng.normal(size=(m + 1, n + 1, dim)))
                for i, j in pairs:
                    u, v = points[i], points[j]
                    both = _contract(net, weights[m][i], weights[n][j])
                    assert jet_table(net, (u, v)).tobytes() == both.tobytes(), (m, n, dim, u, v)


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
        assert np.abs(p - monomial_eval_curve(c.control_points, t)).max() <= 1e-13
    # No parameters give no points; integer parameters are parameters.
    assert sample_curve(c, []).shape == (0, 3)
    ends = sample_curve(c, np.array([0, 1]))
    assert np.array_equal(ends, c.control_points[[0, -1]])
    assert np.array_equal(ends, sample_curve(c, [0.0, 1.0]))
    # Lengths about whole batches of 16 parameters, which share one call for
    # weights, bit for bit against the closed form C(m, i) (1 - t)^(m - i) t^i;
    # at degree 16 a Fortran-ordered product of the same weights rounds apart.
    comb = np.vectorize(math.comb, otypes=[float])
    for m in (6, 16):
        c, i = BezierCurve(rng.normal(size=(m + 1, 3))), np.arange(m + 1)
        for n in (15, 16, 17, 33):
            ts = rng.uniform(0, 1, n)[:, None]
            basis = comb(m, i) * (1.0 - ts) ** (m - i) * ts**i
            assert np.array_equal(sample_curve(c, ts[:, 0]), basis @ c.control_points), (m, n)


def test_derivative_curve_finite_difference():
    rng = np.random.default_rng(5)
    c = BezierCurve(rng.normal(size=(6, 3)))
    d = derivative_curve(c)
    h = 1e-6
    for t in rng.uniform(0.1, 0.9, 20):
        fd = (eval_curve(c, t + h) - eval_curve(c, t - h)) / (2 * h)
        assert np.abs(eval_curve(d, t) - fd).max() <= 1e-6


def test_derivative_curve_is_the_difference_formula_bit_for_bit():
    # The hodograph goes through ``derivative_coeffs``: m (p[1:] - p[:-1]),
    # and one zero point at degree 0.
    rng = np.random.default_rng(57)
    for m in range(21):
        pts = rng.normal(size=(m + 1, 3)) * 10.0 ** rng.integers(-8, 9, (m + 1, 1))
        expected = np.zeros((1, 3)) if m == 0 else m * (pts[1:] - pts[:-1])
        got = derivative_curve(BezierCurve(pts)).control_points
        assert got.tobytes() == expected.tobytes(), m


def test_curve_validation():
    with pytest.raises(ValueError):
        BezierCurve(np.zeros((3, 2)))
    with pytest.raises(ValueError):
        BezierCurve([[0.0, np.nan, 0.0]])
    # Degree 1029 is the last whose binomials are finite floats.
    assert BezierCurve(np.zeros((1030, 3))).degree == 1029
    with pytest.raises(ValueError, match="degree 1030 exceeds 1029"):
        BezierCurve(np.zeros((1031, 3)))


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


def test_difference_net_overflow_rejected():
    # Finite control points whose differences pass the largest float.
    c1 = BezierCurve([[1.7e308, 0, 0], [1.7e308, 1, 0]])
    c2 = BezierCurve([[-1.7e308, 0, 0], [-1.7e308, 1, 0]])
    with pytest.raises(ValueError, match="difference overflows"):
        difference_net(c1, c2)


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

def _partial(net, axis):
    """The derivative net along ``axis`` ("u" or "v"), from ``derivative_coeffs``."""
    return ControlNet(derivative_coeffs(net.coeffs, "uv".index(axis)))


def test_derivative_net_linear_slope():
    p = np.array([0.5, 1.0, -2.0])
    q = np.array([2.5, 0.0, 1.0])
    net = ControlNet(np.stack([p, q])[:, None, :])
    d = _partial(net, "u")
    assert d.coeffs.shape == (1, 1, 3)
    assert np.allclose(d.coeffs[0, 0], q - p, atol=0)


def test_derivative_net_constant_is_zero():
    net = ControlNet(np.tile(np.array([3.0, 1.0, 2.0]), (3, 3, 1)))
    for axis in ("u", "v"):
        d = _partial(net, axis)
        assert np.abs(d.coeffs).max() == 0.0


def test_derivative_net_degree_zero_axis():
    net = ControlNet(np.ones((1, 4, 3)))
    d = _partial(net, "u")
    assert d.coeffs.shape == (1, 4, 3)
    assert np.abs(d.coeffs).max() == 0.0


def test_derivative_net_finite_difference():
    rng = np.random.default_rng(11)
    net = ControlNet(random_net_coeffs(rng, 4, 5))
    du = _partial(net, "u")
    dv = _partial(net, "v")
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
        jac = jet_table(net, (u, v))[(1, 0), (0, 1)].T
        assert np.abs(jac[:, 0] - g).max() <= 1e-12
        assert np.abs(jac[:, 1] - hvec).max() <= 1e-12


def test_jacobian_zero_net():
    net = ControlNet(np.zeros((3, 3, 3)))
    assert np.abs(jet_table(net, (0.3, 0.7))[(1, 0), (0, 1)]).max() == 0.0


def test_jacobian_finite_difference_relative():
    rng = np.random.default_rng(13)
    for m, n in [(3, 3), (6, 4), (10, 10)]:
        net = ControlNet(random_net_coeffs(rng, m, n))
        h = 1e-6
        for u, v in rng.uniform(0.05, 0.95, (10, 2)):
            jac = jet_table(net, (u, v))[(1, 0), (0, 1)].T
            fd = np.stack(
                [
                    (eval_net(net, u + h, v) - eval_net(net, u - h, v)) / (2 * h),
                    (eval_net(net, u, v + h) - eval_net(net, u, v - h)) / (2 * h),
                ],
                axis=1,
            )
            scale = max(1.0, np.abs(jac).max())
            assert np.abs(jac - fd).max() / scale <= 1e-6


def _exact_eval_net(coeffs, u, v):
    """The net's value at (u, v), its Bernstein sum taken in exact rationals.

    The monomial oracle loses up to 5e-6 at degree (16, 12), so the
    high-degree weights are checked against this one.
    """
    u, v = Fraction(u), Fraction(v)
    m, n = coeffs.shape[0] - 1, coeffs.shape[1] - 1
    bu = [math.comb(m, i) * (1 - u) ** (m - i) * u**i for i in range(m + 1)]
    bv = [math.comb(n, j) * (1 - v) ** (n - j) * v**j for j in range(n + 1)]
    return np.array([
        float(sum(
            bu[i] * bv[j] * Fraction(float(coeffs[i, j, d]))
            for i in range(m + 1)
            for j in range(n + 1)
        ))
        for d in range(coeffs.shape[2])
    ])


def test_center_jet_matches_jet_and_exact_second_derivatives():
    # Entry (i, j) is the derivative i times along u and j times along v at
    # (1/2, 1/2); value and Jacobian are jet_table's bit for bit.
    rng = np.random.default_rng(14)
    for m, n in [(0, 0), (1, 0), (0, 2), (2, 1), (3, 5), (9, 9), (16, 12)]:
        net = ControlNet(random_net_coeffs(rng, m, n))
        grid = center_jet(net)
        table = jet_table(net, (0.5, 0.5))
        assert np.array_equal(grid[0, 0], table[0, 0])
        assert np.array_equal(grid[(1, 0), (0, 1)], table[(1, 0), (0, 1)])
        for i, j in [(2, 0), (1, 1), (0, 2)]:
            d = net
            for axis in "u" * i + "v" * j:
                d = _partial(d, axis)
            exact = _exact_eval_net(d.coeffs, 0.5, 0.5)
            scale = max(1.0, np.abs(d.coeffs).max())
            assert np.abs(grid[i, j] - exact).max() <= 1e-14 * scale


def test_jet_matches_exact_evaluation():
    rng = np.random.default_rng(13)
    for m, n in [(0, 0), (1, 0), (0, 2), (3, 5), (9, 9), (16, 12)]:
        net = ControlNet(random_net_coeffs(rng, m, n))
        du = _partial(net, "u")
        dv = _partial(net, "v")
        for x in [(0.5, 0.5), (0.0, 1.0), tuple(rng.uniform(0, 1, 2))]:
            table = jet_table(net, x)
            value, jac = table[0, 0], table[(1, 0), (0, 1)].T
            assert np.array_equal(eval_net(net, *x), value)
            assert np.abs(value - _exact_eval_net(net.coeffs, *x)).max() <= 1e-14
            expected = np.stack(
                [_exact_eval_net(du.coeffs, *x), _exact_eval_net(dv.coeffs, *x)], axis=1
            )
            assert np.abs(jac - expected).max() <= 1e-13 * max(1, m, n)
            if m <= 5 and n <= 5:
                assert np.abs(value - monomial_eval_net(net.coeffs, *x)).max() <= 1e-13


# ---------------------------------------------------------------------------
# Reparametrization

def _from_unit(target, s, t):
    """Image of unit-square coordinates (s, t) under the target's affine map."""
    return (
        target.lo_u + s * (target.hi_u - target.lo_u),
        target.lo_v + t * (target.hi_v - target.lo_v),
    )


def test_reparametrize_identity():
    rng = np.random.default_rng(14)
    net = ControlNet(random_net_coeffs(rng, 5, 5))
    out = reparametrize(net, Rect(0.0, 1.0, 0.0, 1.0))
    assert np.array_equal(out.coeffs, net.coeffs)


def test_reparametrize_eval_consistency():
    rng = np.random.default_rng(15)
    net = ControlNet(random_net_coeffs(rng, 8, 8))
    target = Rect(0.25, 0.5, 0.5, 0.75)
    out = reparametrize(net, target)
    for s, t in rng.uniform(0, 1, (100, 2)):
        u, v = _from_unit(target, s, t)
        assert np.abs(eval_net(out, s, t) - eval_net(net, u, v)).max() <= 1e-10


def test_reparametrize_outside_unit_square():
    rng = np.random.default_rng(16)
    net = ControlNet(random_net_coeffs(rng, 5, 6))
    target = Rect(-0.25, 1.25, -0.25, 1.25)
    out = reparametrize(net, target)
    for s, t in rng.uniform(0, 1, (50, 2)):
        u, v = _from_unit(target, s, t)
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
        u, v = _from_unit(target, s, t)
        assert np.abs(out.coeffs[i, j] - eval_net(net, u, v)).max() <= 1e-12


def test_reparametrize_composition():
    rng = np.random.default_rng(17)
    net = ControlNet(random_net_coeffs(rng, 6, 6))
    r1 = Rect(0.1, 0.8, 0.2, 0.9)
    r2 = Rect(0.25, 0.75, 0.4, 0.6)
    nested = reparametrize(reparametrize(net, r1), r2)
    lo_u, lo_v = _from_unit(r1, r2.lo_u, r2.lo_v)
    hi_u, hi_v = _from_unit(r1, r2.hi_u, r2.hi_v)
    direct = reparametrize(net, Rect(lo_u, hi_u, lo_v, hi_v))
    for s, t in rng.uniform(0, 1, (50, 2)):
        assert np.abs(eval_net(nested, s, t) - eval_net(direct, s, t)).max() <= 1e-10


def test_carried_nets_match_direct_restriction():
    # Nets carried down 40 quarterings agree with restricting the root net
    # over the same square, to well inside the exclusion test's 1e-12 margin.
    rng = np.random.default_rng(19)
    for _ in range(24):
        m, n = rng.integers(0, 17, 2)
        root = ControlNet(random_net_coeffs(rng, m, n))
        carried = root
        lo_u = lo_v = 0.0
        width = 1.0
        for k in rng.integers(0, 4, 40):
            quarter = QUARTERS[k]
            carried = reparametrize(carried, quarter)
            width *= 0.5
            lo_u += quarter.lo_u * 2.0 * width
            lo_v += quarter.lo_v * 2.0 * width
            direct = reparametrize(root, Rect(lo_u, lo_u + width, lo_v, lo_v + width))
            drift = np.abs(carried.coeffs - direct.coeffs).max()
            assert drift <= 1e-13 * np.abs(direct.coeffs).max()


def test_restrict_quarters_equals_reparametrize_bit_for_bit():
    # Every degree pair 0-16 in every dimension 1-4, stacks of 1-8 nets, and
    # a few stacks of the solver's largest batch, 64 nets; coefficients
    # random over many magnitudes, or dyadic so every quarter is exact.
    rng = np.random.default_rng(20)
    shapes = [(m, n, d, int(rng.integers(1, 9))) for m in range(17) for n in range(17) for d in range(1, 5)]
    shapes += [(16, 16, 3, 64), (16, 10, 3, 64), (0, 0, 1, 64), (5, 12, 2, 64), (9, 0, 4, 64)]
    for k, (m, n, d, count) in enumerate(shapes):
        if k % 2:
            stack = rng.integers(-256, 257, size=(count, m + 1, n + 1, d)) / 64.0
        else:
            stack = rng.normal(size=(count, m + 1, n + 1, d)) * 10.0 ** rng.uniform(-8, 8)
        children = restrict_quarters(stack)
        assert children.shape == (4 * count, m + 1, n + 1, d)
        for p in range(count):
            for q, quarter in enumerate(QUARTERS):
                expected = reparametrize(ControlNet(stack[p]), quarter).coeffs
                assert np.array_equal(children[4 * p + q], expected), (m, n, d, count, p, q)


def test_derivative_commutes_with_reparametrize():
    rng = np.random.default_rng(18)
    net = ControlNet(random_net_coeffs(rng, 5, 5))
    target = Rect(0.3, 0.55, 0.6, 0.95)
    out = reparametrize(net, target)
    # chain rule: d/ds of the restriction is the u-width times the restricted du
    lhs = _partial(out, "u")
    rhs = reparametrize(_partial(net, "u"), target)
    for s, t in rng.uniform(0, 1, (30, 2)):
        a = eval_net(lhs, s, t)
        b = (target.hi_u - target.lo_u) * eval_net(rhs, s, t)
        assert np.abs(a - b).max() <= 1e-10


def test_elevate_keeps_the_polynomial():
    # Degree elevation is an identity: at random dyadic points the raised
    # net, summed in exact rationals, has the input's values, to the rounding
    # of its convex weights and of each sum to a float, for every pair of
    # degrees p <= q up to 16 along u and a random pair along v. Raising to
    # the same degree changes no bit.
    rng = np.random.default_rng(60)
    for p in range(17):
        for q in range(p, 17):
            pv = int(rng.integers(0, 17))
            qv = int(rng.integers(pv, 17))
            net = ControlNet(rng.normal(size=(p + 1, pv + 1, 2)))
            raised = elevate(net, q, qv)
            assert raised.coeffs.shape == (q + 1, qv + 1, 2)
            scale = float(np.abs(net.coeffs).max())
            # At most k = q - p + 1 weights per row, each rounded once: k + 1 u
            # per axis; each exact sum then rounds to a float, by u / 2.
            tol = (q - p + qv - pv + 5) * 2.0**-53 * scale
            assert np.abs(raised.coeffs).max() <= scale + tol
            for u, v in rng.integers(0, 1025, (2, 2)) / 1024:
                diff = _exact_eval_net(raised.coeffs, u, v) - _exact_eval_net(net.coeffs, u, v)
                assert np.abs(diff).max() <= tol + 2.0**-53 * scale, (p, q, pv, qv)
        assert np.array_equal(elevate(net, p, pv).coeffs, net.coeffs)


def test_rect_validation():
    with pytest.raises(ValueError):
        Rect(0.5, 0.5, 0.0, 1.0)
    with pytest.raises(ValueError):
        Rect(0.0, 1.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        Rect(0.5, 0.5, 0.5, 0.5)
