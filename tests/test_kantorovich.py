"""Convergence-test module checks.

The classification oracle here re-derives every quantity through monomial
algebra (power-basis differentiation, LAPACK solves, least-squares Bernstein
fits) so it shares no code with the Bernstein implementation under test.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from cci import kantorovich
from cci.engine import region_prunes_square
from cci.geometry import (
    QUARTERS,
    ControlNet,
    Rect,
    center_jet,
    corner_seconds,
    derivative_coeffs,
    eval_net,
    jet_table,
    reparametrize,
    restriction_growth,
)
from cci.kantorovich import (
    PASS_BOUND,
    PairStatus,
    PairSystem,
    PairTest,
    explored_region,
    inverse_2x2,
    projection,
    rho_radii,
)
from cci.newton import newton_solve
from conftest import (
    ball,
    bernstein_to_monomial,
    full_test_omega,
    horner,
    monomial_grid,
    newton_path,
    pair_test_at,
    projected_net,
    random_net_coeffs,
    spatial,
)


# ---------------------------------------------------------------------------
# Monomial-route helpers (independent of the implementation's algebra)

def _mono2(coeffs):
    m = bernstein_to_monomial(coeffs)
    return np.swapaxes(bernstein_to_monomial(np.swapaxes(m, 0, 1)), 0, 1)


def _mono_eval(mono, u, v):
    rows = np.stack([horner(mono[k], v) for k in range(mono.shape[0])])
    return horner(rows, u)


def _mono_du(mono):
    if mono.shape[0] == 1:
        return np.zeros_like(mono)
    return mono[1:] * np.arange(1, mono.shape[0])[:, None, None]


def _mono_dv(mono):
    return np.swapaxes(_mono_du(np.swapaxes(mono, 0, 1)), 0, 1)


def _fit_bernstein_max_abs(fn, degrees, domain: Rect) -> np.ndarray:
    """Max |Bernstein coefficient| of each component of fn restricted to
    domain, by lstsq fit."""
    m, n = degrees
    su = np.linspace(0.0, 1.0, max(2 * (m + 1), 4))
    sv = np.linspace(0.0, 1.0, max(2 * (n + 1), 4))
    bu = np.stack([[math.comb(m, i) * (1 - s) ** (m - i) * s**i for i in range(m + 1)] for s in su])
    bv = np.stack([[math.comb(n, j) * (1 - t) ** (n - j) * t**j for j in range(n + 1)] for t in sv])
    basis = np.kron(bu, bv)
    du, dv = domain.hi_u - domain.lo_u, domain.hi_v - domain.lo_v
    values = np.array(
        [fn(domain.lo_u + s * du, domain.lo_v + t * dv) for s in su for t in sv]
    )
    coeffs, *_ = np.linalg.lstsq(basis, values, rcond=None)
    return np.abs(coeffs).max(axis=0)


def _oracle_quantities(coeffs, x0, domain: Rect):
    """(eta, omega) for a net via the monomial route: with P the SVD
    pseudo-inverse of the Jacobian J at x0, eta = |P f(x0)| and omega is
    max_i (M_uu,i + 2 M_uv,i + M_vv,i), M_xx,i the largest |Bernstein
    coefficient| of component i of P f_xx over the domain, at the net's own
    degrees (m, n), to which the solver raises every f_xx."""
    mono = _mono2(coeffs)
    du, dv = _mono_du(mono), _mono_dv(mono)
    jac = np.stack([_mono_eval(du, *x0), _mono_eval(dv, *x0)], axis=1)
    jac_inv = np.linalg.pinv(jac)
    eta_value = float(np.abs(jac_inv @ _mono_eval(mono, *x0)).max())
    m = coeffs.shape[0] - 1
    n = coeffs.shape[1] - 1
    maxima = []
    for mono_second in (_mono_du(du), _mono_dv(du), _mono_dv(dv)):
        def entry(u, v, ms=mono_second):
            return jac_inv @ _mono_eval(ms, u, v)
        maxima.append(_fit_bernstein_max_abs(entry, (m, n), domain))
    m_uu, m_uv, m_vv = maxima
    return eta_value, float((m_uu + 2.0 * m_uv + m_vv).max())


def _second_derivative_nets(net):
    """f_uu, f_uv and f_vv at their own degrees, the nets ``PairSystem`` raises."""
    du, dv = derivative_coeffs(net.coeffs, 0), derivative_coeffs(net.coeffs, 1)
    seconds = derivative_coeffs(du, 0), derivative_coeffs(du, 1), derivative_coeffs(dv, 1)
    return tuple(ControlNet(c) for c in seconds)


def _affine_net_2(b, gu, gv, m=2, n=2):
    coeffs = np.empty((m + 1, n + 1, 2))
    for i in range(m + 1):
        for j in range(n + 1):
            coeffs[i, j] = b + (i / m) * gu + (j / n) * gv
    return ControlNet(coeffs)


def _net_with_zero_at(rng, z, m=3, n=3):
    coeffs = random_net_coeffs(rng, m, n, d=2)
    net = ControlNet(coeffs)
    return ControlNet(coeffs - eval_net(net, *z))


# ---------------------------------------------------------------------------
# eta = |J^-1 F| through inverse_2x2, the one 2x2 routine

def _inverse(jac):
    """``inverse_2x2`` of a 2x2 array's entries, as a 2x2 array, or None."""
    entries = inverse_2x2(*np.ravel(jac).tolist())
    return None if entries is None else np.reshape(entries, (2, 2))


def _eta(jac, value):
    return float(np.abs(_inverse(jac) @ value).max())


def test_eta_zero_value():
    assert _eta(np.eye(2), np.zeros(2)) == 0.0


def test_eta_identity_jacobian():
    assert np.array_equal(_inverse(np.eye(2)), np.eye(2))
    assert _eta(np.eye(2), np.array([0.3, -0.1])) == pytest.approx(0.3, abs=0)


def test_eta_matches_lapack_solve():
    rng = np.random.default_rng(40)
    for _ in range(50):
        jac = rng.normal(size=(2, 2))
        if abs(np.linalg.det(jac)) < 0.1:
            continue
        value = rng.normal(size=2)
        expected = np.linalg.solve(jac, value)
        assert np.abs(_inverse(jac) @ value - expected).max() <= 1e-12
        assert _eta(jac, value) == pytest.approx(float(np.abs(expected).max()), abs=1e-12)


def test_inverse_2x2_singular_is_none():
    assert inverse_2x2(1.0, 2.0, 2.0, 4.0) is None


@pytest.mark.parametrize("norm", [0.5, 1024.0])
def test_inverse_2x2_singular_threshold(norm):
    # J = diag(norm, x) with x < norm has |J| = norm in the infinity norm,
    # and det J = norm * x is exact because norm is a power of two. J is
    # singular exactly when det J <= 1e-14 * max(1, |J|^2).
    threshold = 1e-14 * max(1.0, norm**2)
    at = threshold / norm
    for x, singular in [
        (0.5 * at, True),
        (at, True),
        (np.nextafter(at, np.inf), False),
        (2.0 * at, False),
    ]:
        jac = np.diag([norm, x])
        jac_inv = _inverse(jac)
        if singular:
            assert jac_inv is None
        else:
            assert jac_inv is not None
            assert np.array_equal(jac_inv, np.diag([1.0 / norm, 1.0 / x]))


def test_projection_is_the_pseudo_inverse():
    # P = (J^T J)^-1 J^T, so P J = I, and it is LAPACK's SVD pseudo-inverse.
    rng = np.random.default_rng(39)
    for _ in range(50):
        jac = rng.normal(size=(3, 2)) * rng.choice([1e-3, 1.0, 1e3])
        rows = np.array(projection(*jac.T.tolist()))
        pinv = np.linalg.pinv(jac)
        assert np.abs(rows - pinv).max() <= 1e-12 * np.abs(pinv).max()
        assert np.abs(rows @ jac - np.eye(2)).max() <= 1e-12


def test_projection_of_planar_rows_is_their_inverse():
    # With the third row zero, P is the inverse of the two planar rows with a
    # zero third column: the convergence test of planar curves is the
    # paper's 2x2 system.
    rng = np.random.default_rng(38)
    for _ in range(50):
        a, b = rng.normal(size=2), rng.normal(size=2)
        (p00, p01, p02), (p10, p11, p12) = projection([*a, 0.0], [*b, 0.0])
        inv = inverse_2x2(a[0], b[0], a[1], b[1])
        assert p02 == p12 == 0.0
        assert np.abs(np.subtract((p00, p01, p10, p11), inv)).max() <= 4e-16 * np.abs(inv).max()


@pytest.mark.parametrize("norm", [0.5, 1024.0])
def test_projection_is_singular_only_where_every_row_pair_is(norm):
    # J's only nonzero minor is diag(norm, x), in each of its three row
    # pairs: J is singular exactly where ``inverse_2x2`` finds that minor
    # singular. A J whose other minors are regular is not.
    threshold = 1e-14 * max(1.0, norm**2)
    at = threshold / norm
    for x, singular in [(0.5 * at, True), (at, True), (np.nextafter(at, np.inf), False)]:
        assert (inverse_2x2(norm, 0.0, 0.0, x) is None) is singular
        for i, k in ((0, 1), (0, 2), (1, 2)):
            a, b = [0.0] * 3, [0.0] * 3
            a[i], b[k] = norm, x
            assert (projection(a, b) is None) is singular, (i, k)
            b[3 - i - k] = 1.0
            assert projection(a, b) is not None


# ---------------------------------------------------------------------------
# Lipschitz bound

def test_lipschitz_bound_affine_is_zero():
    # dyadic coefficients keep the second-derivative cancellation exact
    net = _affine_net_2(
        np.array([0.25, -0.5]), np.array([1.0, 0.5]), np.array([-0.5, 2.0])
    )
    assert pair_test_at(net, (0.5, 0.5), 0.75).omega == 0.0


def test_lipschitz_bound_scale_invariant():
    rng = np.random.default_rng(41)
    for _ in range(20):
        coeffs = random_net_coeffs(rng, 3, 3, d=2)
        base = pair_test_at(ControlNet(coeffs), (0.5, 0.5), 0.75).omega
        for c in (2.0, -3.5, 1e-4):
            scaled = pair_test_at(ControlNet(c * coeffs), (0.5, 0.5), 0.75).omega
            assert scaled == pytest.approx(base, rel=1e-12)


def test_lipschitz_inequality_sampled():
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 10:
        net = ControlNet(random_net_coeffs(rng, 3, 3, d=2))
        x0 = (0.5, 0.5)
        test = pair_test_at(net, x0, 0.6)
        if test.status is PairStatus.SINGULAR_JACOBIAN:
            continue
        omega, domain = full_test_omega(net, test), test.test_domain
        checked += 1
        mono = _mono2(net.coeffs)
        du, dv = _mono_du(mono), _mono_dv(mono)
        jac0_inv = np.linalg.inv(
            np.stack([_mono_eval(du, *x0), _mono_eval(dv, *x0)], axis=1)
        )

        def jac_at(u, v):
            return np.stack([_mono_eval(du, u, v), _mono_eval(dv, u, v)], axis=1)

        pts = rng.uniform(domain.lo_u, domain.hi_u, size=(100, 2, 2))
        for (x, y) in pts:
            lhs = np.abs(jac0_inv @ (jac_at(*x) - jac_at(*y))).sum(axis=1).max()
            rhs = omega * np.abs(x - y).max()
            assert lhs <= rhs * (1.0 + 1e-9) + 1e-12


def test_lipschitz_bound_monotone_in_domain():
    rng = np.random.default_rng(43)
    x0 = (0.5, 0.5)
    for _ in range(20):
        net = ControlNet(random_net_coeffs(rng, 3, 3, d=2))
        tests = [pair_test_at(net, x0, r) for r in (0.2, 0.4, 0.6, 0.9)]
        if any(t.status is PairStatus.SINGULAR_JACOBIAN for t in tests):
            continue
        values = [full_test_omega(net, t) for t in tests]
        for small, big in zip(values, values[1:]):
            assert small <= big * (1.0 + 1e-12)


def test_lipschitz_bound_singular_is_reported():
    test = pair_test_at(ControlNet(np.zeros((3, 3, 2))), (0.5, 0.5), 0.75)
    assert test.status is PairStatus.SINGULAR_JACOBIAN
    assert test.omega is None


# ---------------------------------------------------------------------------
# Radii

def test_rho_radii_eta_zero():
    rho_minus, rho_plus = rho_radii(0.0, 2.0)
    assert rho_minus == 0.0
    assert rho_plus == pytest.approx(1.0, abs=0)


def test_rho_radii_omega_zero():
    assert rho_radii(0.3, 0.0) == (0.3, math.inf)


def test_rho_radii_hand_values():
    rho_minus, rho_plus = rho_radii(0.1, 2.0)
    s = math.sqrt(1.0 - 0.4)
    assert rho_minus == pytest.approx((1.0 - s) / 2.0, abs=1e-15)
    assert rho_plus == pytest.approx((1.0 + s) / 2.0, abs=1e-15)
    assert rho_minus == pytest.approx(0.112702, abs=1e-6)
    assert rho_plus == pytest.approx(0.887298, abs=1e-6)


def test_rho_radii_rejects_large_h():
    with pytest.raises(ValueError):
        rho_radii(1.0, 1.0)


def test_rho_radii_ordering():
    rng = np.random.default_rng(44)
    for _ in range(100):
        e = rng.uniform(0, 0.5)
        w = rng.uniform(0, 0.5 / max(e, 1e-9))
        rho_minus, rho_plus = rho_radii(e, w)
        assert 0.0 <= rho_minus <= rho_plus


# ---------------------------------------------------------------------------
# Full test classification

def _test_square(net, center, half_width, scale):
    """The one ``PairTest`` of ``test_pairs`` on one square of a net given
    over the unit square."""
    square = reparametrize(net, ball(center, half_width))
    (test,) = kantorovich.test_pairs(PairSystem(net), square, center, half_width, scale).pairs
    return test


def test_pass_at_exact_transversal_zero():
    # crossing segments: center of the unit square is an exact zero
    coeffs = np.array(
        [[[-1, 0, 0], [0, -1, 0]], [[0, 1, 0], [1, 0, 0]]], dtype=float
    )
    passed = _test_square(ControlNet(coeffs), (0.5, 0.5), 0.5, 1.5)
    assert passed.status is PairStatus.PASS
    jac = jet_table(ControlNet(coeffs), (0.5, 0.5))[(1, 0), (0, 1)].T
    assert np.abs(np.array(passed.projection) @ jac - np.eye(2)).max() == 0.0
    assert passed.eta == 0.0 and passed.step == (0.0, 0.0)
    assert passed.eta * passed.omega == 0.0
    assert passed.rho_minus == 0.0


def test_fail_containment_for_far_affine_zero():
    # affine full net whose zero is far outside the test domain
    b = np.array([10.0, 10.0, 0.0])
    gu = np.array([1.0, 0.0, 0.0])
    gv = np.array([0.0, 1.0, 0.0])
    m = n = 1
    coeffs = np.empty((2, 2, 3))
    for i in range(2):
        for j in range(2):
            coeffs[i, j] = b + i * gu + j * gv
    t = _test_square(ControlNet(coeffs), (0.5, 0.5), 0.1, 1.5)
    assert np.abs(np.subtract(t.projection, ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)))).max() <= 1e-14
    assert t.status is PairStatus.FAIL_CONTAINMENT
    assert t.eta * t.omega == 0.0 and t.omega == 0.0
    assert t.rho_minus == t.eta > 0.15


def test_planar_curves_test_their_planar_rows():
    # Planar curves have two singular row pairs, but their square is tested
    # once, on the planar rows: eta and omega are those of the 2x2 system.
    rng = np.random.default_rng(45)
    coeffs = random_net_coeffs(rng, 3, 3)
    coeffs[:, :, 2] = 0.0
    t = _test_square(ControlNet(coeffs), (0.5, 0.5), 0.25, 1.5)
    assert t.status is not PairStatus.SINGULAR_JACOBIAN
    assert t.projection[0][2] == t.projection[1][2] == 0.0
    eta, omega = _oracle_quantities(coeffs[:, :, :2], (0.5, 0.5), t.test_domain)
    assert t.eta == pytest.approx(eta, rel=1e-12)
    assert full_test_omega(ControlNet(coeffs), t) == pytest.approx(omega, rel=1e-7)


def _count_restrictions_and_omegas(monkeypatch) -> dict[str, int]:
    # The benchmark tracer times omega's restrictions through the module's
    # ``reparametrize`` binding and omega through ``PairSystem.omega``.
    calls = {"reparametrize": 0, "omega": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(kantorovich, "reparametrize", counted("reparametrize", reparametrize))
    monkeypatch.setattr(PairSystem, "omega", counted("omega", PairSystem.omega))
    return calls


@pytest.mark.parametrize("planar, minors", [(False, 3), (True, 1)])
def test_at_most_one_restriction_per_net_per_tested_square(monkeypatch, planar, minors):
    # An affine map has omega = 0, so omega's lower bound decides nothing and
    # the square takes the full test: its one test domain restricts the
    # stacked second-derivative net once, for one omega, however many of the
    # Jacobian's row pairs are regular. The zero lies far outside the
    # domain, so the square fails containment.
    b = np.array([8.0, 8.0, 0.0 if planar else 8.0])
    gu = np.array([1.0, 0.0, 0.0 if planar else 0.5])
    gv = np.array([0.0, 1.0, 0.0 if planar else -0.5])
    coeffs = np.array([[b + (i / 2) * gu + (j / 2) * gv for j in range(3)] for i in range(3)])
    assert np.count_nonzero(np.cross(gu, gv)) == minors
    calls = _count_restrictions_and_omegas(monkeypatch)
    t = _test_square(ControlNet(coeffs), (0.5, 0.5), 0.5, 1.5)
    assert t.status is PairStatus.FAIL_CONTAINMENT
    assert calls == {"reparametrize": 1, "omega": 1}


def test_pairs_failed_by_omegas_lower_bound_restrict_nothing(monkeypatch):
    calls = _count_restrictions_and_omegas(monkeypatch)
    coeffs = random_net_coeffs(np.random.default_rng(49), 5, 4)
    t = _test_square(ControlNet(coeffs), (0.5, 0.5), 0.5, 1.5)
    assert t.status is PairStatus.FAIL_CONVERGENCE and t.omega is None
    assert calls == {"reparametrize": 0, "omega": 0}


def _cubic_net():
    """(s + 4 s^3 - 1/16, t), s = u - 1/2 and t = v - 1/2, over the unit
    square. At the center J = I, f = (-1/16, 0) and f_uu = 24 s vanishes; at
    the corners f_uu = +-12, so omega >= 12 on the unit square and
    eta * omega >= 3/4 > PASS_BOUND."""
    mono = [Fraction(-17, 16), 4, -6, 4]  # powers of u
    # Bernstein coefficient i of sum_j a_j u^j is sum_(j <= i) C(i, j) / C(3, j) a_j.
    bernstein = [
        sum(Fraction(math.comb(i, j), math.comb(3, j)) * a for j, a in enumerate(mono[: i + 1]))
        for i in range(4)
    ]
    coeffs = np.empty((4, 2, 2))
    coeffs[:, :, 0] = np.array(bernstein, dtype=float)[:, None]
    coeffs[:, :, 1] = [-0.5, 0.5]
    return ControlNet(coeffs)


def test_corners_decide_a_pair_whose_curvature_vanishes_at_the_center(monkeypatch):
    # The center's second derivatives leave omega's lower bound at 0 less its
    # allowance; the corners' lift it to about 12, which fails the pair
    # before its omega block is restricted. The full test fails it too.
    net = _cubic_net()
    calls = _count_restrictions_and_omegas(monkeypatch)
    t = pair_test_at(net, (0.5, 0.5), 0.5)
    assert t.status is PairStatus.FAIL_CONVERGENCE and t.omega is None
    assert calls == {"reparametrize": 0, "omega": 0}
    net3 = spatial(net)
    system = PairSystem(net3)
    slack = kantorovich._floor_slack(net3, 0.5, t.test_domain)
    curvature = _curvature(net3, 0.5)
    at_center = kantorovich._omega_floor(system, t.projection, curvature[:1], slack)
    floor = kantorovich._omega_floor(system, t.projection, curvature, slack)
    assert t.eta == pytest.approx(1.0 / 16.0, rel=1e-12)
    assert t.eta * at_center <= PASS_BOUND < t.eta * floor
    assert floor == pytest.approx(12.0, rel=1e-8)
    assert floor <= full_test_omega(net, t)


def test_classification_matches_monomial_reimplementation():
    rng = np.random.default_rng(46)
    checked = 0
    while checked < 25:
        coeffs = random_net_coeffs(rng, 3, 3)
        x0 = tuple(rng.uniform(0.3, 0.7, 2))
        r = float(rng.uniform(0.05, 0.3))
        scale = float(rng.uniform(1.0, 2.5))
        net = ControlNet(coeffs)
        t = _test_square(net, x0, r, scale)
        eta_o, omega_o = _oracle_quantities(coeffs, x0, t.test_domain)
        omega = full_test_omega(net, t)
        assert t.omega in (None, omega)
        assert t.eta == pytest.approx(eta_o, rel=1e-9, abs=1e-12)
        assert omega == pytest.approx(omega_o, rel=1e-7, abs=1e-9)
        h_o = eta_o * omega_o
        # skip instances within noise of a decision boundary
        if abs(h_o - PASS_BOUND) < 1e-6:
            continue
        if h_o > PASS_BOUND:
            expected = PairStatus.FAIL_CONVERGENCE
        else:
            rho_o = (1.0 - math.sqrt(1.0 - 2.0 * h_o)) / omega_o if omega_o else eta_o
            if abs(rho_o - scale * r) < 1e-9:
                continue
            expected = (
                PairStatus.PASS if rho_o <= scale * r else PairStatus.FAIL_CONTAINMENT
            )
        assert t.status is expected
        checked += 1


def test_affine_invariance_of_test_quantities():
    rng = np.random.default_rng(47)
    checked = 0
    while checked < 15:
        coeffs = random_net_coeffs(rng, 3, 3, d=2)
        mat = rng.normal(size=(2, 2))
        if abs(np.linalg.det(mat)) < 0.2:
            continue
        x0 = (0.45, 0.55)
        test_a = pair_test_at(ControlNet(coeffs), x0, 0.4)
        test_b = pair_test_at(ControlNet(coeffs @ mat.T), x0, 0.4)
        if PairStatus.SINGULAR_JACOBIAN in (test_a.status, test_b.status):
            continue
        assert test_b.eta == pytest.approx(test_a.eta, rel=1e-9, abs=1e-12)
        assert test_b.omega == pytest.approx(test_a.omega, rel=1e-9, abs=1e-12)
        checked += 1


# ---------------------------------------------------------------------------
# Pass soundness and the convergence-speed bound

def _passing_instances(seed, count):
    rng = np.random.default_rng(seed)
    found = []
    while len(found) < count:
        z = tuple(rng.uniform(0.35, 0.65, 2))
        net3 = random_net_coeffs(rng, 3, 3)
        net3 -= eval_net(ControlNet(net3), *z)
        x0 = tuple(z + rng.uniform(-0.05, 0.05, 2))
        t = _test_square(ControlNet(net3), x0, 0.1, 1.5)
        if t.status is PairStatus.PASS:
            found.append((ControlNet(net3), x0, t))
    return found


def test_pass_soundness_newton_lands_in_existence_ball():
    for net3, x0, passed in _passing_instances(48, 20):
        pair_net = projected_net(net3, passed)
        result = newton_solve(pair_net, x0, tol=1e-7, max_iter=30)
        assert result.converged
        dist = max(abs(result.root[0] - x0[0]), abs(result.root[1] - x0[1]))
        assert dist <= passed.rho_minus + 1e-9
        # iterates never leave the existence ball
        for p in newton_path(pair_net, x0, tol=1e-7, max_iter=30):
            assert max(abs(p[0] - x0[0]), abs(p[1] - x0[1])) <= passed.rho_minus + 1e-9


def test_convergence_speed_bound_along_iterates():
    for net3, x0, passed in _passing_instances(49, 20):
        h = passed.eta * passed.omega
        if h <= 0.0:
            continue
        pair_net = projected_net(net3, passed)
        result = newton_solve(pair_net, x0, tol=1e-10, max_iter=30)
        assert result.converged
        root = np.array(result.root)
        base = 1.0 - math.sqrt(1.0 - 2.0 * h)
        for k, p in enumerate(newton_path(pair_net, x0, tol=1e-10, max_iter=30)):
            bound = (passed.eta / h) * (base ** (2.0**k)) / (2.0**k)
            dist = np.abs(np.array(p) - root).max()
            assert dist <= bound + 1e-9


def _parabola_net(q):
    """((u - 3/8)^2 - q, v - 1/2) over the unit square. At the center,
    J = diag(1/4, 1) and f_uu = (2, 0) everywhere, so J^-1 f_uu = (8, 0),
    eta = 4 |1/64 - q|, omega = 8 and h = 32 |1/64 - q|."""
    coeffs = np.empty((3, 2, 2))
    coeffs[:, :, 0] = (np.array([9.0, -15.0, 25.0]) / 64.0 - q)[:, None]
    coeffs[:, :, 1] = [-0.5, 0.5]
    return ControlNet(coeffs)


def test_pass_between_a_quarter_and_the_bound_lands_newton_in_the_existence_ball():
    # h = 0.4: the base algorithm's h <= 1/4 fails it, Kantorovich's h < 1/2
    # certifies it, and Newton from the center converges into rho_minus.
    q = 1.0 / 64.0 - 0.4 / 32.0
    net, x0 = _parabola_net(q), (0.5, 0.5)
    t = pair_test_at(net, x0, 0.1)
    assert t.status is PairStatus.PASS
    assert 0.25 < t.eta * t.omega <= PASS_BOUND
    assert t.eta * t.omega == pytest.approx(0.4, rel=1e-12)
    result = newton_solve(net, x0, tol=1e-12, max_iter=30)
    assert result.converged and result.root[0] == pytest.approx(0.375 + q**0.5, abs=1e-12)
    for p in [result.root, *newton_path(net, x0, tol=1e-12, max_iter=30)]:
        assert max(abs(p[0] - x0[0]), abs(p[1] - x0[1])) <= t.rho_minus


def test_just_above_the_bound_fails_convergence():
    # h = PASS_BOUND + 0.005 < 1/2: the test keeps to its bound, and omega's
    # lower bound alone decides the pair.
    q = 1.0 / 64.0 - (PASS_BOUND + 0.005) / 32.0
    t = pair_test_at(_parabola_net(q), (0.5, 0.5), 0.1)
    assert t.status is PairStatus.FAIL_CONVERGENCE and t.omega is None
    assert t.eta * 8.0 == pytest.approx(PASS_BOUND + 0.005, rel=1e-12)


def _mixed_net():
    """(s + s^2 + st/2 - 1/16, t + t^2), s = u - 1/2 and t = v - 1/2, over the
    unit square with dyadic coefficients. At the center J = I and
    f = (-1/16, 0), so eta = 1/16; f_uu = (2, 0), f_uv = (1/2, 0) and
    f_vv = (0, 2) everywhere, so omega = max(2 + 2/2 + 0, 0 + 0 + 2) = 3,
    where four times the largest |J^-1 f''| is 8."""
    s, s2, one = np.array([-0.5, 0.0, 0.5]), np.array([0.25, -0.25, 0.25]), np.ones(3)
    coeffs = np.empty((3, 3, 2))
    coeffs[:, :, 0] = np.outer(s + s2, one) + 0.5 * np.outer(s, s) - 1.0 / 16.0
    coeffs[:, :, 1] = np.outer(one, s + s2)
    return ControlNet(coeffs)


def test_row_sums_pass_a_pair_four_times_the_largest_coefficient_fails():
    # omega weighs each net by its own row maxima: 3 here, so h = 3/16. The
    # single-maximum bound 4 max |J^-1 c| = 8 would give h = 1/2 > PASS_BOUND.
    net = _mixed_net()
    t = pair_test_at(net, (0.5, 0.5), 0.125)
    assert t.status is PairStatus.PASS and t.eta == 1.0 / 16.0
    assert t.omega == pytest.approx(3.0, rel=1e-12)
    seconds = _second_derivative_nets(net)
    block = np.concatenate([reparametrize(n, t.test_domain).coeffs.reshape(-1, 2) for n in seconds])
    assert 4.0 * np.abs(block).max() == pytest.approx(8.0, rel=1e-12)
    assert t.eta * 8.0 > PASS_BOUND


def test_row_sums_bound_the_jacobians_change_on_passing_test_domains():
    # |J0^-1 (J(x) - J(y))| <= omega |x - y| over each passing pair's test
    # domain, with J from ``jet_table`` and J0 at the center. The mixed net
    # attains the bound along (1, 1), so the weight 2 on M_uv cannot be dropped.
    rng = np.random.default_rng(53)
    instances = [(projected_net(n, p), x0, p) for n, x0, p in _passing_instances(53, 12)]
    instances.append((_mixed_net(), (0.5, 0.5), pair_test_at(_mixed_net(), (0.5, 0.5), 0.125)))
    for pair_net, x0, passed in instances:
        d = passed.test_domain
        jac0_inv = np.linalg.inv(jet_table(pair_net, x0)[(1, 0), (0, 1)].T)
        corners = [(d.lo_u, d.lo_v), (d.hi_u, d.lo_v), (d.lo_u, d.hi_v), (d.hi_u, d.hi_v)]
        pairs = [(x, y) for k, x in enumerate(corners) for y in corners[k + 1:]]
        pairs += [tuple(p) for p in rng.uniform((d.lo_u, d.lo_v), (d.hi_u, d.hi_v), (200, 2, 2))]
        worst = 0.0
        for x, y in pairs:
            change = jac0_inv @ (jet_table(pair_net, x) - jet_table(pair_net, y))[(1, 0), (0, 1)].T
            ratio = np.abs(change).sum(axis=1).max() / np.abs(np.subtract(x, y)).max()
            assert ratio <= passed.omega * (1.0 + 1e-12)
            worst = max(worst, ratio)
    assert worst == pytest.approx(passed.omega, rel=1e-12)


def test_uniqueness_inside_explored_region():
    for net3, x0, passed in _passing_instances(50, 8):
        pair_net = projected_net(net3, passed)
        result = newton_solve(pair_net, x0, tol=1e-10, max_iter=30)
        assert result.converged
        region = explored_region(passed, x0)
        us = np.linspace(region.lo_u, region.hi_u, 80)
        vs = np.linspace(region.lo_v, region.hi_v, 80)
        grid = np.abs(monomial_grid(pair_net.coeffs, us, vs)).max(axis=2)
        uu, vv = np.meshgrid(us, vs, indexing="ij")
        near = np.maximum(np.abs(uu - result.root[0]), np.abs(vv - result.root[1])) <= 0.02
        grid[near] = np.inf
        assert grid.min() > 0.0


# ---------------------------------------------------------------------------
# Explored regions

def test_explored_region_affine_case_equals_test_domain():
    b = np.array([0.05, -0.03, 0.0])
    gu = np.array([1.0, 0.0, 0.0])
    gv = np.array([0.0, 1.0, 0.0])
    coeffs = np.empty((2, 2, 3))
    for i in range(2):
        for j in range(2):
            coeffs[i, j] = b + i * gu + j * gv
    passed = _test_square(ControlNet(coeffs), (0.5, 0.5), 0.5, 1.5)
    assert passed.status is PairStatus.PASS and passed.rho_plus == math.inf
    region = explored_region(passed, (0.5, 0.5))
    assert region == passed.test_domain


def test_explored_region_membership_closed_ball():
    # a test domain wider than the uniqueness ball leaves the ball itself
    passed = PairTest(None, PairStatus.PASS, ball((0.5, 0.5), 0.4), rho_plus=0.2)
    region = explored_region(passed, (0.5, 0.5))
    assert region.contains_point((0.7, 0.5))
    assert region.contains_point((0.3, 0.3))
    assert not region.contains_point((0.7000001, 0.5))


def test_explored_region_square_containment_is_corner_test():
    rng = np.random.default_rng(51)
    passed = PairTest(None, PairStatus.PASS, Rect(0.2, 0.9, 0.3, 0.8), rho_plus=0.25)
    region = explored_region(passed, (0.5, 0.5))
    for _ in range(200):
        c = tuple(rng.uniform(0.2, 0.8, 2))
        r = float(rng.uniform(0.01, 0.2))
        corners = [
            (c[0] - r, c[1] - r), (c[0] + r, c[1] - r),
            (c[0] - r, c[1] + r), (c[0] + r, c[1] + r),
        ]
        expected = all(region.contains_point(p) for p in corners)
        assert region_prunes_square([region], c, r) == expected


def test_explored_region_below_rounding_is_none():
    # 0.5 - 1e-17 and 0.5 + 1e-17 both round to 0.5: the ball holds one point
    passed = PairTest(None, PairStatus.PASS, ball((0.5, 0.5), 0.1), rho_plus=1e-17)
    assert explored_region(passed, (0.5, 0.5)) is None


def test_explored_region_requires_pass():
    failed = PairTest(None, PairStatus.FAIL_CONVERGENCE, ball((0.5, 0.5), 0.5))
    with pytest.raises(ValueError):
        explored_region(failed, (0.5, 0.5))


def _exact_restriction(m: int, a: float, b: float) -> np.ndarray:
    """Rational matrix taking degree-m coefficients on [0, 1] to [a, b], by blossoming."""
    a, b = Fraction(a), Fraction(b)
    matrix = np.full((m + 1, m + 1), Fraction(0), dtype=object)
    for i in range(m + 1):
        for k in range(m - i + 1):
            wa = math.comb(m - i, k) * a**k * (1 - a) ** (m - i - k)
            for j in range(i + 1):
                matrix[i, k + j] += wa * math.comb(i, j) * b**j * (1 - b) ** (i - j)
    return matrix


def _exact_elevation(p: int, q: int) -> np.ndarray:
    """Rational matrix raising degree-p Bernstein coefficients to degree q >= p."""
    return np.array(
        [[Fraction(math.comb(p, j) * math.comb(q - p, i - j), math.comb(q, i)) if 0 <= i - j <= q - p
          else Fraction(0) for j in range(p + 1)] for i in range(q + 1)],
        dtype=object,
    )


def _carried_square(net, path):
    """(net, center, half-width) of the square reached by quartering along ``path``.

    The net is carried down one quarter restriction per step, as ``solve``
    carries it; ``path`` holds quarter indices in ``QUARTERS`` order.
    """
    carried, lo_u, lo_v, width = net, 0.0, 0.0, 1.0
    for k in path:
        carried = reparametrize(carried, QUARTERS[k])
        width *= 0.5
        lo_u += QUARTERS[k].lo_u * 2.0 * width
        lo_v += QUARTERS[k].lo_v * 2.0 * width
    h = 0.5 * width
    return carried, (lo_u + h, lo_v + h), h


def _curvature(carried, half_width):
    """f_uu, f_uv and f_vv at the square's center, then at its four corners,
    as ``test_pairs`` takes them for omega's lower bound."""
    area = (2.0 * half_width) ** 2
    center = (center_jet(carried)[(2, 1, 0), (0, 1, 2)] / area).tolist()
    return [center, *(corner_seconds(carried) / area).tolist()]


def _always_restricting_test(system, net, center, half_width, scale):
    """(status, eta, omega, rho_minus, decided), omega always restricted.

    The convergence test without omega's lower bound: a non-singular square
    restricts the second-derivative nets over its test domain. ``decided``
    says whether the lower bound alone, over the center and the four
    corners, fails the square.
    """
    table = jet_table(net, (0.5, 0.5))
    value, jac = table[0, 0].tolist(), table[(1, 0), (0, 1)].T / (2.0 * half_width)
    rows = projection(*jac.T.tolist())
    if rows is None:
        return PairStatus.SINGULAR_JACOBIAN, None, None, None, False
    eta = max(abs(sum(p * f for p, f in zip(row, value))) for row in rows)
    domain = ball(center, scale * half_width)
    slack = kantorovich._floor_slack(net, half_width, domain)
    curvature = _curvature(net, half_width)
    decided = eta * kantorovich._omega_floor(system, rows, curvature, slack) > PASS_BOUND
    omega = system.omega(rows, reparametrize(system.seconds, domain).coeffs.reshape(-1, 3, 3))
    if eta * omega > PASS_BOUND:
        return PairStatus.FAIL_CONVERGENCE, eta, omega, None, decided
    rho_minus = rho_radii(eta, omega)[0]
    status = PairStatus.PASS if rho_minus <= scale * half_width else PairStatus.FAIL_CONTAINMENT
    return status, eta, omega, rho_minus, decided


def test_statuses_and_read_values_match_the_always_restricting_test():
    # Squares along random quarter paths toward a zero of the net, carried
    # down as the solver carries them, at depths 0-24 and a random scale per
    # square: some planar, some with parallel components (a singular
    # Jacobian), some passing, most failing.
    rng = np.random.default_rng(52)
    seen = {"decided": 0, "restricted failure": 0, "pass": 0, "singular": 0}
    for _ in range(300):
        m, n = (int(k) for k in rng.integers(2, 10, 2))
        coeffs = random_net_coeffs(rng, m, n)
        kind = rng.random()
        if kind < 0.2:
            coeffs[:, :, 2] = 0.0
        elif kind < 0.3:
            coeffs = coeffs[:, :, :1] * rng.normal(size=3)
        z = tuple(rng.uniform(0.0, 1.0, 2))
        net = ControlNet(coeffs - eval_net(ControlNet(coeffs), *z))
        path, lo, width = [], [0.0, 0.0], 1.0
        for _ in range(int(rng.integers(0, 25))):
            width *= 0.5
            k = int(rng.integers(0, 4)) if rng.random() < 0.1 else (
                int(z[0] >= lo[0] + width) + 2 * int(z[1] >= lo[1] + width)
            )
            lo[0] += width * (k % 2)
            lo[1] += width * (k // 2)
            path.append(k)
        carried, center, h = _carried_square(net, path)
        scale = float(1.0 + 0.05 * rng.integers(0, 31))
        system = PairSystem(net)
        (t,) = kantorovich.test_pairs(system, carried, center, h, scale).pairs
        status, eta, omega, rho_minus, decided = _always_restricting_test(
            system, carried, center, h, scale
        )
        if t.omega is None and status is not PairStatus.SINGULAR_JACOBIAN:
            seen["decided"] += 1
        elif status is PairStatus.FAIL_CONVERGENCE:
            seen["restricted failure"] += 1
        elif status is not PairStatus.FAIL_CONTAINMENT:
            seen[status.value.split("_")[0]] += 1
        assert t.status is status
        assert t.eta == eta and t.rho_minus == rho_minus
        # omega is None exactly where the lower bound decided the square.
        assert t.omega == (None if decided else omega)
    assert min(seen.values()) >= 5, seen


def test_omega_on_deep_squares_matches_exact_restriction():
    # The solver tests a depth-d square from its net carried down d quarter
    # restrictions; omega must still equal, to rounding, the bound from the
    # root's second-derivative nets raised to degrees (m, n) and restricted
    # over the test domain, both exactly.
    # Taking omega from the carried net's own second differences lost
    # relative accuracy like 2^d and undershot here by up to 1e-7.
    # omega's lower bound, at the center and over the center and the corners,
    # less its rounding allowance, must never exceed the exact omega, and it
    # must decide shallow squares.
    rng = np.random.default_rng(48)
    checked = decided = 0
    for depth in (*range(13), 20, 30, 40):
        for _ in range(2):
            m, n = (int(k) for k in rng.integers(6, 10, 2))
            net = ControlNet(random_net_coeffs(rng, m, n))
            carried, center, h = _carried_square(net, rng.integers(0, 4, depth))
            system = PairSystem(net)
            curvature = _curvature(carried, h)
            for scale in (1.0, 1.5, 2.5):
                (t,) = kantorovich.test_pairs(system, carried, center, h, scale).pairs
                if t.status is PairStatus.SINGULAR_JACOBIAN:
                    continue
                d = t.test_domain
                exact_p = np.array([[Fraction(x) for x in row] for row in t.projection], dtype=object)
                # Per net and row of P f'', the largest |coefficient|; each
                # row weighs f_uu, f_uv and f_vv as 1, 2 and 1. Raising after
                # restricting is the same identity, on smaller matrices.
                maxima = []
                for second in _second_derivative_nets(net):
                    # Fractions throughout: a Fraction times a float is a float.
                    c = np.vectorize(Fraction, otypes=[object])(second.coeffs)
                    p, q = c.shape[0] - 1, c.shape[1] - 1
                    rows = _exact_elevation(p, m).dot(_exact_restriction(p, d.lo_u, d.hi_u))
                    cols = _exact_elevation(q, n).dot(_exact_restriction(q, d.lo_v, d.hi_v))
                    by_rows = np.tensordot(rows, c, axes=(1, 0))
                    restricted = np.tensordot(cols, by_rows, axes=(1, 1)).reshape(-1, 3)
                    maxima.append(np.abs(restricted @ exact_p.T).max(axis=0))
                m_uu, m_uv, m_vv = maxima
                exact = max(m_uu + 2 * m_uv + m_vv)
                omega = full_test_omega(net, t)
                assert t.omega in (None, omega)
                assert omega >= float(exact) * (1.0 - 1e-13)
                assert omega <= float(exact) * (1.0 + 1e-13)
                slack = kantorovich._floor_slack(carried, h, d)
                at_center = kantorovich._omega_floor(system, t.projection, curvature[:1], slack)
                floor = kantorovich._omega_floor(system, t.projection, curvature, slack)
                assert at_center <= floor <= exact and floor <= omega
                if t.eta * floor > PASS_BOUND:
                    assert t.status is PairStatus.FAIL_CONVERGENCE
                    decided += depth <= 6
                checked += 1
    assert checked >= 40 and decided >= 20


def _three_net_omega(net, rows, domain):
    """omega from the second-derivative nets at their own degrees, each
    restricted to ``domain`` alone, as the test took it before raising them."""
    maxima = [np.abs(reparametrize(s, domain).coeffs.reshape(-1, 3) @ np.array(rows).T).max(axis=0)
              for s in _second_derivative_nets(net)]
    m_uu, m_uv, m_vv = maxima
    return float((m_uu + 2.0 * m_uv + m_vv).max())


def test_raised_block_omega_lies_between_the_floor_and_the_three_net_omega():
    # The raised nets' coefficients are convex combinations of the
    # originals', over any domain, so omega from the stacked raised block is
    # at most the three-net omega, up to rounding, and never below its floor
    # over the center and the corners. Planar and spatial nets of degrees
    # 0-11 per axis, carried down random paths, at random scales; then root
    # squares of degrees 50-60, where the weights at 1/2 round.
    rng = np.random.default_rng(61)
    cases = []
    for k in range(80):
        m, n = (int(d) for d in rng.integers(0, 12, 2))
        coeffs = random_net_coeffs(rng, m, n)
        if k % 2:
            coeffs[:, :, 2] = 0.0
        path = rng.integers(0, 4, int(rng.integers(0, 12)))
        cases.append((ControlNet(coeffs), path, float(1.0 + 0.25 * rng.integers(0, 9))))
    cases += [(ControlNet(random_net_coeffs(rng, m, 110 - m)), [], 1.0) for m in (50, 55, 60)]
    checked = sharper = 0
    for net, path, scale in cases:
        system = PairSystem(net)
        assert system.seconds.coeffs.shape == (net.degree_u + 1, net.degree_v + 1, 9)
        carried, center, h = _carried_square(net, path)
        (t,) = kantorovich.test_pairs(system, carried, center, h, scale).pairs
        if t.status is PairStatus.SINGULAR_JACOBIAN:
            continue
        omega = full_test_omega(net, t)
        three = _three_net_omega(net, t.projection, t.test_domain)
        assert omega <= three * (1.0 + 1e-12), (net.degree_u, net.degree_v)
        slack = kantorovich._floor_slack(carried, h, t.test_domain)
        assert kantorovich._omega_floor(system, t.projection, _curvature(carried, h), slack) <= omega
        checked += 1
        sharper += omega < three * (1.0 - 1e-6)
    # 74 checked, 17 sharper: most maxima sit on a corner coefficient, which raising keeps.
    assert checked >= 60 and sharper >= 10, (checked, sharper)


def test_cached_floor_slack_is_its_formula_bit_for_bit():
    # ``_floor_slack`` caches the factors that depend only on the degrees and
    # the half-width; the slack must stay the formula written out, on a first
    # call and on a cached one, for domains inside and past the unit square.
    # From degree 50 the weights at 1/2 round, and the depth levels double.
    rng = np.random.default_rng(20)
    for m, n in ((0, 0), (1, 3), (3, 1), (9, 9), (13, 12), (16, 10), (50, 3), (57, 60)):
        net = ControlNet(rng.normal(size=(m + 1, n + 1, 3)))
        for depth in (0, 1, 5, 17, 40):
            h = 2.0 ** -(depth + 1)
            width = 2.0 * h
            levels = (max(0, 1 - math.frexp(width)[1]) + 2) / (width * width)
            levels *= 1 if max(m, n) < 50 else 2
            for center in ((0.5, 0.5), (h, 1.0 - h), (0.375, 0.625)):
                for scale in (1.0, 1.45, 1.5, 3.0, 1e3):
                    domain = ball(center, scale * h)
                    growth = restriction_growth(net, domain)
                    expected = (32 * (m + n + 2) * max(m, n) ** 2 * 2.0**-53
                                * (levels + 8.0 * growth))
                    for _ in range(2):
                        assert kantorovich._floor_slack(net, h, domain) == expected
    # A domain so far out that the growth overflows gives an infinite slack.
    net = ControlNet(rng.normal(size=(17, 11, 3)))
    domain = ball((0.5, 0.5), 1e15)
    assert restriction_growth(net, domain) == math.inf
    assert kantorovich._floor_slack(net, 0.5, domain) == math.inf


def _as_integers(values: np.ndarray) -> tuple[np.ndarray, int]:
    """Floats as Python ints over one common power-of-two denominator."""
    ratios = [x.as_integer_ratio() for x in values.ravel().tolist()]
    d = max(q for _, q in ratios)
    return np.array([p * (d // q) for p, q in ratios], dtype=object).reshape(values.shape), d


def _exact_unit_omega(net, rows):
    """omega over the unit square in exact arithmetic, from the second
    differences of ``net`` and the projection ``rows``, in integers."""
    (c, dc), (p, dp) = _as_integers(net.coeffs), _as_integers(np.array(rows))
    m, n = net.degree_u, net.degree_v
    du, dv = m * (c[1:] - c[:-1]), n * (c[:, 1:] - c[:, :-1])
    seconds = ((m - 1) * (du[1:] - du[:-1]), n * (du[:, 1:] - du[:, :-1]),
               (n - 1) * (dv[:, 1:] - dv[:, :-1]))
    m_uu, m_uv, m_vv = (np.abs(s.reshape(-1, 3) @ p.T).max(axis=0) for s in seconds)
    return Fraction(max(m_uu + 2 * m_uv + m_vv), dc * dp)


def test_omega_floor_stays_below_the_exact_omega_where_the_weights_round():
    # From degree 50 the center weights at 1/2 round; the lower bound's
    # allowance covers that, so at degrees 50-60 the floor over the center
    # and the corners of the root square, at scale 1, stays at most the
    # exact omega over the unit square. On nets quadratic in the indices,
    # whose second differences are exactly constant, the floor comes within
    # 1e-6 of it. The proof takes P as given, so it holds for the net's own
    # projection and for any other; two random ones are checked too.
    rng = np.random.default_rng(58)
    checked = 0
    for m in range(50, 61):
        n = 110 - m
        i, j = np.meshgrid(np.arange(m + 1.0), np.arange(n + 1.0), indexing="ij")
        terms = np.stack([i * i, i * j, j * j, i, j, np.ones_like(i)], axis=-1)
        quadratic = np.ldexp(terms @ rng.integers(-50, 51, (6, 3)).astype(float), -20)
        for net, tight in ((ControlNet(random_net_coeffs(rng, m, n)), False),
                           (ControlNet(quadratic), True)):
            slack = kantorovich._floor_slack(net, 0.5, Rect(0.0, 1.0, 0.0, 1.0))
            curvature = _curvature(net, 0.5)
            own = projection(*jet_table(net, (0.5, 0.5))[(1, 0), (0, 1)].tolist())
            for k, rows in enumerate([own, *(rng.normal(size=(2, 3)).tolist() for _ in range(2))]):
                floor = kantorovich._omega_floor(PairSystem(net), rows, curvature, slack)
                exact = _exact_unit_omega(net, rows)
                assert floor <= exact, (m, k)
                assert not tight or floor >= exact * (1 - Fraction(1, 10**6)), (m, k)
                checked += 1
    assert checked >= 60


def test_a_slack_too_large_fails_the_pair_without_omega(monkeypatch):
    # A test domain whose floor slack reaches _MAX_SLACK fails a non-singular
    # square as a convergence failure and restricts nothing.
    net = ControlNet(np.random.default_rng(21).normal(size=(17, 11, 3)))
    monkeypatch.setattr(kantorovich, "reparametrize", _unreachable)
    for scale in (1e15, 1e300):
        (t,) = kantorovich.test_pairs(PairSystem(net), net, (0.5, 0.5), 0.5, scale).pairs
        assert t.status is PairStatus.FAIL_CONVERGENCE
        assert t.eta is not None and t.omega is None


def _unreachable(*args):
    raise AssertionError("restricted a domain whose slack fails its square")
