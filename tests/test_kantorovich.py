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
from cci.engine import Square, region_prunes_square
from cci.geometry import (
    QUARTERS,
    ControlNet,
    Rect,
    center_jet,
    eval_net,
    extract_pair,
    jet,
    reparametrize,
)
from cci.kantorovich import (
    COMPONENT_PAIRS,
    PairStatus,
    PairSystem,
    PairTest,
    explored_region,
    inverse_2x2,
    rho_radii,
    second_derivative_nets,
)
from cci.newton import newton_solve
from conftest import (
    bernstein_to_monomial,
    full_test_omega,
    horner,
    monomial_grid,
    newton_path,
    pair_test_at,
    random_net_coeffs,
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


def _fit_bernstein_max_abs(fn, degrees, domain: Rect) -> float:
    """Max |Bernstein coefficient| of fn restricted to domain, by lstsq fit."""
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
    return float(np.abs(coeffs).max())


def _oracle_pair_quantities(pair_coeffs, x0, domain: Rect):
    """(eta, omega) for a 2-component net via the monomial route."""
    mono = _mono2(pair_coeffs)
    du, dv = _mono_du(mono), _mono_dv(mono)
    jac = np.stack([_mono_eval(du, *x0), _mono_eval(dv, *x0)], axis=1)
    step = np.linalg.solve(jac, _mono_eval(mono, *x0))
    eta_value = float(np.abs(step).max())
    jac_inv = np.linalg.inv(jac)
    m = pair_coeffs.shape[0] - 1
    n = pair_coeffs.shape[1] - 1
    seconds = [
        (_mono_du(du), (max(m - 2, 0), n)),
        (_mono_dv(du), (max(m - 1, 0), max(n - 1, 0))),
        (_mono_dv(dv), (m, max(n - 2, 0))),
    ]
    worst = 0.0
    for mono_second, degrees in seconds:
        def entry(u, v, ms=mono_second):
            return jac_inv @ _mono_eval(ms, u, v)
        worst = max(worst, _fit_bernstein_max_abs(entry, degrees, domain))
    return eta_value, 4.0 * worst


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

def _eta(jac, value):
    return float(np.abs(np.array(inverse_2x2(jac)) @ value).max())


def test_eta_zero_value():
    assert _eta(np.eye(2), np.zeros(2)) == 0.0


def test_eta_identity_jacobian():
    assert np.array_equal(inverse_2x2(np.eye(2)), np.eye(2))
    assert _eta(np.eye(2), np.array([0.3, -0.1])) == pytest.approx(0.3, abs=0)


def test_eta_matches_lapack_solve():
    rng = np.random.default_rng(40)
    for _ in range(50):
        jac = rng.normal(size=(2, 2))
        if abs(np.linalg.det(jac)) < 0.1:
            continue
        value = rng.normal(size=2)
        expected = np.linalg.solve(jac, value)
        assert np.abs(np.array(inverse_2x2(jac)) @ value - expected).max() <= 1e-12
        assert _eta(jac, value) == pytest.approx(float(np.abs(expected).max()), abs=1e-12)


def test_inverse_2x2_singular_is_none():
    assert inverse_2x2(np.array([[1.0, 2.0], [2.0, 4.0]])) is None


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
        jac_inv = inverse_2x2(jac)
        if singular:
            assert jac_inv is None
        else:
            assert jac_inv is not None
            assert np.array_equal(jac_inv, np.diag([1.0 / norm, 1.0 / x]))


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
        omega, domain = full_test_omega(net, jet(net, x0)[1], test), test.test_domain
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
        jac0 = jet(net, x0)[1]
        values = [full_test_omega(net, jac0, t) for t in tests]
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

def _test_square(net, center, half_width, scales):
    """``test_pairs`` on one square of a net given over the unit square."""
    systems = [PairSystem(net, pair) for pair in COMPONENT_PAIRS]
    square = reparametrize(net, Rect.ball(center, half_width))
    return kantorovich.test_pairs(
        systems, second_derivative_nets(net), square, center, half_width, scales
    )


def test_pass_at_exact_transversal_zero():
    # crossing segments: center of the unit square is an exact zero
    coeffs = np.array(
        [[[-1, 0, 0], [0, -1, 0]], [[0, 1, 0], [1, 0, 0]]], dtype=float
    )
    outcome = _test_square(ControlNet(coeffs), (0.5, 0.5), 0.5, (1.5, 1.5, 1.5))
    passed = outcome.passed
    assert passed is not None and passed.pair == (0, 1)
    assert passed.eta == 0.0
    assert passed.eta * passed.omega == 0.0
    assert passed.rho_minus == 0.0


def test_fail_containment_for_far_affine_zero():
    # affine full net whose (0,1) zero is far outside the test domain
    b = np.array([10.0, 10.0, 0.0])
    gu = np.array([1.0, 0.0, 0.0])
    gv = np.array([0.0, 1.0, 0.0])
    m = n = 1
    coeffs = np.empty((2, 2, 3))
    for i in range(2):
        for j in range(2):
            coeffs[i, j] = b + i * gu + j * gv
    outcome = _test_square(ControlNet(coeffs), (0.5, 0.5), 0.1, (1.5, 1.5, 1.5))
    t = outcome.pairs[0]
    assert t.pair == (0, 1)
    assert t.status is PairStatus.FAIL_CONTAINMENT
    assert t.eta * t.omega == 0.0 and t.omega == 0.0
    assert t.rho_minus == t.eta > 0.15


def test_singular_pairs_recorded_for_planar_curves():
    rng = np.random.default_rng(45)
    coeffs = random_net_coeffs(rng, 3, 3)
    coeffs[:, :, 2] = 0.0
    outcome = _test_square(ControlNet(coeffs), (0.5, 0.5), 0.25, (1.5, 1.5, 1.5))
    if outcome.passed is None:
        assert [t.pair for t in outcome.pairs] == list(COMPONENT_PAIRS)
        assert outcome.pairs[1].status is PairStatus.SINGULAR_JACOBIAN
        assert outcome.pairs[2].status is PairStatus.SINGULAR_JACOBIAN


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


@pytest.mark.parametrize("planar, restrictions, omegas", [(False, 6, 3), (True, 3, 1)])
def test_one_restriction_per_net_and_domain_one_omega_per_pair(
    monkeypatch, planar, restrictions, omegas
):
    # An affine map has omega = 0, so omega's lower bound decides nothing and
    # every non-singular pair takes the full test. Scales (1.5, 1.5, 1.45)
    # give two test domains; each restricts the three second-derivative nets
    # once, and only when a non-singular pair needs it. The zero lies far
    # outside the domains, so every pair fails containment.
    b = np.array([8.0, 8.0, 0.0 if planar else 8.0])
    gu = np.array([1.0, 0.0, 0.0 if planar else 0.5])
    gv = np.array([0.0, 1.0, 0.0 if planar else -0.5])
    coeffs = np.array([[b + (i / 2) * gu + (j / 2) * gv for j in range(3)] for i in range(3)])
    calls = _count_restrictions_and_omegas(monkeypatch)
    outcome = _test_square(ControlNet(coeffs), (0.5, 0.5), 0.5, (1.5, 1.5, 1.45))
    assert outcome.passed is None and len(outcome.pairs) == 3
    singular = [t.status is PairStatus.SINGULAR_JACOBIAN for t in outcome.pairs]
    assert singular == [False, planar, planar]
    assert outcome.pairs[0].status is PairStatus.FAIL_CONTAINMENT
    assert calls == {"reparametrize": restrictions, "omega": omegas}


def test_pairs_failed_by_omegas_lower_bound_restrict_nothing(monkeypatch):
    calls = _count_restrictions_and_omegas(monkeypatch)
    coeffs = random_net_coeffs(np.random.default_rng(49), 5, 4)
    outcome = _test_square(ControlNet(coeffs), (0.5, 0.5), 0.5, (1.5, 1.5, 1.45))
    assert [t.status for t in outcome.pairs] == [PairStatus.FAIL_CONVERGENCE] * 3
    assert all(t.omega is None for t in outcome.pairs)
    assert calls == {"reparametrize": 0, "omega": 0}


def test_classification_matches_monomial_reimplementation():
    rng = np.random.default_rng(46)
    checked = 0
    while checked < 25:
        coeffs = random_net_coeffs(rng, 3, 3)
        x0 = tuple(rng.uniform(0.3, 0.7, 2))
        r = float(rng.uniform(0.05, 0.3))
        scale = float(rng.uniform(1.0, 2.5))
        net = ControlNet(coeffs)
        outcome = _test_square(net, x0, r, (scale,) * 3)
        jac = jet(reparametrize(net, Rect.ball(x0, r)), (0.5, 0.5))[1] / (2.0 * r)
        for t in outcome.pairs:
            if t.status is PairStatus.SINGULAR_JACOBIAN:
                continue
            eta_o, omega_o = _oracle_pair_quantities(
                coeffs[:, :, list(t.pair)], x0, t.test_domain
            )
            omega = full_test_omega(net, jac, t)
            assert t.omega in (None, omega)
            assert t.eta == pytest.approx(eta_o, rel=1e-9, abs=1e-12)
            assert omega == pytest.approx(omega_o, rel=1e-7, abs=1e-9)
            h_o = eta_o * omega_o
            # skip instances within noise of a decision boundary
            if abs(h_o - 0.25) < 1e-6:
                continue
            if h_o > 0.25:
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
        outcome = _test_square(ControlNet(net3), x0, 0.1, (1.5, 1.5, 1.5))
        if outcome.passed is not None:
            found.append((ControlNet(net3), x0, outcome.passed))
    return found


def test_pass_soundness_newton_lands_in_existence_ball():
    for net3, x0, passed in _passing_instances(48, 20):
        pair_net = extract_pair(net3, passed.pair)
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
        pair_net = extract_pair(net3, passed.pair)
        result = newton_solve(pair_net, x0, tol=1e-10, max_iter=30)
        assert result.converged
        root = np.array(result.root)
        base = 1.0 - math.sqrt(1.0 - 2.0 * h)
        for k, p in enumerate(newton_path(pair_net, x0, tol=1e-10, max_iter=30)):
            bound = (passed.eta / h) * (base ** (2.0**k)) / (2.0**k)
            dist = np.abs(np.array(p) - root).max()
            assert dist <= bound + 1e-9


def test_uniqueness_inside_explored_region():
    for net3, x0, passed in _passing_instances(50, 8):
        pair_net = extract_pair(net3, passed.pair)
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
    outcome = _test_square(ControlNet(coeffs), (0.5, 0.5), 0.5, (1.5, 1.5, 1.5))
    passed = outcome.passed
    assert passed is not None and passed.rho_plus == math.inf
    region = explored_region(passed, (0.5, 0.5))
    assert region == passed.test_domain


def test_explored_region_membership_closed_ball():
    # a test domain wider than the uniqueness ball leaves the ball itself
    passed = PairTest((0, 1), PairStatus.PASS, Rect.ball((0.5, 0.5), 0.4), rho_plus=0.2)
    region = explored_region(passed, (0.5, 0.5))
    assert region.contains_point((0.7, 0.5))
    assert region.contains_point((0.3, 0.3))
    assert not region.contains_point((0.7000001, 0.5))


def test_explored_region_square_containment_is_corner_test():
    rng = np.random.default_rng(51)
    passed = PairTest((0, 1), PairStatus.PASS, Rect(0.2, 0.9, 0.3, 0.8), rho_plus=0.25)
    region = explored_region(passed, (0.5, 0.5))
    for _ in range(200):
        c = tuple(rng.uniform(0.2, 0.8, 2))
        r = float(rng.uniform(0.01, 0.2))
        corners = [
            (c[0] - r, c[1] - r), (c[0] + r, c[1] - r),
            (c[0] - r, c[1] + r), (c[0] + r, c[1] + r),
        ]
        expected = all(region.contains_point(p) for p in corners)
        assert region_prunes_square([region], Square(c, r, (1.5, 1.5, 1.5))) == expected


def test_explored_region_below_rounding_is_none():
    # 0.5 - 1e-17 and 0.5 + 1e-17 both round to 0.5: the ball holds one point
    passed = PairTest((0, 1), PairStatus.PASS, Rect.ball((0.5, 0.5), 0.1), rho_plus=1e-17)
    assert explored_region(passed, (0.5, 0.5)) is None


def test_explored_region_requires_pass():
    failed = PairTest((0, 1), PairStatus.FAIL_CONVERGENCE, Rect.ball((0.5, 0.5), 0.5))
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
    """f_uu, f_uv and f_vv at the square's center, as ``test_pairs`` takes them."""
    grid = center_jet(carried)
    return (grid[(2, 1, 0), (0, 1, 2)] / (2.0 * half_width) ** 2).tolist()


def _always_restricting_test(systems, seconds, net, center, half_width, scales):
    """(status, eta, omega, rho_minus, decided) per tested pair, omega always
    restricted.

    The convergence test without omega's lower bound: every non-singular
    pair restricts the second-derivative nets over its test domain.
    ``decided`` says whether the lower bound alone fails the pair.
    """
    value, jac = jet(net, (0.5, 0.5))
    value, jac = value.tolist(), jac / (2.0 * half_width)
    curvature = _curvature(net, half_width)
    results = []
    for system, scale in zip(systems, scales):
        i, k = system.pair
        jac_inv = inverse_2x2(jac[[i, k]])
        if jac_inv is None:
            results.append((PairStatus.SINGULAR_JACOBIAN, None, None, None, False))
            continue
        (a, b), (c, d) = jac_inv
        eta = max(abs(a * value[i] + b * value[k]), abs(c * value[i] + d * value[k]))
        domain = Rect.ball(center, scale * half_width)
        slack = kantorovich._floor_slack(net, half_width, domain)
        decided = eta * kantorovich._omega_floor(system, jac_inv, curvature, slack) > 0.25
        block = np.concatenate([reparametrize(n, domain).coeffs.reshape(-1, 3) for n in seconds])
        omega = system.omega(jac_inv, block)
        if eta * omega > 0.25:
            results.append((PairStatus.FAIL_CONVERGENCE, eta, omega, None, decided))
            continue
        rho_minus = rho_radii(eta, omega)[0]
        status = PairStatus.PASS if rho_minus <= scale * half_width else PairStatus.FAIL_CONTAINMENT
        results.append((status, eta, omega, rho_minus, decided))
        if status is PairStatus.PASS:
            break
    return results


def test_statuses_and_read_values_match_the_always_restricting_test():
    # Squares along random quarter paths toward a zero of the net, carried
    # down as the solver carries them, at depths 0-24 and random per-pair
    # scales: some planar (singular pairs), some passing, most failing.
    rng = np.random.default_rng(52)
    seen = {"decided": 0, "restricted failure": 0, "pass": 0, "singular": 0}
    for _ in range(300):
        m, n = (int(k) for k in rng.integers(2, 10, 2))
        coeffs = random_net_coeffs(rng, m, n)
        if rng.random() < 0.2:
            coeffs[:, :, 2] = 0.0
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
        scales = tuple(float(x) for x in 1.0 + 0.05 * rng.integers(0, 31, 3))
        seconds = second_derivative_nets(net)
        systems = [PairSystem(net, pair) for pair in COMPONENT_PAIRS]
        outcome = kantorovich.test_pairs(systems, seconds, carried, center, h, scales)
        expected = _always_restricting_test(systems, seconds, carried, center, h, scales)
        assert len(outcome.pairs) == len(expected)
        for t, (status, eta, omega, rho_minus, decided) in zip(outcome.pairs, expected):
            if t.omega is None and status is not PairStatus.SINGULAR_JACOBIAN:
                seen["decided"] += 1
            elif status is PairStatus.FAIL_CONVERGENCE:
                seen["restricted failure"] += 1
            elif status is not PairStatus.FAIL_CONTAINMENT:
                seen[status.value.split("_")[0]] += 1
            assert t.status is status
            assert t.eta == eta and t.rho_minus == rho_minus
            # omega is None exactly where the lower bound decided the pair.
            assert t.omega == (None if decided else omega)
    assert min(seen.values()) >= 5, seen


def test_omega_on_deep_squares_matches_exact_restriction():
    # The solver tests a depth-d square from its net carried down d quarter
    # restrictions; omega must still equal, to rounding, the bound from the
    # root's second-derivative nets restricted exactly over the test domain.
    # Taking omega from the carried net's own second differences lost
    # relative accuracy like 2^d and undershot here by up to 1e-7.
    # omega's lower bound at the center, less its rounding allowance, must
    # never exceed the exact omega, and it must decide shallow squares.
    rng = np.random.default_rng(48)
    checked = decided = 0
    for depth in (*range(13), 20, 30, 40):
        m, n = (int(k) for k in rng.integers(6, 10, 2))
        net = ControlNet(random_net_coeffs(rng, m, n))
        carried, center, h = _carried_square(net, rng.integers(0, 4, depth))
        seconds = second_derivative_nets(net)
        systems = [PairSystem(net, pair) for pair in COMPONENT_PAIRS]
        jac = jet(carried, (0.5, 0.5))[1] / (2.0 * h)
        curvature = _curvature(carried, h)
        for scale in (1.0, 1.5, 2.5):
            outcome = kantorovich.test_pairs(systems, seconds, carried, center, h, (scale,) * 3)
            d = outcome.pairs[0].test_domain
            restricted = []
            for second in seconds:
                c = second.coeffs.astype(object)
                rows = _exact_restriction(c.shape[0] - 1, d.lo_u, d.hi_u)
                cols = _exact_restriction(c.shape[1] - 1, d.lo_v, d.hi_v)
                restricted.append(np.einsum("ik,kld,jl->ijd", rows, c, cols).reshape(-1, 3))
            restricted = np.concatenate(restricted)
            for system, t in zip(systems, outcome.pairs):
                if t.status is PairStatus.SINGULAR_JACOBIAN:
                    continue
                pair = list(t.pair)
                jac_inv = inverse_2x2(jac[pair])
                exact_inv = np.array([[Fraction(x) for x in row] for row in jac_inv], dtype=object)
                exact = 4 * max(abs(x) for x in (restricted[:, pair] @ exact_inv.T).flat)
                omega = full_test_omega(net, jac, t)
                assert t.omega in (None, omega)
                assert omega >= float(exact) * (1.0 - 1e-13)
                assert omega <= float(exact) * (1.0 + 1e-13)
                slack = kantorovich._floor_slack(carried, h, d)
                floor = kantorovich._omega_floor(system, jac_inv, curvature, slack)
                assert floor <= exact and floor <= omega
                if t.eta * floor > 0.25:
                    assert t.status is PairStatus.FAIL_CONVERGENCE
                    decided += depth <= 6
                checked += 1
    assert checked >= 40 and decided >= 20
