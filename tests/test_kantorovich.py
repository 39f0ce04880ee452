"""Convergence-test module checks.

The classification oracle here re-derives every quantity through monomial
algebra (power-basis differentiation, LAPACK solves, least-squares Bernstein
fits) so it shares no code with the de Casteljau implementation under test.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from cci import kantorovich
from cci.geometry import ControlNet, Rect, eval_net, jet, reparametrize, sample_net
from cci.kantorovich import (
    COMPONENT_PAIRS,
    ExploredRegion,
    PairStatus,
    PairSystem,
    SingularJacobianError,
    eta,
    explored_region,
    kantorovich_test,
    lipschitz_bound,
    rho_radii,
    second_derivative_nets,
)
from cci.newton import newton_solve
from conftest import bernstein_to_monomial, horner, random_net_coeffs


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
    values = np.array(
        [fn(*domain.map_from_unit(s, t)) for s in su for t in sv]
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
# eta

def test_eta_zero_value():
    assert eta(np.eye(2), np.zeros(2)) == 0.0


def test_eta_identity_jacobian():
    assert eta(np.eye(2), np.array([0.3, -0.1])) == pytest.approx(0.3, abs=0)


def test_eta_matches_lapack_solve():
    rng = np.random.default_rng(40)
    for _ in range(50):
        jac = rng.normal(size=(2, 2))
        if abs(np.linalg.det(jac)) < 0.1:
            continue
        value = rng.normal(size=2)
        expected = float(np.abs(np.linalg.solve(jac, value)).max())
        assert eta(jac, value) == pytest.approx(expected, abs=1e-12)


def test_eta_singular_raises():
    with pytest.raises(SingularJacobianError):
        eta(np.array([[1.0, 2.0], [2.0, 4.0]]), np.array([1.0, 1.0]))


# ---------------------------------------------------------------------------
# Lipschitz bound

def test_lipschitz_bound_affine_is_zero():
    # dyadic coefficients keep the second-derivative cancellation exact
    net = _affine_net_2(
        np.array([0.25, -0.5]), np.array([1.0, 0.5]), np.array([-0.5, 2.0])
    )
    assert lipschitz_bound(net, (0.5, 0.5), Rect.ball((0.5, 0.5), 0.75)) == 0.0


def test_lipschitz_bound_scale_invariant():
    rng = np.random.default_rng(41)
    domain = Rect.ball((0.5, 0.5), 0.75)
    for _ in range(20):
        coeffs = random_net_coeffs(rng, 3, 3, d=2)
        base = lipschitz_bound(ControlNet(coeffs), (0.5, 0.5), domain)
        for c in (2.0, -3.5, 1e-4):
            scaled = lipschitz_bound(ControlNet(c * coeffs), (0.5, 0.5), domain)
            assert scaled == pytest.approx(base, rel=1e-12)


def test_lipschitz_inequality_sampled():
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 10:
        net = ControlNet(random_net_coeffs(rng, 3, 3, d=2))
        x0 = (0.5, 0.5)
        domain = Rect.ball(x0, 0.6)
        try:
            omega = lipschitz_bound(net, x0, domain)
        except SingularJacobianError:
            continue
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
        try:
            values = [
                lipschitz_bound(net, x0, Rect.ball(x0, r))
                for r in (0.2, 0.4, 0.6, 0.9)
            ]
        except SingularJacobianError:
            continue
        for small, big in zip(values, values[1:]):
            assert small <= big * (1.0 + 1e-12)


def test_lipschitz_bound_singular_raises():
    net = ControlNet(np.zeros((3, 3, 2)))
    with pytest.raises(SingularJacobianError):
        lipschitz_bound(net, (0.5, 0.5), Rect.ball((0.5, 0.5), 0.75))


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

def test_pass_at_exact_transversal_zero():
    # crossing segments: center of the unit square is an exact zero
    coeffs = np.array(
        [[[-1, 0, 0], [0, -1, 0]], [[0, 1, 0], [1, 0, 0]]], dtype=float
    )
    outcome = kantorovich_test(ControlNet(coeffs), (0.5, 0.5), 0.5, (1.5, 1.5, 1.5))
    passed = outcome.passed
    assert passed is not None and passed.pair == (0, 1)
    assert passed.eta == 0.0
    assert passed.h == 0.0
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
    outcome = kantorovich_test(ControlNet(coeffs), (0.5, 0.5), 0.1, (1.5, 1.5, 1.5))
    t = outcome.by_pair((0, 1))
    assert t is not None
    assert t.status is PairStatus.FAIL_CONTAINMENT
    assert t.h == 0.0 and t.omega == 0.0
    assert t.rho_minus == t.eta > 0.15


def test_singular_pairs_recorded_for_planar_curves():
    rng = np.random.default_rng(45)
    coeffs = random_net_coeffs(rng, 3, 3)
    coeffs[:, :, 2] = 0.0
    outcome = kantorovich_test(ControlNet(coeffs), (0.5, 0.5), 0.25, (1.5, 1.5, 1.5))
    if outcome.passed is None:
        assert outcome.by_pair((0, 2)).status is PairStatus.SINGULAR_JACOBIAN
        assert outcome.by_pair((1, 2)).status is PairStatus.SINGULAR_JACOBIAN


def test_classification_matches_monomial_reimplementation():
    rng = np.random.default_rng(46)
    checked = 0
    while checked < 25:
        coeffs = random_net_coeffs(rng, 3, 3)
        x0 = tuple(rng.uniform(0.3, 0.7, 2))
        r = float(rng.uniform(0.05, 0.3))
        scale = float(rng.uniform(1.0, 2.5))
        outcome = kantorovich_test(ControlNet(coeffs), x0, r, (scale,) * 3)
        for t in outcome.pairs:
            if t.status is PairStatus.SINGULAR_JACOBIAN:
                continue
            eta_o, omega_o = _oracle_pair_quantities(
                coeffs[:, :, list(t.pair)], x0, t.test_domain
            )
            assert t.eta == pytest.approx(eta_o, rel=1e-9, abs=1e-12)
            assert t.omega == pytest.approx(omega_o, rel=1e-7, abs=1e-9)
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
        domain = Rect.ball(x0, 0.4)
        base_net = ControlNet(coeffs)
        mixed_net = ControlNet(coeffs @ mat.T)
        try:
            omega_a = lipschitz_bound(base_net, x0, domain)
            omega_b = lipschitz_bound(mixed_net, x0, domain)
        except SingularJacobianError:
            continue
        mono = _mono2(coeffs)
        jac = np.stack(
            [_mono_eval(_mono_du(mono), *x0), _mono_eval(_mono_dv(mono), *x0)], axis=1
        )
        value = _mono_eval(mono, *x0)
        eta_a = eta(jac, value)
        eta_b = eta(mat @ jac, mat @ value)
        assert eta_b == pytest.approx(eta_a, rel=1e-9, abs=1e-12)
        assert omega_b == pytest.approx(omega_a, rel=1e-9, abs=1e-12)
        checked += 1


# ---------------------------------------------------------------------------
# Pass soundness and the convergence-speed bound

def _passing_instances(seed, count):
    rng = np.random.default_rng(seed)
    found = []
    while len(found) < count:
        z = tuple(rng.uniform(0.35, 0.65, 2))
        net3 = random_net_coeffs(rng, 3, 3)
        net3 -= sample_net(ControlNet(net3), [z[0]], [z[1]])[0, 0]
        x0 = tuple(z + rng.uniform(-0.05, 0.05, 2))
        outcome = kantorovich_test(ControlNet(net3), x0, 0.1, (1.5, 1.5, 1.5))
        if outcome.passed is not None:
            found.append((ControlNet(net3), x0, outcome.passed))
    return found


def test_pass_soundness_newton_lands_in_existence_ball():
    for net3, x0, passed in _passing_instances(48, 20):
        from cci.geometry import extract_pair

        pair_net = extract_pair(net3, passed.pair)
        result = newton_solve(pair_net, x0, tol=1e-7, max_iter=30, keep_path=True)
        assert result.converged
        dist = max(abs(result.root[0] - x0[0]), abs(result.root[1] - x0[1]))
        assert dist <= passed.rho_minus + 1e-9
        # iterates never leave the existence ball
        for p in result.path:
            assert max(abs(p[0] - x0[0]), abs(p[1] - x0[1])) <= passed.rho_minus + 1e-9


def test_convergence_speed_bound_along_iterates():
    for net3, x0, passed in _passing_instances(49, 20):
        if not passed.h or passed.h <= 0.0:
            continue
        from cci.geometry import extract_pair

        pair_net = extract_pair(net3, passed.pair)
        result = newton_solve(pair_net, x0, tol=1e-10, max_iter=30, keep_path=True)
        assert result.converged
        root = np.array(result.root)
        base = 1.0 - math.sqrt(1.0 - 2.0 * passed.h)
        for k, p in enumerate(result.path):
            bound = (passed.eta / passed.h) * (base ** (2.0**k)) / (2.0**k)
            dist = np.abs(np.array(p) - root).max()
            assert dist <= bound + 1e-9


def test_uniqueness_inside_explored_region():
    from cci.geometry import extract_pair

    for net3, x0, passed in _passing_instances(50, 8):
        pair_net = extract_pair(net3, passed.pair)
        result = newton_solve(pair_net, x0, tol=1e-10, max_iter=30)
        assert result.converged
        region = explored_region(passed, x0, result.root, clip=True)
        lo_u, hi_u, lo_v, hi_v = region.bounds()
        us = np.linspace(lo_u, hi_u, 80)
        vs = np.linspace(lo_v, hi_v, 80)
        grid = np.abs(sample_net(pair_net, us, vs)).max(axis=2)
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
    outcome = kantorovich_test(ControlNet(coeffs), (0.5, 0.5), 0.5, (1.5, 1.5, 1.5))
    passed = outcome.passed
    assert passed is not None and passed.rho_plus == math.inf
    region = explored_region(passed, (0.5, 0.5), (0.45, 0.53), clip=True)
    d = passed.test_domain
    assert region.bounds() == (d.lo_u, d.hi_u, d.lo_v, d.hi_v)


def test_explored_region_membership_closed_ball():
    region = ExploredRegion(
        center=(0.5, 0.5), rho_minus=0.1, rho_plus=0.2, pair=(0, 1),
        clip=None, zero=(0.5, 0.5),
    )
    assert region.contains_point((0.7, 0.5))
    assert region.contains_point((0.3, 0.3))
    assert not region.contains_point((0.7000001, 0.5))


def test_explored_region_square_containment_is_corner_test():
    rng = np.random.default_rng(51)
    region = ExploredRegion(
        center=(0.5, 0.5), rho_minus=0.1, rho_plus=0.25, pair=(0, 1),
        clip=Rect(0.2, 0.9, 0.3, 0.8), zero=(0.5, 0.5),
    )
    for _ in range(200):
        c = tuple(rng.uniform(0.2, 0.8, 2))
        r = float(rng.uniform(0.01, 0.2))
        corners = [
            (c[0] - r, c[1] - r), (c[0] + r, c[1] - r),
            (c[0] - r, c[1] + r), (c[0] + r, c[1] + r),
        ]
        expected = all(region.contains_point(p) for p in corners)
        assert region.contains_square(c, r) == expected


def test_explored_region_requires_pass():
    from cci.kantorovich import PairTest

    failed = PairTest((0, 1), PairStatus.FAIL_CONVERGENCE, Rect.ball((0.5, 0.5), 0.5))
    with pytest.raises(ValueError):
        explored_region(failed, (0.5, 0.5), (0.5, 0.5))


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


def test_omega_on_deep_squares_matches_exact_restriction():
    # The solver tests a depth-d square from its net carried down d quarter
    # restrictions; omega must still equal, to rounding, the bound from the
    # root's second-derivative nets restricted exactly over the test domain.
    # Taking omega from the carried net's own second differences lost
    # relative accuracy like 2^d and undershot here by up to 1e-7.
    rng = np.random.default_rng(48)
    quarters = [Rect(a, a + 0.5, b, b + 0.5) for b in (0.0, 0.5) for a in (0.0, 0.5)]
    checked = 0
    for depth in (20, 30, 40):
        for _ in range(2):
            m, n = (int(k) for k in rng.integers(6, 10, 2))
            net = ControlNet(random_net_coeffs(rng, m, n))
            carried, lo_u, lo_v, width = net, 0.0, 0.0, 1.0
            for k in rng.integers(0, 4, depth):
                carried = reparametrize(carried, quarters[k])
                width *= 0.5
                lo_u += quarters[k].lo_u * 2.0 * width
                lo_v += quarters[k].lo_v * 2.0 * width
            h = 0.5 * width
            center = (lo_u + h, lo_v + h)
            seconds = second_derivative_nets(net)
            systems = [PairSystem(net, pair) for pair in COMPONENT_PAIRS]
            for scale in (1.0, 1.5, 2.5):
                outcome = kantorovich.test_pairs(
                    systems, seconds, carried, center, h, (scale,) * 3
                )
                jac = jet(carried, (0.5, 0.5))[1] / width
                for t in outcome.pairs:
                    if t.status is PairStatus.SINGULAR_JACOBIAN:
                        continue
                    pair = list(t.pair)
                    jac_inv = np.linalg.inv(jac[pair])
                    d = t.test_domain
                    exact = 0.0
                    for second in seconds:
                        c = second.coeffs[:, :, pair].astype(object)
                        rows = _exact_restriction(c.shape[0] - 1, d.lo_u, d.hi_u)
                        cols = _exact_restriction(c.shape[1] - 1, d.lo_v, d.hi_v)
                        c = np.einsum("ik,kld,jl->ijd", rows, c, cols).astype(float)
                        exact = max(exact, float(np.abs(c @ jac_inv.T).max()))
                    assert t.omega >= 4.0 * exact * (1.0 - 1e-13)
                    assert t.omega <= 4.0 * exact * (1.0 + 1e-13)
                    checked += 1
    assert checked >= 12
