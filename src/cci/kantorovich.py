"""Convergence test for Newton starts, based on Kantorovich's theorem.

For a candidate square centered at x0, each of the three 2-of-3-coordinate
sub-systems of the intersection map is tested in its own square test domain.
A sub-system passes when the product of the first Newton step bound eta and
a certified Lipschitz constant omega for the preconditioned Jacobian stays
at or below 1/4 and the existence ball of radius rho_minus fits inside the
test domain. A pass guarantees Newton's method from x0 converges
quadratically to the unique zero of that sub-system nearby, and yields an
explored region around the zero in which no other zero can hide.

All norms are infinity norms, so balls are axis-aligned squares.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import (
    ControlNet,
    Rect,
    derivative_net,
    eval_net,  # noqa: F401 -- unused here; bench/tracing.py patches this binding
    extract_pair,
    jacobian,
    jet,
    reparametrize,
)

__all__ = [
    "COMPONENT_PAIRS",
    "SingularJacobianError",
    "PairStatus",
    "PairTest",
    "KantorovichOutcome",
    "ExploredRegion",
    "PairSystem",
    "second_derivative_nets",
    "eta",
    "lipschitz_bound",
    "rho_radii",
    "kantorovich_test",
    "test_pairs",
    "explored_region",
]

# The three 2x2 sub-systems of a 3-component map, in fixed test order.
COMPONENT_PAIRS: tuple[tuple[int, int], ...] = ((0, 1), (0, 2), (1, 2))


class SingularJacobianError(Exception):
    """Raised when a sub-system's Jacobian is numerically singular at x0."""


class PairStatus(enum.Enum):
    PASS = "pass"
    # eta * omega exceeded 1/4: Newton convergence not certified. The test
    # domain may be too large (a smaller one can have a smaller omega).
    FAIL_CONVERGENCE = "fail_convergence"
    # eta * omega <= 1/4 but the existence ball leaks out of the test
    # domain; a larger domain might contain it.
    FAIL_CONTAINMENT = "fail_containment"
    SINGULAR_JACOBIAN = "singular_jacobian"


@dataclass(frozen=True)
class PairTest:
    """Result of the convergence test for one component pair."""

    pair: tuple[int, int]
    status: PairStatus
    test_domain: Rect
    eta: float | None = None
    omega: float | None = None
    h: float | None = None
    rho_minus: float | None = None
    rho_plus: float | None = None


@dataclass(frozen=True)
class KantorovichOutcome:
    """Per-pair results for one square; ``passed`` is the first passing pair.

    Pairs after a pass are not evaluated, so ``pairs`` holds only the tested
    prefix (all three whenever the overall test fails).
    """

    pairs: tuple[PairTest, ...]

    @property
    def passed(self) -> PairTest | None:
        for t in self.pairs:
            if t.status is PairStatus.PASS:
                return t
        return None

    def by_pair(self, pair: tuple[int, int]) -> PairTest | None:
        for t in self.pairs:
            if t.pair == pair:
                return t
        return None


@dataclass(frozen=True)
class ExploredRegion:
    """Neighborhood of a confirmed zero that cannot contain any other zero.

    Membership is the closed rho_plus ball around the test center,
    optionally clipped to the test domain the guarantee was derived in
    (``clip`` is None when clipping is disabled). rho_plus may be infinite
    for affine sub-systems.
    """

    center: tuple[float, float]
    rho_minus: float
    rho_plus: float
    pair: tuple[int, int]
    clip: Rect | None
    zero: tuple[float, float]

    def bounds(self) -> tuple[float, float, float, float]:
        cu, cv = self.center
        lo_u, hi_u = cu - self.rho_plus, cu + self.rho_plus
        lo_v, hi_v = cv - self.rho_plus, cv + self.rho_plus
        if self.clip is not None:
            lo_u, hi_u = max(lo_u, self.clip.lo_u), min(hi_u, self.clip.hi_u)
            lo_v, hi_v = max(lo_v, self.clip.lo_v), min(hi_v, self.clip.hi_v)
        return lo_u, hi_u, lo_v, hi_v

    def contains_point(self, p: tuple[float, float]) -> bool:
        lo_u, hi_u, lo_v, hi_v = self.bounds()
        return lo_u <= p[0] <= hi_u and lo_v <= p[1] <= hi_v

    def contains_square(self, center: tuple[float, float], half_width: float) -> bool:
        lo_u, hi_u, lo_v, hi_v = self.bounds()
        cu, cv = center
        return (
            lo_u <= cu - half_width
            and cu + half_width <= hi_u
            and lo_v <= cv - half_width
            and cv + half_width <= hi_v
        )


_SINGULAR_RTOL = 1e-14


def _inf_norm_2x2(m: np.ndarray) -> float:
    return float(np.abs(m).sum(axis=1).max())


def _is_singular(jac: np.ndarray) -> bool:
    det = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
    return abs(det) <= _SINGULAR_RTOL * max(1.0, _inf_norm_2x2(jac) ** 2)


def _solve_2x2(jac: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    det = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
    return np.array(
        [
            (rhs[0] * jac[1, 1] - rhs[1] * jac[0, 1]) / det,
            (jac[0, 0] * rhs[1] - jac[1, 0] * rhs[0]) / det,
        ]
    )


def _inv_2x2(jac: np.ndarray) -> np.ndarray:
    det = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
    return np.array([[jac[1, 1], -jac[0, 1]], [-jac[1, 0], jac[0, 0]]]) / det


def eta(jac: np.ndarray, value: np.ndarray) -> float:
    """Infinity norm of the first Newton step, |J^-1 F|.

    Raises SingularJacobianError when J is numerically singular.
    """
    if _is_singular(jac):
        raise SingularJacobianError("Jacobian is numerically singular")
    return float(np.abs(_solve_2x2(jac, value)).max())


def second_derivative_nets(net: ControlNet) -> tuple[ControlNet, ControlNet, ControlNet]:
    """The f_uu, f_uv and f_vv nets of the net's map, over the same domain."""
    du = derivative_net(net, "u")
    dv = derivative_net(net, "v")
    return derivative_net(du, "u"), derivative_net(du, "v"), derivative_net(dv, "v")


class PairSystem:
    """One 2-component sub-system of the intersection map.

    Built once per solve; ``net`` is the sub-system over the unit square,
    from which Newton refines certified starts.
    """

    def __init__(self, net: ControlNet, pair: tuple[int, int]):
        self.pair = pair
        self.net = extract_pair(net, pair)

    def omega(self, jac_inv: np.ndarray, seconds: tuple[np.ndarray, ...]) -> float:
        """Certified Lipschitz constant for the preconditioned Jacobian on a test domain.

        ``seconds`` are the coefficients of f_uu, f_uv and f_vv of the full
        map over the domain. Bounds the operator norm of the second
        derivative of J^-1 f by four times the largest absolute Bernstein
        coefficient over the domain (each matrix row sums at most four
        second-derivative entries); preconditioning by J^-1 is linear, so it
        applies to coefficients.
        """
        pair = list(self.pair)
        worst = 0.0
        for second in seconds:
            c = second[:, :, pair] @ jac_inv.T
            worst = max(worst, float(np.abs(c).max()))
        return 4.0 * worst


def _seconds_over(nets: tuple[ControlNet, ...], domain: Rect) -> tuple[np.ndarray, ...]:
    return tuple(reparametrize(net, domain).coeffs for net in nets)


def lipschitz_bound(pair_net: ControlNet, x0: tuple[float, float], domain: Rect) -> float:
    """Lipschitz constant omega for J(x0)^-1 J(x) of a 2-component net on ``domain``."""
    jac = jacobian(pair_net, x0)
    if _is_singular(jac):
        raise SingularJacobianError("Jacobian is numerically singular")
    seconds = _seconds_over(second_derivative_nets(pair_net), domain)
    return PairSystem(pair_net, (0, 1)).omega(_inv_2x2(jac), seconds)


def rho_radii(eta_value: float, omega_value: float) -> tuple[float, float]:
    """Existence and uniqueness radii (rho_minus, rho_plus).

    Requires eta*omega <= 1/2. For omega == 0 the limits are (eta, inf).
    The rho_minus form 2*eta / (1 + sqrt(1 - 2h)) avoids cancellation for
    small h and yields the omega -> 0 limit exactly.
    """
    h = eta_value * omega_value
    if h > 0.5:
        raise ValueError(f"radii undefined for eta*omega = {h} > 1/2")
    if omega_value == 0.0:
        return eta_value, math.inf
    s = math.sqrt(1.0 - 2.0 * h)
    return 2.0 * eta_value / (1.0 + s), (1.0 + s) / omega_value


def _test_one_pair(
    system: PairSystem,
    value: np.ndarray,
    jac: np.ndarray,
    seconds_over: Callable[[Rect], tuple[np.ndarray, ...]],
    center: tuple[float, float],
    domain_half_width: float,
) -> PairTest:
    domain = Rect.ball(center, domain_half_width)
    if _is_singular(jac):
        return PairTest(system.pair, PairStatus.SINGULAR_JACOBIAN, domain)
    step = _solve_2x2(jac, value)
    eta_value = float(np.abs(step).max())
    omega_value = system.omega(_inv_2x2(jac), seconds_over(domain))
    h = eta_value * omega_value
    if h > 0.25:
        return PairTest(
            system.pair,
            PairStatus.FAIL_CONVERGENCE,
            domain,
            eta=eta_value,
            omega=omega_value,
            h=h,
        )
    rho_minus, rho_plus = rho_radii(eta_value, omega_value)
    status = (
        PairStatus.PASS if rho_minus <= domain_half_width else PairStatus.FAIL_CONTAINMENT
    )
    return PairTest(
        system.pair,
        status,
        domain,
        eta=eta_value,
        omega=omega_value,
        h=h,
        rho_minus=rho_minus,
        rho_plus=rho_plus,
    )


def test_pairs(
    systems: list[PairSystem],
    seconds: tuple[ControlNet, ...],
    net: ControlNet,
    center: tuple[float, float],
    half_width: float,
    scales: tuple[float, float, float],
) -> KantorovichOutcome:
    """Run the per-pair convergence test; stop at the first passing pair.

    ``seconds`` are the full map's second-derivative nets over the unit
    square (``second_derivative_nets``) and ``net`` is the full difference
    net restricted to the square of the given center and half-width.
    ``scales`` are the per-pair test-domain multipliers: pair k is tested in
    the square of half-width scales[k] * half_width about ``center``.

    Value and Jacobian at the center come from ``net`` at (1/2, 1/2); local
    derivatives are global ones times 2 * half_width, a power of two for
    solver squares, so the conversion is exact. omega restricts ``seconds``
    over each distinct test domain once and shares it across the pairs.
    """
    value, jac = jet(net, (0.5, 0.5))
    jac = jac / (2.0 * half_width)
    restricted: dict[Rect, tuple[np.ndarray, ...]] = {}

    def seconds_over(domain: Rect) -> tuple[np.ndarray, ...]:
        if domain not in restricted:
            restricted[domain] = _seconds_over(seconds, domain)
        return restricted[domain]

    results: list[PairTest] = []
    for system, scale in zip(systems, scales):
        pair = list(system.pair)
        t = _test_one_pair(
            system, value[pair], jac[pair], seconds_over, center, scale * half_width
        )
        results.append(t)
        if t.status is PairStatus.PASS:
            break
    return KantorovichOutcome(tuple(results))


def kantorovich_test(
    net: ControlNet,
    center: tuple[float, float],
    half_width: float,
    scales: tuple[float, float, float],
) -> KantorovichOutcome:
    """Convergence test for the square of the given center and half-width.

    ``net`` is the full 3-component difference net over the unit square; the
    three component pairs are tested in the fixed order (0,1), (0,2), (1,2).
    """
    systems = [PairSystem(net, pair) for pair in COMPONENT_PAIRS]
    square = reparametrize(net, Rect.ball(center, half_width))
    return test_pairs(
        systems, second_derivative_nets(net), square, center, half_width, scales
    )


def explored_region(
    passed: PairTest,
    center: tuple[float, float],
    zero: tuple[float, float],
    clip: bool = True,
) -> ExploredRegion:
    """Region around a confirmed zero in which no other zero can exist.

    Built from a passing pair test; ``clip`` restricts the region to the
    test domain the uniqueness guarantee was derived in (recommended).
    """
    if passed.status is not PairStatus.PASS:
        raise ValueError("explored regions require a passing pair test")
    assert passed.rho_minus is not None and passed.rho_plus is not None
    return ExploredRegion(
        center=center,
        rho_minus=passed.rho_minus,
        rho_plus=passed.rho_plus,
        pair=passed.pair,
        clip=passed.test_domain if clip else None,
        zero=zero,
    )
