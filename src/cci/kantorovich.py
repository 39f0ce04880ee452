"""Convergence test for Newton starts, based on Kantorovich's theorem.

For a candidate square centered at x0, each of the three 2-of-3-coordinate
sub-systems of the intersection map is tested in its own square test domain.
A sub-system passes when the product of the first Newton step bound eta and
a certified Lipschitz constant omega for the preconditioned Jacobian stays
at or below 1/4 and the existence ball of radius rho_minus fits inside the
test domain. A pass guarantees Newton's method from x0 converges
quadratically to the unique zero of that sub-system nearby, and yields an
explored region around the zero in which no other zero can hide.

``test_pairs`` is the only producer of eta, omega, rho_minus and rho_plus;
a numerically singular Jacobian is a pair status, not an exception. All
norms are infinity norms, so balls, test domains and explored regions are
axis-aligned ``Rect``s.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .geometry import (
    ControlNet,
    Rect,
    derivative_net,
    eval_net,  # noqa: F401 -- unused here; bench/tracing.py patches this binding
    extract_pair,
    jet,
    reparametrize,
)

__all__ = [
    "COMPONENT_PAIRS",
    "PairStatus",
    "PairTest",
    "KantorovichOutcome",
    "PairSystem",
    "second_derivative_nets",
    "inverse_2x2",
    "rho_radii",
    "test_pairs",
    "explored_region",
]

# The three 2x2 sub-systems of a 3-component map, in fixed test order.
COMPONENT_PAIRS: tuple[tuple[int, int], ...] = ((0, 1), (0, 2), (1, 2))


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
    rho_minus: float | None = None
    rho_plus: float | None = None


@dataclass(frozen=True)
class KantorovichOutcome:
    """Per-pair results for one square; ``passed`` is the first passing pair.

    Pairs after a pass are not evaluated, so ``pairs`` holds only the tested
    prefix: all three, in ``COMPONENT_PAIRS`` order, whenever the overall
    test fails.
    """

    pairs: tuple[PairTest, ...]

    @property
    def passed(self) -> PairTest | None:
        for t in self.pairs:
            if t.status is PairStatus.PASS:
                return t
        return None


_SINGULAR_RTOL = 1e-14


def inverse_2x2(jac: np.ndarray | Sequence[Sequence[float]]) -> np.ndarray | None:
    """J^-1 of a 2x2 Jacobian (array or nested sequence of floats), or None
    when J is numerically singular.

    J counts as singular when |det J| <= 1e-14 * max(1, |J|^2) in the
    infinity norm, decided on the four entries as scalars.
    """
    (a, b), (c, d) = jac
    det = a * d - b * c
    norm = max(abs(a) + abs(b), abs(c) + abs(d))
    if abs(det) <= _SINGULAR_RTOL * max(1.0, norm**2):
        return None
    return np.array([[d, -b], [-c, a]]) / det


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

    def omega(self, jac_inv: np.ndarray, block: np.ndarray) -> float:
        """Certified Lipschitz constant for the preconditioned Jacobian on a test domain.

        ``block`` stacks the coefficients of f_uu, f_uv and f_vv of the full
        map over the domain, one row per coefficient, shape (K, dim). Bounds
        the operator norm of the second derivative of J^-1 f by four times
        the largest absolute Bernstein coefficient over the domain (each
        matrix row sums at most four second-derivative entries);
        preconditioning by J^-1 is linear, so it applies to coefficients.
        """
        return 4.0 * float(np.abs(block[:, self.pair] @ jac_inv.T).max())


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
    value: list[float],
    jac: list[list[float]],
    block_over: Callable[[Rect], np.ndarray],
    domain: Rect,
    domain_half_width: float,
) -> PairTest:
    i, k = system.pair
    jac_inv = inverse_2x2((jac[i], jac[k]))
    if jac_inv is None:
        return PairTest(system.pair, PairStatus.SINGULAR_JACOBIAN, domain)
    (a, b), (c, d) = jac_inv.tolist()
    f0, f1 = value[i], value[k]
    eta_value = max(abs(a * f0 + b * f1), abs(c * f0 + d * f1))
    omega_value = system.omega(jac_inv, block_over(domain))
    if eta_value * omega_value > 0.25:
        return PairTest(
            system.pair,
            PairStatus.FAIL_CONVERGENCE,
            domain,
            eta=eta_value,
            omega=omega_value,
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
    solver squares, so the conversion is exact. The 2x2 algebra runs on
    Python floats. omega restricts ``seconds`` over each distinct test
    domain once, with one ``reparametrize`` call per net, and stacks them
    into one block that the pairs share.
    """
    value, jac = jet(net, (0.5, 0.5))
    value, jac = value.tolist(), (jac / (2.0 * half_width)).tolist()
    domains = {s: Rect.ball(center, s * half_width) for s in set(scales)}
    blocks: dict[Rect, np.ndarray] = {}

    def block_over(domain: Rect) -> np.ndarray:
        if domain not in blocks:
            blocks[domain] = np.concatenate(
                [reparametrize(n, domain).coeffs.reshape(-1, net.dim) for n in seconds]
            )
        return blocks[domain]

    results: list[PairTest] = []
    for system, scale in zip(systems, scales):
        t = _test_one_pair(system, value, jac, block_over, domains[scale], scale * half_width)
        results.append(t)
        if t.status is PairStatus.PASS:
            break
    return KantorovichOutcome(tuple(results))


def explored_region(passed: PairTest, center: tuple[float, float]) -> Rect | None:
    """Region around a confirmed zero in which no other zero can exist.

    Built from a pair test that passed at ``center``: the closed uniqueness
    ball of radius rho_plus, clipped to the test domain it was derived in.
    rho_plus is infinite for affine sub-systems, and the region is then the
    test domain itself. None when rho_plus is below the rounding of the
    center: the ball then rounds to the center alone, which prunes no square
    and lies within rho_minus of the zero's Newton root, so the solver's
    duplicate check already covers it.
    """
    if passed.status is not PairStatus.PASS:
        raise ValueError("explored regions require a passing pair test")
    assert passed.rho_plus is not None
    (cu, cv), r, d = center, passed.rho_plus, passed.test_domain
    lo_u, hi_u = max(cu - r, d.lo_u), min(cu + r, d.hi_u)
    lo_v, hi_v = max(cv - r, d.lo_v), min(cv + r, d.hi_v)
    if lo_u == hi_u or lo_v == hi_v:
        return None
    return Rect(lo_u, hi_u, lo_v, hi_v)
