"""Convergence test for Newton starts, based on Kantorovich's theorem.

For a candidate square centered at x0, each of the three 2-of-3-coordinate
sub-systems of the intersection map is tested in its own square test domain.
A sub-system passes when the product of the first Newton step bound eta and
a certified Lipschitz constant omega for the preconditioned Jacobian stays
at or below 1/4 and the existence ball of radius rho_minus fits inside the
test domain. A pass guarantees Newton's method from x0 converges
quadratically to the unique zero of that sub-system nearby, and yields an
explored region around the zero in which no other zero can hide.

Most tested squares fail, and a failure needs only a lower bound on omega:
4 |J^-1 f''| at the square's center, less a proven rounding allowance.
Pairs it fails restrict nothing and report no omega; the others take the
full test, so every status is the one the full test alone would give.

``test_pairs`` is the only producer of eta, omega, rho_minus and rho_plus;
a numerically singular Jacobian is a pair status, not an exception. All
norms are infinity norms, so balls, test domains and explored regions are
axis-aligned ``Rect``s.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .geometry import (
    ControlNet,
    Rect,
    center_jet,
    derivative_net,
    eval_net,  # noqa: F401 -- unused here; bench/tracing.py patches this binding
    extract_pair,
    reparametrize,
    restriction_growth,
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
    """Result of the convergence test for one component pair.

    ``eta`` and ``omega`` are None for a singular Jacobian, and ``omega``
    also for a convergence failure that omega's lower bound decided: the
    test never computes that omega. The radii are set only when
    eta * omega <= 1/4.
    """

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


def inverse_2x2(jac: np.ndarray | Sequence[Sequence[float]]) -> list[list[float]] | None:
    """J^-1 of a 2x2 Jacobian (array or nested sequence of floats) as nested
    lists of its entries' type, or None when J is numerically singular.

    J counts as singular when |det J| <= 1e-14 * max(1, |J|^2) in the
    infinity norm, decided on the four entries as scalars. The entries stay
    scalars: a caller that needs an array builds it.
    """
    (a, b), (c, d) = jac
    det = a * d - b * c
    norm = max(abs(a) + abs(b), abs(c) + abs(d))
    if abs(det) <= _SINGULAR_RTOL * max(1.0, norm**2):
        return None
    return [[d / det, -b / det], [-c / det, a / det]]


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
        # The scale of every rounding error in the nets derived from ``net``.
        self.max_coeff = float(np.abs(self.net.coeffs).max())

    def omega(self, jac_inv: Sequence[Sequence[float]], block: np.ndarray) -> float:
        """Certified Lipschitz constant for the preconditioned Jacobian on a test domain.

        ``block`` stacks the coefficients of f_uu, f_uv and f_vv of the full
        map over the domain, one row per coefficient, shape (K, dim). Bounds
        the operator norm of the second derivative of J^-1 f by four times
        the largest absolute Bernstein coefficient over the domain (each
        matrix row sums at most four second-derivative entries);
        preconditioning by J^-1 is linear, so it applies to coefficients.
        """
        return 4.0 * float(np.abs(block[:, self.pair] @ np.array(jac_inv).T).max())


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


_UNIT_ROUNDOFF = 2.0**-53
# Relative margin of omega's lower bound: it absorbs the rounding of the
# bound's own arithmetic and of comparing eta * omega with 1/4.
_FLOOR_GUARD = 1e-9


def _floor_slack(net: ControlNet, half_width: float, domain: Rect) -> float:
    """The rounding allowance of ``_omega_floor`` over ``domain``, per unit of S |J^-1|."""
    m, n = net.degree_u, net.degree_v
    width = 2.0 * half_width
    depth = max(0, 1 - math.frexp(width)[1])  # log2(1 / width), rounded up
    levels = (depth + 2) / (width * width)
    growth = restriction_growth(net, domain)
    return 32 * (m + n + 2) * max(m, n) ** 2 * _UNIT_ROUNDOFF * (levels + 8.0 * growth)


def _omega_floor(
    system: PairSystem,
    jac_inv: list[list[float]],
    curvature: list[list[float]],
    slack: float,
) -> float:
    """A lower bound on the pair's omega, as the full test computes it.

    ``curvature`` holds f_uu, f_uv and f_vv at the square's center, from the
    square's net with exact weights, divided by (2h)^2. In exact arithmetic
    each is a convex combination of its second-derivative net's Bernstein
    coefficients over any domain that holds the center, so
    4 max |J^-1 f''(center)| <= omega. The allowance ``slack`` S |J^-1|, with
    S = ``system.max_coeff``, is 4 |J^-1| 4 M^2 2 (m + n + 2) u S
    ((d + 2) / (2h)^2 + 8 G) (``_floor_slack``), M = max(m, n), u the unit
    roundoff, d the depth:

    - The net went down d quarter restrictions with exact, convex weights,
      each adding at most (m + n + 2) u S to a coefficient; second-derivative
      weights at 1/2 sum in absolute value to at most 4 M^2. The d levels,
      the contraction's rounding and that of the J^-1 products: d + 2.
    - The second-derivative nets are rounded differences of the root net,
      off by at most 16 M^2 u S, and the full test restricts them with split
      weights good to (m + 4) u each, two products and the J^-1 product: at
      most (4 (m + n) + 22) u G 4 M^2 S, with G the domain's
      ``restriction_growth``. 8 G covers both.

    ``_FLOOR_GUARD`` covers the rest, so eta * floor > 1/4 implies that the
    full test's eta * omega exceeds 1/4 as well.
    """
    (a, b), (c, d) = jac_inv
    i, k = system.pair
    lower = 4.0 * max(
        max(abs(a * f[i] + b * f[k]), abs(c * f[i] + d * f[k])) for f in curvature
    )
    norm = max(abs(a) + abs(b), abs(c) + abs(d))
    return lower * (1.0 - _FLOOR_GUARD) - slack * system.max_coeff * norm


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
    net restricted to the square of the given center and half-width, carried
    down by quarter restrictions as ``solve`` does (omega's lower bound
    assumes so). ``scales`` are the per-pair test-domain multipliers: pair k
    is tested in the square of half-width scales[k] * half_width about
    ``center``.

    Value, Jacobian and second derivatives at the center come from one
    contraction of ``net`` at (1/2, 1/2); derivatives of order j are local
    ones divided by (2 * half_width)^j, a power of two for solver squares, so
    the conversion is exact. The 2x2 algebra runs on Python floats. A pair
    that omega's lower bound fails computes no omega. The others restrict
    ``seconds`` over each distinct test domain once, with one
    ``reparametrize`` call per net, stacked into one block that they share.
    """
    grid = center_jet(net).tolist()
    width = 2.0 * half_width
    value = grid[0][0]
    jac = [[du / width, dv / width] for du, dv in zip(grid[1][0], grid[0][1])]
    curvature = [
        [x / (width * width) for x in f] for f in (grid[2][0], grid[1][1], grid[0][2])
    ]
    domains = {}
    for s in set(scales):
        domain = Rect.ball(center, s * half_width)
        domains[s] = domain, _floor_slack(net, half_width, domain)
    blocks: dict[float, np.ndarray] = {}
    results: list[PairTest] = []
    for system, scale in zip(systems, scales):
        domain, slack = domains[scale]
        i, k = system.pair
        jac_inv = inverse_2x2((jac[i], jac[k]))
        if jac_inv is None:
            results.append(PairTest(system.pair, PairStatus.SINGULAR_JACOBIAN, domain))
            continue
        (a, b), (c, d) = jac_inv
        eta = max(abs(a * value[i] + b * value[k]), abs(c * value[i] + d * value[k]))
        if eta * _omega_floor(system, jac_inv, curvature, slack) > 0.25:
            results.append(PairTest(system.pair, PairStatus.FAIL_CONVERGENCE, domain, eta))
            continue
        if scale not in blocks:
            blocks[scale] = np.concatenate(
                [reparametrize(n, domain).coeffs.reshape(-1, net.dim) for n in seconds]
            )
        omega = system.omega(jac_inv, blocks[scale])
        if eta * omega > 0.25:
            status, radii = PairStatus.FAIL_CONVERGENCE, (None, None)
        else:
            radii = rho_radii(eta, omega)
            inside = radii[0] <= scale * half_width
            status = PairStatus.PASS if inside else PairStatus.FAIL_CONTAINMENT
        results.append(PairTest(system.pair, status, domain, eta, omega, *radii))
        if status is PairStatus.PASS:
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
