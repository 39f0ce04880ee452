"""Convergence test for Newton starts, based on Kantorovich's theorem.

For a candidate square centered at x0, the intersection map f (three
components, two unknowns) is tested as one square system g = P f in the
square's one test domain, a square about x0 that the parent's outcome
sized. P = (J^T J)^-1 J^T is the pseudo-inverse of f's Jacobian J at x0
(``projection``), so g's Jacobian there is P J = I: the affine-invariant
Gauss-Newton view of the overdetermined system (Deuflhard 2004, ch. 4). For
planar curves P inverts the two planar rows, and g is the paper's 2x2
system. A square passes when h = eta * omega, its first Newton step bound
eta = |P f(x0)| times a certified Lipschitz constant omega of g's
Jacobian, stays at or below ``PASS_BOUND`` (0.45, where the base algorithm
of Srijuntongsiri and Vavasis uses 1/4) and the existence ball of radius
rho_minus fits inside the test domain. For any h < 1/2 the affine-covariant
Kantorovich theorem (Deuflhard 2004, ch. 2) gives a zero of g in that ball,
no other in the rho_plus ball within the domain, and Newton's convergence
from x0 to it. Every zero of f is one of g, so a pass also yields an
explored region in which no other zero of f can hide; a zero of g that is
no zero of f fails the solver's residual check. 0.45 keeps clear of 1/2: a
computed h <= 0.45 leaves 1 - 2h >= 0.1 in ``rho_radii`` (2h is exact, and
1 - 2h rounds by at most u = 2^-53 relative, not at all for 2h >= 1/2 by
Sterbenz's lemma), far from 0, and rho_minus < 1.52 eta; the few u of
rounding in eta, omega and h cannot carry a true h past 1/2. P is the
computed matrix, so g is exactly the map tested; only P J = I holds to
rounding. The proof that omega's lower bound fails only squares the full
test fails holds for any positive bound (``_omega_floor``).

Most tested squares fail, and a failure needs only a lower bound on omega:
omega's row sums at the square's center, less a proven rounding allowance,
and where the center leaves the square open, the largest terms over the
center and the square's four corners. A square it fails restricts nothing
and reports no omega; the others take the full test, so every status is
the one the full test alone would give. The allowance is cached but for
the test domain's ``restriction_growth``, and a domain so far out that it
reaches ``_MAX_SLACK`` fails outright.

``test_pairs`` is the only producer of eta, omega, rho_minus and rho_plus;
a numerically singular Jacobian is a status, not an exception. All norms
are infinity norms, so balls, test domains and explored regions are
axis-aligned ``Rect``s.
"""

from __future__ import annotations

import enum
import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .geometry import (
    ControlNet,
    Rect,
    center_jet,
    corner_seconds,
    derivative_coeffs,
    elevate,
    eval_net,  # noqa: F401 -- unused here; bench/tracing.py patches this binding
    reparametrize,
    restriction_growth,
    unchecked,
)

# P's two rows, each over the map's three components.
Projection = tuple[tuple[float, float, float], tuple[float, float, float]]


class PairStatus(enum.Enum):
    PASS = "pass"
    # eta * omega exceeded PASS_BOUND: Newton convergence not certified. The
    # test domain may be too large (a smaller one can have a smaller omega).
    FAIL_CONVERGENCE = "fail_convergence"
    # eta * omega <= PASS_BOUND but the existence ball leaks out of the test
    # domain; a larger domain might contain it.
    FAIL_CONTAINMENT = "fail_containment"
    SINGULAR_JACOBIAN = "singular_jacobian"


@dataclass(frozen=True)
class PairTest:
    """Result of the convergence test of one square's system g = P f.

    ``projection`` holds P's rows, and ``step`` the first Newton step
    P f(x0), whose larger magnitude is ``eta``; all three are None for a
    singular Jacobian. ``omega`` is None also for a convergence failure that
    omega's lower bound or its rounding allowance decided: the test never
    computes that omega. The radii are set only when
    eta * omega <= ``PASS_BOUND``.
    """

    projection: Projection | None
    status: PairStatus
    test_domain: Rect
    eta: float | None = None
    omega: float | None = None
    rho_minus: float | None = None
    rho_plus: float | None = None
    step: tuple[float, float] | None = None


@dataclass(frozen=True)
class KantorovichOutcome:
    """A square's test result: ``pairs`` holds its one ``PairTest``, and
    ``passed`` is that test when it passed."""

    pairs: tuple[PairTest, ...]

    @property
    def passed(self) -> PairTest | None:
        (test,) = self.pairs
        return test if test.status is PairStatus.PASS else None


_SINGULAR_RTOL = 1e-14


def _singular(det: float, norm: float) -> bool:
    """A 2x2 determinant counts as singular when |det| <= 1e-14 * max(1, norm^2)."""
    return abs(det) <= _SINGULAR_RTOL * max(1.0, norm**2)


def inverse_2x2(a: float, b: float, c: float, d: float) -> tuple[float, float, float, float] | None:
    """The entries of J^-1, row by row, for J = [[a, b], [c, d]], in the
    entries' type; None when J is numerically singular.

    J counts as singular when |det J| <= 1e-14 * max(1, |J|^2) in the
    infinity norm, decided on the four entries as scalars.
    """
    det = a * d - b * c
    if _singular(det, max(abs(a) + abs(b), abs(c) + abs(d))):
        return None
    return d / det, -b / det, -c / det, a / det


def projection(a: Sequence[float], b: Sequence[float]) -> Projection | None:
    """P = (J^T J)^-1 J^T for the 3x2 Jacobian J with columns a and b, by rows.

    With n = a x b, whose entries are the 2x2 minors of J (the determinants
    of its three row pairs, up to sign), P's rows are (b x n) / (n . n) and
    (n x a) / (n . n): both lie in J's column space, and each is orthogonal
    to one column and has unit dot product with the other, so P J = I. None
    when every row pair's determinant is singular by ``inverse_2x2``'s rule.
    """
    a0, a1, a2 = a
    b0, b1, b2 = b
    n0, n1, n2 = a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0
    r0, r1, r2 = abs(a0) + abs(b0), abs(a1) + abs(b1), abs(a2) + abs(b2)
    if _singular(n0, max(r1, r2)) and _singular(n1, max(r0, r2)) and _singular(n2, max(r0, r1)):
        return None
    nn = n0 * n0 + n1 * n1 + n2 * n2
    return (
        ((b1 * n2 - b2 * n1) / nn, (b2 * n0 - b0 * n2) / nn, (b0 * n1 - b1 * n0) / nn),
        ((n1 * a2 - n2 * a1) / nn, (n2 * a0 - n0 * a2) / nn, (n0 * a1 - n1 * a0) / nn),
    )


class PairSystem:
    """The intersection map over the unit square, as the convergence test reads it.

    Built once per solve: ``seconds`` stacks the map's f_uu, f_uv and f_vv
    nets along the component axis, each raised to the net's own degrees
    (m, n), so omega restricts one net per test domain. Raising is an exact
    identity that commutes with restriction, and its coefficients are convex
    combinations of the original ones (Farouki & Rajan 1988), so omega's
    maxima can only shrink. ``max_coeff`` is the scale of every rounding
    error in the nets derived from ``net``.
    """

    def __init__(self, net: ControlNet):
        # Unchecked: the unit net's coefficients lie below 1, so these are finite.
        du, dv = derivative_coeffs(net.coeffs, 0), derivative_coeffs(net.coeffs, 1)
        seconds = derivative_coeffs(du, 0), derivative_coeffs(du, 1), derivative_coeffs(dv, 1)
        m, n = net.degree_u, net.degree_v
        raised = [elevate(unchecked(ControlNet, coeffs=s), m, n).coeffs for s in seconds]
        self.seconds = unchecked(ControlNet, coeffs=np.concatenate(raised, axis=2))
        self.max_coeff = float(np.abs(net.coeffs).max())

    def omega(self, rows: Projection, block: np.ndarray) -> float:
        """Certified Lipschitz constant of g = P f's Jacobian on a test domain.

        ``block`` holds ``seconds`` restricted to the domain, shape (K, 3, dim):
        per coefficient index, f_uu's, f_uv's and f_vv's coefficient. With
        M_xx,i the largest |coefficient| of g_xx,i and P given by its
        ``rows``, returns max_i (M_uu,i + 2 M_uv,i + M_vv,i) <= 4 max |P c|:
        row i of P (J(x) - J(y)) has entries at most (M_uu,i + M_uv,i) and
        (M_uv,i + M_vv,i) times |x - y|, as a Bernstein net bounds its
        polynomial; P is linear, so it applies to coefficients.
        """
        g = np.abs(block.reshape(-1, block.shape[-1]) @ np.array(rows).T)  # 2D: faster than 3D
        uu0, uu1, uv0, uv1, vv0, vv1 = g.reshape(-1, 6).max(axis=0).tolist()
        return max(uu0 + 2.0 * uv0 + vv0, uu1 + 2.0 * uv1 + vv1)


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


PASS_BOUND = 0.45  # a square passes at eta * omega <= PASS_BOUND < 1/2
_UNIT_ROUNDOFF = 2.0**-53
# Relative margin of omega's lower bound: it absorbs the rounding of the
# bound's own arithmetic and of comparing eta * omega with any PASS_BOUND.
_FLOOR_GUARD = 1e-9
# A slack this large fails the square's convergence test, the conservative
# answer, before its omega block (at most 4 M^2 G <= 2^46 slack) can overflow.
_MAX_SLACK = 2.0**960


@functools.lru_cache(maxsize=256)
def _slack_terms(m: int, n: int, half_width: float) -> tuple[float, float]:
    """``_floor_slack``'s factors 32 (m + n + 2) M^2 u and L / (2h)^2."""
    width = 2.0 * half_width
    depth = max(0, 1 - math.frexp(width)[1])  # log2(1 / width), rounded up
    levels = (depth + 2) * (1 if max(m, n) < 50 else 2)  # weights at 1/2 round from 50
    return 32 * (m + n + 2) * max(m, n) ** 2 * _UNIT_ROUNDOFF, levels / (width * width)


def _floor_slack(net: ControlNet, half_width: float, domain: Rect) -> float:
    """The rounding allowance of ``_omega_floor`` over ``domain``, per unit of S |P|."""
    factor, levels = _slack_terms(net.degree_u, net.degree_v, half_width)
    return factor * (levels + 8.0 * restriction_growth(net, domain))


def _omega_floor(
    system: PairSystem,
    rows: Projection,
    curvature: list[Sequence[Sequence[float]]],
    slack: float,
) -> float:
    """A lower bound on omega, as the full test computes it.

    ``curvature`` holds, per point, f_uu, f_uv and f_vv there, from the
    square's net, divided by (2h)^2: the square's center, then maybe its four
    corners (``corner_seconds``). The scale is at least 1, so every point
    lies in the test domain. In exact arithmetic each value is a convex
    combination of its raised second-derivative net's coefficients over any
    domain that holds its point, so with g = P f and Q_xx,i the largest
    |g_xx,i| over the points, Q_xx,i <= M_xx,i (``PairSystem.omega``) and
    max_i (Q_uu,i + 2 Q_uv,i + Q_vv,i) <= omega. P enters both sides as the
    same computed ``rows``, so its own rounding moves neither relative to
    the other: the proof needs of P only |P|, its largest row sum over three
    entries. Each of the four terms (Q_uv,i counts twice) errs, at a point
    and in the full test's M_xx,i, by at most
    |P| 4 M^2 2 (m + n + 2) u S (L / (2h)^2 + 8 G), so the allowance
    ``slack`` S |P| (``_floor_slack``) is four times that, with
    S = ``system.max_coeff``, the full net's largest coefficient, M = max(m, n),
    u the unit roundoff, d the depth and L = d + 2 levels, doubled from
    M = 50:

    - The net went down d quarter restrictions with convex weights, each
      adding at most (m + n + 2) u S to a coefficient. The weights of a
      second derivative sum in absolute value to at most 4 M^2: at 1/2, and
      at a corner, whose end differences weigh 4 m (m - 1), 4 m n and
      4 n (n - 1). The d levels, the contraction's rounding (a corner's 3 or
      4 terms round less than the center's) and that of the products with
      P: d + 2. A product with a row of P sums three terms, within 3 u of
      |P| times its largest input; a nonzero second derivative needs
      m + n >= 2, where 3 <= m + n + 2.
    - Below degree 50 the weights at 1/2 (the center's, the quarter splits')
      are exact, and a corner's are small integers. From 50 on, binomials and
      falling factorials round, u each: a center row of order k errs by
      2^k (k + 2) u m!/(m - k)! in sum, a value by 24 u M^2 S; a split weight
      by u relative, a value by 8 d u M^2 S. A level is worth
      8 (m + n + 2) u M^2 S >= 416 u M^2 S there: doubling them covers both.
    - The second-derivative nets are rounded differences of the root net,
      off by at most 16 M^2 u S. Raising them to degrees (m, n) takes at
      most 3 convex weights per coefficient, each rounded once, along one
      axis (f_uu, f_vv), or 2 along each (f_uv): (k + 1) u per axis for k
      weights, so at most 6 u 4 M^2 S = 24 M^2 u S more. The full test
      restricts the raised nets with split weights good to (m + 4) u each,
      two products and the product with P: at most (4 (m + n) + 23) u G
      4 M^2 S, with G the domain's ``restriction_growth``, which magnifies
      the 40 M^2 u S before it too. The sum, (16 (m + n) + 132) M^2 u G S,
      is within 8 G's share 64 (m + n + 2) M^2 u G S for m + n >= 1; below
      that, every net is exactly 0.

    ``_FLOOR_GUARD`` covers the rest, for any positive bound B. With A the
    allowance in exact arithmetic and W the full test's row sum of its
    computed M_xx,i, taken exactly, lower (1 - c u) <= W + A, c u being the
    relative rounding of ``lower``'s few operations; the computed omega is at
    least W (1 - 2u), and the computed allowance is within a few u of A. As
    e = ``_FLOOR_GUARD`` = 1e-9 dwarfs those u, the computed floor is <= 0,
    which exceeds no B, or <= omega (1 - e + k u) for a small integer k. So
    the computed eta * floor is below eta omega (1 - u) <= the computed
    eta * omega: it passes B only if that does too.
    """
    (a, b, c), (d, e, f) = rows
    uu0 = uv0 = vv0 = uu1 = uv1 = vv1 = 0.0  # Q_xx,i of rows i = 0 and 1
    for (u0, u1, u2), (m0, m1, m2), (v0, v1, v2) in curvature:
        # Running maxima by compares: cheaper than max().
        uu0 = x if (x := abs(a * u0 + b * u1 + c * u2)) > uu0 else uu0
        uv0 = x if (x := abs(a * m0 + b * m1 + c * m2)) > uv0 else uv0
        vv0 = x if (x := abs(a * v0 + b * v1 + c * v2)) > vv0 else vv0
        uu1 = x if (x := abs(d * u0 + e * u1 + f * u2)) > uu1 else uu1
        uv1 = x if (x := abs(d * m0 + e * m1 + f * m2)) > uv1 else uv1
        vv1 = x if (x := abs(d * v0 + e * v1 + f * v2)) > vv1 else vv1
    lower = max(uu0 + 2.0 * uv0 + vv0, uu1 + 2.0 * uv1 + vv1)
    norm = max(abs(a) + abs(b) + abs(c), abs(d) + abs(e) + abs(f))
    return lower * (1.0 - _FLOOR_GUARD) - slack * system.max_coeff * norm


def test_pairs(
    system: PairSystem,
    net: ControlNet,
    center: tuple[float, float],
    half_width: float,
    scale: float,
) -> KantorovichOutcome:
    """Run the convergence test of the square's system g = P f.

    ``net`` is the difference net restricted to the square of the given
    center and half-width, carried down by quarter restrictions as ``solve``
    does (omega's lower bound assumes so). The test domain is the square of
    half-width ``scale * half_width`` about ``center``.

    Value, Jacobian and second derivatives at the center come from one
    contraction of ``net`` at (1/2, 1/2); derivatives of order j are local
    ones divided by (2 * half_width)^j, a power of two for solver squares, so
    the conversion is exact. P and the rest run on Python floats. A square
    that omega's lower bound fails computes no omega: the bound reads the
    center, and, once the center leaves the square open, the four corners
    too. Otherwise ``system.seconds``, one stacked net, is restricted to the
    test domain in one ``reparametrize`` call. The test domain, and the
    tests that restrict nothing, are built unchecked.
    """
    (value, f_v, f_vv), (f_u, f_uv, _), (f_uu, _, _) = center_jet(net).tolist()
    width = 2.0 * half_width
    (cu, cv), r = center, scale * half_width
    domain = unchecked(Rect, lo_u=cu - r, hi_u=cu + r, lo_v=cv - r, hi_v=cv + r)
    rows = projection([x / width for x in f_u], [x / width for x in f_v])
    if rows is None:
        status = PairStatus.SINGULAR_JACOBIAN
        return KantorovichOutcome((unchecked(PairTest, projection=None, status=status, test_domain=domain),))
    (a, b, c), (d, e, f) = rows
    f0, f1, f2 = value
    step = (a * f0 + b * f1 + c * f2, d * f0 + e * f1 + f * f2)
    eta = max(abs(step[0]), abs(step[1]))
    area = width * width
    curvature = [([x / area for x in f_uu], [x / area for x in f_uv], [x / area for x in f_vv])]
    slack = _floor_slack(net, half_width, domain)
    decided = not slack < _MAX_SLACK or eta * _omega_floor(system, rows, curvature, slack) > PASS_BOUND
    if not decided:  # the center leaves the square open: add the corners
        curvature += (corner_seconds(net) / area).tolist()
        decided = eta * _omega_floor(system, rows, curvature, slack) > PASS_BOUND
    if decided:
        status = PairStatus.FAIL_CONVERGENCE
        test = unchecked(PairTest, projection=rows, status=status, test_domain=domain, eta=eta, step=step)
        return KantorovichOutcome((test,))
    omega = system.omega(rows, reparametrize(system.seconds, domain).coeffs.reshape(-1, 3, net.dim))
    if eta * omega > PASS_BOUND:
        status, radii = PairStatus.FAIL_CONVERGENCE, (None, None)
    else:
        radii = rho_radii(eta, omega)
        status = PairStatus.PASS if radii[0] <= r else PairStatus.FAIL_CONTAINMENT
    return KantorovichOutcome((PairTest(rows, status, domain, eta, omega, *radii, step),))


def explored_region(passed: PairTest, center: tuple[float, float]) -> Rect | None:
    """Region around a confirmed zero in which no other zero can exist.

    Built from a test that passed at ``center``: the closed uniqueness
    ball of radius rho_plus, clipped to the test domain it was derived in.
    rho_plus is infinite for an affine map, and the region is then the
    test domain itself. None when rho_plus is below the rounding of the
    center: the ball then rounds to the center alone, which prunes no square
    and lies within rho_minus of the zero's Newton root, so the solver's
    duplicate check already covers it.
    """
    if passed.status is not PairStatus.PASS:
        raise ValueError("explored regions require a passing test")
    assert passed.rho_plus is not None
    (cu, cv), r, d = center, passed.rho_plus, passed.test_domain
    lo_u, hi_u = max(cu - r, d.lo_u), min(cu + r, d.hi_u)
    lo_v, hi_v = max(cv - r, d.lo_v), min(cv + r, d.hi_v)
    if lo_u == hi_u or lo_v == hi_v:
        return None
    return Rect(lo_u, hi_u, lo_v, hi_v)
