"""Bernstein-basis arithmetic for Bezier curves and tensor-product control nets.

Everything here is exact polynomial algebra up to floating-point rounding.
Evaluation uses de Casteljau recurrences or Bernstein weights; restriction
applies per-axis restriction matrices whose entries are de Casteljau's
closed-form weights, so both stay stable on [0, 1] and remain exact (as
polynomial identities) for parameters outside it, and nets may be
reparametrized over rectangles extending past the unit square.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Rect",
    "UNIT_SQUARE",
    "BezierCurve",
    "ControlNet",
    "bernstein_basis",
    "eval_curve",
    "sample_curve",
    "derivative_curve",
    "difference_net",
    "eval_net",
    "jet",
    "sample_net",
    "derivative_net",
    "jacobian",
    "reparametrize",
    "extract_pair",
]


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle in parameter space.

    A square Rect is the closed infinity-norm ball of its center and
    half-width; most rectangles in this library are such balls.
    """

    lo_u: float
    hi_u: float
    lo_v: float
    hi_v: float

    def __post_init__(self) -> None:
        vals = (self.lo_u, self.hi_u, self.lo_v, self.hi_v)
        if not all(math.isfinite(x) for x in vals):
            raise ValueError(f"rectangle bounds must be finite, got {vals}")
        if not (self.lo_u < self.hi_u and self.lo_v < self.hi_v):
            raise ValueError(f"degenerate rectangle {vals}")

    @classmethod
    def ball(cls, center: tuple[float, float], radius: float) -> "Rect":
        """Closed infinity-norm ball, i.e. the square of the given half-width."""
        if radius <= 0.0:
            raise ValueError(f"ball radius must be positive, got {radius}")
        cu, cv = center
        return cls(cu - radius, cu + radius, cv - radius, cv + radius)

    @property
    def center(self) -> tuple[float, float]:
        return (0.5 * (self.lo_u + self.hi_u), 0.5 * (self.lo_v + self.hi_v))

    @property
    def width_u(self) -> float:
        return self.hi_u - self.lo_u

    @property
    def width_v(self) -> float:
        return self.hi_v - self.lo_v

    def contains_point(self, p: tuple[float, float], tol: float = 0.0) -> bool:
        u, v = p
        return (
            self.lo_u - tol <= u <= self.hi_u + tol
            and self.lo_v - tol <= v <= self.hi_v + tol
        )

    def contains_rect(self, other: "Rect") -> bool:
        return (
            self.lo_u <= other.lo_u
            and other.hi_u <= self.hi_u
            and self.lo_v <= other.lo_v
            and other.hi_v <= self.hi_v
        )

    def map_from_unit(self, s: float, t: float) -> tuple[float, float]:
        """Image of unit-square coordinates (s, t) under this rectangle's affine map."""
        return (self.lo_u + s * self.width_u, self.lo_v + t * self.width_v)


UNIT_SQUARE = Rect(0.0, 1.0, 0.0, 1.0)


@dataclass(frozen=True, eq=False)
class BezierCurve:
    """Polynomial space curve in Bernstein form.

    ``control_points`` has shape (degree + 1, 3); the curve is the
    basis-weighted sum of its rows over t in [0, 1].
    """

    control_points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.asarray(self.control_points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 1:
            raise ValueError(
                f"control points must have shape (degree+1, 3), got {pts.shape}"
            )
        if not np.isfinite(pts).all():
            raise ValueError("control points must be finite")
        object.__setattr__(self, "control_points", pts)

    @property
    def degree(self) -> int:
        return self.control_points.shape[0] - 1


@dataclass(frozen=True, eq=False)
class ControlNet:
    """Tensor-product Bernstein coefficients of a vector-valued map of (u, v).

    ``coeffs`` has shape (degree_u + 1, degree_v + 1, dim). Evaluation is
    always over the unit square.
    """

    coeffs: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim != 3 or c.shape[0] < 1 or c.shape[1] < 1 or c.shape[2] < 1:
            raise ValueError(f"coefficients must have shape (m+1, n+1, d), got {c.shape}")
        if not np.isfinite(c).all():
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coeffs", c)

    @property
    def degree_u(self) -> int:
        return self.coeffs.shape[0] - 1

    @property
    def degree_v(self) -> int:
        return self.coeffs.shape[1] - 1

    @property
    def dim(self) -> int:
        return self.coeffs.shape[2]


def bernstein_basis(i: int, m: int, t: float) -> float:
    """Degree-m Bernstein basis polynomial with index i, evaluated at t.

    Defined for all real t; callers normally use t in [0, 1].
    """
    if not 0 <= i <= m:
        raise ValueError(f"basis index {i} out of range for degree {m}")
    return math.comb(m, i) * (1.0 - t) ** (m - i) * t**i


def eval_curve(curve: BezierCurve, t: float) -> np.ndarray:
    """Point on the curve at parameter t, by de Casteljau recursion."""
    work = curve.control_points
    for _ in range(curve.degree):
        work = (1.0 - t) * work[:-1] + t * work[1:]
    return np.array(work[0], dtype=float)


def sample_curve(curve: BezierCurve, ts: np.ndarray) -> np.ndarray:
    """Curve points at every parameter in ``ts``; returns shape (len(ts), 3)."""
    ts = np.asarray(ts, dtype=float)
    w = ts[:, None]
    work = np.repeat(curve.control_points[:, None, :], ts.shape[0], axis=1)
    for _ in range(curve.degree):
        work = (1.0 - w) * work[:-1] + w * work[1:]
    return work[0]


def derivative_curve(curve: BezierCurve) -> BezierCurve:
    """Hodograph: the curve whose value is the derivative of the input."""
    pts = curve.control_points
    m = curve.degree
    if m == 0:
        return BezierCurve(np.zeros((1, 3)))
    return BezierCurve(m * (pts[1:] - pts[:-1]))


def difference_net(c1: BezierCurve, c2: BezierCurve) -> ControlNet:
    """Control net of f(u, v) = c1(u) - c2(v), whose zeros are the intersections.

    The coefficient at (i, j) is the i-th control point of ``c1`` minus the
    j-th control point of ``c2``.
    """
    a = c1.control_points
    b = c2.control_points
    return ControlNet(a[:, None, :] - b[None, :, :])


def eval_net(net: ControlNet, u: float, v: float) -> np.ndarray:
    """Value of the net's map at (u, v) by tensor-product de Casteljau."""
    work = net.coeffs
    for _ in range(net.degree_u):
        work = (1.0 - u) * work[:-1] + u * work[1:]
    row = work[0]
    for _ in range(net.degree_v):
        row = (1.0 - v) * row[:-1] + v * row[1:]
    return np.array(row[0], dtype=float)


def _basis_matrix(m: int, ts: np.ndarray) -> np.ndarray:
    ts = np.asarray(ts, dtype=float)
    cols = [
        math.comb(m, i) * (1.0 - ts) ** (m - i) * ts**i for i in range(m + 1)
    ]
    return np.stack(cols, axis=1)


def sample_net(net: ControlNet, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Net values on the grid us x vs; returns shape (len(us), len(vs), dim)."""
    bu = _basis_matrix(net.degree_u, us)
    bv = _basis_matrix(net.degree_v, vs)
    return np.einsum("ui,vj,ijd->uvd", bu, bv, net.coeffs)


def derivative_net(net: ControlNet, axis: str) -> ControlNet:
    """Partial derivative of the net's map along ``axis`` ("u" or "v").

    The degree along the axis drops by one; differentiating a degree-0 axis
    yields the zero net of degree 0 along that axis.
    """
    if axis not in ("u", "v"):
        raise ValueError(f"axis must be 'u' or 'v', got {axis!r}")
    c = net.coeffs
    if axis == "u":
        m = net.degree_u
        if m == 0:
            return ControlNet(np.zeros_like(c))
        return ControlNet(m * (c[1:] - c[:-1]))
    n = net.degree_v
    if n == 0:
        return ControlNet(np.zeros_like(c))
    return ControlNet(n * (c[:, 1:] - c[:, :-1]))


@functools.lru_cache(maxsize=64)
def _jet_weights(m: int, t: float) -> np.ndarray:
    """Rows: the degree-m Bernstein basis at t and its derivative there.

    The derivative of B_i^m is m (B_{i-1}^{m-1} - B_i^{m-1}). At t = 1/2
    every weight is a dyadic rational, exact in floating point. Cached and
    shared, hence read-only.
    """
    weights = np.zeros((2, m + 1))
    weights[0] = _basis_matrix(m, np.array([t]))[0]
    if m:
        lower = m * _basis_matrix(m - 1, np.array([t]))[0]
        weights[1, 1:] += lower
        weights[1, :-1] -= lower
    weights.flags.writeable = False
    return weights


def jet(net: ControlNet, x: tuple[float, float]) -> tuple[np.ndarray, np.ndarray]:
    """Value (dim,) and Jacobian (dim, 2) of the net's map at x = (u, v)."""
    c = net.coeffs
    wu = _jet_weights(net.degree_u, float(x[0]))
    wv = _jet_weights(net.degree_v, float(x[1]))
    both = wv @ (wu @ c.reshape(c.shape[0], -1)).reshape(2, *c.shape[1:])
    return both[0, 0], np.stack([both[1, 0], both[0, 1]], axis=1)


def jacobian(net: ControlNet, x: tuple[float, float]) -> np.ndarray:
    """Jacobian of the net's map at x = (u, v), as a (dim, 2) matrix."""
    return jet(net, x)[1]


@functools.lru_cache(maxsize=32)
def _split_tables(m: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """(binomials, powers of t, powers of 1 - t) of the two degree-m split matrices.

    Restricting to [0, t] maps coefficient k to sum_j C(k, j) t^j (1-t)^(k-j) c_j;
    restricting to [t, 1] maps it to sum_{j>=k} C(m-k, j-k) t^(j-k) (1-t)^(m-j) c_j.
    These are the points de Casteljau's recurrence produces, in closed form.
    """
    k, j = np.indices((m + 1, m + 1))
    comb = np.vectorize(math.comb, otypes=[float])
    left = (comb(k, j), j, np.maximum(k - j, 0))
    right_binom = np.where(j >= k, comb(m - k, np.maximum(j - k, 0)), 0.0)
    right = (right_binom, np.maximum(j - k, 0), m - j)
    return left, right


def _split_matrix(m: int, t: float, side: int) -> np.ndarray:
    """Matrix restricting degree-m coefficients to [0, t] (side 0) or [t, 1] (side 1)."""
    binom, t_power, s_power = _split_tables(m)[side]
    return binom * np.power(t, t_power) * np.power(1.0 - t, s_power)


@functools.lru_cache(maxsize=256)
def _restriction_matrix(m: int, a: float, b: float) -> np.ndarray:
    """Matrix taking degree-m coefficients on [0, 1] to those on [a, b], b > a.

    Two splits, in the order whose second split parameter has the
    better-conditioned denominator (a may equal 1, or b equal 0, but never
    both). Midpoint halves are dyadic rationals, so quarter restrictions of
    dyadic coefficients stay exact. Cached, so each quarter's matrix is built
    once per degree; shared, hence read-only.
    """
    if a == 0.0 and b == 1.0:
        matrix = np.eye(m + 1)
    elif abs(1.0 - a) >= abs(b):
        matrix = _split_matrix(m, (b - a) / (1.0 - a), 0) @ _split_matrix(m, a, 1)
    else:
        matrix = _split_matrix(m, a / b, 1) @ _split_matrix(m, b, 0)
    matrix.flags.writeable = False
    return matrix


def reparametrize(net: ControlNet, target: Rect) -> ControlNet:
    """Net of the same degrees representing the input's map over ``target``.

    The result g satisfies g(s, t) = f(lo_u + s*width_u, lo_v + t*width_v)
    for all (s, t); the target may extend outside the unit square, in which
    case the subdivisions extrapolate (still exact for polynomials).
    """
    c = net.coeffs
    rows = _restriction_matrix(net.degree_u, target.lo_u, target.hi_u)
    cols = _restriction_matrix(net.degree_v, target.lo_v, target.hi_v)
    c = (rows @ c.reshape(c.shape[0], -1)).reshape(c.shape)
    return ControlNet(cols @ c)


def extract_pair(net: ControlNet, pair: tuple[int, int]) -> ControlNet:
    """Two-component sub-net selecting coordinate ``pair`` of the map's value."""
    i, j = pair
    d = net.dim
    if not (0 <= i < d and 0 <= j < d) or i == j:
        raise ValueError(f"invalid component pair {pair} for dimension {d}")
    return ControlNet(net.coeffs[:, :, [i, j]])
