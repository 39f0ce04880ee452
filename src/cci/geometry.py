"""Bernstein-basis arithmetic for Bezier curves and tensor-product control nets.

Everything here is exact polynomial algebra up to floating-point rounding.
Evaluation applies Bernstein weights (``_weights``, ``_basis_matrix``);
restriction applies per-axis restriction matrices whose entries are
de Casteljau's closed-form weights, so both stay stable on [0, 1] and
remain exact (as polynomial identities) for parameters outside it, and nets
may be reparametrized over rectangles extending past the unit square.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np


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
        # Finite and ordered in one chain, which NaN fails; then say which.
        lo_u, hi_u, lo_v, hi_v = vals = (self.lo_u, self.hi_u, self.lo_v, self.hi_v)
        if not (-math.inf < lo_u < hi_u < math.inf and -math.inf < lo_v < hi_v < math.inf):
            if not all(math.isfinite(x) for x in vals):
                raise ValueError(f"rectangle bounds must be finite, got {vals}")
            raise ValueError(f"degenerate rectangle {vals}")

    @classmethod
    def ball(cls, center: tuple[float, float], radius: float) -> "Rect":
        """Closed infinity-norm ball, i.e. the square of the given half-width."""
        cu, cv = center
        return cls(cu - radius, cu + radius, cv - radius, cv + radius)

    def contains_point(self, p: tuple[float, float]) -> bool:
        """Closed membership: the boundary belongs to the rectangle."""
        u, v = p
        return self.lo_u <= u <= self.hi_u and self.lo_v <= v <= self.hi_v


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
        if pts.shape[0] - 1 > _MAX_DEGREE:
            raise ValueError(f"degree {pts.shape[0] - 1} exceeds {_MAX_DEGREE}, "
                             "past which the binomials overflow floats")
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


def eval_curve(curve: BezierCurve, t: float) -> np.ndarray:
    """Point on the curve at parameter t."""
    return sample_curve(curve, [t])[0]


def sample_curve(curve: BezierCurve, ts: np.ndarray) -> np.ndarray:
    """Curve points at every parameter in ``ts``; returns shape (len(ts), 3)."""
    return _basis_matrix(curve.degree, ts) @ curve.control_points


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
    j-th control point of ``c2``. Raises ValueError when a difference
    overflows a float.
    """
    a = c1.control_points
    b = c2.control_points
    with np.errstate(over="ignore"):
        coeffs = a[:, None, :] - b[None, :, :]
    if not np.isfinite(coeffs).all():
        raise ValueError("the curves' difference overflows a float")
    return ControlNet(coeffs)


_MAX_DEGREE = 1029  # C(1030, 515) overflows a float


@functools.lru_cache(maxsize=32)
def _binomials(m: int) -> np.ndarray:
    """C(m, i) for i = 0..m as floats, finite up to m = _MAX_DEGREE. Cached
    and shared, hence read-only."""
    binomials = np.array([math.comb(m, i) for i in range(m + 1)], dtype=float)
    binomials.flags.writeable = False
    return binomials


@functools.lru_cache(maxsize=32)
def _exponents(m: int) -> np.ndarray:
    """0.0, 1.0, ..., m: float exponents, so powers need no integer cast.
    Cached and shared, hence read-only."""
    exponents = np.arange(m + 1, dtype=float)
    exponents.flags.writeable = False
    return exponents


def _basis_matrix(m: int, ts: np.ndarray) -> np.ndarray:
    """Rows: the degree-m Bernstein basis C(m, i) (1 - t)^(m-i) t^i at each t."""
    ts = np.asarray(ts, dtype=float)[:, None]
    exponents = _exponents(m)
    return _binomials(m) * ((1.0 - ts) ** exponents)[:, ::-1] * ts**exponents


def derivative_net(net: ControlNet, axis: str) -> ControlNet:
    """Partial derivative of the net's map along ``axis`` ("u" or "v").

    The degree along the axis drops by one; differentiating a degree-0 axis
    yields the zero net of degree 0 along that axis.
    """
    if axis not in ("u", "v"):
        raise ValueError(f"axis must be 'u' or 'v', got {axis!r}")
    c = net.coeffs
    k = "uv".index(axis)
    if c.shape[k] == 1:
        return ControlNet(np.zeros_like(c))
    return ControlNet((c.shape[k] - 1) * np.diff(c, axis=k))


@functools.lru_cache(maxsize=256)
def _weight_tables(axes: tuple[tuple[int, int], ...]) -> tuple[np.ndarray, ...]:
    """Gather tables for ``_weights`` over ``axes``, pairs (degree m, order).

    Row k of an axis starts as the products m!/(m-k)! ((C(m-k, i)
    (1-t)^(m-k-i)) t^i), i = 0..m-k, and takes k zero-padded backward
    differences, each entry (0 + B_{i-1}) - B_i. That order of operations,
    and the 0 + turning -0 into +0, fix every bit. Returns the exponents;
    per product the indices of its powers of 1 - t and of t, its binomial
    and its falling factorial; per difference level the indices of each
    result's two operands; and the index of each weight in output order.
    Indices run over the products, then each level's results in turn.
    Product 0 is 0: the padding, and every weight of a row past degree m.
    Cached and shared, hence read-only.
    """
    width = max(m for m, _ in axes) + 1
    pick, binoms, perms = [(0, 0)], [0.0], [1.0]
    rows: list[tuple[list[int], int]] = []  # per output row: entries, differences left
    for a, (m, order) in enumerate(axes):
        for k in range(order + 1):
            if k > m:
                rows.append(([0] * (m + 1), 0))
                continue
            j = m - k
            rows.append((list(range(len(binoms), len(binoms) + j + 1)), k))
            pick += [((2 * a + 1) * width + j - i, 2 * a * width + i) for i in range(j + 1)]
            binoms += [float(math.comb(j, i)) for i in range(j + 1)]
            perms += [float(math.perm(m, k))] * (j + 1)
    size, levels = len(binoms), []
    for level in range(1, max(order for _, order in axes) + 1):
        operands: list[tuple[int, int]] = []
        for r, (entries, k) in enumerate(rows):
            if k >= level:
                padded = [0, *entries, 0]
                operands += zip(padded[:-1], padded[1:])
                rows[r] = (list(range(size, size + len(padded) - 1)), k)
                size += len(padded) - 1
        levels.append(np.array(operands, dtype=np.intp).reshape(-1, 2).T)
    out = np.array([i for entries, _ in rows for i in entries], dtype=np.intp)
    tables = (_exponents(width - 1), np.array(pick, dtype=np.intp).T, np.array(binoms),
              np.array(perms), *levels, out)
    for table in tables:
        table.flags.writeable = False
    return tables


def _weights(axes: tuple[tuple[int, int], ...], points: tuple[float, ...]) -> np.ndarray:
    """``_jet_weights`` of every axis at its point, its rows flattened in turn:
    one ``np.power`` call and one gather-and-multiply serve all axes."""
    exponents, pick, binoms, perms, *levels, out = _weight_tables(axes)
    bases = np.array([x for t in points for x in (t, 1.0 - t)])
    # numpy's power, not Python's: the two round some powers apart.
    powers = np.power(bases[:, None], exponents).ravel()[pick]
    entries = perms * ((binoms * powers[0]) * powers[1])
    for operands in levels:
        pair = entries[operands]
        entries = np.concatenate((entries, (0.0 + pair[0]) - pair[1]))
    return entries[out]


def _jet_weights(m: int, t: float, order: int = 1) -> np.ndarray:
    """Rows 0..order: the degree-m Bernstein basis at t and its derivatives there.

    Row k is m!/(m-k)! times the degree-(m-k) basis differenced k times, each
    backward difference taking entry i to B_{i-1} - B_i. Every row is
    gathered from one vector of powers of t and one of 1 - t, so row 0 is,
    entry for entry, ``_basis_matrix``'s. At t = 1/2 every weight is a
    dyadic rational, exact in floating point.
    """
    return _weights(((m, order),), (t,)).reshape(order + 1, m + 1)


@functools.lru_cache(maxsize=32)
def _center_weights(m: int) -> np.ndarray:
    """``_jet_weights(m, 1/2, 2)`` for ``center_jet``, which every convergence
    test calls. Cached and shared, hence read-only; ``jet`` caches only its
    gather tables, so Newton's iterates cannot evict these."""
    weights = _jet_weights(m, 0.5, 2)
    weights.flags.writeable = False
    return weights


def _derivatives(net: ControlNet, wu: np.ndarray, wv: np.ndarray) -> np.ndarray:
    """Entry (i, j) is the net contracted with row i of ``wu`` and row j of ``wv``."""
    c = net.coeffs
    return wv @ (wu @ c.reshape(c.shape[0], -1)).reshape(len(wu), *c.shape[1:])


def jet(net: ControlNet, x: tuple[float, float]) -> tuple[np.ndarray, np.ndarray]:
    """Value (dim,) and Jacobian (dim, 2) of the net's map at x = (u, v)."""
    m, n = net.degree_u, net.degree_v
    weights = _weights(((m, 1), (n, 1)), (float(x[0]), float(x[1])))
    wu, wv = weights[: 2 * m + 2].reshape(2, m + 1), weights[2 * m + 2 :].reshape(2, n + 1)
    both = _derivatives(net, wu, wv)
    return both[0, 0], both[(1, 0), (0, 1)].T


def center_jet(net: ControlNet) -> np.ndarray:
    """Derivatives of the net's map at (1/2, 1/2), shape (3, 3, dim): entry
    (i, j) is taken i times along u and j times along v. The weights are
    exact; (0, 0) and the Jacobian are ``jet``'s bit for bit."""
    return _derivatives(net, _center_weights(net.degree_u), _center_weights(net.degree_v))


def eval_net(net: ControlNet, u: float, v: float) -> np.ndarray:
    """Value of the net's map at (u, v): the value half of ``jet``."""
    return jet(net, (u, v))[0]


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
    exponents = _exponents(m)
    return binom * (t**exponents)[t_power] * ((1.0 - t) ** exponents)[s_power]


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

    The result g satisfies g(s, t) = f(lo_u + s (hi_u - lo_u), lo_v + t (hi_v - lo_v))
    for all (s, t); the target may extend outside the unit square, in which
    case the subdivisions extrapolate (still exact for polynomials).
    """
    c = net.coeffs
    rows = _restriction_matrix(net.degree_u, target.lo_u, target.hi_u)
    cols = _restriction_matrix(net.degree_v, target.lo_v, target.hi_v)
    c = (rows @ c.reshape(c.shape[0], -1)).reshape(c.shape)
    return ControlNet(cols @ c)


# The quarters of the unit square, in the order ``restrict_quarters`` returns
# them: u varies fastest.
QUARTERS = (
    Rect(0.0, 0.5, 0.0, 0.5),
    Rect(0.5, 1.0, 0.0, 0.5),
    Rect(0.0, 0.5, 0.5, 1.0),
    Rect(0.5, 1.0, 0.5, 1.0),
)


def restrict_quarters(coeffs: np.ndarray) -> np.ndarray:
    """Coefficients of each net of a stack over each of ``QUARTERS``.

    ``coeffs`` has shape (P, m+1, n+1, d), a stack of P nets of one shape.
    The result has shape (4P, m+1, n+1, d); rows 4p to 4p+3 are net p over
    the four quarters, each equal bit for bit to ``reparametrize``'s. Each
    half matrix multiplies every net, and then every row of a net, exactly
    as there: the products keep ``reparametrize``'s shapes, so BLAS takes
    the same path and rounds the same way. (One product spanning several
    nets, or both halves at once, rounds differently on some shapes.)
    """
    count, rows, cols, dim = coeffs.shape
    halves = ((0.0, 0.5), (0.5, 1.0))
    stack = coeffs.reshape(count, rows, cols * dim)
    by_u = np.empty((count, 2, rows, cols * dim))
    for k, (a, b) in enumerate(halves):
        np.matmul(_restriction_matrix(rows - 1, a, b), stack, out=by_u[:, k])
    by_u = by_u.reshape(count, 2, rows, cols, dim)
    # Axes: net, v half, u half, then the net's own; u varies fastest.
    out = np.empty((count, 2, 2, rows, cols, dim))
    for k, (a, b) in enumerate(halves):
        np.matmul(_restriction_matrix(cols - 1, a, b), by_u, out=out[:, k])
    return out.reshape(4 * count, rows, cols, dim)


def restriction_growth(net: ControlNet, target: Rect) -> float:
    """Bound on how much ``reparametrize(net, target)`` magnifies rounding.

    The product over both axes of the absolute row sums of the two splits
    behind each restriction matrix. A split at t has row sums at most
    (|t| + |1 - t|)^m; in either split order this is at most (1 + 2e)^m for
    a target reaching a distance e past 0 or past 1, and 1 inside [0, 1].
    """
    u = (1.0 + 2.0 * max(0.0, -target.lo_u)) * (1.0 + 2.0 * max(0.0, target.hi_u - 1.0))
    v = (1.0 + 2.0 * max(0.0, -target.lo_v)) * (1.0 + 2.0 * max(0.0, target.hi_v - 1.0))
    return u**net.degree_u * v**net.degree_v


def extract_pair(net: ControlNet, pair: tuple[int, int]) -> ControlNet:
    """Two-component sub-net selecting coordinate ``pair`` of the map's value."""
    i, j = pair
    d = net.dim
    if not (0 <= i < d and 0 <= j < d) or i == j:
        raise ValueError(f"invalid component pair {pair} for dimension {d}")
    return ControlNet(net.coeffs[:, :, [i, j]])
