"""Bernstein-basis arithmetic for Bezier curves and tensor-product control nets.

Everything here is exact polynomial algebra up to floating-point rounding.
Evaluation of curves and nets applies Bernstein weights from ``_weights``;
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
    """Point on the curve at parameter t: ``sample_curve``'s row for [t]."""
    return (_weights(((curve.degree, 0),), (float(t),))[None] @ curve.control_points)[0]


_SAMPLES = 16


def sample_curve(curve: BezierCurve, ts: np.ndarray) -> np.ndarray:
    """Curve points at every parameter in ``ts``; returns shape (len(ts), 3).
    Each ``_weights`` call builds ``_SAMPLES`` rows of basis weights, the last
    padded with zeros, so its cached tables depend on the degree alone. Then
    one product, of C-ordered weights: a Fortran-ordered view rounds apart."""
    params = np.asarray(ts, dtype=float).tolist()
    padded = params + [0.0] * (-len(params) % _SAMPLES)
    axes = ((curve.degree, 0),) * _SAMPLES
    rows = [_weights(axes, tuple(padded[k : k + _SAMPLES])) for k in range(0, len(padded), _SAMPLES)]
    return np.reshape(rows, (-1, curve.degree + 1))[: len(params)] @ curve.control_points


def derivative_curve(curve: BezierCurve) -> BezierCurve:
    """Hodograph: the curve whose value is the derivative of the input."""
    return BezierCurve(derivative_coeffs(curve.control_points, 0))


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
    return unchecked(ControlNet, coeffs=coeffs)


_MAX_DEGREE = 1029  # C(1030, 515) overflows a float


def derivative_coeffs(c: np.ndarray, k: int) -> np.ndarray:
    """Coefficients of the partial derivative along array axis k (0 for u, 1
    for v), unchecked: the differences ``np.diff`` takes, as slices. The
    degree along the axis drops by one; a degree-0 axis gives zeros."""
    high, low = (c[1:], c[:-1]) if k == 0 else (c[:, 1:], c[:, :-1])
    return (c.shape[k] - 1) * (high - low) if c.shape[k] > 1 else np.zeros_like(c)


def unchecked(cls, **fields):
    """``cls(**fields)`` for a frozen dataclass, skipping its checks."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


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
    tables = (np.arange(width, dtype=float), np.array(pick, dtype=np.intp).T, np.array(binoms),
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
    gathered from one vector of powers of t and one of 1 - t, and
    ``sample_curve``'s rows are its row 0. At t = 1/2 every weight is a
    dyadic rational, exact in floating point below degree 50.
    """
    return _weights(((m, order),), (t,)).reshape(order + 1, m + 1)


@functools.lru_cache(maxsize=32)
def _center_weights(m: int) -> np.ndarray:
    """``_jet_weights(m, 1/2, 2)`` for ``center_jet``, which every convergence
    test calls. Cached and shared, hence read-only; ``jet_table`` caches only
    its gather tables, so Newton's iterates cannot evict these."""
    weights = _jet_weights(m, 0.5, 2)
    weights.flags.writeable = False
    return weights


def _contract(net: ControlNet, wu: np.ndarray, wv: np.ndarray) -> np.ndarray:
    """Entry (i, j) is the net contracted with row i of ``wu`` and row j of ``wv``."""
    c = net.coeffs
    return wv @ (wu @ c.reshape(c.shape[0], -1)).reshape(len(wu), *c.shape[1:])


def jet_table(net: ControlNet, x: tuple[float, float]) -> np.ndarray:
    """The net's map and its first partials at x = (u, v), shape (2, 2, dim):
    entry (i, j) is taken i times along u and j times along v."""
    m, n = net.degree_u, net.degree_v
    weights = _weights(((m, 1), (n, 1)), (float(x[0]), float(x[1])))
    wu, wv = weights[: 2 * m + 2].reshape(2, m + 1), weights[2 * m + 2 :].reshape(2, n + 1)
    return _contract(net, wu, wv)


def center_jet(net: ControlNet) -> np.ndarray:
    """Derivatives of the net's map at (1/2, 1/2), shape (3, 3, dim): entry
    (i, j) is taken i times along u and j times along v. The weights are exact
    below degree 50; (0, 0), (1, 0) and (0, 1) are ``jet_table``'s bit for bit."""
    return _contract(net, _center_weights(net.degree_u), _center_weights(net.degree_v))


@functools.lru_cache(maxsize=256)
def _corner_weights(m: int, n: int) -> np.ndarray:
    """``corner_seconds``'s weights on a degree-(m, n) net's flattened
    coefficients, one row per corner and derivative: products of
    ``_jet_weights`` rows at 0 and 1, exact integers that read only the end
    differences, m (m - 1) (c_0 - 2 c_1 + c_2) along u at u = 0, say.
    Cached and shared, hence read-only."""
    ends_u = [_jet_weights(m, t, 2) for t in (0.0, 1.0)]
    ends_v = [_jet_weights(n, t, 2) for t in (0.0, 1.0)]
    weights = np.array([np.outer(ends_u[eu][k], ends_v[ev][2 - k]).ravel()
                        for ev in (0, 1) for eu in (0, 1) for k in (2, 1, 0)])
    weights.flags.writeable = False
    return weights


def corner_seconds(net: ControlNet) -> np.ndarray:
    """f_uu, f_uv and f_vv of the net's map at the corners (0, 0), (1, 0),
    (0, 1) and (1, 1), in that order: shape (4, 3, dim)."""
    weights = _corner_weights(net.degree_u, net.degree_v)
    return (weights @ net.coeffs.reshape(-1, net.dim)).reshape(4, 3, net.dim)


def eval_net(net: ControlNet, u: float, v: float) -> np.ndarray:
    """Value of the net's map at (u, v): entry (0, 0) of ``jet_table``."""
    return jet_table(net, (u, v))[0, 0]


@functools.lru_cache(maxsize=32)
def _split_tables(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Binomials and power indices of the two degree-m split matrices, stacked.

    Restricting to [0, t] maps coefficient k to sum_j C(k, j) t^j (1-t)^(k-j) c_j;
    restricting to [t, 1] maps it to sum_{j>=k} C(m-k, j-k) t^(j-k) (1-t)^(m-j) c_j.
    These are the points de Casteljau's recurrence produces, in closed form.
    Indices run over the powers of the first split's t and 1 - t, then the second's.
    """
    k, j = np.indices((m + 1, m + 1))
    comb = np.vectorize(math.comb, otypes=[float])
    right_binom = np.where(j >= k, comb(m - k, np.maximum(j - k, 0)), 0.0)
    t_power = np.stack((j, 2 * (m + 1) + np.maximum(j - k, 0)))
    s_power = np.stack(((m + 1) + np.maximum(k - j, 0), 3 * (m + 1) + m - j))
    return np.stack((comb(k, j), right_binom)), t_power, s_power


def _split_pair(m: int, t_left: float, t_right: float) -> np.ndarray:
    """The degree-m matrices restricting to [0, t_left] and to [t_right, 1],
    stacked, from one ``np.power`` call for both parameters. Far outside
    [0, 1] entries may overflow, silently."""
    binoms, t_power, s_power = _split_tables(m)
    bases = [[t_left], [1.0 - t_left], [t_right], [1.0 - t_right]]
    with np.errstate(over="ignore", invalid="ignore"):
        powers = np.power(bases, np.arange(m + 1, dtype=float)).ravel()
        return binoms * powers[t_power] * powers[s_power]


@functools.lru_cache(maxsize=256)
def _restriction_matrix(m: int, a: float, b: float) -> np.ndarray:
    """Matrix taking degree-m coefficients on [0, 1] to those on [a, b], b > a.

    Two splits, in the order whose second split parameter has the
    better-conditioned denominator (a may equal 1, or b equal 0, but never
    both). Below degree 57 midpoint halves are exact dyadic rationals, so
    quarter restrictions of dyadic coefficients stay exact. Cached, so each
    quarter's matrix is built once per degree; shared, hence read-only.
    """
    if abs(1.0 - a) >= abs(b):
        matrix = np.matmul(*_split_pair(m, (b - a) / (1.0 - a), a))
    else:
        matrix = np.matmul(*_split_pair(m, b, a / b)[::-1])
    matrix.flags.writeable = False
    return matrix


def reparametrize(net: ControlNet, target: Rect) -> ControlNet:
    """Net of the same degrees representing the input's map over ``target``.

    The result g satisfies g(s, t) = f(lo_u + s (hi_u - lo_u), lo_v + t (hi_v - lo_v))
    for all (s, t); the target may extend outside the unit square, in which
    case the subdivisions extrapolate (still exact for polynomials).
    """
    rows = _restriction_matrix(net.degree_u, target.lo_u, target.hi_u)
    cols = _restriction_matrix(net.degree_v, target.lo_v, target.hi_v)
    return ControlNet(_contract(net, rows, cols))


@functools.lru_cache(maxsize=64)
def _elevation_matrix(p: int, q: int) -> np.ndarray:
    """Matrix raising degree-p Bernstein coefficients to degree q >= p
    (Farouki & Rajan 1988): entry (i, j) is C(p, j) C(q - p, i - j) / C(q, i),
    rounded once, so a row holds at most q - p + 1 convex weights. Cached
    and shared, hence read-only."""
    matrix = np.zeros((q + 1, p + 1))
    for i in range(q + 1):
        for j in range(max(0, i - q + p), min(i, p) + 1):
            matrix[i, j] = math.comb(p, j) * math.comb(q - p, i - j) / math.comb(q, i)
    matrix.flags.writeable = False
    return matrix


def elevate(net: ControlNet, degree_u: int, degree_v: int) -> ControlNet:
    """Net of degrees (degree_u, degree_v), each at least the input's, for the
    same map; unchecked: its coefficients are convex combinations of the input's.
    An axis whose degree does not rise skips its identity product; the other
    takes ``_contract``'s product of the same shapes."""
    c = net.coeffs
    if degree_u > net.degree_u:
        rows = _elevation_matrix(net.degree_u, degree_u)
        c = (rows @ c.reshape(c.shape[0], -1)).reshape(degree_u + 1, *c.shape[1:])
    if degree_v > net.degree_v:
        c = _elevation_matrix(net.degree_v, degree_v) @ c
    return unchecked(ControlNet, coeffs=c)


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
    a target reaching a distance e past 0 or past 1, 1 inside [0, 1], inf on overflow.
    """
    if 0.0 <= target.lo_u and target.hi_u <= 1.0 and 0.0 <= target.lo_v and target.hi_v <= 1.0:
        return 1.0
    u = (1.0 + 2.0 * max(0.0, -target.lo_u)) * (1.0 + 2.0 * max(0.0, target.hi_u - 1.0))
    v = (1.0 + 2.0 * max(0.0, -target.lo_v)) * (1.0 + 2.0 * max(0.0, target.hi_v - 1.0))
    try:
        return u**net.degree_u * v**net.degree_v
    except OverflowError:
        return math.inf

