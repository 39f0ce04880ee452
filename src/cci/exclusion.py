"""Exclusion test: does the convex hull of a net's coefficients miss the origin?

By the convex-hull property of Bernstein coefficients, a net whose
coefficient cloud excludes the origin represents a map with no zero on the
unit square, so the corresponding subdomain can be discarded. A pass needs
an explicit separating direction with margin ``tol * scale``, so a pass is
always sound; anything ambiguous fails conservatively. The test runs in
three stages, each ending the call as soon as it decides:

1. Axis test: some coordinate exceeds the margin, with one sign, at every
   coefficient. Pass.
2. Inside certificate (``inside_certificate``): Wolfe's minimum-norm-point
   corrals find convex weights over at most four coefficients (a simplex
   in 3D) whose combination y lies within margin/2 of the origin, rounding
   included.
   Fail.
3. Gilbert's minimum-norm-point iteration (Frank-Wolfe with exact line
   search), which passes on the first direction x with min p.x > margin |x|
   and fails when it stalls or runs out of iterations.

Stage 2 only skips work: it cannot change a decision. The axis test would
need every hull point beyond the margin on one axis, but y is a hull point
with every coordinate within margin/2. Gilbert would need min p.x > margin
|x|, but that minimum is at most y.x <= (margin/2) |x|, and the computed
dot products differ from the exact ones by less than 2e-15 scale |x|,
which stays below (margin/2) |x| whenever the certificate can fire. So
the stages in any order reach the same decision; stage 2 merely settles
most failing calls after a few steps instead of Gilbert's stall rule or
its ``_MAX_ITER`` steps.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import ControlNet

__all__ = ["exclusion_test", "hull_excludes_origin", "inside_certificate"]

_MAX_ITER = 128
_STALL_LIMIT = 10
_STALL_FACTOR = 1.0 - 1e-3
# Wolfe's method ends finitely in exact arithmetic; in floating point each
# major step must shorten x, and at most _MAX_MAJOR are taken.
_MAX_MAJOR = 32
# A corral whose Gram determinant falls below this share of the product of
# its diagonal is treated as affinely dependent.
_SINGULAR = 1e-12
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).smallest_subnormal)


def hull_excludes_origin(points: np.ndarray, tol: float = 1e-12) -> bool:
    """True iff the origin is certifiably outside conv(points).

    ``tol`` is relative to the coefficient scale (the decision is scale
    invariant): an origin within tol * scale of the hull counts as inside,
    a conservative fail. An all-zero cloud is the origin itself, so it
    also fails.
    """
    pts = np.asarray(points, dtype=float)
    pts = pts.reshape(-1, pts.shape[-1])
    scale = np.abs(pts).max(initial=0.0)
    if scale == 0.0:
        return False
    margin = tol * scale

    if (pts.min(axis=0) > margin).any() or (pts.max(axis=0) < -margin).any():
        return True

    # Gilbert iteration toward the hull's minimum-norm point x. A single
    # matvec per step yields both the Frank-Wolfe vertex and the support
    # certificate: every hull point has inner product >= dots.min() with
    # x, so dots.min() / |x| lower-bounds the distance to the origin.
    # Wolfe's corrals share the first step: its start vertex and matvec.
    start = int(np.einsum("ij,ij->i", pts, pts).argmin())
    x = pts[start].copy()
    dots = pts @ x
    stall = 0
    nx2 = float(x @ x)
    for step in range(_MAX_ITER):
        nx = math.sqrt(nx2)
        if nx <= margin:
            return False
        j = int(dots.argmin())
        if dots[j] > margin * nx:
            return True
        if not step and inside_certificate(pts, start, dots, margin / 2) is not None:
            return False
        gap = nx2 - float(dots[j])
        if gap <= 0.0:
            # x is the minimum-norm point but its certificate margin is not
            # positive: origin on or within tolerance of the hull boundary.
            return False
        d = x - pts[j]
        dd = float(d @ d)
        if dd == 0.0:
            return False
        x -= min(1.0, gap / dd) * d
        new_nx2 = float(x @ x)
        stall = stall + 1 if new_nx2 > _STALL_FACTOR * nx2 else 0
        nx2 = new_nx2
        if stall >= _STALL_LIMIT:
            break
        dots = pts @ x
    return False


def inside_certificate(
    pts: np.ndarray, start: int, dots: np.ndarray, radius: float
) -> tuple[list[int], list[float]] | None:
    """Indices and convex weights of at most four rows of ``pts`` whose
    combination lies within ``radius`` of the origin, or None.

    Wolfe's corral iteration ("Finding the nearest point in a polytope",
    1976) from the row ``start``, with ``dots = pts @ pts[start]``. The
    weights are non-negative and their normalised combination, computed
    exactly from the float rows, has norm at most ``radius``: the float
    norm is checked against ``radius`` less a bound on its rounding. None
    means no certificate: the origin lies farther than ``radius`` from the
    hull, or the iteration met a degenerate corral or stopped making
    progress. Each minor cycle drops a point and at most ``_MAX_MAJOR``
    major steps run, so the call always ends.
    """
    # For k <= 4 rows, the float combination of the float-normalised weights
    # and its hypot differ from the exact normalised combination's norm by
    # at most (2k + 2) sqrt(d) eps M <= 16 d eps M, M the largest |coefficient|
    # (plus k halves of the least subnormal where products underflow).
    limit = radius - 16 * pts.shape[1] * (_EPS * float(np.abs(pts).max()) + _TINY)
    corral = [start]
    weights = [1.0]
    corral_pts = pts[corral]
    nx = math.hypot(*corral_pts[0])
    for _ in range(_MAX_MAJOR):
        if nx <= limit:
            return corral, weights
        j = int(dots.argmin())
        # dots[j] / |x| lower-bounds the distance from the origin to the hull.
        if dots[j] > radius * nx or nx * nx - dots[j] <= 0.0 or j in corral:
            return None
        corral.append(j)
        weights.append(0.0)
        while True:  # minor cycles: each one drops at least one point
            corral_pts = pts[corral]
            alpha = _affine_minimizer(corral_pts)
            if alpha is None:
                return None
            if min(alpha) > 0.0:
                weights = alpha
                break
            # Move from the weights toward alpha until a weight reaches 0.
            theta, drop = min(
                (w / (w - a) if w > 0.0 else 0.0, i)
                for i, (w, a) in enumerate(zip(weights, alpha))
                if a <= 0.0
            )
            weights = [(1.0 - theta) * w + theta * a for w, a in zip(weights, alpha)]
            keep = [i for i, w in enumerate(weights) if i != drop and w > 0.0]
            if not keep:
                return None
            corral = [corral[i] for i in keep]
            weights = [weights[i] for i in keep]
        total = sum(weights)
        weights = [w / total for w in weights]
        x = np.asarray(weights) @ corral_pts
        new_nx = math.hypot(*x)
        if not new_nx < nx:
            return None
        nx = new_nx
        dots = pts @ x
    return None


def _affine_minimizer(corral_pts: np.ndarray) -> list[float] | None:
    """Weights, summing to 1, of the least-norm point of the rows' affine hull.

    With q_i = p_i - p_0, the point y = p_0 + sum b_i q_i is least when
    G b = -Q p_0 for the Gram matrix G = Q Q^T. One step of iterative
    refinement against the residual Q y recovers the accuracy that forming
    G loses on flat corrals. None when the rows are affinely dependent to
    within ``_SINGULAR``, there are more than four, or a weight is not
    finite.
    """
    p0 = corral_pts[0]
    q = corral_pts[1:] - p0
    if q.shape[0] == 0:
        return [1.0]
    inverse = _gram_inverse((q @ q.T).tolist())
    if inverse is None:
        return None
    beta = inverse @ -(q @ p0)
    beta -= inverse @ (q @ (p0 + beta @ q))
    alpha = [1.0 - float(beta.sum()), *beta.tolist()]
    return alpha if all(math.isfinite(a) for a in alpha) else None


def _gram_inverse(g: list[list[float]]) -> np.ndarray | None:
    """Inverse of a symmetric positive definite matrix of order 1 to 3, by
    its adjugate; None for a larger or (nearly) singular one.

    Not ``np.linalg.inv``, which made ``paper_suite`` 14% slower end to end,
    nor ``kantorovich.inverse_2x2``, whose absolute singularity floor would
    make the hull test depend on the units of the input.
    """
    if len(g) == 1:
        (a,), = g
        return np.array([[1.0 / a]]) if a > 0.0 else None
    if len(g) == 2:
        (a, b), (_, c) = g
        det = a * c - b * b
        if not det > _SINGULAR * a * c:
            return None
        return np.array([[c, -b], [-b, a]]) / det
    if len(g) == 3:
        (a, b, c), (_, e, f), (_, _, i) = g
        adj = np.array([
            [e * i - f * f, c * f - b * i, b * f - c * e],
            [c * f - b * i, a * i - c * c, b * c - a * f],
            [b * f - c * e, b * c - a * f, a * e - b * b],
        ])
        det = a * adj[0, 0] + b * adj[0, 1] + c * adj[0, 2]
        if not det > _SINGULAR * a * e * i:
            return None
        return adj / det
    return None


def exclusion_test(net: ControlNet, tol: float = 1e-12) -> bool:
    """True iff the net's coefficient hull excludes the origin.

    A pass proves the net's map has no zero over the unit square. A fail
    only means a zero could not be ruled out.
    """
    return hull_excludes_origin(net.coeffs.reshape(-1, net.dim), tol)
