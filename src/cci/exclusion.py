"""Exclusion test: does the convex hull of a net's coefficients miss the origin?

By the convex-hull property of Bernstein coefficients, a net whose
coefficient cloud excludes the origin represents a map with no zero on the
unit square, so the corresponding subdomain can be discarded. With
``margin = tol * scale``, scale the largest coefficient magnitude, the test
runs in two stages:

1. Axis test: some coordinate exceeds the margin, with one sign, at every
   coefficient. Pass.
2. Wolfe's minimum-norm-point corrals (Wolfe, "Finding the nearest point in
   a polytope", 1976; also the termination test of GJK), which walk convex
   combinations x of at most four coefficients toward the hull's point
   nearest the origin. They pass at the first x with min p.x > margin |x|
   over the coefficients p, and fail otherwise.

A pass is sound: min p.x > margin |x| puts every coefficient, hence the
whole hull, strictly on the positive side of the plane through the origin
normal to x, and the dot products err by less than 2e-15 scale |x|, far
below margin |x| at the default tol. A fail only means the origin could
not be ruled out, so every other ending (x within the margin of the
origin, x the minimum-norm point, a repeated vertex, a degenerate corral,
a step that does not shorten x, or ``_MAX_MAJOR`` steps) fails
conservatively.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import ControlNet

__all__ = ["exclusion_test"]

# Wolfe's method ends finitely in exact arithmetic; in floating point each
# major step must shorten x, and at most _MAX_MAJOR are taken.
_MAX_MAJOR = 32
# A corral whose Gram determinant falls below this share of the product of
# its diagonal is treated as affinely dependent.
_SINGULAR = 1e-12


def exclusion_test(net: ControlNet, tol: float = 1e-12) -> bool:
    """True iff the net's coefficient hull certifiably excludes the origin.

    A pass proves the net's map has no zero over the unit square. A fail
    only means a zero could not be ruled out. ``tol`` is relative to the
    coefficient scale (the decision is scale invariant): an origin within
    tol * scale of the hull counts as inside, a conservative fail. An
    all-zero net is the origin itself, so it also fails.
    """
    pts = net.coeffs.reshape(-1, net.dim)
    scale = np.abs(pts).max()
    if scale == 0.0:
        return False
    margin = tol * scale
    if (pts.min(axis=0) > margin).any() or (pts.max(axis=0) < -margin).any():
        return True
    return _separating_direction(pts, margin) is not None


def _separating_direction(pts: np.ndarray, margin: float) -> np.ndarray | None:
    """A direction x with min(pts @ x) > margin |x|, found by Wolfe's
    corrals from the row of least norm, or None.

    Each minor cycle drops a point and at most ``_MAX_MAJOR`` major steps
    run, so the call always ends.
    """
    corral = [int(np.einsum("ij,ij->i", pts, pts).argmin())]
    weights = [1.0]
    x = pts[corral[0]]
    nx = math.hypot(*x)
    dots = pts @ x
    for _ in range(_MAX_MAJOR):
        if nx <= margin:
            return None
        j = int(dots.argmin())
        if dots[j] > margin * nx:
            return x
        if nx * nx - dots[j] <= 0.0 or j in corral:
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
        dots = pts @ x
        if not new_nx < nx:
            # Rounding stalled the walk; its last point may still separate.
            return x if dots.min() > margin * new_nx else None
        nx = new_nx
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
