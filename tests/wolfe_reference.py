"""The hull test's walk before the GJK one: Wolfe's minimum-norm-point corrals.

A test oracle. ``_separating_direction``, ``_affine_minimizer`` and
``_gram_inverse`` are kept verbatim from ``cci.exclusion`` as it was before
the GJK walk with a closed-form simplex step replaced them, and
``decides`` wraps them in the same axis test as ``exclusion_test``; the two
must reach the same decision on every cloud.
"""

from __future__ import annotations

import math

import numpy as np


def decides(points, tol: float = 1e-12) -> bool:
    """``exclusion_test``'s decision on the cloud's rows, with Wolfe's corrals."""
    pts = np.asarray(points, dtype=float)
    pts = pts.reshape(-1, pts.shape[-1])
    scale = np.abs(pts).max()
    if scale == 0.0:
        return False
    margin = tol * scale
    if (pts.min(axis=0) > margin).any() or (pts.max(axis=0) < -margin).any():
        return True
    return _separating_direction(pts, margin) is not None


# Wolfe's method ends finitely in exact arithmetic; in floating point each
# major step must shorten x, and at most _MAX_MAJOR are taken.
_MAX_MAJOR = 32
# A corral whose Gram determinant falls below this share of the product of
# its diagonal is treated as affinely dependent.
_SINGULAR = 1e-12


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
