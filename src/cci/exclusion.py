"""Exclusion test: does the convex hull of a net's coefficients miss the origin?

By the convex-hull property of Bernstein coefficients, a net whose
coefficient cloud excludes the origin represents a map with no zero on the
unit square, so the corresponding subdomain can be discarded. With
``margin = tol * scale``, scale the largest coefficient magnitude, the test
runs in two stages:

1. Axis test (``axis_test``, over a stack of nets at once): some coordinate
   exceeds the margin, with one sign, at every coefficient. Pass. It also
   returns each net's margin and the index of its first coefficient of
   least norm, the second stage's start.
2. A GJK walk (``walk_test``, one net at a time; Gilbert, Johnson &
   Keerthi, "A fast procedure for computing the distance between complex
   objects in three-dimensional space", 1988) from that coefficient toward
   the hull's point nearest the origin. Each major step adds
   the coefficient p of least p.x to a simplex of at most four
   coefficients, which a closed-form step in Python floats reduces to its
   point nearest the origin and the smallest face that holds it
   (barycentric weights from cross products and signed volumes, as in
   Montanari, Petrinic & Barbieri, ACM TOG 2017). The walk passes at the
   first x with min p.x > margin |x| over the coefficients p, and fails
   otherwise.

``exclusion_test`` runs both stages on one net. The solver runs the first
on every square of a batch at once and the second on each square the
first leaves open.

A pass is sound: min p.x > margin |x| puts every coefficient, hence the
whole hull, strictly on the positive side of the plane through the origin
normal to x, and the dot products err by less than 2e-15 scale |x|, far
below margin |x| at the default tol. numpy computes that minimum over every
coefficient, so soundness never rests on the simplex step. A fail only
means the origin could not be ruled out, so every other ending (x within
the margin of the origin, x the minimum-norm point, a repeated support
coefficient, a degenerate face, a step that does not shorten x, or
``_MAX_MAJOR`` steps) fails conservatively.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import ControlNet

# GJK ends finitely in exact arithmetic; in floating point each major step
# must shorten x, and at most _MAX_MAJOR are taken.
_MAX_MAJOR = 32
# A face whose squared volume falls below this share of the product of its
# squared edge lengths from its first vertex is treated as degenerate.
_DEGENERATE = 1e-12


def exclusion_test(net: ControlNet, tol: float = 1e-12) -> bool:
    """True iff the net's coefficient hull certifiably excludes the origin.

    A pass proves the net's map has no zero over the unit square. A fail
    only means a zero could not be ruled out. ``tol`` is relative to the
    coefficient scale (the decision is scale invariant): an origin within
    tol * scale of the hull counts as inside, a conservative fail. An
    all-zero net is the origin itself, so it also fails. The GJK walk works
    in at most three dimensions; on a net of higher dimension the axis test
    alone decides, and what it cannot pass fails conservatively.
    """
    pts = net.coeffs.reshape(-1, net.dim)
    passed, margin, start = axis_test(pts[None], tol)
    return bool(passed[0]) or walk_test(pts, float(margin[0]), int(start[0]))


def axis_test(clouds: np.ndarray, tol: float = 1e-12) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The first stage on a stack of N clouds of one shape (N, ..., dim).

    Returns, each of shape (N,), whether each cloud passes, its margin and
    the index of its first row of least norm, the walk's start. With low and
    high its column minima and maxima, a cloud passes when some max(low,
    -high) exceeds its margin, tol times the largest max(-low, high). These
    steps are exact, so all three equal bit for bit what one cloud alone
    gives (``+ 0.0`` keeps a zero margin positive); up to three columns,
    where the walk runs, squared norms sum as ``einsum`` sums them,
    (x0^2 + x2^2) + x1^2. The reductions run over a contiguous (N, dim, K)
    copy, along its last axis, which is faster than across the rows.
    """
    count, dim = clouds.shape[0], clouds.shape[-1]
    columns = np.ascontiguousarray(clouds.reshape(count, -1, dim).transpose(0, 2, 1))
    low, high = columns.min(axis=2), columns.max(axis=2)
    margin = tol * np.maximum(-low, high).max(axis=1) + 0.0
    passed = np.maximum(low, -high).max(axis=1) > margin
    squares = columns * columns
    norms = squares[:, 0] + squares[:, 2] + squares[:, 1] if dim == 3 else squares.sum(axis=1)
    return passed, margin, norms.argmin(axis=1)


def walk_test(pts: np.ndarray, margin: float, start: int) -> bool:
    """The second stage on one cloud's rows, with ``axis_test``'s margin and
    start row index: True iff the GJK walk finds a separating
    direction. A cloud of more than three columns, or an all-zero one
    (margin 0), fails."""
    return pts.shape[1] <= 3 and _separating_direction(pts, margin, start) is not None


def _separating_direction(pts: np.ndarray, margin: float, start: int) -> tuple[float, ...] | None:
    """A direction x with min(pts @ x) > margin |x|, found by a GJK walk from
    row ``start``, the first of least norm, or None.

    Rows of 1 to 3 columns are padded to three for the simplex step, and x
    is cut back to the rows' width, a tuple of floats that ``pts.dot`` takes
    as is: the same dots as ``@`` on an array, without building one. At most
    ``_MAX_MAJOR`` major steps run, so the call always ends.
    """
    dim = pts.shape[1]
    pad = (0.0,) * (3 - dim)
    x = tuple(pts[start].tolist())
    simplex = [(*x, *pad)]
    nx = math.hypot(*simplex[0])
    for _ in range(_MAX_MAJOR):
        if nx <= margin:  # the origin lies within the margin of the hull
            return None
        dots = pts.dot(x)
        j = int(dots.argmin())
        support = float(dots[j])
        if support > margin * nx:
            return x
        point = (*pts[j].tolist(), *pad)
        if nx * nx - support <= 0.0 or point in simplex:
            return None
        nearest = _nearest_face([*simplex, point])
        if nearest is None:
            return None
        y, simplex = nearest
        x = y[:dim]
        new_nx = math.hypot(*y)
        if not new_nx < nx:
            # Rounding stalled the walk; its last point may still separate.
            return x if pts.dot(x).min() > margin * new_nx else None
        nx = new_nx
    return None


def _nearest_face(simplex: list[tuple]) -> tuple[tuple, list[tuple]] | None:
    """The point y of the hull of 1 to 4 points in 3D nearest the origin, and
    the smallest face of the simplex that holds it; None when a segment,
    triangle or tetrahedron met on the way is degenerate.

    When the origin's projection onto the points' affine hull has positive
    barycentric weights (kept up to a positive factor), it is y. Otherwise y
    lies on a facet opposite a point of weight <= 0: the nearest facet's y.
    Differences, dot products p0 q0 + p1 q1 + p2 q2 and cross products are
    written out, each summed left to right.
    """
    (a0, a1, a2), *rest = simplex
    if not rest:
        return simplex[0], simplex
    u0, u1, u2 = rest[0][0] - a0, rest[0][1] - a1, rest[0][2] - a2
    uu = u0 * u0 + u1 * u1 + u2 * u2
    if len(simplex) == 2:
        if not uu > 0.0:
            return None
        t = -(a0 * u0 + a1 * u1 + a2 * u2) / uu
        y, weights = (a0 + t * u0, a1 + t * u1, a2 + t * u2), (1.0 - t, t)
    elif len(simplex) == 3:
        (b0, b1, b2), (c0, c1, c2) = rest
        v0, v1, v2 = c0 - a0, c1 - a1, c2 - a2
        n0, n1, n2 = u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0
        nn = n0 * n0 + n1 * n1 + n2 * n2
        if not nn > _DEGENERATE * uu * (v0 * v0 + v1 * v1 + v2 * v2):
            return None
        t = (a0 * n0 + a1 * n1 + a2 * n2) / nn
        y = (t * n0, t * n1, t * n2)
        weights = (
            n0 * (b1 * c2 - b2 * c1) + n1 * (b2 * c0 - b0 * c2) + n2 * (b0 * c1 - b1 * c0),
            n0 * (c1 * a2 - c2 * a1) + n1 * (c2 * a0 - c0 * a2) + n2 * (c0 * a1 - c1 * a0),
            n0 * (a1 * b2 - a2 * b1) + n1 * (a2 * b0 - a0 * b2) + n2 * (a0 * b1 - a1 * b0),
        )
    else:
        (b0, b1, b2), (c0, c1, c2), (d0, d1, d2) = rest
        v0, v1, v2 = c0 - a0, c1 - a1, c2 - a2
        w0, w1, w2 = d0 - a0, d1 - a1, d2 - a2
        volume = u0 * (v1 * w2 - v2 * w1) + u1 * (v2 * w0 - v0 * w2) + u2 * (v0 * w1 - v1 * w0)
        vv, ww = v0 * v0 + v1 * v1 + v2 * v2, w0 * w0 + w1 * w1 + w2 * w2
        if not volume * volume > _DEGENERATE * uu * vv * ww:
            return None
        cd0, cd1, cd2 = c1 * d2 - c2 * d1, c2 * d0 - c0 * d2, c0 * d1 - c1 * d0
        ab0, ab1, ab2 = a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0
        y = (0.0, 0.0, 0.0)
        weights = [volume * s for s in (
            b0 * cd0 + b1 * cd1 + b2 * cd2, -(a0 * cd0 + a1 * cd1 + a2 * cd2),
            ab0 * d0 + ab1 * d1 + ab2 * d2, -(ab0 * c0 + ab1 * c1 + ab2 * c2),
        )]
    if min(weights) > 0.0:
        return y, simplex
    best = best_norm = None
    for drop, weight in enumerate(weights):
        if weight <= 0.0:
            found = _nearest_face(simplex[:drop] + simplex[drop + 1:])
            if found is None:
                return None
            (y0, y1, y2), _ = found
            norm = y0 * y0 + y1 * y1 + y2 * y2
            if best is None or norm < best_norm:
                best, best_norm = found, norm
    return best
