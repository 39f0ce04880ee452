"""The GJK walk's simplex step written with small vector helpers.

A test oracle. ``nearest_face`` is ``cci.exclusion._nearest_face`` as it was
before its differences, dot products and cross products were written out
inline, with ``_sub``, ``_dot`` and ``_cross`` kept verbatim. Both round
every operation in the same order, so they must agree bit for bit.
"""

from __future__ import annotations

from cci.exclusion import _DEGENERATE


def nearest_face(simplex: list[tuple]) -> tuple[tuple, list[tuple]] | None:
    a, *rest = simplex
    if not rest:
        return a, simplex
    u = _sub(rest[0], a)
    if len(simplex) == 2:
        uu = _dot(u, u)
        if not uu > 0.0:
            return None
        t = -_dot(a, u) / uu
        y, weights = (a[0] + t * u[0], a[1] + t * u[1], a[2] + t * u[2]), (1.0 - t, t)
    elif len(simplex) == 3:
        b, c = rest
        v = _sub(c, a)
        n = _cross(u, v)
        nn = _dot(n, n)
        if not nn > _DEGENERATE * _dot(u, u) * _dot(v, v):
            return None
        t = _dot(a, n) / nn
        y = (t * n[0], t * n[1], t * n[2])
        weights = (_dot(n, _cross(b, c)), _dot(n, _cross(c, a)), _dot(n, _cross(a, b)))
    else:
        b, c, d = rest
        v, w = _sub(c, a), _sub(d, a)
        volume = _dot(u, _cross(v, w))
        if not volume * volume > _DEGENERATE * _dot(u, u) * _dot(v, v) * _dot(w, w):
            return None
        cd, ab = _cross(c, d), _cross(a, b)
        y = (0.0, 0.0, 0.0)
        weights = [volume * s for s in (_dot(b, cd), -_dot(a, cd), _dot(ab, d), -_dot(ab, c))]
    if min(weights) > 0.0:
        return y, simplex
    best = None
    for drop, weight in enumerate(weights):
        if weight <= 0.0:
            found = nearest_face(simplex[:drop] + simplex[drop + 1:])
            if found is None:
                return None
            if best is None or _dot(found[0], found[0]) < _dot(best[0], best[0]):
                best = found
    return best


def _sub(p: tuple, q: tuple) -> tuple:
    return p[0] - q[0], p[1] - q[1], p[2] - q[2]


def _dot(p: tuple, q: tuple) -> float:
    return p[0] * q[0] + p[1] * q[1] + p[2] * q[2]


def _cross(p: tuple, q: tuple) -> tuple:
    return p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2], p[0] * q[1] - p[1] * q[0]
