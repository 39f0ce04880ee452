"""Bernstein/Bezier basics: curves, the difference net, and restriction.

Walks through the geometric kernel the solver is built on: evaluating
curves, turning an intersection question into a root-finding question via
the difference net, and reparametrizing that net over a subrectangle.
"""

import numpy as np

from cci import (
    BezierCurve,
    Rect,
    difference_net,
    eval_curve,
    eval_net,
    reparametrize,
    sample_curve,
)

# Two cubic space curves.
c1 = BezierCurve([[0.0, 0.0, 0.0], [0.3, 1.2, 0.2], [0.7, -0.4, 0.4], [1.0, 0.8, 0.1]])
c2 = BezierCurve([[0.0, 0.9, 0.3], [0.4, -0.2, 0.1], [0.6, 1.1, 0.2], [1.0, 0.1, 0.0]])

print("curve 1 degree:", c1.degree)
print("curve 1 at t=0.5:", eval_curve(c1, 0.5))
print("curve 1 endpoints interpolate the outer control points:")
print("  c1(0) =", eval_curve(c1, 0.0), " first control point =", c1.control_points[0])

# A handful of points along each curve (plot these with any tool you like).
ts = np.linspace(0.0, 1.0, 5)
print("\nsamples of curve 2:")
for t, p in zip(ts, sample_curve(c2, ts)):
    print(f"  t={t:.2f}  ({p[0]: .4f}, {p[1]: .4f}, {p[2]: .4f})")

# Intersections of c1 and c2 are exactly the zeros of f(u, v) = c1(u) - c2(v).
# f is itself a polynomial map with a tensor grid of Bernstein coefficients,
# each the difference of one control point of c1 and one of c2.
net = difference_net(c1, c2)
print("\ndifference net degrees:", (net.degree_u, net.degree_v), "dim:", net.dim)
u, v = 0.3, 0.8
print("f(0.3, 0.8)             =", eval_net(net, u, v))
print("c1(0.3) - c2(0.8)       =", eval_curve(c1, u) - eval_curve(c2, v))

# The solver constantly restricts f to subrectangles. The restriction is a
# net of the same degrees whose coefficients describe f over the target.
target = Rect(0.25, 0.5, 0.5, 0.75)
sub = reparametrize(net, target)
s, t = 0.4, 0.6
# (s, t) in the unit square stands for this point of the target.
inside = (
    target.lo_u + s * (target.hi_u - target.lo_u),
    target.lo_v + t * (target.hi_v - target.lo_v),
)
print("\nrestriction to", target)
print("restricted net at (0.4, 0.6) =", eval_net(sub, s, t))
print("original net at", tuple(round(x, 4) for x in inside), "=", eval_net(net, *inside))

# Coefficients of the restriction bound the map's values over the target
# (the convex hull property that powers the exclusion test).
values = np.array([eval_net(sub, s, t) for s in ts for t in ts])
print("\ncoefficient bounds vs sampled values over the target:")
print("  coeff min  ", sub.coeffs.reshape(-1, 3).min(axis=0))
print("  sample min ", values.min(axis=0))
print("  sample max ", values.max(axis=0))
print("  coeff max  ", sub.coeffs.reshape(-1, 3).max(axis=0))
