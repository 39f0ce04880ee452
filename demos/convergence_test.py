"""The two tests that drive the solver: exclusion and the convergence test.

Shows, for one candidate square, how the exclusion test discards empty
regions and how the Kantorovich-type test certifies that Newton's method
will converge from the square's center, including the radii that later
become an explored region.
"""

import numpy as np

from cci import (
    BezierCurve,
    Rect,
    difference_net,
    eval_net,
    exclusion_test,
    newton_solve,
    reparametrize,
    rho_radii,
)
from cci.geometry import ControlNet
from cci.kantorovich import PASS_BOUND, PairStatus, PairSystem, test_pairs

c1 = BezierCurve([[0.0, 0.0, 0.0], [0.5, 1.5, 0.0], [1.0, 0.0, 0.0]])
c2 = BezierCurve([[0.0, 0.8, 0.0], [0.5, -0.7, 0.0], [1.0, 0.8, 0.0]])
net = difference_net(c1, c2)

# Exclusion: a square whose restricted coefficient hull misses the origin
# cannot contain an intersection.
for rect in (Rect(0.0, 0.25, 0.6, 0.85), Rect(0.05, 0.35, 0.05, 0.35)):
    excluded = exclusion_test(reparametrize(net, rect))
    print(f"square {rect}: {'no intersection possible' if excluded else 'cannot rule out a zero'}")

# Convergence test on a square containing the intersection near
# (0.158, 0.158). The map f has three components in two unknowns; the test
# runs on the square system g = P f, with P = (J^T J)^-1 J^T the
# pseudo-inverse of f's Jacobian J at the center, so g's Jacobian there is
# the identity. (The curves are coplanar, so P is the inverse of the two
# planar rows and g is the classic 2x2 system.) The test domain is 1.5
# times the square. The solver builds the system once per run and passes
# each square's own net. omega is the largest row sum
# M_uu,i + 2 M_uv,i + M_vv,i, each M the largest |coefficient| of row i of
# P f_uu, P f_uv or P f_vv over the domain.
center, half_width = (0.1875, 0.1875), 0.0625
square = reparametrize(net, Rect(0.125, 0.25, 0.125, 0.25))
(t,) = test_pairs(PairSystem(net), square, center, half_width, 1.5).pairs
print(f"\nconvergence test: {t.status.value}")
print("  P     =", [[round(x, 6) for x in row] for row in t.projection])
print(f"  eta   = {t.eta:.6g}   (first Newton step bound)")
if t.omega is not None:
    print(f"  omega = {t.omega:.6g}   (certified Lipschitz constant)")
    print(f"  h     = {t.eta * t.omega:.6g}   (eta * omega; pass needs h <= {PASS_BOUND})")
else:
    print("  failed by omega's lower bound at the center; omega not computed")
if t.rho_minus is not None:
    print(f"  rho- = {t.rho_minus:.6g}  rho+ = {t.rho_plus:.6g}")

assert t.status is PairStatus.PASS
print("\nNewton from the square center on g = P f:")
projected = ControlNet(net.coeffs @ np.array(t.projection).T)
result = newton_solve(projected, center)
# Iterate k is where the same run stops when capped at k steps.
for k in range(result.iterations + 1):
    p = newton_solve(projected, center, max_iter=k).root
    print(f"  x{k} = ({p[0]:.12f}, {p[1]:.12f})")
residual = float(np.abs(eval_net(net, *result.root)).max())
print("converged:", result.converged, " residual of f:", residual)
dist = max(abs(result.root[0] - center[0]), abs(result.root[1] - center[1]))
print(f"|root - center| = {dist:.3g} <= rho- = {t.rho_minus:.3g}")

# The radii respond to the test quantities: the smaller h, the tighter the
# existence ball and the wider the uniqueness ball.
print("\nradii as h varies (eta fixed at 0.05):")
for omega in (0.0, 1.0, 2.5, 5.0, 9.0):
    rm, rp = rho_radii(0.05, omega)
    print(f"  omega={omega:3.1f}  h={0.05 * omega:.3f}  rho-={rm:.4f}  rho+={rp:.4f}")
