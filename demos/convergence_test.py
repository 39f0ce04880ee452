"""The two tests that drive the solver: exclusion and the convergence test.

Shows, for one candidate square, how the exclusion test discards empty
regions and how the Kantorovich-type test certifies that Newton's method
will converge from the square's center, including the radii that later
become an explored region.
"""

import numpy as np

from cci import (
    COMPONENT_PAIRS,
    BezierCurve,
    Rect,
    difference_net,
    exclusion_test,
    newton_solve,
    reparametrize,
    rho_radii,
)
from cci.geometry import extract_pair
from cci.kantorovich import PairSystem, second_derivative_nets, test_pairs

c1 = BezierCurve([[0.0, 0.0, 0.0], [0.5, 1.5, 0.0], [1.0, 0.0, 0.0]])
c2 = BezierCurve([[0.0, 0.8, 0.0], [0.5, -0.7, 0.0], [1.0, 0.8, 0.0]])
net = difference_net(c1, c2)

# Exclusion: a square whose restricted coefficient hull misses the origin
# cannot contain an intersection.
for rect in (Rect(0.0, 0.25, 0.6, 0.85), Rect(0.05, 0.35, 0.05, 0.35)):
    excluded = exclusion_test(reparametrize(net, rect))
    print(f"square {rect}: {'no intersection possible' if excluded else 'cannot rule out a zero'}")

# Convergence test on a square containing the intersection near
# (0.158, 0.158). Each of the three coordinate pairs gets its own test
# domain, here 1.5 times the square; the first passing pair wins. (The
# curves are coplanar, so the two pairs involving the z coordinate are
# singular and skipped.) The solver builds the pair systems and the
# second-derivative nets once per run and passes each square's own net.
center, half_width = (0.1875, 0.1875), 0.0625
systems = [PairSystem(net, pair) for pair in COMPONENT_PAIRS]
square = reparametrize(net, Rect.ball(center, half_width))
outcome = test_pairs(
    systems, second_derivative_nets(net), square, center, half_width, (1.5, 1.5, 1.5)
)
for t in outcome.pairs:
    print(f"\npair {t.pair}: {t.status.value}")
    if t.eta is not None:
        print(f"  eta   = {t.eta:.6g}   (first Newton step bound)")
    if t.omega is not None:
        print(f"  omega = {t.omega:.6g}   (certified Lipschitz constant)")
        print(f"  h     = {t.eta * t.omega:.6g}   (eta * omega; pass needs h <= 1/4)")
    elif t.eta is not None:
        print("  failed by omega's lower bound at the center; omega not computed")
    if t.rho_minus is not None:
        print(f"  rho- = {t.rho_minus:.6g}  rho+ = {t.rho_plus:.6g}")

passed = outcome.passed
assert passed is not None
print("\nNewton from the square center on the passing pair:")
pair_net = extract_pair(net, passed.pair)
result = newton_solve(pair_net, center)
# Iterate k is where the same run stops when capped at k steps.
for k in range(result.iterations + 1):
    p = newton_solve(pair_net, center, max_iter=k).root
    print(f"  x{k} = ({p[0]:.12f}, {p[1]:.12f})")
print("converged:", result.converged, " residual:", result.final_residual_norm)
dist = max(abs(result.root[0] - center[0]), abs(result.root[1] - center[1]))
print(f"|root - center| = {dist:.3g} <= rho- = {passed.rho_minus:.3g}")

# The radii respond to the test quantities: the smaller h, the tighter the
# existence ball and the wider the uniqueness ball.
print("\nradii as h varies (eta fixed at 0.05):")
for omega in (0.0, 1.0, 2.5, 5.0):
    rm, rp = rho_radii(0.05, omega)
    print(f"  omega={omega:3.1f}  h={0.05 * omega:.3f}  rho-={rm:.4f}  rho+={rp:.4f}")
