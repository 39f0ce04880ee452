"""End-to-end solve: find every intersection of two curves and inspect
the run, then cross-check the answer with the brute-force finder.
"""

import numpy as np

from cci import BezierCurve, SolverConfig, brute_force_intersections, solve

# Planar quintics with several crossings.
rng = np.random.default_rng(12345)
a = rng.uniform(0, 1, (6, 3)); a[:, 2] = 0.0
b = rng.uniform(0, 1, (6, 3)); b[:, 2] = 0.0
c1, c2 = BezierCurve(a), BezierCurve(b)

events = {"square": 0, "kantorovich": 0, "newton": 0}
report = solve(c1, c2, SolverConfig(mode="adaptive", epsilon=0.05),
               observer=lambda event, payload: events.__setitem__(event, events.get(event, 0) + 1))

print("intersections:")
for rec in report.intersections:
    print(f"  u={rec.u:.10f}  v={rec.v:.10f}  point=({rec.point[0]:.6f}, "
          f"{rec.point[1]:.6f}, {rec.point[2]:.6f})  residual={rec.residual:.2e}")

print("\nrun statistics:")
print("  squares examined  :", report.squares_examined)
print("  subdivisions      :", report.subdivisions)
print("  exclusion passes  :", report.exclusion_passes)
print("  convergence passes:", report.kantorovich_passes)
print("  deepest square    :", report.max_depth_reached)
print("  truncated         :", report.truncated)
print("  observer events   :", events)

# Independent cross-check: dense sampling plus Gauss-Newton polish.
expected = brute_force_intersections(c1, c2)
got = sorted((rec.u, rec.v) for rec in report.intersections)
print("\nbrute-force finder agrees:",
      len(got) == len(expected)
      and all(max(abs(g[0] - e[0]), abs(g[1] - e[1])) < 1e-6
              for g, e in zip(got, expected)))

# The same curves in fixed test-domain mode for comparison.
fixed = solve(c1, c2, SolverConfig(mode="fixed"))
print("fixed-mode squares examined:", fixed.squares_examined,
      "(adaptive used", report.squares_examined, ")")
