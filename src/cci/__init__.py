"""Intersections of two 3D Bezier curves by Kantorovich-test subdivision.

The solver covers the unit parameter square with a FIFO queue of squares,
discards squares whose Bernstein coefficient hull excludes the origin,
certifies Newton convergence from square centers with a Kantorovich-type
test of one projected 2x2 system per square, refines certified starts with
Newton's method, and prunes around confirmed intersections using the
theorem's uniqueness ball. Test-domain sizes can adapt from each parent
square's failure mode or stay fixed.
"""

from .geometry import (
    BezierCurve,
    ControlNet,
    Rect,
    derivative_curve,
    difference_net,
    eval_curve,
    eval_net,
    reparametrize,
    sample_curve,
)
from .exclusion import exclusion_test
from .kantorovich import (
    KantorovichOutcome,
    PairStatus,
    PairTest,
    explored_region,
    inverse_2x2,
    rho_radii,
)
from .newton import NewtonResult, newton_solve
from .engine import (
    IntersectionRecord,
    SolveReport,
    SolverConfig,
    Square,
    point_is_known,
    region_prunes_square,
    solve,
    update_scale,
)
from .oracle import brute_force_intersections
from .problems import Problem, ProblemFormatError, load_problem, parse_problem

__version__ = "0.1.0"
