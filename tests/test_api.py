"""The package's public names, pinned, so that adding or removing one shows in review."""

import types

import cci

PUBLIC_NAMES = [
    "BezierCurve",
    "ControlNet",
    "IntersectionRecord",
    "KantorovichOutcome",
    "NewtonResult",
    "PairStatus",
    "PairTest",
    "Problem",
    "ProblemFormatError",
    "Rect",
    "SolveReport",
    "SolverConfig",
    "Square",
    "brute_force_intersections",
    "derivative_curve",
    "difference_net",
    "eval_curve",
    "eval_net",
    "exclusion_test",
    "explored_region",
    "inverse_2x2",
    "load_problem",
    "newton_solve",
    "parse_problem",
    "point_is_known",
    "region_prunes_square",
    "reparametrize",
    "rho_radii",
    "sample_curve",
    "solve",
    "update_scale",
]


def test_public_names_are_the_pinned_set():
    # Submodules are attributes of the package too, but which of them are
    # depends on what has been imported (``cci.cli`` only once a test loads
    # it), so they are left out.
    names = sorted(
        name for name, value in vars(cci).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC_NAMES
