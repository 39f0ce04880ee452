"""The package's public names and their parameters, pinned, so that adding
or removing one shows in review."""

import inspect
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


# The parameter names of each public callable, in order. The enum
# ``PairStatus`` and the exception ``ProblemFormatError`` take Python's own
# parameters, so they are left out.
PINNED_PARAMETERS = {
    "BezierCurve": ["control_points"],
    "ControlNet": ["coeffs"],
    "IntersectionRecord": ["u", "v", "point", "residual", "source_square"],
    "KantorovichOutcome": ["pairs"],
    "NewtonResult": ["converged", "root", "iterations", "failure_reason"],
    "PairTest": ["projection", "status", "test_domain", "eta", "omega", "rho_minus",
                 "rho_plus", "step"],
    "Problem": ["name", "curve1", "curve2"],
    "Rect": ["lo_u", "hi_u", "lo_v", "hi_v"],
    "SolveReport": ["zero_tol", "intersections", "squares_examined", "subdivisions",
                    "exclusion_passes", "kantorovich_passes", "max_depth_reached",
                    "truncated"],
    "SolverConfig": ["mode", "epsilon"],
    "Square": ["center", "half_width", "scale", "depth"],
    "brute_force_intersections": ["c1", "c2"],
    "derivative_curve": ["curve"],
    "difference_net": ["c1", "c2"],
    "eval_curve": ["curve", "t"],
    "eval_net": ["net", "u", "v"],
    "exclusion_test": ["net", "tol"],
    "explored_region": ["passed", "center"],
    "inverse_2x2": ["a", "b", "c", "d"],
    "load_problem": ["path"],
    "newton_solve": ["pair_net", "x0", "tol", "max_iter"],
    "parse_problem": ["data", "source"],
    "point_is_known": ["regions", "x"],
    "region_prunes_square": ["regions", "center", "half_width"],
    "reparametrize": ["net", "target"],
    "rho_radii": ["eta_value", "omega_value"],
    "sample_curve": ["curve", "ts"],
    "solve": ["c1", "c2", "config", "observer"],
    "update_scale": ["outcome", "scale", "epsilon"],
}


def test_public_callables_keep_their_pinned_parameters():
    parameters = {
        name: list(inspect.signature(getattr(cci, name)).parameters)
        for name in PUBLIC_NAMES
        if name not in ("PairStatus", "ProblemFormatError")
    }
    assert parameters == PINNED_PARAMETERS
