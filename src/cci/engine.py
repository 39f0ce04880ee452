"""Subdivision driver: find every intersection of two Bezier curves.

A FIFO queue of candidate squares covers the unit parameter square. Each
square is skipped if it lies inside a known explored region, discarded if
the exclusion test proves it empty, and otherwise run through the
convergence test; a pass triggers Newton refinement and, for a confirmed
new zero, an explored region that prunes descendants. Squares failing
exclusion are always quartered, and the children's per-pair test-domain
multipliers are adapted from the parent's test outcome (grown after a
containment failure, shrunk after a convergence failure) unless the solver
runs in fixed mode, which keeps them constant.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable

import numpy as np

from .exclusion import exclusion_test
from .geometry import (
    BezierCurve,
    ControlNet,
    Rect,
    UNIT_SQUARE,
    difference_net,
    eval_curve,
    eval_net,
    reparametrize,
)
from .kantorovich import (
    COMPONENT_PAIRS,
    ExploredRegion,
    KantorovichOutcome,
    PairStatus,
    PairSystem,
    explored_region,
    second_derivative_nets,
    test_pairs,
)
from .newton import newton_solve

__all__ = [
    "TRACE",
    "Square",
    "SolverConfig",
    "IntersectionRecord",
    "SolveReport",
    "default_zero_tol",
    "update_scales",
    "region_prunes_square",
    "point_is_known",
    "solve",
]

TRACE = 5
logging.addLevelName(TRACE, "TRACE")
log = logging.getLogger(__name__)

# Test-domain multiplier of the root square, chosen so the initial test
# domains extend a quarter of the domain width beyond each side.
INITIAL_SCALE = 1.5

# Tolerances for accepting a refined zero as an intersection: how far
# outside the unit square it may sit, and how close to an already recorded
# one it may be before it is considered the same point.
_DOMAIN_SLACK = 1e-9
_DUPLICATE_TOL = 1e-9

Observer = Callable[[str, dict], None]

# Each child's quarter of its parent's local unit square, in child order.
_QUARTERS = (
    Rect(0.0, 0.5, 0.0, 0.5),
    Rect(0.5, 1.0, 0.0, 0.5),
    Rect(0.0, 0.5, 0.5, 1.0),
    Rect(0.5, 1.0, 0.5, 1.0),
)


@dataclass(frozen=True)
class Square:
    """Candidate subdomain: the closed ball of ``half_width`` about ``center``.

    ``scales`` are the per-pair test-domain multipliers (always >= 1), in
    the component-pair order of the convergence test.
    """

    center: tuple[float, float]
    half_width: float
    scales: tuple[float, float, float]
    depth: int = 0

    def __post_init__(self) -> None:
        if self.half_width <= 0.0:
            raise ValueError("half_width must be positive")
        cu, cv = self.center
        r = self.half_width
        if min(cu - r, cv - r) < -1e-12 or max(cu + r, cv + r) > 1.0 + 1e-12:
            raise ValueError("square must lie inside the unit parameter square")
        if any(s < 1.0 for s in self.scales):
            raise ValueError(f"test-domain scales must be >= 1, got {self.scales}")


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for a solve run.

    mode "adaptive" adjusts the per-pair test-domain multipliers by
    ``epsilon`` based on each parent square's failure mode; mode "fixed"
    pins all multipliers to ``fixed_scale``. ``zero_tol`` is the residual
    below which a refined point counts as an intersection; None picks
    1e-6 * (1 + max coefficient magnitude) at solve time.

    ``max_squares`` is a safety valve for inputs with non-isolated
    intersections (overlapping curves), whose zero set makes the number of
    non-excludable squares grow exponentially with depth: the run stops,
    truncated, once that many squares have been examined. Legitimate
    problems in this solver's domain use a few hundred squares.
    """

    mode: str = "adaptive"
    epsilon: float = 0.05
    fixed_scale: float = 1.5
    newton_tol: float = 1e-7
    zero_tol: float | None = None
    max_depth: int = 40
    clip_explored_region: bool = True
    max_squares: int = 100_000

    def __post_init__(self) -> None:
        if self.mode not in ("adaptive", "fixed"):
            raise ValueError(f"mode must be 'adaptive' or 'fixed', got {self.mode!r}")
        if self.epsilon < 0.0:
            raise ValueError("epsilon must be nonnegative")
        if self.fixed_scale < 1.0:
            raise ValueError("fixed_scale must be >= 1")
        if self.max_depth < 0:
            raise ValueError("max_depth must be nonnegative")
        if self.max_squares < 1:
            raise ValueError("max_squares must be positive")


@dataclass(frozen=True, eq=False)
class IntersectionRecord:
    u: float
    v: float
    point: np.ndarray
    residual: float
    source_square: Square


@dataclass
class SolveReport:
    intersections: list[IntersectionRecord] = field(default_factory=list)
    squares_examined: int = 0
    subdivisions: int = 0
    exclusion_passes: int = 0
    kantorovich_passes: int = 0
    newton_calls: int = 0
    max_depth_reached: int = 0
    truncated: bool = False


def default_zero_tol(c1: BezierCurve, c2: BezierCurve) -> float:
    """Residual acceptance tolerance used when the config leaves it unset.

    Scale-aware: 1e-6 times one plus the largest difference-net coefficient
    magnitude.
    """
    net = difference_net(c1, c2)
    return 1e-6 * (1.0 + float(np.abs(net.coeffs).max()))


def update_scales(
    outcome: KantorovichOutcome,
    scales: tuple[float, float, float],
    epsilon: float,
) -> tuple[float, float, float]:
    """Children's test-domain multipliers from the parent's test outcome.

    A passing parent hands its multipliers down unchanged. Otherwise each
    pair adapts independently: a containment failure grows the multiplier
    by epsilon, a convergence failure shrinks it by epsilon (never below
    1), and a singular Jacobian leaves it alone.
    """
    if outcome.passed is not None:
        return scales
    new = []
    for pair, s in zip(COMPONENT_PAIRS, scales):
        t = outcome.by_pair(pair)
        if t is not None and t.status is PairStatus.FAIL_CONTAINMENT:
            new.append(s + epsilon)
        elif t is not None and t.status is PairStatus.FAIL_CONVERGENCE:
            new.append(max(1.0, s - epsilon))
        else:
            new.append(s)
    return (new[0], new[1], new[2])


def region_prunes_square(regions: list[ExploredRegion], square: Square) -> bool:
    """True iff some single region fully contains the square."""
    return any(r.contains_square(square.center, square.half_width) for r in regions)


def point_is_known(regions: list[ExploredRegion], x: tuple[float, float]) -> bool:
    """True iff the point lies in some explored region (closed membership)."""
    return any(r.contains_point(x) for r in regions)


def _children(square: Square, scales: tuple[float, float, float]) -> list[Square]:
    cu, cv = square.center
    h = 0.5 * square.half_width
    depth = square.depth + 1
    return [
        Square((cu - h, cv - h), h, scales, depth),
        Square((cu + h, cv - h), h, scales, depth),
        Square((cu - h, cv + h), h, scales, depth),
        Square((cu + h, cv + h), h, scales, depth),
    ]


def solve(
    c1: BezierCurve,
    c2: BezierCurve,
    config: SolverConfig = SolverConfig(),
    observer: Observer | None = None,
) -> SolveReport:
    """Find all intersections of two curves; see the module docstring.

    A run is single-threaded and deterministic: FIFO order, a fixed child
    order and a fixed component-pair order are part of the observable
    contract. Inputs are immutable, so distinct runs may execute
    concurrently.

    ``observer``, when given, receives (event, payload) for each queue pop
    ("square"), convergence test ("kantorovich"), Newton refinement
    ("newton") and accepted intersection ("intersection"); it exists for
    instrumentation and does not affect the run.
    """
    net = difference_net(c1, c2)
    systems = [PairSystem(net, pair) for pair in COMPONENT_PAIRS]
    seconds = second_derivative_nets(net)
    zero_tol = config.zero_tol
    if zero_tol is None:
        zero_tol = default_zero_tol(c1, c2)

    initial = config.fixed_scale if config.mode == "fixed" else INITIAL_SCALE
    root = Square((0.5, 0.5), 0.5, (initial, initial, initial), 0)
    # A queue entry holds its square, its parent's net and its quarter of the
    # parent. The square's own net is restricted only once it is popped and
    # not pruned, so the queue holds one net per subdivided parent.
    queue: deque[tuple[Square, ControlNet, Rect]] = deque([(root, net, UNIT_SQUARE)])
    regions: list[ExploredRegion] = []
    report = SolveReport()
    trace = log.isEnabledFor(TRACE)

    while queue:
        if report.squares_examined >= config.max_squares:
            report.truncated = True
            if trace:
                log.log(TRACE, "square budget exhausted, stopping")
            break
        sq, parent_net, quarter = queue.popleft()
        report.squares_examined += 1
        report.max_depth_reached = max(report.max_depth_reached, sq.depth)
        if observer is not None:
            observer("square", {"square": sq})
        if trace:
            log.log(
                TRACE,
                "pop depth=%d center=(%.9g, %.9g) r=%.3g scales=(%.3g, %.3g, %.3g)",
                sq.depth, sq.center[0], sq.center[1], sq.half_width, *sq.scales,
            )

        if region_prunes_square(regions, sq):
            if trace:
                log.log(TRACE, "  pruned by explored region")
            continue

        square_net = reparametrize(parent_net, quarter)
        if exclusion_test(square_net):
            report.exclusion_passes += 1
            if trace:
                log.log(TRACE, "  exclusion test passed, square discarded")
            continue

        outcome = test_pairs(
            systems, seconds, square_net, sq.center, sq.half_width, sq.scales
        )
        if observer is not None:
            observer("kantorovich", {"square": sq, "outcome": outcome})
        if trace:
            for t in outcome.pairs:
                log.log(
                    TRACE,
                    "  pair %s: %s eta=%s omega=%s rho-=%s",
                    t.pair, t.status.value, t.eta, t.omega, t.rho_minus,
                )

        passed = outcome.passed
        if passed is not None:
            report.kantorovich_passes += 1
            system = systems[COMPONENT_PAIRS.index(passed.pair)]
            report.newton_calls += 1
            result = newton_solve(system.net, sq.center, tol=config.newton_tol)
            if observer is not None:
                observer("newton", {"square": sq, "passed": passed, "result": result})
            if result.converged:
                x = result.root
                residual = float(np.abs(eval_net(net, x[0], x[1])).max())
                if (
                    residual <= zero_tol
                    and -_DOMAIN_SLACK <= x[0] <= 1.0 + _DOMAIN_SLACK
                    and -_DOMAIN_SLACK <= x[1] <= 1.0 + _DOMAIN_SLACK
                    and not point_is_known(regions, x)
                    and not any(
                        max(abs(x[0] - r.u), abs(x[1] - r.v)) <= _DUPLICATE_TOL
                        for r in report.intersections
                    )
                ):
                    record = IntersectionRecord(
                        u=x[0],
                        v=x[1],
                        point=eval_curve(c1, x[0]),
                        residual=residual,
                        source_square=sq,
                    )
                    report.intersections.append(record)
                    regions.append(
                        explored_region(
                            passed, sq.center, x, clip=config.clip_explored_region
                        )
                    )
                    if observer is not None:
                        observer("intersection", {"record": record})
                    if trace:
                        log.log(TRACE, "  new intersection at (%.12g, %.12g)", *x)

        if sq.depth >= config.max_depth:
            report.truncated = True
            if trace:
                log.log(TRACE, "  max depth reached, not subdividing")
            continue

        child_scales = (
            (config.fixed_scale,) * 3
            if config.mode == "fixed"
            else update_scales(outcome, sq.scales, config.epsilon)
        )
        queue.extend(zip(_children(sq, child_scales), repeat(square_net), _QUARTERS))
        report.subdivisions += 1

    return report
