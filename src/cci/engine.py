"""Subdivision driver: find every intersection of two Bezier curves.

A FIFO queue of candidate squares covers the unit parameter square. Each
square is skipped if it lies inside a known explored region, discarded if
the exclusion test proves it empty, and otherwise run through the
convergence test; a pass triggers Newton refinement and, for a confirmed
new zero, an explored region that prunes descendants. Squares failing
exclusion are always quartered, and the children's per-pair test-domain
multipliers are adapted from the parent's test outcome (grown after a
containment failure, shrunk after a convergence failure). Fixed mode is the
same rule with a step of 0.

The queue runs breadth-first in batches. A batch is a list of squares and
their nets, the first one the root with the unit net. The axis stage of the
exclusion test runs on the whole batch at once; then each square meets its
fate in queue order. Each subdivided square queues its four children with
its net, and the next batch is the children of the next queued parents,
their nets restricted from the parents' in one call.
"""

from __future__ import annotations

import logging
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .exclusion import (
    axis_test,
    exclusion_test,  # noqa: F401 -- unused here; bench/tracing.py patches this binding
    walk_test,
)
from .geometry import (
    BezierCurve,
    ControlNet,
    Rect,
    difference_net,
    eval_curve,
    eval_net,
    reparametrize,  # noqa: F401 -- unused here; bench/tracing.py patches this binding
    restrict_quarters,
)
from .kantorovich import (
    COMPONENT_PAIRS,
    KantorovichOutcome,
    PairStatus,
    PairSystem,
    explored_region,
    second_derivative_nets,
    test_pairs,
)
from .newton import newton_solve

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

# At most this many parents have their children restricted and axis-tested
# in one batch.
_BATCH_PARENTS = 64

# Squares this deep are not split; the run is truncated instead. Not much
# deeper, a test domain's width rounds to zero (at depth 54).
MAX_DEPTH = 40

Observer = Callable[[str, dict], None]


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
        # Every check is a comparison that NaN fails, so NaN raises too.
        (cu, cv), r = self.center, self.half_width
        if not 0.0 < r < math.inf:
            raise ValueError(f"half_width must be positive and finite, got {r}")
        if not (-1e-12 <= cu - r and cu + r <= 1.0 + 1e-12
                and -1e-12 <= cv - r and cv + r <= 1.0 + 1e-12):
            raise ValueError("square must lie inside the unit parameter square")
        s0, s1, s2 = self.scales
        if not (1.0 <= s0 < math.inf and 1.0 <= s1 < math.inf and 1.0 <= s2 < math.inf):
            raise ValueError(f"test-domain scales must be finite and >= 1, got {self.scales}")


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for a solve run.

    Both modes start every per-pair test-domain multiplier at
    ``INITIAL_SCALE`` (1.5). Mode "adaptive" adjusts the multipliers by
    ``epsilon`` based on each parent square's failure mode; mode "fixed" is
    the same rule with a step of 0, so the multipliers stay at 1.5.
    ``zero_tol`` is the residual below which a refined point counts as an
    intersection; None picks 1e-6 * max coefficient magnitude at solve
    time, and the report carries the value used.

    ``max_squares`` is a safety valve for inputs with non-isolated
    intersections (overlapping curves), whose zero set makes the number of
    non-excludable squares grow exponentially with depth: the run stops,
    truncated, once that many squares have been examined. Legitimate
    problems in this solver's domain use a few hundred squares.
    """

    mode: str = "adaptive"
    epsilon: float = 0.05
    zero_tol: float | None = None
    max_squares: int = 100_000

    def __post_init__(self) -> None:
        if self.mode not in ("adaptive", "fixed"):
            raise ValueError(f"mode must be 'adaptive' or 'fixed', got {self.mode!r}")
        if not 0.0 <= self.epsilon < math.inf:
            raise ValueError(f"epsilon must be finite and nonnegative, got {self.epsilon}")
        if self.zero_tol is not None and not self.zero_tol >= 0.0:
            raise ValueError(f"zero_tol must be nonnegative, got {self.zero_tol}")
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
    # The residual tolerance the run accepted zeros under: ``config.zero_tol``,
    # or its unset default resolved as ``SolverConfig`` describes.
    zero_tol: float
    intersections: list[IntersectionRecord] = field(default_factory=list)
    squares_examined: int = 0
    subdivisions: int = 0
    exclusion_passes: int = 0
    kantorovich_passes: int = 0
    max_depth_reached: int = 0
    truncated: bool = False


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
    for t, s in zip(outcome.pairs, scales):
        if t.status is PairStatus.FAIL_CONTAINMENT:
            new.append(s + epsilon)
        elif t.status is PairStatus.FAIL_CONVERGENCE:
            new.append(max(1.0, s - epsilon))
        else:
            new.append(s)
    return (new[0], new[1], new[2])


def region_prunes_square(regions: list[Rect], square: Square) -> bool:
    """True iff some single explored region fully contains the closed square."""
    (cu, cv), h = square.center, square.half_width
    return any(
        r.lo_u <= cu - h and cu + h <= r.hi_u and r.lo_v <= cv - h and cv + h <= r.hi_v
        for r in regions
    )


def point_is_known(regions: list[Rect], x: tuple[float, float]) -> bool:
    """True iff the point lies in some explored region (closed membership)."""
    return any(r.contains_point(x) for r in regions)


def _children(square: Square, scales: tuple[float, float, float]) -> list[Square]:
    """The square's quarters, in the order of ``geometry.QUARTERS``."""
    (cu, cv), h = square.center, 0.5 * square.half_width
    lo_u, hi_u, lo_v, hi_v = cu - h, cu + h, cv - h, cv + h
    depth = square.depth + 1
    return [
        Square((lo_u, lo_v), h, scales, depth),
        Square((hi_u, lo_v), h, scales, depth),
        Square((lo_u, hi_v), h, scales, depth),
        Square((hi_u, hi_v), h, scales, depth),
    ]


_TRACE_LINES = {
    "pruned": "  pruned by explored region",
    "excluded": "  exclusion test passed, square discarded",
    "max_squares": "square budget exhausted, stopping",
    "max_depth": "  max depth reached, not subdividing",
}


def _trace_log(event: str, payload: dict) -> None:
    """Observer writing each event to the TRACE log."""
    if event == "square":
        sq = payload["square"]
        log.log(
            TRACE,
            "pop depth=%d center=(%.9g, %.9g) r=%.3g scales=(%.3g, %.3g, %.3g)",
            sq.depth, sq.center[0], sq.center[1], sq.half_width, *sq.scales,
        )
    elif event == "kantorovich":
        for t in payload["outcome"].pairs:
            log.log(
                TRACE,
                "  pair %s: %s eta=%s omega=%s rho-=%s",
                t.pair, t.status.value, t.eta, t.omega, t.rho_minus,
            )
    elif event == "intersection":
        record = payload["record"]
        log.log(TRACE, "  new intersection at (%.12g, %.12g)", record.u, record.v)
    elif event in ("pruned", "excluded", "truncated"):
        log.log(TRACE, _TRACE_LINES[payload.get("reason", event)])


def _ignore_events(event: str, payload: dict) -> None:
    """The do-nothing observer, ``solve``'s default."""


def _with_trace_log(observer: Observer) -> Observer:
    def emit(event: str, payload: dict) -> None:
        observer(event, payload)
        _trace_log(event, payload)

    return emit


def solve(
    c1: BezierCurve,
    c2: BezierCurve,
    config: SolverConfig = SolverConfig(),
    observer: Observer = _ignore_events,
) -> SolveReport:
    """Find all intersections of two curves; see the module docstring.

    A run is single-threaded and deterministic: FIFO order, a fixed child
    order and a fixed component-pair order are part of the observable
    contract. Inputs are immutable, so distinct runs may execute
    concurrently.

    ``observer`` receives (event, payload) for each queue pop ("square"),
    the popped square's fate ("pruned" by an explored region, "excluded" by
    the hull test, or convergence-tested: "kantorovich"), each Newton
    refinement ("newton"), each accepted intersection ("intersection") and
    each truncation ("truncated": reason "max_squares" once when the budget
    runs out, reason "max_depth" with the square for each square left
    unsplit). It exists for instrumentation and does not affect the run.
    The TRACE log is one more observer on the same events. Batching the
    restriction and the axis test moves no event: a square's net and its
    axis decision depend on nothing but its parent's net.
    """
    net = difference_net(c1, c2)
    # The solver runs on the net scaled exactly, by a power of two, to a
    # largest coefficient in [0.5, 1), so its absolute singularity floors
    # do not depend on the units of the input.
    scale = float(np.abs(net.coeffs).max())
    _, exponent = math.frexp(scale)
    unit_net = ControlNet(np.ldexp(net.coeffs, -exponent))
    systems = [PairSystem(unit_net, pair) for pair in COMPONENT_PAIRS]
    seconds = second_derivative_nets(unit_net)

    step = 0.0 if config.mode == "fixed" else config.epsilon
    root = Square((0.5, 0.5), 0.5, (INITIAL_SCALE,) * 3, 0)
    # The queue is FIFO: the current batch, then ``families``, which holds per
    # subdivided parent its four children and its net's coefficients. The
    # solver runs breadth-first and holds one net per queued parent plus one
    # batch. Only a square that reaches the convergence test wraps its row in
    # a ``ControlNet``.
    squares, rows = [root], unit_net.coeffs[None]
    families: deque[tuple[list[Square], np.ndarray]] = deque()
    regions: list[Rect] = []
    report = SolveReport(1e-6 * scale if config.zero_tol is None else config.zero_tol)
    emit = _with_trace_log(observer) if log.isEnabledFor(TRACE) else observer

    while True:
        axis_passed, margins = axis_test(rows)
        for sq, row, excluded, margin in zip(squares, rows, axis_passed.tolist(), margins.tolist()):
            if report.squares_examined >= config.max_squares:
                report.truncated = True
                emit("truncated", {"reason": "max_squares"})
                return report
            report.squares_examined += 1
            report.max_depth_reached = max(report.max_depth_reached, sq.depth)
            emit("square", {"square": sq})

            if region_prunes_square(regions, sq):
                emit("pruned", {"square": sq})
                continue

            if excluded or walk_test(row.reshape(-1, net.dim), margin):
                report.exclusion_passes += 1
                emit("excluded", {"square": sq})
                continue

            outcome = test_pairs(
                systems, seconds, ControlNet(row), sq.center, sq.half_width, sq.scales
            )
            emit("kantorovich", {"square": sq, "outcome": outcome})

            passed = outcome.passed
            if passed is not None:
                report.kantorovich_passes += 1
                system = systems[COMPONENT_PAIRS.index(passed.pair)]
                result = newton_solve(system.net, sq.center)
                emit("newton", {"square": sq, "passed": passed, "result": result})
                if result.converged:
                    x = result.root
                    # The unit net's jet cannot overflow, and scaling back is exact.
                    residual = math.ldexp(float(np.abs(eval_net(unit_net, *x)).max()), exponent)
                    if (
                        residual <= report.zero_tol
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
                        region = explored_region(passed, sq.center)
                        if region is not None:
                            regions.append(region)
                        emit("intersection", {"record": record})

            if sq.depth >= MAX_DEPTH:
                report.truncated = True
                emit("truncated", {"reason": "max_depth", "square": sq})
                continue

            child_scales = update_scales(outcome, sq.scales, step)
            # A copy, so a queued parent does not keep its batch alive.
            families.append((_children(sq, child_scales), row.copy()))
            report.subdivisions += 1

        if not families:
            return report
        batch = [families.popleft() for _ in range(min(len(families), _BATCH_PARENTS))]
        squares = [sq for children, _ in batch for sq in children]
        rows = restrict_quarters(np.stack([parent for _, parent in batch]))
