"""Subdivision driver: find every intersection of two Bezier curves.

A FIFO queue of candidate squares covers the unit parameter square. Each
square is skipped if it lies inside a known explored region, discarded if
the exclusion test proves it empty, and otherwise run through the
convergence test; a pass triggers Newton refinement and, for a confirmed
new zero, an explored region that prunes later squares. A square that
region contains is finished; every other square failing exclusion is
quartered, and the children's test-domain multiplier is adapted from the
parent's test outcome (grown after a containment failure, else shrunk after
a convergence failure). Fixed mode is the same rule with a step of 0.
``solve`` reports only through an observer, if passed one; cci logs nothing.

The queue runs breadth-first in batches within one quadtree level, each
square a center and multiplier in floats (a ``Square`` only for an event or
a record), with its net; the first is the root with the unit net. The axis
stage of the exclusion test runs on the whole batch at once; then each
square meets its fate in queue order. The next batch is the children of
the level's next quartered parents, their nets restricted in one call.
"""

from __future__ import annotations

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
    unchecked,
)
from .kantorovich import (
    KantorovichOutcome,
    PairStatus,
    PairSystem,
    explored_region,
    test_pairs,
)
from .newton import newton_solve

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

# A run stops, truncated, once this many squares have been examined. Only
# non-isolated intersections (overlapping curves) need it: their zero set
# makes the number of non-excludable squares grow exponentially with depth,
# where legitimate problems use a few hundred squares.
MAX_SQUARES = 100_000

Observer = Callable[[str, dict], None]


@dataclass(frozen=True)
class Square:
    """Candidate subdomain: the closed ball of ``half_width`` about ``center``.

    ``scale`` is the test-domain multiplier (always >= 1): the square is
    tested in the ball of half-width ``scale * half_width`` about ``center``.
    """

    center: tuple[float, float]
    half_width: float
    scale: float
    depth: int = 0

    def __post_init__(self) -> None:
        # Every check is a comparison that NaN fails, so NaN raises too.
        (cu, cv), r = self.center, self.half_width
        if not 0.0 < r < math.inf:
            raise ValueError(f"half_width must be positive and finite, got {r}")
        if not (-1e-12 <= cu - r and cu + r <= 1.0 + 1e-12
                and -1e-12 <= cv - r and cv + r <= 1.0 + 1e-12):
            raise ValueError("square must lie inside the unit parameter square")
        if not 1.0 <= self.scale < math.inf:
            raise ValueError(f"test-domain scale must be finite and >= 1, got {self.scale}")


@dataclass(frozen=True)
class SolverConfig:
    """The method's two settings: the test-domain rule and its step.

    Both modes start the test-domain multiplier at ``INITIAL_SCALE`` (1.5).
    Mode "adaptive" adjusts it by ``epsilon`` based on each parent square's
    failure mode; mode "fixed" is the same rule with a step of 0, so the
    multiplier stays at 1.5.
    """

    mode: str = "adaptive"
    epsilon: float = 0.05

    def __post_init__(self) -> None:
        if self.mode not in ("adaptive", "fixed"):
            raise ValueError(f"mode must be 'adaptive' or 'fixed', got {self.mode!r}")
        if not 0.0 <= self.epsilon < math.inf:
            raise ValueError(f"epsilon must be finite and nonnegative, got {self.epsilon}")


@dataclass(frozen=True, eq=False)
class IntersectionRecord:
    u: float
    v: float
    point: np.ndarray
    residual: float
    source_square: Square


@dataclass
class SolveReport:
    # The residual below which a refined point counted as an intersection:
    # 1e-9 times the largest coefficient magnitude of the difference net.
    zero_tol: float
    intersections: list[IntersectionRecord] = field(default_factory=list)
    squares_examined: int = 0
    subdivisions: int = 0
    exclusion_passes: int = 0
    kantorovich_passes: int = 0
    max_depth_reached: int = 0
    truncated: bool = False


def update_scale(outcome: KantorovichOutcome, scale: float, epsilon: float) -> float:
    """Children's test-domain multiplier from the parent's test outcome.

    A containment failure grows the multiplier by epsilon and a convergence
    failure shrinks it by epsilon, never below 1; a pass or a singular
    Jacobian keeps it, and so does a step of 0.
    """
    (test,) = outcome.pairs
    if test.status is PairStatus.FAIL_CONTAINMENT:
        return scale + epsilon
    if test.status is PairStatus.FAIL_CONVERGENCE:
        return max(1.0, scale - epsilon)
    return scale


def region_prunes_square(regions: list[Rect], center: tuple[float, float], half_width: float) -> bool:
    """True iff some single explored region fully contains the closed square."""
    if not regions:
        return False
    (cu, cv), h = center, half_width
    return any(
        r.lo_u <= cu - h and cu + h <= r.hi_u and r.lo_v <= cv - h and cv + h <= r.hi_v
        for r in regions
    )


def point_is_known(regions: list[Rect], x: tuple[float, float]) -> bool:
    """True iff the point lies in some explored region (closed membership)."""
    u, v = x
    return any(r.lo_u <= u <= r.hi_u and r.lo_v <= v <= r.hi_v for r in regions)


def solve(
    c1: BezierCurve,
    c2: BezierCurve,
    config: SolverConfig = SolverConfig(),
    observer: Observer | None = None,
) -> SolveReport:
    """Find all intersections of two curves; see the module docstring.

    A run is single-threaded and deterministic: FIFO order and a fixed
    child order are part of the observable contract. Inputs are immutable,
    so distinct runs may execute concurrently.

    A square that records a new intersection whose explored region
    contains it is finished: it queues no children and counts no
    subdivision, since the region holds the full map's only zero in it.

    ``observer``, unless None, receives (event, payload) for each queue pop
    ("square"), the popped square's fate ("pruned" by an explored region,
    "excluded" by the hull test, or convergence-tested: "kantorovich"), each
    Newton refinement ("newton"), each accepted intersection ("intersection")
    and each truncation ("truncated": reason "max_squares" once after
    ``MAX_SQUARES`` squares, reason "max_depth" with the square for each square
    at ``MAX_DEPTH`` that would otherwise be quartered). It exists for
    instrumentation and does not affect the run; the CLI's trace is one such
    observer. Batching the restriction and the axis test moves no event: a
    square's net and its axis decision depend on nothing but its parent's net.
    """
    net = difference_net(c1, c2)
    # The solver runs on the net scaled exactly, by a power of two, to a
    # largest coefficient in [0.5, 1), so its absolute singularity floors
    # do not depend on the units of the input.
    scale = float(np.abs(net.coeffs).max())
    _, exponent = math.frexp(scale)
    unit_net = unchecked(ControlNet, coeffs=np.ldexp(net.coeffs, -exponent))
    system = PairSystem(unit_net)

    step = 0.0 if config.mode == "fixed" else config.epsilon
    # The batch's squares share ``half_width`` and ``depth``. The queue is
    # FIFO: the batch, ``level`` (the level's parents not yet batched), then
    # ``split`` (those it quartered so far: center, children's multiplier and
    # net). Only a square that reaches the convergence test wraps its row in
    # a ``ControlNet``, unchecked: restriction keeps a finite net finite.
    half_width, depth, level, split = 0.5, 0, deque(), []
    squares, rows = [((0.5, 0.5), INITIAL_SCALE)], unit_net.coeffs[None]
    regions: list[Rect] = []
    report = SolveReport(1e-9 * scale)
    observing = observer is not None  # else build no event payloads

    while True:
        clouds = rows.reshape(len(rows), -1, net.dim)
        axis_passed, margins, starts = axis_test(clouds)
        entries = zip(squares, rows, clouds, axis_passed.tolist(), margins.tolist(), starts.tolist())
        for (center, sq_scale), row, cloud, excluded, margin, start in entries:
            if report.squares_examined >= MAX_SQUARES:
                report.truncated = True
                if observing:
                    observer("truncated", {"reason": "max_squares"})
                return report
            report.squares_examined += 1
            report.max_depth_reached = depth  # levels only deepen
            if observing:
                sq = unchecked(Square, center=center, half_width=half_width, scale=sq_scale, depth=depth)
                observer("square", {"square": sq})

            if region_prunes_square(regions, center, half_width):
                if observing:
                    observer("pruned", {"square": sq})
                continue

            if excluded or walk_test(cloud, margin, start):
                report.exclusion_passes += 1
                if observing:
                    observer("excluded", {"square": sq})
                continue

            carried = unchecked(ControlNet, coeffs=row)
            outcome = test_pairs(system, carried, center, half_width, sq_scale)
            if observing:
                observer("kantorovich", {"square": sq, "outcome": outcome})

            passed = outcome.passed
            if passed is not None:
                report.kantorovich_passes += 1
                # Newton refines g = P f from the test's own first iterate, on a
                # net summed elementwise: its bits do not depend on the BLAS kernel.
                c, p = unit_net.coeffs, np.array(passed.projection)
                g = c[..., :1] * p[:, 0] + c[..., 1:2] * p[:, 1] + c[..., 2:] * p[:, 2]
                projected = unchecked(ControlNet, coeffs=g)
                (cu, cv), (du, dv) = center, passed.step
                result = newton_solve(projected, (cu - du, cv - dv))
                if observing:
                    observer("newton", {"square": sq, "passed": passed, "result": result})
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
                            source_square=Square(center, half_width, sq_scale, depth),
                        )
                        report.intersections.append(record)
                        region = explored_region(passed, center)
                        if region is not None:
                            regions.append(region)
                        if observing:
                            observer("intersection", {"record": record})
                        # The region holds the full map's only zero in it, just
                        # recorded, so a square it covers is finished.
                        if region is not None and region_prunes_square([region], center, half_width):
                            continue

            if depth >= MAX_DEPTH:
                report.truncated = True
                if observing:
                    observer("truncated", {"reason": "max_depth", "square": sq})
                continue

            # A copy, so a queued parent does not keep its batch alive.
            split.append((center, update_scale(outcome, sq_scale, step), row.copy()))
            report.subdivisions += 1

        if not level:  # the level is done; the next is the children of ``split``
            if not split:
                return report
            level, split = deque(split), []
            half_width, depth = 0.5 * half_width, depth + 1
        batch = [level.popleft() for _ in range(min(len(level), _BATCH_PARENTS))]
        h = half_width  # each parent's quarters, in the order of ``geometry.QUARTERS``
        quarters = ((-h, -h), (h, -h), (-h, h), (h, h))
        squares = [((cu + du, cv + dv), s) for (cu, cv), s, _ in batch for du, dv in quarters]
        rows = restrict_quarters(np.array([parent for _, _, parent in batch]))
