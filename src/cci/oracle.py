"""Brute-force intersection finder used to cross-validate the solver.

Independent of the subdivision machinery on purpose: it samples the
difference map on a dense grid, picks local minima of its norm, and
polishes each candidate with a damped Gauss-Newton iteration on the
least-squares objective. It can miss near-tangential intersections, which
is acceptable for a validation oracle (the solver owns completeness).
"""

from __future__ import annotations

import numpy as np

from .geometry import BezierCurve, derivative_curve, eval_curve, sample_curve


def _local_minima(values: np.ndarray, threshold: float) -> list[tuple[int, int]]:
    padded = np.pad(values, 1, mode="constant", constant_values=np.inf)
    is_min = np.ones_like(values, dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == 0 and dj == 0:
                continue
            shifted = padded[1 + di : 1 + di + values.shape[0],
                             1 + dj : 1 + dj + values.shape[1]]
            is_min &= values <= shifted
    is_min &= values < threshold
    return [(int(i), int(j)) for i, j in np.argwhere(is_min)]


def _refine(
    c1: BezierCurve,
    c2: BezierCurve,
    d1: BezierCurve,
    d2: BezierCurve,
    u: float,
    v: float,
    tol: float,
    max_iter: int = 60,
) -> tuple[float, float, float]:
    """Damped Gauss-Newton on |c1(u) - c2(v)|^2; returns (u, v, residual)."""
    x = np.array([u, v])
    f = eval_curve(c1, x[0]) - eval_curve(c2, x[1])
    cost = float(f @ f)
    for _ in range(max_iter):
        jac = np.stack([eval_curve(d1, x[0]), -eval_curve(d2, x[1])], axis=1)
        g = jac.T @ jac
        rhs = -jac.T @ f
        try:
            step = np.linalg.solve(g, rhs)
        except np.linalg.LinAlgError:
            break
        scale = 1.0
        for _ in range(30):
            trial = np.clip(x + scale * step, -0.01, 1.01)
            f_trial = eval_curve(c1, trial[0]) - eval_curve(c2, trial[1])
            cost_trial = float(f_trial @ f_trial)
            if cost_trial < cost:
                break
            scale *= 0.5
        else:
            break
        moved = float(np.abs(trial - x).max())
        x, f, cost = trial, f_trial, cost_trial
        if moved <= tol:
            break
    return float(x[0]), float(x[1]), float(np.abs(f).max())


def brute_force_intersections(
    c1: BezierCurve,
    c2: BezierCurve,
    grid_n: int = 400,
    refine_tol: float = 1e-10,
    dedup_tol: float = 1e-6,
) -> list[tuple[float, float]]:
    """All transversal intersections of the two curves, as (u, v) parameters.

    Samples the infinity norm of c1(u) - c2(v) on a grid_n x grid_n grid,
    refines every local minimum below a Lipschitz-based threshold, keeps
    the refined points whose residual vanishes to rounding, and removes
    duplicates closer than ``dedup_tol``.
    """
    if grid_n < 100:
        raise ValueError("grid_n must be at least 100")
    ts = np.linspace(0.0, 1.0, grid_n)
    p = sample_curve(c1, ts)
    q = sample_curve(c2, ts)
    values = np.abs(p[:, None, :] - q[None, :, :]).max(axis=2)

    d1 = derivative_curve(c1)
    d2 = derivative_curve(c2)
    lip = float(
        np.abs(d1.control_points).max() + np.abs(d2.control_points).max()
    )
    spacing = 1.0 / (grid_n - 1)
    threshold = max(2.0 * lip * spacing, 1e-12)

    scale = 1.0 + max(
        float(np.abs(c1.control_points).max()), float(np.abs(c2.control_points).max())
    )
    accept_tol = 1e-9 * scale

    found: list[tuple[float, float]] = []
    for i, j in _local_minima(values, threshold):
        u, v, residual = _refine(c1, c2, d1, d2, ts[i], ts[j], refine_tol)
        if residual > accept_tol:
            continue
        if not (-1e-9 <= u <= 1.0 + 1e-9 and -1e-9 <= v <= 1.0 + 1e-9):
            continue
        u = min(max(u, 0.0), 1.0)
        v = min(max(v, 0.0), 1.0)
        if any(max(abs(u - fu), abs(v - fv)) <= dedup_tol for fu, fv in found):
            continue
        found.append((u, v))
    return sorted(found)
