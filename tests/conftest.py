"""Shared test helpers: independent evaluation oracles and problem generators.

The monomial-basis evaluators here deliberately avoid the Bernstein code
paths under test; curve and net values are cross-checked against plain
power-basis Horner evaluation.
"""

from __future__ import annotations

import math
import os
from pathlib import Path

import numpy as np
import pytest

import cci
from cci import BezierCurve, Problem, brute_force_intersections, kantorovich
from cci.geometry import (
    ControlNet,
    Rect,
    derivative_curve,
    eval_curve,
    reparametrize,
    sample_curve,
)
from cci.kantorovich import (
    PairSystem,
    PairTest,
    test_pairs,
)
from cci.newton import newton_solve

PROBLEMS_DIR = Path(__file__).resolve().parent.parent / "problems"


@pytest.fixture(scope="session")
def problems_dir() -> Path:
    return PROBLEMS_DIR


def subprocess_env(**extra: str) -> dict[str, str]:
    """Environment for a fresh interpreter that imports the cci this suite imported.

    A child sees no sys.path of ours, so the package's parent directory is
    prepended to PYTHONPATH; ``extra`` adds or overrides variables.
    """
    path = [str(Path(cci.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, **extra, "PYTHONPATH": os.pathsep.join(p for p in path if p)}


def spatial(net: ControlNet) -> ControlNet:
    """A 2-component net padded with a zero third component; others as they are."""
    c = net.coeffs
    if net.dim == 3:
        return net
    return ControlNet(np.concatenate([c, np.zeros_like(c[:, :, :1])], axis=2))


def ball(center: tuple[float, float], radius: float) -> Rect:
    """The closed infinity-norm ball of ``center``: the square of half-width ``radius``."""
    cu, cv = center
    return Rect(cu - radius, cu + radius, cv - radius, cv + radius)


def pair_test_at(pair_net: ControlNet, x0: tuple[float, float], half_width: float) -> PairTest:
    """The solver's convergence test of a 2-component net, as one ``PairTest``.

    Runs ``test_pairs`` on the net padded with a zero third component, for
    the square of ``half_width`` about ``x0`` at scale 1, so the test domain
    is that square: eta, omega and the radii come from the only path the
    solver uses.
    """
    net = spatial(pair_net)
    square = reparametrize(net, ball(x0, half_width))
    (test,) = test_pairs(PairSystem(net), square, x0, half_width, 1.0).pairs
    return test


def full_test_omega(net: ControlNet, test: PairTest) -> float:
    """The omega the full convergence test computes over ``test``'s test domain.

    ``net`` is the map over the unit square (a 2-component one is padded).
    Its stacked, degree-raised second-derivative nets (``PairSystem.seconds``)
    are restricted through ``kantorovich.reparametrize``, as ``test_pairs``
    restricts them, and ``PairSystem.omega`` takes the block with
    ``test``'s projection. Defined also where omega's lower bound decided
    the test and ``test.omega`` is None.
    """
    system = PairSystem(spatial(net))
    block = kantorovich.reparametrize(system.seconds, test.test_domain).coeffs
    return system.omega(test.projection, block.reshape(-1, 3, 3))


def projected_net(net: ControlNet, test: PairTest) -> ControlNet:
    """The net of g = P f, with P ``test``'s projection: what Newton refines."""
    return ControlNet(spatial(net).coeffs @ np.array(test.projection).T)


def newton_path(pair_net: ControlNet, x0: tuple[float, float], **options) -> list:
    """Every Newton iterate from x0, x0 first, as ``newton_solve`` takes them.

    Iterate k is the root of the same run capped at ``max_iter=k``.
    """
    result = newton_solve(pair_net, x0, **options)
    options.pop("max_iter", None)
    return [
        newton_solve(pair_net, x0, max_iter=k, **options).root
        for k in range(result.iterations + 1)
    ]


# ---------------------------------------------------------------------------
# Monomial (power-basis) oracles

def bernstein_to_monomial(coeffs: np.ndarray) -> np.ndarray:
    """Convert Bernstein coefficients to monomial coefficients along axis 0."""
    c = np.asarray(coeffs, dtype=float)
    m = c.shape[0] - 1
    out = np.zeros_like(c)
    for k in range(m + 1):
        for i in range(k + 1):
            out[k] += ((-1) ** (k - i)) * math.comb(m, i) * math.comb(m - i, k - i) * c[i]
    return out


def horner(mono: np.ndarray, t: float) -> np.ndarray:
    r = np.zeros_like(mono[0])
    for k in range(mono.shape[0] - 1, -1, -1):
        r = r * t + mono[k]
    return r


def monomial_eval_curve(control_points: np.ndarray, t: float) -> np.ndarray:
    return horner(bernstein_to_monomial(control_points), t)


def _monomial_net(coeffs: np.ndarray) -> np.ndarray:
    mono = bernstein_to_monomial(coeffs)
    return np.swapaxes(bernstein_to_monomial(np.swapaxes(mono, 0, 1)), 0, 1)


def monomial_eval_net(coeffs: np.ndarray, u: float, v: float) -> np.ndarray:
    mono = _monomial_net(coeffs)
    rows = np.stack([horner(mono[k], v) for k in range(mono.shape[0])])
    return horner(rows, u)


def monomial_grid(coeffs: np.ndarray, us, vs) -> np.ndarray:
    """Net values on the grid us x vs, shape (len(us), len(vs), dim), from
    power sums. Accurate to about 1e-9 up to degree 8."""
    mono = _monomial_net(coeffs)
    pu = np.asarray(us, dtype=float)[:, None] ** np.arange(mono.shape[0])
    pv = np.asarray(vs, dtype=float)[:, None] ** np.arange(mono.shape[1])
    return np.einsum("uk,vl,kld->uvd", pu, pv, mono)


# ---------------------------------------------------------------------------
# Random problem generation

def random_net_coeffs(rng: np.random.Generator, m: int, n: int, d: int = 3,
                      lo: float = -1.0, hi: float = 1.0) -> np.ndarray:
    return rng.uniform(lo, hi, size=(m + 1, n + 1, d))


def _paired_jacobian(c1: BezierCurve, c2: BezierCurve, u: float, v: float) -> np.ndarray:
    d1 = derivative_curve(c1)
    d2 = derivative_curve(c2)
    return np.stack([eval_curve(d1, u), -eval_curve(d2, v)], axis=1)


def _curve_scale(c1: BezierCurve, c2: BezierCurve) -> float:
    return 1.0 + max(
        float(np.abs(c1.control_points).max()),
        float(np.abs(c2.control_points).max()),
    )


def _is_transversal_instance(c1: BezierCurve, c2: BezierCurve,
                             roots: list[tuple[float, float]]) -> bool:
    # Well-conditioned crossings, separated from each other, with the curves
    # nowhere else close to touching: the regime in which both the solver's
    # find-all guarantee and the oracle's grid search are reliable.
    for k, (u, v) in enumerate(roots):
        jac = _paired_jacobian(c1, c2, u, v)
        sv = np.linalg.svd(jac, compute_uv=False)
        if sv[1] < 0.05 * max(1.0, sv[0]):
            return False
        for u2, v2 in roots[k + 1:]:
            if max(abs(u - u2), abs(v - v2)) < 0.05:
                return False
    ts = np.linspace(0.0, 1.0, 160)
    p = sample_curve(c1, ts)
    q = sample_curve(c2, ts)
    gap = np.abs(p[:, None, :] - q[None, :, :]).max(axis=2)
    for u, v in roots:
        iu = np.abs(ts - u) <= 0.04
        iv = np.abs(ts - v) <= 0.04
        gap[np.ix_(iu, iv)] = np.inf
    return float(gap.min()) >= 1e-3 * _curve_scale(c1, c2)


def random_transversal_problem(
    rng: np.random.Generator, max_degree: int = 6
) -> tuple[Problem, list[tuple[float, float]]]:
    """A random curve pair with only well-conditioned transversal crossings.

    Returns the problem and its oracle-computed intersection parameters.
    Alternates between planar pairs (generic crossings, possibly none) and
    3D pairs translated so they meet at a chosen parameter point.
    """
    while True:
        deg1 = int(rng.integers(2, max_degree + 1))
        deg2 = int(rng.integers(2, max_degree + 1))
        if rng.random() < 0.5:
            a = np.concatenate(
                [rng.uniform(0, 1, (deg1 + 1, 2)), np.zeros((deg1 + 1, 1))], axis=1
            )
            b = np.concatenate(
                [rng.uniform(0, 1, (deg2 + 1, 2)), np.zeros((deg2 + 1, 1))], axis=1
            )
            c1, c2 = BezierCurve(a), BezierCurve(b)
        else:
            c1 = BezierCurve(rng.uniform(0, 1, (deg1 + 1, 3)))
            b = BezierCurve(rng.uniform(0, 1, (deg2 + 1, 3)))
            u0, v0 = rng.uniform(0.2, 0.8, size=2)
            shift = eval_curve(c1, u0) - eval_curve(b, v0)
            c2 = BezierCurve(b.control_points + shift)
        roots = brute_force_intersections(c1, c2)
        if _is_transversal_instance(c1, c2, roots):
            return Problem("random", c1, c2), roots


def forced_crossing_pair(
    rng: np.random.Generator, roots: list[tuple[float, float]], planar: bool
) -> tuple[BezierCurve, BezierCurve, list[tuple[float, float]]]:
    """Random curves of degrees 3 to 8 that cross at each (u, v) of ``roots``.

    Draws control points in the unit square (``planar``, in z = 0) or cube,
    then adds to the second curve the minimum-norm correction that puts
    c2(v) on c1(u), as ``bench/workloads.py`` does. Redraws until the
    oracle's crossings are transversal and include every forced one; returns
    the curves and those crossings.
    """
    def basis(n: int, ts: np.ndarray) -> np.ndarray:
        i = np.arange(n + 1)
        binom = np.array([math.comb(n, k) for k in i], dtype=float)
        return binom * (1.0 - ts[:, None]) ** (n - i) * ts[:, None] ** i

    us, vs = (np.array(t, dtype=float) for t in zip(*roots))
    while True:
        m, n = (int(k) for k in rng.integers(3, 9, size=2))
        dim = 2 if planar else 3
        p, q = rng.uniform(0.0, 1.0, (m + 1, dim)), rng.uniform(0.0, 1.0, (n + 1, dim))
        b = basis(n, vs)
        q = q + b.T @ np.linalg.solve(b @ b.T, basis(m, us) @ p - b @ q)
        if planar:
            p, q = (np.pad(a, ((0, 0), (0, 1))) for a in (p, q))
        c1, c2 = BezierCurve(p), BezierCurve(q)
        found = brute_force_intersections(c1, c2)
        if _is_transversal_instance(c1, c2, found) and all(
            any(max(abs(u - fu), abs(v - fv)) <= 1e-6 for fu, fv in found) for u, v in roots
        ):
            return c1, c2, found


def match_point_sets(
    got: list[tuple[float, float]],
    expected: list[tuple[float, float]],
    tol: float = 1e-6,
) -> bool:
    if len(got) != len(expected):
        return False
    got = sorted(got)
    expected = sorted(expected)
    return all(
        max(abs(g[0] - e[0]), abs(g[1] - e[1])) <= tol
        for g, e in zip(got, expected)
    )
