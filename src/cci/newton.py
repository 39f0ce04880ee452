"""Plain Newton iteration on 2-component sub-systems.

Used only from starting points that passed the convergence test, so no
damping or globalization is needed; failures are reported, not patched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (
    ControlNet,
    eval_net,  # noqa: F401 -- unused here; bench/tracing.py patches this binding
    jet,
)
from .kantorovich import inverse_2x2


@dataclass(frozen=True)
class NewtonResult:
    converged: bool
    root: tuple[float, float]
    iterations: int
    failure_reason: str | None = None


def newton_solve(
    pair_net: ControlNet,
    x0: tuple[float, float],
    tol: float = 1e-7,
    max_iter: int = 50,
) -> NewtonResult:
    """Newton iteration x <- x - J(x)^-1 f(x) from x0 on a 2-component net.

    Stops when the infinity norm of the step drops to ``tol`` or after
    ``max_iter`` iterations; a singular Jacobian at any iterate aborts.
    A run capped at ``max_iter=k`` ends at the k-th iterate of a longer one.
    """
    x = np.array(x0, dtype=float)
    iterations = 0
    failure = "max_iter reached"
    converged = False
    for _ in range(max_iter):
        value, jac = jet(pair_net, x)
        jac_inv = inverse_2x2(jac.tolist())
        if jac_inv is None:
            failure = "singular Jacobian at iterate"
            break
        step = -(np.array(jac_inv) @ value)
        x = x + step
        iterations += 1
        if float(np.abs(step).max()) <= tol:
            converged = True
            failure = None
            break
    return NewtonResult(
        converged=converged,
        root=(float(x[0]), float(x[1])),
        iterations=iterations,
        failure_reason=failure,
    )
