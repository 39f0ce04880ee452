"""Plain Newton iteration on 2-component systems, such as g = P f.

Used only from starting points that passed the convergence test, so no
damping or globalization is needed; failures are reported, not patched.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import (
    ControlNet,
    eval_net,  # noqa: F401 -- unused here; bench/tracing.py patches this binding
    jet_table,
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
    Each iterate's value and Jacobian are read as Python floats from one
    ``jet_table``, and the step is summed from ``inverse_2x2``'s entries.
    """
    u, v = float(x0[0]), float(x0[1])
    iterations, failure = 0, "max_iter reached"
    while iterations < max_iter:
        ((f0, f1), (fv0, fv1)), ((fu0, fu1), _) = jet_table(pair_net, (u, v)).tolist()
        jac_inv = inverse_2x2(fu0, fv0, fu1, fv1)
        if jac_inv is None:
            failure = "singular Jacobian at iterate"
            break
        a, b, c, d = jac_inv
        du, dv = a * f0 + b * f1, c * f0 + d * f1
        u, v = u - du, v - dv
        iterations += 1
        if abs(du) <= tol and abs(dv) <= tol:
            failure = None
            break
    return NewtonResult(failure is None, (u, v), iterations, failure)
