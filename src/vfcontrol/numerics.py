"""Preconditioned matrix-free conjugate gradients and adaptive ODE integration.

Everything here is deterministic and side-effect free; the rest of the package
builds on these primitives.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.integrate import solve_ivp

_LSODA_LOCK = threading.Lock()

__all__ = [
    "CgResult",
    "CgError",
    "cg_solve",
    "IvpResult",
    "IvpFailure",
    "integrate_ivp",
]


class CgError(RuntimeError):
    """Conjugate gradients did not reach the requested tolerance."""

    def __init__(self, message: str, x: np.ndarray, iterations: int, residual: float):
        super().__init__(message)
        self.x = x
        self.iterations = iterations
        self.residual = residual


class IvpFailure(RuntimeError):
    """The integrator could not continue; carries the last valid point."""

    def __init__(self, message: str, last_time: float, last_state: np.ndarray):
        super().__init__(message)
        self.last_time = last_time
        self.last_state = last_state


@dataclass
class CgResult:
    x: np.ndarray
    iterations: int
    residual: float  # final true residual, relative to ||rhs||


def cg_solve(
    op: Callable[[np.ndarray], np.ndarray],
    rhs: np.ndarray,
    precondition: Callable[[np.ndarray], np.ndarray],
    tol: float = 1e-10,
    max_iter: Optional[int] = None,
) -> CgResult:
    """Solve op(x) = rhs for a symmetric positive definite operator, matrix-free.

    ``op`` maps a vector of the size of ``rhs`` to its product with the
    operator; ``precondition`` applies a symmetric positive definite
    approximation of the operator's inverse.  Starts from zero and terminates
    once ``||rhs - op(x)|| <= tol * ||rhs||``.  The recurrence residual drifts
    from the true one on ill-conditioned systems, so the true residual is
    recomputed before declaring convergence; when it misses, the iteration
    restarts from it along the preconditioned residual.  Raises
    :class:`CgError` when the iteration budget (default ``50 * size``) is
    exhausted.
    """
    rhs = np.asarray(rhs, dtype=float)
    n = rhs.size
    if max_iter is None:
        max_iter = max(500, 50 * n)
    bnorm = np.linalg.norm(rhs)
    if bnorm == 0.0:
        return CgResult(np.zeros(n), 0, 0.0)

    x = np.zeros(n)
    r = rhs.copy()
    z = precondition(r)
    p = z.copy()
    rz = float(r @ z)
    iterations = 0
    for iterations in range(1, max_iter + 1):
        ap = op(p)
        pap = float(p @ ap)
        if not pap > 0.0:  # also catches a NaN, which would otherwise run out the budget
            raise CgError(
                f"operator lost positive definiteness at iteration {iterations} (pAp = {pap:.3e})",
                x,
                iterations,
                float(np.linalg.norm(rhs - op(x)) / bnorm),
            )
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        restart = False
        if np.linalg.norm(r) <= tol * bnorm:
            true_r = rhs - op(x)
            true_norm = np.linalg.norm(true_r)
            if true_norm <= tol * bnorm:
                return CgResult(x, iterations, float(true_norm / bnorm))
            # rz belongs to the drifted residual, so the old direction
            # cannot be continued
            r = true_r
            restart = True
        z = precondition(r)
        rz_new = float(r @ z)
        p = z if restart else z + (rz_new / rz) * p
        rz = rz_new
    final = float(np.linalg.norm(rhs - op(x)) / bnorm)
    raise CgError(
        f"no convergence within {max_iter} iterations (relative residual {final:.3e})",
        x,
        max_iter,
        final,
    )


@dataclass
class IvpResult:
    """Solution samples on the accepted steps plus a dense interpolant."""

    times: np.ndarray   # (k,)
    states: np.ndarray  # (k, n)
    _dense: object = None

    def at(self, t) -> np.ndarray:
        """Dense-output evaluation; scalar t gives (n,), array t gives (len(t), n)."""
        t = np.asarray(t, dtype=float)
        out = self._dense(t)
        return out.T if t.ndim else out


def integrate_ivp(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    x0: np.ndarray,
    t_span,
    rel_tol: float = 1e-8,
    abs_tol: float = 1e-10,
    stop: Optional[Callable[[float, np.ndarray], float]] = None,
) -> IvpResult:
    """Integrate x' = rhs(t, x) with scipy's LSODA.

    LSODA drops into BDF mode when the loop turns stiff, as semidiscretized
    PDE states do once the diffusion stiffness bites.  ``stop``, if
    given, is a scalar event function; integration ends early at its first
    sign change.  Step-size underflow or non-finite states raise
    :class:`IvpFailure` carrying the last valid time and state.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    events = None
    if stop is not None:
        def _event(t, y):
            return stop(t, y)

        _event.terminal = True
        events = _event
    # scipy's LSODA keeps one global Fortran handle, so concurrent solves
    # must take turns
    with _LSODA_LOCK:
        out = solve_ivp(
            rhs,
            tuple(t_span),
            x0,
            method="LSODA",
            rtol=rel_tol,
            atol=abs_tol,
            dense_output=True,
            events=events,
        )
    if out.status == -1 or not np.all(np.isfinite(out.y)):
        finite = np.all(np.isfinite(out.y), axis=0)
        last = int(np.max(np.flatnonzero(finite))) if np.any(finite) else 0
        raise IvpFailure(str(out.message), float(out.t[last]), out.y[:, last].copy())
    return IvpResult(out.t.copy(), out.y.T.copy(), out.sol)

