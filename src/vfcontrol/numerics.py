"""Dense linear algebra, matrix-free conjugate gradients, and adaptive ODE integration.

Everything here is deterministic and side-effect free; the rest of the package
builds on these primitives.
"""

from __future__ import annotations

import threading
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import lu_factor, lu_solve

_LSODA_LOCK = threading.Lock()

__all__ = [
    "LinearOperator",
    "CgResult",
    "CgError",
    "cg_solve",
    "SingularMatrixError",
    "dense_solve",
    "IvpResult",
    "IvpFailure",
    "integrate_ivp",
    "fd_gradient",
    "fd_gradient_check",
]


class CgError(RuntimeError):
    """Conjugate gradients did not reach the requested tolerance."""

    def __init__(self, message: str, x: np.ndarray, iterations: int, residual: float):
        super().__init__(message)
        self.x = x
        self.iterations = iterations
        self.residual = residual


class SingularMatrixError(RuntimeError):
    """A pivot of the LU factorization fell below the singularity threshold."""

    def __init__(self, pivot_index: int, pivot: float):
        super().__init__(
            f"matrix is singular to working tolerance: pivot {pivot_index} has magnitude {pivot:.3e}"
        )
        self.pivot_index = pivot_index
        self.pivot = pivot


class IvpFailure(RuntimeError):
    """The integrator could not continue; carries the last valid point."""

    def __init__(self, message: str, last_time: float, last_state: np.ndarray):
        super().__init__(message)
        self.last_time = last_time
        self.last_state = last_state


@dataclass(frozen=True)
class LinearOperator:
    """A fixed-dimension vector-to-vector map, applied matrix-free."""

    dim: int
    apply: Callable[[np.ndarray], np.ndarray]

    def __call__(self, vec: np.ndarray) -> np.ndarray:
        return self.apply(vec)


@dataclass
class CgResult:
    x: np.ndarray
    iterations: int
    residual: float  # final true residual, relative to ||rhs||


def cg_solve(
    op: LinearOperator,
    rhs: np.ndarray,
    tol: float = 1e-10,
    max_iter: Optional[int] = None,
    x0: Optional[np.ndarray] = None,
    diag: Optional[np.ndarray] = None,
) -> CgResult:
    """Solve op(x) = rhs for a symmetric positive definite operator.

    Terminates once ``||rhs - op(x)|| <= tol * ||rhs||``.  ``diag`` enables
    Jacobi preconditioning.  The recurrence residual drifts from the true one
    on ill-conditioned systems, so the true residual is recomputed before
    declaring convergence.  Raises :class:`CgError` when the iteration budget
    (default ``50 * dim``) is exhausted.
    """
    rhs = np.asarray(rhs, dtype=float)
    n = rhs.size
    if op.dim != n:
        raise ValueError(f"operator dimension {op.dim} does not match rhs size {n}")
    if max_iter is None:
        max_iter = max(500, 50 * n)
    bnorm = np.linalg.norm(rhs)
    if bnorm == 0.0:
        return CgResult(np.zeros(n), 0, 0.0)
    if diag is not None:
        diag = np.asarray(diag, dtype=float)
        if np.any(diag <= 0):
            raise ValueError("Jacobi preconditioner requires a positive diagonal")

    if x0 is None:
        x = np.zeros(n)
        r = rhs.copy()
    else:
        x = np.asarray(x0, dtype=float).copy()
        r = rhs - op(x)
    r_norm = float(np.linalg.norm(r))
    if r_norm <= tol * bnorm:
        return CgResult(x, 0, r_norm / bnorm)
    z = r / diag if diag is not None else r
    p = z.copy()
    rz = float(r @ z)
    iterations = 0
    for iterations in range(1, max_iter + 1):
        ap = op(p)
        pap = float(p @ ap)
        if pap <= 0.0:
            raise CgError(
                f"operator lost positive definiteness at iteration {iterations} (pAp = {pap:.3e})",
                x,
                iterations,
                float(np.linalg.norm(rhs - op(x)) / bnorm),
            )
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        if iterations % 50 == 0:
            r = rhs - op(x)
        if np.linalg.norm(r) <= tol * bnorm:
            true_r = rhs - op(x)
            true_norm = np.linalg.norm(true_r)
            if true_norm <= tol * bnorm:
                return CgResult(x, iterations, float(true_norm / bnorm))
            r = true_r
        z = r / diag if diag is not None else r
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    final = float(np.linalg.norm(rhs - op(x)) / bnorm)
    raise CgError(
        f"no convergence within {max_iter} iterations (relative residual {final:.3e})",
        x,
        max_iter,
        final,
    )


def dense_solve(a: np.ndarray, b: np.ndarray, pivot_tol: float = 1e-14) -> np.ndarray:
    """Solve a dense square system by partially pivoted LU.

    Raises :class:`SingularMatrixError` naming the offending pivot index when
    any pivot magnitude falls below ``pivot_tol * max|a|``.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    lu, piv = lu_factor(a, check_finite=True)
    pivots = np.abs(np.diag(lu))
    threshold = pivot_tol * max(np.max(np.abs(a)), 1e-300)
    bad = np.flatnonzero(pivots < threshold)
    if bad.size:
        raise SingularMatrixError(int(bad[0]), float(pivots[bad[0]]))
    return lu_solve((lu, piv), b)


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
    method: str = "RK45",
) -> IvpResult:
    """Integrate x' = rhs(t, x) with an adaptive scipy solver.

    The default Dormand-Prince 4(5) pair suits the small smooth models;
    semidiscretized PDE states want ``method="LSODA"`` so the integrator can
    drop into BDF mode when the diffusion stiffness bites.  ``stop``, if
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
    # must take turns; the other methods are reentrant
    guard = _LSODA_LOCK if method == "LSODA" else nullcontext()
    with guard:
        out = solve_ivp(
            rhs,
            tuple(t_span),
            x0,
            method=method,
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


def fd_gradient(f: Callable[[np.ndarray], float], x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of a scalar field."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.size):
        step = h * (1.0 + abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += step
        xm[i] -= step
        grad[i] = (f(xp) - f(xm)) / (2.0 * step)
    return grad


def fd_gradient_check(
    f: Callable[[np.ndarray], float],
    grad: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    h: float = 1e-6,
) -> float:
    """Max absolute deviation between ``grad(x)`` and a central difference of ``f``."""
    g = np.asarray(grad(np.asarray(x, dtype=float)), dtype=float)
    return float(np.max(np.abs(g - fd_gradient(f, x, h))))
