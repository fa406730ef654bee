"""Preconditioned matrix-free conjugate gradients, batched finite-difference
Jacobians and adaptive ODE integration.

Everything here is deterministic and side-effect free; the rest of the package
builds on these primitives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.integrate import LSODA, OdeSolution
from scipy.optimize import brentq

# relative central-difference step of fd_jacobian
FD_STEP = 1e-6
# absolute and relative brentq tolerance of the escape root, as solve_ivp's
# event roots take it
_ROOT_TOL = 4 * np.finfo(float).eps

__all__ = [
    "FD_STEP",
    "CgResult",
    "CgError",
    "cg_solve",
    "fd_jacobian",
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
    """The integrator could not continue; ``partial`` is the run up to the last valid step."""

    def __init__(self, message: str, partial: IvpResult):
        super().__init__(message)
        self.partial = partial


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


def fd_jacobian(fun: Callable[[np.ndarray], np.ndarray], y: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian of ``fun`` at every row of ``y``, from one call of ``fun``.

    ``y`` has shape (..., d) and ``fun`` maps (k, d) to (k, m) row by row.
    Column j is differenced with the step ``FD_STEP * (1 + |y_j|)``; all 2 d
    perturbed copies of every row are stacked into one (2 d K, d) batch, K
    the number of rows, so the cost is one vectorized call instead of 2 d.
    Returns shape (..., m, d).
    """
    y = np.asarray(y, dtype=float)
    d = y.shape[-1]
    rows = y.reshape(-1, d)
    step = (FD_STEP * (1.0 + np.abs(rows))).T  # (d, K)
    # block (0, j) holds all K rows with column j moved by +step, block (1, j) by -step
    batch = np.empty((2, d, rows.shape[0], d))
    batch[...] = rows
    col = np.arange(d)[:, None]
    node = np.arange(rows.shape[0])[None, :]
    batch[0, col, node, col] += step
    batch[1, col, node, col] -= step
    out = np.asarray(fun(batch.reshape(-1, d))).reshape(2, d, rows.shape[0], -1)
    cols = (out[0] - out[1]) / (2.0 * step)[:, :, None]  # (d, K, m)
    return np.moveaxis(cols, 0, -1).reshape(*y.shape[:-1], out.shape[-1], d)


@dataclass
class IvpResult:
    """Solution samples on the accepted steps plus a dense interpolant and the solver's counts."""

    times: np.ndarray   # (k,)
    states: np.ndarray  # (k, n)
    _dense: object
    rhs_evaluations: int       # right-hand-side calls made by the solver itself
    jacobian_evaluations: int  # batched Jacobians, each one more rhs call of 2 n rows

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
    escape_dims: int = 0,
) -> IvpResult:
    """Integrate x' = rhs(t, x) with scipy's LSODA, one accepted step at a time.

    ``rhs`` must broadcast over a leading batch axis: given states of shape
    (k, n) it returns the k right-hand sides, shape (k, n).  This is checked
    once on ``x0[None]`` at entry, and a ValueError is raised otherwise.
    LSODA drops into BDF mode when the loop turns stiff, as semidiscretized
    PDE states do once the diffusion stiffness bites; its Jacobian then comes
    from :func:`fd_jacobian` of ``rhs(t, .)``, one batched call of 2 n rows,
    rather than from n single-point calls with LSODA's own increments.

    A positive ``escape_dims`` k bounds the first k components by the escape
    radius 10 (1 + ||x0[:k]||): the run ends on the first accepted step that
    leaves it, at the root of ||x[:k]|| - radius on that step's dense output.
    Step-size underflow, or an accepted step whose state is not finite, raise
    :class:`IvpFailure`; its ``partial`` holds the run up to the last finite
    step, so no later call of ``rhs`` sees a non-finite state.  Either way the
    result reports the solver's right-hand-side and Jacobian counts.

    The accepted times and states are those of ``solve_ivp(method="LSODA")``
    with the escape test as its terminal event, bit for bit; the loop skips
    ``solve_ivp``'s general event bookkeeping on every step.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    t0, t_end = (float(t) for t in t_span)
    contract = f"rhs must broadcast over a leading batch axis: states of shape (1, {x0.size})"
    try:
        probe = np.shape(rhs(t0, x0[None]))
    except (ValueError, IndexError) as err:
        raise ValueError(f"{contract} raised {type(err).__name__}: {err}") from err
    if probe != (1, x0.size):
        raise ValueError(f"{contract} gave right-hand sides of shape {probe}")

    def jac(t, x):
        return fd_jacobian(lambda batch: rhs(t, batch), x)

    k = escape_dims
    radius = 10.0 * (1.0 + float(np.linalg.norm(x0[:k])))

    def escape(y):
        # np.linalg.norm's own arithmetic, bit for bit, without its overhead
        head = y[:k]
        return math.sqrt(head.dot(head)) - radius

    solver = LSODA(rhs, t0, x0, t_end, rtol=rel_tol, atol=abs_tol, jac=jac)
    times, states, pieces = [t0], [x0], []
    failure = None
    while solver.status == "running":
        message = solver.step()
        if solver.status == "failed":
            failure = message
            break
        t, y = solver.t, solver.y
        if not np.isfinite(y).all():
            failure = f"the state turned non-finite after t = {times[-1]:.6g}"
            break
        piece = solver.dense_output()
        escaped = k > 0 and escape(y) >= 0.0
        if escaped:
            t = brentq(lambda s: escape(piece(s)), solver.t_old, t, xtol=_ROOT_TOL, rtol=_ROOT_TOL)
            y = piece(t)
        times.append(t)
        states.append(y)
        pieces.append(piece)
        if escaped:
            break
    if pieces:
        dense = OdeSolution(times, pieces, alt_segment=True)
    else:  # the first step failed: the run holds x0
        dense = OdeSolution([t0, t0], [lambda t: np.multiply.outer(x0, np.ones_like(t))])
    run = IvpResult(np.array(times), np.array(states), dense, int(solver.nfev), int(solver.njev))
    if failure is not None:
        raise IvpFailure(failure, run)
    return run
