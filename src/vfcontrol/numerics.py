"""Preconditioned matrix-free conjugate gradients, batched finite-difference
Jacobians and adaptive ODE integration, and the input checks of parameters
and saved artifacts.

Everything here is deterministic and side-effect free; the rest of the package
builds on these primitives.
"""

from __future__ import annotations

import json
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
    """Raised by nothing: :func:`integrate_ivp` reports a failed run in
    :attr:`IvpResult.failure`.  The name stays because the benchmark tracer
    (``bench/tracing.py``) imports it."""


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
    :class:`CgError` at a restart whose true residual is not below the
    previous restart's (the iteration has reached its rounding floor, and
    further restarts only repeat it), and when the iteration budget
    (default the larger of 500 and ``50 * size``) is exhausted.
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
    # true residual norm at the last restart
    floor = np.inf
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
            if not true_norm < floor:
                raise CgError(
                    f"no progress since the last restart at iteration {iterations} "
                    f"(relative residual {true_norm / bnorm:.3e})",
                    x,
                    iterations,
                    float(true_norm / bnorm),
                )
            floor = true_norm
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


def require(holds: bool, name: str, value, needs: str) -> None:
    """The input check of every parameter dataclass: a ValueError naming ``name`` unless ``holds``."""
    if not holds:
        raise ValueError(f"{name} must be {needs}, got {value!r}")


def read_artifact(path, kind: str, schema: str) -> dict:
    """The JSON object saved at ``path``; a file that is not JSON, or not of
    ``schema``, is a ValueError naming the ``kind`` of artifact, the file
    and the schema it needs."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as err:
            raise ValueError(f"{kind} {path} is not JSON ({err}); expected schema {schema!r}") from None
    found = doc.get("schema") if isinstance(doc, dict) else None
    if found != schema:
        raise ValueError(f"{kind} {path} has schema {found!r}; expected {schema!r}")
    return doc


@dataclass
class IvpResult:
    """Solution samples on the accepted steps plus a dense interpolant and the solver's counts."""

    times: np.ndarray   # (steps,)
    states: np.ndarray  # (steps, n)
    _dense: object
    rhs_evaluations: int       # right-hand-side calls made by the solver itself
    jacobian_evaluations: int  # batched Jacobians, each one more rhs call of 2 n rows per start
    # why the run ended before t_end other than on the escape radius; None if it did not fail
    failure: Optional[str] = None

    def at(self, t) -> np.ndarray:
        """Dense-output evaluation; scalar t gives (n,), array t gives (len(t), n)."""
        t = np.asarray(t, dtype=float)
        out = self._dense(t)
        return out.T if t.ndim else out


class _RowView:
    """The components ``cols`` of a stacked system's dense output: one row's."""

    __slots__ = ("dense", "cols")

    def __init__(self, dense, cols: slice):
        self.dense = dense
        self.cols = cols

    def __call__(self, t):
        return self.dense(t)[self.cols]


def _norm(head: np.ndarray) -> float:
    # np.linalg.norm's own arithmetic, bit for bit, without its overhead
    return math.sqrt(head.dot(head))


class _Row:
    """One start's run, gathered over every LSODA segment it takes part in."""

    def __init__(self, t0: float, x0: np.ndarray, escape_dims: int):
        self.times, self.states = [t0], [x0]
        # one view per accepted step: the row's columns of that step's dense output
        self.views = []
        self.head = escape_dims
        self.radius = 10.0 * (1.0 + _norm(x0[:escape_dims]))
        self.rhs_evaluations = self.jacobian_evaluations = 0
        self.failure = None

    def escape(self, x) -> float:
        return _norm(x[: self.head]) - self.radius

    def result(self) -> IvpResult:
        if self.views:
            dense = OdeSolution(self.times, self.views, alt_segment=True)
        else:  # the first step failed: the run holds x0
            t0, x0 = self.times[0], self.states[0]
            dense = OdeSolution([t0, t0], [lambda t: np.multiply.outer(x0, np.ones_like(t))])
        return IvpResult(
            np.array(self.times), np.array(self.states), dense,
            self.rhs_evaluations, self.jacobian_evaluations, self.failure,
        )


def integrate_ivp(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    x0: np.ndarray,
    t_span,
    rel_tol: float,
    abs_tol: float,
    escape_dims: int = 0,
) -> list[IvpResult]:
    """Integrate x' = rhs(t, x) from a stack of starts with scipy's LSODA.

    ``x0`` of shape (k, n) holds k independent starts, integrated as one
    LSODA system of size k n; any other shape, or a start that is not
    finite, is a ValueError that names it.  ``rel_tol`` and ``abs_tol`` are
    LSODA's tolerances; each caller names its own.
    ``rhs`` must broadcast over a leading batch axis: given states of shape
    (k, n) it returns the k right-hand sides, shape (k, n), and it gets
    every evaluation as such rows.  This is checked once on the starts at entry,
    and a ValueError is raised otherwise.  LSODA drops into BDF mode when
    the loop turns stiff, as semidiscretized PDE states do once the
    diffusion stiffness bites; its block-diagonal Jacobian then comes from
    one :func:`fd_jacobian` call of ``rhs(t, .)`` on the k rows, one batched
    call of 2 n k rows, rather than from n k single-point calls with LSODA's
    own increments.  LSODA gets it in band storage, n - 1 diagonals either
    side, so the cost of its LU grows as k, not k^3.  LSODA bounds the
    local error in a weighted max-norm, so stacking the rows loosens no
    row's error control.

    A positive ``escape_dims`` m bounds the first m components of each row
    by its escape radius 10 (1 + ||x0[:m]||): a row ends on the first
    accepted step that leaves it, at the root of ||x[:m]|| - radius on that
    step's dense output.  A row whose state turns non-finite ends at its last
    finite step.  Either way the rows still running go on from the step just
    accepted on a fresh LSODA, so no later call of ``rhs`` sees a non-finite
    state.  When LSODA itself fails on more than one row (step-size
    underflow, or steps that stall past an overflowing right-hand side),
    each row still running goes on alone from its last accepted step, so the
    failure is pinned on the row that causes it.

    Returns a list of k :class:`IvpResult`, one per row.  Each holds the
    row's accepted steps and its view of every step's dense output; its
    counts are those of the integrations it shared.  A row that failed says
    why in ``failure`` and holds its run up to the last valid step; nothing
    is raised.

    For a stack of one the accepted times and states are those of
    ``solve_ivp(method="LSODA")`` with the escape test as its terminal event,
    bit for bit; the loop skips ``solve_ivp``'s general event bookkeeping on
    every step.
    """
    starts = np.asarray(x0, dtype=float)
    if starts.ndim != 2 or 0 in starts.shape:
        raise ValueError(f"integrate_ivp takes a (k, n) stack of starts, got shape {starts.shape}")
    finite = np.isfinite(starts).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        raise ValueError(f"integrate_ivp takes finite starts, but row {row} is {starts[row].tolist()}")
    t0, t_end = (float(t) for t in t_span)
    contract = f"rhs must broadcast over a leading batch axis: states of shape {starts.shape}"
    try:
        probe = np.shape(rhs(t0, starts))
    except (ValueError, IndexError) as err:
        raise ValueError(f"{contract} raised {type(err).__name__}: {err}") from err
    if probe != starts.shape:
        raise ValueError(f"{contract} gave right-hand sides of shape {probe}")

    rows = [_Row(t0, x, escape_dims) for x in starts]
    segments = [rows]
    while segments:
        segments.extend(_segment(rhs, segments.pop(), t_end, rel_tol, abs_tol))
    return [row.result() for row in rows]


def _band_storage(blocks: np.ndarray) -> np.ndarray:
    """The block-diagonal matrix of the (k, n, n) ``blocks`` in LAPACK band storage.

    With n - 1 sub- and superdiagonals, entry (i, j) of the (k n)^2 matrix
    sits at ``packed[n - 1 + i - j, j]``, the layout LSODA takes with
    ``lband = uband = n - 1``; band entries between two blocks are zero.
    LSODA then factors k n columns of width 2 n - 1 rather than the dense
    (k n)^2 matrix.
    """
    k, n, _ = blocks.shape
    i, j = np.indices((n, n))
    packed = np.zeros((2 * n - 1, k * n))
    packed[n - 1 + i - j, np.arange(0, k * n, n)[:, None, None] + j] = blocks
    return packed


def _segment(rhs, rows: list, t_end: float, rel_tol: float, abs_tol: float) -> list:
    """Integrate ``rows`` together from their common last time until one of
    them ends early, or all reach ``t_end``; returns the groups of rows that
    go on from there."""
    k, n = len(rows), rows[0].states[-1].size
    shape = (k, n)
    every = [slice(i * n, (i + 1) * n) for i in range(k)]

    def fun(t, y):
        return rhs(t, y.reshape(shape)).ravel()

    def jac(t, y):
        return _band_storage(fd_jacobian(lambda batch: rhs(t, batch), y.reshape(shape)))

    t0 = rows[0].times[-1]
    y0 = np.concatenate([row.states[-1] for row in rows])
    solver = LSODA(fun, t0, y0, t_end, rtol=rel_tol, atol=abs_tol, jac=jac, lband=n - 1, uband=n - 1)
    ended, message = [], None
    while solver.status == "running":
        message = solver.step()
        if solver.status == "running" and solver.t == solver.t_old:
            # past an overflowing right-hand side LSODA reports steps that never advance
            message = f"the integrator stalled at t = {solver.t:.6g}"
        if message is not None:
            break
        t, y = solver.t, solver.y
        piece = solver.dense_output()
        finite = np.isfinite(y).all()
        for row, cols in zip(rows, every):
            state = y[cols]
            if not (finite or np.isfinite(state).all()):
                row.failure = f"the state turned non-finite after t = {row.times[-1]:.6g}"
                ended.append(row)
                continue
            t_row = t
            if row.head and row.escape(state) >= 0:
                t_row = brentq(lambda s: row.escape(piece(s)[cols]), solver.t_old, t, xtol=_ROOT_TOL, rtol=_ROOT_TOL)
                state = piece(t_row)[cols]
                ended.append(row)
            row.times.append(t_row)
            row.states.append(state)
            row.views.append(_RowView(piece, cols))
        if ended:
            break
    for row in rows:
        row.rhs_evaluations += int(solver.nfev)
        row.jacobian_evaluations += int(solver.njev)
    if message is not None:
        if k == 1:
            rows[0].failure = message
            return []
        return [[row] for row in rows]
    if solver.status == "running":
        going_on = [row for row in rows if row not in ended]
        return [going_on] if going_on else []
    return []
