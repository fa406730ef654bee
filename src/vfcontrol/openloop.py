"""Open-loop optimal trajectories via the first-order necessary conditions.

For a start state x0 the stacked unknown z = [x; p; v] obeys

    x' = f + g u,   p' = -(J_f^T p + d(gu)/dx^T p + grad r),   v' = -(r + u^T R u),

with u = -R^{-1} g^T p / 2, x(0) = x0, and p, v -> 0 as t -> infinity.  The
infinite horizon is mapped onto the unit interval by t = tau / (1 - tau), the
grid stops one step delta_tau short of tau = 1, and the missing step is closed
by an explicit Euler extrapolation whose p and v components must land on zero.
That extrapolated condition is the far-end boundary residual.

Discretization is Hermite-Simpson collocation on a mesh graded toward both
ends (fast initial transients live near tau = 0, the algebraic tail near
tau = 1), solved by a simplified Newton method on the kept banded LU.  The
residual lists the x-boundary rows, then the collocation rows interval by
interval, then the tail rows; each interval couples only its two end nodes,
so in this order the Jacobian is banded.  Its blocks come from the model's
closed-form ``pmp_jacobian`` at all nodes and all midpoints, are written
straight into LAPACK band storage, and the system is factored by banded LU
with partial pivoting (``dgbtrf``; Ascher, Mattheij & Russell, ch. 7).

After a full, undamped Newton step the factor is kept, and the next step
solves with it at the new iterate (a chord step; Deuflhard, *Newton Methods
for Nonlinear Problems*, sec. 2.1).  A chord step is accepted only if it cuts
the max-norm residual to at most :data:`CHORD_CONTRACTION` times the current
one; otherwise the Jacobian is re-assembled and re-factored at the current
iterate for a Newton step, damped by halving as needed.  A damped step
(length below 1) drops the factor, so the step after it factors afresh.
Once the iterate is in Newton's quadratic basin, one factorization per mesh
usually suffices.  A midpoint-rule defect flags intervals whose local
truncation error is still large; those get split and the solve repeats on
the refined mesh.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .models import ControlAffineModel, optimal_control, pmp_rhs
from .numerics import integrate_ivp

__all__ = [
    "time_stretch",
    "time_stretch_rate",
    "graded_mesh",
    "bvp_residual",
    "OpenLoopConfig",
    "BvpSolution",
    "BvpFailure",
    "initial_guess",
    "solve_pmp",
    "solve_open_loop",
    "Trajectory",
    "to_trajectory",
]

# Newton stops once the max-norm residual is below NEWTON_TOL * (1 + max|z|)
NEWTON_TOL = 1e-11
# and gives up with a BvpFailure after this many factorizations
NEWTON_MAX_ITER = 40
# A chord step on the kept factor is accepted only if it cuts the max-norm
# residual to at most this fraction of the current one; each accepted chord
# step shrinks the residual 4x, and each rejected one forces a factorization,
# so NEWTON_MAX_ITER still bounds the loop
CHORD_CONTRACTION = 0.25
# Relative and absolute LSODA tolerances of the initial_guess rollout.  The
# guess only has to land in Newton's convergence region: on 34 starts of
# amp (dimension 2), 34 of nhe (grid side 6) and 12 of amp (dimension 4),
# rollouts at rel 1e-8, 1e-6 and 1e-4 gave every solve_open_loop the same
# Newton iterations, line-search halvings and refinement rounds as rel
# 1e-10, and final iterates agreeing to 2.2e-16 relative.  At rel 1e-6 the
# median rollout takes 291 steps instead of 615 on amp and 370 instead of
# 1,065 on nhe.
GUESS_TOL = (1e-6, 1e-8)


def time_stretch(tau):
    """Map collocation time in [0, 1) to physical time t = tau / (1 - tau)."""
    tau = np.asarray(tau, dtype=float)
    return tau / (1.0 - tau)


def time_stretch_rate(tau):
    """dt/dtau = 1 / (1 - tau)^2."""
    tau = np.asarray(tau, dtype=float)
    return 1.0 / (1.0 - tau) ** 2


def graded_mesh(n_intervals: int, tau_end: float = 1.0 - 1e-3) -> np.ndarray:
    """Mesh on [0, tau_end] with intervals shrinking toward both endpoints:
    interval k gets length proportional to (k+1)(n-k)."""
    if n_intervals < 2:
        raise ValueError("need at least two intervals")
    k = np.arange(n_intervals, dtype=float)
    weights = (k + 1.0) * (n_intervals - k)
    taus = np.concatenate([[0.0], np.cumsum(weights)])
    return taus * (tau_end / taus[-1])


def bvp_residual(model: ControlAffineModel, taus: np.ndarray, z: np.ndarray, x0: np.ndarray, delta_tau: float) -> np.ndarray:
    """Stacked residual: x-boundary rows, one block of collocation rows per interval, tail rows.

    The interval rule is Hermite-Simpson: the midpoint state interpolates the
    cubic through the endpoint values and slopes, and Simpson quadrature over
    endpoint and midpoint slopes closes the fourth-order defect.
    """
    n = model.dim_state
    _, ft, h, z_mid, mid_rate = _midpoints(model, taus, z)
    ft_mid = mid_rate[:, None] * pmp_rhs(model, z_mid)
    coll = z[1:] - z[:-1] - (h / 6.0) * (ft[:-1] + 4.0 * ft_mid + ft[1:])
    tail = (z[-1] + delta_tau * ft[-1])[n:]
    return np.concatenate([z[0, :n] - x0, coll.ravel(), tail])


def _midpoints(model, taus, z):
    """Node rates, node slopes ft, interval lengths h (a column), midpoint
    states and midpoint rates of the Hermite-Simpson rule."""
    rate = time_stretch_rate(taus)
    ft = rate[:, None] * pmp_rhs(model, z)
    h = np.diff(taus)[:, None]
    z_mid = 0.5 * (z[:-1] + z[1:]) + (h / 8.0) * (ft[:-1] - ft[1:])
    mid_rate = time_stretch_rate(0.5 * (taus[:-1] + taus[1:]))
    return rate, ft, h, z_mid, mid_rate


def _band_widths(n: int) -> tuple[int, int]:
    """Sub- and superdiagonal counts (kl, ku) of the collocation Jacobian for state dimension n.

    With nz = 2n + 1 unknowns per node, the collocation rows of interval k
    start at row n + k nz and reach the columns of nodes k and k + 1, so
    they span the diagonals -(n + nz - 1) to 2 nz - 1 - n; the x-boundary and
    tail rows lie inside that band.
    """
    nz = 2 * n + 1
    return n + nz - 1, 2 * nz - 1 - n


def _assemble_jacobian(model, taus, z, delta_tau):
    """Jacobian of :func:`bvp_residual` in LAPACK band storage, ready for ``dgbtrf``.

    Entry (r, c) sits at ``ab[kl + ku + r - c, c]``; the first kl rows are
    the room ``dgbtrf`` needs for the fill of its row interchanges.  In
    column-major order that is flat position kl + ku + r + c (ldab - 1), so
    the blocks of one kind, one per interval and each shifted by nz rows and
    nz columns from the last, form a single strided view of the storage and
    land with one assignment.
    """
    n = model.dim_state
    n_nodes, nz = z.shape
    k_intervals = n_nodes - 1
    kl, ku = _band_widths(n)

    rate, _, h, z_mid, mid_rate = _midpoints(model, taus, z)
    # scaled copies: pmp_jacobian may return a read-only view
    a = rate[:, None, None] * model.pmp_jacobian(z)
    a_mid = mid_rate[:, None, None] * model.pmp_jacobian(z_mid)

    ldab = 2 * kl + ku + 1
    flat = np.zeros(ldab * n_nodes * nz)
    step = flat.itemsize

    def blocks(row, col, count, rows):
        """``count`` blocks of ``rows`` x nz entries at rows row + k nz + i, columns col + k nz + j."""
        start = kl + ku + row + col * (ldab - 1)
        return as_strided(flat[start:], shape=(count, rows, nz), strides=(step * nz * ldab, step, step * (ldab - 1)))

    # Interval k's left block is -I - h/6 (a_k + 4 a_mid (I/2 + h/8 a_k)) and
    # its right block I - h/6 (a_k+1 + 4 a_mid (I/2 - h/8 a_k+1)).  Both run
    # through the same two work arrays, operation by operation in that order
    # (so the bits are those of the plain expression), and the last operation
    # writes the band.  The product goes to a contiguous array: matmul into
    # the strided band view skips BLAS.
    eye = np.eye(nz)
    hh = h[:, :, None]
    dmid = np.empty((k_intervals, nz, nz))
    work = np.empty_like(dmid)
    for col, ends, sign, ident in ((0, a[:-1], np.add, -eye), (nz, a[1:], np.subtract, eye)):
        np.multiply(hh / 8.0, ends, out=dmid)
        sign(0.5 * eye, dmid, out=dmid)
        np.matmul(a_mid, dmid, out=work)
        np.multiply(4.0, work, out=work)
        np.add(ends, work, out=work)
        np.multiply(hh / 6.0, work, out=work)
        np.subtract(ident, work, out=blocks(n, col, k_intervals, nz))
    # x rows pin node 0; the extrapolated tail rows pin the last node
    flat[kl + ku + ldab * np.arange(n)] = 1.0
    blocks(n + k_intervals * nz, k_intervals * nz, 1, n + 1)[0] = (eye + delta_tau * a[-1])[n:]
    return flat.reshape((ldab, n_nodes * nz), order="F")


def splu(ab: np.ndarray, kl: int, ku: int) -> tuple[np.ndarray, np.ndarray]:
    """Banded LU with partial pivoting (LAPACK ``dgbtrf``), in place on the band storage ``ab``.

    Returns the factor and pivots for ``dgbtrs``; an exactly zero pivot is a
    ``LinAlgError``.  The name is the one the benchmark tracer's
    ``openloop.splu`` span binds, kept from when this step was a sparse LU.
    """
    lu, piv, info = dgbtrf(ab, kl, ku, overwrite_ab=True)
    if info > 0:
        raise np.linalg.LinAlgError(f"zero pivot at unknown {info - 1} of the banded LU")
    return lu, piv


@dataclass(frozen=True)
class OpenLoopConfig:
    n_nodes: int = 240
    delta_tau: float = 1e-3
    refine_rounds: int = 2
    refine_tol: float = 1e-8
    samples: int = 40


class BvpFailure(RuntimeError):
    def __init__(self, message: str, residual: float = np.nan, iterations: int = 0):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


@dataclass
class BvpSolution:
    taus: np.ndarray
    z: np.ndarray
    # from solve_open_loop: summed over every mesh of the refinement
    newton_iterations: int
    refine_rounds: int = 0
    max_defect: float = 0.0
    # step halvings of the Newton line search, summed like newton_iterations
    line_search_halvings: int = 0
    # chord steps tried on a kept factor, accepted or not, summed likewise
    chord_steps: int = 0

    @property
    def dim_state(self) -> int:
        return (self.z.shape[1] - 1) // 2

    @property
    def times(self) -> np.ndarray:
        return time_stretch(self.taus)

    @property
    def states(self) -> np.ndarray:
        return self.z[:, : self.dim_state]

    @property
    def costates(self) -> np.ndarray:
        return self.z[:, self.dim_state : 2 * self.dim_state]

    @property
    def values(self) -> np.ndarray:
        return self.z[:, 2 * self.dim_state]


def initial_guess(model: ControlAffineModel, x0: np.ndarray, taus: np.ndarray, q_matrix: np.ndarray) -> np.ndarray:
    """Closed-loop rollout under the quadratic-value feedback as a first iterate.

    States come from integrating x' = f + g u with u fed back from the value
    model x^T Q x; costates and values are that model's gradient and value.
    If the rollout escapes the radius of
    :func:`~vfcontrol.numerics.integrate_ivp` (the quadratic feedback need not
    stabilize far out), or its integrator fails, everything past the last
    valid time is padded with zeros, which is the correct asymptote anyway.

    The rollout is integrated loosely, to :data:`GUESS_TOL`: Newton sets the
    accuracy of the solution, and the gap between the quadratic-feedback
    path and the optimal one dwarfs any integration error at that tolerance.
    """
    x0 = np.asarray(x0, dtype=float)
    n = model.dim_state
    qm = np.asarray(q_matrix, dtype=float)
    # the value model's gradient is x @ (2 Q); doubling is exact, so it has
    # the bits of (2 x) @ Q
    grad_matrix = 2.0 * qm

    def rhs(_t, x):
        u = optimal_control(model, x, x @ grad_matrix)
        return model.f(x) + model.g_apply(x, u)

    times = time_stretch(taus)
    (sol,) = integrate_ivp(rhs, x0[None], (0.0, float(times[-1])), rel_tol=GUESS_TOL[0], abs_tol=GUESS_TOL[1], escape_dims=n)

    z = np.zeros((taus.size, 2 * n + 1))
    inside = times <= sol.times[-1]
    xs = sol.at(times[inside])
    z[inside, :n] = xs
    z[inside, n : 2 * n] = xs @ grad_matrix
    z[inside, 2 * n] = np.einsum("ij,jk,ik->i", xs, qm, xs)
    z[0, :n] = x0
    return z


def solve_pmp(
    model: ControlAffineModel,
    x0: np.ndarray,
    taus: np.ndarray,
    guess: np.ndarray,
    config: OpenLoopConfig = OpenLoopConfig(),
) -> BvpSolution:
    """Simplified Newton on the collocation system from the supplied iterate.

    Each pass of the loop first tries a chord step if a factor is kept: one
    ``dgbtrs`` solve with the factor of an earlier iterate, accepted if the
    max-norm residual falls to :data:`CHORD_CONTRACTION` times the current
    one or below.  Without a kept factor, or when the chord step is turned
    down, the Jacobian is assembled and factored at the current iterate, and
    the Newton step is damped by halving until the residual decreases.  The
    factor is kept only after a full step.  ``newton_iterations`` counts the
    factorizations and :data:`NEWTON_MAX_ITER` bounds them.
    """
    x0 = np.asarray(x0, dtype=float)
    z = np.array(guess, dtype=float)
    if z.shape != (taus.size, 2 * model.dim_state + 1):
        raise ValueError(f"guess shape {z.shape} does not match mesh with {taus.size} nodes")

    res = bvp_residual(model, taus, z, x0, config.delta_tau)
    norm = float(np.max(np.abs(res)))
    if not np.isfinite(norm):
        raise BvpFailure("initial iterate produces a non-finite residual", residual=norm)

    kl, ku = _band_widths(model.dim_state)
    iteration = 0
    halvings = 0
    chords = 0
    kept = False
    while norm > NEWTON_TOL * (1.0 + float(np.max(np.abs(z)))):
        if kept:
            chords += 1
            z_new = z + dgbtrs(lu, kl, ku, -res, piv, overwrite_b=True)[0].reshape(z.shape)
            res_new = bvp_residual(model, taus, z_new, x0, config.delta_tau)
            norm_new = float(np.max(np.abs(res_new)))
            # a non-finite residual compares False and is turned down
            if norm_new <= CHORD_CONTRACTION * norm:
                z, res, norm = z_new, res_new, norm_new
                continue

        if iteration == NEWTON_MAX_ITER:
            raise BvpFailure(
                f"no convergence in {iteration} Newton iterations (residual {norm:.3e})",
                residual=norm,
                iterations=iteration,
            )
        iteration += 1
        try:
            lu, piv = splu(_assemble_jacobian(model, taus, z, config.delta_tau), kl, ku)
        except np.linalg.LinAlgError as err:
            raise BvpFailure(f"singular collocation Jacobian: {err}", residual=norm, iterations=iteration) from err
        step = dgbtrs(lu, kl, ku, -res, piv, overwrite_b=True)[0].reshape(z.shape)
        if not np.all(np.isfinite(step)):
            raise BvpFailure("non-finite Newton step", residual=norm, iterations=iteration)

        lam = 1.0
        accepted = False
        while lam >= 2.0 ** -12:
            z_new = z + lam * step
            res_new = bvp_residual(model, taus, z_new, x0, config.delta_tau)
            norm_new = float(np.max(np.abs(res_new)))
            if np.isfinite(norm_new) and norm_new < norm * (1.0 - 1e-4 * lam):
                z, res, norm = z_new, res_new, norm_new
                accepted = True
                break
            lam *= 0.5
            halvings += 1
        if not accepted:
            raise BvpFailure(
                f"line search stalled at residual {norm:.3e}", residual=norm, iterations=iteration
            )
        kept = lam == 1.0

    return BvpSolution(
        taus=taus,
        z=z,
        newton_iterations=iteration,
        line_search_halvings=halvings,
        chord_steps=chords,
    )


def _interval_defects(model, taus, z, scale):
    """Midpoint-rule defect per interval, relative to the iterate's magnitude."""
    h = np.diff(taus)
    mid_tau = 0.5 * (taus[:-1] + taus[1:])
    mid_z = 0.5 * (z[:-1] + z[1:])
    ft = time_stretch_rate(mid_tau)[:, None] * pmp_rhs(model, mid_z)
    defect = z[1:] - z[:-1] - h[:, None] * ft
    return np.max(np.abs(defect), axis=1) / scale


def _interp_nodes(taus_old, z_old, taus_new):
    z_new = np.empty((taus_new.size, z_old.shape[1]))
    for j in range(z_old.shape[1]):
        z_new[:, j] = np.interp(taus_new, taus_old, z_old[:, j])
    return z_new


def solve_open_loop(
    model: ControlAffineModel,
    x0: np.ndarray,
    q_matrix: np.ndarray,
    config: OpenLoopConfig = OpenLoopConfig(),
) -> BvpSolution:
    """Full pipeline for one start state: guess, solve, refine until the defect is small.

    The first iterate is always the quadratic-value rollout of
    :func:`initial_guess`, so the answer does not depend on any other solve.
    """
    taus = graded_mesh(config.n_nodes, tau_end=1.0 - config.delta_tau)
    guess = initial_guess(model, x0, taus, q_matrix)
    sol = solve_pmp(model, x0, taus, guess, config)
    newton_iterations = sol.newton_iterations
    halvings = sol.line_search_halvings
    chords = sol.chord_steps

    rounds = 0
    for rounds in range(config.refine_rounds + 1):
        scale = 1.0 + float(np.max(np.abs(sol.z)))
        defects = _interval_defects(model, sol.taus, sol.z, scale)
        worst = float(np.max(defects))
        if worst <= config.refine_tol or rounds == config.refine_rounds:
            break
        split = defects > config.refine_tol
        mids = 0.5 * (sol.taus[:-1] + sol.taus[1:])[split]
        taus_new = np.sort(np.concatenate([sol.taus, mids]))
        guess = _interp_nodes(sol.taus, sol.z, taus_new)
        sol = solve_pmp(model, x0, taus_new, guess, config)
        newton_iterations += sol.newton_iterations
        halvings += sol.line_search_halvings
        chords += sol.chord_steps

    sol.newton_iterations = newton_iterations
    sol.line_search_halvings = halvings
    sol.chord_steps = chords
    sol.refine_rounds = rounds
    sol.max_defect = worst
    return sol


@dataclass
class Trajectory:
    """Value-function samples along one optimal trajectory."""

    x0: np.ndarray
    times: np.ndarray
    states: np.ndarray
    grads: np.ndarray
    values: np.ndarray

    def __len__(self) -> int:
        return self.times.size


def to_trajectory(
    solution: BvpSolution,
    samples: int = 40,
    horizon: Optional[float] = None,
) -> Trajectory:
    """Thin a solution to samples spread evenly along the state-space path.

    Only nodes with t <= horizon are stored (the solve itself always covers
    the whole transformed interval; the horizon only restricts which samples
    become data).  Node times crowd where the mesh is dense, not where the
    state moves, so the selection walks the cumulative chord length of the
    state path and keeps the first node at or past each of ``samples`` evenly
    spaced arc lengths, each node once; a stationary path keeps its start.
    No sample is screened for spacing: the greedy fit's factor turns away
    samples that the selected centers already span.
    """
    if horizon is not None:
        inside = solution.times <= horizon
        solution = replace(solution, taus=solution.taus[inside], z=solution.z[inside])
    states = solution.states
    seg = np.linalg.norm(np.diff(states, axis=0), axis=1)
    arc = np.concatenate([[0.0], np.cumsum(seg)])
    targets = np.linspace(0.0, arc[-1], num=max(2, samples))
    keep = np.unique(np.clip(np.searchsorted(arc, targets), 0, states.shape[0] - 1))
    return Trajectory(
        x0=states[0].copy(),
        times=solution.times[keep],
        states=states[keep],
        grads=solution.costates[keep],
        values=solution.values[keep],
    )
