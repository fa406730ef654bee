"""Open-loop optimal trajectories via the first-order necessary conditions.

For a start state x0 the stacked state z = [x; p; v] obeys

    x' = f + g u,   p' = -(J_f^T p + d(gu)/dx^T p + grad r),   v' = -(r + u^T R u),

with u = -R^{-1} g^T p / 2, x(0) = x0, and p, v -> 0 as t -> infinity.  The
infinite horizon is mapped onto the unit interval by t = tau / (1 - tau), the
grid stops one step delta_tau short of tau = 1, and the missing step is closed
by an explicit Euler extrapolation whose p and v components must land on zero
(the tail closure).

Discretization is Hermite-Simpson collocation on a mesh graded toward both
ends (fast initial transients live near tau = 0, the algebraic tail near
tau = 1), solved by a simplified Newton method on the kept banded LU.

No right-hand side depends on v, so v is not a Newton unknown: Newton solves
for [x; p], 2n unknowns per node, node by node.  Every residual evaluation
fills the v column of the iterate from the rows that pin it, with the slopes
the [x; p] rows evaluate anyway: the tail closure gives v_K = -delta_tau v'_K
at the last node, and each interval's Simpson rule v_k = v_{k+1} - (h_k / 6)
(v'_k + 4 v'_mid + v'_{k+1}) gives the others, backwards from there.  So the v
rows hold to rounding at every iterate, where Newton, when it solved them with
the rest, left its own residual in the stored values.  The residual lists the
n x-boundary rows, then the 2n collocation rows of each interval, then the n
p rows of the tail closure; each interval couples only its two end nodes, so
in this order the Jacobian is banded.  Its blocks come from the model's
closed-form ``pmp_jacobian``, d[x'; p'] / d[x; p], at all nodes and all
midpoints, written straight into LAPACK band storage.  The band widths
(kl, ku) are read off the nonzeros the blocks hold, as the union over the
intervals: a model with dense blocks gets (3n - 1, 3n - 1), and ``nhe``,
whose Laplacian couples a grid node only to its neighbours,
(2n + side, 2n + side).  The system is factored
by banded LU with partial pivoting (``dgbtrf``; Ascher, Mattheij & Russell,
ch. 7).

After a full, undamped Newton step the factor is kept, and the next step
solves with it at the new iterate (a chord step; Deuflhard, *Newton Methods
for Nonlinear Problems*, sec. 2.1).  A chord step is accepted only if it cuts
the max-norm residual to at most :data:`CHORD_CONTRACTION` times the current
one; otherwise the Jacobian is re-assembled and re-factored at the current
iterate for a Newton step, damped by halving as needed.  A damped step
(length below 1) drops the factor, so the step after it factors afresh.
Once the iterate is in Newton's quadratic basin, one factorization per mesh
usually suffices.  A caller that solves several starts with one config (an
exploration, a test set) can share a factor across them through a
:class:`SharedFactor`: every solve starts on the same initial mesh, and there
its steps are chord steps on the factor the previous solve kept, under the
same contraction test, so the simplified Newton method runs across solves
as it does within one.  Where the collocation Jacobian barely changes from
one start to the next (``nhe``), the first of them is in effect a Newton
step, and the initial mesh takes no factorization.  The first time a shared
factor is turned down, the solve starts over without it and the call stops
sharing (``amp`` turns it down within a call's first two solves).  A shared
factor enters a solution only below the Newton tolerance.  A
midpoint-rule defect, taken over every column of z and
so over v's as well, flags intervals whose local truncation error is still
large; those get split and the solve repeats on the refined mesh.  It
starts from the old nodes and, at each new node, from its interval's
Hermite-Simpson midpoint state, the cubic through the endpoint values and
slopes, where a linear interpolation of the nodes took the bench's amp2d
solves about 1.5 times the chord steps.  For v the defect is the gap between
the midpoint and the Simpson quadrature of v', as it was, up to Newton's
residual, when v was solved for.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .models import ControlAffineModel, optimal_control, pmp_rhs
from .numerics import integrate_ivp, require

__all__ = [
    "time_stretch",
    "time_stretch_rate",
    "graded_mesh",
    "bvp_residual",
    "OpenLoopConfig",
    "BvpSolution",
    "BvpFailure",
    "SharedFactor",
    "initial_mesh",
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
# 1e-10, and final iterates agreeing to 2.2e-16 relative.  Rolled out as
# stacks, the guesses of the benchmark's 40 solves (6 explored and 4
# references per workload and data draw) at rel 1e-4 give the Newton, chord,
# halving and refinement counts of rel 1e-6, and a stack of the 6 explored
# starts takes 16 ms instead of 24 on amp and 17 ms instead of 39 on nhe.
GUESS_TOL = (1e-4, 1e-6)
# Bytes of each work array of the Jacobian assembly, which runs through the
# intervals in chunks of that size.  On nhe (grid side 6) whole-mesh work
# arrays, 4 MB each, made the assembly of an exploration about a third
# slower, with the time going to cache misses and to the page faults of
# fresh memory; 128 KB to 1 MB measured alike.  On a mesh longer than one
# chunk the values of pmp_jacobian are evaluated a chunk at a time too.  On
# nhe's refined meshes its two whole-mesh arrays (4.5 MB each at 109 nodes),
# held next to the band and a shared factor (see SharedFactor), put the
# traced peak of the benchmark's nhe36 exploration at 38 MB, against 27
# without the shared factor and 31 a chunk at a time; evaluating twice costs
# about 1 ms of the 8-12 of an assembly.
WORK_BYTES = 2**19


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
    """Residual of the [x; p] rows: x-boundary rows, one block of collocation rows per interval, the tail's p rows.

    The interval rule is Hermite-Simpson: the midpoint state interpolates the
    cubic through the endpoint values and slopes, and Simpson quadrature over
    endpoint and midpoint slopes closes the fourth-order defect.  The v column
    of ``z`` (nodes, 2n + 1) is not read; it is overwritten in place with the
    values its rows pin, the tail closure at the last node and the Simpson
    rule of each interval backwards from there.
    """
    n = model.dim_state
    m = 2 * n
    _, ft, h, z_mid, mid_rate = _midpoints(model, taus, z)
    ft_mid = mid_rate[:, None] * pmp_rhs(model, z_mid)
    quad = (h / 6.0) * (ft[:-1] + 4.0 * ft_mid + ft[1:])
    # v_K = -delta_tau v'_K, then v_k = v_{k+1} - quad_k one subtraction at a time
    z[::-1, m] = np.subtract.accumulate(np.concatenate([[-delta_tau * ft[-1, m]], quad[::-1, m]]))
    coll = z[1:, :m] - z[:-1, :m] - quad[:, :m]
    tail = (z[-1] + delta_tau * ft[-1])[n:m]
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


def _assemble_jacobian(model, taus, z, delta_tau):
    """Jacobian of :func:`bvp_residual` over the [x; p] unknowns in LAPACK band storage.

    Returns ``(ab, kl, ku)``, ready for ``dgbtrf``.  Entry (r, c) sits at
    ``ab[kl + ku + r - c, c]``; the first kl rows are the room ``dgbtrf``
    needs for the fill of its row interchanges.  In column-major order that
    is flat position kl + ku + r + c (ldab - 1), so the blocks of one kind,
    one per interval and each shifted by 2n rows and 2n columns from the
    last, form a single strided view of the storage and land with one
    assignment.
    """
    n = model.dim_state
    m = 2 * n
    n_nodes = z.shape[0]
    k_intervals = n_nodes - 1

    rate, _, h, z_mid, mid_rate = _midpoints(model, taus, z)
    jac = model.pmp_jacobian(z)
    if jac.shape != (n_nodes, m, m):
        expected = (n_nodes, m, m)
        raise ValueError(f"pmp_jacobian of model {model.name!r} gave shape {jac.shape}, expected (..., 2n, 2n) = {expected}")
    jac_mid = model.pmp_jacobian(z_mid)

    # Offsets r - c of the entries a block can hold in any interval: the
    # identity's, a's and those of a_mid (I + a), the nonzeros of the
    # products below, over all nodes and midpoints (the rates that scale jac
    # to a lie in [1, inf), so a holds the nonzeros of jac).  Interval k's
    # blocks start at row n + 2n k, columns 2n k and 2n (k + 1), the tail at
    # row n + 2n K, column 2n K, and the x rows sit on the diagonal.  Blocks
    # are written whole; an exact zero past the band lands in the fill rows,
    # which dgbtrf does not read on entry (its own column's above the band,
    # the next one's below), as long as 2 kl and kl + ku reach 3n - 1, the
    # farthest offset in a block.  No bundled model's nonzeros give less.
    eye = np.eye(m)
    near = eye + np.any(jac, axis=0)
    held = (np.any(jac_mid, axis=0) @ near + near) > 0
    i, j = np.indices((m, m))
    offsets = np.concatenate([(n + i - j)[held], (i - j - n)[held], (n + i - j)[:n][near[n:] > 0], [0]])
    kl = max(int(offsets.max()), (3 * n) // 2)
    ku = max(int(-offsets.min()), 3 * n - 1 - kl)
    # The intervals run in chunks of WORK_BYTES of blocks.  A mesh longer
    # than one chunk (nhe's are; no amp or lqr mesh is) drops its whole-mesh
    # Jacobians before the band is allocated, and evaluates them again a
    # chunk at a time below.
    chunk = min(max(1, WORK_BYTES // (8 * m * m)), k_intervals)
    if chunk < k_intervals:
        jac = jac_mid = None

    ldab = 2 * kl + ku + 1
    flat = np.zeros(ldab * n_nodes * m)
    step = flat.itemsize

    def blocks(row, col, count, rows):
        """``count`` blocks of ``rows`` x 2n entries at rows row + 2n k + i, columns col + 2n k + j."""
        start = kl + ku + row + col * (ldab - 1)
        return as_strided(flat[start:], shape=(count, rows, m), strides=(step * m * ldab, step, step * (ldab - 1)))

    # Interval k's left block is -I - h/6 (a_k + 4 a_mid (I/2 + h/8 a_k)) and
    # its right block I - h/6 (a_k+1 + 4 a_mid (I/2 - h/8 a_k+1)), where a and
    # a_mid are jac and jac_mid times their rates.  Both run through the same
    # work arrays, operation by operation in that order (so the bits are
    # those of the plain expression), and the last operation writes the band.
    # The product goes to a contiguous array: matmul into the strided band
    # view skips BLAS.  The work arrays hold one chunk, so they stay in cache
    # from the scaling to the band.
    hh = h[:, :, None]
    a = np.empty((chunk + 1, m, m))
    a_mid, dmid, work = (np.empty((chunk, m, m)) for _ in range(3))
    for lo in range(0, k_intervals, chunk):
        c = min(chunk, k_intervals - lo)
        if jac is None:
            nodes, mids = model.pmp_jacobian(z[lo : lo + c + 1]), model.pmp_jacobian(z_mid[lo : lo + c])
        else:
            nodes, mids = jac[lo : lo + c + 1], jac_mid[lo : lo + c]
        hc, d, w = hh[lo : lo + c], dmid[:c], work[:c]
        np.multiply(rate[lo : lo + c + 1, None, None], nodes, out=a[: c + 1])
        np.multiply(mid_rate[lo : lo + c, None, None], mids, out=a_mid[:c])
        for col, ends, sign, ident in ((0, a[:c], np.add, -eye), (m, a[1 : c + 1], np.subtract, eye)):
            np.multiply(hc / 8.0, ends, out=d)
            sign(0.5 * eye, d, out=d)
            np.matmul(a_mid[:c], d, out=w)
            np.multiply(4.0, w, out=w)
            np.add(ends, w, out=w)
            np.multiply(hc / 6.0, w, out=w)
            np.subtract(ident, w, out=blocks(n + lo * m, col + lo * m, c, m))
    # x rows pin node 0; the extrapolated tail rows pin the last node, the
    # last chunk's last
    flat[kl + ku + ldab * np.arange(n)] = 1.0
    blocks(n + k_intervals * m, k_intervals * m, 1, n)[0] = (eye + delta_tau * (rate[-1] * nodes[-1]))[n:]
    return flat.reshape((ldab, n_nodes * m), order="F"), kl, ku


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
    # intervals of the initial mesh, which has n_nodes + 1 nodes
    n_nodes: int = 240
    delta_tau: float = 1e-3
    refine_rounds: int = 2
    refine_tol: float = 1e-8
    samples: int = 40

    def __post_init__(self):
        require(self.n_nodes >= 2, "n_nodes", self.n_nodes, "at least 2")
        require(0.0 < self.delta_tau < 1.0, "delta_tau", self.delta_tau, "in (0, 1)")
        require(self.refine_rounds >= 0, "refine_rounds", self.refine_rounds, ">= 0")
        require(self.refine_tol > 0.0, "refine_tol", self.refine_tol, "> 0")
        require(self.samples >= 2, "samples", self.samples, "at least 2")


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
    # whether the solve on the initial mesh started on a factor that an
    # earlier solve of the same call kept there (see SharedFactor)
    shared_start: bool = False

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


@dataclass
class SharedFactor:
    """The one slot through which the solves of one call share a factor on the initial mesh.

    A caller that solves several starts with one config owns a holder for
    the call and hands it to each :func:`solve_open_loop`.  ``factor`` is
    the banded LU, as ``(lu, piv, kl, ku)``, that the call's last solve kept
    on :func:`initial_mesh`, or None.  The first time a solve turns a shared
    factor's chord step down, ``declined`` is set and the slot emptied: the
    call shares no more, that solve starts over from its guess, and it and
    the later solves are bit for bit unshared ones, but for the chord steps
    it counts on the shared factor.
    """

    factor: Optional[tuple] = None
    declined: bool = False


def initial_mesh(config: OpenLoopConfig) -> np.ndarray:
    """The graded mesh that :func:`solve_open_loop` starts on, and its guess lives on."""
    return graded_mesh(config.n_nodes, tau_end=1.0 - config.delta_tau)


def initial_guess(model: ControlAffineModel, starts: np.ndarray, taus: np.ndarray, q_matrix: np.ndarray) -> np.ndarray:
    """Closed-loop rollouts under the quadratic-value feedback as first iterates.

    ``starts`` is a (k, n) stack, as :func:`~vfcontrol.numerics.integrate_ivp`
    takes it, and the k rollouts are one stacked LSODA system; the result
    has shape (k, nodes, 2 n + 1), one iterate per start.  States come from
    integrating x' = f + g u with u fed back from the value model x^T Q x,
    and costates are that model's gradient; values stay zero, since
    :func:`bvp_residual` fills them from states and costates.  If a rollout
    escapes the radius of :func:`~vfcontrol.numerics.integrate_ivp` (the
    quadratic feedback need not stabilize far out), or its integrator fails,
    everything past its last valid time is padded with zeros, which is the
    correct asymptote anyway.

    The rollouts are integrated loosely, to :data:`GUESS_TOL`: Newton sets
    the accuracy of the solution, and the gap between the quadratic-feedback
    path and the optimal one dwarfs any integration error at that tolerance.
    So a guess depends on the starts rolled out with it only below that
    tolerance, through the steps they share.
    """
    starts = np.asarray(starts, dtype=float)
    n = model.dim_state
    # the value model's gradient is x @ (2 Q); doubling is exact, so it has
    # the bits of (2 x) @ Q
    grad_matrix = 2.0 * np.asarray(q_matrix, dtype=float)

    def rhs(_t, x):
        u = optimal_control(model, x, x @ grad_matrix)
        return model.f(x) + model.g_apply(x, u)

    times = time_stretch(taus)
    sols = integrate_ivp(rhs, starts, (0.0, float(times[-1])), rel_tol=GUESS_TOL[0], abs_tol=GUESS_TOL[1], escape_dims=n)

    z = np.zeros((len(sols), taus.size, 2 * n + 1))
    for guess, x0, sol in zip(z, starts, sols):
        inside = times <= sol.times[-1]
        xs = sol.at(times[inside])
        guess[inside, :n] = xs
        guess[inside, n : 2 * n] = xs @ grad_matrix
        guess[0, :n] = x0
    return z


def solve_pmp(
    model: ControlAffineModel,
    x0: np.ndarray,
    taus: np.ndarray,
    guess: np.ndarray,
    config: OpenLoopConfig = OpenLoopConfig(),
    *,
    shared: Optional[SharedFactor] = None,
) -> BvpSolution:
    """Simplified Newton on the collocation system from the supplied iterate.

    Each pass of the loop first tries a chord step if a factor is kept: one
    ``dgbtrs`` solve with the factor of an earlier iterate, accepted if the
    max-norm residual falls to :data:`CHORD_CONTRACTION` times the current
    one or below.  Without a kept factor, or when the chord step is turned
    down, the Jacobian is assembled and factored at the current iterate, and
    the Newton step is damped by halving until the residual decreases.  The
    factor is kept only after a full step.  ``newton_iterations`` counts the
    factorizations and :data:`NEWTON_MAX_ITER` bounds them.  Newton steps
    move the [x; p] columns of the iterate; the v column of ``guess`` is not
    read, since every residual evaluation fills it.

    With a ``shared`` holder that has not declined, the solve starts with
    the holder's factor kept, so its steps are chord steps on it until one
    is turned down, and on return it leaves its own kept factor (None after
    a damped last step) in the slot.  A turned-down chord step on the
    holder's factor sets ``declined``, and the solve starts over from
    ``guess`` as an unshared one: so a shared solve either converges on the
    holder's factor alone or takes the unshared solve's every step, and
    never fails where that one converges.  A solve that raises leaves the
    slot as it found it, but for that strike.  The holder belongs to one
    mesh: ``taus`` must be the one its factor was kept on.

    Trial residuals, of chord steps and of line-search steps, are evaluated
    with floating-point overflow and invalid operations quiet: a non-finite
    trial residual is turned down like any other that does not decrease.
    """
    x0 = np.asarray(x0, dtype=float)
    z = np.array(guess, dtype=float)
    if z.shape != (taus.size, 2 * model.dim_state + 1):
        raise ValueError(f"guess shape {z.shape} does not match mesh with {taus.size} nodes")

    res = bvp_residual(model, taus, z, x0, config.delta_tau)
    norm = float(np.max(np.abs(res)))
    if not np.isfinite(norm):
        raise BvpFailure("initial iterate produces a non-finite residual", residual=norm)

    def trial(step):
        """The iterate advanced by ``step``, its residual and the residual's max norm."""
        with np.errstate(over="ignore", invalid="ignore"):
            z_new = _advanced(z, step)
            res_new = bvp_residual(model, taus, z_new, x0, config.delta_tau)
            return z_new, res_new, float(np.max(np.abs(res_new)))

    if shared is not None and shared.declined:
        shared = None
    # the factor in use is the holder's until one of its steps is turned down
    borrowed = kept = shared is not None and shared.factor is not None
    if kept:
        lu, piv, kl, ku = shared.factor
    shared_start = kept
    start = z, res, norm
    iteration = 0
    halvings = 0
    chords = 0
    while norm > NEWTON_TOL * (1.0 + float(np.max(np.abs(z)))):
        if kept:
            chords += 1
            z_new, res_new, norm_new = trial(dgbtrs(lu, kl, ku, -res, piv, overwrite_b=True)[0])
            # a non-finite residual compares False and is turned down
            if norm_new <= CHORD_CONTRACTION * norm:
                z, res, norm = z_new, res_new, norm_new
                continue
            if borrowed:
                # one strike: the call shares no more, and this solve starts
                # over as an unshared one, with a factorization at its guess
                shared.factor, shared.declined = None, True
                shared, borrowed = None, False
                z, res, norm = start

        if iteration == NEWTON_MAX_ITER:
            raise BvpFailure(
                f"no convergence in {iteration} Newton iterations (residual {norm:.3e})",
                residual=norm,
                iterations=iteration,
            )
        iteration += 1
        try:
            ab, kl, ku = _assemble_jacobian(model, taus, z, config.delta_tau)
            lu, piv = splu(ab, kl, ku)
        except np.linalg.LinAlgError as err:
            raise BvpFailure(f"singular collocation Jacobian: {err}", residual=norm, iterations=iteration) from err
        step = dgbtrs(lu, kl, ku, -res, piv, overwrite_b=True)[0]
        if not np.all(np.isfinite(step)):
            raise BvpFailure("non-finite Newton step", residual=norm, iterations=iteration)

        lam = 1.0
        accepted = False
        while lam >= 2.0 ** -12:
            z_new, res_new, norm_new = trial(lam * step)
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

    if shared is not None:
        shared.factor = (lu, piv, kl, ku) if kept else None
    return BvpSolution(
        taus=taus,
        z=z,
        newton_iterations=iteration,
        line_search_halvings=halvings,
        chord_steps=chords,
        shared_start=shared_start,
    )


def _advanced(z, step):
    """A copy of the iterate z with the flat [x; p] step added; :func:`bvp_residual` fills its v column."""
    z_new = z.copy()
    z_new[:, :-1] += step.reshape(z.shape[0], -1)
    return z_new


def _interval_defects(model, taus, z, scale):
    """Midpoint-rule defect per interval, relative to the iterate's magnitude."""
    h = np.diff(taus)
    mid_tau = 0.5 * (taus[:-1] + taus[1:])
    mid_z = 0.5 * (z[:-1] + z[1:])
    ft = time_stretch_rate(mid_tau)[:, None] * pmp_rhs(model, mid_z)
    defect = z[1:] - z[:-1] - h[:, None] * ft
    return np.max(np.abs(defect), axis=1) / scale


def _refined(model, taus, z, split):
    """The mesh with the ``split`` intervals halved, and the iterate on it:
    the old nodes keep their states, and each new midpoint node starts at
    its interval's Hermite-Simpson midpoint state."""
    at = np.flatnonzero(split) + 1
    z_mid = _midpoints(model, taus, z)[3]
    return np.insert(taus, at, 0.5 * (taus[:-1] + taus[1:])[split]), np.insert(z, at, z_mid[split], axis=0)


def solve_open_loop(
    model: ControlAffineModel,
    x0: np.ndarray,
    q_matrix: np.ndarray,
    config: OpenLoopConfig = OpenLoopConfig(),
    *,
    guess: Optional[np.ndarray] = None,
    shared: Optional[SharedFactor] = None,
) -> BvpSolution:
    """Full pipeline for one start state: guess, solve, refine until the defect is small.

    The first iterate is the quadratic-value rollout of :func:`initial_guess`
    on :func:`initial_mesh`: ``guess`` when the caller rolled it out with
    other starts, else the rollout of ``x0`` as a stack of one.  ``shared``,
    the holder of a caller that solves several starts, goes to the solve on
    the initial mesh only; refined meshes differ from solve to solve and
    share nothing.  A shared factor enters the answer only below the Newton
    tolerance: a chord step on it is accepted only if it contracts like one
    on the solve's own factor.  Without a holder no other solve enters the
    answer.
    """
    taus = initial_mesh(config)
    if guess is None:
        (guess,) = initial_guess(model, np.asarray(x0, dtype=float)[None], taus, q_matrix)
    sol = solve_pmp(model, x0, taus, guess, config, shared=shared)
    shared_start = sol.shared_start
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
        taus_new, guess = _refined(model, sol.taus, sol.z, defects > config.refine_tol)
        sol = solve_pmp(model, x0, taus_new, guess, config)
        newton_iterations += sol.newton_iterations
        halvings += sol.line_search_halvings
        chords += sol.chord_steps

    sol.newton_iterations = newton_iterations
    sol.line_search_halvings = halvings
    sol.chord_steps = chords
    sol.shared_start = shared_start
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
