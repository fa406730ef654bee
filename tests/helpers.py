"""Shared oracles for the test suite.

Everything here recomputes quantities along an independent route from the
library code under test: the interpolation matrix is assembled densely from
single-pair kernel calls, reference trajectories come from closed-form
solutions, the optimality system is composed from a model's maps, and
derivative checks go through finite differences.  ``hermite_apply`` is the
one exception: the library's own expansion on bare coefficient arrays, which
only the tests call.
"""

import numpy as np

from vfcontrol.evaluate import ClosedLoopRun
from vfcontrol.explore import Dataset
from vfcontrol import hermite
from vfcontrol.hermite import MIN_SPACING
from vfcontrol.kernels import StructuredKernel
from vfcontrol.models import AmpParameters, optimal_control
from vfcontrol.numerics import FD_STEP, fd_jacobian
from vfcontrol.openloop import _midpoints


def hermite_apply(kernel, centers, alphas, betas, points):
    """Values and gradients at ``points`` of the Hermite expansion.

    Returns ``(values (m,), grads (m, N))``.  ``kernel`` may be a plain
    radial kernel or a :class:`StructuredKernel`.
    """
    sqnorms, offsets, stacked = hermite._center_terms(centers, betas)
    y = np.atleast_2d(np.asarray(points, dtype=float))
    tables = hermite._geometry(hermite._base_kernel(kernel).profile, sqnorms, stacked, y)
    structured = isinstance(kernel, StructuredKernel)
    return hermite._expand(structured, np.asarray(alphas, dtype=float), offsets, stacked, y, *tables)


# -- pointwise kernel oracles: the dense reference for the matrix-free algebra


def _sqdist(x, y):
    d = x - y
    return float(d @ d)


def kernel_eval(kernel, x: np.ndarray, y: np.ndarray) -> float:
    """k(x, y) for a single pair of points."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if isinstance(kernel, StructuredKernel):
        ip = float(x @ y)
        return ip * ip * kernel_eval(kernel.base, x, y)
    return float(kernel.profile(_sqdist(x, y))[0])


def kernel_grad1(kernel, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient of k with respect to the first argument, at (x, y)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if isinstance(kernel, StructuredKernel):
        ip = float(x @ y)
        base = kernel.base
        return 2.0 * ip * y * kernel_eval(base, x, y) + ip * ip * kernel_grad1(base, x, y)
    dpsi = float(kernel.profile(_sqdist(x, y))[1])
    return 2.0 * dpsi * (x - y)


def kernel_grad2(kernel, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient of k with respect to the second argument; equals grad1 with arguments swapped."""
    return kernel_grad1(kernel, np.asarray(y, float), np.asarray(x, float))


def ek_apply(kernel, x: np.ndarray, y: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Action of the mixed second-derivative block E_k(x, y) on a vector b.

    E_k has entries d/dy_i d/dx_j k(x, y): rows differentiate the second
    argument, the contraction with b runs over derivatives of the first.
    This is the orientation the Hermite system needs when the first argument
    is the column (coefficient) point and the second the row (condition)
    point; for the radial base kernel

        E_k(x, y) b = -2 psi'(s) b + 4 psi''(s) (x - y) <y - x, b>,

    and the structured product adds four rank-one correction terms.  Cost is
    O(dim); the matrix itself is never formed.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    b = np.asarray(b, dtype=float)
    if isinstance(kernel, StructuredKernel):
        base = kernel.base
        ip = float(x @ y)
        k = kernel_eval(base, x, y)
        g1 = kernel_grad1(base, x, y)
        yb = float(y @ b)
        return (
            2.0 * k * yb * x
            + 2.0 * ip * k * b
            + 2.0 * ip * yb * (-g1)
            + 2.0 * ip * float(g1 @ b) * x
            + ip * ip * ek_apply(base, x, y, b)
        )
    s = _sqdist(x, y)
    _, dpsi, ddpsi = kernel.profile(s)
    d = x - y
    return -2.0 * float(dpsi) * b - 4.0 * float(ddpsi) * d * float(d @ b)


def reference_profile(kernel, s):
    """psi, psi', psi'' of a :class:`WendlandC4` by the arithmetic its
    ``profile`` has always used, written out operation by operation with
    every constant recomputed on the call: ``profile`` and ``slopes`` must
    keep these bits, which the fit's and every feedback's digests rest on."""
    s = np.asarray(s, dtype=float)
    l = kernel.dim // 2 + 3
    m = l + 2
    g = kernel.gamma
    r = np.sqrt(np.maximum(s, 0.0))
    r *= g
    t = np.maximum(1.0 - r, 0.0)
    # t^(m-2) by repeated squaring, lowest bit first
    t_m2, square, e = None, t, m - 2
    while e:
        if e & 1:
            t_m2 = square if t_m2 is None else t_m2 * square
        e >>= 1
        if e:
            square = square * square
    t_m1 = t_m2 * t
    dpsi = (-0.5 * g * g * (m + 2) * (m * m - 1)) * r
    dpsi += -0.5 * g * g * (m + 1) * (m + 2)
    dpsi *= t_m1
    ddpsi = (0.25 * g**4 * m * (m * m - 1) * (m + 2)) * t_m2
    psi = (l + 1) * (l + 3) * r
    psi += 3.0 * (l + 2)
    psi *= r
    psi += 3.0
    psi *= t_m1
    psi *= t
    return psi, dpsi, ddpsi


def dense_hermite_matrix(kernel, centers):
    """Assemble the full interpolation matrix entry by entry.

    Row/column layout matches the stacked coefficient vector: n value slots
    followed by n blocks of dim gradient slots.
    """
    x = np.asarray(centers, dtype=float)
    n, dim = x.shape
    m = np.zeros((n * (1 + dim), n * (1 + dim)))
    for j in range(n):
        for i in range(n):
            m[j, i] = kernel_eval(kernel, x[i], x[j])
            m[j, n + i * dim : n + (i + 1) * dim] = kernel_grad1(kernel, x[i], x[j])
            m[n + j * dim : n + (j + 1) * dim, i] = kernel_grad2(kernel, x[i], x[j])
            for d in range(dim):
                unit = np.zeros(dim)
                unit[d] = 1.0
                m[n + j * dim : n + (j + 1) * dim, n + i * dim + d] = ek_apply(kernel, x[i], x[j], unit)
    return m


def lattice_centers(rng, n, dim, avoid_origin=False):
    """Well-separated random centers: jittered picks from an integer lattice.

    Plain uniform draws occasionally land two centers nearly on top of each
    other, which makes the interpolation matrix arbitrarily ill conditioned
    and turns a correctness test into a conditioning test.  The lattice keeps
    pairwise distances near 1 while the jitter avoids symmetry accidents.
    """
    side = np.arange(-2.0, 2.1, 1.0)
    mesh = np.stack(np.meshgrid(*([side] * dim), indexing="ij"), axis=-1).reshape(-1, dim)
    if avoid_origin:
        mesh = mesh[np.linalg.norm(mesh, axis=1) > 0.4]
    pick = rng.choice(mesh.shape[0], size=min(n, mesh.shape[0]), replace=False)
    return mesh[pick] + rng.uniform(-0.15, 0.15, size=(len(pick), dim))


def factor_of(kernel, centers, nugget=0.0):
    """The :class:`~vfcontrol.hermite.HermiteFactor` of ``centers`` in order,
    each of which it must take."""
    factor = hermite.HermiteFactor(kernel, nugget)
    for k, center in enumerate(np.asarray(centers, dtype=float)):
        assert factor.append(center), f"the factor turned center {k} away"
    return factor


def centers_with_twins(rng, n, dim, n_twins):
    """``lattice_centers`` plus a near-copy of up to ``n_twins`` of them, each
    moved by less than ``MIN_SPACING`` and inserted at a random position.

    No center gets two twins: those could lie farther than ``MIN_SPACING``
    apart and still be singular to working precision.
    """
    centers = lattice_centers(rng, n, dim, avoid_origin=True)
    sources = centers[rng.choice(len(centers), size=min(n_twins, len(centers)), replace=False)]
    for source in sources:
        step = rng.normal(size=dim)
        step *= rng.uniform(0.0, 0.9) * MIN_SPACING / np.linalg.norm(step)
        centers = np.insert(centers, rng.integers(len(centers) + 1), source + step, axis=0)
    return centers


def close_pairs(centers):
    """Index pairs (i, j), i < j, of centers closer than ``MIN_SPACING``."""
    gaps = np.linalg.norm(centers[:, None, :] - centers[None, :, :], axis=2)
    return {(i, j) for i, j in zip(*np.nonzero(gaps < MIN_SPACING)) if i < j}


# -- views of datasets, greedy runs and rollouts that only the tests read


def start_states(data):
    """The start state of every trajectory of a dataset, in order, (n, N)."""
    if not data.trajectories:
        return np.zeros((0, data.dim))
    return np.stack([t.x0 for t in data.trajectories])


def farthest_first_visits(candidates, n_trajectories, eps_tol_d, quarantined):
    """(visits, eps_history) of exploration's one-at-a-time loop when the
    candidates of index in ``quarantined`` fail and every other one is kept.

    Each step picks the candidate farthest from the origin and the kept
    starts, ties to the lowest index, until ``n_trajectories`` are kept, the
    farthest is within ``eps_tol_d`` or none is left; a quarantined pick is
    dropped and covers nothing.
    """
    candidates = np.asarray(candidates, dtype=float)
    dmin = np.linalg.norm(candidates, axis=1)
    visits, eps_history = [], []
    while len(eps_history) < n_trajectories and np.any(dmin > -np.inf):
        best = int(np.argmax(dmin))
        if dmin[best] <= eps_tol_d:
            break
        visits.append(best)
        gap = float(dmin[best])
        dmin[best] = -np.inf
        if best in quarantined:
            continue
        eps_history.append(gap)
        dmin = np.minimum(dmin, np.linalg.norm(candidates - candidates[best], axis=1))
    return visits, eps_history


def prefix(data, n):
    """The dataset of the first n trajectories, with their solve records."""
    meta = dict(data.meta)
    if "solves" in meta:
        meta["solves"] = meta["solves"][:n]
    return Dataset(dim=data.dim, trajectories=data.trajectories[:n], eps_history=data.eps_history[:n], meta=meta)


def c_max_state(data):
    """The largest sample norm of a dataset; 0 for no samples."""
    pts, _, _ = data.flattened()
    return float(np.max(np.linalg.norm(pts, axis=1))) if pts.size else 0.0


def c_max_value(data):
    """The largest |v| + ||grad v|| over a dataset's samples; 0 for no samples."""
    _, vals, gds = data.flattened()
    return float(np.max(np.abs(vals) + np.linalg.norm(gds, axis=1))) if vals.size else 0.0


def selected_indices(result):
    """The sample index of every center a greedy run selected, in order."""
    return [step.index for step in result.steps]


def final_state(run):
    """The last state of a closed-loop run, (N,)."""
    return run.states[-1]


class LinearPath:
    """Piecewise-linear dense output through stored nodes."""

    def __init__(self, times, states):
        self.times = times
        self.states = states

    def at(self, t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return np.stack([np.interp(t, self.times, column) for column in self.states.T], axis=1)


def run_from_arrays(times, states, cost=0.0):
    """A closed-loop run given directly by its nodes, interpolated linearly between them."""
    times = np.asarray(times, dtype=float)
    states = np.asarray(states, dtype=float)
    path = LinearPath(times, states)
    return ClosedLoopRun(x0=states[0], times=times, states=states, cost=cost, escaped=False, interpolant=path)


class AnalyticRun:
    """A reference trajectory given directly by arrays (duck-types BvpSolution)."""

    def __init__(self, x0, times, states):
        self.x0 = np.asarray(x0, dtype=float)
        self.times = np.asarray(times, dtype=float)
        self.states = np.asarray(states, dtype=float)


def amp_closed_loop(x0, horizon, n_times=400, params=AmpParameters()):
    """Optimal closed-loop trajectory of the analytic benchmark model.

    Under the optimal feedback the squared radius q = ||x||^2 obeys
    q' = -2 c q^2 with c = sqrt(1 + alpha/beta), so the state just shrinks
    radially: x(t) = x0 / sqrt(1 + 2 c ||x0||^2 t).
    """
    x0 = np.asarray(x0, dtype=float)
    c = np.sqrt(1.0 + params.alpha / params.beta)
    times = np.linspace(0.0, horizon, n_times)
    den = np.sqrt(1.0 + 2.0 * c * float(x0 @ x0) * times)
    states = x0[None, :] / den[:, None]
    return AnalyticRun(x0, times, states)


def relative_l2(reference, run, horizon=None):
    """Relative L2 gap of one closed-loop run against one reference."""
    times = np.asarray(reference.times, dtype=float)
    states = np.asarray(reference.states, dtype=float)
    if horizon is not None:
        mask = times <= horizon
        times, states = times[mask], states[mask]
    sim = run.states_at(times)
    return float(np.sqrt(np.sum((states - sim) ** 2) / np.sum(states * states)))


def fd_gradient(f, x, h=1e-6):
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


def fd_jacobian_columns(fun, z):
    """Central-difference Jacobian at every row of z, one pair of calls of ``fun`` per column.

    The column-at-a-time route that ``numerics.fd_jacobian`` batches into a
    single call, with the same steps ``FD_STEP * (1 + |z_j|)``.
    """
    z = np.asarray(z, dtype=float)
    n_rows, d = z.shape
    jac = None
    for j in range(d):
        step = FD_STEP * (1.0 + np.abs(z[:, j]))
        zp = z.copy()
        zp[:, j] += step
        zm = z.copy()
        zm[:, j] -= step
        col = (fun(zp) - fun(zm)) / (2.0 * step)[:, None]
        if jac is None:
            jac = np.empty((n_rows, col.shape[1], d))
        jac[:, :, j] = col
    return jac


def fd_gradient_check(f, grad, x, h=1e-6):
    """Max absolute deviation between ``grad(x)`` and a central difference of ``f``."""
    g = np.asarray(grad(np.asarray(x, dtype=float)), dtype=float)
    return float(np.max(np.abs(g - fd_gradient(f, x, h))))


# -- the optimality system, composed from a model's maps


def composed_pmp_rhs(model, z):
    """Pontryagin's optimality system at every row of z = [x; p; v], and the
    size of the terms each entry sums, both of shape (..., 2n+1).

    The route the models' closed forms replace: with u = -1/2 R^{-1} g(x)^T p,

        x' = f(x) + g(x) u,
        p' = -(J_f(x)^T p + [d/dx g(x)u]^T p + grad r(x)),
        v' = -(r(x) + u^T R u),

    where J_f, d(g u)/dx at fixed u and grad r are ``fd_jacobian`` of ``f``,
    ``g_apply`` and ``r``.  The x' and v' rows hold no finite difference.
    The size is the same sum over the terms' absolute values, so an entry that
    cancels is checked against the rounding of its terms.
    """
    z = np.asarray(z, dtype=float)
    n = model.dim_state
    rows = z.reshape(-1, z.shape[-1])
    x, p = rows[:, :n], rows[:, n : 2 * n]
    u = optimal_control(model, x, p)
    jac_f = fd_jacobian(model.f, x)
    # fd_jacobian stacks 2n perturbed copies of the rows, so u is tiled to match
    jac_gu = fd_jacobian(lambda y: model.g_apply(y, np.tile(u, (2 * n, 1))), x)
    grad_r = fd_jacobian(lambda y: model.r(y)[:, None], x)[:, 0]
    terms = [
        (model.f(x), model.g_apply(x, u)),
        (-np.einsum("kij,ki->kj", jac_f, p), -np.einsum("kij,ki->kj", jac_gu, p), -grad_r),
        (-model.r(x)[:, None], -np.einsum("ki,ij,kj->k", u, model.R, u)[:, None]),
    ]
    rhs = np.concatenate([sum(row) for row in terms], axis=1).reshape(z.shape)
    size = np.concatenate([sum(np.abs(t) for t in row) for row in terms], axis=1).reshape(z.shape)
    return rhs, size


# -- the collocation Jacobian, block by block


def band_jacobian_reference(model, taus, z, delta_tau):
    """Jacobian of ``openloop.bvp_residual`` over the [x; p] unknowns as ``(ab, kl, ku)``,
    in LAPACK band storage ``ab[kl + ku + r - c, c]``.

    The Hermite-Simpson blocks come from the plain expression on
    ``pmp_jacobian``, one temporary per term, and are placed interval
    by interval into a dense matrix, whose nonzeros give (kl, ku); the library
    assembles the same arithmetic with reused work arrays and strided views,
    so the two must agree bit for bit in the band rows.
    """
    n = model.dim_state
    m = 2 * n
    n_nodes = z.shape[0]
    rate, _, h, z_mid, mid_rate = _midpoints(model, taus, z)
    a = rate[:, None, None] * model.pmp_jacobian(z)
    a_mid = mid_rate[:, None, None] * model.pmp_jacobian(z_mid)
    eye = np.eye(m)
    hh = h[:, :, None]
    dmid_left = 0.5 * eye + (hh / 8.0) * a[:-1]
    dmid_right = 0.5 * eye - (hh / 8.0) * a[1:]
    left = -eye - (hh / 6.0) * (a[:-1] + 4.0 * np.matmul(a_mid, dmid_left))
    right = eye - (hh / 6.0) * (a[1:] + 4.0 * np.matmul(a_mid, dmid_right))

    dense = np.zeros((n_nodes * m, n_nodes * m))
    dense[:n, :n] = np.eye(n)
    for k in range(n_nodes - 1):
        rows = slice(n + k * m, n + (k + 1) * m)
        dense[rows, k * m : (k + 1) * m] = left[k]
        dense[rows, (k + 1) * m : (k + 2) * m] = right[k]
    dense[n + (n_nodes - 1) * m :, (n_nodes - 1) * m :] = (eye + delta_tau * a[-1])[n:]

    r, c = np.nonzero(dense)
    kl, ku = int(np.max(r - c)), int(np.max(c - r))
    ab = np.zeros((2 * kl + ku + 1, dense.shape[1]))
    i, j = np.indices(dense.shape)
    inside = (i - j <= kl) & (j - i <= ku)
    ab[kl + ku + i[inside] - j[inside], j[inside]] = dense[inside]
    return ab, kl, ku
