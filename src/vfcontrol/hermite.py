"""Matrix-free Hermite kernel interpolation of values and gradients.

The interpolant has the form

    s(x) = sum_i alpha_i k(x_i, x) + <beta_i, grad_1 k(x_i, x)>,

and fitting it to value/gradient data means solving M c = rhs with the
symmetric positive definite two-by-two block matrix

    M = [[ K, B ], [ B^T, C ]],   K_ji = k(x_i, x_j),
    B rows <grad_1 k(x_i, x_j), .>,  C blocks E_k(x_i, x_j),

of size n(1+N).  Products with M never materialize B or C: they reduce to
pairwise scalar matrices (profile values on squared distances, inner
products) combined through O(n m N) matrix products, which is what makes
center counts in the hundreds cheap even for N = 100.  The one dense object
is the preconditioner, a Cholesky factor of M that grows one (1+N) block per
center (``HermiteFactor``, 8 (n(1+N))^2 bytes); CG on the matrix-free
operator remains the solve and its true residual the correctness check.

``HermiteFactor.append`` is the one gate for new centers: it turns away,
leaving the factor as it was, a center within ``MIN_SPACING`` of one it holds
(a nugget lifts such a duplicate's Schur block above the next test), or one
whose Schur block has an eigenvalue below ``SCHUR_FLOOR`` times its own Gram
diagonal.  So the factor is always exact, never floored.

The same contraction evaluated at off-center points is the surrogate itself,
so ``hermite_apply`` doubles as the Gram matvec (query points = centers) and
as batched surrogate evaluation: the greedy scan, LSODA's Jacobian batches,
cross-validation.  A single state, which is what the online feedback and
every rollout right-hand side evaluate, takes a short path instead.  A
``Surrogate`` keeps its center-only terms (||x_i||^2, <beta_i, x_i> and the
stacked [x; beta]), so the value and gradient at y take one
``WendlandC4.profile`` call on the n squared distances and a dozen vector
operations, with the gradient collapsed to scalar * y + coef @ [x; beta] and
no pair tables built.  That row matches the same row of a batch to
rounding, not bit for bit.

The structured variant replaces k by <x, y>^2 k(x, y) and represents the
value as a square:

    s(x) = ( sqrt(x^T Q x) + correction(x) )^2,

fit through the linearized right-hand side of ``assemble_rhs``; it vanishes
with vanishing gradient at the origin and is nonnegative by construction.
The kernel is the variant: a ``Surrogate`` over a ``StructuredKernel`` is
the square and needs Q, one over a plain kernel is the expansion and takes
none, ``assemble_rhs`` is structured exactly when it is given Q, and only a
plain fit gets the origin as a sample (``takes_origin_sample``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np
import scipy.linalg

from .kernels import StructuredKernel, WendlandC4, kernel_from_spec, kernel_to_spec
from .numerics import CgError, cg_solve

__all__ = [
    "hermite_apply",
    "HermiteOperator",
    "stack_coeffs",
    "unstack_coeffs",
    "assemble_rhs",
    "square_root_domain",
    "takes_origin_sample",
    "HermiteFactor",
    "fit",
    "FitError",
    "Surrogate",
    "quadratic_surrogate",
    "save_surrogate",
    "load_surrogate",
]

SURROGATE_SCHEMA = "vfcontrol-surrogate-v1"
# centers closer than this make the interpolation system singular to working
# precision (the tails of different trajectories meet at the origin)
MIN_SPACING = 1e-8
# a Schur block whose smallest eigenvalue is below this fraction of the
# center's own Gram diagonal is numerically spanned by the earlier centers
SCHUR_FLOOR = 1e-12
# x^T Q x below the smallest normal number counts as the origin on both
# evaluation paths, which round it apart there by whole subnormal units
_TINY = float(np.finfo(float).tiny)


class FitError(RuntimeError):
    pass


def _pairwise_sqdist(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    xs = np.sum(x * x, axis=1)
    ys = np.sum(y * y, axis=1)
    s = x @ y.T
    s *= -2.0
    s += xs[:, None]
    s += ys[None, :]
    return np.maximum(s, 0.0, out=s)


class _PairCache:
    """Coefficient-independent pairwise tables between centers and points.

    Everything that depends only on geometry lives here, so repeated
    applications with fresh coefficients (the CG inner loop) pay only for the
    O(n m N) contractions.
    """

    __slots__ = ("x", "y", "structured", "psi", "dpsi", "ddpsi",
                 "ip_psi", "ip2_psi", "ip_dpsi", "ip2_dpsi", "ip2_ddpsi")

    def __init__(self, kernel, centers, points):
        self.x = np.asarray(centers, dtype=float)
        self.y = np.atleast_2d(np.asarray(points, dtype=float))
        self.structured = isinstance(kernel, StructuredKernel)
        base = kernel.base if self.structured else kernel
        self.psi, self.dpsi, self.ddpsi = base.profile(_pairwise_sqdist(self.x, self.y))
        if self.structured:
            ip = self.x @ self.y.T
            ip2 = ip * ip
            self.ip_psi = ip * self.psi
            self.ip2_psi = ip2 * self.psi
            self.ip_dpsi = ip * self.dpsi
            self.ip2_dpsi = ip2 * self.dpsi
            self.ip2_ddpsi = ip2 * self.ddpsi


class _Work:
    """Scratch arrays for ``_apply_cached``: n x m tables, m x N rows and one
    n x N block.  ``HermiteOperator`` keeps one, so a Krylov loop allocates
    nothing larger than a vector per matvec."""

    __slots__ = ("tables", "rows", "block")

    def __init__(self, cache: "_PairCache"):
        (n, m), dim = cache.psi.shape, cache.x.shape[1]
        self.tables = [np.empty((n, m)) for _ in range(3 if cache.structured else 2)]
        self.rows = [np.empty((m, dim)) for _ in range(3)]
        self.block = np.empty((n, dim))


def _apply_cached(cache: "_PairCache", alphas, betas, work: _Work, vals: np.ndarray, grads: np.ndarray):
    """Write the values at the cache's points into ``vals`` (m,) and the
    gradients into ``grads`` (m, N), every larger temporary into ``work``."""
    x, y = cache.x, cache.y
    al = np.asarray(alphas, dtype=float)
    be = np.asarray(betas, dtype=float)
    tmp = work.tables[-1]
    r1, r2, r3 = work.rows

    def spread(table, out):             # sum_i table_ij y_j
        return np.multiply(np.sum(table, axis=0)[:, None], y, out=out)

    def gather(table, out):             # sum_i table_ij x_i
        return np.matmul(table.T, x, out=out)

    def add(scale, term):               # grads += scale * term, term overwritten
        term *= scale
        np.add(grads, term, out=grads)

    c = np.sum(np.multiply(be, x, out=work.block), axis=1)  # <beta_i, x_i>
    bg = np.matmul(be, y.T, out=work.tables[0])             # <beta_i, y_j>

    if not cache.structured:
        psi, dpsi, ddpsi = cache.psi, cache.dpsi, cache.ddpsi
        np.add(psi.T @ al, 2.0 * (dpsi.T @ c - np.einsum("ij,ij->j", dpsi, bg)), out=vals)
        w = np.multiply(dpsi, al[:, None], out=tmp)
        spread(w, grads)
        grads -= gather(w, r1)
        grads *= 2.0
        pb = np.matmul(dpsi.T, be, out=r2)
        np.subtract(bg, c[:, None], out=bg)  # <y_j - x_i, beta_i>
        u = np.multiply(ddpsi, bg, out=tmp)
        pb *= -2.0
        q = gather(u, r1)
        q -= spread(u, r3)
        q *= 4.0
        pb += q
        grads += pb
        return

    cg = np.subtract(c[:, None], bg, out=work.tables[1])  # <x_i - y_j, beta_i>
    np.add(
        cache.ip2_psi.T @ al,
        2.0 * (np.einsum("ij,ij->j", cache.ip_psi, bg) + np.einsum("ij,ij->j", cache.ip2_dpsi, cg)),
        out=vals,
    )
    # sum_i alpha_i grad_2 kappa(x_i, y_j)
    gather(np.multiply(al[:, None], cache.ip_psi, out=tmp), grads)
    grads *= 2.0
    ma2 = np.multiply(al[:, None], cache.ip2_dpsi, out=tmp)
    q = spread(ma2, r1)
    q -= gather(ma2, r2)
    add(2.0, q)
    # sum_i E_kappa(x_i, y_j) beta_i, by the product rule around E_k of the base
    add(2.0, gather(np.multiply(cache.psi, bg, out=tmp), r1))
    add(2.0, np.matmul(cache.ip_psi.T, be, out=r1))
    m3 = np.multiply(cache.ip_dpsi, bg, out=tmp)
    q = spread(m3, r1)
    q -= gather(m3, r2)
    add(4.0, q)
    add(4.0, gather(np.multiply(cache.ip_dpsi, cg, out=tmp), r1))
    add(-2.0, np.matmul(cache.ip2_dpsi.T, be, out=r1))
    m5b = np.multiply(cache.ip2_ddpsi, cg, out=tmp)
    q = gather(m5b, r1)
    q -= spread(m5b, r2)
    add(-4.0, q)


def hermite_apply(kernel, centers, alphas, betas, points):
    """Values and gradients at ``points`` of the Hermite expansion.

    Returns ``(values (m,), grads (m, N))``.  ``kernel`` may be a plain
    radial kernel or a :class:`StructuredKernel`.
    """
    x = np.asarray(centers, dtype=float)
    y = np.atleast_2d(np.asarray(points, dtype=float))
    n, dim = x.shape
    vals, grads = np.zeros(y.shape[0]), np.zeros((y.shape[0], dim))
    if n:
        cache = _PairCache(kernel, x, y)
        _apply_cached(cache, alphas, betas, _Work(cache), vals, grads)
    return vals, grads


class HermiteOperator:
    """The Gram matvec bound to a fixed center set.

    Building the operator evaluates all pairwise kernel profiles once; each
    :meth:`matvec` afterwards costs only the coefficient contractions, which
    is what a Krylov loop should pay per iteration.
    """

    def __init__(self, kernel, centers):
        self.centers = np.asarray(centers, dtype=float)
        self.n, self.dim = self.centers.shape
        self.kernel = kernel
        self._cache = _PairCache(kernel, self.centers, self.centers)
        self._work = _Work(self._cache)

    @property
    def size(self) -> int:
        return self.n * (1 + self.dim)

    def matvec(self, stacked: np.ndarray) -> np.ndarray:
        alphas, betas = unstack_coeffs(stacked, self.n, self.dim)
        out = np.empty(self.size)
        _apply_cached(self._cache, alphas, betas, self._work, out[: self.n], out[self.n :].reshape(self.n, self.dim))
        return out


def stack_coeffs(alphas: np.ndarray, betas: np.ndarray) -> np.ndarray:
    return np.concatenate([np.asarray(alphas, float), np.asarray(betas, float).ravel()])


def unstack_coeffs(stacked: np.ndarray, n: int, dim: int):
    stacked = np.asarray(stacked, dtype=float)
    if stacked.size != n * (1 + dim):
        raise ValueError(f"coefficient vector of size {stacked.size}, expected {n * (1 + dim)}")
    return stacked[:n], stacked[n:].reshape(n, dim)


def takes_origin_sample(kernel) -> bool:
    """Whether a fit over ``kernel`` gets the sample v(0) = 0, grad v(0) = 0:
    a structured surrogate vanishes there by construction."""
    return not isinstance(kernel, StructuredKernel)


def square_root_domain(values, points, q_matrix):
    """x^T Q x at each sample, and the samples whose structured square-root
    data ``assemble_rhs`` can build: v > 0 and x^T Q x > 0."""
    xqx = np.einsum("ij,jk,ik->i", points, q_matrix, points)
    return xqx, (values > 0.0) & (xqx > 0.0)


def assemble_rhs(values, grads, q_matrix=None, centers=None):
    """``(rhs, data)``: the right-hand side of the interpolation system and
    the data its residual is measured against.

    Plain (no ``q_matrix``): the stacked values and gradients, also as the
    data.  Structured: the linearized square-root data, defined where
    v_j > 0 and x_j^T Q x_j > 0,

        sqrt(v_j) - sqrt(x_j^T Q x_j),
        grad v_j / (2 sqrt(v_j)) - Q x_j / sqrt(x_j^T Q x_j),

    and the data [sqrt(v_j); grad v_j / (2 sqrt(v_j))].
    """
    values = np.asarray(values, dtype=float)
    grads = np.asarray(grads, dtype=float)
    if q_matrix is None:
        rhs = stack_coeffs(values, grads)
        return rhs, rhs
    if centers is None:
        raise ValueError("structured rhs needs the centers")
    centers = np.asarray(centers, dtype=float)
    qm = np.asarray(q_matrix, dtype=float)
    xqx, admissible = square_root_domain(values, centers, qm)
    if not np.all(admissible):
        bad = int(np.argmin(admissible))
        raise ValueError(
            f"structured rhs needs positive values away from the origin; "
            f"sample {bad} has v = {values[bad]:.3e} and x^T Q x = {xqx[bad]:.3e}"
        )
    sv = np.sqrt(values)
    sq = np.sqrt(xqx)
    root_grads = grads / (2.0 * sv[:, None])
    rhs = stack_coeffs(sv - sq, root_grads - (centers @ qm) / sq[:, None])
    return rhs, stack_coeffs(sv, root_grads)


def _gram_blocks(kernel, center, points) -> np.ndarray:
    """Gram entries between one center's coefficients and the functionals at ``points``.

    Returns ``(m, 1+N, 1+N)`` blocks: row 0 is the value at ``points[j]``,
    rows 1.. its gradient; column 0 is the center's alpha, columns 1.. its
    beta.  These are the entries ``_apply_cached`` contracts, written out
    from the same pair tables.
    """
    cache = _PairCache(kernel, np.atleast_2d(center), points)
    x = cache.x[0]
    y = cache.y
    m, dim = y.shape
    d = y - x                           # y_j - x
    eye = np.eye(dim)
    out = np.empty((m, 1 + dim, 1 + dim))
    psi, dpsi, ddpsi = cache.psi[0], cache.dpsi[0], cache.ddpsi[0]
    if not cache.structured:
        out[:, 0, 0] = psi
        out[:, 0, 1:] = -2.0 * dpsi[:, None] * d
        out[:, 1:, 0] = 2.0 * dpsi[:, None] * d
        out[:, 1:, 1:] = -2.0 * dpsi[:, None, None] * eye
        out[:, 1:, 1:] -= 4.0 * ddpsi[:, None, None] * (d[:, :, None] * d[:, None, :])
        return out
    ip_psi, ip2_psi = cache.ip_psi[0], cache.ip2_psi[0]
    ip_dpsi, ip2_dpsi, ip2_ddpsi = cache.ip_dpsi[0], cache.ip2_dpsi[0], cache.ip2_ddpsi[0]
    # kappa(x, y) = <x, y>^2 k(x, y), differentiated by the product rule
    out[:, 0, 0] = ip2_psi
    out[:, 0, 1:] = 2.0 * ip_psi[:, None] * y - 2.0 * ip2_dpsi[:, None] * d
    out[:, 1:, 0] = 2.0 * ip_psi[:, None] * x + 2.0 * ip2_dpsi[:, None] * d
    out[:, 1:, 1:] = (
        2.0 * psi[:, None, None] * (x[None, :, None] * y[:, None, :])
        + 4.0 * ip_dpsi[:, None, None] * (d[:, :, None] * y[:, None, :] - x[None, :, None] * d[:, None, :])
        + 2.0 * (ip_psi - ip2_dpsi)[:, None, None] * eye
        - 4.0 * ip2_ddpsi[:, None, None] * (d[:, :, None] * d[:, None, :])
    )
    return out


class HermiteFactor:
    """Lower Cholesky factor of ``M + nugget I`` over a growing center set.

    Rows and columns run in center order, each center contributing its value
    slot followed by its gradient slots; :meth:`solve` maps to and from the
    stacked coefficient layout.  :meth:`append` extends the factor by one
    center's (1+N) block in O(k (1+N)^3), the Newton-basis update of greedy
    kernel interpolation, or turns the center away.  ``lower`` is the factor
    L, with L L^T = M + nugget I in that order; it takes 8 (n (1+N))^2 bytes.
    """

    def __init__(self, kernel, dim: int, nugget: float = 0.0):
        self.kernel = kernel
        self.dim = dim
        self.nugget = nugget
        self.centers = np.zeros((0, dim))
        self.lower = np.zeros((0, 0))

    @property
    def n(self) -> int:
        return self.centers.shape[0]

    def append(self, center) -> bool:
        """Add one center; False, with the factor unchanged, when the centers
        already held span it (see the module docstring)."""
        center = np.asarray(center, dtype=float)
        if np.any(np.linalg.norm(self.centers - center, axis=1) < MIN_SPACING):
            return False
        block = 1 + self.dim
        old = self.n * block
        centers = np.vstack([self.centers, center[None, :]])
        column = _gram_blocks(self.kernel, center, centers).reshape(-1, block)
        w = scipy.linalg.solve_triangular(self.lower, column[:old], lower=True, check_finite=False)
        own = column[old:] + self.nugget * np.eye(block)
        schur = own - w.T @ w
        level = SCHUR_FLOOR * np.max(np.abs(np.diag(own)))
        if level == 0.0:
            raise FitError(f"center {self.n} has a vanishing Gram block")
        if np.linalg.eigvalsh(schur)[0] < level:
            return False
        tail = scipy.linalg.cholesky(schur, lower=True)
        # a fresh contiguous array: SciPy copies any strided view it solves with
        grown = np.zeros((old + block, old + block))
        grown[:old, :old] = self.lower
        grown[old:, :old] = w.T
        grown[old:, old:] = tail
        self.centers = centers
        self.lower = grown
        return True

    def solve(self, stacked: np.ndarray) -> np.ndarray:
        """(L L^T)^{-1} applied to a stacked coefficient vector."""
        n, dim = self.n, self.dim
        ordered = np.concatenate([stacked[:n, None], stacked[n:].reshape(n, dim)], axis=1).ravel()
        z = scipy.linalg.solve_triangular(self.lower, ordered, lower=True, check_finite=False)
        z = scipy.linalg.solve_triangular(self.lower, z, lower=True, trans="T", check_finite=False)
        z = z.reshape(n, 1 + dim)
        return np.concatenate([z[:, 0], z[:, 1:].ravel()])


def fit(
    kernel,
    centers,
    rhs: np.ndarray,
    cg_tol: float = 1e-10,
    max_iter: Optional[int] = None,
    nugget: float = 0.0,
    factor: Optional[HermiteFactor] = None,
):
    """Solve the interpolation system by CG preconditioned with a Cholesky factor.

    ``factor`` is a :class:`HermiteFactor` of these centers and this nugget;
    without one, a factor is built by appending the centers in order, and a
    center the factor turns away is a :class:`FitError` that names it and
    its nearest earlier center.  CG runs on the matrix-free operator and
    stops once its true residual is below ``cg_tol`` relative to ``rhs``.
    Returns ``(alphas, betas, info)`` where info records iterations and the
    final relative residual.
    """
    centers = np.asarray(centers, dtype=float)
    n, dim = centers.shape
    if n == 0:
        return np.zeros(0), np.zeros((0, dim)), {"iterations": 0, "residual": 0.0}
    if factor is None:
        factor = HermiteFactor(kernel, dim, nugget)
        for k, center in enumerate(centers):
            if factor.append(center):
                continue
            if k == 0:
                raise FitError("center 0 has a numerically singular Gram block")
            gaps = np.linalg.norm(centers[:k] - center, axis=1)
            near = int(np.argmin(gaps))
            raise FitError(
                f"center {k} is spanned by the centers before it; "
                f"the nearest, center {near}, is {gaps[near]:.3e} away"
            )
    elif factor.n != n or factor.nugget != nugget:
        raise ValueError(
            f"factor of {factor.n} centers and nugget {factor.nugget} for {n} centers and nugget {nugget}"
        )

    bound = HermiteOperator(kernel, centers)

    def apply(vec):
        out = bound.matvec(vec)
        if nugget:
            out = out + nugget * vec
        return out

    try:
        res = cg_solve(apply, rhs, factor.solve, tol=cg_tol, max_iter=max_iter)
    except CgError as err:
        raise FitError(
            f"CG stalled at relative residual {err.residual:.3e} after {err.iterations} iterations"
        ) from err
    alphas, betas = unstack_coeffs(res.x, n, dim)
    return alphas, betas, {"iterations": res.iterations, "residual": res.residual, "nugget": nugget}


@dataclass(frozen=True)
class Surrogate:
    """A fitted value-function model: coefficients, centers, and the kernel,
    whose kind ``variant`` names (see the module docstring)."""

    kernel: object
    centers: np.ndarray
    alphas: np.ndarray
    betas: np.ndarray
    q_matrix: Optional[np.ndarray] = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        structured = isinstance(self.kernel, StructuredKernel)
        if structured and self.q_matrix is None:
            raise ValueError("a surrogate over a structured kernel needs the quadratic matrix q_matrix")
        if not structured and self.q_matrix is not None:
            raise ValueError("a surrogate over a plain kernel takes no quadratic matrix q_matrix")
        # resolved once: the one-state path reads these on every call
        object.__setattr__(self, "_structured", structured)
        object.__setattr__(self, "_base", self.kernel.base if structured else self.kernel)

    @property
    def variant(self) -> str:
        return "structured" if self._structured else "plain"

    @property
    def n_centers(self) -> int:
        return self.centers.shape[0]

    @cached_property
    def _center_terms(self):
        """||x_i||^2, <beta_i, x_i> and the stacked (2n, N) matrix [x; beta].

        Built on the first one-row evaluation and kept: the greedy fit builds
        a surrogate per step and evaluates most of them only in batches.
        """
        x = np.asarray(self.centers, dtype=float)
        be = np.asarray(self.betas, dtype=float)
        return np.sum(x * x, axis=1), np.sum(be * x, axis=1), np.concatenate([x, be])

    def _expansion_at(self, y: np.ndarray):
        """Value and gradient of the Hermite expansion at the single point ``y``.

        The same sums as ``_apply_cached`` with m = 1, collapsed so that the
        gradient is ``scalar * y + coef @ [x; beta]``: one profile call on n
        squared distances and a dozen small vector operations, no pair tables.
        """
        sqnorms, offsets, stacked = self._center_terms
        n = sqnorms.size
        proj = stacked @ y                      # [<x_i, y>; <beta_i, y>]
        ip, bg = proj[:n], proj[n:]
        sq = sqnorms - 2.0 * ip
        sq += y @ y
        psi, dpsi, ddpsi = self._base.profile(sq)
        cg = offsets - bg                       # <x_i - y, beta_i>
        al = self.alphas
        # t: per center, half its coefficient of y in the gradient
        t = dpsi * al
        t += 2.0 * ddpsi * cg
        if not self._structured:
            value = psi @ al + 2.0 * (dpsi @ cg)
            coef = np.concatenate([-2.0 * t, -2.0 * dpsi])
        else:
            ip_psi = ip * psi
            ip_dpsi = ip * dpsi
            ip2_dpsi = ip * ip_dpsi
            t *= ip * ip
            t += 2.0 * ip_dpsi * bg
            value = ip_psi @ (al * ip + 2.0 * bg) + 2.0 * (ip2_dpsi @ cg)
            cx = al * ip_psi + psi * bg + 2.0 * ip_dpsi * cg - t
            coef = 2.0 * np.concatenate([cx, ip_psi - ip2_dpsi])
        grad = coef @ stacked
        grad += (2.0 * t.sum()) * y
        return float(value), grad

    def value_and_gradient(self, points):
        """Values (m,) and gradients (m, N) at ``points``; a single state
        takes the short path described in the module docstring."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.shape[0] == 1:
            y = points[0]
            val, grad = self._expansion_at(y)
            if self._structured:
                qy = y @ self.q_matrix
                yqy = float(qy @ y)
                if yqy < _TINY:
                    # at the origin the correction vanishes identically; pin the limit
                    return np.zeros(1), np.zeros_like(points)
                root = math.sqrt(yqy)
                h = root + val
                val = h * h
                grad += qy / root
                grad *= 2.0 * h
            return np.array([val]), grad[None, :]
        vals, grads = hermite_apply(self.kernel, self.centers, self.alphas, self.betas, points)
        if not self._structured:
            return vals, grads
        qm = self.q_matrix
        xqx = np.einsum("ij,jk,ik->i", points, qm, points)
        origin = xqx < _TINY
        root = np.sqrt(np.where(origin, 1.0, xqx))
        h = np.where(origin, 0.0, root) + vals
        value = h * h
        qgrad = np.where(origin[:, None], 0.0, (points @ qm) / root[:, None])
        gradient = 2.0 * h[:, None] * (qgrad + grads)
        # at the origin the correction vanishes identically; pin the limit
        gradient[origin] = 0.0
        value[origin] = 0.0
        return value, gradient

    def value(self, points):
        return self.value_and_gradient(points)[0]

    def gradient(self, points):
        return self.value_and_gradient(points)[1]


def quadratic_surrogate(q_matrix: np.ndarray) -> Surrogate:
    """The pure quadratic model x^T Q x as a structured surrogate with no centers.

    With no centers the kernel never enters an evaluation; its width is a
    placeholder.
    """
    qm = np.asarray(q_matrix, dtype=float)
    dim = qm.shape[0]
    return Surrogate(
        kernel=StructuredKernel(WendlandC4(dim=dim, gamma=1.0)),
        centers=np.zeros((0, dim)),
        alphas=np.zeros(0),
        betas=np.zeros((0, dim)),
        q_matrix=qm,
        meta={"baseline": "quadratic"},
    )


def save_surrogate(surrogate: Surrogate, path) -> None:
    doc = {
        "schema": SURROGATE_SCHEMA,
        "kernel": kernel_to_spec(surrogate.kernel),
        "variant": surrogate.variant,
        "centers": surrogate.centers.tolist(),
        "alphas": surrogate.alphas.tolist(),
        "betas": surrogate.betas.tolist(),
        "q_matrix": None if surrogate.q_matrix is None else np.asarray(surrogate.q_matrix).tolist(),
        "meta": surrogate.meta,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_surrogate(path) -> Surrogate:
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("schema") != SURROGATE_SCHEMA:
        raise ValueError(f"unsupported surrogate schema {doc.get('schema')!r}")
    dim = int(doc["kernel"]["dim"])
    centers = np.asarray(doc["centers"], dtype=float).reshape(-1, dim)
    surrogate = Surrogate(
        kernel=kernel_from_spec(doc["kernel"]),
        centers=centers,
        alphas=np.asarray(doc["alphas"], dtype=float),
        betas=np.asarray(doc["betas"], dtype=float).reshape(-1, dim),
        q_matrix=None if doc["q_matrix"] is None else np.asarray(doc["q_matrix"], dtype=float),
        meta=doc.get("meta", {}),
    )
    if doc.get("variant") != surrogate.variant:
        flag = doc["kernel"].get("structured")
        raise ValueError(f"surrogate variant {doc.get('variant')!r} disagrees with kernel structured = {flag!r}")
    return surrogate
