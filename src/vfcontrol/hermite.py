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

One function, ``_expand``, evaluates the expansion for both kernels and
every caller: the greedy scan, cross-validation and every structured
evaluation (``Surrogate.value_and_gradient``), the Gram matvec, which is the
expansion at the centers themselves (``HermiteOperator``), and a plain
``Surrogate.gradient``, which the feedback, a rollout's right-hand sides and
LSODA's Jacobians call.  That last one hands ``_expand`` only the profile's
slopes (``WendlandC4.slopes``): a gradient never reads psi, so it skips psi
and the value and keeps the bits of ``value_and_gradient``.  The tables come
from ``_geometry``, which puts the centers on the last axis, so one state
(N,) and a batch (m, N) run the same code: <x_i, y> and <beta_i, y> from one
product y @ [x; beta]^T, one profile call on ||x_i||^2 - 2 <x_i, y> + ||y||^2,
and the gradient collapsed to 2 (sum_i t_i y + h @ [x; beta]), one matrix
product however many points there are.  A surrogate keeps its center-only
terms (||x_i||^2, <beta_i, x_i>, [x; beta]); the operator keeps <x_i, x_j>
and the profile tables, which CG reuses on every matvec.  A row still need
not round as the same row of a batch does: BLAS rounds a product by its
shape.

The structured variant replaces k by <x, y>^2 k(x, y) and represents the
value as a square:

    s(x) = ( sqrt(x^T Q x) + correction(x) )^2,

fit through the linearized right-hand side of ``assemble_rhs``; it vanishes
with vanishing gradient at the origin and is nonnegative by construction.
``Surrogate.value_and_gradient`` forms the square twice: on scalars for one
state and vectorized for a batch, which reads x^T Q x and Q x from one
product and pins the rows below the smallest normal number to the origin.
The vectorized form costs a single state too much: at N = 36 with 18
centers it took about 11 us against about 5 us for the scalar form, next to
about 33 us for the whole one-state expansion (lower deciles of per-call
timings on a 2-core shared host, numpy 2.4).
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
from .numerics import CgError, cg_solve, read_artifact

__all__ = [
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
# 2 as a 0-d array, the faster scalar operand (see ``kernels._ZERO``)
_TWO = np.array(2.0)


class FitError(RuntimeError):
    pass


def _base_kernel(kernel):
    return kernel.base if isinstance(kernel, StructuredKernel) else kernel


def _center_terms(centers, betas):
    """||x_i||^2, <beta_i, x_i> and the stacked (2n, N) matrix [x; beta]."""
    x = np.asarray(centers, dtype=float)
    be = np.asarray(betas, dtype=float)
    return (x * x).sum(axis=1), (be * x).sum(axis=1), np.concatenate([x, be])


def _geometry(profile, sqnorms, stacked, y):
    """The tables of the expansion at ``y``, (N,) or (m, N), with the n
    centers on the last axis: every table has shape (..., n).

    Returns <x_i, y> and <beta_i, y>, both from the one product
    y @ [x; beta]^T (``stacked`` may be x alone; the second table is then
    empty), and ``profile`` (a base kernel's ``profile``, or its ``slopes``)
    at ||x_i - y||^2 = ||x_i||^2 - 2 <x_i, y> + ||y||^2.
    """
    n = sqnorms.shape[0]
    proj = y @ stacked.T
    ip = proj[..., :n]
    sq = sqnorms - _TWO * ip
    sq += np.add.reduce(y * y, axis=-1, keepdims=True)
    return ip, proj[..., n:], profile(sq)


def _expand(structured, alphas, offsets, stacked, y, ip, bg, profile):
    """Values (...) and gradients (..., N) at ``y`` of the expansion with
    coefficients ``alphas`` and the betas in ``stacked`` = [x; beta], whose
    <beta_i, x_i> are ``offsets``, from the tables of ``_geometry``.

    The gradient is collapsed to 2 (sum_i t_i y + h @ [x; beta]): t and h
    are elementwise in the tables, so the contraction over the centers is
    one matrix product for one state or for m of them.  A plain expansion
    given only the slopes (psi', psi'') skips its value, which is then None;
    its gradient does not read psi, so it keeps its bits.
    """
    psi, dpsi, ddpsi = profile if len(profile) == 3 else (None, *profile)
    al = alphas
    n = dpsi.shape[-1]
    cg = offsets - bg
    cg *= _TWO                              # 2 <x_i - y, beta_i>
    # t: per center, half its coefficient of y in the gradient
    t = ddpsi * cg
    # h: half the coefficients of [x; beta], written in place of a concatenate
    h = np.empty(dpsi.shape[:-1] + (2 * n,))
    hx, hb = h[..., :n], h[..., n:]
    if not structured:
        t += dpsi * al
        value = None if psi is None else psi @ al + np.add.reduce(dpsi * cg, axis=-1)
        np.negative(t, out=hx)
        np.negative(dpsi, out=hb)
    else:
        # with s = <x_i, y> and b = <beta_i, y>: cx = psi (alpha s + b) + s psi' cg
        # (built in hx), the value sum_i s (cx + psi b),
        # t = s (s psi'' cg + psi' (alpha s + 2 b)) and h = [cx - t, s (psi - s psi')]
        s_dpsi = ip * dpsi
        u = al * ip
        u += bg
        np.multiply(u, psi, out=hx)
        hx += s_dpsi * cg
        value = psi * bg
        value += hx
        value *= ip
        value = np.add.reduce(value, axis=-1)
        t *= ip
        u += bg
        u *= dpsi
        t += u
        t *= ip
        hx -= t
        np.subtract(psi, s_dpsi, out=hb)
        hb *= ip
    grad = h @ stacked
    grad += np.add.reduce(t, axis=-1, keepdims=True) * y
    grad *= _TWO
    return value, grad


class HermiteOperator:
    """The Gram matvec bound to a fixed center set.

    Building the operator evaluates <x_i, x_j> and the pairwise kernel
    profiles once; each :meth:`matvec` afterwards is ``_expand`` at the
    centers, which is what a Krylov loop should pay per iteration.
    """

    def __init__(self, kernel, centers):
        self.centers = np.asarray(centers, dtype=float)
        self.n, self.dim = self.centers.shape
        self.kernel = kernel
        x = self.centers
        self._ip, _, self._profile = _geometry(_base_kernel(kernel).profile, (x * x).sum(axis=1), x, x)

    @property
    def size(self) -> int:
        return self.n * (1 + self.dim)

    def matvec(self, stacked: np.ndarray) -> np.ndarray:
        alphas, betas = unstack_coeffs(stacked, self.n, self.dim)
        x = self.centers
        _, offsets, both = _center_terms(x, betas)
        structured = isinstance(self.kernel, StructuredKernel)
        vals, grads = _expand(structured, alphas, offsets, both, x, self._ip, x @ betas.T, self._profile)
        return stack_coeffs(vals, grads)


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
    beta.  These are the entries ``_expand`` contracts, written out from the
    tables of ``_geometry``.
    """
    x = np.asarray(center, dtype=float)
    y = np.asarray(points, dtype=float)
    ip, _, profile = _geometry(_base_kernel(kernel).profile, np.array([x @ x]), x[None, :], y)
    ip = ip[:, 0]
    psi, dpsi, ddpsi = (table[:, 0] for table in profile)
    m, dim = y.shape
    d = y - x                           # y_j - x
    eye = np.eye(dim)
    out = np.empty((m, 1 + dim, 1 + dim))
    if not isinstance(kernel, StructuredKernel):
        out[:, 0, 0] = psi
        out[:, 0, 1:] = -2.0 * dpsi[:, None] * d
        out[:, 1:, 0] = 2.0 * dpsi[:, None] * d
        out[:, 1:, 1:] = -2.0 * dpsi[:, None, None] * eye
        out[:, 1:, 1:] -= 4.0 * ddpsi[:, None, None] * (d[:, :, None] * d[:, None, :])
        return out
    ip2 = ip * ip
    ip_psi, ip2_psi = ip * psi, ip2 * psi
    ip_dpsi, ip2_dpsi, ip2_ddpsi = ip * dpsi, ip2 * dpsi, ip2 * ddpsi
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

    def __init__(self, kernel, nugget: float = 0.0):
        self.kernel = kernel
        self.dim = kernel.dim
        self.nugget = nugget
        self.centers = np.zeros((0, self.dim))
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


def fit(factor: HermiteFactor, rhs: np.ndarray, cg_tol: float = 1e-10, max_iter: Optional[int] = None):
    """Solve the interpolation system on ``factor``'s centers, kernel and
    nugget by CG preconditioned with the factor.

    CG runs on the matrix-free operator and stops once its true residual is
    below ``cg_tol`` relative to ``rhs``; a CG that stalls is a
    :class:`FitError`.  Returns ``(alphas, betas, info)`` where info records
    iterations, the final relative residual and the nugget.
    """
    nugget = factor.nugget
    bound = HermiteOperator(factor.kernel, factor.centers)

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
    alphas, betas = unstack_coeffs(res.x, factor.n, factor.dim)
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
        n, dim = len(self.alphas), self.kernel.dim
        shapes = {"centers": (n, dim), "alphas": (n,), "betas": (n, dim)}
        if structured:
            shapes["q_matrix"] = (dim, dim)
        for name, shape in shapes.items():
            got = np.shape(getattr(self, name))
            if got != shape:
                raise ValueError(f"surrogate {name} has shape {got}, but {n} alphas and a kernel of dim {dim} need {shape}")
        # resolved once: the feedback reads these on every call
        object.__setattr__(self, "_structured", structured)
        object.__setattr__(self, "_base", _base_kernel(self.kernel))

    @property
    def variant(self) -> str:
        return "structured" if self._structured else "plain"

    @property
    def n_centers(self) -> int:
        return self.centers.shape[0]

    @cached_property
    def _center_terms(self):
        """``_center_terms`` of this surrogate, built on its first evaluation
        and kept (no code mutates a surrogate's arrays)."""
        return _center_terms(self.centers, self.betas)

    def value_and_gradient(self, points, *, _with_value=True):
        """Values (m,) and gradients (m, N) at ``points``.

        One state runs the expansion on its 1-D row and the structured
        square on scalars; a batch runs both vectorized (see the module
        docstring).  :meth:`gradient` passes ``_with_value=False``: the
        structured square then skips its value, which is None.
        """
        points = np.asarray(points, dtype=float)
        y, vals, grads = self._expansion(points, self._base.profile)
        if not self._structured:
            return (np.array([vals]), grads[None, :]) if y.ndim == 1 else (vals, grads)
        if y.ndim == 1:
            qy = y @ self.q_matrix
            yqy = float(qy @ y)
            if yqy < _TINY:
                # at the origin the correction vanishes identically; pin the limit
                return np.zeros(1), np.zeros((1, y.size))
            root = math.sqrt(yqy)
            h = root + vals
            qy /= root
            grads += qy
            grads *= 2.0 * h
            return (np.array([h * h]) if _with_value else None), grads[None, :]
        # x^T Q x from one product; a row below _TINY is the origin, whose
        # root is floored there so that no row divides by zero
        gradient = points @ self.q_matrix
        xqx = np.add.reduce(gradient * points, axis=-1)
        origin = xqx < _TINY
        root = np.maximum(xqx, _TINY)
        np.sqrt(root, out=root)
        h = root + vals
        gradient /= root[:, None]
        gradient += grads
        gradient *= (h + h)[:, None]
        # at the origin the correction vanishes identically; pin the limit
        gradient[origin] = 0.0
        if not _with_value:
            return None, gradient
        value = h * h
        value[origin] = 0.0
        return value, gradient

    def _expansion(self, points, profile):
        """``(y, values, gradients)`` of the expansion at ``points`` from the
        ``profile`` tables (see ``_geometry``), on ``y``: one state runs on
        its 1-D row."""
        y = points[0] if points.ndim == 2 and points.shape[0] == 1 else points
        sqnorms, offsets, stacked = self._center_terms
        tables = _geometry(profile, sqnorms, stacked, y)
        return y, *_expand(self._structured, self.alphas, offsets, stacked, y, *tables)

    def value(self, points):
        return self.value_and_gradient(points)[0]

    def gradient(self, points):
        """Gradients (m, N) at ``points``, bit for bit those of
        :meth:`value_and_gradient`.  A plain surrogate reads only the
        profile's slopes and skips the value; a structured one needs the
        correction's value for its square, but not the square's."""
        points = np.asarray(points, dtype=float)
        if self._structured:
            return self.value_and_gradient(points, _with_value=False)[1]
        y, _, grads = self._expansion(points, self._base.slopes)
        return grads[None, :] if y.ndim == 1 else grads


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
    """The surrogate saved at ``path``; a file that is not a surrogate, or a
    key it lacks, is a ValueError naming the file and the schema or the key."""
    doc = read_artifact(path, "surrogate", SURROGATE_SCHEMA)
    try:
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
    except KeyError as err:
        raise ValueError(f"surrogate {path} has no key {err.args[0]!r}") from None
    if doc.get("variant") != surrogate.variant:
        flag = doc["kernel"].get("structured")
        raise ValueError(f"surrogate variant {doc.get('variant')!r} disagrees with kernel structured = {flag!r}")
    return surrogate
