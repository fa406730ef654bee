"""Control-affine models and the Pontryagin optimality system.

A model describes

    x' = f(x) + g(x) u,    cost integrand r(x) + u^T R u,

with f(0) = 0 and r >= 0, r(0) = 0, so the origin is the target equilibrium.
A model writes its Pontryagin optimality system in closed form: the
right-hand side ``optimality_rhs`` (see :func:`pmp_rhs`) and the Jacobian
``pmp_jacobian`` of its state and costate rows with respect to [x; p], which
Newton collocation factors, so terms the rows share are computed once.
``f``, ``g_apply``, ``gT_apply`` and ``r`` serve the closed loop and the HJB
residual.  Every map broadcasts over leading batch axes with the state on
the last axis.  A model declares its maps, R and the cost matrix; R^{-1},
A = J_f(0) (read off ``pmp_jacobian``), B = g(0) and the control dimension
are computed from them.

Bundled models:

* ``amp``: a radially symmetric nonlinear problem with known value function
  v(x) = C (exp(||x||^2) - 1), C = beta (1 + sqrt(1 + alpha/beta)), used as
  the analytic yardstick for the whole pipeline.
* ``nhe``: a semilinear heat equation on the unit square, discretized by a
  5-point Neumann Laplacian on a cell-centered grid, with distributed control
  on a subdomain; ``build_nhe`` is ``build_linear``'s heat model plus the
  reaction.
* ``lqr``: linear dynamics with quadratic cost, for closed-form sanity checks.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace
from functools import cached_property
from numbers import Integral
from typing import Callable, Optional

import numpy as np

from .numerics import require

__all__ = [
    "ControlAffineModel",
    "optimal_control",
    "pmp_rhs",
    "hjb_residual",
    "AmpParameters",
    "build_amp",
    "amp_value_factor",
    "amp_true_value",
    "amp_true_gradient",
    "NheParameters",
    "nhe_assemble",
    "nhe_node_coords",
    "build_nhe",
    "build_linear",
    "build_model",
]


@dataclass(eq=False)
class ControlAffineModel:
    name: str
    dim_state: int
    f: Callable
    g_apply: Callable          # (x, u) -> g(x) u
    gT_apply: Callable         # (x, p) -> g(x)^T p
    r: Callable
    optimality_rhs: Callable   # z = [x; p; v] -> [x'; p'; v'], see pmp_rhs
    # z -> d[x'; p'] / d[x; p], shape (..., 2n, 2n): no right-hand side reads
    # v, and Newton solves for [x; p] alone.  R is taken to be symmetric, as
    # every cost weight is: d x' / dp = -g R^{-1} g^T / 2 only then
    pmp_jacobian: Callable
    R: np.ndarray
    cost_matrix: np.ndarray    # quadratic part of r at the origin
    # Overrides the Riccati route for the quadratic value model when the
    # linearization at 0 is degenerate (as for amp, where A = 0 and B = 0).
    quadratic_value_matrix: Optional[np.ndarray] = None
    params: dict = field(default_factory=dict)

    @property
    def dim_control(self) -> int:
        return self.R.shape[0]

    # derived once, on first use

    @cached_property
    def R_inv(self) -> np.ndarray:
        return np.linalg.inv(self.R)

    @cached_property
    def lin_A(self) -> np.ndarray:
        """J_f(0), the state block of ``pmp_jacobian`` at the origin."""
        n = self.dim_state
        return self.pmp_jacobian(np.zeros(2 * n + 1))[:n, :n]

    @cached_property
    def lin_B(self) -> np.ndarray:
        """g(0): column j is g(0) e_j."""
        m = self.dim_control
        return self.g_apply(np.zeros((m, self.dim_state)), np.eye(m)).T.copy()


def optimal_control(model: ControlAffineModel, x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Pointwise minimizer of the Hamiltonian: u = -1/2 R^{-1} g(x)^T p."""
    w = model.gT_apply(np.asarray(x, float), np.asarray(p, float))
    return -0.5 * w @ model.R_inv


def pmp_rhs(model: ControlAffineModel, z: np.ndarray) -> np.ndarray:
    """Right-hand side of the stacked optimality system z = [x; p; v].

    With u = -1/2 R^{-1} g(x)^T p,

        x' = f(x) + g(x) u,
        p' = -(J_f(x)^T p + [d/dx g(x)u]^T p + grad r(x)),
        v' = -(r(x) + u^T R u),

    which the model writes in closed form as ``model.optimality_rhs``.
    """
    return model.optimality_rhs(np.asarray(z, dtype=float))


def hjb_residual(model: ControlAffineModel, x: np.ndarray, grad_v: np.ndarray) -> np.ndarray:
    """Residual of the stationary Hamilton-Jacobi-Bellman equation.

        grad_v . f - 1/4 grad_v^T g R^{-1} g^T grad_v + r
    """
    x = np.asarray(x, dtype=float)
    grad_v = np.asarray(grad_v, dtype=float)
    w = model.gT_apply(x, grad_v)
    quad = 0.25 * np.einsum("...i,ij,...j->...", w, model.R_inv, w)
    return np.einsum("...i,...i->...", grad_v, model.f(x)) - quad + model.r(x)


# -- amp: analytic nonlinear benchmark ---------------------------------------


@dataclass(frozen=True)
class AmpParameters:
    dim: int = 2
    alpha: float = 1.0e5
    beta: float = 1.0

    def __post_init__(self):
        _require(isinstance(self.dim, Integral) and self.dim >= 1, "dim", self.dim, "an integer at least 1")
        _require(self.alpha >= 0.0, "alpha", self.alpha, ">= 0")
        _require(self.beta > 0.0, "beta", self.beta, "> 0")


def _require(holds: bool, name: str, value, needs: str) -> None:
    require(holds, f"model parameter {name}", value, needs)


def amp_value_factor(params: AmpParameters) -> float:
    """C with v(x) = C (exp(||x||^2) - 1)."""
    return params.beta * (1.0 + np.sqrt(1.0 + params.alpha / params.beta))


def amp_true_value(params: AmpParameters, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    q = np.sum(x * x, axis=-1)
    return amp_value_factor(params) * (np.exp(q) - 1.0)


def amp_true_gradient(params: AmpParameters, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    q = np.sum(x * x, axis=-1, keepdims=True)
    return 2.0 * amp_value_factor(params) * np.exp(q) * x


def build_amp(params: AmpParameters = AmpParameters()) -> ControlAffineModel:
    """Dynamics x' = ||x||^2 x + exp(-||x||^2 / 2) x u with cost alpha e^{||x||^2} ||x||^4 + beta u^2."""
    n = params.dim
    alpha, beta = params.alpha, params.beta

    def q(x):
        return np.add.reduce(x * x, axis=-1, keepdims=True)

    def f(x):
        return q(x) * x

    def g_apply(x, u):
        return np.exp(-0.5 * q(x)) * x * u

    def gT_apply(x, p):
        return np.exp(-0.5 * q(x)) * np.add.reduce(x * p, axis=-1, keepdims=True)

    def r(x):
        qq = np.add.reduce(x * x, axis=-1)
        return alpha * np.exp(qq) * qq * qq

    def optimality_rhs(z):
        # With s = x.p, c = s / (2 beta e^q) = -g u / x and
        # rho = 2 alpha e^q q (q + 2) = grad r / x, the system reads
        #   x' = (q - c) x,  p' = -((q - c) p + ((2 + c) s + rho) x),
        #   v' = -(alpha e^q q^2 + c s / 2).
        x, p = z[..., :n], z[..., n : 2 * n]
        qq = q(x)
        s = np.add.reduce(x * p, axis=-1, keepdims=True)
        e_q = np.exp(qq)
        c = s / (2.0 * beta * e_q)
        rate = qq - c
        dp = -(rate * p + ((2.0 + c) * s + 2.0 * alpha * e_q * qq * (qq + 2.0)) * x)
        return np.concatenate([rate * x, dp, -(alpha * e_q * qq * qq + 0.5 * c * s)], axis=-1)

    def pmp_jacobian(z):
        # the derivative of optimality_rhs's x and p rows, with kappa = e^{-q} / (2 beta)
        x, p = z[..., :n], z[..., n : 2 * n]
        qq = q(x)[..., None]
        s = np.add.reduce(x * p, axis=-1)[..., None, None]
        kappa = np.exp(-qq) / (2.0 * beta)
        c = kappa * s
        e_q = np.exp(qq)
        rho = 2.0 * alpha * e_q * qq * (qq + 2.0)
        drho = 2.0 * alpha * e_q * (qq * qq + 4.0 * qq + 2.0)
        xc, pc = x[..., :, None], p[..., :, None]
        xr, pr = x[..., None, :], p[..., None, :]
        dc_dx = kappa * (pr - 2.0 * s * xr)
        eye = np.eye(n)
        jac = np.zeros(z.shape[:-1] + (2 * n, 2 * n))
        jac[..., :n, :n] = (qq - c) * eye + xc * (2.0 * xr - dc_dx)
        jac[..., :n, n : 2 * n] = -kappa * xc * xr
        jac[..., n : 2 * n, :n] = -(
            pc * (2.0 * xr - dc_dx) + s * xc * dc_dx + (2.0 + c) * (xc * pr + s * eye) + rho * eye + 2.0 * drho * xc * xr
        )
        jac[..., n : 2 * n, n : 2 * n] = -((qq - c) * eye - kappa * pc * xr + (2.0 + 2.0 * c) * xc * xr)
        return jac

    c = amp_value_factor(params)
    return ControlAffineModel(
        name="amp",
        dim_state=n,
        f=f,
        g_apply=g_apply,
        gT_apply=gT_apply,
        r=r,
        optimality_rhs=optimality_rhs,
        pmp_jacobian=pmp_jacobian,
        R=np.array([[beta]]),
        cost_matrix=np.zeros((n, n)),
        quadratic_value_matrix=2.0 * c * np.eye(n),
        params={"dim": n, "alpha": alpha, "beta": beta},
    )


# -- nhe: controlled semilinear heat equation --------------------------------


@dataclass(frozen=True)
class NheParameters:
    grid_side: int = 10
    diffusivity: float = 5.0
    reaction: float = 0.5
    control_low: tuple = (0.25, 0.25)
    control_high: tuple = (0.75, 0.75)
    control_penalty: float = 1.0e-3

    def __post_init__(self):
        side = self.grid_side
        _require(isinstance(side, Integral) and side >= 1, "grid_side", side, "an integer at least 1")
        _require(self.diffusivity > 0.0, "diffusivity", self.diffusivity, "> 0")
        _require(self.control_penalty > 0.0, "control_penalty", self.control_penalty, "> 0")
        box = (self.control_low, self.control_high)
        _require(_control_nodes(self).size > 0, "control_low, control_high", box, "a box holding a grid node")


def nhe_node_coords(grid_side: int) -> np.ndarray:
    """Cell-centered grid nodes of the unit square, row-major, shape (grid_side^2, 2)."""
    h = 1.0 / grid_side
    centers = (np.arange(grid_side) + 0.5) * h
    xi1, xi2 = np.meshgrid(centers, centers, indexing="ij")
    return np.column_stack([xi1.ravel(), xi2.ravel()])


def nhe_assemble(params: NheParameters):
    """Diffusion matrix and control injection matrix for the heat model.

    A is the 5-point Laplacian with homogeneous Neumann conditions imposed by
    ghost-node mirroring (so every row sums to zero), scaled by
    diffusivity / h^2 on the cell-centered grid with h = 1 / grid_side.
    B selects the nodes inside the closed control box, one column per node.
    """
    n_g = params.grid_side
    n = n_g * n_g
    h = 1.0 / n_g
    scale = params.diffusivity / (h * h)
    a = np.zeros((n, n))
    for i in range(n_g):
        for j in range(n_g):
            k = i * n_g + j
            for di, dj in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                ii, jj = i + di, j + dj
                if 0 <= ii < n_g and 0 <= jj < n_g:
                    a[k, ii * n_g + jj] += scale
                    a[k, k] -= scale
                # mirrored ghost nodes contribute x_k - x_k = 0
    idx = _control_nodes(params)
    b = np.zeros((n, idx.size))
    b[idx, np.arange(idx.size)] = 1.0
    return a, b


def _control_nodes(params: NheParameters) -> np.ndarray:
    """Indices of the grid nodes inside the closed control box."""
    coords = nhe_node_coords(params.grid_side)
    lo, hi = np.asarray(params.control_low), np.asarray(params.control_high)
    return np.flatnonzero(np.all((coords >= lo - 1e-12) & (coords <= hi + 1e-12), axis=1))


def build_nhe(params: NheParameters = NheParameters()) -> ControlAffineModel:
    """Semilinear heat model x' = A x + reaction * (x^2 - x^3) + B u, r = ||x||^2.

    The linear heat model of :func:`build_linear` plus the reaction term.
    """
    a, b = nhe_assemble(params)
    n, m = b.shape
    beta = params.reaction
    linear = build_linear(a, b, np.eye(n), params.control_penalty * np.eye(m))
    linear_jacobian = linear.pmp_jacobian
    diag = np.arange(n)

    def f(x):
        return x @ a.T + beta * (x * x - x * x * x)

    def r(x):
        return np.add.reduce(x * x, axis=-1)

    def costate_rate(x, p):
        return p @ a + beta * (2.0 * x - 3.0 * x * x) * p + 2.0 * x

    def pmp_jacobian(z):
        x, p = z[..., :n], z[..., n : 2 * n]
        reaction = beta * (2.0 * x - 3.0 * x * x)
        jac = linear_jacobian(z)
        jac[..., diag, diag] += reaction
        jac[..., n + diag, diag] -= beta * (2.0 - 6.0 * x) * p
        jac[..., n + diag, n + diag] -= reaction
        return jac

    return replace(
        linear,
        name="nhe",
        f=f,
        r=r,
        optimality_rhs=_fixed_input_rhs(b, linear.R, f, r, costate_rate),
        pmp_jacobian=pmp_jacobian,
        params={**asdict(params), "control_low": list(params.control_low), "control_high": list(params.control_high)},
    )


# -- lqr: linear-quadratic sanity models -------------------------------------


def _fixed_input_rhs(b, rw, f, r, costate_rate):
    """The optimality system of a model with g(x) = B, whose costate equation
    reads p' = -costate_rate(x, p) = -(J_f(x)^T p + grad r(x))."""
    n = b.shape[0]
    r_inv = np.linalg.inv(rw)

    def optimality_rhs(z):
        x, p = z[..., :n], z[..., n : 2 * n]
        u = -0.5 * (p @ b) @ r_inv
        dv = -(r(x) + np.add.reduce((u @ rw) * u, axis=-1))
        return np.concatenate([f(x) + u @ b.T, -costate_rate(x, p), dv[..., None]], axis=-1)

    return optimality_rhs


def build_linear(
    a: np.ndarray,
    b: np.ndarray,
    cost_matrix: Optional[np.ndarray] = None,
    control_weight: Optional[np.ndarray] = None,
) -> ControlAffineModel:
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.asarray(b, dtype=float)
    if b.ndim == 1:
        b = b[:, None]
    n, m = b.shape
    c = np.eye(n) if cost_matrix is None else np.atleast_2d(np.asarray(cost_matrix, float))
    rw = np.eye(m) if control_weight is None else np.atleast_2d(np.asarray(control_weight, float))

    def f(x):
        return x @ a.T

    def g_apply(x, u):
        return u @ b.T

    def gT_apply(x, p):
        return p @ b

    def r(x):
        return np.einsum("...i,ij,...j->...", x, c, x)

    def costate_rate(x, p):
        return p @ a + 2.0 * x @ c

    # the Jacobian does not depend on z
    const = np.block([[a, -0.5 * b @ np.linalg.inv(rw) @ b.T], [-2.0 * c.T, -a.T]])

    def pmp_jacobian(z):
        return np.broadcast_to(const, z.shape[:-1] + const.shape).copy()

    return ControlAffineModel(
        name="lqr",
        dim_state=n,
        f=f,
        g_apply=g_apply,
        gT_apply=gT_apply,
        r=r,
        optimality_rhs=_fixed_input_rhs(b, rw, f, r, costate_rate),
        pmp_jacobian=pmp_jacobian,
        R=rw,
        cost_matrix=c,
        params={"A": a.tolist(), "B": b.tolist(), "cost": c.tolist(), "R": rw.tolist()},
    )


def build_model(name: str, params: Optional[dict] = None) -> ControlAffineModel:
    """Construct a bundled model by registry name: "amp", "nhe" or "lqr".

    ``params`` holds fields of :class:`AmpParameters` or :class:`NheParameters`,
    or for ``lqr`` the matrices ``A`` and ``B`` with optional ``cost`` and
    ``R``.  A key the model does not know, or a missing lqr matrix, is a
    ValueError naming it.
    """
    params = dict(params or {})
    kinds = {"amp": (AmpParameters, build_amp), "nhe": (NheParameters, build_nhe)}
    if name in kinds:
        known = {f.name for f in fields(kinds[name][0])}
    elif name == "lqr":
        known = {"A", "B", "cost", "R"}
        missing = {"A", "B"} - set(params)
        if missing:
            raise ValueError(f"model.params for model 'lqr' needs {sorted(missing)}")
    else:
        raise ValueError(f"unknown model {name!r}; expected one of: amp, nhe, lqr")
    unknown = set(params) - known
    if unknown:
        raise ValueError(f"unknown model.params {sorted(unknown)} for model {name!r}")
    if name in kinds:
        kind, build = kinds[name]
        return build(kind(**params))
    return build_linear(params["A"], params["B"], cost_matrix=params.get("cost"), control_weight=params.get("R"))
