"""Control-affine models and the Pontryagin optimality system.

A model describes

    x' = f(x) + g(x) u,    cost integrand r(x) + u^T R u,

with f(0) = 0 and r >= 0, r(0) = 0, so the origin is the target equilibrium.
Derivative information enters the costate equation as transpose-Jacobian
actions, which keeps costate evaluations O(dim) for the grid-based problems.
The one assembled Jacobian is ``pmp_jacobian``, the derivative of the whole
optimality system that Newton collocation needs, which ``build_amp``,
``build_nhe`` and ``build_linear`` write in closed form.  Every map
broadcasts over leading batch axes with the state on the last axis.

Bundled models:

* ``amp``: a radially symmetric nonlinear problem with known value function
  v(x) = C (exp(||x||^2) - 1), C = beta (1 + sqrt(1 + alpha/beta)), used as
  the analytic yardstick for the whole pipeline.
* ``nhe``: a semilinear heat equation on the unit square, discretized by a
  5-point Neumann Laplacian on a cell-centered grid, with distributed control
  on a subdomain.
* ``lqr``: linear dynamics with quadratic cost, for closed-form sanity checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable, Optional

import numpy as np

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
    dim_control: int
    f: Callable
    g_apply: Callable          # (x, u) -> g(x) u
    gT_apply: Callable         # (x, p) -> g(x)^T p
    r: Callable
    grad_r: Callable
    jac_f_T_apply: Callable    # (x, p) -> J_f(x)^T p
    dgu_dx_T_apply: Callable   # (x, u, p) -> [d/dx (g(x) u)]^T p
    # z -> d pmp_rhs / dz, shape (..., 2n+1, 2n+1); the control weight R is
    # taken to be symmetric, as every cost weight is
    pmp_jacobian: Callable
    R: np.ndarray
    R_inv: np.ndarray
    lin_A: np.ndarray          # J_f(0)
    lin_B: np.ndarray          # g(0)
    cost_matrix: np.ndarray    # quadratic part of r at the origin
    # Overrides the Riccati route for the quadratic value model when the
    # linearization at 0 is degenerate (as for amp, where A = 0 and B = 0).
    quadratic_value_matrix: Optional[np.ndarray] = None
    params: dict = field(default_factory=dict)


def optimal_control(model: ControlAffineModel, x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Pointwise minimizer of the Hamiltonian: u = -1/2 R^{-1} g(x)^T p."""
    w = model.gT_apply(np.asarray(x, float), np.asarray(p, float))
    return -0.5 * w @ model.R_inv


def pmp_rhs(model: ControlAffineModel, z: np.ndarray) -> np.ndarray:
    """Right-hand side of the stacked optimality system z = [x; p; v].

    With u = -1/2 R^{-1} g(x)^T p,

        x' = f(x) + g(x) u,
        p' = -(J_f(x)^T p + [d/dx g(x)u]^T p + grad r(x)),
        v' = -(r(x) + u^T R u).
    """
    z = np.asarray(z, dtype=float)
    n = model.dim_state
    x = z[..., :n]
    p = z[..., n : 2 * n]
    u = optimal_control(model, x, p)
    dx = model.f(x) + model.g_apply(x, u)
    dp = -(model.jac_f_T_apply(x, p) + model.dgu_dx_T_apply(x, u, p) + model.grad_r(x))
    dv = -(model.r(x) + np.sum((u @ model.R) * u, axis=-1))
    return np.concatenate([dx, dp, dv[..., None]], axis=-1)


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
        return np.sum(x * x, axis=-1, keepdims=True)

    def f(x):
        return q(x) * x

    def g_apply(x, u):
        return np.exp(-0.5 * q(x)) * x * u

    def gT_apply(x, p):
        return np.exp(-0.5 * q(x)) * np.sum(x * p, axis=-1, keepdims=True)

    def r(x):
        qq = np.sum(x * x, axis=-1)
        return alpha * np.exp(qq) * qq * qq

    def grad_r(x):
        qq = q(x)
        return 2.0 * alpha * np.exp(qq) * qq * (qq + 2.0) * x

    def jac_f_T_apply(x, p):
        return q(x) * p + 2.0 * x * np.sum(x * p, axis=-1, keepdims=True)

    def dgu_dx_T_apply(x, u, p):
        # d/dx (e^{-q/2} x u) = u e^{-q/2} (I - x x^T); symmetric, so the
        # transpose action coincides.
        return u * np.exp(-0.5 * q(x)) * (p - x * np.sum(x * p, axis=-1, keepdims=True))

    def pmp_jacobian(z):
        # With s = x.p, kappa = e^{-q} / (2 beta), c = kappa s and
        # rho = 2 alpha e^q q (q + 2) = grad r / x, the system reads
        #   x' = (q - c) x,  p' = -((q - c) p + (2 + c) s x + rho x),
        #   v' = -(alpha e^q q^2 + c s / 2).
        x, p = z[..., :n], z[..., n : 2 * n]
        qq = q(x)[..., None]
        s = np.sum(x * p, axis=-1)[..., None, None]
        kappa = np.exp(-qq) / (2.0 * beta)
        c = kappa * s
        e_q = np.exp(qq)
        rho = 2.0 * alpha * e_q * qq * (qq + 2.0)
        drho = 2.0 * alpha * e_q * (qq * qq + 4.0 * qq + 2.0)
        xc, pc = x[..., :, None], p[..., :, None]
        xr, pr = x[..., None, :], p[..., None, :]
        dc_dx = kappa * (pr - 2.0 * s * xr)
        eye = np.eye(n)
        jac = np.zeros(z.shape[:-1] + (2 * n + 1, 2 * n + 1))
        jac[..., :n, :n] = (qq - c) * eye + xc * (2.0 * xr - dc_dx)
        jac[..., :n, n : 2 * n] = -kappa * xc * xr
        jac[..., n : 2 * n, :n] = -(
            pc * (2.0 * xr - dc_dx) + s * xc * dc_dx + (2.0 + c) * (xc * pr + s * eye) + rho * eye + 2.0 * drho * xc * xr
        )
        jac[..., n : 2 * n, n : 2 * n] = -((qq - c) * eye - kappa * pc * xr + (2.0 + 2.0 * c) * xc * xr)
        jac[..., 2 * n, :n] = -(rho * xr + c * (pr - s * xr))[..., 0, :]
        jac[..., 2 * n, n : 2 * n] = -(c * xr)[..., 0, :]
        return jac

    c = amp_value_factor(params)
    return ControlAffineModel(
        name="amp",
        dim_state=n,
        dim_control=1,
        f=f,
        g_apply=g_apply,
        gT_apply=gT_apply,
        r=r,
        grad_r=grad_r,
        jac_f_T_apply=jac_f_T_apply,
        dgu_dx_T_apply=dgu_dx_T_apply,
        pmp_jacobian=pmp_jacobian,
        R=np.array([[beta]]),
        R_inv=np.array([[1.0 / beta]]),
        lin_A=np.zeros((n, n)),
        lin_B=np.zeros((n, 1)),
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
    coords = nhe_node_coords(n_g)
    lo = np.asarray(params.control_low)
    hi = np.asarray(params.control_high)
    inside = np.all((coords >= lo - 1e-12) & (coords <= hi + 1e-12), axis=1)
    idx = np.flatnonzero(inside)
    b = np.zeros((n, idx.size))
    b[idx, np.arange(idx.size)] = 1.0
    return a, b


def build_nhe(params: NheParameters = NheParameters()) -> ControlAffineModel:
    """Semilinear heat model x' = A x + reaction * (x^2 - x^3) + B u, r = ||x||^2."""
    a, b = nhe_assemble(params)
    n = a.shape[0]
    m = b.shape[1]
    beta = params.reaction

    def f(x):
        return x @ a.T + beta * (x * x - x * x * x)

    def g_apply(x, u):
        return u @ b.T

    def gT_apply(x, p):
        return p @ b

    def r(x):
        return np.sum(x * x, axis=-1)

    def grad_r(x):
        return 2.0 * x

    def jac_f_T_apply(x, p):
        return p @ a + beta * (2.0 * x - 3.0 * x * x) * p

    def dgu_dx_T_apply(x, u, p):
        return np.zeros_like(x)

    penalty = params.control_penalty
    r_inv = (1.0 / penalty) * np.eye(m)
    gain = -0.5 * b @ r_inv @ b.T
    diag = np.arange(n)

    def pmp_jacobian(z):
        x, p = z[..., :n], z[..., n : 2 * n]
        reaction = beta * (2.0 * x - 3.0 * x * x)
        jac = np.zeros(z.shape[:-1] + (2 * n + 1, 2 * n + 1))
        jac[..., :n, :n] = a
        jac[..., diag, diag] += reaction
        jac[..., :n, n : 2 * n] = gain
        jac[..., n + diag, diag] = -(beta * (2.0 - 6.0 * x) * p + 2.0)
        jac[..., n : 2 * n, n : 2 * n] = -a.T
        jac[..., n + diag, n + diag] -= reaction
        jac[..., 2 * n, :n] = -2.0 * x
        jac[..., 2 * n, n : 2 * n] = p @ gain.T
        return jac

    return ControlAffineModel(
        name="nhe",
        dim_state=n,
        dim_control=m,
        f=f,
        g_apply=g_apply,
        gT_apply=gT_apply,
        r=r,
        grad_r=grad_r,
        jac_f_T_apply=jac_f_T_apply,
        dgu_dx_T_apply=dgu_dx_T_apply,
        pmp_jacobian=pmp_jacobian,
        R=penalty * np.eye(m),
        R_inv=r_inv,
        lin_A=a,
        lin_B=b,
        cost_matrix=np.eye(n),
        params={
            "grid_side": params.grid_side,
            "diffusivity": params.diffusivity,
            "reaction": params.reaction,
            "control_low": list(params.control_low),
            "control_high": list(params.control_high),
            "control_penalty": params.control_penalty,
        },
    )


# -- lqr: linear-quadratic sanity models -------------------------------------


def build_linear(
    a: np.ndarray,
    b: np.ndarray,
    cost_matrix: Optional[np.ndarray] = None,
    control_weight: Optional[np.ndarray] = None,
    name: str = "lqr",
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

    def grad_r(x):
        return 2.0 * x @ c

    def jac_f_T_apply(x, p):
        return p @ a

    def dgu_dx_T_apply(x, u, p):
        return np.zeros_like(x)

    r_inv = np.linalg.inv(rw)
    gain = -0.5 * b @ r_inv @ b.T

    def pmp_jacobian(z):
        x, p = z[..., :n], z[..., n : 2 * n]
        jac = np.zeros(z.shape[:-1] + (2 * n + 1, 2 * n + 1))
        jac[..., :n, :n] = a
        jac[..., :n, n : 2 * n] = gain
        jac[..., n : 2 * n, :n] = -2.0 * c.T
        jac[..., n : 2 * n, n : 2 * n] = -a.T
        jac[..., 2 * n, :n] = -(x @ (c + c.T))
        jac[..., 2 * n, n : 2 * n] = p @ gain.T
        return jac

    return ControlAffineModel(
        name=name,
        dim_state=n,
        dim_control=m,
        f=f,
        g_apply=g_apply,
        gT_apply=gT_apply,
        r=r,
        grad_r=grad_r,
        jac_f_T_apply=jac_f_T_apply,
        dgu_dx_T_apply=dgu_dx_T_apply,
        pmp_jacobian=pmp_jacobian,
        R=rw,
        R_inv=r_inv,
        lin_A=a,
        lin_B=b,
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
    if name == "amp":
        known = {f.name for f in fields(AmpParameters)}
    elif name == "nhe":
        known = {f.name for f in fields(NheParameters)}
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
    if name == "amp":
        return build_amp(AmpParameters(**params))
    if name == "nhe":
        return build_nhe(NheParameters(**params))
    return build_linear(
        params["A"],
        params["B"],
        cost_matrix=params.get("cost"),
        control_weight=params.get("R"),
    )
