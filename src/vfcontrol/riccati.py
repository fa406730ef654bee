"""Quadratic value models from the linearization: v0(x) = x^T Q x.

Q is the stabilizing solution of the algebraic Riccati equation

    A^T Q + Q A - Q B R^{-1} B^T Q + C = 0.

The heavy lifting is delegated to scipy's Schur-based solver; we symmetrize
the result and verify the algebraic residual, since roundoff in the Schur
decomposition occasionally loses symmetry for badly scaled problems.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

__all__ = [
    "RiccatiError",
    "care_residual",
    "solve_are",
    "quadratic_matrix",
]

# bound on the algebraic residual of an accepted solution, relative to 1 + |Q|
RESIDUAL_TOL = 1e-9


class RiccatiError(RuntimeError):
    def __init__(self, message: str, q: np.ndarray, residual: float):
        super().__init__(message)
        self.q = q
        self.residual = residual


def care_residual(a, b, cost, rw, q) -> np.ndarray:
    """A^T Q + Q A - Q B R^{-1} B^T Q + C for a candidate Q."""
    s = b @ np.linalg.solve(rw, b.T)
    return a.T @ q + q @ a - q @ s @ q + cost


def solve_are(
    a: np.ndarray,
    b: np.ndarray,
    cost: np.ndarray,
    rw: np.ndarray,
) -> np.ndarray:
    """Stabilizing ARE solution, symmetrized and residual-checked.

    An algebraic residual above ``RESIDUAL_TOL * (1 + |Q|)`` raises
    :class:`RiccatiError` carrying the offending matrix.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.asarray(b, dtype=float)
    if b.ndim == 1:
        b = b[:, None]
    cost = np.atleast_2d(np.asarray(cost, dtype=float))
    rw = np.atleast_2d(np.asarray(rw, dtype=float))

    try:
        q = scipy.linalg.solve_continuous_are(a, b, cost, rw)
    except (np.linalg.LinAlgError, ValueError) as err:
        raise RiccatiError(f"Riccati solve failed: {err}", np.array([]), np.inf) from err
    q = 0.5 * (q + q.T)
    resid = float(np.max(np.abs(care_residual(a, b, cost, rw, q))))
    scale = 1.0 + float(np.max(np.abs(q)))
    if resid > RESIDUAL_TOL * scale:
        raise RiccatiError(
            f"Riccati residual {resid:.3e} exceeds {RESIDUAL_TOL:.1e} * {scale:.3e}", q, resid
        )
    return q


def quadratic_matrix(model) -> np.ndarray:
    """The model's quadratic value matrix: its declared override, else the ARE solution."""
    if model.quadratic_value_matrix is not None:
        return np.asarray(model.quadratic_value_matrix, dtype=float)
    return solve_are(model.lin_A, model.lin_B, model.cost_matrix, model.R)
