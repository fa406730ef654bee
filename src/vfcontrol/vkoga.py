"""Greedy center selection for Hermite surrogates.

Starting from an empty expansion, each iteration scans every candidate sample,
scores it by how badly the current surrogate reproduces its data,

    rho(x_j) = |v_j - s(x_j)| + ||grad v_j - grad s(x_j)||_2,

and promotes the worst sample to a center.  A sample closer than
``openloop.MIN_SPACING`` to a center is dropped from the selection instead:
such a pair makes the interpolation system singular to working precision
(the tails of different trajectories meet at the origin).  The run keeps one
Cholesky factor of the Hermite Gram matrix and extends it by the new center's
block, the Newton-basis update of VKOGA; each refit is a matrix-free CG solve
preconditioned with that factor, which converges in one iteration unless the
factor had to be floored.  The scan comes before the selection, so a
tolerance that is already met selects nothing.

Ties in the score break toward the lowest candidate index, which together
with the deterministic CG solve makes the whole selection reproducible.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .hermite import HermiteFactor, Surrogate, assemble_rhs, fit
from .kernels import StructuredKernel
from .openloop import MIN_SPACING

__all__ = [
    "VkogaConfig",
    "SelectionStep",
    "VkogaResult",
    "run_vkoga",
    "write_trace",
]


@dataclass(frozen=True)
class VkogaConfig:
    max_centers: int = 100
    eps_tol_f: float = 0.0
    cg_tol: float = 1e-10
    cg_max_iter: Optional[int] = None
    nugget: float = 0.0
    checkpoints: Sequence[int] = ()


@dataclass(frozen=True)
class SelectionStep:
    iteration: int
    index: int
    residual: float
    cg_iterations: int
    cg_residual: float
    floored: bool  # the factor's Schur block for this center needed the eigenvalue floor


@dataclass
class VkogaResult:
    surrogate: Surrogate
    steps: list[SelectionStep] = field(default_factory=list)
    final_residual: float = np.inf
    checkpoints: dict[int, Surrogate] = field(default_factory=dict)

    @property
    def selected_indices(self) -> list[int]:
        return [s.index for s in self.steps]

    @property
    def residual_history(self) -> np.ndarray:
        return np.array([s.residual for s in self.steps])


def _admissible(points, values, structured: bool) -> np.ndarray:
    """Candidates that can become centers.  The structured square-root data
    is undefined at the origin and for nonpositive values, so those samples
    stay in the scan but are never selected."""
    keep = np.isfinite(values) & np.all(np.isfinite(points), axis=1)
    if structured:
        keep &= values > 0.0
        keep &= np.sum(points * points, axis=1) > 0.0
    return keep


def run_vkoga(
    kernel,
    points,
    values,
    grads,
    config: VkogaConfig = VkogaConfig(),
    q_matrix=None,
) -> VkogaResult:
    """Select centers greedily and return the fitted surrogate with its trace."""
    points = np.asarray(points, dtype=float)
    values = np.asarray(values, dtype=float)
    grads = np.asarray(grads, dtype=float)
    m, dim = points.shape
    structured = isinstance(kernel, StructuredKernel)
    if structured and q_matrix is None:
        raise ValueError("structured selection needs the quadratic matrix")

    admissible = _admissible(points, values, structured)
    dropped = int(m - np.count_nonzero(admissible))
    if dropped:
        warnings.warn(f"{dropped} of {m} samples are not admissible as centers", stacklevel=2)

    surrogate = Surrogate(
        kernel=kernel,
        centers=np.zeros((0, dim)),
        alphas=np.zeros(0),
        betas=np.zeros((0, dim)),
        variant="structured" if structured else "plain",
        q_matrix=None if q_matrix is None else np.asarray(q_matrix, dtype=float),
    )
    result = VkogaResult(surrogate=surrogate)
    selected: list[int] = []
    selectable = admissible.copy()
    want_checkpoints = sorted(set(int(c) for c in config.checkpoints))
    factor = HermiteFactor(kernel, dim, config.nugget)

    while True:
        s_vals, s_grads = surrogate.value_and_gradient(points)
        rho = np.abs(values - s_vals) + np.linalg.norm(grads - s_grads, axis=1)
        result.final_residual = float(np.max(rho)) if m else 0.0
        scan = np.where(selectable, rho, -np.inf)
        if not np.any(selectable):
            break
        best = int(np.argmax(scan))
        best_rho = float(scan[best])
        if best_rho <= config.eps_tol_f or len(selected) >= config.max_centers:
            break
        selectable[best] = False
        if np.any(np.linalg.norm(surrogate.centers - points[best], axis=1) < MIN_SPACING):
            continue

        selected.append(best)
        centers = points[selected]
        rhs = assemble_rhs(
            values[selected],
            grads[selected],
            variant=surrogate.variant,
            q_matrix=surrogate.q_matrix,
            centers=centers if structured else None,
        )
        floored = factor.append(points[best])
        alphas, betas, info = fit(
            kernel,
            centers,
            rhs,
            cg_tol=config.cg_tol,
            max_iter=config.cg_max_iter,
            nugget=config.nugget,
            factor=factor,
        )
        surrogate = Surrogate(
            kernel=kernel,
            centers=centers.copy(),
            alphas=alphas,
            betas=betas,
            variant=surrogate.variant,
            q_matrix=surrogate.q_matrix,
            meta={"nugget": config.nugget, "cg_tol": config.cg_tol},
        )
        result.surrogate = surrogate
        result.steps.append(
            SelectionStep(
                iteration=len(selected),
                index=best,
                residual=best_rho,
                cg_iterations=info["iterations"],
                cg_residual=info["residual"],
                floored=floored,
            )
        )
        if len(selected) in want_checkpoints:
            result.checkpoints[len(selected)] = surrogate

    return result


def write_trace(result: VkogaResult, path) -> None:
    """Selection history as CSV: one row per added center."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "index", "residual", "cg_iterations", "cg_residual", "floored"])
        for step in result.steps:
            writer.writerow(
                [
                    step.iteration,
                    step.index,
                    f"{step.residual:.17g}",
                    step.cg_iterations,
                    f"{step.cg_residual:.17g}",
                    int(step.floored),
                ]
            )
