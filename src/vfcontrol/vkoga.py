"""Greedy center selection for Hermite surrogates.

Starting from an empty expansion, each iteration scans every candidate sample,
scores it by how badly the current surrogate reproduces its data,

    rho(x_j) = |v_j - s(x_j)| + ||grad v_j - grad s(x_j)||_2,

and promotes the worst sample to a center.  The run keeps one Cholesky
factor of the Hermite Gram matrix and extends it by the new center's block,
the Newton-basis update of VKOGA.  The factor is the only screen between
the raw samples and the centers: a sample that it turns away (a
near-duplicate of a center, or a numerically singular Schur block) is
dropped from the selection, so duplicates in the data cost a scan entry and
nothing else.  Each refit is a matrix-free CG solve
preconditioned with the factor, which converges in one iteration.  A refit
whose CG cannot reach ``cg_tol`` (a Schur block just above the factor's
floor can put it out of reach) turns its sample away too, with a warning
that names the sample and the residual CG reached; the factor and the
surrogate stay as they were.  The scan comes before the selection, so a
tolerance that is already met selects nothing.

A ``StructuredKernel`` needs ``q_matrix``, and only samples whose square-root
data ``assemble_rhs`` can build become its centers.  ``cg_tol`` bounds each
refit's true residual relative to the larger of the right-hand side and the
data ``assemble_rhs`` returns with it, which for the structured variant is
the square-root data: where the quadratic model is already exact, the
structured right-hand side is rounding noise.

Ties in the score break toward the lowest candidate index, which together
with the deterministic CG solve makes the whole selection reproducible.  The
tie rule holds up to rounding: the scan's matrix products round a row by
the shape of the batch it sits in, so an exact copy of a sample can score a
last bit above its original and be taken first.  The scan runs once at the
start and once after each accepted refit; a sample turned away leaves every
score as it was.
Every step records the surrogate it fitted, so one run to n centers also
holds the surrogate at each smaller count.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .hermite import FitError, HermiteFactor, Surrogate, assemble_rhs, fit, square_root_domain
from .numerics import require

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

    def __post_init__(self):
        require(self.max_centers >= 1, "max_centers", self.max_centers, "at least 1")
        require(self.eps_tol_f >= 0.0, "eps_tol_f", self.eps_tol_f, ">= 0")
        require(self.cg_tol > 0.0, "cg_tol", self.cg_tol, "> 0")
        require(self.cg_max_iter is None or self.cg_max_iter >= 1, "cg_max_iter", self.cg_max_iter, "None or at least 1")
        require(self.nugget >= 0.0, "nugget", self.nugget, ">= 0")


@dataclass(frozen=True)
class SelectionStep:
    iteration: int
    index: int
    residual: float
    cg_iterations: int
    cg_residual: float
    surrogate: Surrogate


@dataclass
class VkogaResult:
    surrogate: Surrogate
    steps: list[SelectionStep] = field(default_factory=list)
    final_residual: float = np.inf


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
    # the empty surrogate rejects a kernel and q_matrix that disagree
    surrogate = Surrogate(
        kernel=kernel,
        centers=np.zeros((0, dim)),
        alphas=np.zeros(0),
        betas=np.zeros((0, dim)),
        q_matrix=None if q_matrix is None else np.asarray(q_matrix, dtype=float),
    )
    qm = surrogate.q_matrix
    # samples that cannot become centers stay in the scan but are never selected
    selectable = np.isfinite(values) & np.all(np.isfinite(points), axis=1)
    if qm is not None:
        selectable &= square_root_domain(values, points, qm)[1]
    dropped = int(m - np.count_nonzero(selectable))
    if dropped:
        warnings.warn(f"{dropped} of {m} samples are not admissible as centers", stacklevel=2)
    result = VkogaResult(surrogate=surrogate)
    selected: list[int] = []
    factor = HermiteFactor(kernel, dim, config.nugget)

    rho = None
    while True:
        # the scores change only with the surrogate, i.e. after an accepted refit
        if rho is None:
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
        kept = factor.centers, factor.lower
        if not factor.append(points[best]):
            continue

        selected.append(best)
        centers = points[selected]
        rhs, data = assemble_rhs(values[selected], grads[selected], q_matrix=qm, centers=centers)
        cg_tol = config.cg_tol
        data_norm, rhs_norm = np.linalg.norm(data), np.linalg.norm(rhs)
        if data_norm > rhs_norm > 0.0:
            cg_tol *= data_norm / rhs_norm
        try:
            alphas, betas, info = fit(
                kernel,
                centers,
                rhs,
                cg_tol=cg_tol,
                max_iter=config.cg_max_iter,
                nugget=config.nugget,
                factor=factor,
            )
        except FitError as err:
            factor.centers, factor.lower = kept
            selected.pop()
            warnings.warn(f"sample {best} turned away: {err}", stacklevel=2)
            continue
        surrogate = Surrogate(
            kernel=kernel,
            centers=centers,
            alphas=alphas,
            betas=betas,
            q_matrix=qm,
            meta={"nugget": config.nugget, "cg_tol": config.cg_tol},
        )
        result.surrogate = surrogate
        rho = None
        result.steps.append(
            SelectionStep(
                iteration=len(selected),
                index=best,
                residual=best_rho,
                cg_iterations=info["iterations"],
                cg_residual=info["residual"],
                surrogate=surrogate,
            )
        )

    return result


def write_trace(result: VkogaResult, path) -> None:
    """Selection history as CSV: one row per added center."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "index", "residual", "cg_iterations", "cg_residual"])
        for step in result.steps:
            writer.writerow(
                [
                    step.iteration,
                    step.index,
                    f"{step.residual:.17g}",
                    step.cg_iterations,
                    f"{step.cg_residual:.17g}",
                ]
            )
