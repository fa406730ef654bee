"""Closed-loop evaluation of fitted value models.

A surrogate induces the feedback u(x) = -R^{-1} g(x)^T grad s(x) / 2.  Its
quality is measured by replaying the reference start states under that
feedback and comparing against the open-loop optimal paths on the reference
time grids:

    MRL2 = mean over references of sqrt( sum ||x_ref - x_fb||^2 / sum ||x_ref||^2 ).

Runs that blow up are stopped at an escape radius, and runs whose integrator
fails keep their path up to the last finite step; either is extended by its
last state, so an unstable feedback scores badly instead of crashing the study.
Cross-validation holds out whole trajectories (samples within one trajectory
are strongly correlated, so sample-level folds would flatter the fit).
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import asdict, dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .explore import Dataset
from .hermite import Surrogate, quadratic_surrogate, takes_origin_sample
from .models import ControlAffineModel, optimal_control
from .numerics import integrate_ivp
from .vkoga import VkogaConfig, run_vkoga

__all__ = [
    "ClosedLoopRun",
    "ROLLOUT_TOL",
    "SIMULATE_TOL",
    "simulate_feedback",
    "simulate_feedback_batch",
    "mrl2_error",
    "evaluate_surrogate",
    "FoldResult",
    "CvReport",
    "cross_validate",
    "save_cv_report",
    "center_curve",
    "write_curves",
]

CV_SCHEMA = "vfcontrol-cv-v1"


@dataclass
class ClosedLoopRun:
    """One closed-loop rollout: its accepted steps, dense output and cost.

    A run that escaped or failed ends early, on the escape radius or at the
    last finite step; ``states_at`` holds its last state past the end.
    """

    x0: np.ndarray
    times: np.ndarray
    states: np.ndarray
    cost: float
    # the run ended before the horizon, because the state left the radius or
    # because the integrator failed; integrator_failed tells the two apart
    escaped: bool
    # dense output of the run: at(times) gives (len(times), >= N) states
    interpolant: object
    integrator_failed: bool = False
    # counts of the LSODA integrations the rollout took part in; rollouts
    # integrated as one stacked system share them, so each run of a batch
    # reports the whole batch's calls up to where it ended
    rhs_evaluations: int = 0
    jacobian_evaluations: int = 0

    def states_at(self, times) -> np.ndarray:
        """States on an arbitrary grid through the dense output; past the end
        of the run the last state holds."""
        clipped = np.minimum(np.atleast_1d(np.asarray(times, dtype=float)), self.times[-1])
        return np.asarray(self.interpolant.at(clipped))[:, : self.states.shape[1]]


# Relative and absolute LSODA tolerances of evaluate_surrogate's rollouts.
# The benchmark reads MRL2 as accuracy digits (the mean of -log10 of each
# rollout's relative error) to four decimals, against references refined to
# a collocation defect of 1e-6 (nhe) or 1e-8 (amp).  On its 4 references per
# variant, at seeds 11 and 3 with both draws, rel 1e-7 took 21-24% of the
# rollouts' right-hand-side calls off rel 1e-8 on amp2d and 7-38% on nhe36,
# and moved the digits by at most 2.6e-5.  Rel 1e-6 took 39-53% off but
# moved nhe36's structured digits by 2.3-3.6e-4 on three of its four draws.
ROLLOUT_TOL = (1e-7, 1e-9)
# Relative and absolute LSODA tolerances of a single simulate_feedback
# rollout, tighter than ROLLOUT_TOL: it reports that run's cost to eight digits
SIMULATE_TOL = (1e-8, 1e-10)


def simulate_feedback(model: ControlAffineModel, surrogate: Surrogate, x0: np.ndarray, horizon: float) -> ClosedLoopRun:
    """Integrate the closed loop under the surrogate feedback, accumulating cost.

    The rollout of one start: :func:`simulate_feedback_batch` of one row, at
    :data:`SIMULATE_TOL`.
    """
    return simulate_feedback_batch(model, surrogate, np.asarray(x0, dtype=float)[None], horizon, *SIMULATE_TOL)[0]


def simulate_feedback_batch(
    model: ControlAffineModel,
    surrogate: Surrogate,
    starts: np.ndarray,
    horizon: float,
    rel_tol: float,
    abs_tol: float,
) -> list[ClosedLoopRun]:
    """Closed-loop rollouts from the rows of ``starts``, integrated together.

    The (k, N) starts, each with its cost as one more component, are one
    stacked LSODA system of :func:`~vfcontrol.numerics.integrate_ivp` at the
    tolerances ``rel_tol`` and ``abs_tol``, which switches to BDF when the
    loop is stiff.  A run stops once its state leaves the escape radius, or
    where its state turns non-finite or the integrator fails on it; either
    way it is ``escaped``, and ``integrator_failed`` marks the second case,
    whose run holds the path up to the last finite step.  The right-hand
    side evaluates every row in one surrogate call, and each stiff-mode
    Jacobian is one more batched call.
    A surrogate whose kernel does not have the model's state dimension is a
    ValueError.
    """
    starts = np.asarray(starts, dtype=float)
    n = model.dim_state
    if surrogate.kernel.dim != n:
        raise ValueError(f"the surrogate's kernel has dim {surrogate.kernel.dim}, but the model's state has dim {n}")

    def rhs(_t, y):
        x = y[..., :n]
        grad = surrogate.gradient(x.reshape(-1, n)).reshape(x.shape)
        u = optimal_control(model, x, grad)
        dx = model.f(x) + model.g_apply(x, u)
        dj = model.r(x) + np.einsum("...i,ij,...j->...", u, model.R, u)
        return np.concatenate([dx, dj[..., None]], axis=-1)

    y0 = np.concatenate([starts, np.zeros((starts.shape[0], 1))], axis=1)
    sols = integrate_ivp(rhs, y0, (0.0, float(horizon)), rel_tol=rel_tol, abs_tol=abs_tol, escape_dims=n)
    return [
        ClosedLoopRun(
            x0=x0,
            times=sol.times,
            states=sol.states[:, :n],
            cost=float(sol.states[-1, n]),
            escaped=sol.failure is not None or bool(sol.times[-1] < horizon),
            interpolant=sol,
            integrator_failed=sol.failure is not None,
            rhs_evaluations=sol.rhs_evaluations,
            jacobian_evaluations=sol.jacobian_evaluations,
        )
        for x0, sol in zip(starts, sols)
    ]


def mrl2_error(references: Sequence, runs: Sequence[ClosedLoopRun], horizon: Optional[float] = None) -> float:
    """Mean relative L2 trajectory error over reference/run pairs.

    Each reference needs ``times`` and ``states``; comparison happens on the
    reference grid (optionally truncated).  References that never leave the
    origin carry no scale and are skipped with a warning.  A ValueError says
    so when there are not as many runs as references.
    """
    if len(references) != len(runs):
        raise ValueError(f"{len(references)} references but {len(runs)} runs")
    ratios = []
    for ref, run in zip(references, runs):
        times = np.asarray(ref.times, dtype=float)
        states = np.asarray(ref.states, dtype=float)
        if horizon is not None:
            mask = times <= horizon
            times, states = times[mask], states[mask]
        denom = float(np.sum(states * states))
        if denom == 0.0:
            warnings.warn("reference trajectory is identically zero; skipped", stacklevel=2)
            continue
        sim = run.states_at(times)
        ratios.append(np.sqrt(float(np.sum((states - sim) ** 2)) / denom))
    if not ratios:
        return float("nan")
    return float(np.mean(ratios))


def evaluate_surrogate(
    model: ControlAffineModel,
    surrogate: Surrogate,
    references: Sequence,
    horizon: Optional[float] = None,
):
    """Closed-loop MRL2 of one surrogate against reference solutions.

    Each rollout starts from its reference's first state and is integrated
    to :data:`ROLLOUT_TOL`.  The rollouts that end at the same time are one
    :func:`simulate_feedback_batch`, so they share every LSODA step and
    each right-hand side is one surrogate call on all of them.
    """
    ends = [float(np.asarray(ref.times)[-1]) for ref in references]
    if horizon is not None:
        ends = [min(horizon, t) for t in ends]
    runs = [None] * len(references)
    for t_end in dict.fromkeys(ends):
        batch = [i for i, t in enumerate(ends) if t == t_end]
        starts = np.array([np.asarray(references[i].states[0], dtype=float) for i in batch])
        for i, run in zip(batch, simulate_feedback_batch(model, surrogate, starts, t_end, *ROLLOUT_TOL)):
            runs[i] = run
    return mrl2_error(references, runs, horizon=horizon), runs


@dataclass(frozen=True)
class FoldResult:
    fold: int
    n_train_trajectories: int
    n_test_samples: int
    n_centers: int
    max_residual: float
    mean_residual: float


@dataclass
class CvReport:
    folds: list[FoldResult] = field(default_factory=list)

    @property
    def max_residual(self) -> float:
        return max((f.max_residual for f in self.folds), default=float("nan"))

    @property
    def mean_residual(self) -> float:
        vals = [f.mean_residual for f in self.folds]
        return float(np.mean(vals)) if vals else float("nan")


def cross_validate(
    kernel,
    dataset: Dataset,
    config: VkogaConfig = VkogaConfig(),
    n_folds: int = 5,
    q_matrix=None,
) -> CvReport:
    """Hold out whole trajectories round-robin, refit, score held-out samples.
    Training folds get the origin sample if the kernel takes one."""
    n_traj = dataset.n_trajectories
    n_folds = min(n_folds, n_traj)
    if n_folds < 2:
        raise ValueError("cross-validation needs at least two trajectories")
    report = CvReport()
    for fold in range(n_folds):
        train = Dataset(
            dim=dataset.dim,
            trajectories=[t for i, t in enumerate(dataset.trajectories) if i % n_folds != fold],
        )
        test = [t for i, t in enumerate(dataset.trajectories) if i % n_folds == fold]
        pts, vals, gds = train.flattened(include_origin=takes_origin_sample(kernel))
        result = run_vkoga(kernel, pts, vals, gds, config=config, q_matrix=q_matrix)
        tp = np.concatenate([t.states for t in test])
        tv = np.concatenate([t.values for t in test])
        tg = np.concatenate([t.grads for t in test])
        sv, sg = result.surrogate.value_and_gradient(tp)
        rho = np.abs(tv - sv) + np.linalg.norm(tg - sg, axis=1)
        report.folds.append(
            FoldResult(
                fold=fold,
                n_train_trajectories=train.n_trajectories,
                n_test_samples=tp.shape[0],
                n_centers=result.surrogate.n_centers,
                max_residual=float(np.max(rho)),
                mean_residual=float(np.mean(rho)),
            )
        )
    return report


def save_cv_report(report: CvReport, path) -> None:
    summary = {"schema": CV_SCHEMA, "max_residual": report.max_residual, "mean_residual": report.mean_residual}
    doc = {**summary, **asdict(report)}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _surrogate_at(result, count: int):
    """The surrogate after ``count`` centers, or the final one if the greedy
    stopped before it had that many."""
    return result.steps[count - 1].surrogate if 0 < count <= len(result.steps) else result.surrogate


def center_curve(
    model: ControlAffineModel,
    dataset: Dataset,
    kernel_plain,
    kernel_structured,
    q_matrix,
    counts: Sequence[int],
    references: Sequence,
    config: VkogaConfig = VkogaConfig(),
    horizon: Optional[float] = None,
):
    """MRL2 versus center count for both surrogate variants and the quadratic baseline."""
    counts = sorted(set(int(c) for c in counts))
    cfg = replace(config, max_centers=max(counts))
    pts, vals, gds = dataset.flattened(include_origin=takes_origin_sample(kernel_plain))
    plain = run_vkoga(kernel_plain, pts, vals, gds, config=cfg)
    pts_s, vals_s, gds_s = dataset.flattened(include_origin=takes_origin_sample(kernel_structured))
    structured = run_vkoga(kernel_structured, pts_s, vals_s, gds_s, config=cfg, q_matrix=q_matrix)

    quad = quadratic_surrogate(q_matrix)
    mrl2_quad, _ = evaluate_surrogate(model, quad, references, horizon=horizon)

    rows = []
    for count in counts:
        sp = _surrogate_at(plain, count)
        ss = _surrogate_at(structured, count)
        mrl2_p, _ = evaluate_surrogate(model, sp, references, horizon=horizon)
        mrl2_s, _ = evaluate_surrogate(model, ss, references, horizon=horizon)
        rows.append(
            {
                "n_centers": count,
                "mrl2_plain": mrl2_p,
                "mrl2_structured": mrl2_s,
                "mrl2_quadratic": mrl2_quad,
            }
        )
    return rows


def write_curves(rows, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["n_centers", "mrl2_plain", "mrl2_structured", "mrl2_quadratic"])
        writer.writeheader()
        for row in rows:
            writer.writerow(
                {
                    "n_centers": row["n_centers"],
                    "mrl2_plain": f"{row['mrl2_plain']:.17g}",
                    "mrl2_structured": f"{row['mrl2_structured']:.17g}",
                    "mrl2_quadratic": f"{row['mrl2_quadratic']:.17g}",
                }
            )
