"""Workload definitions and one pass of the explore -> fit -> evaluate pipeline.

Everything here goes through the package's public library API, the same calls
as the README's "Using the library" section.  Calls are made through module
attributes (``explore.run_exploration``, ``vkoga.run_vkoga``, ...) so that the
traced run can rebind those names and record a span around each call.

The two workloads stress different layers:

* ``amp2d``: the analytic ``amp`` model (N = 2).  The greedy fit is the
  largest stage (tens of thousands of CG iterations), and every warm-started
  open-loop solve misses and falls back to a cold solve.  An optimisation of the
  Hermite matvec, CG or the greedy fit, or of the warm start, shows here.
* ``nhe36``: the reaction-diffusion ``nhe`` model on a 6 x 6 grid (N = 36).
  Open-loop Newton solves dominate, in exploration and in the reference
  solves of the evaluation (finite-difference Jacobians and ``splu``), every
  warm start succeeds, and the fit is a small share.  A Newton-step or
  Jacobian optimisation shows here; a fit-only change should barely move it.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, replace

import numpy as np

from vfcontrol import evaluate, explore, hermite, kernels, models, openloop, riccati, vkoga


@dataclass(frozen=True)
class Workload:
    model: str
    model_params: dict
    n_trajectories: int
    horizon: float
    solver: openloop.OpenLoopConfig
    gamma_plain: float
    gamma_structured: float
    fit: vkoga.VkogaConfig
    n_test: int
    eval_horizon: float


# amp.json solver settings; delta_tau one order below criterion 01's data
# tolerance, so sample accuracy is set by the tail closure, not the mesh
AMP_SOLVER = openloop.OpenLoopConfig(
    n_nodes=240, delta_tau=1e-5, refine_rounds=3, refine_tol=1e-8, samples=40
)
# nhe.json solver settings
NHE_SOLVER = openloop.OpenLoopConfig(n_nodes=80, delta_tau=1e-3, refine_rounds=1, refine_tol=1e-6)
NHE_FIT = dict(cg_tol=5e-8, nugget=1e-7, cg_max_iter=60000)

# Budgets are below the bundled configs' so that one pass takes 8-18 s on one
# core and a run of 45-65 s holds three to five passes: pass-to-pass times on a
# shared machine swing by 10-20%, and the mean over passes absorbs part of
# that.  Solver settings, kernel widths and tolerances are the bundled ones.
# nhe36 evaluates four test states: the cost of a plain-surrogate rollout
# varies by a factor of two between states, and with two states evaluate_s
# spread 0.13 over 20 seeds, against 0.06 with four.  amp2d evaluates the
# four states next to the corners of its box, where the closed-loop error is
# well conditioned: farther into the farthest-first order come states whose
# reference paths are short, and whose relative error reads 10-40 for the
# plain surrogate.
WORKLOADS = {
    "amp2d": Workload(
        model="amp",
        model_params={"dim": 2},
        n_trajectories=6,
        horizon=99.0,
        solver=AMP_SOLVER,
        gamma_plain=0.8,
        gamma_structured=1.0,
        fit=vkoga.VkogaConfig(max_centers=48, cg_tol=1e-9, nugget=1e-10),
        n_test=4,
        eval_horizon=20.0,
    ),
    "nhe36": Workload(
        model="nhe",
        model_params={"grid_side": 6},
        n_trajectories=6,
        horizon=3.0,
        solver=NHE_SOLVER,
        gamma_plain=0.02,
        gamma_structured=0.2,
        fit=vkoga.VkogaConfig(max_centers=18, **NHE_FIT),
        n_test=4,
        eval_horizon=3.0,
    ),
}

# Reduced budgets for the benchmark's own test: same models, solvers and
# gates, just small enough to run in seconds.
TINY = {
    "amp2d": dict(n_trajectories=4, fit=vkoga.VkogaConfig(max_centers=24, cg_tol=1e-9, nugget=1e-10), n_test=2),
    "nhe36": dict(n_trajectories=4, fit=vkoga.VkogaConfig(max_centers=8, **NHE_FIT), n_test=2),
}

AMP_BOX = [(-1.0, 1.0)] * 2
# The bundled amp config scrambles its candidate pool with seed 11 and its
# test pool with seed 77; workload seed 11 (the default) reproduces both.
AMP_TEST_SEED_OFFSET = 77 - 11
# nhe36 draws this many evaluation fields at random, then thins them
# farthest-first to the test size like the bundled configs' test sets, so
# every seed tests the most distinct fields of its draw
NHE_TEST_DRAW = 40


def workload(name: str, tiny: bool = False) -> Workload:
    w = WORKLOADS[name]
    return replace(w, **TINY[name]) if tiny else w


@dataclass
class Inputs:
    """Everything the pipeline consumes, built from the workload and the seed."""

    workload: Workload
    model: models.ControlAffineModel
    q_matrix: np.ndarray
    candidates: np.ndarray
    test_states: np.ndarray


def build_inputs(w: Workload, seed: int) -> Inputs:
    """Model, quadratic value matrix, candidate pool and held-out test states.

    ``amp2d``: the seed scrambles the Sobol candidate and test pools.
    ``nhe36``: the candidate pool is the fixed mode family; the seed draws the
    held-out test states at random from the evaluation mode family.
    """
    model = models.build_model(w.model, w.model_params)
    qm = riccati.quadratic_matrix(model)
    if w.model == "amp":
        candidates = explore.candidate_sobol(AMP_BOX, 512, seed=seed)
        pool = explore.candidate_sobol(AMP_BOX, 256, seed=seed + AMP_TEST_SEED_OFFSET)
        idx, _ = explore.farthest_point_order(pool, w.n_test)
        test_states = pool[idx]
    else:
        side = w.model_params["grid_side"]
        candidates = explore.candidate_modes(side)
        pool = explore.candidate_modes(side, amplitude_range=(-0.2, 0.45), n_amplitude=5)
        rng = np.random.default_rng(seed)
        pool = pool[np.sort(rng.choice(pool.shape[0], size=NHE_TEST_DRAW, replace=False))]
        idx, _ = explore.farthest_point_order(pool, w.n_test)
        test_states = pool[idx]
    return Inputs(w, model, qm, candidates, test_states)


@dataclass
class PassResult:
    """Outputs and wall times of one pipeline pass."""

    explore_s: float
    fit_s: float
    evaluate_s: float
    dataset: explore.Dataset
    plain: vkoga.VkogaResult
    structured: vkoga.VkogaResult
    references: list
    mrl2_plain: float
    mrl2_structured: float
    runs_plain: list
    runs_structured: list

    @property
    def pipeline_s(self) -> float:
        return self.explore_s + self.fit_s + self.evaluate_s


def run_pass(inputs: Inputs, boundary=None) -> PassResult:
    """Explore, fit both variants, solve the references and roll out both feedbacks.

    ``boundary()``, if given, runs before, between and after the three stages,
    outside the stage timers.
    """
    w, model, qm = inputs.workload, inputs.model, inputs.q_matrix
    dim = model.dim_state
    if boundary is not None:
        boundary()
    t0 = time.perf_counter()
    data = explore.run_exploration(
        model,
        inputs.candidates,
        qm,
        explore.ExploreConfig(n_trajectories=w.n_trajectories, horizon=w.horizon, solver=w.solver),
    )
    explore_s = time.perf_counter() - t0
    if boundary is not None:
        boundary()
    t0 = time.perf_counter()
    pts, vals, gds = data.flattened(include_origin=True)
    plain = vkoga.run_vkoga(kernels.WendlandC4(dim=dim, gamma=w.gamma_plain), pts, vals, gds, w.fit)
    pts_s, vals_s, gds_s = data.flattened()
    structured = vkoga.run_vkoga(
        kernels.StructuredKernel(kernels.WendlandC4(dim=dim, gamma=w.gamma_structured)),
        pts_s,
        vals_s,
        gds_s,
        w.fit,
        q_matrix=qm,
    )
    fit_s = time.perf_counter() - t0
    if boundary is not None:
        boundary()
    t0 = time.perf_counter()
    refs = explore.solve_testset(model, inputs.test_states, qm, w.solver)
    mrl2_p, runs_p = evaluate.evaluate_surrogate(model, plain.surrogate, refs, horizon=w.eval_horizon)
    mrl2_s, runs_s = evaluate.evaluate_surrogate(model, structured.surrogate, refs, horizon=w.eval_horizon)
    evaluate_s = time.perf_counter() - t0
    if boundary is not None:
        boundary()
    return PassResult(
        explore_s=explore_s,
        fit_s=fit_s,
        evaluate_s=evaluate_s,
        dataset=data,
        plain=plain,
        structured=structured,
        references=refs,
        mrl2_plain=mrl2_p,
        mrl2_structured=mrl2_s,
        runs_plain=runs_p,
        runs_structured=runs_s,
    )


def feedback_states(references, count: int) -> np.ndarray:
    """``count`` states spread evenly over the concatenated reference paths."""
    states = np.concatenate([np.asarray(ref.states) for ref in references])
    return states[np.linspace(0, states.shape[0] - 1, count).round().astype(int)]


# states evaluated untimed before a round of feedback timing, so that the
# first timings do not pay for refilling caches after other work
FEEDBACK_WARMUP = 50


def time_feedback(model, surrogate, states: np.ndarray) -> np.ndarray:
    """Wall time in ns of one feedback evaluation u(x) per state."""
    clock = time.perf_counter_ns
    control = models.optimal_control
    for x in states[:FEEDBACK_WARMUP]:
        control(model, x, surrogate.gradient(x[None, :])[0])
    out = np.empty(states.shape[0], dtype=np.int64)
    for k, x in enumerate(states):
        t0 = clock()
        control(model, x, surrogate.gradient(x[None, :])[0])
        out[k] = clock() - t0
    return out


def failure_counts(p: PassResult) -> tuple[int, int]:
    """(attempted, failed) over exploration solves, reference solves and rollouts.

    A reference solve that fails raises out of ``solve_testset`` and fails the
    run outright, so every reference counted here succeeded.  A rollout counts
    as failed when it escaped the radius or its integrator failed;
    ``ClosedLoopRun.escaped`` does not tell the two apart (the traced run does).
    """
    quarantined = len(p.dataset.meta["quarantined"])
    runs = p.runs_plain + p.runs_structured
    attempted = p.dataset.n_trajectories + quarantined + len(p.references) + len(runs)
    failed = quarantined + sum(bool(r.escaped) for r in runs)
    return attempted, failed


def digests(p: PassResult) -> dict:
    """SHA-256 of the dataset arrays, the reference solutions and the surrogate coefficients."""

    def digest(arrays) -> str:
        h = hashlib.sha256()
        for a in arrays:
            a = np.ascontiguousarray(a, dtype=float)
            h.update(str(a.shape).encode())
            h.update(a.tobytes())
        return h.hexdigest()[:16]

    traj = p.dataset.trajectories
    return {
        "dataset": digest([a for t in traj for a in (t.x0, t.times, t.states, t.grads, t.values)]),
        "references": digest([a for r in p.references for a in (r.taus, r.z)]),
        "plain": digest([p.plain.surrogate.centers, p.plain.surrogate.alphas, p.plain.surrogate.betas]),
        "structured": digest(
            [p.structured.surrogate.centers, p.structured.surrogate.alphas, p.structured.surrogate.betas]
        ),
    }


def accuracy_digits(references, runs, horizon: float) -> float:
    """Decimal digits to which the closed loop follows the optimal paths.

    The mean over test states of -log10 of each rollout's relative L2 error
    against its reference, the per-state term of MRL2.  MRL2, a mean of
    errors, moves several-fold with the data a seed draws; the mean of their
    logarithms moves by a fraction of that.
    """
    return float(np.mean([-np.log10(evaluate.mrl2_error([ref], [run], horizon=horizon))
                          for ref, run in zip(references, runs)]))


def baseline_mrl2(inputs: Inputs, references) -> float:
    """Closed-loop error of the quadratic value model x' Q x on the same references."""
    quad = hermite.quadratic_surrogate(inputs.q_matrix)
    mrl2, _ = evaluate.evaluate_surrogate(inputs.model, quad, references, horizon=inputs.workload.eval_horizon)
    return mrl2


def gate(inputs: Inputs, p: PassResult, mrl2_quadratic: float) -> list[str]:
    """Correctness checks on one pass; returns the failed checks, empty when all hold."""
    w = inputs.workload
    failures = []
    data = p.dataset
    if data.n_trajectories != w.n_trajectories or data.meta["quarantined"]:
        failures.append(
            f"explored {data.n_trajectories} of {w.n_trajectories} trajectories, "
            f"{len(data.meta['quarantined'])} quarantined"
        )

    sv0, sg0 = p.structured.surrogate.value_and_gradient(np.zeros((1, inputs.model.dim_state)))
    if not (sv0[0] == 0.0 and np.all(sg0[0] == 0.0)):
        failures.append(f"structured surrogate at the origin: s = {sv0[0]:.3e}, |grad s| = {np.abs(sg0).max():.3e}")

    if w.model == "amp":
        # criterion 01: every stored sample matches the analytic value function
        params = models.AmpParameters(**w.model_params)
        pts, vals, grads = data.flattened()
        ref_v = models.amp_true_value(params, pts)
        ref_g = models.amp_true_gradient(params, pts)
        err = (np.abs(vals - ref_v) + np.linalg.norm(grads - ref_g, axis=1)) / (
            1.0 + np.abs(ref_v) + np.linalg.norm(ref_g, axis=1)
        )
        if not float(np.max(err)) <= 1e-5:
            failures.append(f"amp samples deviate from the analytic value by {float(np.max(err)):.2e} (> 1e-05)")
        if not p.mrl2_plain < mrl2_quadratic:
            failures.append(f"plain MRL2 {p.mrl2_plain:.3e} is not below the baseline {mrl2_quadratic:.3e}")
    else:
        # criterion 09's data invariants; plain MRL2 needs 80 centers to beat
        # the baseline there, so only the structured variant is gated
        for t in data.trajectories:
            if np.any(np.diff(t.values) > 1e-9 * (1.0 + t.values[0])):
                failures.append("a trajectory's values are not monotone")
                break
        terminal = max((t.values[-1] / t.values[0] for t in data.trajectories), default=np.inf)
        if not terminal <= 1e-4:
            failures.append(f"worst terminal value ratio {terminal:.2e} (> 1e-04)")
    if not p.mrl2_structured < mrl2_quadratic:
        failures.append(
            f"structured MRL2 {p.mrl2_structured:.3e} is not below the baseline {mrl2_quadratic:.3e}"
        )
    return failures
