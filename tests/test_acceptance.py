"""End-to-end acceptance checks for the whole pipeline.

Each test prints one PASS/FAIL line through ``record_acceptance`` so the run
summary shows every criterion at a glance.  The numbered order follows the
pipeline: data generation quality, solver invariants, matrix-free algebra,
greedy fitting, closed-loop control, and the convergence trend.

These tests rebuild their data from scratch and take a few minutes combined.
The full-scale run (criterion 7) multiplies that severalfold and only runs
when VFCONTROL_FULL_SCALE=1 is set.
"""

import os
import time

import numpy as np
import pytest
import scipy.linalg

from conftest import record_acceptance
from helpers import (
    amp_closed_loop,
    c_max_value,
    dense_hermite_matrix,
    final_state,
    lattice_centers,
    prefix,
    relative_l2,
    selected_indices,
)
from vfcontrol.evaluate import cross_validate, evaluate_surrogate, mrl2_error, simulate_feedback
from vfcontrol.explore import (
    ExploreConfig,
    candidate_grid,
    candidate_modes,
    candidate_sobol,
    farthest_point_order,
    run_exploration,
    solve_testset,
)
from vfcontrol.hermite import (
    FitError,
    HermiteOperator,
    Surrogate,
    assemble_rhs,
    fit,
    quadratic_surrogate,
    stack_coeffs,
    unstack_coeffs,
)
from vfcontrol.kernels import StructuredKernel, WendlandC4
from vfcontrol.models import (
    AmpParameters,
    amp_true_gradient,
    amp_true_value,
    build_amp,
    build_linear,
    build_model,
    hjb_residual,
    optimal_control,
)
from vfcontrol.openloop import OpenLoopConfig, solve_open_loop
from vfcontrol.riccati import quadratic_matrix
from vfcontrol.vkoga import VkogaConfig, run_vkoga

AMP_BOX = [(-1.0, 1.0)] * 2
# delta_tau sets the infinite-tail truncation; its closure error, not the mesh,
# floors the gradient accuracy of stored samples, so it sits one order below
# the data-quality tolerance of criterion 1
AMP_SOLVER = OpenLoopConfig(n_nodes=240, delta_tau=1e-5, refine_rounds=3, refine_tol=1e-8, samples=40)


@pytest.fixture(scope="module")
def amp():
    model = build_amp()
    return model, quadratic_matrix(model)


@pytest.fixture(scope="module")
def amp_data80(amp):
    model, qm = amp
    candidates = candidate_sobol(AMP_BOX, 512, seed=11)
    config = ExploreConfig(n_trajectories=80, horizon=99.0, hjb_tol=1e-6, solver=AMP_SOLVER)
    return run_exploration(model, candidates, qm, config)


@pytest.fixture(scope="module")
def amp_data40(amp_data80):
    return prefix(amp_data80, 40)


@pytest.fixture(scope="module")
def amp_test_states():
    pool = candidate_sobol(AMP_BOX, 256, seed=77)
    idx, _ = farthest_point_order(pool, 5)
    return pool[idx]


@pytest.fixture(scope="module")
def amp_refs(amp_test_states):
    return [amp_closed_loop(x0, horizon=20.0) for x0 in amp_test_states]


def test_criterion_01_amp_data_matches_the_analytic_value(amp_data40):
    """Every stored (v, grad v) sample agrees with the closed-form value."""
    params = AmpParameters()
    pts, vals, grads = amp_data40.flattened()
    ref_v = amp_true_value(params, pts)
    ref_g = amp_true_gradient(params, pts)
    err = (np.abs(vals - ref_v) + np.linalg.norm(grads - ref_g, axis=1)) / (
        1.0 + np.abs(ref_v) + np.linalg.norm(ref_g, axis=1)
    )
    worst = float(np.max(err))
    ok = amp_data40.n_trajectories == 40 and worst <= 1e-5
    record_acceptance(
        f"ACCEPTANCE 01 {'PASS' if ok else 'FAIL'}: 40-trajectory data vs analytic value, "
        f"worst relative error {worst:.2e} (tolerance 1e-05)"
    )
    assert ok


def test_criterion_02_hjb_residual_bound_holds(amp, amp_data40):
    """|H| <= 1e-6 (1 + r(x)) along every kept trajectory, and nothing was
    quarantined, for the benchmark model and the scalar sanity model."""
    model, _ = amp
    worst = 0.0
    for data, mdl in ((amp_data40, model),):
        pts, _, grads = data.flattened()
        ratio = np.abs(hjb_residual(mdl, pts, grads)) / (1e-6 * (1.0 + mdl.r(pts)))
        worst = max(worst, float(np.max(ratio)))
    lqr = build_linear([[-1.0]], [[1.0]])
    lqr_qm = quadratic_matrix(lqr)
    lqr_data = run_exploration(
        lqr,
        np.linspace(-1.0, 1.0, 9)[:, None],
        lqr_qm,
        ExploreConfig(n_trajectories=6, hjb_tol=1e-6, solver=OpenLoopConfig(n_nodes=120, refine_rounds=1)),
    )
    pts, _, grads = lqr_data.flattened()
    ratio = np.abs(hjb_residual(lqr, pts, grads)) / (1e-6 * (1.0 + lqr.r(pts)))
    worst = max(worst, float(np.max(ratio)))
    clean = not amp_data40.meta["quarantined"] and not lqr_data.meta["quarantined"]
    ok = worst <= 1.0 and clean
    record_acceptance(
        f"ACCEPTANCE 02 {'PASS' if ok else 'FAIL'}: residual bound used {worst:.2f} of its budget, "
        f"quarantine lists empty: {clean}"
    )
    assert ok


def test_criterion_03_matrix_free_equals_dense():
    rng = np.random.default_rng(11)
    worst_mv = 0.0
    worst_fit = 0.0
    for trial in range(25):
        n = int(rng.integers(1, 6))
        dim = int(rng.integers(1, 4))
        gamma = float(rng.uniform(0.3, 0.8))
        structured = trial % 2 == 1
        base = WendlandC4(dim=dim, gamma=gamma)
        kern = StructuredKernel(base) if structured else base
        centers = lattice_centers(rng, n, dim, avoid_origin=structured)
        n = centers.shape[0]
        m = dense_hermite_matrix(kern, centers)
        vec = rng.normal(size=m.shape[0])
        mv = m @ vec
        free = HermiteOperator(kern, centers).matvec(vec)
        worst_mv = max(worst_mv, float(np.max(np.abs(free - mv)) / np.max(np.abs(mv))))
        rhs = rng.normal(size=m.shape[0])
        ref = scipy.linalg.solve(m, rhs)
        alphas, betas, _ = fit(kern, centers, rhs, cg_tol=1e-13)
        got = stack_coeffs(alphas, betas)
        worst_fit = max(worst_fit, float(np.max(np.abs(got - ref)) / np.max(np.abs(ref))))
    ok = worst_mv <= 1e-12 and worst_fit <= 1e-8
    record_acceptance(
        f"ACCEPTANCE 03 {'PASS' if ok else 'FAIL'}: 25 random systems, matvec vs dense {worst_mv:.2e} "
        f"(tol 1e-12), CG fit vs dense solve {worst_fit:.2e} (tol 1e-08)"
    )
    assert ok


def test_criterion_04_matvec_time_scales_linearly_in_dimension():
    """Doubling the state dimension at fixed center count should roughly
    double one matvec, matching the O(N n^2) operation count."""
    rng = np.random.default_rng(7)
    ops = {}
    for dim in (100, 200):
        centers = rng.normal(size=(200, dim))
        op = HermiteOperator(WendlandC4(dim=dim, gamma=0.1), centers)
        vec = rng.normal(size=op.size)
        op.matvec(vec)
        ops[dim] = (op, vec)
    # one timed matvec of each dimension per repetition, so a slow stretch of
    # a shared machine lands on both sides of the ratio; the untimed call
    # before it brings the operator's tables back into cache, since a cold
    # cache adds the same cost at both dimensions and pulls the ratio to 1
    times = {dim: [] for dim in ops}
    for _ in range(60):
        for dim, (op, vec) in ops.items():
            op.matvec(vec)
            t0 = time.perf_counter()
            op.matvec(vec)
            times[dim].append(time.perf_counter() - t0)
    ratio = min(times[200]) / min(times[100])
    ok = 1.5 <= ratio <= 3.0
    record_acceptance(
        f"ACCEPTANCE 04 {'PASS' if ok else 'FAIL'}: matvec time ratio dim 200/100 at 200 centers "
        f"is {ratio:.2f} (required within [1.5, 3])"
    )
    assert ok


def test_criterion_05_interpolation_conditions_after_greedy_fit(amp, amp_data40):
    model, qm = amp
    cg_tol = 1e-10
    scale = c_max_value(amp_data40)
    config = VkogaConfig(max_centers=100, cg_tol=cg_tol)
    pts, vals, gds = amp_data40.flattened(include_origin=True)
    plain = run_vkoga(WendlandC4(dim=2, gamma=1.0), pts, vals, gds, config)
    pts_s, vals_s, gds_s = amp_data40.flattened()
    structured = run_vkoga(
        StructuredKernel(WendlandC4(dim=2, gamma=1.0)), pts_s, vals_s, gds_s, config, q_matrix=qm
    )
    worst = 0.0
    for res, (p, v, g) in ((plain, (pts, vals, gds)), (structured, (pts_s, vals_s, gds_s))):
        idx = selected_indices(res)
        sv, sg = res.surrogate.value_and_gradient(p[idx])
        worst = max(worst, float(np.max(np.abs(v[idx] - sv) + np.linalg.norm(g[idx] - sg, axis=1))))
    bound = 10 * cg_tol * scale
    sv0, sg0 = structured.surrogate.value_and_gradient(np.zeros((1, 2)))
    origin_exact = sv0[0] == 0.0 and np.all(sg0[0] == 0.0)
    probes = np.random.default_rng(5).uniform(-1.5, 1.5, size=(1000, 2))
    min_value = float(np.min(structured.surrogate.value(probes)))
    run = simulate_feedback(
        model, structured.surrogate, np.array([1.0, 0.0]), horizon=2000.0, rel_tol=1e-8, abs_tol=1e-10
    )
    shrink = float(np.linalg.norm(final_state(run)))
    ok = worst <= bound and origin_exact and min_value >= 0.0 and not run.escaped and shrink <= 1e-3
    record_acceptance(
        f"ACCEPTANCE 05 {'PASS' if ok else 'FAIL'}: center residual {worst:.2e} <= {bound:.2e}, "
        f"structured origin exact: {origin_exact}, min probe value {min_value:.2f}, "
        f"state shrink after t=2000: {shrink:.1e}"
    )
    assert ok


def test_criterion_06_feedback_beats_the_quadratic_baseline(amp, amp_data40, amp_refs):
    model, qm = amp
    pts, vals, gds = amp_data40.flattened(include_origin=True)
    result = run_vkoga(
        WendlandC4(dim=2, gamma=0.8), pts, vals, gds, VkogaConfig(max_centers=100, cg_tol=1e-9, nugget=1e-10)
    )
    mrl2, _ = evaluate_surrogate(model, result.surrogate, amp_refs, horizon=20.0)
    mrl2_quad, _ = evaluate_surrogate(model, quadratic_surrogate(qm), amp_refs, horizon=20.0)
    ok = mrl2 <= 1e-2 and mrl2 < mrl2_quad and 5e-2 <= mrl2_quad <= 5e-1
    record_acceptance(
        f"ACCEPTANCE 06 {'PASS' if ok else 'FAIL'}: closed-loop error {mrl2:.2e} "
        f"(<= 1e-02) at {result.surrogate.n_centers} centers vs quadratic baseline {mrl2_quad:.2e} "
        f"(required within [5e-02, 5e-01])"
    )
    assert ok


def test_criterion_07_full_scale_error_targets(amp, amp_data80, amp_test_states, amp_refs):
    if os.environ.get("VFCONTROL_FULL_SCALE") != "1":
        record_acceptance(
            "ACCEPTANCE 07 SKIP: full-scale run only with VFCONTROL_FULL_SCALE=1"
        )
        pytest.skip("full-scale run not requested")
    model, qm = amp
    candidates = candidate_sobol(AMP_BOX, 512, seed=11)
    config = ExploreConfig(n_trajectories=100, horizon=99.0, hjb_tol=1e-6, solver=AMP_SOLVER)
    data = run_exploration(model, candidates, qm, config)

    # pick gamma by trajectory-held-out cross-validation, then fit 200 centers.
    # This dataset packs selected centers much closer together than the 40-run
    # fits above, and cross-validation prefers the flattest width on offer, so
    # the final Gram systems are much worse conditioned: their CG floor sits
    # just under 1e-7 relative.  The fits run right at that floor; the center
    # residuals this leaves are still far below the closed-loop bounds checked
    # here, which are dominated by approximation error, not algebra.
    gammas = [0.6, 0.8, 1.0, 1.2]
    cv_cfg = VkogaConfig(max_centers=100, cg_tol=1e-8, nugget=1e-9)
    scores = []
    for gamma in gammas:
        try:
            report = cross_validate(WendlandC4(dim=2, gamma=gamma), data, cv_cfg, n_folds=5)
            scores.append(report.mean_residual)
        except FitError:
            # a width whose fits stall at these tolerances rules itself out
            scores.append(np.inf)
    gamma = gammas[int(np.argmin(scores))]

    fit_cfg = VkogaConfig(max_centers=200, cg_tol=1e-7, nugget=1e-8, cg_max_iter=60000)
    pts, vals, gds = data.flattened(include_origin=True)
    plain = run_vkoga(WendlandC4(dim=2, gamma=gamma), pts, vals, gds, fit_cfg)
    pts_s, vals_s, gds_s = data.flattened()
    structured = run_vkoga(
        StructuredKernel(WendlandC4(dim=2, gamma=gamma)), pts_s, vals_s, gds_s, fit_cfg, q_matrix=qm
    )
    mrl2_p, _ = evaluate_surrogate(model, plain.surrogate, amp_refs, horizon=20.0)
    mrl2_s, _ = evaluate_surrogate(model, structured.surrogate, amp_refs, horizon=20.0)
    ok = mrl2_p <= 5 * 4.556e-4 and mrl2_s <= 5 * 2.033e-3
    record_acceptance(
        f"ACCEPTANCE 07 {'PASS' if ok else 'FAIL'}: full scale (gamma {gamma}), plain {mrl2_p:.3e} "
        f"(<= {5 * 4.556e-4:.3e}), structured {mrl2_s:.3e} (<= {5 * 2.033e-3:.3e})"
    )
    assert ok


def test_criterion_08_linear_models_match_the_riccati_closed_form():
    from scipy.linalg import expm

    solver = OpenLoopConfig(n_nodes=400, delta_tau=1e-4, refine_rounds=2, refine_tol=1e-10)
    cases = [
        ("stable scalar", build_linear([[-1.0]], [[1.0]]), np.array([0.8])),
        ("unstable scalar", build_linear([[1.0]], [[1.0]]), np.array([-0.6])),
        ("double integrator", build_linear([[0.0, 1.0], [0.0, 0.0]], [0.0, 1.0]), np.array([1.0, -0.5])),
    ]
    worst_bvp = 0.0
    worst_cost = 0.0
    for _, model, x0 in cases:
        qm = quadratic_matrix(model)
        sol = solve_open_loop(model, x0, qm, solver)
        a_cl = model.lin_A - model.lin_B @ model.R_inv @ model.lin_B.T @ qm
        x_ref = np.stack([expm(a_cl * t) @ x0 for t in sol.times])
        p_ref = 2.0 * x_ref @ qm
        v_ref = np.einsum("ij,jk,ik->i", x_ref, qm, x_ref)
        err = max(
            float(np.max(np.abs(sol.states - x_ref))),
            float(np.max(np.abs(sol.costates - p_ref))),
            float(np.max(np.abs(sol.values - v_ref))),
        )
        worst_bvp = max(worst_bvp, err)
        run = simulate_feedback(
            model, quadratic_surrogate(qm), x0, horizon=25.0, rel_tol=1e-10, abs_tol=1e-12
        )
        v0 = float(x0 @ qm @ x0)
        worst_cost = max(worst_cost, abs(run.cost - v0) / v0)
    ok = worst_bvp <= 1e-6 and worst_cost <= 1e-4
    record_acceptance(
        f"ACCEPTANCE 08 {'PASS' if ok else 'FAIL'}: linear-model open loop vs closed form {worst_bvp:.2e} "
        f"(tol 1e-06), feedback cost vs x0'Qx0 {worst_cost:.2e} relative (tol 1e-04)"
    )
    assert ok


@pytest.mark.filterwarnings("ignore:.*not admissible.*")
def test_criterion_09_reaction_diffusion_desk_scale():
    model = build_model("nhe", {"grid_side": 6})
    qm = quadratic_matrix(model)
    candidates = candidate_modes(6)
    solver = OpenLoopConfig(n_nodes=80, delta_tau=1e-3, refine_rounds=1, refine_tol=1e-6)
    data = run_exploration(
        model, candidates, qm, ExploreConfig(n_trajectories=30, horizon=3.0, solver=solver)
    )
    explored = data.n_trajectories == 30 and not data.meta["quarantined"]
    monotone = all(np.all(np.diff(t.values) <= 1e-9 * (1.0 + t.values[0])) for t in data.trajectories)
    terminal = max(t.values[-1] / t.values[0] for t in data.trajectories)

    ti, _ = farthest_point_order(candidates, 35)
    refs = solve_testset(model, candidates[ti[30:]], qm, solver)
    mrl2_quad, _ = evaluate_surrogate(model, quadratic_surrogate(qm), refs, horizon=3.0)
    pts, vals, gds = data.flattened(include_origin=True)
    plain = run_vkoga(
        WendlandC4(dim=36, gamma=0.02),
        pts,
        vals,
        gds,
        VkogaConfig(max_centers=80, cg_tol=5e-8, nugget=1e-7, cg_max_iter=60000),
    )
    mrl2_p, _ = evaluate_surrogate(model, plain.surrogate, refs, horizon=3.0)
    pts_s, vals_s, gds_s = data.flattened()
    structured = run_vkoga(
        StructuredKernel(WendlandC4(dim=36, gamma=0.2)),
        pts_s,
        vals_s,
        gds_s,
        VkogaConfig(max_centers=80, cg_tol=1e-9),
        q_matrix=qm,
    )
    mrl2_s, _ = evaluate_surrogate(model, structured.surrogate, refs, horizon=3.0)
    ok = explored and monotone and terminal <= 1e-4 and mrl2_p < mrl2_quad and mrl2_s < mrl2_quad
    record_acceptance(
        f"ACCEPTANCE 09 {'PASS' if ok else 'FAIL'}: 36-state model explored 30/30, values monotone: "
        f"{monotone}, worst terminal ratio {terminal:.1e} (<= 1e-04), closed-loop error plain "
        f"{mrl2_p:.2e} / structured {mrl2_s:.2e} vs baseline {mrl2_quad:.2e}"
    )
    assert ok


def test_criterion_10_more_data_cannot_hurt_the_feedback(amp, amp_data80, amp_test_states):
    """Growing the exploration budget 20 -> 40 -> 80 trajectories (halving the
    coverage radius each time) must not worsen the worst-case closed-loop
    trajectory error at fixed fit tolerance."""
    model, _ = amp
    config = VkogaConfig(max_centers=400, eps_tol_f=10.0, cg_tol=1e-8, nugget=1e-9)
    errors = []
    centers = []
    for n in (20, 40, 80):
        pts, vals, gds = prefix(amp_data80, n).flattened(include_origin=True)
        result = run_vkoga(WendlandC4(dim=2, gamma=1.0), pts, vals, gds, config)
        centers.append(result.surrogate.n_centers)
        worst = 0.0
        for x0 in amp_test_states:
            ref = amp_closed_loop(x0, horizon=20.0)
            run = simulate_feedback(model, result.surrogate, x0, horizon=20.0)
            worst = max(worst, relative_l2(ref, run))
        errors.append(worst)
    eps = [amp_data80.eps_history[n - 1] for n in (20, 40, 80)]
    halved = eps[1] <= 0.75 * eps[0] and eps[2] <= 0.75 * eps[1]
    ok = halved and errors[1] <= errors[0] and errors[2] <= errors[1]
    record_acceptance(
        f"ACCEPTANCE 10 {'PASS' if ok else 'FAIL'}: coverage radii {eps[0]:.2f}/{eps[1]:.2f}/{eps[2]:.2f}, "
        f"worst trajectory errors {errors[0]:.2e} -> {errors[1]:.2e} -> {errors[2]:.2e} "
        f"(nonincreasing) at {centers} centers"
    )
    assert ok
