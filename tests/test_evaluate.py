import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import AnalyticRun, amp_closed_loop, final_state, prefix, run_from_arrays
from vfcontrol.evaluate import (
    ROLLOUT_TOL,
    SIMULATE_TOL,
    center_curve,
    cross_validate,
    evaluate_surrogate,
    mrl2_error,
    save_cv_report,
    simulate_feedback,
    simulate_feedback_batch,
    write_curves,
)
from vfcontrol.explore import Dataset, ExploreConfig, run_exploration
from vfcontrol.hermite import quadratic_surrogate
from vfcontrol.kernels import StructuredKernel, WendlandC4
from vfcontrol.models import NheParameters, build_amp, build_linear, build_nhe
from vfcontrol.openloop import OpenLoopConfig
from vfcontrol.riccati import quadratic_matrix
from vfcontrol.vkoga import VkogaConfig


def exp_reference(x0, horizon=10.0, n=80):
    times = np.linspace(0.0, horizon, n)
    states = np.asarray(x0)[None, :] * np.exp(-np.sqrt(2.0) * times)[:, None]
    return AnalyticRun(x0, times, states)


@pytest.fixture(scope="module")
def lqr():
    model = build_linear([[-1.0]], [[1.0]])
    return model, quadratic_matrix(model)


@pytest.fixture(scope="module")
def amp():
    model = build_amp()
    return model, quadratic_matrix(model)


@pytest.fixture(scope="module")
def lqr_dataset(lqr):
    model, qm = lqr
    candidates = np.linspace(-1.0, 1.0, 9)[:, None]
    solver = OpenLoopConfig(n_nodes=60, refine_rounds=0, samples=8)
    return run_exploration(model, candidates, qm, ExploreConfig(n_trajectories=5, solver=solver))


def test_mrl2_of_an_exact_run_is_zero():
    ref = exp_reference(np.array([0.8]))
    run = run_from_arrays(ref.times, ref.states)
    assert mrl2_error([ref], [run]) == 0.0


def test_mrl2_of_a_run_stuck_at_the_origin_is_one():
    ref = exp_reference(np.array([0.8]))
    run = run_from_arrays(ref.times, np.zeros_like(ref.states))
    assert mrl2_error([ref], [run]) == pytest.approx(1.0)


def test_mrl2_skips_zero_references():
    zero = AnalyticRun(np.zeros(1), np.linspace(0, 1, 5), np.zeros((5, 1)))
    live = exp_reference(np.array([0.5]))
    run_zero = run_from_arrays(zero.times, np.zeros((5, 1)))
    run_live = run_from_arrays(live.times, live.states)
    with pytest.warns(UserWarning, match="identically zero"):
        assert mrl2_error([zero, live], [run_zero, run_live]) == 0.0
    with pytest.warns(UserWarning, match="identically zero"):
        assert np.isnan(mrl2_error([zero], [run_zero]))


def test_mrl2_normalizes_per_trajectory():
    """A big and a small reference with proportionally equal errors score the
    same, so the mean is that common ratio regardless of absolute scale."""
    times = np.linspace(0.0, 1.0, 30)
    for scale in (1.0, 100.0):
        big = AnalyticRun([scale], times, scale * np.exp(-times)[:, None])
        runs = [run_from_arrays(times, 1.01 * scale * np.exp(-times)[:, None])]
        assert mrl2_error([big], runs) == pytest.approx(0.01, rel=1e-9)


def test_mrl2_rejects_runs_that_do_not_match_the_references():
    refs = [exp_reference(np.array([0.8])), exp_reference(np.array([-0.5]))]
    run = run_from_arrays(refs[0].times, refs[0].states)
    with pytest.raises(ValueError, match="2 references but 1 runs"):
        mrl2_error(refs, [run])
    with pytest.raises(ValueError, match="1 references but 2 runs"):
        mrl2_error(refs[:1], [run, run])


def test_mrl2_horizon_truncates_the_comparison():
    ref = exp_reference(np.array([1.0]), horizon=10.0)
    # perfect up to t=2, then frozen
    good = ref.states.copy()
    good[ref.times > 2.0] = good[ref.times <= 2.0][-1]
    run = run_from_arrays(ref.times, good)
    assert mrl2_error([ref], [run], horizon=2.0) == pytest.approx(0.0, abs=1e-14)
    assert mrl2_error([ref], [run]) > 1e-3


def test_feedback_simulation_matches_the_lqr_cost(lqr):
    model, qm = lqr
    q = qm[0, 0]
    (run,) = simulate_feedback_batch(model, quadratic_surrogate(qm), np.array([[0.8]]), 25.0, 1e-10, 1e-12)
    assert not run.escaped
    # total cost of the optimal feedback is the value at the start state
    assert run.cost == pytest.approx(q * 0.64, rel=1e-6)
    assert abs(final_state(run)[0]) <= 1e-6
    # the accumulated cost agrees with quadrature of the running cost
    x = run.states[:, 0]
    u = -q * x  # u = -R^{-1} B^T Q x
    integrand = x * x + u * u
    quad = float(np.sum(0.5 * (integrand[1:] + integrand[:-1]) * np.diff(run.times)))
    assert run.cost == pytest.approx(quad, rel=1e-3)
    assert run.rhs_evaluations > 0


def test_stiff_feedback_simulation_counts_its_batched_jacobians():
    """The heat model's closed loop turns stiff, so LSODA needs Jacobians of the
    feedback right-hand side, each from one batched surrogate evaluation."""
    model = build_nhe(NheParameters(grid_side=3))
    surrogate = quadratic_surrogate(quadratic_matrix(model))
    x0 = np.linspace(-0.5, 0.5, model.dim_state)
    run = simulate_feedback(model, surrogate, x0, horizon=5.0)
    assert not run.escaped
    assert run.jacobian_evaluations > 0
    assert run.rhs_evaluations > run.jacobian_evaluations
    (tight,) = simulate_feedback_batch(model, surrogate, x0[None], 5.0, 1e-11, 1e-13)
    assert run.cost == pytest.approx(tight.cost, rel=1e-6)
    np.testing.assert_allclose(final_state(run), final_state(tight), atol=1e-8)


@pytest.mark.parametrize("case", ["lqr", "amp", "nhe"])
def test_a_single_rollout_is_the_batch_of_one_at_simulate_tol(request, case):
    """simulate_feedback is simulate_feedback_batch of one row at
    SIMULATE_TOL, bit for bit: the same times, states, cost and counts.
    The heat model's loop turns stiff, so its counts include Jacobians."""
    if case == "nhe":
        model = build_nhe(NheParameters(grid_side=3))
        qm = quadratic_matrix(model)
    else:
        model, qm = request.getfixturevalue(case)
    surrogate = quadratic_surrogate(0.9 * qm)
    x0 = np.full(model.dim_state, 0.6)
    run = simulate_feedback(model, surrogate, x0, 8.0)
    (batch,) = simulate_feedback_batch(model, surrogate, x0[None], 8.0, *SIMULATE_TOL)
    np.testing.assert_array_equal(run.times, batch.times)
    np.testing.assert_array_equal(run.states, batch.states)
    assert run.cost == batch.cost
    assert (run.rhs_evaluations, run.jacobian_evaluations) == (batch.rhs_evaluations, batch.jacobian_evaluations)
    assert (run.escaped, run.integrator_failed) == (batch.escaped, batch.integrator_failed) == (False, False)


def test_feedback_simulation_flags_escapes():
    model = build_linear([[1.0]], [[1.0]])
    qm = quadratic_matrix(model)
    # a sign-flipped value model turns the feedback destabilizing
    run = simulate_feedback(model, quadratic_surrogate(-qm), np.array([0.8]), horizon=50.0)
    assert run.escaped
    assert not run.integrator_failed
    assert run.times[-1] < 50.0
    assert np.max(np.abs(run.states)) >= 10.0


def test_an_integrator_failure_is_told_apart_from_an_escape(lqr):
    model, qm = lqr
    surrogate = quadratic_surrogate(qm)

    class TurnsNonFinite:
        """The optimal feedback, until its gradient turns NaN near the origin."""

        kernel = surrogate.kernel

        def gradient(self, x):
            return np.where(np.abs(x) < 0.4, np.nan, surrogate.gradient(x))

    run = simulate_feedback(model, TurnsNonFinite(), np.array([0.8]), horizon=25.0)
    assert run.integrator_failed
    # the run still ends before the horizon, so it counts as escaped
    assert run.escaped
    assert run.times[-1] < 25.0
    # it keeps its valid path: every accepted step up to the last finite one,
    # on the optimal path x = 0.8 exp(-sqrt(2) t) and above the NaN band
    assert run.times.size > 2
    np.testing.assert_array_equal(run.states[0], [0.8])
    assert np.all(np.isfinite(run.states)) and np.all(run.states >= 0.4) and np.max(run.states) <= 0.8
    np.testing.assert_allclose(run.states[:, 0], 0.8 * np.exp(-np.sqrt(2.0) * run.times), rtol=1e-6)
    # past its end the last valid state holds
    np.testing.assert_allclose(run.states_at([run.times[-1], 25.0]), [run.states[-1]] * 2, rtol=0.0, atol=1e-12)


def test_a_rollout_whose_first_step_fails_holds_its_start(lqr):
    model, qm = lqr

    class NonFinite:
        kernel = quadratic_surrogate(qm).kernel

        def gradient(self, x):
            return np.full_like(x, np.nan)

    run = simulate_feedback(model, NonFinite(), np.array([0.8]), horizon=5.0)
    assert run.integrator_failed and run.escaped
    np.testing.assert_array_equal(run.times, [0.0])
    np.testing.assert_array_equal(run.states_at([0.0, 1.0, 5.0]), [[0.8]] * 3)
    assert run.cost == 0.0


def test_states_at_holds_the_last_state():
    run = run_from_arrays([0.0, 1.0], [[1.0], [0.5]])
    out = run.states_at([0.0, 0.5, 1.0, 3.0])
    np.testing.assert_allclose(out[:, 0], [1.0, 0.75, 0.5, 0.5])


def test_evaluate_surrogate_scores_the_exact_feedback(lqr):
    model, qm = lqr
    refs = [exp_reference(np.array([0.8])), exp_reference(np.array([-0.5]))]
    mrl2, runs = evaluate_surrogate(model, quadratic_surrogate(qm), refs, horizon=10.0)
    assert mrl2 <= 1e-5
    assert len(runs) == 2
    assert runs[1].x0[0] == -0.5


# MRL2 relative gap allowed between rollouts at ROLLOUT_TOL and at rel 1e-11.
# At rel 1e-7 the cases below read gaps of 2e-8 to 1.3e-6.  At rel 1e-6 the
# 0.5 Q amp case reads 1.3e-5 and fails: that loosening moved the benchmark's
# nhe36 structured accuracy digits by 2-4e-4, past the four decimals it reads.
ROLLOUT_MRL2_REL = 5e-6


@pytest.mark.parametrize(
    "case, scale",
    [("lqr", 1.5), ("lqr", 0.7), ("lqr", 1.05), ("amp", 1.0), ("amp", 0.5)],
)
def test_rollout_tolerance_keeps_the_mrl2_of_tight_rollouts(request, case, scale):
    """evaluate_surrogate rolls out at ROLLOUT_TOL; its MRL2 must agree with
    the MRL2 of the same rollouts integrated to rel 1e-11.  The surrogates are
    scaled quadratic models, so the MRL2 measures a real feedback error."""
    model, qm = request.getfixturevalue(case)
    if case == "lqr":
        horizon = 10.0
        refs = [exp_reference(np.array([0.8]), horizon), exp_reference(np.array([-0.5]), horizon)]
    else:
        horizon = 20.0
        refs = [amp_closed_loop(np.array(x0), horizon) for x0 in ([0.9, -0.4], [-0.3, 0.7], [0.6, 0.6])]
    surrogate = quadratic_surrogate(scale * qm)
    mrl2, runs = evaluate_surrogate(model, surrogate, refs, horizon=horizon)
    tight = [simulate_feedback_batch(model, surrogate, ref.states[0][None], horizon, 1e-11, 1e-13)[0] for ref in refs]
    mrl2_tight = mrl2_error(refs, tight, horizon=horizon)
    assert not any(run.escaped for run in runs + tight)
    assert mrl2_tight > 1e-3
    assert abs(mrl2 - mrl2_tight) <= ROLLOUT_MRL2_REL * mrl2_tight
    # the looser rollouts, one stacked integration whose counts every run of
    # it reports, take fewer right-hand-side calls than the tight ones together
    assert len({run.rhs_evaluations for run in runs}) == 1
    assert runs[0].rhs_evaluations < sum(run.rhs_evaluations for run in tight)


def test_evaluate_surrogate_stacks_the_references_that_end_together(lqr):
    model, qm = lqr
    refs = [exp_reference(np.array([x0]), horizon) for x0, horizon in ((0.8, 4.0), (-0.5, 6.0), (0.3, 4.0))]
    mrl2, runs = evaluate_surrogate(model, quadratic_surrogate(qm), refs)
    assert mrl2 <= 1e-5
    assert [run.x0[0] for run in runs] == [0.8, -0.5, 0.3]
    assert [run.times[-1] for run in runs] == [4.0, 6.0, 4.0]
    # the two runs that end at 4 shared one integration, the other ran alone
    assert runs[0].rhs_evaluations == runs[2].rhs_evaluations != runs[1].rhs_evaluations
    (alone,) = simulate_feedback_batch(model, quadratic_surrogate(qm), np.array([[-0.5]]), 6.0, *ROLLOUT_TOL)
    np.testing.assert_array_equal(runs[1].states, alone.states)


@pytest.fixture(scope="module")
def batch_cases(lqr, amp):
    return {"lqr": (lqr, 10.0), "amp": (amp, 20.0)}


# bound on a batched run's distance from its solo run, in units of
# ROLLOUT_TOL's rel |x0| + abs: 30 draws of 2-5 starts read at most 2.2
BATCH_SPREAD = 100.0


@settings(max_examples=25, deadline=None)
@given(case=st.sampled_from(["lqr", "amp"]), data=st.data())
def test_a_batched_rollout_follows_its_solo_rollout(batch_cases, case, data):
    """Each run of a stack of 2-5 starts, integrated at ROLLOUT_TOL, stays
    within a tolerance-scaled distance of the same start's solo run."""
    (model, qm), horizon = batch_cases[case]
    n = model.dim_state
    count = data.draw(st.integers(2, 5), label="count")
    coordinate = st.floats(-0.7, 0.7, allow_subnormal=False)
    starts = np.array(data.draw(st.lists(st.lists(coordinate, min_size=n, max_size=n), min_size=count, max_size=count)))
    surrogate = quadratic_surrogate(qm)
    runs = simulate_feedback_batch(model, surrogate, starts, horizon, *ROLLOUT_TOL)
    grid = np.linspace(0.0, horizon, 101)
    for x0, run in zip(starts, runs):
        (solo,) = simulate_feedback_batch(model, surrogate, x0[None], horizon, *ROLLOUT_TOL)
        assert not run.escaped and not solo.escaped
        np.testing.assert_array_equal(run.x0, x0)
        bound = BATCH_SPREAD * (ROLLOUT_TOL[0] * np.max(np.abs(x0)) + ROLLOUT_TOL[1])
        assert np.max(np.abs(run.states_at(grid) - solo.states_at(grid))) <= bound
        assert run.cost == pytest.approx(solo.cost, rel=BATCH_SPREAD * ROLLOUT_TOL[0], abs=bound)


@pytest.mark.parametrize("tol", [SIMULATE_TOL, ROLLOUT_TOL], ids=["default", "rollout_tol"])
def test_an_escaped_run_ends_on_the_escape_radius(tol):
    model = build_linear([[1.0]], [[1.0]])
    qm = quadratic_matrix(model)
    x0 = np.array([0.8])
    (run,) = simulate_feedback_batch(model, quadratic_surrogate(-qm), x0[None], 50.0, *tol)
    assert run.escaped and not run.integrator_failed
    radius = 10.0 * (1.0 + np.linalg.norm(x0))
    assert abs(np.linalg.norm(final_state(run)) - radius) <= 1e-8
    # the dense output ends there too, and holds past the end
    np.testing.assert_allclose(run.states_at([run.times[-1], 50.0]), [final_state(run)] * 2, rtol=0.0, atol=1e-8)


def test_cross_validation_holds_out_whole_trajectories(lqr_dataset):
    kern = WendlandC4(dim=1, gamma=1.0)
    report = cross_validate(kern, lqr_dataset, VkogaConfig(max_centers=20, cg_tol=1e-11), n_folds=2)
    assert [f.fold for f in report.folds] == [0, 1]
    n_traj = lqr_dataset.n_trajectories
    for fold in report.folds:
        held_out = [t for i, t in enumerate(lqr_dataset.trajectories) if i % 2 == fold.fold]
        assert fold.n_train_trajectories == n_traj - len(held_out)
        assert fold.n_test_samples == sum(len(t) for t in held_out)
        assert 0.0 <= fold.mean_residual <= fold.max_residual
    assert report.max_residual == max(f.max_residual for f in report.folds)
    assert report.mean_residual == pytest.approx(
        np.mean([f.mean_residual for f in report.folds])
    )


def test_cross_validation_needs_at_least_two_trajectories(lqr_dataset):
    kern = WendlandC4(dim=1, gamma=1.0)
    single = prefix(lqr_dataset, 1)
    with pytest.raises(ValueError, match="two trajectories"):
        cross_validate(kern, single, VkogaConfig(max_centers=5))


def test_cv_report_roundtrips_through_json(tmp_path, lqr_dataset):
    kern = WendlandC4(dim=1, gamma=1.0)
    report = cross_validate(kern, lqr_dataset, VkogaConfig(max_centers=10, cg_tol=1e-10), n_folds=2)
    path = tmp_path / "cv.json"
    save_cv_report(report, path)
    doc = json.loads(path.read_text())
    assert doc["schema"] == "vfcontrol-cv-v1"
    assert doc["max_residual"] == report.max_residual
    assert len(doc["folds"]) == 2
    assert doc["folds"][1]["n_centers"] == report.folds[1].n_centers


@pytest.mark.filterwarnings("ignore:.*not admissible.*")
def test_center_curve_reports_all_variants(lqr, lqr_dataset):
    model, qm = lqr
    refs = [exp_reference(np.array([0.9])), exp_reference(np.array([-0.6]))]
    rows = center_curve(
        model,
        lqr_dataset,
        WendlandC4(dim=1, gamma=1.0),
        StructuredKernel(WendlandC4(dim=1, gamma=1.0)),
        qm,
        counts=[5, 2],
        references=refs,
        config=VkogaConfig(cg_tol=1e-8, nugget=1e-9),
        horizon=10.0,
    )
    assert [row["n_centers"] for row in rows] == [2, 5]
    for row in rows:
        for key in ("mrl2_plain", "mrl2_structured", "mrl2_quadratic"):
            assert np.isfinite(row[key])
    # the baseline has no center count, so its column repeats
    assert rows[0]["mrl2_quadratic"] == rows[1]["mrl2_quadratic"]
    # the quadratic model is exact for this plant, so the fits cannot beat it
    # by much and nothing should be wildly off
    assert rows[1]["mrl2_plain"] <= 1.0
    assert rows[1]["mrl2_structured"] <= 1.0


def test_curves_roundtrip_through_csv(tmp_path):
    rows = [
        {"n_centers": 2, "mrl2_plain": 0.5, "mrl2_structured": 0.25, "mrl2_quadratic": 0.125},
        {"n_centers": 4, "mrl2_plain": 0.1, "mrl2_structured": 0.05, "mrl2_quadratic": 0.125},
    ]
    path = tmp_path / "curves.csv"
    write_curves(rows, path)
    with open(path, newline="") as fh:
        back = list(csv.DictReader(fh))
    assert len(back) == 2
    for row, orig in zip(back, rows):
        assert int(row["n_centers"]) == orig["n_centers"]
        assert float(row["mrl2_plain"]) == orig["mrl2_plain"]
        assert float(row["mrl2_quadratic"]) == orig["mrl2_quadratic"]
