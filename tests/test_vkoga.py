import csv

import numpy as np
import pytest
import scipy.linalg

from helpers import dense_hermite_matrix
from vfcontrol.hermite import Surrogate, assemble_rhs, unstack_coeffs
from vfcontrol.kernels import StructuredKernel, WendlandC4
from vfcontrol.vkoga import VkogaConfig, run_vkoga, write_trace


def sample_bump(rng, m, dim):
    points = rng.uniform(-1.2, 1.2, size=(m, dim))
    q = np.sum(points * points, axis=1)
    values = np.exp(-q)
    grads = -2.0 * points * values[:, None]
    return points, values, grads


def test_first_center_is_the_largest_raw_sample():
    rng = np.random.default_rng(50)
    kern = WendlandC4(dim=2, gamma=0.5)
    points, values, grads = sample_bump(rng, 15, 2)
    raw = np.abs(values) + np.linalg.norm(grads, axis=1)
    result = run_vkoga(kern, points, values, grads, VkogaConfig(max_centers=3))
    assert result.selected_indices[0] == int(np.argmax(raw))
    assert result.steps[0].residual == pytest.approx(float(np.max(raw)))


def test_loose_tolerance_selects_nothing():
    rng = np.random.default_rng(51)
    kern = WendlandC4(dim=2, gamma=0.5)
    points, values, grads = sample_bump(rng, 8, 2)
    result = run_vkoga(kern, points, values, grads, VkogaConfig(eps_tol_f=np.inf))
    assert result.steps == []
    assert result.surrogate.n_centers == 0
    # final residual still reports the raw scan
    raw = np.abs(values) + np.linalg.norm(grads, axis=1)
    assert result.final_residual == pytest.approx(float(np.max(raw)))


def test_selection_matches_a_dense_greedy_replay():
    """Five iterations replayed with dense linear algebra pick the same
    candidate sequence as the matrix-free implementation."""
    rng = np.random.default_rng(52)
    kern = WendlandC4(dim=2, gamma=0.4)
    points, values, grads = sample_bump(rng, 12, 2)
    result = run_vkoga(kern, points, values, grads, VkogaConfig(max_centers=5, cg_tol=1e-13))

    selected = []
    surrogate = Surrogate(
        kernel=kern, centers=np.zeros((0, 2)), alphas=np.zeros(0), betas=np.zeros((0, 2))
    )
    for _ in range(5):
        sv, sg = surrogate.value_and_gradient(points)
        rho = np.abs(values - sv) + np.linalg.norm(grads - sg, axis=1)
        rho[selected] = -np.inf
        best = int(np.argmax(rho))
        selected.append(best)
        centers = points[selected]
        m = dense_hermite_matrix(kern, centers)
        coeffs = scipy.linalg.solve(m, assemble_rhs(values[selected], grads[selected]))
        alphas, betas = unstack_coeffs(coeffs, len(selected), 2)
        surrogate = Surrogate(kernel=kern, centers=centers, alphas=alphas, betas=betas)

    assert result.selected_indices == selected


def test_center_residuals_stay_small_after_every_refit():
    rng = np.random.default_rng(53)
    kern = WendlandC4(dim=2, gamma=0.5)
    points, values, grads = sample_bump(rng, 10, 2)
    cg_tol = 1e-11
    config = VkogaConfig(max_centers=6, cg_tol=cg_tol, checkpoints=range(1, 7))
    result = run_vkoga(kern, points, values, grads, config)
    scale = float(np.max(np.abs(values) + np.linalg.norm(grads, axis=1)))
    for count, sur in result.checkpoints.items():
        idx = result.selected_indices[:count]
        sv, sg = sur.value_and_gradient(points[idx])
        resid = np.abs(values[idx] - sv) + np.linalg.norm(grads[idx] - sg, axis=1)
        assert np.max(resid) <= 10 * cg_tol * scale


def test_step_residuals_replay_from_checkpoints():
    """step k records the score of its pick measured against the surrogate
    from step k-1."""
    rng = np.random.default_rng(54)
    kern = WendlandC4(dim=2, gamma=0.5)
    points, values, grads = sample_bump(rng, 9, 2)
    config = VkogaConfig(max_centers=4, cg_tol=1e-12, checkpoints=range(1, 5))
    result = run_vkoga(kern, points, values, grads, config)
    for k, step in enumerate(result.steps):
        if k == 0:
            sv = np.zeros(len(points))
            sg = np.zeros_like(points)
        else:
            sv, sg = result.checkpoints[k].value_and_gradient(points)
        rho = np.abs(values - sv) + np.linalg.norm(grads - sg, axis=1)
        assert step.residual == pytest.approx(float(rho[step.index]), rel=1e-12)


def test_runs_are_deterministic():
    rng = np.random.default_rng(55)
    kern = WendlandC4(dim=2, gamma=0.5)
    points, values, grads = sample_bump(rng, 14, 2)
    config = VkogaConfig(max_centers=6, cg_tol=1e-11)
    a = run_vkoga(kern, points, values, grads, config)
    b = run_vkoga(kern, points, values, grads, config)
    assert a.selected_indices == b.selected_indices
    np.testing.assert_array_equal(a.surrogate.alphas, b.surrogate.alphas)
    np.testing.assert_array_equal(a.surrogate.betas, b.surrogate.betas)


def test_centers_are_pairwise_distinct_and_capped():
    rng = np.random.default_rng(56)
    kern = WendlandC4(dim=2, gamma=0.5)
    points, values, grads = sample_bump(rng, 20, 2)
    result = run_vkoga(kern, points, values, grads, VkogaConfig(max_centers=7))
    assert len(result.steps) == 7
    idx = result.selected_indices
    assert len(set(idx)) == len(idx)
    centers = result.surrogate.centers
    d = np.linalg.norm(centers[:, None, :] - centers[None, :, :], axis=2)
    assert np.min(d + np.eye(7)) > 0.0


def test_near_coincident_samples_give_one_center():
    """Two trajectory tails at rounding distance from the origin: once one of
    them is a center the other is not selectable, and the run ends cleanly
    with every other sample selected."""
    rng = np.random.default_rng(57)
    kern = WendlandC4(dim=1, gamma=1.0)
    points, values, grads = sample_bump(rng, 6, 1)
    points = np.vstack([points, [[2.5e-16], [5.0e-16]]])
    values = np.concatenate([values, [1.0 - 6.25e-32, 1.0 - 2.5e-31]])
    grads = np.vstack([grads, [[-5.0e-16], [-1.0e-15]]])
    result = run_vkoga(kern, points, values, grads, VkogaConfig(max_centers=20, cg_tol=1e-11))
    assert result.surrogate.n_centers == 7
    assert len(set(result.selected_indices) & {6, 7}) == 1


def test_structured_run_drops_inadmissible_samples():
    rng = np.random.default_rng(57)
    base = WendlandC4(dim=2, gamma=0.5)
    kern = StructuredKernel(base)
    points, values, grads = sample_bump(rng, 10, 2)
    points[3] = 0.0
    values[7] = -0.5
    with pytest.warns(UserWarning, match="not admissible"):
        result = run_vkoga(
            kern, points, values, grads, VkogaConfig(max_centers=8), q_matrix=np.eye(2)
        )
    assert 3 not in result.selected_indices
    assert 7 not in result.selected_indices
    assert result.surrogate.variant == "structured"


def test_structured_run_requires_q_matrix():
    rng = np.random.default_rng(58)
    kern = StructuredKernel(WendlandC4(dim=2, gamma=0.5))
    points, values, grads = sample_bump(rng, 5, 2)
    with pytest.raises(ValueError, match="quadratic"):
        run_vkoga(kern, points, values, grads)


def test_fit_metadata_lands_on_the_surrogate():
    rng = np.random.default_rng(59)
    kern = WendlandC4(dim=2, gamma=0.5)
    points, values, grads = sample_bump(rng, 8, 2)
    config = VkogaConfig(max_centers=3, cg_tol=1e-9, nugget=1e-11)
    result = run_vkoga(kern, points, values, grads, config)
    assert result.surrogate.meta["nugget"] == 1e-11
    assert result.surrogate.meta["cg_tol"] == 1e-9


def test_trace_roundtrips_through_csv(tmp_path):
    rng = np.random.default_rng(61)
    kern = WendlandC4(dim=2, gamma=0.5)
    points, values, grads = sample_bump(rng, 10, 2)
    result = run_vkoga(kern, points, values, grads, VkogaConfig(max_centers=4))
    # well separated samples never need the eigenvalue floor, and the
    # factor preconditioner solves each step in one iteration
    assert [(s.floored, s.cg_iterations) for s in result.steps] == [(False, 1)] * 4
    path = tmp_path / "trace.csv"
    write_trace(result, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(result.steps)
    for row, step in zip(rows, result.steps):
        assert int(row["iteration"]) == step.iteration
        assert int(row["index"]) == step.index
        assert float(row["residual"]) == step.residual
        assert int(row["cg_iterations"]) == step.cg_iterations
        assert float(row["cg_residual"]) == step.cg_residual
        assert int(row["floored"]) == step.floored
