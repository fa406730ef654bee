import csv

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import centers_with_twins, close_pairs, dense_hermite_matrix, lattice_centers, selected_indices
from vfcontrol.hermite import FitError, HermiteFactor, Surrogate, assemble_rhs, fit, unstack_coeffs
from vfcontrol.kernels import StructuredKernel, WendlandC4
from vfcontrol.vkoga import VkogaConfig, run_vkoga, write_trace


def sample_bump(rng, m, dim):
    points = rng.uniform(-1.2, 1.2, size=(m, dim))
    q = np.sum(points * points, axis=1)
    values = np.exp(-q)
    grads = -2.0 * points * values[:, None]
    return points, values, grads


def counted_scans(monkeypatch):
    """A list that records the batch size of every surrogate evaluation."""
    scans = []
    evaluate = Surrogate.value_and_gradient

    def counted(self, points):
        scans.append(len(points))
        return evaluate(self, points)

    monkeypatch.setattr(Surrogate, "value_and_gradient", counted)
    return scans


def test_first_center_is_the_largest_raw_sample():
    rng = np.random.default_rng(50)
    kern = WendlandC4(dim=2, gamma=0.5)
    points, values, grads = sample_bump(rng, 15, 2)
    raw = np.abs(values) + np.linalg.norm(grads, axis=1)
    result = run_vkoga(kern, points, values, grads, VkogaConfig(max_centers=3))
    assert selected_indices(result)[0] == int(np.argmax(raw))
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
        coeffs = scipy.linalg.solve(m, assemble_rhs(values[selected], grads[selected])[0])
        alphas, betas = unstack_coeffs(coeffs, len(selected), 2)
        surrogate = Surrogate(kernel=kern, centers=centers, alphas=alphas, betas=betas)

    assert selected_indices(result) == selected


def test_center_residuals_stay_small_after_every_refit():
    rng = np.random.default_rng(53)
    kern = WendlandC4(dim=2, gamma=0.5)
    points, values, grads = sample_bump(rng, 10, 2)
    cg_tol = 1e-11
    config = VkogaConfig(max_centers=6, cg_tol=cg_tol)
    result = run_vkoga(kern, points, values, grads, config)
    assert len(result.steps) == 6
    assert result.steps[-1].surrogate is result.surrogate
    scale = float(np.max(np.abs(values) + np.linalg.norm(grads, axis=1)))
    for count, step in enumerate(result.steps, start=1):
        idx = selected_indices(result)[:count]
        np.testing.assert_array_equal(step.surrogate.centers, points[idx])
        sv, sg = step.surrogate.value_and_gradient(points[idx])
        resid = np.abs(values[idx] - sv) + np.linalg.norm(grads[idx] - sg, axis=1)
        assert np.max(resid) <= 10 * cg_tol * scale


def test_step_residuals_replay_from_the_previous_step():
    """step k records the score of its pick measured against the surrogate
    from step k-1."""
    rng = np.random.default_rng(54)
    kern = WendlandC4(dim=2, gamma=0.5)
    points, values, grads = sample_bump(rng, 9, 2)
    config = VkogaConfig(max_centers=4, cg_tol=1e-12)
    result = run_vkoga(kern, points, values, grads, config)
    for k, step in enumerate(result.steps):
        if k == 0:
            sv = np.zeros(len(points))
            sg = np.zeros_like(points)
        else:
            sv, sg = result.steps[k - 1].surrogate.value_and_gradient(points)
        rho = np.abs(values - sv) + np.linalg.norm(grads - sg, axis=1)
        assert step.residual == pytest.approx(float(rho[step.index]), rel=1e-12)


def test_runs_are_deterministic():
    rng = np.random.default_rng(55)
    kern = WendlandC4(dim=2, gamma=0.5)
    points, values, grads = sample_bump(rng, 14, 2)
    config = VkogaConfig(max_centers=6, cg_tol=1e-11)
    a = run_vkoga(kern, points, values, grads, config)
    b = run_vkoga(kern, points, values, grads, config)
    assert selected_indices(a) == selected_indices(b)
    np.testing.assert_array_equal(a.surrogate.alphas, b.surrogate.alphas)
    np.testing.assert_array_equal(a.surrogate.betas, b.surrogate.betas)


def test_centers_are_pairwise_distinct_and_capped():
    rng = np.random.default_rng(56)
    kern = WendlandC4(dim=2, gamma=0.5)
    points, values, grads = sample_bump(rng, 20, 2)
    result = run_vkoga(kern, points, values, grads, VkogaConfig(max_centers=7))
    assert len(result.steps) == 7
    idx = selected_indices(result)
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
    assert len(set(selected_indices(result)) & {6, 7}) == 1


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
    assert 3 not in selected_indices(result)
    assert 7 not in selected_indices(result)
    assert result.surrogate.variant == "structured"


def test_structured_run_requires_q_matrix():
    rng = np.random.default_rng(58)
    kern = StructuredKernel(WendlandC4(dim=2, gamma=0.5))
    points, values, grads = sample_bump(rng, 5, 2)
    with pytest.raises(ValueError, match="quadratic"):
        run_vkoga(kern, points, values, grads)
    with pytest.raises(ValueError, match="plain kernel takes no quadratic matrix"):
        run_vkoga(kern.base, points, values, grads, q_matrix=np.eye(2))


def test_structured_centers_are_where_the_square_root_data_is_defined():
    """With a semidefinite Q, a sample off the origin can have x^T Q x = 0;
    it stays in the scan but never becomes a center, as at the origin."""
    rng = np.random.default_rng(60)
    kern = StructuredKernel(WendlandC4(dim=2, gamma=0.5))
    points, values, grads = sample_bump(rng, 8, 2)
    points[2] = [0.0, 0.7]
    with pytest.warns(UserWarning, match="1 of 8 samples are not admissible"):
        result = run_vkoga(kern, points, values, grads, VkogaConfig(max_centers=8), q_matrix=np.diag([1.0, 0.0]))
    assert len(selected_indices(result)) == 7
    assert 2 not in selected_indices(result)


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
    # the factor preconditioner solves each step in one iteration
    assert [s.cg_iterations for s in result.steps] == [1] * 4
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
    assert list(rows[0]) == ["iteration", "index", "residual", "cg_iterations", "cg_residual"]


def test_structured_fit_of_quadratic_data_meets_cg_tol():
    """Samples of v(x) = q x^2, the quadratic model itself, along five decaying
    trajectories leave a structured right-hand side of rounding noise; cg_tol
    then holds against the square-root data, so CG does not stall on an
    unattainable target."""
    rng = np.random.default_rng(62)
    kern = StructuredKernel(WendlandC4(dim=1, gamma=1.0))
    q = np.sqrt(2.0) - 1.0
    decay = np.exp(-np.sqrt(2.0) * np.linspace(0.0, 10.0, 12))
    points = np.concatenate([x0 * decay for x0 in (-1.0, -0.5, 0.25, 0.75, 1.0)])[:, None]
    values = q * points[:, 0] ** 2 * (1.0 + 1e-13 * rng.normal(size=len(points)))
    grads = 2.0 * q * points * (1.0 + 1e-13 * rng.normal(size=points.shape))
    rhs, _ = assemble_rhs(values, grads, q_matrix=np.array([[q]]), centers=points)
    assert np.linalg.norm(rhs) < 1e-11
    config = VkogaConfig(max_centers=20, cg_tol=1e-9, nugget=1e-10)
    result = run_vkoga(kern, points, values, grads, config, q_matrix=np.array([[q]]))
    assert [s.cg_iterations for s in result.steps] == [1] * 20


def test_a_refit_that_misses_cg_tol_turns_its_sample_away(monkeypatch):
    """Sample 1, taken last, sits 0.007 from sample 0: its Schur block clears
    the factor's floor, but CG stalls at a relative residual near 1e-8.  The
    run warns, drops the sample and keeps the two centers before it, with no
    scan of the unchanged surrogate; every step it keeps meets its
    tolerance."""
    scans = counted_scans(monkeypatch)
    points = np.array([[0.732], [0.739], [0.037]])
    values = np.exp(-points[:, 0] ** 2)
    grads = -2.0 * points * values[:, None]
    q = np.array([[1.0]])
    config = VkogaConfig(max_centers=3, cg_tol=1e-10)
    with pytest.warns(UserWarning, match=r"sample 1 turned away: CG stalled at relative residual \d"):
        result = run_vkoga(StructuredKernel(WendlandC4(1, 0.5)), points, values, grads, config, q_matrix=q)
    assert selected_indices(result) == [0, 2]
    assert scans == [3] * 3
    np.testing.assert_array_equal(result.surrogate.centers, points[[0, 2]])
    for step in result.steps:
        chosen = selected_indices(result)[: step.iteration]
        rhs, data = assemble_rhs(values[chosen], grads[chosen], q_matrix=q, centers=points[chosen])
        scale = max(1.0, np.linalg.norm(data) / np.linalg.norm(rhs))
        assert step.cg_residual <= config.cg_tol * scale
    # a direct fit of all three still fails loudly
    order = [0, 2, 1]
    rhs, data = assemble_rhs(values[order], grads[order], q_matrix=q, centers=points[order])
    scale = max(1.0, np.linalg.norm(data) / np.linalg.norm(rhs))
    with pytest.raises(FitError, match="CG stalled"):
        fit(StructuredKernel(WendlandC4(1, 0.5)), points[order], rhs, cg_tol=config.cg_tol * scale)


def test_exact_copies_cost_no_rescan(monkeypatch):
    """The samples are scanned once at the start and once per accepted refit:
    an exact copy that the factor turns away leaves the surrogate, hence
    every score, as it was."""
    scans, appends = counted_scans(monkeypatch), []
    append = HermiteFactor.append

    def counted_append(self, center):
        appends.append(append(self, center))
        return appends[-1]

    monkeypatch.setattr(HermiteFactor, "append", counted_append)
    rng = np.random.default_rng(53)
    points, values, grads = sample_bump(rng, 6, 2)
    twice = np.concatenate([np.arange(6), np.arange(6)])
    result = run_vkoga(
        WendlandC4(dim=2, gamma=0.5), points[twice], values[twice], grads[twice], VkogaConfig(max_centers=12)
    )
    assert appends.count(False) > 0 and appends.count(True) == len(result.steps) == 6
    assert scans == [12] * (len(result.steps) + 1)


@settings(max_examples=40, deadline=None)
@given(
    dim=st.integers(1, 3),
    n=st.integers(1, 8),
    n_twins=st.integers(0, 3),
    structured=st.booleans(),
    nugget=st.sampled_from([0.0, 1e-3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_no_two_centers_are_closer_than_min_spacing(dim, n, n_twins, structured, nugget, seed):
    """Samples with injected pairs closer than MIN_SPACING: the greedy keeps
    at most one of each pair and fits the rest."""
    rng = np.random.default_rng(seed)
    points = centers_with_twins(rng, n, dim, n_twins)
    values = np.exp(-np.sum(points * points, axis=1))
    grads = -2.0 * points * values[:, None]
    base = WendlandC4(dim=dim, gamma=0.5)
    kern = StructuredKernel(base) if structured else base
    config = VkogaConfig(max_centers=len(points), cg_tol=1e-10, nugget=nugget)
    result = run_vkoga(kern, points, values, grads, config, q_matrix=np.eye(dim) if structured else None)
    idx = selected_indices(result)
    assert not any(i in idx and j in idx for i, j in close_pairs(points))
    assert close_pairs(result.surrogate.centers) == set()


@settings(max_examples=40, deadline=None)
@given(
    dim=st.integers(1, 3),
    n=st.integers(1, 10),
    n_copies=st.integers(1, 6),
    structured=st.booleans(),
    nugget=st.sampled_from([0.0, 1e-3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_exact_copies_of_samples_change_nothing(dim, n, n_copies, structured, nugget, seed):
    """Exact copies of random sample rows, appended after the originals, leave
    the centers and the fit bitwise as they were: the factor turns away a
    copy of a center.  A copy can outscore its original in the last bit (the
    batch evaluation rounds by row position), so a step may take the copy's
    index instead of the original's, never both."""
    rng = np.random.default_rng(seed)
    points = lattice_centers(rng, n, dim, avoid_origin=structured)
    values = np.exp(-np.sum(points * points, axis=1))
    grads = -2.0 * points * values[:, None]
    copies = rng.integers(0, len(points), size=n_copies)
    base = WendlandC4(dim=dim, gamma=0.5)
    kern = StructuredKernel(base) if structured else base
    q_matrix = np.eye(dim) if structured else None
    # a budget the originals cannot fill, so the greedy also reaches the copies
    config = VkogaConfig(max_centers=len(points) + n_copies, cg_tol=1e-10, nugget=nugget)
    alone = run_vkoga(kern, points, values, grads, config, q_matrix=q_matrix)
    padded = run_vkoga(
        kern,
        np.concatenate([points, points[copies]]),
        np.concatenate([values, values[copies]]),
        np.concatenate([grads, grads[copies]]),
        config,
        q_matrix=q_matrix,
    )
    source = np.concatenate([np.arange(len(points)), copies])
    assert [int(source[i]) for i in selected_indices(padded)] == selected_indices(alone)
    assert [s.iteration for s in padded.steps] == [s.iteration for s in alone.steps]
    np.testing.assert_array_equal(padded.surrogate.centers, alone.surrogate.centers)
    np.testing.assert_array_equal(padded.surrogate.alphas, alone.surrogate.alphas)
    np.testing.assert_array_equal(padded.surrogate.betas, alone.surrogate.betas)
