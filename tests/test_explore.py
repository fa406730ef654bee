import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import vfcontrol.explore as explore
import vfcontrol.openloop as openloop
from helpers import c_max_state, c_max_value, prefix, start_states
from vfcontrol.cli import ConfigError, candidates_from_config, explore_from_config, load_config, model_from_config
from vfcontrol.explore import (
    Dataset,
    ExploreConfig,
    candidate_grid,
    candidate_modes,
    candidate_sobol,
    farthest_point_order,
    load_dataset,
    run_exploration,
    save_dataset,
    solve_testset,
)
from vfcontrol.models import build_linear, hjb_residual
from vfcontrol.openloop import OpenLoopConfig, Trajectory, solve_open_loop, to_trajectory
from vfcontrol.riccati import quadratic_matrix


@pytest.fixture(scope="module")
def lqr_setup():
    model = build_linear([[-1.0]], [[1.0]])
    qm = quadratic_matrix(model)
    solver = OpenLoopConfig(n_nodes=60, refine_rounds=0, samples=8)
    return model, qm, solver


def test_candidate_grid_covers_the_box():
    pts = candidate_grid([(-1.0, 1.0), (0.0, 2.0)], 3)
    assert pts.shape == (9, 2)
    np.testing.assert_array_equal(pts[0], [-1.0, 0.0])
    np.testing.assert_array_equal(pts[-1], [1.0, 2.0])
    assert np.min(pts[:, 0]) == -1.0 and np.max(pts[:, 1]) == 2.0


def test_candidate_sobol_is_seeded_and_bounded():
    a = candidate_sobol([(-1.0, 1.0)] * 2, 32, seed=9)
    b = candidate_sobol([(-1.0, 1.0)] * 2, 32, seed=9)
    c = candidate_sobol([(-1.0, 1.0)] * 2, 32, seed=10)
    np.testing.assert_array_equal(a, b)
    assert np.any(a != c)
    assert a.shape == (32, 2)
    assert np.all(np.abs(a) <= 1.0)


# seeds of the bench's data draws (11, 77 and both shifted by 2^20) among others
SOBOL_SEEDS = [0, 1, 2, 3, 9, 10, 11, 77, 11 + 2**20, 77 + 2**20, 12345, 2**31 - 1, 2**40 + 5, *range(100, 120)]
SOBOL_COUNTS = [0, 1, 2, 3, 5, 256, 512, 1000]


def user_warnings(caught) -> list[str]:
    return [str(w.message) for w in caught if issubclass(w.category, UserWarning)]


@pytest.mark.parametrize("dim", range(1, 17))
def test_candidate_sobol_is_scipys_scrambled_sobol_bit_for_bit(dim):
    from scipy.stats import qmc

    bounds = np.array([(-1.0, 1.0)] * dim)
    bounds[0] = (0.5, 3.0)
    width = bounds[:, 1] - bounds[:, 0]
    for seed in SOBOL_SEEDS:
        for n in SOBOL_COUNTS:
            with warnings.catch_warnings(record=True) as theirs:
                warnings.simplefilter("always")
                expected = bounds[:, 0] + qmc.Sobol(dim, scramble=True, seed=seed).random(n) * width
            with warnings.catch_warnings(record=True) as ours:
                warnings.simplefilter("always")
                got = candidate_sobol(bounds, n, seed)
            assert got.shape == expected.shape and got.dtype == expected.dtype
            assert np.array_equal(got, expected), (seed, n)
            # both warn that n is not a power of 2, in the same words
            assert user_warnings(ours) == user_warnings(theirs)
            assert len(user_warnings(ours)) == (n in (3, 5, 1000))


# (dimension, count, what the error says); the count is checked before
# anything is drawn, so 2^30 + 1 allocates nothing
SOBOL_LIMITS = [(0, 8, "1 to 16 dimensions"), (17, 8, "1 to 16 dimensions"), (2, 2**30 + 1, "at most 2**30")]


@pytest.mark.parametrize("dim, n, reason", SOBOL_LIMITS)
def test_candidate_sobol_rejects_what_its_table_and_bits_cannot_draw(dim, n, reason):
    with pytest.raises(ValueError, match=re.escape(reason)):
        candidate_sobol([(-1.0, 1.0)] * dim, n, seed=0)


@pytest.mark.parametrize("dim, n, reason", SOBOL_LIMITS)
def test_sobol_limits_are_config_errors_naming_the_spec(dim, n, reason):
    spec = {"kind": "sobol", "bounds": [[-1.0, 1.0]] * dim, "n": n, "seed": 5}
    with pytest.raises(ConfigError) as err:
        candidates_from_config(spec, model=None)
    assert "sobol" in str(err.value) and reason in str(err.value)
    assert f'"n": {n}' in str(err.value)


def test_candidate_modes_count_and_range():
    fields = candidate_modes(6)
    assert fields.shape == (7 * 7 * 2 * 2 * 2 * 2, 36)
    assert np.all(np.isfinite(fields))
    # amplitudes bound the fields: each term is amp * (products of squares in [0, 1])
    assert np.min(fields) >= -0.5 - 1e-12
    assert np.max(fields) <= 1.0 + 1e-12


def test_farthest_point_order_on_the_square_corners():
    corners = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [0.1, 0.0]])
    idx, dist = farthest_point_order(corners, 5)
    # all corners tie at distance sqrt(2) from the origin seed; lowest index wins
    assert idx[0] == 0
    assert dist[0] == pytest.approx(np.sqrt(2.0))
    assert np.all(np.diff(dist) <= 1e-12)
    # the near-origin point comes last
    assert idx[-1] == 4
    assert len(set(idx.tolist())) == 5


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_farthest_point_order_holds_for_generated_candidates(data):
    """Distinct picks with non-increasing selection distances, duplicates
    and ties included."""
    dim = data.draw(st.integers(1, 3))
    # a coarse grid of coordinates makes duplicate candidates and ties common
    coords = st.sampled_from(np.linspace(-2.0, 2.0, 9))
    candidates = data.draw(arrays(float, (data.draw(st.integers(1, 25)), dim), elements=coords))
    n_select = data.draw(st.integers(0, 30))
    idx, dist = farthest_point_order(candidates, n_select)
    assert idx.size == dist.size <= min(n_select, candidates.shape[0])
    assert len(set(idx.tolist())) == idx.size
    assert np.all(np.diff(dist) <= 0.0)


def test_exploration_picks_far_candidates_first(lqr_setup):
    model, qm, solver = lqr_setup
    candidates = np.linspace(-1.0, 1.0, 9)[:, None]
    config = ExploreConfig(n_trajectories=4, solver=solver)
    data = run_exploration(model, candidates, qm, config)
    assert data.n_trajectories == 4
    # starts: +-1 first (tie toward the lower index), then the gap midpoints
    starts = start_states(data)[:, 0]
    assert abs(starts[0]) == 1.0 and abs(starts[1]) == 1.0
    assert np.all(np.diff(data.eps_history) <= 1e-12)
    assert data.meta["model"] == "lqr"
    assert data.meta["quarantined"] == []
    assert data.meta["eps_achieved"] <= data.eps_history[-1]


def test_exploration_stops_at_the_coverage_tolerance(lqr_setup):
    """A tolerance already met by the origin seed is a clean stop, not an
    under-budget anomaly: empty dataset, no warning."""
    model, qm, solver = lqr_setup
    candidates = np.linspace(-1.0, 1.0, 9)[:, None]
    config = ExploreConfig(n_trajectories=9, eps_tol_d=2.0, solver=solver)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        data = run_exploration(model, candidates, qm, config)
    assert data.n_trajectories == 0
    assert data.eps_history == []
    assert data.meta["eps_achieved"] == pytest.approx(1.0)
    pts, vals, gds = data.flattened()
    assert pts.shape == (0, 1) and vals.shape == (0,) and gds.shape == (0, 1)


def test_exploration_quarantines_failed_solves(lqr_setup, monkeypatch):
    model, qm, _ = lqr_setup
    candidates = np.array([[1.0], [-1.0]])
    monkeypatch.setattr(openloop, "NEWTON_MAX_ITER", 0)
    config = ExploreConfig(n_trajectories=2, solver=OpenLoopConfig(n_nodes=60, refine_rounds=0))
    with pytest.warns(UserWarning, match="exploration produced"):
        data = run_exploration(model, candidates, qm, config)
    assert data.n_trajectories == 0
    assert len(data.meta["quarantined"]) == 2
    for entry in data.meta["quarantined"]:
        assert "Newton" in entry["reason"] or "residual" in entry["reason"]


def test_exploration_quarantines_residual_violations(lqr_setup, monkeypatch):
    model, qm, solver = lqr_setup
    candidates = np.array([[1.0]])
    monkeypatch.setattr(explore, "HJB_TOL", 1e-18)
    config = ExploreConfig(n_trajectories=1, solver=solver)
    with pytest.warns(UserWarning):
        data = run_exploration(model, candidates, qm, config)
    assert data.n_trajectories == 0
    assert len(data.meta["quarantined"]) == 1
    assert "residual" in data.meta["quarantined"][0]["reason"]


def test_hjb_margin_is_the_worst_residual_over_its_bound(lqr_setup, monkeypatch):
    """Each stored solve records the largest ratio of a sample's HJB residual
    to its bound; a tolerance that ratio exceeds fourfold quarantines the
    trajectory with a reason that says so."""
    model, qm, solver = lqr_setup
    config = ExploreConfig(n_trajectories=1, solver=solver)
    data = run_exploration(model, np.array([[1.0]]), qm, config)
    (traj,), (solve,) = data.trajectories, data.meta["solves"]
    resid = np.abs(hjb_residual(model, traj.states, traj.grads))
    margin = float(np.max(resid / (explore.HJB_TOL * (1.0 + model.r(traj.states)))))
    assert solve["hjb_margin"] == margin
    assert 0.0 < margin <= 1.0
    monkeypatch.setattr(explore, "HJB_TOL", explore.HJB_TOL * margin / 4.0)
    with pytest.warns(UserWarning, match="exploration produced"):
        quarantined = run_exploration(model, np.array([[1.0]]), qm, config)
    assert quarantined.meta["quarantined"] == [{"index": 0, "reason": "residual check failed (4.00x over the bound)"}]


def test_flattened_keeps_every_sample_and_appends_the_origin():
    """A sample repeated across trajectories stays in the flattened data, in
    trajectory order; the greedy fit, not the dataset, turns duplicates away."""
    traj = Trajectory(
        x0=np.array([1.0, 0.0]),
        times=np.array([0.0, 1.0]),
        states=np.array([[1.0, 0.0], [0.5, 0.0]]),
        grads=np.array([[2.0, 0.0], [1.0, 0.0]]),
        values=np.array([3.0, 1.0]),
    )
    dup = Trajectory(
        x0=np.array([0.5, 0.0]),
        times=np.array([0.0]),
        states=np.array([[0.5, 0.0]]),
        grads=np.array([[1.0, 0.0]]),
        values=np.array([1.0]),
    )
    data = Dataset(dim=2, trajectories=[traj, dup])
    pts, vals, gds = data.flattened()
    np.testing.assert_array_equal(pts, [[1.0, 0.0], [0.5, 0.0], [0.5, 0.0]])
    np.testing.assert_array_equal(vals, [3.0, 1.0, 1.0])
    np.testing.assert_array_equal(gds, [[2.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    pts, vals, gds = data.flattened(include_origin=True)
    assert pts.shape == (4, 2)
    np.testing.assert_array_equal(pts[-1], [0.0, 0.0])
    assert vals[-1] == 0.0
    np.testing.assert_array_equal(gds[-1], [0.0, 0.0])
    assert data.n_samples == 3
    assert c_max_state(data) == pytest.approx(1.0)
    assert c_max_value(data) == pytest.approx(5.0)
    empty = Dataset(dim=2).flattened(include_origin=True)
    assert [a.shape for a in empty] == [(1, 2), (1,), (1, 2)]


def test_prefix_truncates_in_selection_order(lqr_setup):
    model, qm, solver = lqr_setup
    candidates = np.linspace(-1.0, 1.0, 7)[:, None]
    data = run_exploration(model, candidates, qm, ExploreConfig(n_trajectories=5, solver=solver))
    head = prefix(data, 2)
    assert head.n_trajectories == 2
    np.testing.assert_array_equal(start_states(head), start_states(data)[:2])
    assert head.eps_history == data.eps_history[:2]
    assert head.meta["model"] == "lqr"
    assert head.meta["solves"] == data.meta["solves"][:2]


def test_dataset_roundtrips_through_json(tmp_path, lqr_setup):
    model, qm, solver = lqr_setup
    candidates = np.linspace(-1.0, 1.0, 5)[:, None]
    data = run_exploration(model, candidates, qm, ExploreConfig(n_trajectories=3, solver=solver))
    path = tmp_path / "data.json"
    save_dataset(data, path)
    again = load_dataset(path)
    assert again.dim == data.dim
    assert again.n_trajectories == data.n_trajectories
    assert again.eps_history == data.eps_history
    assert again.meta["model"] == "lqr"
    # the solver counters of every stored trajectory survive exactly
    assert len(data.meta["solves"]) == data.n_trajectories
    for solve in data.meta["solves"]:
        assert set(solve) == {
            "newton_iterations", "line_search_halvings", "chord_steps", "refine_rounds", "max_defect", "hjb_margin"
        }
        assert solve["newton_iterations"] >= 1 and solve["refine_rounds"] == 0
        assert solve["line_search_halvings"] >= 0 and solve["chord_steps"] >= 0
        assert 0.0 < solve["max_defect"] < 1.0
        assert 0.0 <= solve["hjb_margin"] <= 1.0
    assert again.meta["solves"] == data.meta["solves"]
    for a, b in zip(again.trajectories, data.trajectories):
        np.testing.assert_array_equal(a.states, b.states)
        np.testing.assert_array_equal(a.values, b.values)
    # saving again is byte-identical
    path2 = tmp_path / "data2.json"
    save_dataset(again, path2)
    assert path.read_bytes() == path2.read_bytes()


@st.composite
def datasets(draw):
    """Datasets of generated trajectories over any finite doubles."""
    dim = draw(st.integers(1, 4))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    trajectories = []
    for _ in range(draw(st.integers(0, 4))):
        k = draw(st.integers(1, 6))
        trajectories.append(
            Trajectory(
                x0=draw(arrays(float, dim, elements=finite)),
                times=draw(arrays(float, k, elements=finite)),
                states=draw(arrays(float, (k, dim), elements=finite)),
                grads=draw(arrays(float, (k, dim), elements=finite)),
                values=draw(arrays(float, k, elements=finite)),
            )
        )
    eps = draw(st.lists(finite, min_size=len(trajectories), max_size=len(trajectories)))
    return Dataset(dim=dim, trajectories=trajectories, eps_history=eps, meta={"model": "generated"})


@settings(max_examples=40, deadline=None)
@given(datasets())
def test_save_load_roundtrips_generated_datasets_bit_for_bit(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("data") / "data.json"
    save_dataset(data, path)
    again = load_dataset(path)
    assert again.dim == data.dim and again.meta == data.meta
    assert np.asarray(again.eps_history).tobytes() == np.asarray(data.eps_history).tobytes()
    assert again.n_trajectories == data.n_trajectories
    for a, b in zip(again.trajectories, data.trajectories):
        for name in ("x0", "times", "states", "grads", "values"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.shape == y.shape and x.tobytes() == y.tobytes(), name


def test_load_dataset_rejects_unknown_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"schema": "other", "dim": 1, "eps_history": [], "trajectories": []}\n')
    with pytest.raises(ValueError, match="schema"):
        load_dataset(path)


def test_testset_solves_match_exploration_quality(lqr_setup):
    model, qm, solver = lqr_setup
    refs = solve_testset(model, np.array([[0.5], [-0.25]]), qm, solver)
    assert len(refs) == 2
    q = qm[0, 0]
    assert refs[0].values[0] == pytest.approx(q * 0.25, abs=1e-7)
    assert refs[1].values[0] == pytest.approx(q * 0.0625, abs=1e-7)


def test_each_stored_trajectory_is_its_own_solve():
    """Exploration adds nothing to a solve: every stored trajectory is bit for
    bit the one a lone solve from its start state gives."""
    cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / "lqr.json")
    model = model_from_config(cfg)
    qm = quadratic_matrix(model)
    config = explore_from_config(cfg)
    candidates = candidates_from_config(cfg["explore"]["candidates"], model)
    data = run_exploration(model, candidates, qm, config)
    assert data.n_trajectories == config.n_trajectories
    for traj in data.trajectories:
        alone = to_trajectory(
            solve_open_loop(model, traj.x0, qm, config.solver),
            samples=config.solver.samples,
            horizon=config.horizon,
        )
        for name in ("x0", "times", "states", "grads", "values"):
            np.testing.assert_array_equal(getattr(traj, name), getattr(alone, name), err_msg=name)
