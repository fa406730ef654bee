import json
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
from helpers import c_max_state, c_max_value, farthest_first_visits, prefix, start_states
from vfcontrol.cli import ConfigError, load_config
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
from vfcontrol.models import NheParameters, build_amp, build_linear, build_nhe, hjb_residual
from vfcontrol.openloop import OpenLoopConfig, Trajectory, solve_open_loop, to_trajectory
from vfcontrol.riccati import quadratic_matrix

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

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
def test_sobol_limits_are_config_errors_naming_the_spec(tmp_path, dim, n, reason):
    cfg = json.loads((CONFIGS / "amp.json").read_text())
    cfg["explore"]["candidates"] = {"kind": "sobol", "bounds": [[-1.0, 1.0]] * dim, "n": n, "seed": 5}
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    with pytest.raises(ConfigError) as err:
        load_config(tmp_path / "config.json")
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
            "newton_iterations", "line_search_halvings", "chord_steps", "shared_start", "refine_rounds", "max_defect",
            "hjb_margin",
        }
        # a solve that starts on the factor its predecessor kept may take no factorization of its own
        steps = solve["newton_iterations"] + (solve["chord_steps"] if solve["shared_start"] else 0)
        assert steps >= 1 and solve["refine_rounds"] == 0
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


def spy_on_guesses(monkeypatch):
    """Record every ``openloop.initial_guess`` call as (starts, guesses)."""
    calls = []
    real = openloop.initial_guess

    def recorded(model, starts, taus, q_matrix):
        guesses = real(model, starts, taus, q_matrix)
        calls.append((np.array(starts), guesses))
        return guesses

    monkeypatch.setattr(openloop, "initial_guess", recorded)
    return calls


SOLVER_COUNTS = ("newton_iterations", "line_search_halvings", "chord_steps", "shared_start", "refine_rounds")


def test_each_stored_trajectory_is_its_own_solve(monkeypatch):
    """Exploration adds nothing to a solve but the batch its guess was rolled
    out in and the factor the solve before it kept on the initial mesh:
    every stored trajectory, and its every solver count, is bit for bit the
    solve from its start and its row of the batch guess, handed a holder
    that the solves before it filled in the same order.  A lone solve, whose
    guess is rolled out alone and which factors for itself, takes the same
    refinement rounds and at least the same factorizations, and agrees to
    1e-12 relative."""
    cfg = load_config(CONFIGS / "lqr.json")
    model, config, candidates = cfg.model, cfg.explore, cfg.candidates
    qm = quadratic_matrix(model)
    calls = spy_on_guesses(monkeypatch)
    data = run_exploration(model, candidates, qm, config)
    assert data.n_trajectories == config.n_trajectories
    # no quarantine: one batch, the farthest-first order of the whole budget
    ((starts, guesses),) = calls
    order, _ = farthest_point_order(candidates, config.n_trajectories)
    np.testing.assert_array_equal(starts, candidates[order])
    np.testing.assert_array_equal(start_states(data), starts)
    shared = openloop.SharedFactor()
    for traj, solve, guess in zip(data.trajectories, data.meta["solves"], guesses):
        replay = solve_open_loop(model, traj.x0, qm, config.solver, guess=guess, shared=shared)
        batched = to_trajectory(replay, samples=config.solver.samples, horizon=config.horizon)
        assert {name: getattr(replay, name) for name in SOLVER_COUNTS} == {name: solve[name] for name in SOLVER_COUNTS}
        lone_sol = solve_open_loop(model, traj.x0, qm, config.solver)
        lone = to_trajectory(lone_sol, samples=config.solver.samples, horizon=config.horizon)
        assert lone_sol.refine_rounds == solve["refine_rounds"]
        assert lone_sol.newton_iterations >= solve["newton_iterations"]
        for name in ("x0", "times", "states", "grads", "values"):
            np.testing.assert_array_equal(getattr(traj, name), getattr(batched, name), err_msg=name)
            stored, alone = getattr(traj, name), getattr(lone, name)
            assert stored.shape == alone.shape, name
            assert np.max(np.abs(stored - alone), initial=0.0) <= 1e-12 * np.max(np.abs(alone), initial=0.0), name


# lqr on a 5 x 5 grid: which farthest-first picks fail, by their place in the
# order of a run without failures (0 the first pick); the first batch holds
# picks 0 to 5
QUARANTINE_CASES = {
    "second pick": [1],
    "second and fourth picks": [1, 3],
    "a run of three": [2, 3, 4],
    "the last planned pick": [5],
    "every other pick": [0, 2, 4, 6, 8],
}


@pytest.mark.parametrize("case", QUARANTINE_CASES)
def test_quarantines_keep_the_one_at_a_time_order(case, monkeypatch):
    """Solves forced to fail mid-batch leave the visit order, eps_history and
    quarantine list of the one-at-a-time loop; the replanned batches reuse
    the guesses already made, so no start is guessed twice and the guessed
    rows are at most the distinct starts of every plan the run could make."""
    model = build_linear([[0.0, 1.0], [-1.0, -0.5]], [[0.0], [1.0]])
    qm = quadratic_matrix(model)
    config = ExploreConfig(n_trajectories=6, solver=OpenLoopConfig(n_nodes=40, refine_rounds=0, samples=6))
    candidates = candidate_grid([(-1.0, 1.0)] * 2, 5)
    unperturbed, _ = farthest_first_visits(candidates, config.n_trajectories + 4, config.eps_tol_d, set())
    doomed = {unperturbed[k] for k in QUARANTINE_CASES[case]}

    visits = []
    real_solve = explore.solve_open_loop

    def solve(model, x0, q_matrix, solver, *, guess, shared):
        (index,) = np.flatnonzero(np.all(candidates == x0, axis=1))
        visits.append(int(index))
        if index in doomed:
            raise openloop.BvpFailure("forced failure")
        return real_solve(model, x0, q_matrix, solver, guess=guess, shared=shared)

    monkeypatch.setattr(explore, "solve_open_loop", solve)
    calls = spy_on_guesses(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        data = run_exploration(model, candidates, qm, config)

    expected_visits, expected_eps = farthest_first_visits(candidates, config.n_trajectories, config.eps_tol_d, doomed)
    assert visits == expected_visits
    assert data.eps_history == expected_eps
    assert [entry["index"] for entry in data.meta["quarantined"]] == [i for i in visits if i in doomed]
    np.testing.assert_array_equal(start_states(data), candidates[[i for i in visits if i not in doomed]])

    guessed = [int(np.flatnonzero(np.all(candidates == row, axis=1))[0]) for starts, _ in calls for row in starts]
    assert len(guessed) == len(set(guessed)) and set(visits) <= set(guessed)
    # the plan after each quarantine is the one-at-a-time order with the
    # failures so far, so every plan lies in the union of those orders
    failed = [i for i in visits if i in doomed]
    planned = set()
    for j in range(len(failed) + 1):
        planned.update(farthest_first_visits(candidates, config.n_trajectories, config.eps_tol_d, set(failed[:j]))[0])
    assert len(guessed) <= len(planned)
    assert len(calls) <= 1 + len(failed)


def counted_factorizations(monkeypatch):
    """A list that gets one entry per banded LU ``openloop.splu`` runs."""
    calls = []
    real = openloop.splu

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(openloop, "splu", counting)
    return calls


def nhe_exploration_case():
    """(model, quadratic matrix, candidates, config) of an nhe exploration on a
    3 x 3 grid whose four picks pass their checks."""
    model = build_nhe(NheParameters(grid_side=3))
    solver = OpenLoopConfig(n_nodes=60, refine_rounds=1, refine_tol=1e-6, samples=10)
    return model, quadratic_matrix(model), candidate_modes(3), ExploreConfig(n_trajectories=4, horizon=3.0, solver=solver)


def test_an_nhe_exploration_factors_fewer_times_than_it_has_meshes(monkeypatch):
    """On nhe the collocation Jacobian barely changes from one start to the
    next, so every solve after the first converges on the initial mesh by
    chord steps on the factor the one before it kept there: the exploration
    takes fewer factorizations than it has meshes, one per refined mesh and
    one for the first initial mesh."""
    model, qm, candidates, config = nhe_exploration_case()
    calls = counted_factorizations(monkeypatch)
    data = run_exploration(model, candidates, qm, config)
    solves = data.meta["solves"]
    assert data.n_trajectories == config.n_trajectories and data.meta["quarantined"] == []
    meshes = sum(solve["refine_rounds"] + 1 for solve in solves)
    assert len(calls) == sum(solve["newton_iterations"] for solve in solves) < meshes
    assert [solve["shared_start"] for solve in solves] == [False] + [True] * (config.n_trajectories - 1)
    assert len(calls) == solves[0]["newton_iterations"] + sum(solve["refine_rounds"] for solve in solves[1:])


def test_after_the_first_turned_down_shared_step_the_solves_are_unshared(monkeypatch):
    """On amp (the bench's amp2d exploration at seed 11) the second solve
    converges on the first one's factor, and the third turns the factor the
    second kept down.  From that strike on the exploration shares nothing:
    the third solve starts over unshared, and it and every later solve are
    bit for bit the solve from the same guess without a holder, in the
    trajectory and in every count but the third's chord steps, which
    include the turned-down one."""
    model = build_amp()
    qm = quadratic_matrix(model)
    solver = OpenLoopConfig(n_nodes=240, delta_tau=1e-5, refine_rounds=3, refine_tol=1e-8, samples=40)
    config = ExploreConfig(n_trajectories=6, horizon=99.0, solver=solver)
    calls = spy_on_guesses(monkeypatch)
    data = run_exploration(model, candidate_sobol([(-1.0, 1.0)] * 2, 512, seed=11), qm, config)
    assert data.n_trajectories == config.n_trajectories
    ((_, guesses),) = calls
    solves = data.meta["solves"]
    assert [solve["shared_start"] for solve in solves] == [False, True, True, False, False, False]
    for k, (traj, solve, guess) in enumerate(zip(data.trajectories, solves, guesses)):
        alone = solve_open_loop(model, traj.x0, qm, solver, guess=guess)
        counts = {name: getattr(alone, name) for name in SOLVER_COUNTS}
        if k == 1:
            # converged on the shared factor: no factorization on the initial mesh
            assert solve["newton_iterations"] < alone.newton_iterations
            continue
        if k == 2:
            counts.update(chord_steps=alone.chord_steps + 1, shared_start=True)
        assert {name: solve[name] for name in SOLVER_COUNTS} == counts, k
        unshared = to_trajectory(alone, samples=solver.samples, horizon=config.horizon)
        for name in ("times", "states", "grads", "values"):
            np.testing.assert_array_equal(getattr(traj, name), getattr(unshared, name), err_msg=f"{k} {name}")


def test_two_calls_in_one_process_give_byte_identical_results(tmp_path):
    """The holder lives for one call: a second exploration, and a second
    test set, in the same process start without a factor and repeat the
    first bit for bit."""
    model, qm, candidates, config = nhe_exploration_case()
    paths = [tmp_path / "first.json", tmp_path / "second.json"]
    for path in paths:
        save_dataset(run_exploration(model, candidates, qm, config), path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    first, second = (solve_testset(model, candidates[[3, 400, 700]], qm, config.solver) for _ in range(2))
    assert [sol.shared_start for sol in first] == [False, True, True]
    for a, b in zip(first, second):
        assert a.z.tobytes() == b.z.tobytes() and a.taus.tobytes() == b.taus.tobytes()
        assert {name: getattr(a, name) for name in SOLVER_COUNTS} == {name: getattr(b, name) for name in SOLVER_COUNTS}
