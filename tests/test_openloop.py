import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import vfcontrol.openloop as openloop
from helpers import band_jacobian_reference
from vfcontrol.models import (
    AmpParameters,
    NheParameters,
    build_amp,
    build_linear,
    build_nhe,
    nhe_node_coords,
    optimal_control,
    pmp_rhs,
)
from vfcontrol.numerics import FD_STEP, fd_jacobian, integrate_ivp
from vfcontrol.openloop import (
    NEWTON_TOL,
    BvpFailure,
    OpenLoopConfig,
    SharedFactor,
    _assemble_jacobian,
    bvp_residual,
    graded_mesh,
    initial_guess,
    initial_mesh,
    solve_open_loop,
    solve_pmp,
    time_stretch,
    time_stretch_rate,
    to_trajectory,
)
from vfcontrol.riccati import quadratic_matrix


@pytest.fixture(scope="module")
def scalar_lqr():
    model = build_linear([[-1.0]], [[1.0]])
    qm = quadratic_matrix(model)
    config = OpenLoopConfig(n_nodes=160, delta_tau=1e-4, refine_rounds=1, refine_tol=1e-9)
    sol = solve_open_loop(model, np.array([0.8]), qm, config)
    return model, qm, config, sol


def test_time_stretch_midpoint():
    assert time_stretch(0.0) == 0.0
    assert time_stretch(0.5) == pytest.approx(1.0)
    assert time_stretch_rate(0.5) == pytest.approx(4.0)
    taus = np.linspace(0.0, 0.99, 50)
    t = time_stretch(taus)
    assert np.all(np.diff(t) > 0)
    h = 1e-7
    fd = (time_stretch(taus + h) - time_stretch(np.clip(taus - h, 0.0, None))) / (2 * h)
    fd[0] = (time_stretch(h) - time_stretch(0.0)) / h
    np.testing.assert_allclose(time_stretch_rate(taus), fd, rtol=1e-5)


def test_graded_mesh_shape_and_monotonicity():
    taus = graded_mesh(30, tau_end=0.999)
    assert taus.size == 31
    assert taus[0] == 0.0
    assert taus[-1] == pytest.approx(0.999)
    steps = np.diff(taus)
    assert np.all(steps > 0)
    # graded toward both ends
    assert steps[0] < steps[15] and steps[-1] < steps[15]
    with pytest.raises(ValueError):
        graded_mesh(1)


def test_n_nodes_counts_the_intervals_of_the_initial_mesh():
    """``n_nodes`` is the number of mesh intervals, as README says: 120 gives
    121 nodes.  Counting nodes instead would move every dataset."""
    assert initial_mesh(OpenLoopConfig(n_nodes=120)).shape == (121,)


def test_scalar_lqr_matches_the_closed_form(scalar_lqr):
    """x' = -x + u with unit weights: q = sqrt(2)-1, closed loop decays at
    rate sqrt(2), costate and value follow the quadratic model exactly."""
    model, qm, config, sol = scalar_lqr
    q = qm[0, 0]
    assert q == pytest.approx(np.sqrt(2.0) - 1.0, rel=1e-12)
    t = sol.times
    x_ref = 0.8 * np.exp(-np.sqrt(2.0) * t)
    assert np.max(np.abs(sol.states[:, 0] - x_ref)) <= 1e-8
    assert np.max(np.abs(sol.costates[:, 0] - 2.0 * q * x_ref)) <= 1e-8
    assert np.max(np.abs(sol.values - q * x_ref**2)) <= 1e-8


def test_terminal_state_reaches_the_closure_tolerance(scalar_lqr):
    model, qm, config, sol = scalar_lqr
    scale = 1.0 + float(np.max(np.abs(sol.z)))
    assert abs(sol.values[-1]) <= 10 * NEWTON_TOL * scale
    assert np.linalg.norm(sol.costates[-1]) <= 10 * NEWTON_TOL * scale
    # the value decreases along the trajectory and stays nonnegative
    assert np.all(np.diff(sol.values) <= 1e-12)
    assert np.all(sol.values >= -1e-14)


def test_value_error_shrinks_under_mesh_doubling():
    model = build_linear([[-1.0]], [[1.0]])
    qm = quadratic_matrix(model)
    q = qm[0, 0]
    errs = []
    for n in (40, 80, 160):
        config = OpenLoopConfig(n_nodes=n, delta_tau=1e-4, refine_rounds=0)
        sol = solve_open_loop(model, np.array([0.8]), qm, config)
        errs.append(abs(sol.values[0] - q * 0.64))
    assert errs[1] <= errs[0] / 4
    assert errs[2] <= errs[1] / 4


def test_value_is_consistent_with_the_accumulated_cost(scalar_lqr):
    """v(0) equals the running cost integrated along the solution plus the
    value at any later node, up to quadrature error on the node grid."""
    model, qm, config, sol = scalar_lqr
    u = np.array([optimal_control(model, x, p) for x, p in zip(sol.states, sol.costates)])
    integrand = np.array(
        [model.r(x) + float(ui @ model.R @ ui) for x, ui in zip(sol.states, u)]
    )
    t = sol.times
    cumulative = np.concatenate(
        [[0.0], np.cumsum(0.5 * (integrand[1:] + integrand[:-1]) * np.diff(t))]
    )
    recovered = cumulative + sol.values
    # the bound is the composite-trapezoid floor on this node grid, not the
    # accuracy of the solve itself
    assert np.max(np.abs(recovered - sol.values[0])) <= 1e-4 * (1.0 + sol.values[0])


def test_trajectory_thinning_respects_the_horizon(scalar_lqr):
    model, qm, config, sol = scalar_lqr
    traj = to_trajectory(sol, samples=12, horizon=5.0)
    assert traj.times[0] == 0.0
    assert traj.values[0] == pytest.approx(sol.values[0])
    assert np.all(traj.times <= 5.0)
    assert np.all(np.diff(traj.times) > 0)
    assert len(traj) <= 12
    np.testing.assert_array_equal(traj.x0, sol.states[0])


def test_trajectory_thinning_handles_a_stationary_solution():
    model = build_linear([[-1.0]], [[1.0]])
    qm = quadratic_matrix(model)
    config = OpenLoopConfig(n_nodes=40, refine_rounds=0)
    sol = solve_open_loop(model, np.array([0.0]), qm, config)
    traj = to_trajectory(sol, samples=10)
    assert len(traj) == 1
    assert traj.values[0] == pytest.approx(0.0, abs=1e-12)


def test_newton_budget_failure_names_the_residual(monkeypatch):
    model = build_amp()
    qm = quadratic_matrix(model)
    monkeypatch.setattr(openloop, "NEWTON_MAX_ITER", 1)
    config = OpenLoopConfig(n_nodes=60, refine_rounds=0)
    with pytest.raises(BvpFailure) as err:
        solve_open_loop(model, np.array([0.9, 0.3]), qm, config)
    assert np.isfinite(err.value.residual)
    assert err.value.iterations >= 1


def test_initial_guess_shape_and_anchoring():
    model = build_amp()
    qm = quadratic_matrix(model)
    taus = graded_mesh(50)
    z = initial_guess(model, np.array([[1.0, 0.0]]), taus, qm)[0]
    assert z.shape == (51, 5)
    assert np.all(np.isfinite(z))
    np.testing.assert_array_equal(z[0, :2], [1.0, 0.0])
    # the rollout contracts toward the origin
    assert np.linalg.norm(z[-1, :2]) < 1.0


def test_initial_guess_pads_with_zeros_after_an_escape():
    """With the sign of the quadratic model flipped, the feedback u = +q x
    drives x' = x / 2 + u away from the origin: the rollout leaves the radius
    10 (1 + |x0|) after node 22 of 41, and every later node is zero."""
    model = build_linear([[0.5]], [[1.0]])
    qm = -quadratic_matrix(model)
    x0 = np.array([1.0])
    z = initial_guess(model, x0[None], graded_mesh(40), qm)[0]
    assert z.shape == (41, 3)
    np.testing.assert_array_equal(z[0, :1], x0)
    before, after = z[:23], z[23:]
    assert np.all(np.isfinite(before))
    assert np.all(before[:, :2] != 0.0)
    assert np.all(np.abs(before[:, 0]) < 10.0 * (1.0 + abs(x0[0])))
    assert np.all(after == 0.0)


def test_initial_guess_keeps_the_valid_path_of_a_failed_rollout():
    """A drift that turns NaN inside |x| < 0.4 fails the rollout of the stable
    x' = -x / 2 + u; the guess keeps the nodes up to the last finite step,
    equal to those of the rollout without the NaN, and pads the rest with zeros."""
    model = build_linear([[-0.5]], [[1.0]])
    qm = quadratic_matrix(model)
    failing = replace(model, f=lambda x: np.where(np.abs(x) < 0.4, np.nan, model.f(x)))
    taus = graded_mesh(40)
    z = initial_guess(failing, np.array([[1.0]]), taus, qm)[0]
    clean = initial_guess(model, np.array([[1.0]]), taus, qm)[0]
    kept = np.flatnonzero(z[:, 0] != 0.0)
    assert 2 < kept.size < taus.size
    np.testing.assert_array_equal(kept, np.arange(kept.size))
    np.testing.assert_array_equal(z[kept], clean[kept])
    assert np.all(z[kept, 0] >= 0.4)
    assert np.all(z[kept.size :] == 0.0)


def tight_rollout(model, x0, taus, q_matrix):
    """The quadratic-feedback rollout of ``initial_guess``, integrated at rel 1e-10, abs 1e-12, with v left zero."""
    n = model.dim_state

    def rhs(_t, x):
        return model.f(x) + model.g_apply(x, optimal_control(model, x, 2.0 * x @ q_matrix))

    (sol,) = integrate_ivp(rhs, x0[None], (0.0, float(time_stretch(taus[-1]))), rel_tol=1e-10, abs_tol=1e-12)
    assert sol.failure is None and sol.times[-1] == time_stretch(taus[-1])  # no escape from these starts
    xs = sol.at(time_stretch(taus))
    z = np.column_stack([xs, 2.0 * xs @ q_matrix, np.zeros(len(xs))])
    z[0, :n] = x0
    return z


@pytest.mark.parametrize("name", ["amp", "nhe"])
def test_newton_does_not_depend_on_the_guess_tolerance(name):
    """The loose rollout of ``initial_guess`` and the same rollout at rel 1e-10
    differ by about 1e-4 of their largest entry at ``GUESS_TOL``, yet Newton
    takes the same factorizations, chord steps and halvings from both and
    lands on the same solution to 1e-10 relative.  The nhe start is large
    enough that Newton takes a chord step after its factorization."""
    if name == "amp":
        model, x0 = build_amp(), np.array([1.0, -1.0])
    else:
        model, x0 = build_nhe(NheParameters(grid_side=3)), 1.5 / 0.4 * nhe_start(3)
    qm = quadratic_matrix(model)
    config = OpenLoopConfig()
    taus = graded_mesh(config.n_nodes, tau_end=1.0 - config.delta_tau)
    loose = initial_guess(model, x0[None], taus, qm)[0]
    tight = tight_rollout(model, x0, taus, qm)
    assert np.max(np.abs(loose - tight)) > 1e-9 * np.max(np.abs(tight))
    a = solve_pmp(model, x0, taus, loose, config)
    b = solve_pmp(model, x0, taus, tight, config)
    assert a.newton_iterations == b.newton_iterations
    assert a.chord_steps == b.chord_steps
    assert a.newton_iterations + a.chord_steps >= 2
    assert a.line_search_halvings == b.line_search_halvings
    assert np.max(np.abs(a.z - b.z)) <= 1e-10 * np.max(np.abs(b.z))


def test_amp_solution_obeys_its_own_feedback_law():
    """Along the solved trajectory the stored gradient reproduces the control
    that the dynamics residual was built from."""
    model = build_amp()
    qm = quadratic_matrix(model)
    config = OpenLoopConfig(n_nodes=120, delta_tau=1e-4, refine_rounds=1, refine_tol=1e-8)
    sol = solve_open_loop(model, np.array([0.7, -0.4]), qm, config)
    assert np.all(np.diff(sol.values) <= 1e-10)
    assert np.all(sol.values >= -1e-12)
    # finite-difference the states to recover dx/dt = f + g u at interior nodes
    t = sol.times
    mid = slice(1, 60)
    dx = np.gradient(sol.states, t, axis=0)[mid]
    rhs = np.array(
        [
            model.f(x) + model.g_apply(x, optimal_control(model, x, p))
            for x, p in zip(sol.states[mid], sol.costates[mid])
        ]
    )
    scale = np.max(np.abs(dx))
    assert np.max(np.abs(dx - rhs)) <= 5e-2 * scale


def band_to_dense(ab, kl, ku):
    """Expand LAPACK band storage (entry (i, j) at ab[kl + ku + i - j, j]) to a dense matrix."""
    size = ab.shape[1]
    i, j = np.indices((size, size))
    inside = (j - i <= ku) & (i - j <= kl)
    i, j = i[inside], j[inside]
    dense = np.zeros((size, size))
    dense[i, j] = ab[kl + ku + i - j, j]
    return dense


def nhe_start(grid_side):
    xi = nhe_node_coords(grid_side)
    return 0.4 * np.cos(np.pi * xi[:, 0]) * np.cos(np.pi * xi[:, 1])


def band_case(name):
    """(model, x0) of the band tests: a dense 2-state lqr, amp and nhe on a 3 x 3 grid."""
    if name == "lqr":
        return build_linear([[0.0, 1.0], [-2.0, -0.5]], [[0.0], [1.0]], control_weight=[[0.5]]), np.array([0.5, -0.3])
    if name == "amp":
        return build_amp(), np.array([0.5, -0.3])
    return build_nhe(NheParameters(grid_side=3)), nhe_start(3)


@pytest.mark.parametrize("name", ["lqr", "amp", "nhe"])
def test_band_jacobian_equals_finite_differences_of_the_residual(name):
    """Row order and band placement: the banded analytic Jacobian, expanded, is
    the finite-difference Jacobian of ``bvp_residual`` over every [x; p]
    unknown, and no unknown outside the (kl, ku) the assembly returns moves
    any row.  Dense blocks give (3n - 1, 3n - 1); nhe's 5-point Laplacian on
    a 3 x 3 grid gives (2n + 3, 2n + 3) = (21, 21), against (26, 26) dense."""
    model, x0 = band_case(name)
    delta_tau = 1e-2
    taus = graded_mesh(5, tau_end=1.0 - delta_tau)
    # a perturbed quadratic-feedback rollout: an iterate Newton would meet
    rng = np.random.default_rng(31)
    z = initial_guess(model, x0[None], taus, quadratic_matrix(model))[0]
    z += rng.uniform(-0.05, 0.05, size=z.shape)
    ab, kl, ku = _assemble_jacobian(model, taus, z, delta_tau)
    assert (kl, ku) == {"lqr": (5, 5), "amp": (5, 5), "nhe": (21, 21)}[name]
    dense = band_to_dense(ab, kl, ku)
    m = 2 * model.dim_state

    def residuals(rows):
        iterates = np.zeros((len(rows),) + z.shape)
        iterates[:, :, :m] = rows.reshape(len(rows), -1, m)
        return np.stack([bvp_residual(model, taus, iterate, x0, delta_tau) for iterate in iterates])

    w = z[:, :m].ravel()
    fd = fd_jacobian(residuals, w)
    assert fd.shape == dense.shape == (w.size, w.size)
    i, j = np.indices(fd.shape)
    assert np.all(fd[(j - i > ku) | (i - j > kl)] == 0.0)
    scale = float(np.max(np.abs(residuals(w[None])))) / FD_STEP + float(np.max(np.abs(dense)))
    np.testing.assert_allclose(dense, fd, rtol=1e-7, atol=64.0 * np.finfo(float).eps * scale)


def test_nhe_at_grid_side_10_factors_on_the_band_its_nonzeros_occupy():
    """At N = 100 the nhe blocks fill the band (2n + 10, 2n + 10) = (210, 210),
    so one Jacobian takes 2 kl + ku + 1 = 631 rows of band storage a column,
    against 902 for the (300, 301) of blocks that hold v."""
    model = build_nhe(NheParameters(grid_side=10))
    taus = graded_mesh(4)
    z = np.random.default_rng(5).uniform(-0.5, 0.5, size=(taus.size, 201))
    ab, kl, ku = _assemble_jacobian(model, taus, z, 1e-3)
    assert (kl, ku) == (210, 210)
    assert ab.shape == (631, taus.size * 200)


@pytest.mark.parametrize("name", ["lqr", "amp", "nhe"])
@pytest.mark.parametrize("refined", [False, True])
@pytest.mark.parametrize("chunked", [False, True])
def test_band_jacobian_is_bitwise_the_block_expression(monkeypatch, name, refined, chunked):
    """The assembly through reused work arrays and strided band views gives
    the band of the dense expression's nonzeros and, in every row ``dgbtrf``
    reads, the bits of the plain block expression, on a graded mesh and on a
    refined one whose split intervals break the grading, and with work arrays
    of 5 intervals, so that the last chunk is a short one.  (The fill rows
    above may hold the exact zeros of whole blocks written past the band.)"""
    model, x0 = band_case(name)
    if chunked:
        monkeypatch.setattr(openloop, "WORK_BYTES", 5 * 8 * (2 * model.dim_state) ** 2)
    delta_tau = 1e-3
    taus = graded_mesh(24, tau_end=1.0 - delta_tau)
    if refined:
        taus = np.sort(np.concatenate([taus, 0.5 * (taus[:-1] + taus[1:])[::3]]))
    rng = np.random.default_rng(7)
    z = initial_guess(model, x0[None], taus, quadratic_matrix(model))[0]
    z += rng.uniform(-0.05, 0.05, size=z.shape)
    ab, kl, ku = _assemble_jacobian(model, taus, z, delta_tau)
    reference, ref_kl, ref_ku = band_jacobian_reference(model, taus, z, delta_tau)
    assert (kl, ku) == (ref_kl, ref_ku)
    assert ab.shape == reference.shape
    assert np.array_equal(ab[kl:].view(np.int64), reference[kl:].view(np.int64))


def test_blocks_written_past_a_narrow_band_leave_it_intact():
    """With a Jacobian of -I/2 every block is diagonal and the nonzeros span
    only (n, n).  Blocks are written whole, so the assembly widens the band to
    (3n // 2, 3n - 1 - 3n // 2), where the zeros past it land in the fill
    rows; the band then holds exactly the block expression's Jacobian."""
    n = 2
    model = replace(
        build_linear(-np.eye(n), np.eye(n)),
        pmp_jacobian=lambda z: np.broadcast_to(-0.5 * np.eye(2 * n), z.shape[:-1] + (2 * n, 2 * n)),
    )
    taus = graded_mesh(6)
    z = np.zeros((taus.size, 2 * n + 1))
    ab, kl, ku = _assemble_jacobian(model, taus, z, 1e-3)
    reference, ref_kl, ref_ku = band_jacobian_reference(model, taus, z, 1e-3)
    assert (ref_kl, ref_ku) == (n, n)
    assert (kl, ku) == (3, 2)
    np.testing.assert_array_equal(band_to_dense(ab, kl, ku), band_to_dense(reference, ref_kl, ref_ku))


GENERATED_CASES = ["lqr", "amp2", "amp3", "nhe"]


def generated_case(name, data):
    """(model, quadratic matrix, start) for a generated case: lqr with a dense
    random 3 x 3 A and B = I, amp in dimension 2 or 3, nhe on a 3 x 3 grid."""
    if name == "lqr":
        entry = st.one_of(st.floats(-1.0, -0.1), st.floats(0.1, 1.0))
        model = build_linear(data.draw(arrays(float, (3, 3), elements=entry), label="A"), np.eye(3))
    elif name.startswith("amp"):
        model = build_amp(AmpParameters(dim=int(name[3:])))
    else:
        model = build_nhe(NheParameters(grid_side=3))
    radius = 0.5 if name == "nhe" else 0.8
    x0 = data.draw(arrays(float, model.dim_state, elements=st.floats(-radius, radius)), label="x0")
    return model, quadratic_matrix(model), x0 / max(1.0, np.linalg.norm(x0) / radius)


@settings(max_examples=15, deadline=None)
@given(name=st.sampled_from(GENERATED_CASES), data=st.data())
def test_the_filled_values_satisfy_the_value_rows(name, data):
    """On a random iterate, the v column ``bvp_residual`` fills satisfies,
    to rounding, the rows that pinned v when it was a Newton unknown: each
    interval's Hermite-Simpson row and the tail closure."""
    model, _, _ = generated_case(name, data)
    n = model.dim_state
    delta_tau = 1e-3
    taus = graded_mesh(6, tau_end=1.0 - delta_tau)
    # decaying toward the tail as a solution does, so that the stretched slopes stay finite
    z = data.draw(arrays(float, (taus.size, 2 * n + 1), elements=st.floats(-1.0, 1.0)), label="z")
    z *= (1.0 - taus[:, None]) ** 2
    bvp_residual(model, taus, z, z[0, :n], delta_tau)
    v = z[:, 2 * n]
    ft = time_stretch_rate(taus)[:, None] * pmp_rhs(model, z)
    h = np.diff(taus)[:, None]
    z_mid = 0.5 * (z[:-1] + z[1:]) + (h / 8.0) * (ft[:-1] - ft[1:])
    ft_mid = time_stretch_rate(0.5 * (taus[:-1] + taus[1:]))[:, None] * pmp_rhs(model, z_mid)
    quad = (h[:, 0] / 6.0) * (ft[:-1, 2 * n] + 4.0 * ft_mid[:, 2 * n] + ft[1:, 2 * n])
    eps = np.finfo(float).eps
    assert np.all(np.abs(v[1:] - v[:-1] - quad) <= 4.0 * eps * (np.abs(v[1:]) + np.abs(v[:-1]) + np.abs(quad)))
    assert v[-1] + delta_tau * ft[-1, 2 * n] == 0.0


@settings(max_examples=12, deadline=None)
@given(name=st.sampled_from(GENERATED_CASES), data=st.data())
def test_values_do_not_increase_along_a_converged_solution(name, data):
    """v' = -(r + u^T R u) <= 0, and the filled v follows it: no stored value
    exceeds the one before it, and the last one is not negative."""
    model, qm, x0 = generated_case(name, data)
    sol = solve_open_loop(model, x0, qm, OpenLoopConfig(n_nodes=30, refine_rounds=0))
    assert np.all(np.diff(sol.values) <= 0.0)
    assert sol.values[-1] >= 0.0


def logged_solve(monkeypatch, model, x0, taus, guess, config):
    """``solve_pmp`` with its residuals, assemblies and factorizations logged in
    order, as (kind, iterate, max-norm residual) with None where it does not apply."""
    events = []
    residual, assemble, factor = openloop.bvp_residual, openloop._assemble_jacobian, openloop.splu

    def logged_residual(*args, **kwargs):
        res = residual(*args, **kwargs)
        events.append(("residual", np.array(args[2]), float(np.max(np.abs(res)))))
        return res

    def logged_assembly(*args, **kwargs):
        events.append(("jacobian", np.array(args[2]), None))
        return assemble(*args, **kwargs)

    def logged_factor(*args, **kwargs):
        events.append(("lu", None, None))
        return factor(*args, **kwargs)

    monkeypatch.setattr(openloop, "bvp_residual", logged_residual)
    monkeypatch.setattr(openloop, "_assemble_jacobian", logged_assembly)
    monkeypatch.setattr(openloop, "splu", logged_factor)
    return openloop.solve_pmp(model, x0, taus, guess, config), events


def amp_from_zero():
    """The amp solve from a zero guess, whose first Newton steps are halved."""
    model, x0 = build_amp(), np.array([0.5, 0.5])
    config = OpenLoopConfig(n_nodes=40, refine_rounds=0)
    taus = graded_mesh(config.n_nodes, tau_end=1.0 - config.delta_tau)
    guess = np.zeros((taus.size, 5))
    guess[0, :2] = x0
    return model, x0, taus, guess, config


def nhe_from_rollout():
    """The nhe solve (grid side 3) from the quadratic-feedback rollout, which
    lands in Newton's quadratic basin."""
    model, x0 = build_nhe(NheParameters(grid_side=3)), nhe_start(3)
    config = OpenLoopConfig(n_nodes=40)
    taus = graded_mesh(config.n_nodes, tau_end=1.0 - config.delta_tau)
    return model, x0, taus, initial_guess(model, x0[None], taus, quadratic_matrix(model))[0], config


def test_a_chord_step_that_does_not_contract_forces_a_factorization_at_the_same_iterate(monkeypatch):
    """With a contraction no chord step can meet, every chord trial is turned
    down, and the next Jacobian is assembled at the iterate the trial started
    from, not at the trial point."""
    monkeypatch.setattr(openloop, "CHORD_CONTRACTION", 0.0)
    sol, events = logged_solve(monkeypatch, *nhe_from_rollout())
    kinds = [kind for kind, _, _ in events]
    assert sol.line_search_halvings == 0
    assert sol.newton_iterations >= 2
    assert kinds.count("lu") == kinds.count("jacobian") == sol.newton_iterations
    assert sol.chord_steps == sol.newton_iterations - 1
    assemblies = [i for i, kind in enumerate(kinds) if kind == "jacobian"]
    for i in assemblies[1:]:
        (start_kind, start, _), (trial_kind, trial, _) = events[i - 2], events[i - 1]
        assert start_kind == trial_kind == "residual"
        assert np.array_equal(events[i][1], start)
        assert not np.array_equal(events[i][1], trial)


def test_a_solve_in_the_quadratic_basin_factors_once(monkeypatch):
    """From the rollout, the nhe iterate is already in Newton's quadratic
    basin: one assembly and one banded LU, then chord steps on that factor."""
    sol, events = logged_solve(monkeypatch, *nhe_from_rollout())
    kinds = [kind for kind, _, _ in events]
    assert kinds.count("lu") == kinds.count("jacobian") == sol.newton_iterations == 1
    assert sol.chord_steps >= 1 and sol.line_search_halvings == 0


def count_lu_calls(monkeypatch):
    """Counts of the banded LU (``splu``) and its triangular solve (``dgbtrs``), filled as the solver calls them."""
    counts = {"splu": 0, "dgbtrs": 0}
    for name in counts:
        original = getattr(openloop, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(openloop, name, counting)
    return counts


def test_factorizations_and_chord_steps_add_up_over_the_refinement(monkeypatch):
    """Over every mesh of a refined solve, the banded LU runs once per Newton
    iteration, and its triangular solve once per Newton iteration and once
    per chord step: the solution's counts are sums over the meshes."""
    counts = count_lu_calls(monkeypatch)
    model = build_amp()
    config = OpenLoopConfig(n_nodes=40, refine_rounds=2, refine_tol=1e-12)
    sol = solve_open_loop(model, np.array([1.0, -1.0]), quadratic_matrix(model), config)
    assert sol.refine_rounds >= 1
    assert counts["splu"] == sol.newton_iterations
    assert counts["dgbtrs"] == sol.newton_iterations + sol.chord_steps
    assert sol.chord_steps >= 1


def test_a_damped_step_drops_the_factor(monkeypatch):
    """After a Newton step shorter than the full one, the next step is a fresh
    factorization at the new iterate, never a chord step: the line search is
    replayed from the logged residuals (trial j has length 2^-(j-1), and the
    first that decreases the residual is taken)."""
    sol, events = logged_solve(monkeypatch, *amp_from_zero())
    damped = 0
    for i, (kind, z, _) in enumerate(events):
        if kind != "jacobian":
            continue
        norm = next(n for k, y, n in reversed(events[:i]) if k == "residual" and np.array_equal(y, z))
        assert events[i + 1][0] == "lu"
        j, lam = 1, 1.0
        while not (np.isfinite(events[i + 1 + j][2]) and events[i + 1 + j][2] < norm * (1.0 - 1e-4 * lam)):
            j, lam = j + 1, 0.5 * lam
        if j > 1 and i + 2 + j < len(events):
            damped += 1
            assert events[i + 2 + j][0] == "jacobian"
            assert np.array_equal(events[i + 2 + j][1], events[i + 1 + j][1])
    assert damped >= 1 and sol.chord_steps >= 1


def test_a_jacobian_with_a_v_row_names_both_shapes():
    """A ``pmp_jacobian`` still written as d pmp_rhs / dz, (..., 2n+1, 2n+1),
    is a ValueError naming the shape Newton needs and the one it got."""
    model = build_linear([[-1.0]], [[1.0]])
    model = replace(model, pmp_jacobian=lambda z: np.zeros(z.shape[:-1] + (3, 3)))
    taus = graded_mesh(4)
    with pytest.raises(ValueError, match=re.escape("gave shape (5, 3, 3), expected (..., 2n, 2n) = (5, 2, 2)")):
        solve_pmp(model, np.array([0.5]), taus, np.full((5, 3), 0.1), OpenLoopConfig())


def test_singular_collocation_jacobian_is_a_bvp_failure():
    """A model whose Jacobian is -2^-10 I makes the tail rows I + dt dtau/dt J
    vanish exactly on a two-interval mesh with dt = 2^-10 (the last node's
    rate is then 2^20), so the banded LU meets an exactly zero pivot."""
    delta_tau = 2.0**-10
    model = build_linear([[-1.0]], [[1.0]])
    model = replace(model, pmp_jacobian=lambda z: np.broadcast_to(-delta_tau * np.eye(2), z.shape[:-1] + (2, 2)))
    taus = graded_mesh(2, tau_end=1.0 - delta_tau)
    assert time_stretch_rate(taus[-1]) == 2.0**20
    with pytest.raises(BvpFailure, match="singular collocation Jacobian") as err:
        solve_pmp(model, np.array([0.5]), taus, np.zeros((3, 3)), OpenLoopConfig(delta_tau=delta_tau))
    assert err.value.iterations == 1


def test_newton_iterations_add_up_over_the_refinement(monkeypatch):
    counts = []
    solve_one_mesh = openloop.solve_pmp

    def counting(*args, **kwargs):
        sol = solve_one_mesh(*args, **kwargs)
        counts.append((sol.newton_iterations, sol.line_search_halvings))
        return sol

    monkeypatch.setattr(openloop, "solve_pmp", counting)
    # from this start the first two meshes halve their Newton steps
    model = build_amp()
    config = OpenLoopConfig(n_nodes=40, refine_rounds=2, refine_tol=1e-12)
    sol = solve_open_loop(model, np.array([1.0, -1.0]), quadratic_matrix(model), config)
    assert sol.refine_rounds >= 1
    assert len(counts) == sol.refine_rounds + 1
    assert sol.newton_iterations == sum(c for c, _ in counts)
    assert sol.line_search_halvings == sum(h for _, h in counts) > 0


def test_line_search_halvings_count_the_rejected_trial_steps(monkeypatch):
    """Every residual after the first is one trial step: a chord step, or a
    Newton step accepted once per factorization and otherwise halved.  From a
    zero guess the amp solve halves its step 16 times on the way."""
    calls = []
    residual = openloop.bvp_residual

    def counting(*args, **kwargs):
        calls.append(1)
        return residual(*args, **kwargs)

    monkeypatch.setattr(openloop, "bvp_residual", counting)
    model, x0, taus, guess, config = amp_from_zero()
    # the rejected full steps overflow exp, quietly: no warning escapes
    sol = solve_pmp(model, x0, taus, guess, config)
    assert sol.line_search_halvings == 16
    assert len(calls) == 1 + sol.newton_iterations + sol.line_search_halvings + sol.chord_steps


def same_solution(a, b):
    """Whether two solutions agree bit for bit, mesh, iterate and counts."""
    counts = ("newton_iterations", "line_search_halvings", "chord_steps", "shared_start", "refine_rounds")
    return (
        a.taus.tobytes() == b.taus.tobytes()
        and a.z.tobytes() == b.z.tobytes()
        and all(getattr(a, name) == getattr(b, name) for name in counts)
    )


def test_a_shared_solve_that_turns_the_factor_down_is_the_unshared_solve():
    """On amp the second of these starts takes a chord step on the first
    one's factor, then turns the next one down; the strike empties the
    holder, and the solve starts over from its guess.  It and the solves
    after it are bit for bit the solves without a holder, but for the two
    chord steps on the shared factor.  (Going on from the iterate the
    shared steps left, the second solve stalled in its line search.)"""
    model = build_amp()
    qm = quadratic_matrix(model)
    config = OpenLoopConfig(n_nodes=60, refine_rounds=2, delta_tau=1e-5)
    starts = np.array([[-0.29304864, -0.01689915], [0.04718976, 0.1735856], [0.68255691, -0.93385683]])
    guesses = initial_guess(model, starts, initial_mesh(config), qm)
    shared = SharedFactor()
    sols = [solve_open_loop(model, x0, qm, config, guess=guess, shared=shared) for x0, guess in zip(starts, guesses)]
    assert shared.declined and shared.factor is None
    assert [sol.shared_start for sol in sols] == [False, True, False]
    for k, (x0, guess, sol) in enumerate(zip(starts, guesses, sols)):
        alone = solve_open_loop(model, x0, qm, config, guess=guess)
        if k == 1:
            assert sol.chord_steps == alone.chord_steps + 2
            alone.chord_steps, alone.shared_start = sol.chord_steps, True
        assert same_solution(sol, alone), k


@pytest.mark.parametrize("failure", ["non-finite guess", "refined mesh", "after a strike"])
def test_a_solve_that_raises_leaves_the_sharing_correct(monkeypatch, failure):
    """A solve that raises keeps the holder as its steps left it: a guess
    with a non-finite residual fails before it reads the holder, a solve
    that fails on its refined mesh has converged on the shared factor and
    leaves it in place, and one that raises after turning the shared factor
    down has struck.  The next solve is then bit for bit the one that follows
    the failed solve's initial-mesh solve (the first two cases), or the
    unshared one (the strike)."""
    model, x0 = build_nhe(NheParameters(grid_side=3)), nhe_start(3)
    qm = quadratic_matrix(model)
    config = OpenLoopConfig(n_nodes=40, refine_rounds=1, refine_tol=1e-12)
    starts = np.array([x0, 0.5 * x0, -0.7 * x0])
    guesses = initial_guess(model, starts, initial_mesh(config), qm)

    shared = SharedFactor()
    solve_open_loop(model, starts[0], qm, config, guess=guesses[0], shared=shared)
    kept = shared.factor
    with monkeypatch.context() as patch:
        if failure == "non-finite guess":
            guesses[1, 1:, 0] = np.nan
        else:
            patch.setattr(openloop, "NEWTON_MAX_ITER", 0)
            if failure == "after a strike":
                patch.setattr(openloop, "CHORD_CONTRACTION", 0.0)
        with pytest.raises(BvpFailure):
            solve_open_loop(model, starts[1], qm, config, guess=guesses[1], shared=shared)
    if failure == "after a strike":
        assert shared.declined and shared.factor is None
    else:
        # a failed solve that converged on the initial mesh took no factorization of its own there
        assert not shared.declined and shared.factor[0] is kept[0]
    after = solve_open_loop(model, starts[2], qm, config, guess=guesses[2], shared=shared)

    if failure == "after a strike":
        assert not after.shared_start
        assert same_solution(after, solve_open_loop(model, starts[2], qm, config, guess=guesses[2]))
        return
    assert after.shared_start
    replay = SharedFactor()
    solve_open_loop(model, starts[0], qm, config, guess=guesses[0], shared=replay)
    if failure == "refined mesh":
        solve_pmp(model, starts[1], initial_mesh(config), guesses[1], config, shared=replay)
    assert same_solution(after, solve_open_loop(model, starts[2], qm, config, guess=guesses[2], shared=replay))


def test_a_solve_that_raises_after_a_full_step_leaves_an_empty_holder_empty(monkeypatch):
    """The holder is written only on return: a solve on the initial mesh
    that factors, takes a full Newton step (so it keeps the factor and tries
    a chord step on it) and then runs out of Newton iterations leaves an
    empty holder empty and undeclined."""
    counts = count_lu_calls(monkeypatch)
    monkeypatch.setattr(openloop, "NEWTON_MAX_ITER", 1)
    monkeypatch.setattr(openloop, "CHORD_CONTRACTION", 0.0)
    model, x0, taus, guess, config = nhe_from_rollout()
    shared = SharedFactor()
    with pytest.raises(BvpFailure, match="no convergence in 1 Newton iterations"):
        solve_pmp(model, x0, taus, guess, config, shared=shared)
    # one factorization, its Newton step and a chord step on the kept factor
    assert counts == {"splu": 1, "dgbtrs": 2}
    assert shared.factor is None and not shared.declined
