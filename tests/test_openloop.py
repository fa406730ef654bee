from dataclasses import replace

import numpy as np
import pytest

import vfcontrol.openloop as openloop
from vfcontrol.models import build_amp, build_linear, optimal_control
from vfcontrol.numerics import FD_STEP, fd_jacobian
from vfcontrol.openloop import (
    MIN_SPACING,
    NEWTON_TOL,
    BvpFailure,
    OpenLoopConfig,
    _assemble_jacobian,
    _band_widths,
    bvp_residual,
    graded_mesh,
    initial_guess,
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
    taus = graded_mesh(30, power=1.0, tau_end=0.999)
    assert taus.size == 31
    assert taus[0] == 0.0
    assert taus[-1] == pytest.approx(0.999)
    assert np.all(np.diff(taus) > 0)
    # larger powers shrink the end intervals relative to the middle
    flat = np.diff(graded_mesh(30, power=0.0))
    steep = np.diff(graded_mesh(30, power=2.0))
    np.testing.assert_allclose(flat, flat[0])
    assert steep[0] < flat[0]
    assert np.max(steep) > flat[0]
    with pytest.raises(ValueError):
        graded_mesh(1)


def test_scalar_lqr_matches_the_closed_form(scalar_lqr):
    """x' = -x + u with unit weights: q = sqrt(2)-1, closed loop decays at
    rate sqrt(2), costate and value follow the quadratic model exactly."""
    model, qm, config, sol = scalar_lqr
    assert sol.converged
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
    # consecutive kept states are separated in state space
    gaps = np.linalg.norm(np.diff(traj.states, axis=0), axis=1)
    assert np.all(gaps >= MIN_SPACING)


def test_trajectory_thinning_handles_a_stationary_solution():
    model = build_linear([[-1.0]], [[1.0]])
    qm = quadratic_matrix(model)
    config = OpenLoopConfig(n_nodes=40, refine_rounds=0)
    sol = solve_open_loop(model, np.array([0.0]), qm, config)
    traj = to_trajectory(sol, samples=10)
    assert len(traj) == 1
    assert traj.values[0] == pytest.approx(0.0, abs=1e-12)


def test_newton_budget_failure_names_the_residual():
    model = build_amp()
    qm = quadratic_matrix(model)
    config = OpenLoopConfig(n_nodes=60, newton_max_iter=1, refine_rounds=0)
    with pytest.raises(BvpFailure) as err:
        solve_open_loop(model, np.array([0.9, 0.3]), qm, config)
    assert np.isfinite(err.value.residual)
    assert err.value.iterations >= 1


def test_initial_guess_shape_and_anchoring():
    model = build_amp()
    qm = quadratic_matrix(model)
    taus = graded_mesh(50)
    z = initial_guess(model, np.array([1.0, 0.0]), taus, qm)
    assert z.shape == (51, 5)
    assert np.all(np.isfinite(z))
    np.testing.assert_array_equal(z[0, :2], [1.0, 0.0])
    # the rollout contracts toward the origin
    assert np.linalg.norm(z[-1, :2]) < 1.0


def test_amp_solution_obeys_its_own_feedback_law():
    """Along the solved trajectory the stored gradient reproduces the control
    that the dynamics residual was built from."""
    model = build_amp()
    qm = quadratic_matrix(model)
    config = OpenLoopConfig(n_nodes=120, delta_tau=1e-4, refine_rounds=1, refine_tol=1e-8)
    sol = solve_open_loop(model, np.array([0.7, -0.4]), qm, config)
    assert sol.converged
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


@pytest.mark.parametrize("name", ["lqr", "amp"])
def test_band_jacobian_equals_finite_differences_of_the_residual(name):
    """Row order and band placement: the banded analytic Jacobian, expanded, is
    the finite-difference Jacobian of ``bvp_residual`` over every unknown, and
    no unknown outside the band moves any row."""
    if name == "lqr":
        model = build_linear([[0.0, 1.0], [-2.0, -0.5]], [[0.0], [1.0]], control_weight=[[0.5]])
    else:
        model = build_amp()
    delta_tau = 1e-2
    taus = graded_mesh(5, tau_end=1.0 - delta_tau)
    x0 = np.array([0.5, -0.3])
    # a perturbed quadratic-feedback rollout: an iterate Newton would meet
    rng = np.random.default_rng(31)
    z = initial_guess(model, x0, taus, quadratic_matrix(model))
    z += rng.uniform(-0.05, 0.05, size=z.shape)
    kl, ku = _band_widths(model.dim_state)
    dense = band_to_dense(_assemble_jacobian(model, taus, z, delta_tau), kl, ku)

    def residuals(rows):
        return np.stack([bvp_residual(model, taus, row.reshape(z.shape), x0, delta_tau) for row in rows])

    fd = fd_jacobian(residuals, z.ravel())
    assert fd.shape == dense.shape == (z.size, z.size)
    i, j = np.indices(fd.shape)
    assert np.all(fd[(j - i > ku) | (i - j > kl)] == 0.0)
    scale = float(np.max(np.abs(residuals(z.ravel()[None])))) / FD_STEP + float(np.max(np.abs(dense)))
    np.testing.assert_allclose(dense, fd, rtol=1e-7, atol=64.0 * np.finfo(float).eps * scale)


def test_singular_collocation_jacobian_is_a_bvp_failure():
    """A model whose Jacobian is -2^-10 I makes the tail rows I + dt dtau/dt J
    vanish exactly on a two-interval mesh with dt = 2^-10 (the last node's
    rate is then 2^20), so the banded LU meets an exactly zero pivot."""
    delta_tau = 2.0**-10
    model = build_linear([[-1.0]], [[1.0]])
    model = replace(model, pmp_jacobian=lambda z: np.broadcast_to(-delta_tau * np.eye(3), z.shape[:-1] + (3, 3)))
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
        counts.append(sol.newton_iterations)
        return sol

    monkeypatch.setattr(openloop, "solve_pmp", counting)
    model = build_linear([[-1.0]], [[1.0]])
    config = OpenLoopConfig(n_nodes=40, refine_rounds=2, refine_tol=1e-12)
    sol = solve_open_loop(model, np.array([0.8]), quadratic_matrix(model), config)
    assert sol.refine_rounds >= 1
    assert len(counts) == sol.refine_rounds + 1
    assert sol.newton_iterations == sum(counts)
