import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from helpers import fd_gradient, fd_gradient_check, fd_jacobian_columns
from vfcontrol.models import NheParameters, build_amp, build_linear, build_nhe, optimal_control, pmp_rhs
from vfcontrol.explore import candidate_modes
from vfcontrol.numerics import FD_STEP, CgError, _band_storage, cg_solve, fd_jacobian, integrate_ivp
from vfcontrol.riccati import quadratic_matrix


def as_op(a):
    return lambda v: a @ v


def spd_matrix(rng, n):
    b = rng.normal(size=(n, n))
    return b @ b.T + n * np.eye(n)


def test_cg_diagonal_system():
    a = np.array([[2.0, 0.0], [0.0, 3.0]])
    res = cg_solve(as_op(a), np.array([2.0, 3.0]), lambda r: r)
    np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-12)
    assert res.iterations <= 2


def test_cg_matches_dense_solve():
    rng = np.random.default_rng(0)
    for _ in range(5):
        a = spd_matrix(rng, 5)
        b = rng.normal(size=5)
        res = cg_solve(as_op(a), b, lambda r: r, tol=1e-12)
        ref = scipy.linalg.solve(a, b)
        assert np.max(np.abs(res.x - ref)) <= 1e-10 * np.max(np.abs(ref))


def test_cg_jacobi_preconditioning_matches_plain():
    rng = np.random.default_rng(1)
    a = spd_matrix(rng, 6) + np.diag(np.arange(6.0) * 10)
    b = rng.normal(size=6)
    d = np.diag(a)
    plain = cg_solve(as_op(a), b, lambda r: r, tol=1e-12)
    pre = cg_solve(as_op(a), b, lambda r: r / d, tol=1e-12)
    np.testing.assert_allclose(pre.x, plain.x, atol=1e-9)


def test_cg_with_the_exact_inverse_stops_after_one_iteration():
    rng = np.random.default_rng(2)
    a = spd_matrix(rng, 4)
    x = rng.normal(size=4)
    low = scipy.linalg.cholesky(a, lower=True)
    calls = []

    def op(v):
        calls.append(1)
        return a @ v

    res = cg_solve(op, a @ x, lambda r: scipy.linalg.cho_solve((low, True), r))
    assert res.iterations == 1
    # one product for the step, one for the true-residual check
    assert len(calls) == 2
    np.testing.assert_allclose(res.x, x, rtol=1e-12)


def test_cg_zero_rhs_returns_zero():
    res = cg_solve(as_op(np.eye(3)), np.zeros(3), lambda r: r)
    np.testing.assert_array_equal(res.x, np.zeros(3))


def test_cg_reports_stall():
    # one iteration cannot reach 1e-14 on a generic 8x8 system
    rng = np.random.default_rng(3)
    a = spd_matrix(rng, 8)
    with pytest.raises(CgError) as err:
        cg_solve(as_op(a), rng.normal(size=8), lambda r: r, tol=1e-14, max_iter=1)
    assert err.value.iterations == 1
    assert err.value.residual > 0.0
    assert err.value.x.shape == (8,)


def test_cg_stops_at_once_on_a_non_finite_right_hand_side():
    with pytest.raises(CgError) as err:
        cg_solve(as_op(np.eye(3)), np.array([1.0, np.nan, 0.0]), lambda r: r)
    assert err.value.iterations == 1


def test_cg_below_its_attainable_floor_stalls_there():
    """A tolerance under the rounding floor fails loudly, near the floor.

    The right-hand side lies along the smallest eigenvector of a system with
    condition number 1e10, so rounding leaves a relative residual near
    eps * cond = 1e-6 that no iterate can beat.  Once the recurrence residual
    claims convergence the true residual takes over; continuing the old search
    direction from it would scale the step by the ratio of two unrelated
    residuals and send the iterate off to 1e37.  A restart that does not
    beat the one before it ends the iteration, well inside its budget.
    """
    rng = np.random.default_rng(0)
    n = 10
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    a = (q * np.logspace(0, -10, n)) @ q.T
    a = 0.5 * (a + a.T)
    low = scipy.linalg.cholesky(a, lower=True)

    def exact(r):
        return scipy.linalg.cho_solve((low, True), r)

    with pytest.raises(CgError) as err:
        cg_solve(as_op(a), a @ q[:, -1], exact, tol=1e-8, max_iter=1000)
    assert err.value.iterations < 20
    assert err.value.residual < 1e-5
    assert np.all(np.isfinite(err.value.x))


# LSODA tolerances of the runs that do not test a tolerance of their own
TOL = {"rel_tol": 1e-8, "abs_tol": 1e-10}


def integrate_one(rhs, x0, t_span, **options):
    """The run of one start: integrate_ivp on the stack of one, at TOL unless
    ``options`` name other tolerances."""
    (run,) = integrate_ivp(rhs, np.array(x0, dtype=float)[None], t_span, **{**TOL, **options})
    return run


def test_integrate_exponential_decay():
    res = integrate_one(lambda t, x: -x, [1.0], (0.0, 5.0), rel_tol=1e-10, abs_tol=1e-12)
    np.testing.assert_allclose(res.states[-1, 0], np.exp(-5.0), rtol=1e-8)
    # dense output hits interior times too
    np.testing.assert_allclose(res.at(1.7)[0], np.exp(-1.7), rtol=1e-7)


def test_integrate_tightening_tolerance_never_hurts():
    """Halving rel_tol must not increase the error against the exact solution."""
    errs = []
    for rel in (1e-6, 5e-7, 2.5e-7, 1.25e-7):
        res = integrate_one(lambda t, x: -x, [1.0], (0.0, 3.0), rel_tol=rel, abs_tol=1e-14)
        errs.append(abs(res.states[-1, 0] - np.exp(-3.0)))
    assert all(b <= a * 1.001 + 1e-15 for a, b in zip(errs, errs[1:]))


def test_integrate_stop_event_cuts_the_run():
    """The escape radius 10 (1 + ||x0||) ends a growing run on the radius."""
    res = integrate_one(lambda t, x: x, [1.0], (0.0, 10.0), escape_dims=1)
    assert res.times[-1] < 10.0
    np.testing.assert_allclose(res.states[-1, 0], 20.0, rtol=1e-6)


STIFF_PAIR = np.array([[-1000.0, 0.0], [1.0, -1.0]])


def test_integrate_lsoda_handles_a_stiff_pair():
    # two-rate linear system; the stiff path should not need thousands of steps
    res = integrate_one(lambda t, x: x @ STIFF_PAIR.T, [1.0, 1.0], (0.0, 10.0))
    assert res.times.size < 500
    assert np.all(np.isfinite(res.states))


def test_integrate_counts_the_stiff_pair_jacobians():
    res = integrate_one(lambda t, x: x @ STIFF_PAIR.T, [1.0, 1.0], (0.0, 10.0))
    assert res.jacobian_evaluations > 0
    assert res.rhs_evaluations > res.jacobian_evaluations
    # a non-stiff decay never needs a Jacobian
    assert integrate_one(lambda t, x: -x, [1.0], (0.0, 1.0)).jacobian_evaluations == 0


SPIRAL_OUT = np.array([[0.3, -2.0], [2.0, 0.3]])


def spiral_with_cost(t, y):
    """SPIRAL_OUT plus a third component that integrates ||x||^2 along the path."""
    x = y[..., :2]
    return np.concatenate([x @ SPIRAL_OUT.T, np.sum(x * x, axis=-1, keepdims=True)], axis=-1)


IVP_CASES = {
    # name: rhs, x0, t_span, rel_tol, abs_tol, escape_dims
    "decay": (lambda t, x: -x, [1.0], (0.0, 5.0), 1e-10, 1e-12, 0),
    "stiff pair": (lambda t, x: x @ STIFF_PAIR.T, [1.0, 1.0], (0.0, 10.0), 1e-6, 1e-8, 0),
    "spiral out, stopped": (lambda t, x: x @ SPIRAL_OUT.T, [0.5, 0.0], (0.0, 50.0), 1e-8, 1e-10, 2),
    "spiral out with its cost, stopped": (spiral_with_cost, [0.5, 0.0, 0.0], (0.0, 50.0), 1e-8, 1e-10, 2),
    "stop never crossed": (lambda t, x: -x, [1.0], (0.0, 5.0), 1e-6, 1e-8, 1),
}


@pytest.mark.parametrize("name", IVP_CASES)
def test_integrate_ivp_steps_as_solve_ivp_does(name):
    """integrate_ivp accepts the steps of solve_ivp's LSODA, with the escape
    radius as a terminal event, bit for bit: the same times, states, counts
    and dense output, on the stack of one."""
    rhs, x0, t_span, rel_tol, abs_tol, k = IVP_CASES[name]
    x0 = np.array(x0)
    (run,) = integrate_ivp(rhs, x0[None], t_span, rel_tol=rel_tol, abs_tol=abs_tol, escape_dims=k)
    event = None
    if k:
        def event(t, y):
            return np.linalg.norm(y[:k]) - 10.0 * (1.0 + np.linalg.norm(x0[:k]))

        event.terminal = True

    n = x0.size

    def jac(t, y):
        # in LSODA's band storage, n - 1 diagonals either side, as integrate_ivp hands it over
        full = fd_jacobian(lambda batch: rhs(t, batch), y)
        band = np.zeros((2 * n - 1, n))
        for i in range(n):
            for j in range(n):
                band[n - 1 + i - j, j] = full[i, j]
        return band

    ref = solve_ivp(
        rhs, t_span, x0, method="LSODA", rtol=rel_tol, atol=abs_tol, dense_output=True, events=event, jac=jac,
        lband=n - 1, uband=n - 1,
    )
    inside = np.linspace(ref.t[0], ref.t[-1], 97)
    np.testing.assert_array_equal(run.times, ref.t)
    np.testing.assert_array_equal(run.states, ref.y.T)
    assert (run.rhs_evaluations, run.jacobian_evaluations) == (ref.nfev, ref.njev)
    np.testing.assert_array_equal(run.at(inside), ref.sol(inside).T)
    assert run.failure is None
    assert ref.status == (1 if name.endswith("stopped") else 0)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 6), n=st.integers(1, 7), seed=st.integers(0, 2**32 - 1))
def test_band_storage_holds_exactly_the_block_diagonal_matrix(k, n, seed):
    """Every entry (i, j) of the (k n)^2 block-diagonal matrix sits at
    packed[n - 1 + i - j, j], and nothing else is in the band."""
    blocks = np.random.default_rng(seed).normal(size=(k, n, n))
    packed = _band_storage(blocks)
    assert packed.shape == (2 * n - 1, k * n)
    dense = scipy.linalg.block_diag(*blocks)
    i, j = np.indices(dense.shape)
    inside = np.abs(i - j) <= n - 1
    expanded = np.zeros_like(dense)
    expanded[inside] = packed[n - 1 + i[inside] - j[inside], j[inside]]
    assert np.array_equal(expanded, dense)
    # the slots between blocks and past the matrix edges stay zero
    assert np.count_nonzero(packed) == np.count_nonzero(dense)


def test_a_stacked_stiff_nhe_rollout_agrees_with_its_solo_runs():
    """Quadratic-feedback rollouts of the 36-state heat model turn stiff; the
    stack of four, on its banded Jacobians, follows each start's solo run to
    well within the tolerance of the guess rollouts."""
    model = build_nhe(NheParameters(grid_side=6))
    qm = quadratic_matrix(model)

    def rhs(t, x):
        return model.f(x) + model.g_apply(x, optimal_control(model, x, 2.0 * x @ qm))

    rel_tol, abs_tol = 1e-6, 1e-8
    starts = candidate_modes(6)[[0, 100, 400, 700]]
    runs = integrate_ivp(rhs, starts, (0.0, 50.0), rel_tol=rel_tol, abs_tol=abs_tol)
    assert runs[0].jacobian_evaluations > 0
    grid = np.linspace(0.0, 50.0, 201)
    for start, run in zip(starts, runs):
        (alone,) = integrate_ivp(rhs, start[None], (0.0, 50.0), rel_tol=rel_tol, abs_tol=abs_tol)
        assert run.failure is alone.failure is None
        scale = 1.0 + np.max(np.abs(alone.states))
        assert np.max(np.abs(run.at(grid) - alone.at(grid))) <= 10.0 * rel_tol * scale


def own_rate(t, y):
    """x' = a x for each row's own rate a, carried as its last component."""
    return np.concatenate([y[:, -1:] * y[:, :-1], np.zeros_like(y[:, -1:])], axis=1)


def test_a_row_that_escapes_ends_on_its_own_radius_and_the_others_go_on():
    starts = np.array([[0.5, -1.0], [2.0, 1.0], [-0.3, -0.2], [1.0, 0.0]])
    t_end = 8.0
    runs = integrate_ivp(own_rate, starts, (0.0, t_end), rel_tol=1e-9, abs_tol=1e-12, escape_dims=1)
    escaped = runs[1]
    radius = 10.0 * (1.0 + 2.0)
    assert escaped.failure is None and escaped.times[-1] < t_end
    np.testing.assert_allclose(escaped.states[-1, 0], radius, rtol=1e-9)
    np.testing.assert_allclose(escaped.times[-1], np.log(radius / 2.0), rtol=1e-7)
    for i in (0, 2, 3):
        run = runs[i]
        assert run.failure is None and run.times[-1] == t_end
        # past the escape the rows run on a fresh LSODA, and their dense output
        # still follows x0 exp(a t) across the restart
        assert np.any(run.times > escaped.times[-1])
        grid = np.linspace(0.0, t_end, 41)
        exact = starts[i, 0] * np.exp(starts[i, 1] * grid)
        np.testing.assert_allclose(run.at(grid)[:, 0], exact, rtol=1e-6, atol=1e-12)
    # the rows that went on shared the escaped row's integration and more
    assert runs[0].rhs_evaluations > escaped.rhs_evaluations


def test_a_row_that_turns_non_finite_keeps_its_finite_prefix_and_the_others_go_on():
    seen = []

    def rhs(t, y):
        seen.append((y[:, 1].copy(), np.isfinite(y[:, 0])))
        out = own_rate(t, y)
        out[y[:, 0] < 0.5, 0] = np.nan
        return out

    starts = np.array([[1.0, -0.1], [1.0, -1.0], [2.0, 0.05]])
    t_end = 5.0
    runs = integrate_ivp(rhs, starts, (0.0, t_end), **TOL)
    failed = runs[1]
    assert "non-finite" in failed.failure
    assert 0.0 < failed.times[-1] <= np.log(2.0) + 1e-6
    assert np.all(np.isfinite(failed.states))
    np.testing.assert_allclose(failed.states[:, 0], np.exp(-failed.times), rtol=1e-6)
    for i in (0, 2):
        run = runs[i]
        assert run.failure is None and run.times[-1] == t_end
        np.testing.assert_allclose(run.states[:, 0], starts[i, 0] * np.exp(starts[i, 1] * run.times), rtol=1e-6)
    # within the step that turned it non-finite the corrector may evaluate the
    # failing row at NaN, but never another row, and the restart drops it
    assert all(finite[rates != -1.0].all() for rates, finite in seen)
    assert all(finite.all() for rates, finite in seen if -1.0 not in rates)
    assert any(rates.size == 2 for rates, _ in seen)


MIXED_END = 4.0


def rate_or_nan(t, y):
    """x' = a x per row, with a and a threshold carried as the last two
    components; the right-hand side turns NaN once x falls below the threshold."""
    x, rate, threshold = y[:, :1], y[:, 1:2], y[:, 2:]
    return np.concatenate([np.where(x < threshold, np.nan, rate * x), np.zeros_like(y[:, 1:])], axis=1)


def mixed_row(kind, x0, u, v):
    """A start of ``rate_or_nan`` that reaches MIXED_END, escapes or turns non-finite before it."""
    if kind == "finish":  # |x| stays below 3.3 |x0|, well inside the radius
        return [x0, -0.5 + 0.8 * u, -1e300]
    if kind == "escape":  # grows by e^4 or more by MIXED_END, past any radius 10 (1 + 1 / x0)
        return [x0, 1.0 + 2.0 * u, -1e300]
    return [x0, -1.0 - 2.0 * u, x0 * (0.1 + 0.7 * v)]  # crosses the threshold before t = 2.5


def restart_of(run, ends) -> float:
    """When ``run`` last started on a fresh LSODA: at t = 0, or at the first
    of its steps past an ``end`` of another row before its own end."""
    return max([0.0] + [run.times[run.times > end][0] for end in ends if end < run.times[-1]])


def growth_bound(run, ends) -> float:
    """How much LSODA may lengthen the step after ``run``'s last one.

    ODEPACK grows a step by at most RMAX = 10, but after a start RMAX is
    1e4 until the first step change, so while every step since the row's
    last restart is of one length the next may be 1e4 times as long.
    """
    steps = np.diff(run.times[run.times >= restart_of(run, ends)])
    return 1e4 if steps.size == 0 or np.ptp(steps) <= 1e-9 * steps.max() else 10.0


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(["finish", "escape", "non-finite"]), st.floats(0.5, 2.0), st.floats(0, 1), st.floats(0, 1)),
        min_size=2,
        max_size=5,
    )
)
# the third row goes on from the escape's restart, takes two steps of one
# length and ends 13 of them short of its crossing: LSODA's first step change
# after a start may reach 1e4 times the last step
@example(specs=[("escape", 0.5, 0.9609375, 0.0), ("non-finite", 1.0, 0.65625, 0.0), ("non-finite", 1.0, 0.48046875, 0.0)])
# a row that ended two steps before its last finite one would fail the bound here
@example(specs=[("finish", 1.0, 0.0, 0.0), ("non-finite", 1.0, 0.0, 0.8671875)])
def test_a_mixed_stack_ends_each_row_as_it_ends_alone(specs):
    """Rows that finish, escape and turn non-finite in one stack end as each
    row does integrated alone, and the dense output of every row follows its
    exact path, continuous across the restarts where other rows ended."""
    starts = np.array([mixed_row(*spec) for spec in specs])
    runs = integrate_ivp(rate_or_nan, starts, (0.0, MIXED_END), **TOL, escape_dims=1)
    assert len(runs) == len(specs)
    ends = [run.times[-1] for run in runs]
    for (kind, *_), start, run in zip(specs, starts, runs):
        (alone,) = integrate_ivp(rate_or_nan, start[None], (0.0, MIXED_END), **TOL, escape_dims=1)
        x0, rate, threshold = start
        if kind == "finish":
            assert run.failure is alone.failure is None
            assert run.times[-1] == alone.times[-1] == MIXED_END
        elif kind == "escape":
            assert run.failure is alone.failure is None
            exact = np.log(10.0 * (1.0 + x0) / x0) / rate
            np.testing.assert_allclose([run.times[-1], alone.times[-1]], exact, rtol=1e-6)
        else:
            # both end on their last step before the crossing, so the crossing
            # step is at most the growth bound times the last one
            crossing = np.log(x0 / threshold) / -rate
            for r, others in ((run, ends), (alone, [])):
                assert "non-finite" in r.failure
                last_step = r.times[-1] - r.times[-2]
                assert crossing - growth_bound(r, others) * last_step <= r.times[-1] <= crossing
                assert r.states[-1, 0] >= threshold
        grid = np.linspace(0.0, run.times[-1], 53)
        np.testing.assert_allclose(run.at(grid)[:, 0], x0 * np.exp(rate * grid), rtol=1e-6)
        for end in ends:
            if end < run.times[-1]:
                # the step where the other row ended, and this row's restart
                restart = run.times[run.times >= end][0]
                before = run.at(np.nextafter(restart, -np.inf))[0]
                at = run.at(restart)[0]
                np.testing.assert_allclose([before, at], run.states[run.times == restart, 0][0], rtol=1e-12)


def test_an_integrator_failure_is_pinned_on_the_row_that_causes_it():
    """x' = x^2 blows up at t = 1 / x0.  LSODA stalls there; in a batch the
    rows still running go on alone, and only the blowing-up row fails."""

    def square(t, x):
        with np.errstate(over="ignore", invalid="ignore"):
            return x * x

    alone = integrate_one(square, [1.0], (0.0, 2.0))
    assert "stalled" in alone.failure
    assert 0.99 < alone.times[-1] < 1.0
    starts = np.array([[0.2], [1.0], [-1.0]])
    runs = integrate_ivp(square, starts, (0.0, 2.0), **TOL)
    assert "stalled" in runs[1].failure
    assert 0.99 < runs[1].times[-1] < 1.0 and np.all(np.isfinite(runs[1].states))
    for i in (0, 2):
        assert runs[i].failure is None and runs[i].times[-1] == 2.0
        np.testing.assert_allclose(runs[i].states[-1, 0], 1.0 / (1.0 / starts[i, 0] - 2.0), rtol=1e-6)


def test_integrate_reports_a_state_that_turns_non_finite():
    def rhs(t, x):
        return np.where(x < 0.5, np.nan, -x)

    partial = integrate_one(rhs, [1.0], (0.0, 5.0))
    assert "non-finite" in partial.failure
    # the valid path is x = exp(-t) up to its last step before it crossed 0.5
    assert partial.times.size > 2
    assert 0.0 < partial.times[-1] <= np.log(2.0) + 1e-6
    assert 0.5 - 1e-6 <= partial.states[-1, 0] < 1.0
    np.testing.assert_allclose(partial.states[:, 0], np.exp(-partial.times), rtol=1e-6)
    np.testing.assert_allclose(partial.at(0.3)[0], np.exp(-0.3), rtol=1e-6)
    assert partial.rhs_evaluations > 0


@settings(max_examples=40, deadline=None)
@given(rate=st.floats(0.05, 50.0), threshold=st.floats(0.01, 0.99))
def test_a_failed_run_keeps_the_steps_of_the_run_without_the_nan(rate, threshold):
    """A decay whose right-hand side turns NaN below ``threshold`` fails, and
    its partial run equals the first steps of the same decay without the NaN,
    bit for bit; no right-hand-side call sees a non-finite state."""
    seen = []

    def rhs(t, x):
        seen.append(bool(np.all(np.isfinite(x))))
        return np.where(x < threshold, np.nan, -rate * x)

    t_span = (0.0, 20.0 / rate)
    partial = integrate_one(rhs, [1.0], t_span)
    assert "non-finite" in partial.failure
    clean = integrate_one(lambda t, x: -rate * x, [1.0], t_span)
    assert clean.failure is None
    k = partial.times.size
    np.testing.assert_array_equal(partial.times, clean.times[:k])
    np.testing.assert_array_equal(partial.states, clean.states[:k])
    # at its last time the clean run evaluates the piece of its next step
    inside = np.linspace(partial.times[0], partial.times[-1], 31)[:-1]
    np.testing.assert_array_equal(partial.at(inside), clean.at(inside))
    assert np.all(np.isfinite(partial.states))
    assert all(seen)


def test_a_state_whose_square_overflows_is_still_finite():
    """Past 1e154 the squared norm overflows, yet the state is finite and the run goes on."""
    res = integrate_one(lambda t, x: x, [1e150], (0.0, 20.0))
    assert res.times[-1] == 20.0
    np.testing.assert_allclose(res.states[-1, 0], 1e150 * np.exp(20.0), rtol=1e-6)


def test_a_run_whose_first_step_fails_holds_its_start():
    partial = integrate_one(lambda t, x: np.full_like(x, np.nan), [1.0, -2.0], (0.0, 5.0))
    assert "non-finite after t = 0" in partial.failure
    np.testing.assert_array_equal(partial.times, [0.0])
    np.testing.assert_array_equal(partial.states, [[1.0, -2.0]])
    np.testing.assert_array_equal(partial.at([0.0, 1.0, 5.0]), [[1.0, -2.0]] * 3)
    assert partial.rhs_evaluations > 0


def test_integrate_rejects_a_non_broadcasting_rhs_at_once():
    calls = []

    def matvec(t, x):
        calls.append(np.shape(x))
        return STIFF_PAIR @ x

    with pytest.raises(ValueError, match="broadcast over a leading batch axis"):
        integrate_ivp(matvec, np.array([[1.0, 1.0]]), (0.0, 10.0), **TOL)
    assert calls == [(1, 2)]
    with pytest.raises(ValueError, match=r"shape \(2,\)"):
        integrate_ivp(lambda t, x: -x.ravel(), np.array([[1.0, 1.0]]), (0.0, 1.0), **TOL)


@pytest.mark.parametrize("starts", [np.array([1.0, 1.0]), np.ones((1, 2, 1)), np.array(1.0), np.zeros((0, 2))])
def test_integrate_takes_only_a_stack_of_starts(starts):
    """Starts other than a (k, n) stack are a ValueError that names their
    shape, before ``rhs`` is called."""
    calls = []

    def rhs(t, x):
        calls.append(np.shape(x))
        return -x

    with pytest.raises(ValueError, match=f"got shape {re.escape(str(starts.shape))}"):
        integrate_ivp(rhs, starts, (0.0, 1.0), **TOL)
    assert calls == []


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_integrate_names_a_start_that_is_not_finite(bad):
    """A non-finite start is a ValueError naming its row and value, before ``rhs`` is called."""
    calls = []

    def rhs(t, x):
        calls.append(np.shape(x))
        return -x

    starts = np.array([[0.5, 1.0], [0.2, bad]])
    with pytest.raises(ValueError, match=re.escape(f"row 1 is {[0.2, bad]}")):
        integrate_ivp(rhs, starts, (0.0, 1.0), **TOL)
    assert calls == []


JACOBIAN_MODELS = {
    "amp": build_amp(),
    "nhe": build_nhe(NheParameters(grid_side=6)),
    "lqr": build_linear([[0.0, 1.0], [-2.0, -0.5]], [[0.0], [1.0]], control_weight=[[0.5]]),
}


@pytest.mark.parametrize("name", sorted(JACOBIAN_MODELS))
def test_fd_jacobian_equals_the_column_loop(name):
    model = JACOBIAN_MODELS[name]
    rng = np.random.default_rng(21)
    z = rng.uniform(-0.8, 0.8, size=(12, 2 * model.dim_state + 1))

    def fun(rows):
        return pmp_rhs(model, rows)

    batched = fd_jacobian(fun, z)
    oracle = fd_jacobian_columns(fun, z)
    assert batched.shape == oracle.shape == (12, z.shape[1], z.shape[1])
    if name == "nhe":
        # the batched rows reach BLAS as one large product, the oracle's as
        # small ones, and OpenBLAS may sum small products in another order;
        # the rhs then differs in the last bits, magnified by 1 / (2 step)
        scale = float(np.max(np.abs(fun(z))))
        np.testing.assert_allclose(batched, oracle, rtol=0.0, atol=16.0 * np.finfo(float).eps * scale / FD_STEP)
    else:
        np.testing.assert_array_equal(batched, oracle)


def test_fd_jacobian_matches_the_closed_form_lqr_jacobian():
    model = JACOBIAN_MODELS["lqr"]
    a, b, c = model.lin_A, model.lin_B, model.cost_matrix
    n = model.dim_state
    rng = np.random.default_rng(22)
    z = rng.uniform(-2.0, 2.0, size=(5, 2 * n + 1))
    jac = fd_jacobian(lambda rows: pmp_rhs(model, rows), z)
    for row, got in zip(z, jac):
        x, p = row[:n], row[n : 2 * n]
        u = optimal_control(model, x, p)
        want = np.zeros((2 * n + 1, 2 * n + 1))
        want[:n, :n] = a
        want[:n, n : 2 * n] = -0.5 * b @ model.R_inv @ b.T
        want[n : 2 * n, :n] = -2.0 * c
        want[n : 2 * n, n : 2 * n] = -a.T
        # v' = -(x^T C x + u^T R u) with du/dp = -R^{-1} B^T / 2
        want[2 * n, :n] = -2.0 * c @ x
        want[2 * n, n : 2 * n] = b @ u
        np.testing.assert_allclose(got, want, rtol=1e-8, atol=1e-8 * np.max(np.abs(want)))


def test_fd_jacobian_broadcasts_over_leading_axes():
    model = JACOBIAN_MODELS["amp"]
    rng = np.random.default_rng(23)
    z = rng.uniform(-0.8, 0.8, size=(3, 4, 5))
    jac = fd_jacobian(lambda rows: pmp_rhs(model, rows), z)
    assert jac.shape == (3, 4, 5, 5)
    flat = fd_jacobian(lambda rows: pmp_rhs(model, rows), z.reshape(12, 5))
    np.testing.assert_array_equal(jac.reshape(12, 5, 5), flat)
    one = fd_jacobian(lambda rows: pmp_rhs(model, rows), z[1, 2])
    np.testing.assert_array_equal(one, jac[1, 2])


def test_fd_gradient_on_a_quadratic():
    dev = fd_gradient_check(lambda x: float(x @ x), lambda x: 2.0 * x, np.array([1.0, 2.0]), h=1e-5)
    assert dev <= 1e-8


def test_fd_gradient_of_a_constant():
    dev = fd_gradient_check(lambda x: 7.0, lambda x: np.zeros_like(x), np.array([0.3, -0.2]), h=1e-5)
    assert dev <= 1e-12


def test_fd_gradient_exponential():
    f = lambda x: float(np.exp(x @ x))
    g = lambda x: 2.0 * x * np.exp(x @ x)
    assert fd_gradient_check(f, g, np.array([0.3, -0.2]), h=1e-5) <= 1e-6
    np.testing.assert_allclose(fd_gradient(f, np.array([0.3, -0.2])), g(np.array([0.3, -0.2])), rtol=1e-6)
