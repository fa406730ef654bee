import numpy as np
import pytest
import scipy.linalg

from helpers import fd_gradient, fd_gradient_check
from vfcontrol.numerics import CgError, cg_solve, integrate_ivp


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
    residuals and send the iterate off to 1e37.
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
    assert err.value.residual < 1e-5
    assert np.all(np.isfinite(err.value.x))


def test_integrate_exponential_decay():
    res = integrate_ivp(lambda t, x: -x, np.array([1.0]), (0.0, 5.0), rel_tol=1e-10, abs_tol=1e-12)
    np.testing.assert_allclose(res.states[-1, 0], np.exp(-5.0), rtol=1e-8)
    # dense output hits interior times too
    np.testing.assert_allclose(res.at(1.7)[0], np.exp(-1.7), rtol=1e-7)


def test_integrate_tightening_tolerance_never_hurts():
    """Halving rel_tol must not increase the error against the exact solution."""
    errs = []
    for rel in (1e-6, 5e-7, 2.5e-7, 1.25e-7):
        res = integrate_ivp(lambda t, x: -x, np.array([1.0]), (0.0, 3.0), rel_tol=rel, abs_tol=1e-14)
        errs.append(abs(res.states[-1, 0] - np.exp(-3.0)))
    assert all(b <= a * 1.001 + 1e-15 for a, b in zip(errs, errs[1:]))


def test_integrate_stop_event_cuts_the_run():
    res = integrate_ivp(lambda t, x: x, np.array([1.0]), (0.0, 10.0), stop=lambda t, x: x[0] - 5.0)
    assert res.times[-1] < 10.0
    np.testing.assert_allclose(res.states[-1, 0], 5.0, rtol=1e-6)


def test_integrate_lsoda_handles_a_stiff_pair():
    # two-rate linear system; the stiff path should not need thousands of steps
    a = np.array([[-1000.0, 0.0], [1.0, -1.0]])
    res = integrate_ivp(lambda t, x: a @ x, np.array([1.0, 1.0]), (0.0, 10.0))
    assert res.times.size < 500
    assert np.all(np.isfinite(res.states))


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
