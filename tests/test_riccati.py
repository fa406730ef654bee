import numpy as np
import pytest

from vfcontrol.models import NheParameters, build_amp, build_linear, build_nhe
from vfcontrol.riccati import (
    RiccatiError,
    care_residual,
    quadratic_matrix,
    solve_are,
)


def test_scalar_stable_plant():
    # a=-1, b=c=r=1: q^2 + 2q - 1 = 0, stabilizing root sqrt(2) - 1
    q = solve_are(np.array([[-1.0]]), np.array([[1.0]]), np.eye(1), np.eye(1))
    assert q[0, 0] == pytest.approx(np.sqrt(2.0) - 1.0, rel=1e-12)


def test_scalar_unstable_plant():
    q = solve_are(np.array([[1.0]]), np.array([[1.0]]), np.eye(1), np.eye(1))
    assert q[0, 0] == pytest.approx(np.sqrt(2.0) + 1.0, rel=1e-12)


def test_zero_drift_identity_everything():
    # A=0, B=C=R=I: -Q^2 + I = 0 with Q symmetric positive definite, so Q = I
    q = solve_are(np.zeros((3, 3)), np.eye(3), np.eye(3), np.eye(3))
    np.testing.assert_allclose(q, np.eye(3), atol=1e-10)


def test_random_system_residual_and_symmetry():
    rng = np.random.default_rng(20)
    for _ in range(5):
        n = int(rng.integers(2, 6))
        a = rng.normal(size=(n, n))
        b = np.eye(n)
        c = np.eye(n)
        rw = np.eye(n)
        q = solve_are(a, b, c, rw)
        np.testing.assert_allclose(q, q.T, atol=1e-12)
        resid = care_residual(a, b, c, rw, q)
        assert np.max(np.abs(resid)) <= 1e-9 * (1.0 + np.max(np.abs(q)))
        # stabilizing: closed-loop eigenvalues in the left half plane
        acl = a - b @ np.linalg.solve(rw, b.T) @ q
        assert np.max(np.linalg.eigvals(acl).real) < 0.0


def test_care_residual_detects_a_wrong_candidate():
    a = np.array([[-1.0]])
    wrong = np.array([[5.0]])
    assert abs(care_residual(a, np.eye(1), np.eye(1), np.eye(1), wrong)[0, 0]) > 1.0


def test_unstabilizable_pair_raises():
    # b = 0 with an unstable mode cannot be stabilized
    with pytest.raises(RiccatiError):
        solve_are(np.array([[1.0]]), np.array([[0.0]]), np.eye(1), np.eye(1))


def test_quadratic_matrix_uses_the_declared_override():
    model = build_amp()
    qm = quadratic_matrix(model)
    c = 317.2293471517152
    np.testing.assert_allclose(qm, 2.0 * c * np.eye(2), rtol=1e-12)


def test_quadratic_matrix_solves_the_linearization_otherwise():
    model = build_linear([[-1.0]], [[1.0]])
    qm = quadratic_matrix(model)
    assert qm[0, 0] == pytest.approx(np.sqrt(2.0) - 1.0, rel=1e-10)


def test_nhe_quadratic_model_is_small_and_definite():
    """Cheap control makes the reaction-diffusion value matrix tiny but PD."""
    model = build_nhe(NheParameters(grid_side=4))
    qm = quadratic_matrix(model)
    assert qm.shape == (16, 16)
    np.testing.assert_allclose(qm, qm.T, atol=1e-12)
    ev = np.linalg.eigvalsh(qm)
    assert ev.min() > 0.0
    assert ev.max() < 1.0
    resid = care_residual(model.lin_A, model.lin_B, model.cost_matrix, model.R, qm)
    assert np.max(np.abs(resid)) <= 1e-9 * (1.0 + np.max(np.abs(qm)))
