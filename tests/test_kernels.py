import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    dense_hermite_matrix,
    ek_apply,
    kernel_eval,
    kernel_grad1,
    kernel_grad2,
    lattice_centers,
    reference_profile,
)
from vfcontrol.kernels import StructuredKernel, WendlandC4, _int_power, kernel_from_spec, kernel_to_spec


def wendland_polynomial(kernel, r):
    """The radial profile as an explicit polynomial in r, for cross-checks."""
    l = kernel.smoothness_degree
    m = l + 2
    return (3.0 + 3.0 * m * r + (l + 1) * (l + 3) * r * r) * np.maximum(1.0 - r, 0.0) ** m


def test_parameter_validation():
    with pytest.raises(ValueError):
        WendlandC4(dim=0, gamma=1.0)
    with pytest.raises(ValueError):
        WendlandC4(dim=2, gamma=0.0)


def test_smoothness_degree_follows_dimension():
    assert WendlandC4(dim=1, gamma=1.0).smoothness_degree == 3
    assert WendlandC4(dim=2, gamma=1.0).smoothness_degree == 4
    assert WendlandC4(dim=3, gamma=1.0).smoothness_degree == 4
    assert WendlandC4(dim=6, gamma=1.0).smoothness_degree == 6


def test_profile_at_zero_and_beyond_support():
    for dim in (1, 2, 3):
        kern = WendlandC4(dim=dim, gamma=0.7)
        psi, dpsi, ddpsi = kern.profile(np.array([0.0, 2.0 * (1.0 / kern.gamma) ** 2]))
        assert psi[0] == 3.0
        assert psi[1] == 0.0 and dpsi[1] == 0.0 and ddpsi[1] == 0.0
        # outside the support every single-pair evaluation vanishes too
        x = np.zeros(dim)
        y = np.full(dim, 2.0 / (0.7 * np.sqrt(dim)))
        assert kernel_eval(kern, x, y) == 0.0
        assert np.all(kernel_grad1(kern, x, y) == 0.0)


def test_profile_matches_explicit_polynomial():
    kern = WendlandC4(dim=2, gamma=1.3)
    s = np.linspace(0.0, 1.0, 23)
    r = kern.gamma * np.sqrt(s)
    np.testing.assert_allclose(kern.profile(s)[0], wendland_polynomial(kern, r), rtol=1e-13, atol=1e-13)


def test_profile_derivatives_against_finite_differences():
    kern = WendlandC4(dim=3, gamma=0.9)
    s = np.array([0.013, 0.1, 0.37, 0.8])
    h = 1e-6
    fd_d = (kern.profile(s + h)[0] - kern.profile(s - h)[0]) / (2 * h)
    fd_dd = (kern.profile(s + h)[1] - kern.profile(s - h)[1]) / (2 * h)
    np.testing.assert_allclose(kern.profile(s)[1], fd_d, rtol=1e-7)
    np.testing.assert_allclose(kern.profile(s)[2], fd_dd, rtol=1e-6)


def test_profile_near_zero_agrees_with_singular_form():
    """The cancelled closed form must match the generic gamma^2 Phi'(r)/(2r)
    expression, which still divides by r, down to s = 1e-6."""
    kern = WendlandC4(dim=2, gamma=1.0)
    l = kern.smoothness_degree
    m = l + 2
    a2 = (l + 1) * (l + 3)
    s = 1e-6
    r = np.sqrt(s)
    # Phi = p(r) (1-r)^m with p = 3 + 3mr + a2 r^2, differentiated by hand
    p, dp, ddp = 3 + 3 * m * r + a2 * r * r, 3 * m + 2 * a2 * r, 2 * a2
    dphi = dp * (1 - r) ** m - m * p * (1 - r) ** (m - 1)
    ddphi = ddp * (1 - r) ** m - 2 * m * dp * (1 - r) ** (m - 1) + m * (m - 1) * p * (1 - r) ** (m - 2)
    singular = dphi / (2.0 * r)
    assert abs(float(kern.profile(s)[1]) - singular) <= 1e-6 * abs(singular)
    singular2 = 0.25 * (ddphi / s - dphi / (r * s))
    assert abs(float(kern.profile(s)[2]) - singular2) <= 1e-6 * abs(singular2)


def test_int_power_matches_numpy():
    rng = np.random.default_rng(8)
    base = rng.uniform(0.0, 1.0, size=40)
    for e in (0, 1, 2, 3, 7, 53):
        np.testing.assert_allclose(_int_power(base, e), base**e, rtol=1e-13)


def test_slopes_are_the_profile_derivatives_bit_for_bit():
    """``slopes`` skips psi; its psi' and psi'' are ``profile``'s, bit for
    bit, on flat and two-axis tables, at 0 and beyond the support."""
    rng = np.random.default_rng(9)
    for dim in (1, 2, 5, 36):
        kern = WendlandC4(dim=dim, gamma=0.7)
        edge = (1.0 / kern.gamma) ** 2
        for s in (rng.uniform(0.0, 3.0, size=17), rng.uniform(0.0, 3.0, size=(4, 9)), np.array([0.0, edge, 2.0 * edge])):
            slopes = kern.slopes(s)
            assert len(slopes) == 2
            for got, want in zip(slopes, kern.profile(s)[1:]):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(5)
    for kern in (WendlandC4(dim=3, gamma=0.6), StructuredKernel(WendlandC4(dim=3, gamma=0.6))):
        for _ in range(10):
            x = rng.uniform(-0.8, 0.8, size=3)
            y = rng.uniform(-0.8, 0.8, size=3)
            h = 1e-6
            fd = np.zeros(3)
            for i in range(3):
                e = np.zeros(3)
                e[i] = h
                fd[i] = (kernel_eval(kern, x + e, y) - kernel_eval(kern, x - e, y)) / (2 * h)
            np.testing.assert_allclose(kernel_grad1(kern, x, y), fd, atol=2e-6)
            np.testing.assert_allclose(kernel_grad2(kern, x, y), kernel_grad1(kern, y, x))


def test_mixed_block_at_coincident_points():
    # x = y kills the rank-one term and leaves -2 psi'(0) b = 56 gamma^2 b
    gamma = 0.8
    kern = WendlandC4(dim=2, gamma=gamma)
    x = np.array([0.3, -0.4])
    b = np.array([1.0, 2.0])
    np.testing.assert_allclose(ek_apply(kern, x, x, b), 56.0 * gamma**2 * b, rtol=1e-13)
    assert np.all(ek_apply(kern, x, x, np.zeros(2)) == 0.0)


def test_mixed_block_matches_fd_hessian():
    # hess[i, j] = d^2 k / dx_i dy_j by nested central differences; the block
    # action differentiates the second argument along rows, so compare to
    # hess.T @ b (they coincide for the radial kernel, whose block is symmetric)
    rng = np.random.default_rng(6)
    h = 1e-4
    for kern in (WendlandC4(dim=2, gamma=0.7), StructuredKernel(WendlandC4(dim=2, gamma=0.7))):
        for _ in range(6):
            x = rng.uniform(-0.7, 0.7, size=2)
            y = rng.uniform(-0.7, 0.7, size=2)
            b = rng.normal(size=2)
            hess = np.zeros((2, 2))
            for i in range(2):
                for j in range(2):
                    ei = np.zeros(2)
                    ej = np.zeros(2)
                    ei[i] = h
                    ej[j] = h
                    hess[i, j] = (
                        kernel_eval(kern, x + ei, y + ej)
                        - kernel_eval(kern, x + ei, y - ej)
                        - kernel_eval(kern, x - ei, y + ej)
                        + kernel_eval(kern, x - ei, y - ej)
                    ) / (4 * h * h)
            np.testing.assert_allclose(ek_apply(kern, x, y, b), hess.T @ b, atol=1e-5)


def test_structured_kernel_vanishes_at_the_origin():
    rng = np.random.default_rng(7)
    kern = StructuredKernel(WendlandC4(dim=3, gamma=0.5))
    zero = np.zeros(3)
    for _ in range(50):
        y = rng.uniform(-1, 1, size=3)
        b = rng.normal(size=3)
        assert kernel_eval(kern, zero, y) == 0.0
        assert kernel_eval(kern, y, zero) == 0.0
        assert np.all(kernel_grad1(kern, zero, y) == 0.0)
        assert np.all(kernel_grad1(kern, y, zero) == 0.0)
        assert np.all(ek_apply(kern, zero, y, b) == 0.0)
        assert np.all(ek_apply(kern, y, zero, b) == 0.0)


def test_assembled_matrix_is_positive_definite():
    """Small interpolation matrices from distinct centers have eigmin > 0."""
    rng = np.random.default_rng(9)
    for trial in range(8):
        n = int(rng.integers(2, 7))
        dim = int(rng.integers(1, 4))
        structured = bool(trial % 2)
        kern0 = WendlandC4(dim=dim, gamma=float(rng.uniform(0.3, 0.7)))
        kern = StructuredKernel(kern0) if structured else kern0
        centers = lattice_centers(rng, n, dim, avoid_origin=structured)
        m = dense_hermite_matrix(kern, centers)
        np.testing.assert_allclose(m, m.T, atol=1e-12)
        assert np.min(np.linalg.eigvalsh(m)) > 0.0


def test_kernel_spec_roundtrip():
    plain = WendlandC4(dim=2, gamma=1.2)
    again = kernel_from_spec(kernel_to_spec(plain))
    assert again == plain
    wrapped = StructuredKernel(plain)
    again = kernel_from_spec(kernel_to_spec(wrapped))
    assert isinstance(again, StructuredKernel) and again.base == plain
    with pytest.raises(ValueError):
        kernel_from_spec({"family": "gaussian", "dim": 2, "gamma": 1.0})


def edge_radii(gamma, fractions):
    """Squared radii at the edges of a profile of width gamma: 0 and -0,
    tiny negatives (the rounding of ||x||^2 - 2 <x, y> + ||y||^2 near y = x),
    1 / gamma^2 and its neighbours, points past the support, and the given
    fractions of the support."""
    edge = 1.0 / (gamma * gamma)
    return np.concatenate([
        [0.0, -0.0, -5e-324, -1e-300, -1e-17 * edge],
        [edge, np.nextafter(edge, 0.0), np.nextafter(edge, np.inf), 2.0 * edge, 1e6 * edge],
        np.asarray(fractions, dtype=float) * edge,
    ])


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 12),
    st.floats(0.02, 50.0),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30),
)
def test_profile_and_slopes_keep_the_reference_bits(dim, gamma, fractions):
    """``profile`` and ``slopes`` give the bits of ``reference_profile``,
    on one radius, on a vector and on a table, at the origin, on both sides
    of the support's edge and at tiny negative squared radii."""
    kern = WendlandC4(dim=dim, gamma=gamma)
    s = edge_radii(gamma, fractions)
    for radii in (s, s[::-1].reshape(1, -1), np.stack([s, s[::-1]]), s[5]):
        want = reference_profile(kern, radii)
        got = kern.profile(radii)
        assert len(got) == 3
        assert all(np.shape(a) == np.shape(radii) and np.asarray(a).tobytes() == np.asarray(b).tobytes()
                   for a, b in zip(got, want))
        slopes = kern.slopes(radii)
        assert len(slopes) == 2
        assert all(np.asarray(a).tobytes() == np.asarray(b).tobytes() for a, b in zip(slopes, want[1:]))
