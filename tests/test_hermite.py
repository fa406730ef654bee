import json
from dataclasses import FrozenInstanceError, replace

import re
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import centers_with_twins, close_pairs, dense_hermite_matrix, factor_of, hermite_apply, lattice_centers
from vfcontrol import hermite
from vfcontrol.hermite import (
    MIN_SPACING,
    FitError,
    HermiteFactor,
    HermiteOperator,
    Surrogate,
    assemble_rhs,
    fit,
    load_surrogate,
    quadratic_surrogate,
    save_surrogate,
    stack_coeffs,
    unstack_coeffs,
)
from vfcontrol.kernels import StructuredKernel, WendlandC4
from vfcontrol.vkoga import VkogaConfig, run_vkoga


def both_kernels(dim, gamma):
    base = WendlandC4(dim=dim, gamma=gamma)
    return base, StructuredKernel(base)


def matvec(kern, centers, vec):
    return HermiteOperator(kern, centers).matvec(vec)


def native_norm_sq(sur):
    """Squared native-space norm c^T M c of a plain surrogate."""
    c = stack_coeffs(sur.alphas, sur.betas)
    return float(c @ matvec(sur.kernel, sur.centers, c))


def test_stack_roundtrip():
    rng = np.random.default_rng(30)
    alphas = rng.normal(size=4)
    betas = rng.normal(size=(4, 3))
    a2, b2 = unstack_coeffs(stack_coeffs(alphas, betas), 4, 3)
    np.testing.assert_array_equal(a2, alphas)
    np.testing.assert_array_equal(b2, betas)


def test_matvec_matches_dense_assembly():
    rng = np.random.default_rng(31)
    for kern in both_kernels(2, 0.5):
        centers = lattice_centers(rng, 4, 2, avoid_origin=True)
        m = dense_hermite_matrix(kern, centers)
        for _ in range(5):
            vec = rng.normal(size=m.shape[0])
            np.testing.assert_allclose(matvec(kern, centers, vec), m @ vec, rtol=1e-11, atol=1e-11)


def test_operator_form_is_identical_to_the_one_shot_form():
    rng = np.random.default_rng(32)
    for kern in both_kernels(3, 0.4):
        centers = lattice_centers(rng, 5, 3, avoid_origin=True)
        op = HermiteOperator(kern, centers)
        assert op.size == 5 * 4
        for _ in range(3):
            vec = rng.normal(size=op.size)
            vals, grads = hermite_apply(kern, centers, *unstack_coeffs(vec, 5, 3), centers)
            np.testing.assert_array_equal(op.matvec(vec), stack_coeffs(vals, grads))


def test_matvec_symmetry_probe():
    """|<Mu, w> - <u, Mw>| stays at rounding level for random pairs."""
    rng = np.random.default_rng(33)
    for kern in both_kernels(2, 0.6):
        centers = lattice_centers(rng, 4, 2, avoid_origin=True)
        scale = np.max(np.abs(dense_hermite_matrix(kern, centers)))
        for _ in range(20):
            u = rng.normal(size=12)
            w = rng.normal(size=12)
            gap = abs(float(matvec(kern, centers, u) @ w) - float(u @ matvec(kern, centers, w)))
            assert gap <= 1e-12 * np.linalg.norm(u) * np.linalg.norm(w) * scale


def test_matvec_positive_semidefinite_probe():
    rng = np.random.default_rng(34)
    for kern in both_kernels(2, 0.6):
        centers = lattice_centers(rng, 5, 2, avoid_origin=True)
        scale = np.max(np.abs(dense_hermite_matrix(kern, centers)))
        for _ in range(20):
            v = rng.normal(size=15)
            assert float(v @ matvec(kern, centers, v)) >= -1e-12 * scale * float(v @ v)


def test_empty_and_single_center_matvec():
    kern = WendlandC4(dim=2, gamma=1.0)
    assert matvec(kern, np.zeros((0, 2)), np.zeros(0)).size == 0
    centers = np.array([[0.3, 0.1]])
    m = dense_hermite_matrix(kern, centers)
    vec = np.array([1.0, 2.0, -1.0])
    np.testing.assert_allclose(matvec(kern, centers, vec), m @ vec, rtol=1e-12)


def test_fit_equals_dense_solve():
    rng = np.random.default_rng(35)
    for kern in both_kernels(2, 0.5):
        centers = lattice_centers(rng, 4, 2, avoid_origin=True)
        m = dense_hermite_matrix(kern, centers)
        rhs = rng.normal(size=m.shape[0])
        alphas, betas, info = fit(factor_of(kern, centers), rhs, cg_tol=1e-12)
        ref = scipy.linalg.solve(m, rhs)
        got = stack_coeffs(alphas, betas)
        assert np.max(np.abs(got - ref)) <= 1e-8 * max(1.0, np.max(np.abs(ref)))
        assert info["iterations"] > 0
        assert info["residual"] <= 1e-12
        assert info["nugget"] == 0.0


def turned_away(factor, center):
    """Whether ``factor`` turns ``center`` away, checked to leave the factor as it was."""
    centers, lower = factor.centers.copy(), factor.lower.copy()
    taken = factor.append(center)
    if not taken:
        np.testing.assert_array_equal(factor.centers, centers)
        np.testing.assert_array_equal(factor.lower, lower)
    return not taken


def test_the_factor_turns_away_a_duplicate_center():
    kern = WendlandC4(dim=2, gamma=1.0)
    factor = factor_of(kern, [[0.5, 0.5], [0.1, -0.2]])
    assert turned_away(factor, np.array([0.5, 0.5]))
    assert factor.n == 2


def test_the_factor_turns_away_centers_at_rounding_distance():
    """Two trajectory tails 2.5e-16 apart at the origin: the factor turns the
    second away, with a nugget or without, instead of leaving CG a singular
    system."""
    kern = WendlandC4(dim=1, gamma=1.0)
    for nugget in (0.0, 1e-3):
        factor = factor_of(kern, [[0.5], [2.5e-16], [-0.4]], nugget)
        assert turned_away(factor, np.array([5.0e-16]))


def test_a_structured_center_at_the_origin_has_a_vanishing_gram_block():
    # <x, y>^2 k(x, y) vanishes with all its derivatives at x = 0
    kern = StructuredKernel(WendlandC4(dim=2, gamma=0.5))
    factor = factor_of(kern, [[0.5, 0.2]])
    with pytest.raises(FitError, match="center 1 has a vanishing Gram block"):
        factor.append(np.zeros(2))


def test_nearly_coincident_centers_fail_the_schur_test():
    """Centers 1e-7 apart, farther than MIN_SPACING, leave a Schur block that
    is not numerically positive definite: the factor turns the second one
    away unchanged and takes the next."""
    kern = WendlandC4(dim=2, gamma=0.5)
    centers = np.array([[0.3, -0.2], [0.3 + 1e-7, -0.2], [-0.5, 0.4]])
    assert np.linalg.norm(centers[1] - centers[0]) > MIN_SPACING
    factor = factor_of(kern, centers[:1])
    assert turned_away(factor, centers[1])
    assert factor.append(centers[2])


def test_fit_nugget_shifts_the_system():
    rng = np.random.default_rng(36)
    kern = WendlandC4(dim=2, gamma=0.5)
    centers = lattice_centers(rng, 4, 2)
    m = dense_hermite_matrix(kern, centers)
    rhs = rng.normal(size=m.shape[0])
    nugget = 1e-3
    alphas, betas, info = fit(factor_of(kern, centers, nugget), rhs, cg_tol=1e-12)
    ref = scipy.linalg.solve(m + nugget * np.eye(m.shape[0]), rhs)
    np.testing.assert_allclose(stack_coeffs(alphas, betas), ref, atol=1e-8)
    assert info["nugget"] == nugget


def test_plain_interpolation_conditions():
    """After a clean fit the surrogate reproduces values and gradients at the
    centers to 10 * cg_tol * scale."""
    rng = np.random.default_rng(37)
    kern = WendlandC4(dim=2, gamma=0.5)
    centers = lattice_centers(rng, 5, 2)
    values = rng.normal(size=5)
    grads = rng.normal(size=(5, 2))
    cg_tol = 1e-10
    alphas, betas, _ = fit(factor_of(kern, centers), assemble_rhs(values, grads)[0], cg_tol=cg_tol)
    sur = Surrogate(kernel=kern, centers=centers, alphas=alphas, betas=betas)
    sv, sg = sur.value_and_gradient(centers)
    scale = float(np.max(np.abs(values) + np.linalg.norm(grads, axis=1)))
    resid = np.abs(values - sv) + np.linalg.norm(grads - sg, axis=1)
    assert np.max(resid) <= 10 * cg_tol * scale


def test_structured_interpolation_conditions():
    # positive values away from the origin, checked on the original data after
    # the square-root transformation round-trips through the fit
    rng = np.random.default_rng(38)
    base, kern = both_kernels(2, 0.5)
    centers = lattice_centers(rng, 5, 2, avoid_origin=True)
    qm = np.array([[2.0, 0.3], [0.3, 1.0]])
    values = np.einsum("ij,jk,ik->i", centers, qm, centers) * rng.uniform(0.5, 2.0, size=5)
    grads = rng.normal(size=(5, 2))
    cg_tol = 1e-11
    rhs, _ = assemble_rhs(values, grads, q_matrix=qm, centers=centers)
    alphas, betas, _ = fit(factor_of(kern, centers), rhs, cg_tol=cg_tol)
    sur = Surrogate(kernel=kern, centers=centers, alphas=alphas, betas=betas, q_matrix=qm)
    sv, sg = sur.value_and_gradient(centers)
    scale = float(np.max(np.abs(values) + np.linalg.norm(grads, axis=1)))
    resid = np.abs(values - sv) + np.linalg.norm(grads - sg, axis=1)
    assert np.max(resid) <= 10 * cg_tol * scale * 100


def test_assemble_rhs_validation():
    with pytest.raises(ValueError, match="sample 1 has v = -1"):
        assemble_rhs(np.array([1.0, -1.0]), np.ones((2, 2)), q_matrix=np.eye(2), centers=np.ones((2, 2)))
    with pytest.raises(ValueError, match="origin; sample 1 has .* x\\^T Q x = 0"):
        assemble_rhs(np.array([1.0, 1.0]), np.ones((2, 2)), q_matrix=np.eye(2), centers=np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="centers"):
        assemble_rhs(np.ones(2), np.ones((2, 2)), q_matrix=np.eye(2))


def test_assemble_rhs_is_structured_exactly_when_given_q():
    """Plain: the stacked data, which is also what the residual is measured
    against.  Structured: the square-root data minus the quadratic model's."""
    values = np.array([2.0, 8.0])
    grads = np.array([[4.0, 0.0], [0.0, 8.0]])
    centers = np.array([[1.0, 0.0], [0.0, 2.0]])
    rhs, data = assemble_rhs(values, grads)
    np.testing.assert_array_equal(rhs, stack_coeffs(values, grads))
    assert data is rhs
    rhs, data = assemble_rhs(values, grads, q_matrix=np.eye(2), centers=centers)
    root = np.sqrt(values)
    np.testing.assert_array_equal(data, stack_coeffs(root, grads / (2.0 * root[:, None])))
    np.testing.assert_allclose(rhs, data - stack_coeffs([1.0, 2.0], centers / [[1.0], [2.0]]), rtol=1e-15)


def test_surrogate_gradient_matches_finite_differences():
    rng = np.random.default_rng(39)
    kern = WendlandC4(dim=2, gamma=0.6)
    centers = lattice_centers(rng, 5, 2)
    alphas = rng.normal(size=5)
    betas = rng.normal(size=(5, 2))
    sur = Surrogate(kernel=kern, centers=centers, alphas=alphas, betas=betas)
    h = 1e-6
    for _ in range(50):
        x = rng.uniform(-1.5, 1.5, size=2)
        _, g = sur.value_and_gradient(x)
        fd = np.zeros(2)
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd[i] = (sur.value(x + e)[0] - sur.value(x - e)[0]) / (2 * h)
        np.testing.assert_allclose(g[0], fd, atol=1e-5)


def test_structured_surrogate_vanishes_at_origin():
    rng = np.random.default_rng(40)
    base, kern = both_kernels(2, 0.8)
    centers = lattice_centers(rng, 3, 2, avoid_origin=True)
    sur = Surrogate(
        kernel=kern,
        centers=centers,
        alphas=rng.normal(size=3),
        betas=rng.normal(size=(3, 2)),
        q_matrix=np.eye(2),
    )
    v, g = sur.value_and_gradient(np.zeros((1, 2)))
    assert v[0] == 0.0
    assert np.all(g[0] == 0.0)
    # and the value is a perfect square, hence nonnegative, everywhere
    probes = rng.uniform(-2, 2, size=(200, 2))
    assert np.all(sur.value(probes) >= 0.0)
    # a NaN state is not read as the origin, on either path
    nan = np.array([[np.nan, 0.5]])
    for points in (nan, np.vstack([nan, probes[:2]])):
        v, g = sur.value_and_gradient(points)
        assert np.isnan(v[0]) and np.all(np.isnan(g[0]))


def test_hermite_apply_with_zero_centers():
    kern = WendlandC4(dim=2, gamma=1.0)
    vals, grads = hermite_apply(kern, np.zeros((0, 2)), np.zeros(0), np.zeros((0, 2)), np.ones((3, 2)))
    np.testing.assert_array_equal(vals, np.zeros(3))
    np.testing.assert_array_equal(grads, np.zeros((3, 2)))


def test_native_norm_of_a_single_center():
    kern = WendlandC4(dim=2, gamma=1.0)
    sur = Surrogate(kernel=kern, centers=np.array([[0.4, -0.2]]), alphas=np.array([1.0]), betas=np.zeros((1, 2)))
    assert native_norm_sq(sur) == pytest.approx(3.0, rel=1e-12)
    empty = Surrogate(kernel=kern, centers=np.zeros((0, 2)), alphas=np.zeros(0), betas=np.zeros((0, 2)))
    assert native_norm_sq(empty) == 0.0


def test_native_norm_is_monotone_under_nesting():
    """Interpolating on more centers can only raise the native norm."""
    rng = np.random.default_rng(41)
    kern = WendlandC4(dim=2, gamma=0.5)
    centers = lattice_centers(rng, 6, 2)
    values = rng.normal(size=6)
    grads = rng.normal(size=(6, 2))
    norms = []
    for n in (2, 4, 6):
        alphas, betas, _ = fit(factor_of(kern, centers[:n]), assemble_rhs(values[:n], grads[:n])[0], cg_tol=1e-12)
        norms.append(native_norm_sq(Surrogate(kernel=kern, centers=centers[:n], alphas=alphas, betas=betas)))
    assert norms[0] <= norms[1] + 1e-8
    assert norms[1] <= norms[2] + 1e-8


def test_quadratic_surrogate_is_exactly_quadratic():
    qm = np.array([[2.0, 0.5], [0.5, 3.0]])
    sur = quadratic_surrogate(qm)
    assert sur.n_centers == 0
    rng = np.random.default_rng(42)
    x = rng.uniform(-2, 2, size=(20, 2))
    v, g = sur.value_and_gradient(x)
    np.testing.assert_allclose(v, np.einsum("ij,jk,ik->i", x, qm, x), rtol=1e-12)
    np.testing.assert_allclose(g, 2.0 * x @ qm, rtol=1e-12)


def test_surrogate_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(43)
    base, kern = both_kernels(2, 0.7)
    centers = lattice_centers(rng, 3, 2, avoid_origin=True)
    sur = Surrogate(
        kernel=kern,
        centers=centers,
        alphas=rng.normal(size=3),
        betas=rng.normal(size=(3, 2)),
        q_matrix=np.array([[2.0, 0.1], [0.1, 1.0]]),
        meta={"nugget": 1e-9, "cg_tol": 1e-10},
    )
    path = tmp_path / "sur.json"
    save_surrogate(sur, path)
    again = load_surrogate(path)
    assert again.variant == "structured"
    assert again.meta["nugget"] == 1e-9
    probes = rng.uniform(-2, 2, size=(10, 2))
    v1, g1 = sur.value_and_gradient(probes)
    v2, g2 = again.value_and_gradient(probes)
    np.testing.assert_array_equal(v1, v2)
    np.testing.assert_array_equal(g1, g2)
    # saving the reloaded surrogate writes identical bytes
    path2 = tmp_path / "sur2.json"
    save_surrogate(again, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_a_surrogate_cannot_disagree_with_its_kernel(tmp_path):
    """The kernel is the variant: a structured kernel needs Q, a plain one
    takes none, the variant cannot be set, and a file whose variant was
    edited does not load."""
    base, kern = both_kernels(2, 0.8)
    coeffs = dict(centers=np.ones((1, 2)), alphas=np.ones(1), betas=np.zeros((1, 2)))
    with pytest.raises(ValueError, match="plain kernel takes no quadratic matrix"):
        Surrogate(kernel=base, q_matrix=np.eye(2), **coeffs)
    with pytest.raises(ValueError, match="structured kernel needs the quadratic matrix"):
        Surrogate(kernel=kern, **coeffs)
    plain = Surrogate(kernel=base, **coeffs)
    structured = Surrogate(kernel=kern, q_matrix=np.eye(2), **coeffs)
    assert (plain.variant, structured.variant) == ("plain", "structured")
    with pytest.raises(TypeError):
        replace(structured, variant="plain")
    with pytest.raises(FrozenInstanceError):
        structured.kernel = base
    for sur, edited, flag in ((structured, "plain", True), (plain, "structured", False)):
        path = tmp_path / f"{sur.variant}.json"
        save_surrogate(sur, path)
        doc = json.loads(path.read_text())
        doc["variant"] = edited
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"variant '{edited}' disagrees with kernel structured = {flag}"):
            load_surrogate(path)


def test_load_surrogate_rejects_unknown_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"schema": "something-else"}\n')
    with pytest.raises(ValueError, match="schema"):
        load_surrogate(path)



@pytest.mark.parametrize(
    "name, value",
    [
        ("centers", np.ones((3, 1))),
        ("centers", np.ones(6)),
        ("alphas", np.ones((3, 1))),
        ("betas", np.zeros((3, 3))),
        ("q_matrix", np.eye(3)),
    ],
)
def test_a_surrogate_checks_its_shapes(name, value):
    """Centers (n, dim), alphas (n,), betas (n, dim) and a structured Q
    (dim, dim), for the kernel's dim."""
    _, kern = both_kernels(2, 0.8)
    coeffs = dict(centers=np.ones((3, 2)), alphas=np.ones(3), betas=np.zeros((3, 2)), q_matrix=np.eye(2))
    Surrogate(kernel=kern, **coeffs)
    coeffs[name] = value
    with pytest.raises(ValueError, match=f"surrogate {name} has shape"):
        Surrogate(kernel=kern, **coeffs)


def test_one_dimensional_samples_make_no_surrogate_under_a_kernel_of_dim_2(tmp_path):
    """Fitting 1-D samples under a kernel of dim 2 used to write 1-D centers
    next to that kernel, and loading reshaped 6 such centers into 3 of dim 2
    while keeping 6 alphas.  Both are shape errors now."""
    points = np.linspace(-1.0, 1.0, 9)[:, None]
    values, grads = 0.4 * points[:, 0] ** 2, 0.8 * points
    with pytest.raises(ValueError, match=re.escape("centers has shape (0, 1), but 0 alphas and a kernel of dim 2 need (0, 2)")):
        run_vkoga(WendlandC4(dim=2, gamma=0.8), points, values, grads, VkogaConfig(max_centers=6))
    one_dim = run_vkoga(WendlandC4(dim=1, gamma=0.8), points, values, grads, VkogaConfig(max_centers=6)).surrogate
    assert one_dim.n_centers == 6
    path = tmp_path / "sur.json"
    save_surrogate(one_dim, path)
    doc = json.loads(path.read_text())
    doc["kernel"]["dim"] = 2
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=re.escape("centers has shape (3, 2), but 6 alphas and a kernel of dim 2 need (6, 2)")):
        load_surrogate(path)

@st.composite
def structured_surrogates(draw, max_centers=4):
    """Structured surrogates over generated centers, coefficients and SPD Q,
    with a batch of probe points in the same dimension."""
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(0, max_centers))
    coords = st.floats(-2.0, 2.0, allow_nan=False)
    coeffs = st.floats(-10.0, 10.0, allow_nan=False)
    factor = draw(arrays(float, (dim, dim), elements=coords))
    sur = Surrogate(
        kernel=StructuredKernel(WendlandC4(dim=dim, gamma=draw(st.floats(0.1, 3.0)))),
        centers=draw(arrays(float, (n, dim), elements=coords)),
        alphas=draw(arrays(float, n, elements=coeffs)),
        betas=draw(arrays(float, (n, dim), elements=coeffs)),
        q_matrix=factor @ factor.T + 0.1 * np.eye(dim),
    )
    probes = draw(arrays(float, (draw(st.integers(1, 8)), dim), elements=st.floats(-3.0, 3.0, allow_nan=False)))
    return sur, probes


@settings(max_examples=60, deadline=None)
@given(structured_surrogates())
def test_structured_surrogate_properties_hold_for_generated_inputs(case):
    sur, probes = case
    v, g = sur.value_and_gradient(np.zeros((1, sur.centers.shape[1])))
    assert v[0] == 0.0
    assert np.all(g[0] == 0.0)
    assert np.all(sur.value(probes) >= 0.0)


@settings(max_examples=30, deadline=None)
@given(structured_surrogates(), st.booleans(), st.data())
def test_save_load_roundtrips_generated_arrays_bit_for_bit(tmp_path_factory, case, plain, data):
    sur, _ = case
    # any finite double, not just the tame range the evaluation tests need
    finite = st.floats(allow_nan=False, allow_infinity=False)
    sur = replace(sur, alphas=data.draw(arrays(float, sur.alphas.shape, elements=finite)))
    if plain:
        sur = replace(sur, kernel=sur.kernel.base, q_matrix=None)
    path = tmp_path_factory.mktemp("sur") / "sur.json"
    save_surrogate(sur, path)
    again = load_surrogate(path)
    assert (again.variant, again.kernel) == (sur.variant, sur.kernel)
    assert plain == (again.q_matrix is None)
    for name in ("centers", "alphas", "betas") + (() if plain else ("q_matrix",)):
        a, b = getattr(sur, name), getattr(again, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


@settings(max_examples=60, deadline=None)
@given(
    dim=st.integers(1, 4),
    n=st.integers(1, 5),
    structured=st.booleans(),
    nugget=st.sampled_from([0.0, 1e-3]),
    gamma=st.floats(0.3, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_factor_and_matvec_match_dense_algebra_on_generated_centers(dim, n, structured, nugget, gamma, seed):
    rng = np.random.default_rng(seed)
    base, kern = both_kernels(dim, gamma)
    kern = kern if structured else base
    centers = lattice_centers(rng, n, dim, avoid_origin=True)
    n = centers.shape[0]
    m = dense_hermite_matrix(kern, centers)
    scale = np.max(np.abs(m))

    vec = rng.normal(size=m.shape[0])
    got = HermiteOperator(kern, centers).matvec(vec)
    np.testing.assert_allclose(got, m @ vec, rtol=0, atol=1e-12 * scale * np.linalg.norm(vec))

    factor = factor_of(kern, centers, nugget)
    # the factor runs in center order: each center's value slot, then its gradient slots
    order = np.concatenate([[i, *range(n + i * dim, n + (i + 1) * dim)] for i in range(n)])
    shifted = (m + nugget * np.eye(m.shape[0]))[np.ix_(order, order)]
    low = factor.lower
    np.testing.assert_allclose(low @ low.T, shifted, rtol=0, atol=1e-12 * scale)
    np.testing.assert_allclose(factor.solve(m @ vec + nugget * vec), vec, rtol=0, atol=1e-6 * np.linalg.norm(vec))


@settings(max_examples=60, deadline=None)
@given(
    dim=st.integers(1, 3),
    n=st.integers(1, 5),
    n_twins=st.integers(0, 2),
    structured=st.booleans(),
    nugget=st.sampled_from([0.0, 1e-3]),
    gamma=st.floats(0.3, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_factor_turns_away_exactly_the_near_duplicates(dim, n, n_twins, structured, nugget, gamma, seed):
    """On centers with injected pairs closer than MIN_SPACING, the factor of
    the centers it keeps is the dense Cholesky factor, and fit on it matches
    the dense solve."""
    rng = np.random.default_rng(seed)
    base, kern = both_kernels(dim, gamma)
    kern = kern if structured else base
    centers = centers_with_twins(rng, n, dim, n_twins)
    close = close_pairs(centers)

    factor = HermiteFactor(kern, nugget)
    kept = [i for i, c in enumerate(centers) if factor.append(c)]
    # turned away: the centers close to one kept before them
    expected = []
    for j in range(len(centers)):
        if not any((i, j) in close for i in expected):
            expected.append(j)
    assert kept == expected
    k = len(kept)
    m = dense_hermite_matrix(kern, centers[kept]) + nugget * np.eye(k * (1 + dim))
    order = np.concatenate([[i, *range(k + i * dim, k + (i + 1) * dim)] for i in range(k)])
    dense = np.linalg.cholesky(m[np.ix_(order, order)])
    np.testing.assert_allclose(factor.lower, dense, rtol=0, atol=1e-10 * np.max(np.abs(dense)))

    rhs = rng.normal(size=k * (1 + dim))
    alphas, betas, _ = fit(factor, rhs, cg_tol=1e-12)
    ref = np.linalg.solve(m, rhs)
    got = stack_coeffs(alphas, betas)
    assert np.max(np.abs(got - ref)) <= 1e-8 * max(1.0, np.max(np.abs(ref)))


def expansion_at(sur, y):
    """The bare expansion at the one state y (N,), as ``value_and_gradient``
    runs it on a 1-D row."""
    sqnorms, offsets, stacked = sur._center_terms
    ip, bg, profile = hermite._geometry(sur._base.profile, sqnorms, stacked, y)
    return hermite._expand(sur.variant == "structured", sur.alphas, offsets, stacked, y, ip, bg, profile)


def rounding_bound(sur, y):
    """How far two evaluation orders of the expansion at y may round apart.

    Every term of the value or of a gradient component is a coefficient
    (alpha_i or a component of beta_i), with a factor of at most 4, times one
    profile derivative times at most two coordinates of x_i or y, and for the
    structured kernel times at most <x_i, y>^2 more.  A term takes at most 16
    roundings and the sum over centers n more, so the terms contribute
    4 (16 + n) eps times the summed magnitudes, with every coefficient
    counted as at least the smallest normal number.  The profiles themselves are
    evaluated on squared distances that each order rounds, within
    (N + 2) eps (||x_i|| + ||y||)^2, so they may differ by as much as the
    profile moves over that interval.
    """
    x = sur.centers
    n, dim = x.shape
    eps = np.finfo(float).eps
    structured = isinstance(sur.kernel, StructuredKernel)
    base = sur.kernel.base if structured else sur.kernel
    d = x - y
    sq = np.sum(d * d, axis=1)
    norms = np.linalg.norm(x, axis=1) + np.linalg.norm(y)
    ds = (dim + 2) * eps * norms**2
    mid, lo, hi = (np.stack(base.profile(s)) for s in (sq, sq - ds, sq + ds))
    spread = np.sum(np.abs(hi - mid) + np.abs(mid - lo), axis=0)
    # below the smallest normal number a rounding errs by up to eps * tiny
    coefficients = np.abs(sur.alphas) + np.sum(np.abs(sur.betas), axis=1) + np.finfo(float).tiny
    weight = coefficients * (1.0 + norms) ** 2
    if structured:
        weight *= (1.0 + np.abs(x @ y)) ** 2
    return float(weight @ (4.0 * (16 + n) * eps * np.sum(np.abs(mid), axis=0) + 4.0 * spread))


def square_form_bound(q_matrix, y, h, w, tol):
    """How far two evaluation orders of s = h^2 and grad s = 2 h w may round
    apart, with h = sqrt(y^T Q y) + e and w = Q y / sqrt(y^T Q y) + grad e,
    when e and grad e are known to ``tol``.  y^T Q y and Q y are sums of
    terms bounded by |y|^T |Q| |y| and |Q| |y|, each rounded within
    (N + 2) eps of those; the square and the product take two roundings.
    Returns the bounds on s and on each component of grad s."""
    eps = np.finfo(float).eps
    rounding = (y.size + 2) * eps
    aqy = np.abs(q_matrix) @ np.abs(y)
    root = np.sqrt(y @ q_matrix @ y)
    d_root = rounding * (np.abs(y) @ aqy) / (2.0 * root)
    d_h = tol + d_root
    d_w = rounding * aqy / root + aqy * d_root / root**2 + tol + 2 * eps * np.abs(w)
    value = (2.0 * abs(h) + d_h) * d_h + 2 * eps * h * h
    grad = 2.0 * (abs(h) + d_h) * d_w + 2.0 * d_h * np.abs(w) + 4 * eps * abs(h) * np.abs(w)
    return value, grad


# y^T Q y = 7.1e-310 is subnormal, where the one-state and the batch path
# round it three subnormal units apart; both read it as the origin
SUBNORMAL_PROBE = (
    Surrogate(
        kernel=StructuredKernel(WendlandC4(dim=3, gamma=1.0)),
        centers=np.zeros((1, 3)),
        alphas=np.zeros(1),
        betas=np.zeros((1, 3)),
        q_matrix=np.ones((3, 3)) @ np.ones((3, 3)).T + 0.1 * np.eye(3),
    ),
    np.full((1, 3), 5.1e-156),
)


@settings(max_examples=80, deadline=None)
@given(structured_surrogates(), st.booleans())
@example(SUBNORMAL_PROBE, False)
def test_one_row_evaluation_agrees_with_the_batch(case, plain):
    """A single state runs the expansion on its 1-D row and the structured
    square on scalars; it matches the same row of a batch through
    ``hermite_apply`` to rounding (see ``rounding_bound``), not bit for bit,
    since the products round by their shape.  Probes include the origin and,
    for larger gamma, states outside every center's support."""
    sur, probes = case
    dim = sur.centers.shape[1]
    if plain:
        sur = replace(sur, kernel=sur.kernel.base, q_matrix=None)
    probes = np.vstack([probes, np.zeros((1, dim))])
    # the bare expansion, under the surrogate's kernel, against hermite_apply
    vals, grads = hermite_apply(sur.kernel, sur.centers, sur.alphas, sur.betas, probes)
    batch_v, batch_g = sur.value_and_gradient(probes)
    for y, v, g, bv, bg in zip(probes, vals, grads, batch_v, batch_g):
        tol = rounding_bound(sur, y)
        ev, eg = expansion_at(sur, y)
        assert abs(ev - v) <= tol
        assert np.max(np.abs(eg - g)) <= tol
        one_v, one_g = sur.value_and_gradient(y)
        assert one_v.shape == (1,) and one_g.shape == (1, dim)
        if sur.variant == "plain":
            assert one_v[0] == ev
            np.testing.assert_array_equal(one_g[0], eg)
            continue
        assert one_v[0] >= 0.0
        yqy = y @ sur.q_matrix @ y
        if not yqy >= np.finfo(float).tiny:
            assert one_v[0] == bv == 0.0
            assert np.all(one_g[0] == 0.0) and np.all(bg == 0.0)
            continue
        root = np.sqrt(yqy)
        h = root + v
        vtol, gtol = square_form_bound(sur.q_matrix, y, h, sur.q_matrix @ y / root + g, tol)
        assert abs(one_v[0] - bv) <= vtol
        assert np.all(np.abs(one_g[0] - bg) <= gtol)
    if sur.variant == "structured":
        v0, g0 = sur.value_and_gradient(np.zeros(dim))
        assert v0[0] == 0.0 and np.all(g0[0] == 0.0)


@settings(max_examples=80, deadline=None)
@given(structured_surrogates(), st.booleans())
def test_gradient_is_the_gradient_of_value_and_gradient_bit_for_bit(case, plain):
    """``gradient`` skips the value of a plain surrogate and forms the square
    of a structured one; either way it is ``value_and_gradient(p)[1]`` bit
    for bit, for one state as (N,) or (1, N) and for a batch, at the origin
    and at a probe outside every center's support (centers lie in
    [-2, 2]^N and supports have radius 1 / gamma <= 10)."""
    sur, probes = case
    dim = sur.centers.shape[1]
    if plain:
        sur = replace(sur, kernel=sur.kernel.base, q_matrix=None)
    batch = np.vstack([probes, np.zeros((1, dim)), np.full((1, dim), 20.0)])
    for points in (batch, *batch, *batch[:, None, :]):
        want = sur.value_and_gradient(points)[1]
        got = sur.gradient(points)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def small_surrogates(rng, n=4, dim=3):
    """A plain and a structured surrogate on the same n centers."""
    base, kern = both_kernels(dim, 0.6)
    centers = lattice_centers(rng, n, dim, avoid_origin=True)
    plain = Surrogate(kernel=base, centers=centers, alphas=rng.normal(size=n), betas=rng.normal(size=(n, dim)))
    return plain, replace(plain, kernel=kern, q_matrix=np.eye(dim))


def test_one_state_evaluates_the_profile_once_on_n_squared_distances(monkeypatch):
    """One state takes one profile call on the n squared distances to the
    centers; a batch of m states one call on an (m, n) table."""
    rng = np.random.default_rng(44)
    shapes = []
    profile = WendlandC4.profile

    def counted(self, s):
        shapes.append(np.shape(s))
        return profile(self, s)

    monkeypatch.setattr(WendlandC4, "profile", counted)
    for sur in small_surrogates(rng):
        n = sur.n_centers
        cases = ((rng.normal(size=(1, 3)), (n,)), (rng.normal(size=3), (n,)), (rng.normal(size=(2, 3)), (2, n)))
        for points, table in cases:
            shapes.clear()
            value, grad = sur.value_and_gradient(points)
            assert np.isfinite(value[0]) and np.all(np.isfinite(grad))
            assert shapes == [table]


def test_a_plain_gradient_never_evaluates_the_profile(monkeypatch):
    """A plain surrogate's gradient, of one state or a batch, reads only the
    profile's slopes; a structured one needs the correction's value and
    makes one ``profile`` call."""
    rng = np.random.default_rng(46)
    calls = []
    profile = WendlandC4.profile

    def counted(self, s):
        calls.append(np.shape(s))
        return profile(self, s)

    monkeypatch.setattr(WendlandC4, "profile", counted)
    for sur in small_surrogates(rng):
        for points in (rng.normal(size=3), rng.normal(size=(1, 3)), rng.normal(size=(5, 3))):
            calls.clear()
            sur.gradient(points)
            assert len(calls) == (sur.variant == "structured")


def test_every_evaluation_is_one_expand_call(monkeypatch):
    """One state and a batch, by ``value_and_gradient`` or by ``gradient``,
    ``hermite_apply`` and the Gram matvec all evaluate the expansion through
    one ``_expand`` call each."""
    rng = np.random.default_rng(45)
    calls = []
    expand = hermite._expand

    def counted(*args):
        calls.append(np.shape(args[4]))
        return expand(*args)

    monkeypatch.setattr(hermite, "_expand", counted)
    for sur in small_surrogates(rng):
        n, dim = sur.centers.shape
        evaluations = [
            (lambda: sur.value_and_gradient(rng.normal(size=(1, dim))), (dim,)),
            (lambda: sur.value_and_gradient(rng.normal(size=(5, dim))), (5, dim)),
            (lambda: sur.gradient(rng.normal(size=(1, dim))), (dim,)),
            (lambda: sur.gradient(rng.normal(size=(5, dim))), (5, dim)),
            (lambda: hermite_apply(sur.kernel, sur.centers, sur.alphas, sur.betas, rng.normal(size=(3, dim))), (3, dim)),
            (lambda: HermiteOperator(sur.kernel, sur.centers).matvec(rng.normal(size=n * (1 + dim))), (n, dim)),
        ]
        for evaluate, shape in evaluations:
            calls.clear()
            evaluate()
            assert calls == [shape]


def test_a_batch_square_pins_origin_and_subnormal_rows():
    """The batch square reads x^T Q x from one product and floors the root
    on rows below the smallest normal number: a batch of origins alone, and
    one whose x^T Q x is subnormal or underflows to zero on some rows,
    evaluate without a warning, give exact zeros on those rows, stay
    nonnegative, and ``gradient`` keeps the bits of ``value_and_gradient``."""
    rng = np.random.default_rng(47)
    _, sur = small_surrogates(rng)
    dim = sur.centers.shape[1]
    tiny = np.finfo(float).tiny
    edge = np.array([np.zeros(dim), np.full(dim, 5e-156), np.full(dim, -3e-156), np.full(dim, 1e-170)])
    assert np.all(np.einsum("ij,jk,ik->i", edge, sur.q_matrix, edge) < tiny)
    regular = rng.normal(size=(2, dim))
    for points, pinned in (
        (np.zeros((3, dim)), [0, 1, 2]),
        (np.vstack([regular[:1], edge, regular[1:]]), [1, 2, 3, 4]),
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, grad = sur.value_and_gradient(points)
            only = sur.gradient(points)
        assert np.all(value[pinned] == 0.0) and np.all(grad[pinned] == 0.0)
        assert np.all(value >= 0.0)
        assert np.all(np.isfinite(value)) and np.all(np.isfinite(grad))
        assert only.shape == grad.shape and only.tobytes() == grad.tobytes()
        if len(pinned) < len(points):
            assert np.all(value[[0, -1]] > 0.0)
