from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import composed_pmp_rhs, fd_gradient_check
from vfcontrol.models import (
    AmpParameters,
    ControlAffineModel,
    NheParameters,
    amp_true_gradient,
    amp_true_value,
    amp_value_factor,
    build_amp,
    build_linear,
    build_model,
    build_nhe,
    hjb_residual,
    nhe_assemble,
    nhe_node_coords,
    optimal_control,
    pmp_rhs,
)
from vfcontrol.numerics import FD_STEP, fd_jacobian

AMP = AmpParameters()


def test_amp_value_factor_frozen():
    # beta (1 + sqrt(1 + alpha/beta)) at the default parameters
    assert amp_value_factor(AMP) == pytest.approx(317.2293471517152, abs=1e-12)


def test_amp_analytic_value_and_gradient():
    x = np.array([1.0, 0.0])
    assert amp_true_value(AMP, x) == pytest.approx(545.0894226647184, rel=1e-13)
    g = amp_true_gradient(AMP, x)
    assert np.linalg.norm(g) == pytest.approx(1724.6375396328672, rel=1e-13)
    # gradient is radial: x and grad are parallel
    y = np.array([0.3, -0.4])
    gy = amp_true_gradient(AMP, y)
    assert abs(gy[0] * y[1] - gy[1] * y[0]) < 1e-12


def test_amp_gradient_matches_finite_differences():
    rng = np.random.default_rng(10)
    for _ in range(10):
        x = rng.uniform(-1, 1, size=2)
        dev = fd_gradient_check(
            lambda z: float(amp_true_value(AMP, z)), lambda z: amp_true_gradient(AMP, z), x, h=1e-6
        )
        assert dev <= 1e-3  # values reach ~1e3, so this is ~1e-6 relative


def test_amp_optimal_control_closed_form():
    """u* = -(C/beta) e^{q/2} q against the library's generic formula."""
    model = build_amp()
    c = amp_value_factor(AMP)
    rng = np.random.default_rng(11)
    for _ in range(10):
        x = rng.uniform(-1, 1, size=2)
        q = float(x @ x)
        u = optimal_control(model, x, amp_true_gradient(AMP, x))
        assert u.shape == (1,)
        assert u[0] == pytest.approx(-(c / AMP.beta) * np.exp(0.5 * q) * q, rel=1e-12)
    u0 = optimal_control(model, np.array([1.0, 0.0]), amp_true_gradient(AMP, np.array([1.0, 0.0])))
    assert u0[0] == pytest.approx(-523.022772339348, rel=1e-12)


def test_amp_hjb_residual_vanishes_on_the_analytic_solution():
    model = build_amp()
    rng = np.random.default_rng(12)
    x = rng.uniform(-1, 1, size=(100, 2))
    resid = hjb_residual(model, x, amp_true_gradient(AMP, x))
    assert np.all(np.abs(resid) <= 1e-9 * (1.0 + model.r(x)))


def test_pmp_value_component_is_nonpositive():
    rng = np.random.default_rng(13)
    for model in (build_amp(), build_linear([[-1.0]], [[1.0]]), build_nhe(NheParameters(grid_side=3))):
        n = model.dim_state
        z = rng.uniform(-1, 1, size=(20, 2 * n + 1))
        dz = pmp_rhs(model, z)
        assert dz.shape == z.shape
        assert np.all(dz[:, 2 * n] <= 0.0)


def test_pmp_rhs_scalar_linear_by_hand():
    # a=-1, b=c=r=1: u = -p/2, x' = -x - p/2, p' = -(-p + 2x), v' = -(x^2 + p^2/4)
    model = build_linear([[-1.0]], [[1.0]])
    z = np.array([2.0, 0.5, 7.0])
    dz = pmp_rhs(model, z)
    np.testing.assert_allclose(dz, [-2.25, -3.5, -4.0625], atol=1e-14)


def _costate_terms(model, x, p):
    """The three terms of p' = -(J_f^T p + [d(g u)/dx]^T p + grad r), read off
    ``pmp_rhs``: with u linear in p, the first is odd in p, the second even
    and the third free of p."""
    n = model.dim_state

    def dp(costate):
        return pmp_rhs(model, np.concatenate([x, costate, [0.0]]))[n : 2 * n]

    plus, minus, zero = dp(p), dp(-p), dp(np.zeros(n))
    return -0.5 * (plus - minus), zero - 0.5 * (plus + minus), -zero


def test_grad_r_matches_finite_differences_for_all_models():
    rng = np.random.default_rng(14)
    models = (build_amp(), build_nhe(NheParameters(grid_side=3)), build_linear([[0.0, 1.0], [0.0, 0.0]], [0.0, 1.0]))
    for model in models:
        zero = np.zeros(model.dim_state)
        for _ in range(50):
            x = rng.uniform(-0.8, 0.8, size=model.dim_state)
            dev = fd_gradient_check(
                lambda z: float(model.r(z)), lambda z: _costate_terms(model, z, zero)[2], x, h=1e-5
            )
            assert dev <= 1e-5 * (1.0 + abs(float(model.r(x))))


def test_jacobian_transpose_action_consistency():
    """<J_f(x)^T p, d> must equal <p, directional derivative of f along d>."""
    rng = np.random.default_rng(15)
    h = 1e-6
    for model in (build_amp(), build_nhe(NheParameters(grid_side=3))):
        n = model.dim_state
        for _ in range(10):
            x = rng.uniform(-0.7, 0.7, size=n)
            p = rng.normal(size=n)
            d = rng.normal(size=n)
            lhs = float(_costate_terms(model, x, p)[0] @ d)
            rhs = float(p @ (model.f(x + h * d) - model.f(x - h * d))) / (2 * h)
            assert abs(lhs - rhs) <= 1e-4 * (1.0 + abs(lhs))


def test_control_coupling_transpose_action_consistency():
    """<[d(g u)/dx]^T p, d> at u = u*(x, p) must equal <p, directional derivative of g u along d>."""
    model = build_amp()
    rng = np.random.default_rng(16)
    h = 1e-6
    for _ in range(10):
        x = rng.uniform(-0.7, 0.7, size=2)
        p = rng.normal(size=2)
        d = rng.normal(size=2)
        u = optimal_control(model, x, p)
        lhs = float(_costate_terms(model, x, p)[1] @ d)
        rhs = float(p @ (model.g_apply(x + h * d, u) - model.g_apply(x - h * d, u))) / (2 * h)
        assert abs(lhs - rhs) <= 1e-6 * (1.0 + abs(lhs))


def test_nhe_grid_and_control_region_sizes():
    a10, b10 = nhe_assemble(NheParameters(grid_side=10))
    assert a10.shape == (100, 100)
    assert b10.shape == (100, 36)
    a6, b6 = nhe_assemble(NheParameters(grid_side=6))
    assert a6.shape == (36, 36)
    assert b6.shape == (36, 16)
    # control columns select cells, one 1 per column
    assert np.all(np.sum(b6, axis=0) == 1.0)
    assert np.all((b6 == 0.0) | (b6 == 1.0))


def test_nhe_laplacian_conserves_mass():
    for side in (3, 6, 10):
        a, _ = nhe_assemble(NheParameters(grid_side=side))
        np.testing.assert_allclose(a @ np.ones(side * side), 0.0, atol=1e-10)
        np.testing.assert_allclose(a, a.T, atol=1e-10)


def test_nhe_constant_one_is_an_equilibrium():
    model = build_nhe(NheParameters(grid_side=4))
    x = np.ones(16)
    np.testing.assert_allclose(model.f(x), 0.0, atol=1e-10)


def test_nhe_node_coords_are_cell_centers():
    coords = nhe_node_coords(4)
    assert coords.shape == (16, 2)
    assert coords.min() == 0.125
    assert coords.max() == 0.875
    # first node sits at the lower-left cell center
    np.testing.assert_allclose(coords[0], [0.125, 0.125])


def test_nhe_interior_laplacian_stencil_scale():
    # away from the boundary the row holds -4k/h^2 on the diagonal and k/h^2
    # on the four neighbors
    params = NheParameters(grid_side=6)
    a, _ = nhe_assemble(params)
    scale = params.diffusivity * params.grid_side**2
    k = 6 * 2 + 3  # node (3, 2): all four neighbors interior
    assert a[k, k] == pytest.approx(-4.0 * scale)
    assert a[k, k + 1] == pytest.approx(scale)
    assert a[k, k + 6] == pytest.approx(scale)


def test_build_model_registry():
    assert build_model("amp").name == "amp"
    assert build_model("amp", {"dim": 3}).dim_state == 3
    assert build_model("nhe", {"grid_side": 3}).dim_state == 9
    lqr = build_model("lqr", {"A": [[-1.0]], "B": [[1.0]], "cost": [[1.0]], "R": [[1.0]]})
    assert lqr.dim_state == 1 and lqr.dim_control == 1
    with pytest.raises(ValueError):
        build_model("pendulum")


def test_build_model_rejects_unknown_and_missing_params():
    with pytest.raises(ValueError, match="grid_sid"):
        build_model("nhe", {"grid_sid": 6})
    with pytest.raises(ValueError, match="'A'"):
        build_model("lqr", {"B": [[1.0]]})


BAD_PARAMETERS = {
    "dim": ("amp", {"dim": 0}),
    "beta": ("amp", {"beta": 0.0}),
    "alpha": ("amp", {"alpha": -5.0}),
    "grid_side": ("nhe", {"grid_side": 0}),
    "diffusivity": ("nhe", {"diffusivity": 0.0}),
    "control_penalty": ("nhe", {"control_penalty": 0.0}),
    # grid side 4 puts its nodes at 0.125, 0.375, 0.625 and 0.875
    "control_low, control_high": ("nhe", {"grid_side": 4, "control_low": [0.4, 0.4], "control_high": [0.6, 0.6]}),
}


@pytest.mark.parametrize("parameter", sorted(BAD_PARAMETERS))
def test_out_of_range_model_parameters_are_named(parameter):
    """A parameter that makes no model (0 states, a division by 0, a negative
    cost, a control box between the grid nodes) is a ValueError naming it."""
    name, params = BAD_PARAMETERS[parameter]
    with pytest.raises(ValueError, match=f"model parameter {parameter} must be"):
        build_model(name, params)


def test_linear_model_pieces():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    model = build_linear(a, [0.0, 1.0])
    x = np.array([1.0, 2.0])
    np.testing.assert_allclose(model.f(x), a @ x)
    np.testing.assert_allclose(model.g_apply(x, np.array([3.0])), [0.0, 3.0])
    np.testing.assert_allclose(model.gT_apply(x, np.array([5.0, 7.0])), [7.0])
    assert model.r(x) == pytest.approx(5.0)


def linearizations():
    """(model, A, B, R^{-1}) in closed form for every bundled kind."""
    for dim in (2, 5):
        yield build_amp(AmpParameters(dim=dim)), np.zeros((dim, dim)), np.zeros((dim, 1)), np.array([[1.0 / AMP.beta]])
    for side in (3, 6):
        params = NheParameters(grid_side=side)
        a, b = nhe_assemble(params)
        yield build_nhe(params), a, b, (1.0 / params.control_penalty) * np.eye(b.shape[1])
    a, b = np.array([[0.0, 1.0], [-2.0, -0.5]]), np.array([[0.0], [1.0]])
    yield build_linear(a, b, control_weight=[[0.5]]), a, b, np.array([[2.0]])


def test_linearization_and_control_weight_are_derived_exactly():
    for model, a, b, r_inv in linearizations():
        assert np.array_equal(model.lin_A, a), model.name
        assert np.array_equal(model.lin_B, b), model.name
        assert np.array_equal(model.R_inv, r_inv), model.name
        assert model.dim_control == model.R.shape[0] == b.shape[1]


@pytest.mark.parametrize("derived", ["R_inv", "lin_A", "lin_B", "dim_control"])
def test_derived_facts_cannot_be_declared(derived):
    model = build_linear([[-1.0]], [[1.0]])
    declared = {f.name: getattr(model, f.name) for f in fields(ControlAffineModel)}
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{derived}'"):
        ControlAffineModel(**declared, **{derived: getattr(model, derived)})


BUNDLED = {
    "amp": build_amp(AmpParameters(dim=3)),
    "nhe": build_nhe(NheParameters(grid_side=3)),
    "lqr": build_linear([[0.0, 1.0], [-2.0, -0.5]], [[0.0], [1.0]], control_weight=[[0.5]]),
}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(BUNDLED)), st.integers(1, 3), st.integers(1, 4), st.data())
def test_model_maps_broadcast_over_leading_batch_axes(name, k, m, data):
    """A stacked (k, m, .) input gives the row-by-row results of every map.

    Both finite-difference Jacobians (collocation and LSODA) feed all their
    perturbed rows through one call, so they rely on this.
    """
    model = BUNDLED[name]
    n, nc = model.dim_state, model.dim_control
    values = st.floats(-1.0, 1.0)
    z = data.draw(arrays(float, (k, m, 2 * n + 1), elements=values))
    u = data.draw(arrays(float, (k, m, nc), elements=values))
    x, p = z[..., :n], z[..., n : 2 * n]
    maps = {
        "f": lambda i: model.f(x[i]),
        "g_apply": lambda i: model.g_apply(x[i], u[i]),
        "gT_apply": lambda i: model.gT_apply(x[i], p[i]),
        "r": lambda i: model.r(x[i]),
        "pmp_rhs": lambda i: pmp_rhs(model, z[i]),
    }
    for label, apply in maps.items():
        stacked = apply(Ellipsis)
        rows = np.array([[apply((a, b)) for b in range(m)] for a in range(k)])
        assert stacked.shape == rows.shape, label
        np.testing.assert_allclose(stacked, rows, rtol=1e-13, atol=1e-12, err_msg=label)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(BUNDLED)), st.integers(1, 4), st.data())
def test_closed_form_optimality_system_matches_the_composition(name, k, data):
    """``pmp_rhs``, which each bundled model writes in closed form, against the
    Pontryagin composition of its maps (``helpers.composed_pmp_rhs``).

    The x' and v' rows take no derivative, so they agree to rounding: 1e-13
    of the size of the terms they sum, or below the normal range.  The p' rows take J_f^T p,
    [d(g u)/dx]^T p and grad r by central differences of F = f, g u and r
    with the step h = FD_STEP (1 + |x|).  These lose eps |F| / h to rounding,
    taken 16 times here, and h^2 |D^3 F| / 6 to truncation, taken as 1e-6 of
    the terms' size plus 1e-9 where the state is about as small as h.
    """
    model = BUNDLED[name]
    n = model.dim_state
    z = data.draw(arrays(float, (k, 2 * n + 1), elements=st.floats(-1.0, 1.0)))
    closed = pmp_rhs(model, z)
    composed, size = composed_pmp_rhs(model, z)
    gap = np.abs(closed - composed)
    exact = np.r_[0:n, 2 * n]
    assert np.all(gap[:, exact] <= 1e-13 * size[:, exact] + np.finfo(float).tiny)
    x, p = z[:, :n], z[:, n : 2 * n]
    gu = model.g_apply(x, optimal_control(model, x, p))
    values = np.sum(np.abs(p) * (np.abs(model.f(x)) + np.abs(gu)), axis=1) + np.abs(model.r(x))
    rounding = 16.0 * np.finfo(float).eps * values[:, None] / (FD_STEP * (1.0 + np.abs(x)))
    assert np.all(gap[:, n : 2 * n] <= rounding + 1e-6 * size[:, n : 2 * n] + 1e-9)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(BUNDLED)), st.integers(1, 4), st.data())
def test_pmp_jacobian_matches_finite_differences(name, k, data):
    """The closed-form Jacobian of every bundled model against ``fd_jacobian`` of ``pmp_rhs``.

    With h = FD_STEP (1 + |z|), a central difference of F loses
    eps (|F| + h |J|) / h to rounding and h^2 |D^3 F| / 6 to truncation; the
    second difference J(z + h e_j) - 2 J(z) + J(z - h e_j) of the closed form
    is about h^2 D^3 F and stands in for the latter.  ``pmp_jacobian`` also
    broadcasts over the batch axis.
    """
    model = BUNDLED[name]
    nz = 2 * model.dim_state + 1
    z = data.draw(arrays(float, (k, nz), elements=st.floats(-1.0, 1.0)))
    jac = model.pmp_jacobian(z)
    fd = fd_jacobian(lambda rows: pmp_rhs(model, rows), z)
    assert jac.shape == (k, nz, nz)
    np.testing.assert_allclose(model.pmp_jacobian(z[0]), jac[0], rtol=1e-13, atol=1e-12)
    shift = (FD_STEP * (1.0 + np.abs(z)))[:, :, None] * np.eye(nz)
    second = model.pmp_jacobian(z[:, None] + shift) - 2.0 * jac[:, None] + model.pmp_jacobian(z[:, None] - shift)
    scale = float(np.max(np.abs(pmp_rhs(model, z)))) / FD_STEP + float(np.max(np.abs(jac)))
    atol = 16.0 * np.finfo(float).eps * scale + float(np.max(np.abs(second)))
    np.testing.assert_allclose(jac, fd, rtol=0.0, atol=atol)
