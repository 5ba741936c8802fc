"""Grid construction and discrete operator behavior."""

import operator

import numpy as np
import pytest

from diffocean.errors import ShapeError, StaggeringError
from diffocean.grid import (
    Field,
    Staggering,
    ddx,
    ddy,
    divergence,
    interp,
    laplacian,
    make_channel_grid,
)


def center(values):
    return Field(values, Staggering.CENTER)


def test_make_channel_grid_spacing():
    g = make_channel_grid(64, 64, 1e6, 1e6, 500.0, 1e-4, 2e-11)
    assert g.dx == pytest.approx(15625.0)
    assert g.dy == pytest.approx(15625.0)
    assert g == make_channel_grid(64, 64, 1e6, 1e6, 500.0, 1e-4, 2e-11)
    assert hash(g) == hash(make_channel_grid(64, 64, 1e6, 1e6, 500.0, 1e-4, 2e-11))


def test_make_channel_grid_f_plane_off():
    g = make_channel_grid(4, 4, 4e5, 4e5, 100.0, 0.0, 0.0)
    assert g.dx == pytest.approx(1e5)
    assert np.all(g.f_at_u == 0.0)


def test_make_channel_grid_rejects_small_and_nonpositive():
    with pytest.raises(ShapeError):
        make_channel_grid(3, 8, 1e6, 1e6, 500.0, 1e-4, 2e-11)
    with pytest.raises(ShapeError):
        make_channel_grid(8, 3, 1e6, 1e6, 500.0, 1e-4, 2e-11)
    with pytest.raises(ShapeError):
        make_channel_grid(8, 8, -1e6, 1e6, 500.0, 0.0, 0.0)
    with pytest.raises(ShapeError):
        make_channel_grid(8, 8, 1e6, 1e6, 0.0, 0.0, 0.0)


def test_laplacian_of_constant_is_zero():
    g = make_channel_grid(16, 12, 1e6, 1e6, 100.0, 0.0, 0.0)
    for stag in (Staggering.CENTER, Staggering.U_FACE, Staggering.V_FACE):
        out = laplacian(Field(np.full(g.shape, 3.7), stag), g)
        if stag is Staggering.V_FACE:
            # Dirichlet walls see the constant as flow through the boundary.
            assert np.all(out.values[:, 1:-1] == 0.0)
        else:
            np.testing.assert_array_equal(out.values, 0.0)


def test_laplacian_periodic_eigenfunction():
    g = make_channel_grid(64, 8, 1e6, 1e6, 500.0, 0.0, 0.0)
    x = g.x_center
    f = np.sin(2 * np.pi * x / g.Lx)[:, None] * np.ones((1, g.ny))
    out = laplacian(center(f), g).values
    lam_discrete = -(2.0 / g.dx**2) * (1.0 - np.cos(2 * np.pi * g.dx / g.Lx))
    np.testing.assert_allclose(out, lam_discrete * f, rtol=1e-11, atol=1e-22)
    lam_analytic = -((2 * np.pi / g.Lx) ** 2)
    rel = np.max(np.abs(out - lam_analytic * f)) / np.max(np.abs(lam_analytic * f))
    assert rel < 2e-3  # O(dx^2) with 64 points


def test_laplacian_unit_spike_stencil():
    g = make_channel_grid(8, 8, 8.0, 8.0, 1.0, 0.0, 0.0)
    f = np.zeros(g.shape)
    f[4, 4] = 1.0
    out = laplacian(center(f), g).values
    assert out[4, 4] == -4.0
    for i, j in ((3, 4), (5, 4), (4, 3), (4, 5)):
        assert out[i, j] == 1.0
    assert np.sum(np.abs(out)) == 8.0


def test_laplacian_shape_mismatch():
    g = make_channel_grid(8, 8, 1e6, 1e6, 100.0, 0.0, 0.0)
    with pytest.raises(ShapeError):
        laplacian(center(np.zeros((8, 9))), g)


def test_ddx_ddy_constants():
    g = make_channel_grid(12, 8, 1e6, 8e5, 100.0, 0.0, 0.0)
    c = center(np.full(g.shape, 2.5))
    np.testing.assert_array_equal(ddx(c, g).values, 0.0)
    # ddy of a constant vanishes except on the suppressed wall row (also 0)
    np.testing.assert_array_equal(ddy(c, g).values, 0.0)


def test_ddx_linear_ramp_interior():
    g = make_channel_grid(16, 8, 1.6e6, 8e5, 100.0, 0.0, 0.0)
    a = 3e-4
    f = center(a * g.x_center[:, None] * np.ones((1, g.ny)))
    out = ddx(f, g).values
    np.testing.assert_allclose(out[:-1, :], a, rtol=1e-12)  # wrap column excluded


def test_ddx_staggering_transitions():
    g = make_channel_grid(8, 8, 1e6, 1e6, 100.0, 0.0, 0.0)
    assert ddx(center(np.zeros(g.shape)), g).staggering is Staggering.U_FACE
    assert ddx(Field(np.zeros(g.shape), Staggering.U_FACE), g).staggering is Staggering.CENTER
    assert ddx(Field(np.zeros(g.shape), Staggering.V_FACE), g).staggering is Staggering.CORNER
    assert ddy(center(np.zeros(g.shape)), g).staggering is Staggering.V_FACE
    assert ddy(Field(np.zeros(g.shape), Staggering.U_FACE), g).staggering is Staggering.CORNER


def test_ddx_ddy_commute():
    g = make_channel_grid(16, 12, 1e6, 1e6, 100.0, 0.0, 0.0)
    rng = np.random.default_rng(3)
    f = center(rng.standard_normal(g.shape))
    order_a = ddy(ddx(f, g), g).values
    order_b = ddx(ddy(f, g), g).values
    np.testing.assert_allclose(order_a, order_b, rtol=1e-12, atol=1e-18)


def test_divergence_of_uniform_flow_vanishes():
    g = make_channel_grid(8, 8, 1e6, 1e6, 100.0, 0.0, 0.0)
    u = Field(np.full(g.shape, 0.3), Staggering.U_FACE)
    v = Field(np.zeros(g.shape), Staggering.V_FACE)
    np.testing.assert_array_equal(divergence(u, v, g).values, 0.0)


def solenoidal_pair(g, rng):
    """u, v from a corner streamfunction with constant wall rows."""
    psi = rng.standard_normal((g.nx, g.ny + 1))
    psi[:, 0] = 0.0
    psi[:, -1] = 0.0
    rolled = np.roll(psi, -1, axis=0)
    u = -(rolled[:, 1:] - rolled[:, :-1]) / g.dy
    v = (rolled[:, 1:] - psi[:, 1:]) / g.dx
    return (
        Field(u, Staggering.U_FACE),
        Field(v, Staggering.V_FACE),
    )


def test_divergence_of_streamfunction_flow_vanishes():
    g = make_channel_grid(24, 16, 1.2e6, 8e5, 100.0, 0.0, 0.0)
    rng = np.random.default_rng(11)
    u, v = solenoidal_pair(g, rng)
    assert np.abs(v.values[:, -1]).max() == 0.0
    div = divergence(u, v, g).values
    scale = np.abs(u.values).max() / g.dx
    assert np.abs(div).max() < 1e-12 * scale


def test_divergence_x_ramp_gives_slope():
    g = make_channel_grid(16, 8, 1.6e6, 8e5, 100.0, 0.0, 0.0)
    a = 2e-6
    x_face = (np.arange(g.nx) + 1.0) * g.dx
    u = Field(a * x_face[:, None] * np.ones((1, g.ny)), Staggering.U_FACE)
    v = Field(np.zeros(g.shape), Staggering.V_FACE)
    div = divergence(u, v, g).values
    np.testing.assert_allclose(div[1:, :], a, rtol=1e-12)


def test_divergence_sum_zero_when_walls_closed():
    g = make_channel_grid(16, 12, 1e6, 1e6, 100.0, 0.0, 0.0)
    rng = np.random.default_rng(5)
    u = Field(rng.standard_normal(g.shape), Staggering.U_FACE)
    v_values = rng.standard_normal(g.shape)
    v_values[:, -1] = 0.0
    v = Field(v_values, Staggering.V_FACE)
    div = divergence(u, v, g).values
    scale = np.sum(np.abs(div))
    assert abs(np.sum(div)) < 1e-12 * scale


def test_divergence_staggering_mismatch():
    g = make_channel_grid(8, 8, 1e6, 1e6, 100.0, 0.0, 0.0)
    f = center(np.zeros(g.shape))
    with pytest.raises(StaggeringError):
        divergence(f, f, g)


def test_interp_preserves_constants():
    g = make_channel_grid(8, 8, 1e6, 1e6, 100.0, 0.0, 0.0)
    c = center(np.full(g.shape, 4.2))
    for to in (Staggering.U_FACE, Staggering.V_FACE):
        out = interp(c, to)
        assert out.staggering is to
        np.testing.assert_array_equal(out.values, 4.2)
        back = interp(out, Staggering.CENTER)
        np.testing.assert_array_equal(back.values, 4.2)


def test_interp_alternating_pattern_cancels():
    g = make_channel_grid(8, 8, 1e6, 1e6, 100.0, 0.0, 0.0)
    f = center(np.where(np.arange(g.nx)[:, None] % 2 == 0, 1.0, -1.0) * np.ones((1, g.ny)))
    out = interp(f, Staggering.U_FACE)
    np.testing.assert_array_equal(out.values, 0.0)


def test_interp_round_trip_is_documented_smoothing():
    g = make_channel_grid(16, 8, 1e6, 8e5, 100.0, 0.0, 0.0)
    rng = np.random.default_rng(7)
    f = rng.standard_normal(g.shape)
    out = interp(interp(center(f), Staggering.U_FACE), Staggering.CENTER).values
    # two-step average oracle
    direct = 0.5 * (0.5 * (f + np.roll(f, -1, 0)) + np.roll(0.5 * (f + np.roll(f, -1, 0)), 1, 0))
    np.testing.assert_array_equal(out, direct)
    assert not np.array_equal(out, f)  # smoothing, not the identity


def test_interp_rejects_non_adjacent_pair():
    g = make_channel_grid(8, 8, 1e6, 1e6, 100.0, 0.0, 0.0)
    u = Field(np.zeros(g.shape), Staggering.U_FACE)
    with pytest.raises(StaggeringError):
        interp(u, Staggering.V_FACE)


def test_operators_are_linear():
    g = make_channel_grid(12, 10, 1e6, 1e6, 100.0, 0.0, 0.0)
    rng = np.random.default_rng(13)
    f = rng.standard_normal(g.shape)
    h = rng.standard_normal(g.shape)
    a, b = 2.3, -0.7
    for op in (
        lambda x: laplacian(center(x), g).values,
        lambda x: ddx(center(x), g).values,
        lambda x: ddy(center(x), g).values,
        lambda x: interp(center(x), Staggering.U_FACE).values,
        lambda x: interp(center(x), Staggering.V_FACE).values,
    ):
        combined = op(a * f + b * h)
        separate = a * op(f) + b * op(h)
        np.testing.assert_allclose(combined, separate, rtol=1e-12, atol=1e-20)


def test_zonal_translation_equivariance():
    g = make_channel_grid(16, 12, 1e6, 1e6, 100.0, 0.0, 0.0)
    rng = np.random.default_rng(17)
    f = rng.standard_normal(g.shape)
    for op in (
        lambda x: laplacian(center(x), g).values,
        lambda x: ddx(center(x), g).values,
        lambda x: ddy(center(x), g).values,
        lambda x: interp(center(x), Staggering.U_FACE).values,
    ):
        shifted_then_op = op(np.roll(f, 1, axis=0))
        op_then_shifted = np.roll(op(f), 1, axis=0)
        np.testing.assert_array_equal(shifted_then_op, op_then_shifted)


def test_field_rejects_mixed_staggering_arithmetic():
    g = make_channel_grid(8, 8, 1e6, 1e6, 100.0, 0.0, 0.0)
    u = Field(np.zeros(g.shape), Staggering.U_FACE)
    c = center(np.zeros(g.shape))
    with pytest.raises(StaggeringError):
        _ = u + c


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
def test_ndarray_left_operand_defers_to_field(op):
    rng = np.random.default_rng(3)
    row = rng.standard_normal((1, 8))  # like the Coriolis rows f_at_u, f_at_v
    f = Field(rng.standard_normal((8, 8)), Staggering.V_FACE)
    out = op(row, f)
    assert isinstance(out, Field)
    assert out.staggering is Staggering.V_FACE
    assert out.values.tobytes() == op(row, f.values).tobytes()


def test_ndarray_left_division_by_field_raises():
    with pytest.raises(TypeError):
        _ = np.ones((8, 8)) / center(np.ones((8, 8)))
