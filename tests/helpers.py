"""Builders and flatteners that only the tests use."""

import numpy as np

from diffocean.autodiff import primitives as ops
from diffocean.autodiff import unbox
from diffocean.dyncore import (
    ModelState,
    PhysParams,
    StepConfig,
    cfl_limit,
    linear_profile_field,
    step_n,
)
from diffocean.errors import ShapeError
from diffocean.grid import Field, GridSpec, Staggering, make_channel_grid


def random_state(g: GridSpec, rng: np.random.Generator, amp=0.1) -> ModelState:
    """Unstructured random state (wall v row zeroed); for property tests."""
    v = amp * rng.standard_normal(g.shape)
    v[:, -1] = 0.0
    return ModelState(
        u=Field(amp * rng.standard_normal(g.shape), Staggering.U_FACE),
        v=Field(v, Staggering.V_FACE),
        eta=Field(amp * rng.standard_normal(g.shape), Staggering.CENTER),
        T=Field(10.0 + rng.standard_normal(g.shape), Staggering.CENTER),
        time=0.0,
    )


def state_aggregate_loss(params: PhysParams, g: GridSpec, c: StepConfig, n: int):
    """Scalar aggregation of the state after n steps (mean squares of fields)."""

    def loss(s: ModelState):
        out = step_n(s, n, params, g, c)
        return ops.add(
            ops.add(ops.amean(ops.power(out.u.values, p=2.0)),
                    ops.amean(ops.power(out.v.values, p=2.0))),
            ops.add(ops.amean(ops.power(out.eta.values, p=2.0)),
                    ops.amean(ops.power(out.T.values, p=2.0))),
        )

    return loss


def dissipative_test_setup(seed: int = 0):
    """Configuration in which total energy provably decays every step.

    The forward-backward scheme lets the Euclidean energy of a gravity
    wave wobble by a factor of order (c*dt*K)^2 per step even when the
    mode itself is neutrally stable, so per-step monotone decay requires
    the viscous damping A_h*K^2*dt to dominate that wobble at every
    wavenumber: A_h >= 2*g*H*dt. The values below satisfy the bound with
    a factor-two margin at all scales.
    """
    g = make_channel_grid(16, 16, 1.6e6, 1.6e6, 100.0, 1e-4, 0.0)
    params = PhysParams(
        A_h=6.0e5,
        r_bot=1e-4,
        g=9.81,
        rho0=1024.0,
        tau0=0.0,
        kappa_T=0.0,
        lambda_relax=0.0,
        T_star=linear_profile_field(g, 10.0, 10.0),
    )
    c = StepConfig(dt=300.0)
    assert c.dt < cfl_limit(g, params.g)
    rng = np.random.default_rng(seed)
    state = random_state(g, rng, amp=0.05)
    return g, params, c, state


def ravel(values) -> np.ndarray:
    """Concatenate leaf values into one flat float64 vector."""
    if not values:
        return np.zeros(0)
    return np.concatenate(
        [np.asarray(v, dtype=float).ravel() for v in values]
    )


def unravel(vec, like) -> list:
    """Split a flat vector back into leaf values shaped like `like`."""
    vec = np.asarray(vec, dtype=float)
    out = []
    pos = 0
    for v in like:
        p = unbox(v)
        if isinstance(p, np.ndarray):
            n = p.size
            out.append(vec[pos : pos + n].reshape(p.shape))
        else:
            n = 1
            out.append(float(vec[pos]))
        pos += n
    if pos != vec.size:
        raise ShapeError(f"flat vector has {vec.size} entries, template needs {pos}")
    return out


# -- reference stencils ------------------------------------------------------------
# The stencil kernels of diffocean.autodiff.primitives as whole-array
# expressions, rolls, slices and concatenations of the (..., nx, ny) array.
# The package runs the y-stencils on flat contiguous views and the
# x-stencils in the buffer of their roll; these are the oracle its outputs
# must equal bitwise.

def ref_ddx_fwd_fn(a, dx):
    return (np.roll(a, -1, axis=-2) - a) / dx


def ref_ddx_fwd_t(ct, dx):
    return (np.roll(ct, 1, axis=-2) - ct) / dx


def ref_ddx_bwd_fn(a, dx):
    return (a - np.roll(a, 1, axis=-2)) / dx


def ref_ddx_bwd_t(ct, dx):
    return (ct - np.roll(ct, -1, axis=-2)) / dx


def ref_interp_x_fwd_fn(a):
    return 0.5 * (a + np.roll(a, -1, axis=-2))


def ref_interp_x_bwd_fn(a):
    return 0.5 * (a + np.roll(a, 1, axis=-2))


def ref_shift_yp_fn(a, fill):
    top = np.zeros_like(a[..., :1]) if fill == "zero" else a[..., -1:]
    return np.concatenate([a[..., 1:], top], axis=-1)


def ref_shift_yp_t(ct, fill):
    g = np.zeros_like(ct)
    g[..., 1:] = ct[..., :-1]
    if fill == "edge":
        g[..., -1] += ct[..., -1]
    return g


def ref_ddy_fwd_fn(a, dy):
    out = np.zeros_like(a)
    out[..., :-1] = (a[..., 1:] - a[..., :-1]) / dy
    return out


def ref_ddy_fwd_t(ct, dy):
    t = ct[..., :-1] / dy
    g = np.empty_like(ct)
    g[..., 0] = -t[..., 0]
    g[..., 1:-1] = t[..., :-1] - t[..., 1:]
    g[..., -1] = t[..., -1]
    return g


def ref_ddy_bwd_fn(a, dy):
    out = np.empty_like(a)
    out[..., 0] = a[..., 0] / dy
    out[..., 1:] = (a[..., 1:] - a[..., :-1]) / dy
    return out


def ref_ddy_bwd_t(ct, dy):
    g = np.empty_like(ct)
    g[..., :-1] = (ct[..., :-1] - ct[..., 1:]) / dy
    g[..., -1] = ct[..., -1] / dy
    return g


def ref_interp_y_fwd_fn(a):
    out = np.empty_like(a)
    out[..., :-1] = 0.5 * (a[..., :-1] + a[..., 1:])
    out[..., -1] = a[..., -1]
    return out


def ref_interp_y_fwd_t(ct):
    g = np.empty_like(ct)
    g[..., 0] = 0.5 * ct[..., 0]
    g[..., 1:-1] = 0.5 * (ct[..., 1:-1] + ct[..., :-2])
    g[..., -1] = 0.5 * ct[..., -2] + ct[..., -1]
    return g


def ref_interp_y_bwd_fn(a):
    out = np.empty_like(a)
    out[..., 0] = a[..., 0]
    out[..., 1:] = 0.5 * (a[..., 1:] + a[..., :-1])
    return out


def ref_interp_y_bwd_t(ct):
    g = np.empty_like(ct)
    g[..., :-1] = 0.5 * (ct[..., :-1] + ct[..., 1:])
    g[..., 0] += 0.5 * ct[..., 0]
    g[..., -1] = 0.5 * ct[..., -1]
    return g


def ref_lap_fn(a, dx, dy, ybc):
    xx = (np.roll(a, -1, axis=-2) - 2.0 * a + np.roll(a, 1, axis=-2)) / (dx * dx)
    if ybc == "neumann":
        south, north = a[..., :1], a[..., -1:]
    elif ybc == "dirichlet":
        south = north = np.zeros_like(a[..., :1])
    elif ybc == "noslip":
        south, north = -a[..., :1], -a[..., -1:]
    else:
        raise ValueError(f"unknown y boundary condition {ybc!r}")
    up = np.concatenate([a[..., 1:], north], axis=-1)
    down = np.concatenate([south, a[..., :-1]], axis=-1)
    yy = (up - 2.0 * a + down) / (dy * dy)
    return xx + yy
