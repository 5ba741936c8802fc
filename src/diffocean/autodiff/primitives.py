"""Primitive inventory: elementwise algebra, reductions, and grid stencils.

Each primitive is defined once: define_primitive returns the callable
(`add = define_primitive("add", ...)`). Arrays go by position and statics
by keyword (`power(a, p=2.0)`); a positional static raises TypeError.

Arrays are laid out (..., nx, ny): axis -2 is zonal and periodic, axis -1
is meridional with solid walls, and any leading axes are a stack the
stencils act on slice by slice. Primal fields are (nx, ny); forward-mode
tangents carry one leading direction axis, (m, nx, ny), so every rule
below sees it. Stencil primitives are recorded on the tape as single
nodes; their cotangent rules are the exact matrix transposes of the
forward stencils (verified against dense Jacobians in the tests).

Wall conventions baked into the y-stencils:
  * forward y-differences produce a zero top row (no flux through the wall),
  * backward y-differences treat the missing south value as zero,
  * interpolation uses one-sided copies at the walls so constants survive.
"""

from __future__ import annotations

import numpy as np

from ..errors import DomainError
# apply stays a name here: perfbench's span tracer replaces it in this module
from .engine import apply, define_primitive  # noqa: F401

REG_EPS_DEFAULT = 1e-12


# -- helpers -----------------------------------------------------------------

def _unbroadcast(grad, ref):
    """Reduce a broadcasted gradient back to the shape of `ref`."""
    shape = np.shape(ref)
    if shape == ():
        return float(np.sum(grad))
    g = np.asarray(grad)
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _expand(ct, ref):
    """Broadcast a reduction cotangent over the shape of `ref`."""
    shape = np.shape(ref)
    if shape == ():
        return float(ct)
    return np.full(shape, ct, dtype=float)


def _passed(t, out):
    """A tangent passed through unchanged, broadcast over the output like
    its operand was (a scalar added to a field moves every cell)."""
    shape = t.shape[:1] + np.shape(out)
    return t if t.shape == shape else np.broadcast_to(t, shape)


def _trailing(t):
    """Every axis of a tangent stack but the leading direction axis."""
    return tuple(range(1, t.ndim))


def _roll_x(a, n):
    """np.roll(a, n, axis=-2) as one concatenation of two slices, which
    costs a fraction of np.roll's call overhead on model-sized arrays."""
    n %= a.shape[-2]
    return np.concatenate((a[..., -n:, :], a[..., :-n, :]), axis=-2)


def _linear(name, fn, transpose):
    """Define a linear primitive: jvp is fn itself, vjp its transpose."""
    return define_primitive(
        name,
        fn,
        jvp=lambda t, args, out, **kw: fn(t[0], **kw),
        vjps=(lambda ct, args, out, **kw: transpose(ct, **kw),),
        reads=((),),
    )


# -- elementwise algebra -------------------------------------------------------

def _add_jvp(t, args, out):
    ta, tb = t
    if ta is None:
        return _passed(tb, out)
    if tb is None:
        return _passed(ta, out)
    return np.add(ta, tb)


add = define_primitive(
    "add",
    np.add,
    jvp=_add_jvp,
    vjps=(
        lambda ct, args, out: _unbroadcast(ct, args[0]),
        lambda ct, args, out: _unbroadcast(ct, args[1]),
    ),
    reads=((), ()),  # unbroadcast needs shapes only
)


def _sub_jvp(t, args, out):
    ta, tb = t
    if tb is None:
        return _passed(ta, out)
    if ta is None:
        return _passed(np.negative(tb), out)
    return np.subtract(ta, tb)


sub = define_primitive(
    "sub",
    np.subtract,
    jvp=_sub_jvp,
    vjps=(
        lambda ct, args, out: _unbroadcast(ct, args[0]),
        lambda ct, args, out: _unbroadcast(np.negative(ct), args[1]),
    ),
    reads=((), ()),
)


def _mul_jvp(t, args, out):
    ta, tb = t
    a, b = args
    if ta is None:
        return np.multiply(a, tb)
    if tb is None:
        return np.multiply(ta, b)
    return np.multiply(ta, b) + np.multiply(a, tb)


mul = define_primitive(
    "mul",
    np.multiply,
    jvp=_mul_jvp,
    vjps=(
        lambda ct, args, out: _unbroadcast(np.multiply(ct, args[1]), args[0]),
        lambda ct, args, out: _unbroadcast(np.multiply(ct, args[0]), args[1]),
    ),
    reads=((1,), (0,)),
)


def _div_jvp(t, args, out):
    ta, tb = t
    a, b = args
    if tb is None:
        return np.true_divide(ta, b)
    part = np.multiply(out, np.true_divide(tb, b))
    if ta is None:
        return np.negative(part)
    return np.true_divide(ta, b) - part


div = define_primitive(
    "div",
    np.true_divide,
    jvp=_div_jvp,
    vjps=(
        lambda ct, args, out: _unbroadcast(np.true_divide(ct, args[1]), args[0]),
        lambda ct, args, out: _unbroadcast(
            np.negative(np.multiply(ct, np.true_divide(out, args[1]))), args[1]
        ),
    ),
    reads=((1,), (1, "out")),
)

neg = _linear("neg", np.negative, np.negative)


def _power_grad(a, p):
    if p == 0.0:
        return np.zeros(np.shape(a)) if np.shape(a) else 0.0
    return p * np.power(a, p - 1.0)


power = define_primitive(
    "power",
    lambda a, p: np.power(a, p),
    jvp=lambda t, args, out, p: np.multiply(_power_grad(args[0], p), t[0]),
    vjps=(lambda ct, args, out, p: np.multiply(ct, _power_grad(args[0], p)),),
    reads=((0,),),
)

exp = define_primitive(
    "exp",
    np.exp,
    jvp=lambda t, args, out: np.multiply(out, t[0]),
    vjps=(lambda ct, args, out: np.multiply(ct, out),),
    reads=(("out",),),
)

log = define_primitive(
    "log",
    np.log,
    jvp=lambda t, args, out: np.true_divide(t[0], args[0]),
    vjps=(lambda ct, args, out: np.true_divide(ct, args[0]),),
    reads=((0,),),
)

sqrt = define_primitive(
    "sqrt",
    np.sqrt,
    jvp=lambda t, args, out: np.true_divide(t[0], 2.0 * out),
    vjps=(lambda ct, args, out: np.true_divide(ct, 2.0 * out),),
    reads=(("out",),),
)


# Exact square root whose backward pass clamps the singularity at 0: the
# primal is np.sqrt(a) unchanged, and derivatives are 1/(2*sqrt(max(a, eps))).
def _sqrt_reg_fn(x, eps=REG_EPS_DEFAULT):
    if np.any(np.less(x, 0.0)):
        raise DomainError("sqrt_reg: negative input")
    return np.sqrt(x)


def _sqrt_reg_factor(x, eps=REG_EPS_DEFAULT):
    # max(x, eps) takes the x branch at equality, so the clamped and
    # unclamped derivatives agree exactly at x == eps.
    return 2.0 * np.sqrt(np.maximum(x, eps))


sqrt_reg = define_primitive(
    "sqrt_reg",
    _sqrt_reg_fn,
    jvp=lambda t, args, out, **kw: np.true_divide(t[0], _sqrt_reg_factor(args[0], **kw)),
    vjps=(lambda ct, args, out, **kw: np.true_divide(ct, _sqrt_reg_factor(args[0], **kw)),),
    reads=((0,),),
)


# a where w > 0 else b; w itself receives no derivative.
def _where_pos_fn(w, a, b):
    return np.where(np.greater(w, 0.0), a, b)


def _where_pos_jvp(t, args, out):
    tw, ta, tb = t
    if ta is None and tb is None:
        return np.zeros(tw.shape[:1] + np.shape(out))
    return np.where(
        np.greater(args[0], 0.0), 0.0 if ta is None else ta, 0.0 if tb is None else tb
    )


where_pos = define_primitive(
    "where_pos",
    _where_pos_fn,
    # The switch variable w gets no derivative: the selected branch acts as
    # the subgradient at a sign change.
    jvp=_where_pos_jvp,
    vjps=(
        None,
        lambda ct, args, out: _unbroadcast(
            np.where(np.greater(args[0], 0.0), ct, 0.0), args[1]
        ),
        lambda ct, args, out: _unbroadcast(
            np.where(np.greater(args[0], 0.0), 0.0, ct), args[2]
        ),
    ),
    reads=((), (0,), (0,)),
)


# -- reductions ----------------------------------------------------------------
# A full reduction of the primal reduces each direction of its tangent stack.

asum = define_primitive(
    "sum",
    np.sum,
    jvp=lambda t, args, out: np.sum(t[0], axis=_trailing(t[0])),
    vjps=(lambda ct, args, out: _expand(ct, args[0]),),
    reads=((),),
)

amean = define_primitive(
    "mean",
    np.mean,
    jvp=lambda t, args, out: np.mean(t[0], axis=_trailing(t[0])),
    vjps=(lambda ct, args, out: _expand(ct / np.size(args[0]), args[0]),),
    reads=((),),
)


# -- shifts --------------------------------------------------------------------

roll_x = _linear("roll_x", _roll_x, lambda ct, n: _roll_x(ct, -n))


def _shift_yp_fn(a, fill):
    top = np.zeros_like(a[..., :1]) if fill == "zero" else a[..., -1:]
    return np.concatenate([a[..., 1:], top], axis=-1)


def _shift_yp_t(ct, fill):
    g = np.zeros_like(ct)
    g[..., 1:] = ct[..., :-1]
    if fill == "edge":
        g[..., -1] += ct[..., -1]
    return g


shift_yp = _linear("shift_yp", _shift_yp_fn, _shift_yp_t)


# -- difference stencils ---------------------------------------------------------

def _ddx_fwd_fn(a, dx):
    return (_roll_x(a, -1) - a) / dx


def _ddx_fwd_t(ct, dx):
    return (_roll_x(ct, 1) - ct) / dx


ddx_fwd = _linear("ddx_fwd", _ddx_fwd_fn, _ddx_fwd_t)


def _ddx_bwd_fn(a, dx):
    return (a - _roll_x(a, 1)) / dx


def _ddx_bwd_t(ct, dx):
    return (ct - _roll_x(ct, -1)) / dx


ddx_bwd = _linear("ddx_bwd", _ddx_bwd_fn, _ddx_bwd_t)


def _ddy_fwd_fn(a, dy):
    out = np.zeros_like(a)
    out[..., :-1] = (a[..., 1:] - a[..., :-1]) / dy
    return out


def _ddy_fwd_t(ct, dy):
    t = ct[..., :-1] / dy
    g = np.empty_like(ct)
    g[..., 0] = -t[..., 0]
    g[..., 1:-1] = t[..., :-1] - t[..., 1:]
    g[..., -1] = t[..., -1]
    return g


ddy_fwd = _linear("ddy_fwd", _ddy_fwd_fn, _ddy_fwd_t)


def _ddy_bwd_fn(a, dy):
    out = np.empty_like(a)
    out[..., 0] = a[..., 0] / dy
    out[..., 1:] = (a[..., 1:] - a[..., :-1]) / dy
    return out


def _ddy_bwd_t(ct, dy):
    g = np.empty_like(ct)
    g[..., :-1] = (ct[..., :-1] - ct[..., 1:]) / dy
    g[..., -1] = ct[..., -1] / dy
    return g


ddy_bwd = _linear("ddy_bwd", _ddy_bwd_fn, _ddy_bwd_t)


# -- two-point interpolation -----------------------------------------------------

def _interp_x_fwd_fn(a):
    return 0.5 * (a + _roll_x(a, -1))


def _interp_x_bwd_fn(a):
    return 0.5 * (a + _roll_x(a, 1))


interp_x_fwd = _linear("interp_x_fwd", _interp_x_fwd_fn, _interp_x_bwd_fn)
interp_x_bwd = _linear("interp_x_bwd", _interp_x_bwd_fn, _interp_x_fwd_fn)


def _interp_y_fwd_fn(a):
    out = np.empty_like(a)
    out[..., :-1] = 0.5 * (a[..., :-1] + a[..., 1:])
    out[..., -1] = a[..., -1]
    return out


def _interp_y_fwd_t(ct):
    g = np.empty_like(ct)
    g[..., 0] = 0.5 * ct[..., 0]
    g[..., 1:-1] = 0.5 * (ct[..., 1:-1] + ct[..., :-2])
    g[..., -1] = 0.5 * ct[..., -2] + ct[..., -1]
    return g


interp_y_fwd = _linear("interp_y_fwd", _interp_y_fwd_fn, _interp_y_fwd_t)


def _interp_y_bwd_fn(a):
    out = np.empty_like(a)
    out[..., 0] = a[..., 0]
    out[..., 1:] = 0.5 * (a[..., 1:] + a[..., :-1])
    return out


def _interp_y_bwd_t(ct):
    g = np.empty_like(ct)
    g[..., :-1] = 0.5 * (ct[..., :-1] + ct[..., 1:])
    g[..., 0] += 0.5 * ct[..., 0]
    g[..., -1] = 0.5 * ct[..., -1]
    return g


interp_y_bwd = _linear("interp_y_bwd", _interp_y_bwd_fn, _interp_y_bwd_t)


# -- Laplacian -------------------------------------------------------------------

def _lap_fn(a, dx, dy, ybc):
    xx = (_roll_x(a, -1) - 2.0 * a + _roll_x(a, 1)) / (dx * dx)
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


# The Laplacian is symmetric for every supported boundary rule, so it is
# its own transpose (checked against dense matrices in the tests).
laplacian = _linear("laplacian", _lap_fn, _lap_fn)


# -- meridional cumulative sum ----------------------------------------------------

def _cumsum_y_fn(a):
    return np.cumsum(a, axis=-1)


def _cumsum_y_t(ct):
    return np.ascontiguousarray(np.cumsum(ct[..., ::-1], axis=-1)[..., ::-1])


cumsum_y = _linear("cumsum_y", _cumsum_y_fn, _cumsum_y_t)
