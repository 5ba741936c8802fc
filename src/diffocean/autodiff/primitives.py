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
forward stencils (verified against dense Jacobians in the tests). A
cotangent rule gives the local partial only, at the broadcast shape of its
primitive's arguments: the engine reduces it to its argument's shape, and
passes on the cotangent of an `identity` rule (add's, sub's first) uncalled.

Wall conventions baked into the y-stencils:
  * forward y-differences produce a zero top row (no flux through the wall),
  * backward y-differences treat the missing south value as zero,
  * interpolation uses one-sided copies at the walls so constants survive.

Layout of the y-stencils: each makes its input C-contiguous, works on the
flat view (`_flat`) and then overwrites the wall columns with its wall
rule. In a C-contiguous (..., nx, ny) array, shifting the flat view by one
element shifts every row along y, and only wall columns cross a row
boundary, so every other element sees the same IEEE operations in the same
order as in a slice formulation, and the result is bitwise the same. The
point is speed: at 64x48 a NumPy op on a last-axis slice
(a[:, 1:] - a[:, :-1]) costs two to three times a contiguous op of the
same size, and the y-stencils and their transposes run in every plain
step, tangent push and cotangent sweep. The x-stencils reuse their roll
buffer: they do their arithmetic in place in the fresh array _roll_x
returns, with the operands in the order of the plain expression
(`a - roll` stays `a - roll`), so the result is bitwise that expression's
and costs no further full-size temporary; the Laplacian's x half does the
same in its first roll. Every fn returns a scalar or a fresh array that
shares no memory with its arguments, which a plain Program replay relies
on when it writes a result into a dying operand's buffer.
"""

from __future__ import annotations

import numpy as np

from ..errors import DomainError
# apply stays a name here: perfbench's span tracer replaces it in this module
from .engine import apply, define_primitive, identity  # noqa: F401

REG_EPS_DEFAULT = 1e-12


# -- helpers -----------------------------------------------------------------

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


def _flat(a):
    """`a` made C-contiguous, a fresh output of its shape, and the flat
    views of both (see the module docstring). The output is np.empty, not
    empty_like: a broadcast input would give a strided output whose flat
    view is a copy, and writes to it would be lost."""
    a = np.ascontiguousarray(a)
    out = np.empty(a.shape)
    return a, out, a.reshape(-1), out.reshape(-1)


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


def _elementwise(name, fn, rule, reads):
    """Define a unary elementwise primitive from its cotangent rule
    rule(ct, args, out, **kw), which reads `reads`. Its Jacobian is
    diagonal, so the tangent applies the same local partial: rule(t[0], ...)."""
    return define_primitive(
        name,
        fn,
        jvp=lambda t, args, out, **kw: rule(t[0], args, out, **kw),
        vjps=(rule,),
        reads=(reads,),
    )


def _into_first(ufunc, x, y):
    """ufunc(x, y) into x, a fresh array, where x has y's shape and dtype:
    the same IEEE operations without a third array (a product rule's)."""
    return ufunc(x, y, out=x if x.shape == y.shape and x.dtype == y.dtype else None)


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
    vjps=(identity, identity),
    reads=((), ()),
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
    vjps=(identity, lambda ct, args, out: np.negative(ct)),
    reads=((), ()),
)


def _mul_jvp(t, args, out):
    ta, tb = t
    a, b = args
    if ta is None:
        return np.multiply(a, tb)
    if tb is None:
        return np.multiply(ta, b)
    return _into_first(np.add, np.multiply(ta, b), np.multiply(a, tb))


mul = define_primitive(
    "mul",
    np.multiply,
    jvp=_mul_jvp,
    vjps=(
        lambda ct, args, out: np.multiply(ct, args[1]),
        lambda ct, args, out: np.multiply(ct, args[0]),
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
    return _into_first(np.subtract, np.true_divide(ta, b), part)


div = define_primitive(
    "div",
    np.true_divide,
    jvp=_div_jvp,
    vjps=(
        lambda ct, args, out: np.true_divide(ct, args[1]),
        lambda ct, args, out: np.negative(np.multiply(ct, np.true_divide(out, args[1]))),
    ),
    reads=((1,), (1, "out")),
)

neg = _linear("neg", np.negative, np.negative)


def _power_grad(a, p):
    if p == 0.0:
        return np.zeros(np.shape(a)) if np.shape(a) else 0.0
    return p * np.power(a, p - 1.0)


power = _elementwise(
    "power",
    lambda a, p: np.power(a, p),
    lambda ct, args, out, p: np.multiply(ct, _power_grad(args[0], p)),
    (0,),
)
exp = _elementwise("exp", np.exp, lambda ct, args, out: np.multiply(ct, out), ("out",))
log = _elementwise("log", np.log, lambda ct, args, out: np.true_divide(ct, args[0]), (0,))
sqrt = _elementwise(
    "sqrt", np.sqrt, lambda ct, args, out: np.true_divide(ct, 2.0 * out), ("out",)
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


sqrt_reg = _elementwise(
    "sqrt_reg",
    _sqrt_reg_fn,
    lambda ct, args, out, **kw: np.true_divide(ct, _sqrt_reg_factor(args[0], **kw)),
    (0,),
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
        lambda ct, args, out: np.where(np.greater(args[0], 0.0), ct, 0.0),
        lambda ct, args, out: np.where(np.greater(args[0], 0.0), 0.0, ct),
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


# The values shift_yp puts in the northern wall column: zeros, or the edge
# value repeated.
SHIFT_FILLS = ("zero", "edge")


def _shift_yp_fn(a, fill):
    if fill not in SHIFT_FILLS:
        raise DomainError(f"unknown shift_yp fill {fill!r}, expected one of {SHIFT_FILLS}")
    a, out, f, o = _flat(a)
    o[:-1] = f[1:]
    out[..., -1] = 0.0 if fill == "zero" else a[..., -1]
    return out


def _shift_yp_t(ct, fill):
    ct, g, f, o = _flat(ct)
    o[1:] = f[:-1]
    g[..., 0] = 0.0
    if fill == "edge":
        g[..., -1] += ct[..., -1]
    return g


shift_yp = _linear("shift_yp", _shift_yp_fn, _shift_yp_t)


# -- difference stencils ---------------------------------------------------------

def _ddx_fwd_fn(a, dx):
    d = _roll_x(a, -1)
    np.subtract(d, a, out=d)
    return np.true_divide(d, dx, out=d)


def _ddx_fwd_t(ct, dx):
    d = _roll_x(ct, 1)
    np.subtract(d, ct, out=d)
    return np.true_divide(d, dx, out=d)


ddx_fwd = _linear("ddx_fwd", _ddx_fwd_fn, _ddx_fwd_t)


def _ddx_bwd_fn(a, dx):
    d = _roll_x(a, 1)
    np.subtract(a, d, out=d)
    return np.true_divide(d, dx, out=d)


def _ddx_bwd_t(ct, dx):
    d = _roll_x(ct, -1)
    np.subtract(ct, d, out=d)
    return np.true_divide(d, dx, out=d)


ddx_bwd = _linear("ddx_bwd", _ddx_bwd_fn, _ddx_bwd_t)


def _ddy_fwd_fn(a, dy):
    a, out, f, o = _flat(a)
    np.subtract(f[1:], f[:-1], out=o[:-1])
    np.true_divide(o[:-1], dy, out=o[:-1])
    out[..., -1] = 0.0
    return out


def _ddy_fwd_t(ct, dy):
    ct, g, f, o = _flat(ct)
    t = f / dy
    np.subtract(t[:-1], t[1:], out=o[1:])
    t = t.reshape(ct.shape)
    g[..., 0] = -t[..., 0]
    g[..., -1] = t[..., -2]
    return g


ddy_fwd = _linear("ddy_fwd", _ddy_fwd_fn, _ddy_fwd_t)


def _ddy_bwd_fn(a, dy):
    a, out, f, o = _flat(a)
    np.subtract(f[1:], f[:-1], out=o[1:])
    np.true_divide(o[1:], dy, out=o[1:])
    out[..., 0] = a[..., 0] / dy
    return out


def _ddy_bwd_t(ct, dy):
    ct, g, f, o = _flat(ct)
    np.subtract(f[:-1], f[1:], out=o[:-1])
    np.true_divide(o[:-1], dy, out=o[:-1])
    g[..., -1] = ct[..., -1] / dy
    return g


ddy_bwd = _linear("ddy_bwd", _ddy_bwd_fn, _ddy_bwd_t)


# -- two-point interpolation -----------------------------------------------------

def _interp_x_fwd_fn(a):
    d = _roll_x(a, -1)
    np.add(a, d, out=d)
    return np.multiply(0.5, d, out=d)


def _interp_x_bwd_fn(a):
    d = _roll_x(a, 1)
    np.add(a, d, out=d)
    return np.multiply(0.5, d, out=d)


interp_x_fwd = _linear("interp_x_fwd", _interp_x_fwd_fn, _interp_x_bwd_fn)
interp_x_bwd = _linear("interp_x_bwd", _interp_x_bwd_fn, _interp_x_fwd_fn)


def _interp_y_fwd_fn(a):
    a, out, f, o = _flat(a)
    np.add(f[:-1], f[1:], out=o[:-1])
    np.multiply(0.5, o[:-1], out=o[:-1])
    out[..., -1] = a[..., -1]
    return out


def _interp_y_fwd_t(ct):
    ct, g, f, o = _flat(ct)
    np.add(f[1:], f[:-1], out=o[1:])
    np.multiply(0.5, o[1:], out=o[1:])
    g[..., 0] = 0.5 * ct[..., 0]
    g[..., -1] = 0.5 * ct[..., -2] + ct[..., -1]
    return g


interp_y_fwd = _linear("interp_y_fwd", _interp_y_fwd_fn, _interp_y_fwd_t)


def _interp_y_bwd_fn(a):
    a, out, f, o = _flat(a)
    np.add(f[1:], f[:-1], out=o[1:])
    np.multiply(0.5, o[1:], out=o[1:])
    out[..., 0] = a[..., 0]
    return out


def _interp_y_bwd_t(ct):
    ct, g, f, o = _flat(ct)
    np.add(f[:-1], f[1:], out=o[:-1])
    np.multiply(0.5, o[:-1], out=o[:-1])
    g[..., 0] += 0.5 * ct[..., 0]
    g[..., -1] = 0.5 * ct[..., -1]
    return g


interp_y_bwd = _linear("interp_y_bwd", _interp_y_bwd_fn, _interp_y_bwd_t)


# -- Laplacian -------------------------------------------------------------------

def _lap_fn(a, dx, dy, ybc):
    a, yy, f, o = _flat(a)
    if ybc == "neumann":
        south, north = a[..., 0], a[..., -1]
    elif ybc == "dirichlet":
        south = north = 0.0
    elif ybc == "noslip":
        south, north = -a[..., 0], -a[..., -1]
    else:
        raise DomainError(f"unknown y boundary condition {ybc!r}")
    a2 = 2.0 * a
    xx = _roll_x(a, -1)
    np.subtract(xx, a2, out=xx)
    np.add(xx, _roll_x(a, 1), out=xx)
    np.true_divide(xx, dx * dx, out=xx)
    np.subtract(f[1:], a2.reshape(-1)[:-1], out=o[:-1])
    np.add(o[1:-1], f[:-2], out=o[1:-1])
    # The wall columns, with the explicit + south: -0.0 + 0.0 is +0.0.
    yy[..., 0] = (a[..., 1] - a2[..., 0]) + south
    yy[..., -1] = (north - a2[..., -1]) + a[..., -2]
    np.true_divide(yy, dy * dy, out=yy)
    return np.add(xx, yy, out=yy)


# The Laplacian is symmetric for every supported boundary rule, so it is
# its own transpose (checked against dense matrices in the tests).
laplacian = _linear("laplacian", _lap_fn, _lap_fn)


# -- meridional cumulative sum ----------------------------------------------------

def _cumsum_y_fn(a):
    return np.cumsum(a, axis=-1)


def _cumsum_y_t(ct):
    return np.ascontiguousarray(np.cumsum(ct[..., ::-1], axis=-1)[..., ::-1])


cumsum_y = _linear("cumsum_y", _cumsum_y_fn, _cumsum_y_t)
