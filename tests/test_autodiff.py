"""Engine-level differentiation behavior: rules, tapes, closed-over inputs."""

import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diffocean.autodiff.primitives as ops
from diffocean import calibrate, dyncore
from diffocean.autodiff import engine
from diffocean.autodiff import (
    DualBox,
    Tape,
    TapeBox,
    grad,
    jvp,
    random_direction,
    sqrt_reg,
    trace,
    tree,
    unbox,
    vjp,
)
from diffocean.autodiff.engine import (
    _PRIMITIVES,
    Program,
    _Group,
    apply,
    define_primitive,
)
from diffocean.dyncore import step, step_n
from diffocean.errors import (
    DomainError,
    ShapeError,
    UnregisteredPrimitiveError,
)
import helpers
from helpers import dissipative_test_setup


def test_jvp_square_scalar():
    value, tangent = jvp(lambda x: x * x, 3.0, 1.0)
    assert value == 9.0
    assert tangent == 6.0


def test_vjp_square_scalar():
    value, pullback = vjp(lambda x: x * x, 3.0)
    assert value == 9.0
    assert pullback(1.0) == 6.0


def test_grad_norm_squared_tuple():
    loss, g = grad(lambda t: t[0] * t[0] + t[1] * t[1], (1.0, 2.0))
    assert loss == 5.0
    assert g == (2.0, 4.0)


def test_grad_requires_scalar_loss():
    with pytest.raises(ShapeError):
        grad(lambda x: x, np.ones(3))


def test_grad_is_zero_at_a_leaf_the_loss_ignores():
    loss, g = grad(lambda t: t[0] * t[0], (1.0, 2.0, np.ones(3)))
    assert loss == 1.0
    assert g[:2] == (2.0, 0.0)
    assert g[2].tobytes() == np.zeros(3).tobytes()


def test_jvp_linear_in_tangent():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(12)
    k1 = rng.standard_normal(12)
    k2 = rng.standard_normal(12)
    a, b = 1.7, -2.4

    def f(v):
        return ops.asum(ops.power(v, p=3.0))

    _, d1 = jvp(f, x, k1)
    _, d2 = jvp(f, x, k2)
    _, dc = jvp(f, x, a * k1 + b * k2)
    assert abs(dc - (a * d1 + b * d2)) <= 1e-12 * abs(dc)


def test_transpose_identity_elementwise_chain():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((6, 5))
    k = rng.standard_normal((6, 5))

    def f(v):
        return ops.mul(ops.laplacian(v, dx=2.0, dy=3.0, ybc="neumann"), v)

    v_ct = rng.standard_normal((6, 5))
    _, jk = jvp(f, x, k)
    g = vjp(f, x)[1](v_ct)
    lhs = float(np.vdot(v_ct, jk))
    rhs = float(np.vdot(g, k))
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))


STENCILS = [
    ("ddx_fwd", {"dx": 1.7}),
    ("ddx_bwd", {"dx": 0.3}),
    ("ddy_fwd", {"dy": 2.5}),
    ("ddy_bwd", {"dy": 0.8}),
    ("interp_x_fwd", {}),
    ("interp_x_bwd", {}),
    ("interp_y_fwd", {}),
    ("interp_y_bwd", {}),
    ("roll_x", {"n": 1}),
    ("shift_yp", {"fill": "zero"}),
    ("shift_yp", {"fill": "edge"}),
    ("roll_x", {"n": -1}),  # the upwind advection's east neighbour
    ("roll_x", {"n": 2}),
    ("laplacian", {"dx": 1.3, "dy": 0.9, "ybc": "neumann"}),
    ("laplacian", {"dx": 1.3, "dy": 0.9, "ybc": "dirichlet"}),
    ("laplacian", {"dx": 1.3, "dy": 0.9, "ybc": "noslip"}),
    ("cumsum_y", {}),
]


@pytest.mark.parametrize("name,static", STENCILS)
def test_stencil_vjp_is_exact_transpose(name, static):
    """Dense-matrix check: the cotangent rule is the transpose of the stencil."""
    nx, ny = 5, 4
    prim = _PRIMITIVES[name]
    dim = nx * ny
    forward = np.zeros((dim, dim))
    backward = np.zeros((dim, dim))
    for j in range(dim):
        e = np.zeros(dim)
        e[j] = 1.0
        forward[:, j] = prim.fn(e.reshape(nx, ny), **static).ravel()
        ct_in = prim.vjps[0](e.reshape(nx, ny), (np.zeros((nx, ny)),), None, **static)
        backward[:, j] = ct_in.ravel()
    np.testing.assert_allclose(backward, forward.T, atol=1e-13)


@pytest.mark.parametrize("name,static", STENCILS)
def test_stencil_acts_on_each_slice_of_a_stack(name, static):
    """A (3, 5, 4) stack of tangents or cotangents goes through the stencil
    and its transpose slice by slice, bitwise."""
    prim = _PRIMITIVES[name]
    stack = np.random.default_rng(43).standard_normal((3, 5, 4))
    shapes = (np.zeros((5, 4)),)
    out = prim.fn(stack, **static)
    back = prim.vjps[0](stack, shapes, None, **static)
    for k in range(3):
        assert out[k].tobytes() == prim.fn(stack[k], **static).tobytes()
        back_k = prim.vjps[0](stack[k], shapes, None, **static)
        assert back[k].tobytes() == back_k.tobytes()


@pytest.mark.parametrize("name,static", STENCILS)
def test_stencil_jvp_matches_forward(name, static):
    prim = _PRIMITIVES[name]
    rng = np.random.default_rng(42)
    t = rng.standard_normal((5, 4))
    np.testing.assert_array_equal(
        prim.jvp((t,), (np.zeros((5, 4)),), None, **static), prim.fn(t, **static)
    )


# The y-stencils run on flat contiguous views and the x-stencils in the
# buffer of their roll; tests/helpers.py keeps their slice and roll
# formulation as the oracle, forward rule and transpose.
REFERENCES = {
    "ddx_fwd": (helpers.ref_ddx_fwd_fn, helpers.ref_ddx_fwd_t),
    "ddx_bwd": (helpers.ref_ddx_bwd_fn, helpers.ref_ddx_bwd_t),
    "interp_x_fwd": (helpers.ref_interp_x_fwd_fn, helpers.ref_interp_x_bwd_fn),
    "interp_x_bwd": (helpers.ref_interp_x_bwd_fn, helpers.ref_interp_x_fwd_fn),
    "ddy_fwd": (helpers.ref_ddy_fwd_fn, helpers.ref_ddy_fwd_t),
    "ddy_bwd": (helpers.ref_ddy_bwd_fn, helpers.ref_ddy_bwd_t),
    "interp_y_fwd": (helpers.ref_interp_y_fwd_fn, helpers.ref_interp_y_fwd_t),
    "interp_y_bwd": (helpers.ref_interp_y_bwd_fn, helpers.ref_interp_y_bwd_t),
    "shift_yp": (helpers.ref_shift_yp_fn, helpers.ref_shift_yp_t),
    "laplacian": (helpers.ref_lap_fn, helpers.ref_lap_fn),
}
REFERENCED = [(name, static) for name, static in STENCILS if name in REFERENCES]
# these return their input's layout; the flat-view stencils a C-contiguous array
X_STENCILS = ("ddx_fwd", "ddx_bwd", "interp_x_fwd", "interp_x_bwd")


def _spread(shape, zero_columns, seed):
    """Values of both signs from 1e-8 to 1e8, with columns of -0.0."""
    rng = np.random.default_rng(seed)
    a = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-8.0, 8.0, shape)
    a[..., list(zero_columns)] = -0.0
    return a


STENCIL_INPUTS = {
    "4x4": lambda: _spread((4, 4), (0, 2), 1),
    "5x4": lambda: _spread((5, 4), (1, 3), 2),
    "64x48": lambda: _spread((64, 48), (0, 1, 47), 3),
    "stack": lambda: _spread((3, 5, 4), (3,), 4),
    "tangents": lambda: _spread((2, 64, 48), (0, 24), 5),
    # a stride-0 stack, as _passed broadcasts a row's tangent over a field
    "broadcast": lambda: np.broadcast_to(_spread((1, 48), (47,), 6), (2, 64, 48)),
    "fortran": lambda: np.asfortranarray(_spread((64, 48), (1,), 7)),
    # +0.0 among -0.0, so the sign of a zero rests on each wall rule
    "signed-zeros": lambda: np.tile([[0.0, -0.0, -0.0, 0.0], [-0.0] * 4], (2, 1)),
}


@pytest.mark.parametrize("rule", ["fn", "transpose"])
@pytest.mark.parametrize(
    "name,static", REFERENCED,
    ids=["-".join([n] + [v for v in s.values() if isinstance(v, str)]) for n, s in REFERENCED],
)
@pytest.mark.parametrize("case", list(STENCIL_INPUTS))
def test_stencil_equals_its_slice_formulation_bitwise(case, name, static, rule):
    """Each stencil and its transpose give bitwise the oracle's result,
    leave their input as it was and return a fresh array: C-contiguous
    from a y-stencil, and laid out like the oracle's from an x-stencil."""
    a = STENCIL_INPUTS[case]()
    before = a.copy()
    prim = _PRIMITIVES[name]
    if rule == "fn":
        out, want = prim.fn(a, **static), REFERENCES[name][0](a, **static)
    else:
        out, want = prim.vjps[0](a, (a,), None, **static), REFERENCES[name][1](a, **static)
    assert out.shape == want.shape and out.tobytes() == want.tobytes()
    assert a.tobytes() == before.tobytes()
    assert not np.shares_memory(out, a)
    if name in X_STENCILS:
        assert out.strides == want.strides
    else:
        assert out.flags.c_contiguous


def test_where_pos_subgradient_rules():
    w = np.array([-1.0, 0.0, 2.0])
    a = np.array([10.0, 20.0, 30.0])
    b = np.array([1.0, 2.0, 3.0])
    out = ops.where_pos(w, a, b)
    np.testing.assert_array_equal(out, [1.0, 2.0, 30.0])
    g = vjp(lambda t: ops.asum(ops.where_pos(w, t[0], t[1])), (a, b))[1](1.0)
    np.testing.assert_array_equal(g[0], [0.0, 0.0, 1.0])
    np.testing.assert_array_equal(g[1], [1.0, 1.0, 0.0])
    # the switch variable itself gets no derivative
    gw = vjp(lambda s: ops.asum(ops.where_pos(s, a, b)), w)[1](1.0)
    np.testing.assert_array_equal(gw, 0.0)


def test_sqrt_reg_values_and_gradients():
    value, g = grad(lambda x: sqrt_reg(x), 4.0)
    assert value == 2.0
    assert g == 0.25

    value, g = grad(lambda x: sqrt_reg(x, eps=1e-12), 0.0)
    assert value == 0.0
    assert g == 5e5  # 1 / (2 * sqrt(1e-12))

    eps = 1e-12
    _, g_at = grad(lambda x: sqrt_reg(x, eps=eps), eps)
    _, g_above = grad(lambda x: sqrt_reg(x, eps=eps), eps * (1 + 1e-9))
    assert g_at == pytest.approx(1.0 / (2.0 * np.sqrt(eps)), rel=1e-9)
    assert g_at == pytest.approx(g_above, rel=1e-6)


def test_sqrt_reg_forward_mode_matches_reverse():
    x = 1e-14  # below the regularization threshold
    _, tangent = jvp(lambda v: sqrt_reg(v), x, 1.0)
    _, g = grad(lambda v: sqrt_reg(v), x)
    assert tangent == g  # both use the clamped factor


def test_sqrt_reg_rejects_negative():
    with pytest.raises(DomainError):
        sqrt_reg(-1.0)


def test_sqrt_reg_primal_is_exact_sqrt():
    x = np.linspace(0.0, 9.0, 13)
    np.testing.assert_array_equal(sqrt_reg(x), np.sqrt(x))


# The tangent formula of each unary elementwise primitive, written out:
# (primitive, statics, tangent of t at a with output out).
_ELEMENTWISE_TANGENTS = {
    "exp": (ops.exp, {}, lambda t, a, out: out * t),
    "log": (ops.log, {}, lambda t, a, out: t / a),
    "sqrt": (ops.sqrt, {}, lambda t, a, out: t / (2 * out)),
    "power": (ops.power, {"p": 3.0}, lambda t, a, out: (3.0 * np.power(a, 2.0)) * t),
    "power-half": (ops.power, {"p": 0.5}, lambda t, a, out: (0.5 * np.power(a, -0.5)) * t),
    "sqrt_reg": (sqrt_reg, {}, lambda t, a, out: t / (2.0 * np.sqrt(np.maximum(a, 1e-12)))),
}


@pytest.mark.parametrize("name", sorted(_ELEMENTWISE_TANGENTS))
@pytest.mark.parametrize("primal", ["field", "scalar"])
def test_elementwise_tangents_are_their_formulas_bitwise(name, primal):
    """Each unary elementwise primitive's tangent is its local partial
    times the tangent, bitwise: a (2, nx, ny) stack on a field and an (m,)
    stack on a scalar."""
    prim, static, formula = _ELEMENTWISE_TANGENTS[name]
    rng = np.random.default_rng(7)
    if primal == "field":
        a, t = rng.uniform(0.5, 2.0, (5, 4)), rng.standard_normal((2, 5, 4))
    else:
        a, t = 1.7, rng.standard_normal(3)
    out, tangent = jvp(lambda x: prim(x, **static), a, t)
    want = formula(t, a, np.asarray(out))
    assert np.shape(tangent) == np.shape(want)
    assert np.asarray(tangent).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("mode", ["plain", "jvp", "grad"])
def test_shift_yp_refuses_an_unknown_fill_by_name(mode):
    """A fill other than 'zero' and 'edge' is a DomainError naming it, in
    every mode, not a forward and a transpose that disagree."""
    a = np.arange(12.0).reshape(3, 4)
    f = {
        "plain": lambda: ops.shift_yp(a, fill="Edge"),
        "jvp": lambda: jvp(lambda x: ops.shift_yp(x, fill="Edge"), a, np.ones_like(a)),
        "grad": lambda: grad(lambda x: ops.asum(ops.shift_yp(x, fill="Edge")), a),
    }[mode]
    with pytest.raises(DomainError, match="unknown shift_yp fill 'Edge'"):
        f()


def test_define_primitive_rejects_rule_and_read_set_counts_that_differ():
    with pytest.raises(ValueError, match="2 cotangent rules but 1 read-sets"):
        define_primitive(
            "bad_rule_count",
            np.add,
            jvp=None,
            vjps=(lambda ct, args, out: ct, lambda ct, args, out: ct),
            reads=((),),
        )
    assert "bad_rule_count" not in _PRIMITIVES


def test_define_primitive_rejects_a_name_already_defined():
    with pytest.raises(ValueError, match="primitive 'add' already defined"):
        define_primitive("add", np.add, jvp=None, vjps=(), reads=())
    assert _PRIMITIVES["add"] is ops.add


def test_define_primitive_rejects_read_set_out_of_range():
    with pytest.raises(ValueError, match="names argument 2 of 2"):
        define_primitive(
            "bad_read_set",
            np.multiply,
            jvp=None,
            vjps=(lambda ct, args, out: ct, lambda ct, args, out: ct),
            reads=((1,), (2,)),
        )
    assert "bad_read_set" not in _PRIMITIVES


# The static arguments of one call of each primitive that takes any.
PRIMITIVE_STATICS = {
    "power": {"p": 3.0},
    "roll_x": {"n": -1},
    "shift_yp": {"fill": "edge"},
    "ddx_fwd": {"dx": 0.5},
    "ddx_bwd": {"dx": 0.5},
    "ddy_fwd": {"dy": 0.7},
    "ddy_bwd": {"dy": 0.7},
    "laplacian": {"dx": 0.5, "dy": 0.7, "ybc": "noslip"},
}


def _bitwise(x, y):
    return np.shape(x) == np.shape(y) and np.asarray(x).tobytes() == np.asarray(y).tobytes()


@pytest.mark.parametrize("name", sorted(_PRIMITIVES))
def test_each_primitive_is_the_callable_of_its_name(name):
    """The module attribute named after a primitive is the registered
    Primitive (sum and mean are asum and amean), and calling it is
    apply(name, ...) bitwise: plain, forward mode and on a tape."""
    prim = _PRIMITIVES[name]
    f = getattr(ops, {"sum": "asum", "mean": "amean"}.get(name, name))
    assert f is prim
    static = PRIMITIVE_STATICS.get(name, {})
    rng = np.random.default_rng(7)
    args = [rng.uniform(0.5, 2.0, (6, 5)) for _ in prim.vjps]
    if name == "where_pos":
        args[0] -= 1.25  # both signs of the switch
    assert _bitwise(f(*args, **static), apply(name, *args, **static))

    duals = [DualBox(a, rng.standard_normal((2, 6, 5))) for a in args]
    got, want = f(*duals, **static), apply(name, *duals, **static)
    assert _bitwise(got.primal, want.primal)
    assert _bitwise(got.tangent, want.tangent)

    grads = []
    for call in (f, lambda *a, **kw: apply(name, *a, **kw)):
        tape = Tape()
        leaves = [tape.leaf(a) for a in args]
        out = call(*leaves, **static)
        node = tape.nodes[-1]
        assert (node.name, node.parents, node.static) == (name, tuple(range(len(args))), static)
        swept = tape.sweep({out.index: np.ones_like(out.primal)})
        grads.append((out.primal, [swept.get(leaf.index) for leaf in leaves]))
    (got_out, got_cts), (want_out, want_cts) = grads
    assert _bitwise(got_out, want_out)
    assert all(a is b or _bitwise(a, b) for a, b in zip(got_cts, want_cts))


def test_a_positional_static_is_refused():
    """A positional static would run on plain values and fail only once a
    box reaches the rules, so a call refuses it outright."""
    a = np.ones((4, 3))
    with pytest.raises(TypeError, match="'ddx_fwd' takes 1 positional.*keywords"):
        ops.ddx_fwd(a, 0.5)
    with pytest.raises(TypeError, match="'power'"):
        ops.power(a, 2.0)
    with pytest.raises(TypeError, match="'add' takes 2"):
        ops.add(a)
    assert _bitwise(ops.ddx_fwd(a, dx=0.5), np.zeros((4, 3)))


def test_unregistered_ufunc_raises():
    with pytest.raises(UnregisteredPrimitiveError):
        jvp(lambda x: np.tanh(x), 0.5, 1.0)
    with pytest.raises(UnregisteredPrimitiveError):
        vjp(lambda x: np.arctan(x), np.ones(3))
    # a registered ufunc called through a method other than __call__
    with pytest.raises(UnregisteredPrimitiveError, match=r"unregistered primitive: add\.reduce"):
        jvp(lambda x: np.add.reduce(x), np.ones(3), np.ones(3))
    with pytest.raises(UnregisteredPrimitiveError, match="unregistered primitive: 'tanh'"):
        apply("tanh", 0.5)


def test_np_power_is_box_pow():
    assert jvp(lambda x: np.power(x, 3), 2.0, 1.0) == jvp(lambda x: x**3, 2.0, 1.0)
    with pytest.raises(UnregisteredPrimitiveError, match="exponent"):
        grad(lambda x: np.power(2.0, x), 1.0)


_BUFFER = np.full((), -1.0)

# NumPy calls a box would evaluate as if the keyword were not given.
_KEYWORD_CALLS = {
    "keepdims": lambda a: np.sum(a, keepdims=True),
    "dtype": lambda a: np.multiply(a, 2.0, dtype=np.float32),
    "where": lambda a: np.exp(a, where=np.arange(6.0).reshape(2, 3) > 2.0),
    "out": lambda a: np.sum(a, out=_BUFFER),
}


@pytest.mark.parametrize("keyword", list(_KEYWORD_CALLS))
def test_a_box_refuses_a_numpy_keyword_by_name(keyword):
    """A NumPy keyword that no primitive takes is refused, naming it,
    for forward and reverse mode, rather than dropped: the boxed primal
    would differ from the plain call's."""
    call = _KEYWORD_CALLS[keyword]
    x = np.arange(1.0, 7.0).reshape(2, 3)
    with pytest.raises(UnregisteredPrimitiveError, match=f"{keyword}="):
        jvp(call, x, np.ones_like(x))
    with pytest.raises(UnregisteredPrimitiveError, match=f"{keyword}="):
        call(Tape().leaf(x))
    assert _BUFFER == -1.0


def test_a_box_takes_numpy_keywords_at_their_defaults():
    """np.sum and np.mean, which pass their keywords on, and keywords at
    their default values give the plain call's values bitwise."""
    x = np.arange(1.0, 7.0).reshape(2, 3)
    calls = [
        np.sum, np.mean, lambda a: np.sum(a, keepdims=False),
        lambda a: np.exp(a, out=None), lambda a: np.mean(a, where=True),
    ]
    for call in calls:
        value, _ = jvp(call, x, np.ones_like(x))
        assert _bitwise(value, call(x))


def test_control_flow_on_traced_value_raises():
    def f(x):
        if x > 0:
            return x
        return -x

    with pytest.raises(UnregisteredPrimitiveError):
        grad(f, 1.0)
    with pytest.raises(UnregisteredPrimitiveError, match="truth value of a traced quantity"):
        grad(lambda x: x if x else -x, 1.0)
    with pytest.raises(UnregisteredPrimitiveError, match="cannot convert a traced quantity"):
        jvp(float, 1.0, 1.0)


@pytest.mark.parametrize("mode", ["grad", "jvp"])
@pytest.mark.parametrize("f, words", [
    (lambda x: x if x == 1.0 else -x, r"cannot compare a traced quantity \(==\)"),
    (lambda x: -x if x != 1.0 else x, r"cannot compare a traced quantity \(!=\)"),
    (lambda x: x if 0 <= x else -x, r"cannot compare a traced quantity \(>=\)"),
    (abs, "unregistered primitive: abs"),
    (int, "cannot convert a traced quantity to int"),
], ids=["eq", "ne", "reflected-le", "abs", "int"])
def test_comparing_or_converting_a_traced_value_is_refused_by_name(f, words, mode):
    """Without a refusal, == and != compare identities, so the eq and ne
    cases would take -x at x = 1.0 where the plain function takes x."""
    assert f(1.0) == 1.0
    with pytest.raises(UnregisteredPrimitiveError, match=words):
        grad(f, 1.0) if mode == "grad" else jvp(f, 1.0, 1.0)
    box = Tape().leaf(1.0)
    assert {box: "kept"}[box] == "kept"  # a box still hashes, by identity


def test_primal_preservation_bitwise():
    rng = np.random.default_rng(7)
    x = np.abs(rng.standard_normal((8, 6))) + 0.1

    def f(v):
        return ops.amean(ops.mul(ops.sqrt(v), ops.laplacian(v, dx=1.0, dy=1.0, ybc="neumann")))

    plain = f(x)
    val_j, _ = jvp(f, x, np.zeros_like(x) + 0.3)
    val_v, _ = vjp(f, x)
    assert np.float64(plain).tobytes() == np.float64(val_j).tobytes()
    assert np.float64(plain).tobytes() == np.float64(val_v).tobytes()


def test_jvp_zero_tangent_reproduces_primal_bitwise():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((5, 5))

    def f(v):
        return ops.cumsum_y(ops.mul(v, 2.0))

    plain = f(x)
    lifted, tangent = jvp(f, x, np.zeros_like(x))
    assert plain.tobytes() == lifted.tobytes()
    np.testing.assert_array_equal(tangent, 0.0)


def test_inputs_never_mutated():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((6, 6))
    snapshot = x.tobytes()

    def f(v):
        t = ops.laplacian(v, dx=1.0, dy=1.0, ybc="dirichlet")
        return ops.asum(ops.mul(t, t))

    jvp(f, x, np.ones_like(x))
    vjp(f, x)[1](1.0)
    grad(f, x)
    assert x.tobytes() == snapshot


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def test_tape_replay_reproduces_primals():
    """A traced function replayed as a program gives the function's values
    bitwise, at the traced inputs and at new ones, plain or boxed."""
    def f(leaves):
        (x,) = leaves
        out = ops.mul(ops.laplacian(x, dx=1.0, dy=1.0, ybc="neumann"), x)
        out = ops.exp(ops.mul(out, 0.01))
        return [out, ops.amean(out)]

    rng = np.random.default_rng(10)
    program = trace(f, [rng.standard_normal((4, 4)) + 3.0])
    assert len(program.ops) == 5
    for x in (rng.standard_normal((4, 4)) + 3.0, np.full((4, 4), 2.0)):
        want = f([x])
        assert list(map(_bits, program([x]))) == list(map(_bits, want))
        # a boxed input replays through apply: the same primals, and the
        # tangents of the traced function
        got = program([DualBox(x, np.ones((1, 4, 4)))])
        ref = f([DualBox(x, np.ones((1, 4, 4)))])
        for a, b in zip(got, ref):
            assert _bits(a.primal) == _bits(b.primal)
            assert _bits(a.tangent) == _bits(b.tangent)


def test_plain_replay_writes_only_into_buffers_that_die():
    """A plain replay writes a ufunc's result into an argument an earlier
    operation produced that dies there, of the result's shape and dtype:
    never into an input, a constant, an output, a value still used later
    or a row that broadcasts against a field. Its values are the traced
    function's and the boxed replay's, bitwise, in the traced dtype."""
    rng = np.random.default_rng(11)
    c = rng.uniform(0.5, 2.0, (4, 5))  # a constant array

    def f(leaves):
        x, r = leaves
        a = ops.mul(ops.mul(x, 2.0), c)  # an input, then a constant array
        b = ops.exp(ops.mul(r, 0.5))  # a (1, 5) row
        d = ops.add(b, a)  # the row dies against the (4, 5) field
        e = ops.mul(d, d)  # one value as both operands
        sq = ops.sqrt(e)  # e is used again below
        h = ops.sub(e, sq)
        return [h, sq, ops.neg(ops.div(h, 3.0))]

    #          x*2    *c    r*.5   exp   b+a   d*d   sqrt  e-sq  h/3   neg
    donated = [False, True, False, True, True, True, False, True, False, True]
    for dtype in (np.float64, np.float32):
        x = rng.uniform(0.5, 2.0, (4, 5)).astype(dtype)
        r = rng.uniform(0.5, 2.0, (1, 5)).astype(dtype)
        program = trace(f, [x, r])
        # a float32 x * 2.0 dies into a float64 product with c: no donor
        donated[1] = dtype is np.float64
        # a plain replay donates the first dying donor of an operation
        assert [bool(donors) for _, _, _, _, donors, _ in program.ops] == donated
        before = [v.copy() for v in (x, r, c)]
        first = program([x, r])
        kept = [v.copy() for v in first]
        second = program([x, r])
        want = f([x, r])
        boxed = program([DualBox(x, np.ones((1, 4, 5))), DualBox(r, np.ones((1, 1, 5)))])
        for got in (first, second, [b.primal for b in boxed]):
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert all(v.tobytes() == w.tobytes() for v, w in zip((x, r, c), before))
        assert all(v.tobytes() == w.tobytes() for v, w in zip(first, kept))
        for i, out in enumerate(first):
            for other in [*first[i + 1:], *second, x, r, c]:
                assert not np.shares_memory(out, other)


def _args_of_each_case(name):
    """Elementwise arguments for every primitive, and the stencil cases of
    STENCILS on every input of STENCIL_INPUTS for the stencils."""
    prim = _PRIMITIVES[name]
    rng = np.random.default_rng(12)
    args = [rng.uniform(0.5, 2.0, (6, 5)) for _ in prim.vjps]
    if name == "where_pos":
        args[0] -= 1.25
    yield args, PRIMITIVE_STATICS.get(name, {})
    for stencil, static in STENCILS:
        if stencil == name:
            for make in STENCIL_INPUTS.values():
                yield [make()], static


@pytest.mark.parametrize("name", sorted(_PRIMITIVES))
def test_fn_returns_a_scalar_or_an_array_of_its_own(name):
    """The rule a plain replay's donation rests on: every primitive's fn
    returns a scalar or an ndarray that owns its memory and shares none
    with its arguments, so no dying result is a view of a live value."""
    for args, static in _args_of_each_case(name):
        out = _PRIMITIVES[name].fn(*args, **static)
        if np.isscalar(out):
            continue
        assert isinstance(out, np.ndarray) and out.base is None
        assert not any(np.shares_memory(out, a) for a in args)


def test_tape_topological_order():
    tape = Tape()
    a = tape.leaf(np.ones(3))
    b = ops.mul(ops.add(a, 2.0), ops.neg(a))
    _ = ops.asum(b)
    for idx, node in enumerate(tape.nodes):
        assert all(p < idx for p in node.parents if p is not None)


def test_tape_replay_detects_tampering():
    """A program keeps no primal of its record: changing what the tape kept
    after the program was built changes nothing it computes, and an input
    that is not a leaf of the tape is refused."""
    tape = Tape()
    leaf = tape.leaf(np.ones((3, 3)))
    out = ops.exp(ops.mul(ops.add(leaf, 1.0), 2.0))
    program = Program(tape, [leaf], [out])
    # exp's cotangent rule reads its output, so the tape keeps it
    tape.nodes[-1].out[0, 0] += 1.0
    x = np.full((3, 3), 0.5)
    assert _bits(program([x])[0]) == _bits(np.exp((x + 1.0) * 2.0))
    with pytest.raises(ValueError, match="every leaf"):
        Program(tape, [], [out])


def test_tape_keeps_only_what_active_rules_read():
    x = np.full((3, 4), 2.0)
    y = np.full((3, 4), 5.0)
    w = np.linspace(-1.0, 1.0, 12).reshape(3, 4)

    # a constant partner needs no cotangent, so nothing is kept for it
    tape = Tape()
    a = tape.leaf(x)
    ops.mul(ops.mul(a, 2.0), 3.0)
    assert tape.bytes_used == 0
    first, second = tape.nodes[1], tape.nodes[2]
    assert first.out is None and not first.args[0].any()
    # one shared read-only zero stand-in per shape and dtype
    assert first.args[0] is second.args[0] and not first.args[0].flags.writeable

    tape = Tape()
    ops.mul(tape.leaf(x), tape.leaf(y))
    node = tape.nodes[-1]
    assert node.args[0] is x and node.args[1] is y
    assert tape.bytes_used == x.nbytes + y.nbytes

    tape = Tape()
    q = ops.div(2.0, tape.leaf(y))
    node = tape.nodes[-1]
    assert node.args[1] is y and node.out is q.primal
    assert tape.bytes_used == 2 * y.nbytes

    # the switch w is read by the branch's rule, not by its own (it has none)
    tape = Tape()
    ops.where_pos(tape.leaf(w), tape.leaf(x), 0.0)
    node = tape.nodes[-1]
    assert node.args[0] is w and not node.args[1].any()
    assert tape.bytes_used == w.nbytes
    tape = Tape()
    ops.where_pos(tape.leaf(w), 1.0, 0.0)
    assert tape.bytes_used == 0 and not tape.nodes[-1].args[0].any()


def test_tape_counts_each_kept_array_once():
    a_values = np.full((3, 4), 3.0)
    tape = Tape()
    a = tape.leaf(a_values)
    # each operand's rule reads the other, so the node keeps a twice
    ops.mul(a, a)
    assert all(arg is a_values for arg in tape.nodes[-1].args)
    assert tape.bytes_used == a_values.nbytes
    # a later node keeping the same array adds nothing
    ops.mul(a, 2.0)
    assert tape.bytes_used == a_values.nbytes


def test_tape_counts_the_constant_arrays_of_t_only_steps():
    """A T-only step keeps the u and v it reads and the relaxation target as
    constants. Each counts once in bytes_used."""
    g, p, c, s = dissipative_test_setup(seed=4)
    field = s.T.values.nbytes

    def taped(tape):
        return replace(s, T=replace(s.T, values=tape.leaf(s.T.values)))

    tape = Tape()
    one = step(taped(tape), p, g, c)
    assert tape.bytes_used == 3 * field  # u, v and T_star
    step(one, p, g, c)
    assert tape.bytes_used == 5 * field  # a fresh u and v; T_star again
    tape = Tape()
    step_n(taped(tape), 16, p, g, c)
    assert tape.bytes_used > 3 * field


def _kept_bytes(tape):
    """The nbytes of the distinct arrays the non-leaf nodes keep in args
    and out, leaving out the zero stand-ins (read-only, zero-strided and
    all zero): a count of bytes_used that shares no code with the tape."""
    kept = {}
    for node in tape.nodes:
        if node.name is None:
            continue
        args = node.args if isinstance(node.args, tuple) else ()
        for v in (*args, getattr(node, "out", None)):
            stand_in = (
                isinstance(v, np.ndarray) and not v.flags.writeable
                and not any(v.strides) and not v.any()
            )
            if isinstance(v, np.ndarray) and not stand_in:
                kept[id(v)] = v.nbytes
    return sum(kept.values())


def test_tape_bytes_are_those_its_nodes_keep():
    """bytes_used is the nbytes of the distinct arrays the nodes keep, on a
    T-only tape of single steps and checkpoint groups and on a
    calibration-shaped (A_h, r_bot) tape, and two pullbacks leave it and
    the gradient bits as the forward left them."""
    g, p, c, s = dissipative_test_setup(seed=4)
    tape = Tape()
    state = step(replace(s, T=replace(s.T, values=tape.leaf(s.T.values))), p, g, c)
    assert tape.bytes_used == _kept_bytes(tape) > 0
    step_n(state, 16, p, g, c)
    assert tape.bytes_used == _kept_bytes(tape)
    assert any(isinstance(node, _Group) for node in tape.nodes)

    obs = calibrate.reference_bsf_observations(s, p, g, c, [3, 8])
    loss = calibrate.bsf_calibration_loss(obs, s, p, g, c)
    tape = Tape()
    A_h, r_bot = tape.leaf(1.5 * p.A_h), tape.leaf(0.5 * p.r_bot)
    out = loss((A_h, r_bot))
    forward = tape.bytes_used
    assert forward == _kept_bytes(tape) > 0
    sweeps = []
    for _ in range(2):
        adjoint = tape.sweep({out.index: 1.0})
        sweeps.append(tuple(float.hex(float(adjoint[x.index])) for x in (A_h, r_bot)))
        assert tape.bytes_used == forward
    assert sweeps[0] == sweeps[1]


def test_a_taped_leaf_that_reaches_no_field_puts_nothing_on_the_tape():
    """Over a flow-only state, kappa_T reaches no field: step_n runs plain,
    the tape holds only the leaf and counts no step, and the gradient is
    zero."""
    g, p, c, s = dissipative_test_setup(seed=4)
    s = dyncore.flow_only(s)
    tape = Tape()
    out = step_n(s, 16, replace(p, kappa_T=tape.leaf(100.0)), g, c)
    assert not isinstance(out.u.values, TapeBox)
    assert len(tape.nodes) == 1 and tape.steps == 0 and tape.bytes_used == 0
    _, gradient = grad(
        lambda k: ops.asum(step_n(s, 16, replace(p, kappa_T=k), g, c).u.values), 100.0
    )
    assert gradient == 0.0


def test_tape_counts_the_steps_recorded_on_it():
    """A taped step_n counts the steps of its checkpoint groups on the tape
    they stand on; plain steps count nowhere."""
    g, p, c, s = dissipative_test_setup(seed=4)
    tape = Tape()
    boxed = replace(s, T=replace(s.T, values=tape.leaf(s.T.values)))
    step_n(boxed, 5, p, g, c)
    step_n(s, 3, p, g, c)
    assert tape.steps == 5


def test_tape_replay_reruns_checkpoint_groups():
    """A taped step_n records checkpoint groups, and the sweep records each
    group again through the replayed step program: the gradient is bitwise
    that of a tape of the traced definition, step by step. A program
    replays primitives only, so a record holding groups is refused."""
    g, p, c, s = dissipative_test_setup(seed=4)

    def with_T(T):
        return replace(s, T=replace(s.T, values=T))

    def defined(T):
        state = with_T(T)
        for _ in range(5):
            u, v, eta, T = dyncore._step_body(state, p, g, c)
            state = replace(state, u=u, v=v, eta=eta, T=T)
        return ops.asum(state.T.values)

    tape = Tape()
    leaf = tape.leaf(s.T.values)
    out = ops.asum(step_n(with_T(leaf), 5, p, g, c).T.values)
    groups = [node for node in tape.nodes if isinstance(node, _Group)]
    assert len(groups) == 2  # 3 + 2 steps, from the first step on
    with pytest.raises(ValueError, match="primitives only"):
        Program(tape, [leaf], [out])
    T = s.T.values + 0.5
    got = grad(lambda T: ops.asum(step_n(with_T(T), 5, p, g, c).T.values), T)
    want = grad(defined, T)
    assert _bits(got[0]) == _bits(want[0]) and _bits(got[1]) == _bits(want[1])


def test_a_dropped_pullback_through_checkpoint_groups_frees_its_tape_without_gc():
    """A checkpoint group keeps its step program and the plain values of
    its inputs, never a box: a box kept in the group would tie the tape to
    itself through its own record, and the tape of a dropped pullback
    would live on until the cycle collector ran."""
    g, p, c, s = dissipative_test_setup(seed=4)

    def loss(theta):
        q = replace(p, A_h=theta[0], r_bot=theta[1])
        return ops.asum(step_n(s, 5, q, g, c).u.values)

    gc.disable()
    try:
        _, pullback = vjp(loss, (float(p.A_h), float(p.r_bot)))
        pullback(1.0)
        tape = next(
            cell.cell_contents for cell in pullback.__closure__
            if isinstance(cell.cell_contents, Tape)
        )
        assert sum(isinstance(node, _Group) for node in tape.nodes) == 2
        alive = weakref.ref(tape)
        del tape, pullback
        assert alive() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("flow", [False, True], ids=["full-state", "flow-only"])
def test_program_reaches_the_outputs_a_boxed_replay_tapes(flow):
    """The plan of a taped replay tells, without running, which outputs of
    the step program are taped: those a tape of the traced definition,
    one node per primitive, returns as TapeBoxes, and those the replay
    returns so. With no leaf taped, with every leaf taped and with each
    single leaf taped."""
    g, p, c, s = dissipative_test_setup(seed=4)
    if flow:
        s = dyncore.flow_only(s)
    values = dyncore._leaf_values(s, p)
    program = dyncore._program(s, p, g, c, values)
    _, rebuild = tree.flatten((s, p))
    n = len(values)
    patterns = [[False] * n, [True] * n] + [[i == j for j in range(n)] for i in range(n)]
    reached = set()
    for taped in patterns:
        got = program.plan(taped).taped
        tape = Tape()
        leaves = [tape.leaf(v) if t else v for v, t in zip(values, taped)]
        defined = dyncore._step_body(*rebuild(leaves), g, c)
        assert got == [isinstance(f.values, TapeBox) for f in defined], taped
        assert got == [isinstance(out, TapeBox) for out in program(leaves)], taped
        reached.add(tuple(got))
    # the patterns tell some fields apart, so the check is not vacuous
    assert len(reached) > 2


@pytest.mark.parametrize("n, groups", [(1, 1), (2, 1), (7, 3)])
def test_step_n_from_a_plain_state_with_taped_parameters_is_the_definition(n, groups):
    """From a plain flow-only state with (A_h, r_bot) taped, step_n runs
    checkpoint groups of ceil(sqrt(n)) steps from the first step, and the
    fields become taped inside the first group: the vjp is bitwise that of
    the traced definition, step by step, and the tape counts n steps."""
    g, p, c, s = dissipative_test_setup(seed=4)
    s = dyncore.flow_only(s)
    tapes = []

    def checkpointed(x):
        out = step_n(s, n, replace(p, A_h=x[0], r_bot=x[1]), g, c)
        tapes.append(out.u.values.tape)
        return [out.u.values, out.v.values, out.eta.values]

    def defined(x):
        q, state = replace(p, A_h=x[0], r_bot=x[1]), s
        for _ in range(n):
            u, v, eta = dyncore._step_body(state, q, g, c)
            state = replace(state, u=u, v=v, eta=eta)
        return [state.u.values, state.v.values, state.eta.values]

    rng = np.random.default_rng(n)
    ct = [rng.standard_normal(g.shape) for _ in range(3)]
    x = (1.5 * p.A_h, 0.5 * p.r_bot)
    results = []
    for f in (checkpointed, defined):
        value, pullback = vjp(f, x)
        gradient = pullback(ct)
        assert all(d != 0.0 for d in gradient)
        results.append(([_bits(v) for v in value], [_bits(d) for d in gradient]))
    assert results[0] == results[1]
    assert tapes[0].steps == n
    assert sum(isinstance(node, _Group) for node in tapes[0].nodes) == groups


# The leaves each oracle case tapes, by the names of (s, p)'s fields.
_TAPED_SETS = {
    "A_h-r_bot": ("A_h", "r_bot"),
    "fields-params": (
        "u", "v", "eta", "T", "A_h", "r_bot", "C_d", "g", "rho0", "tau0",
        "kappa_T", "lambda_relax", "T_star",
    ),
    "T": ("T",),
    "kappa_T": ("kappa_T",),
    "C_d": ("C_d",),
}


def _taped_setup(tape, s, p, names):
    """(s, p) with a leaf of tape for each named field that s and p carry,
    in tree order, and those leaves."""
    leaves = []

    def leaf(value):
        leaves.append(tape.leaf(value))
        return leaves[-1]

    fields = {
        n: replace(getattr(s, n), values=leaf(getattr(s, n).values))
        for n in ("u", "v", "eta", "T")
        if n in names and getattr(s, n).values is not None
    }
    params = {
        n: leaf(getattr(p, n)) for n in ("A_h", "r_bot", "C_d", "g", "rho0", "tau0",
                                         "kappa_T", "lambda_relax") if n in names
    }
    if "T_star" in names:
        params["T_star"] = replace(p.T_star, values=leaf(p.T_star.values))
    return replace(s, **fields), replace(p, **params), leaves


@pytest.mark.parametrize("taped", _TAPED_SETS.values(), ids=_TAPED_SETS.keys())
@pytest.mark.parametrize("flow", [False, True], ids=["full-state", "flow-only"])
@pytest.mark.parametrize("boundary", ["free-slip", "no-slip"])
@pytest.mark.parametrize("drag_mode", ["linear", "quadratic"])
def test_taped_step_is_the_per_node_record_of_its_definition(drag_mode, boundary, flow, taped):
    """Two taped steps, each one program node, against _step_body recorded
    node by node through apply: the same values, the same outputs taped,
    bitwise the same cotangent at every leaf and the same bytes_used after
    each step, but for one array: each step of _step_body computes the
    wind profile afresh, a (1, ny) row that a taped tau0's node keeps,
    where the program holds it once, as a constant."""
    g, p, c, s = dissipative_test_setup(seed=4)
    p = replace(p, drag_mode=drag_mode, C_d=2e-3, tau0=0.05, kappa_T=2e3,
                lambda_relax=1e-6, T_star=helpers.linear_profile_field(g, 5.0, 15.0))
    c = replace(c, boundary=boundary)
    if flow:
        s = dyncore.flow_only(s)

    def per_node(state, q):
        new = dyncore._step_body(state, q, g, c)
        return replace(state, **dict(zip(("u", "v", "eta", "T"), new)))

    results = []
    for one_step in (lambda state, q: step(state, q, g, c), per_node):
        tape = Tape()
        state, q, leaves = _taped_setup(tape, s, p, taped)
        forward = []
        for _ in range(2):
            state = one_step(state, q)
            forward.append(tape.bytes_used)
        outs = [f.values for f in (state.u, state.v, state.eta, state.T) if f.values is not None]
        rng = np.random.default_rng(5)
        seeds = {}
        for out in outs:
            ct = rng.standard_normal(g.shape)
            if isinstance(out, TapeBox):
                seeds[out.index] = ct
        adjoint = tape.sweep(seeds)
        results.append((
            [_bits(unbox(out)) for out in outs],
            [isinstance(out, TapeBox) for out in outs],
            forward,
            [None if leaf.index not in adjoint else _bits(adjoint[leaf.index]) for leaf in leaves],
        ))
    (values, outs_taped, nbytes, cts), want = results
    assert values == want[0]
    assert outs_taped == want[1]
    profile = 8 * g.ny if "tau0" in taped else 0
    assert [nbytes[0], nbytes[1] + profile] == want[2]
    assert cts == want[3]
    # the case is not vacuous where a taped leaf reaches a field
    if any(outs_taped):
        assert any(ct is not None and any(np.frombuffer(ct)) for ct in cts)


@settings(max_examples=30)
@given(
    drag_mode=st.sampled_from(["linear", "quadratic"]),
    boundary=st.sampled_from(["free-slip", "no-slip"]),
    flow=st.booleans(),
    taped=st.sampled_from(sorted(_TAPED_SETS)),
    n=st.integers(1, 10),
)
def test_checkpointed_step_n_is_a_loop_of_step(drag_mode, boundary, flow, taped, n):
    """The reverse sweep through step_n's checkpoint groups (uneven last
    groups included) against a loop of step, bitwise: the same values, the
    same outputs taped and the same cotangent at every leaf. step_n's tape
    counts n steps when a taped leaf reaches a field and holds only its
    leaves when none does, and two sweeps leave every tape's nodes, steps
    and bytes as the forward left them."""
    g, p, c, s = dissipative_test_setup(seed=4)
    p = replace(p, drag_mode=drag_mode, C_d=2e-3, tau0=0.05, kappa_T=2e3,
                lambda_relax=1e-6, T_star=helpers.linear_profile_field(g, 5.0, 15.0))
    c = replace(c, boundary=boundary)
    if flow:
        s = dyncore.flow_only(s)

    def loop(state, q):
        for _ in range(n):
            state = step(state, q, g, c)
        return state

    results = []
    for run in (lambda state, q: step_n(state, n, q, g, c), loop):
        tape = Tape()
        state, q, leaves = _taped_setup(tape, s, p, _TAPED_SETS[taped])
        final = run(state, q)
        outs = [f.values for f in (final.u, final.v, final.eta, final.T) if f.values is not None]
        forward = (len(tape.nodes), tape.steps, tape.bytes_used)
        rng = np.random.default_rng(n)
        seeds = {out.index: rng.standard_normal(g.shape)
                 for out in outs if isinstance(out, TapeBox)}
        sweeps = []
        for _ in range(2):
            adjoint = tape.sweep(seeds)
            sweeps.append([None if leaf.index not in adjoint else _bits(adjoint[leaf.index])
                           for leaf in leaves])
            assert (len(tape.nodes), tape.steps, tape.bytes_used) == forward
        assert sweeps[0] == sweeps[1]
        results.append(([_bits(unbox(out)) for out in outs],
                        [isinstance(out, TapeBox) for out in outs], sweeps[0], forward))
    checkpointed, looped = results
    assert checkpointed[:3] == looped[:3]
    nodes, steps, _ = checkpointed[3]
    if any(checkpointed[1]):
        assert steps == n
    else:
        assert steps == 0 and nodes == len(leaves)


def test_a_replaced_apply_sees_box_arithmetic(monkeypatch):
    """Box's operators look apply up in the engine when they are called, so
    a wrapper put in its place (the benchmark's call counter) sees every
    operator, reflected ones included."""
    calls = []
    original = engine.apply

    def counting(name, *args, **static):
        calls.append(name)
        return original(name, *args, **static)

    monkeypatch.setattr(engine, "apply", counting)
    value, _ = jvp(lambda x: (2.0 - x * x) / x + -x, 3.0, 1.0)
    assert value == (2.0 - 9.0) / 3.0 - 3.0
    assert calls == ["mul", "sub", "div", "neg", "add"]


def test_a_taped_step_calls_apply_nowhere(monkeypatch):
    """Once traced, a taped step runs each primitive's fn directly: it calls
    no apply, and puts one program node and one output node per taped
    field on the tape (eta, computed from the plain u and v, is plain)."""
    g, p, c, s = dissipative_test_setup(seed=4)
    step(s, p, g, c)  # the trace runs through apply
    calls = []
    monkeypatch.setattr(engine, "apply", lambda name, *args, **static: calls.append(name))
    tape = Tape()
    state = replace(s, T=replace(s.T, values=tape.leaf(s.T.values)))
    out = step(state, replace(p, A_h=tape.leaf(p.A_h)), g, c)
    assert calls == []
    assert [type(node) for node in tape.nodes[2:]] == [engine._ProgramNode] + [engine._Node] * 3
    assert [isinstance(f.values, TapeBox) for f in (out.u, out.v, out.eta, out.T)] == [
        True, True, False, True
    ]


def _replay_setup():
    """A small traced function whose plain replay donates, and inputs. Its
    last operation takes e twice, so the order of its two rules shows in
    the bits of e's cotangent."""
    rng = np.random.default_rng(13)
    c = rng.uniform(0.5, 2.0, (4, 5))

    def f(leaves):
        x, r = leaves
        a = ops.mul(ops.mul(x, 2.0), c)
        d = ops.add(ops.exp(ops.mul(r, 0.5)), a)
        e = ops.mul(d, d)
        return [x, ops.sub(e, ops.sqrt(e)), e, e, 3.0, ops.div(e, e)]

    x, r = rng.uniform(0.5, 2.0, (4, 5)), rng.uniform(0.5, 2.0, (1, 5))
    return f, trace(f, [x, r]), x, r


def test_a_taped_replay_hands_an_output_input_its_cotangent():
    """A program that returns one of its inputs returns that box itself,
    one that returns a value twice returns one box for it, and a constant
    comes back plain: each cotangent reaches the leaves as on a tape of
    the traced function, bitwise, the rules of an operation that takes
    one value twice included."""
    f, program, x, r = _replay_setup()
    grads = []
    for call in (program, f):
        tape = Tape()
        leaves = [tape.leaf(x), tape.leaf(r)]
        outs = call(leaves)
        assert outs[0] is leaves[0] and outs[2] is outs[3] and outs[4] == 3.0
        loss = ops.add(
            ops.asum(ops.mul(ops.add(outs[0], outs[1]), ops.add(outs[2], outs[3]))),
            ops.asum(ops.mul(outs[5], 40.0 * x)),
        )
        adjoint = tape.sweep({loss.index: 1.0})
        grads.append([_bits(adjoint[leaf.index]) for leaf in leaves])
    assert grads[0] == grads[1]


def test_a_taped_replay_refuses_boxes_apply_refuses():
    """Boxes of two tapes, or a TapeBox beside a DualBox, are refused as
    apply refuses them."""
    _, program, x, r = _replay_setup()
    with pytest.raises(UnregisteredPrimitiveError, match="different tapes"):
        program([Tape().leaf(x), Tape().leaf(r)])
    with pytest.raises(UnregisteredPrimitiveError, match="cannot mix"):
        program([Tape().leaf(x), DualBox(r, np.ones((1, 1, 5)))])
    with pytest.raises(UnregisteredPrimitiveError, match="cannot mix"):
        program([DualBox(x, np.ones((1, 4, 5))), Tape().leaf(r)])


def test_a_tape_refuses_a_boxed_leaf_by_name():
    """A tape holds plain values: a leaf that is a DualBox or a TapeBox is
    refused, naming its type, and the tape stays empty."""
    x = np.ones((4, 5))
    tape = Tape()
    for box in (DualBox(x, np.ones((1, 4, 5))), Tape().leaf(x)):
        with pytest.raises(
            UnregisteredPrimitiveError,
            match=rf"^a tape takes plain values, not a {type(box).__name__}$",
        ):
            tape.leaf(box)
    assert tape.nodes == []


def test_a_swept_sum_handed_on_twice_is_not_added_into_in_place():
    """A program node adds an operation's cotangents in place only into a
    sum the sweep alone holds. Here w's cotangent is a sum of three; add's
    rule hands it on unchanged to both p and q, and each then receives a
    further contribution. The swept gradient is bitwise that of a tape of
    one node per operation."""
    rng = np.random.default_rng(17)
    k = rng.uniform(0.5, 2.0, (5, 4, 3))

    def f(leaves):
        (x,) = leaves
        p, q = ops.mul(x, 2.0), ops.mul(x, 3.0)
        z1, z2 = ops.mul(p, k[0]), ops.mul(q, k[1])  # swept after w
        w = ops.add(p, q)
        y = ops.add(ops.add(ops.mul(w, k[2]), ops.mul(w, k[3])), ops.mul(w, k[4]))
        return [ops.add(ops.add(y, z1), z2)]

    x = rng.uniform(0.5, 2.0, (4, 3))
    program = trace(f, [x])
    seed = rng.standard_normal((4, 3))
    grads = []
    for call in (program, f):
        tape = Tape()
        leaf = tape.leaf(x)
        (out,) = call([leaf])
        grads.append(_bits(tape.sweep({out.index: seed})[leaf.index]))
    assert grads[0] == grads[1]


def test_pullbacks_through_checkpoint_groups_leave_the_tape_as_recorded(monkeypatch):
    """The sweep records each group again at the end of the tape it sweeps
    and drops those nodes: two pullbacks give the same bits and leave the
    tape's nodes, steps and bytes as the forward left them."""
    g, p, c, s = dissipative_test_setup(seed=4)
    tape = Tape()
    T, A_h = tape.leaf(s.T.values), tape.leaf(p.A_h)
    state = replace(s, T=replace(s.T, values=T))
    out = ops.asum(step_n(state, 7, replace(p, A_h=A_h), g, c).T.values)
    forward = (len(tape.nodes), tape.steps, tape.bytes_used)
    assert forward[1] == 7 and any(isinstance(node, _Group) for node in tape.nodes)
    # where each re-recorded step's program node stands when it is swept
    segments = []
    sweep_program = engine._sweep_program

    def sweeping(node, cts, adjoint, owned):
        segments.append([i for i, n in enumerate(tape.nodes) if n is node])
        return sweep_program(node, cts, adjoint, owned)

    monkeypatch.setattr(engine, "_sweep_program", sweeping)
    sweeps = []
    for _ in range(2):
        adjoint = tape.sweep({out.index: 1.0})
        assert sorted(adjoint) == [T.index, A_h.index]
        sweeps.append((_bits(adjoint[T.index]), float.hex(float(adjoint[A_h.index]))))
        assert (len(tape.nodes), tape.steps, tape.bytes_used) == forward
    assert sweeps[0] == sweeps[1]
    # every step of both pullbacks, each once, at the end of the tape
    assert len(segments) == 2 * 7
    assert all(len(at) == 1 and at[0] >= forward[0] for at in segments)


def test_a_popped_sum_handed_to_two_parents_is_added_into_by_neither():
    """p's cotangent is a sum the sweep allocates (of the two mul nodes'
    contributions), outside any program. Popped, add's rule hands it
    unchanged to both a and b, and each takes one more contribution later
    (from exp): summed in place, one would carry the other's. Both leaves'
    cotangents are the written out sums, bitwise, and the seeds are left
    as they were."""
    rng = np.random.default_rng(11)
    a0, b0 = rng.uniform(0.5, 2.0, (2, 5, 4))
    seeds = rng.uniform(-1.0, 1.0, (4, 5, 4))
    tape = Tape()
    a, b = tape.leaf(a0), tape.leaf(b0)
    ea, eb = ops.exp(a), ops.exp(b)
    p = ops.add(a, b)
    outs = (ea, eb, ops.mul(p, 2.0), ops.mul(p, 3.0))
    given = seeds.copy()
    adjoint = tape.sweep({out.index: seed for out, seed in zip(outs, given)})
    ct_p = seeds[3] * 3.0 + seeds[2] * 2.0
    assert _bits(adjoint[a.index]) == _bits(ct_p + seeds[0] * np.exp(a0))
    assert _bits(adjoint[b.index]) == _bits(ct_p + seeds[1] * np.exp(b0))
    assert _bits(given) == _bits(seeds)


def test_vjp_cotangent_shape_checked():
    _, pullback = vjp(lambda x: ops.mul(x, 2.0), np.ones((3, 3)))
    with pytest.raises(ShapeError):
        pullback(np.ones((2, 2)))
    with pytest.raises(ShapeError, match="tree mismatch: expected 1 leaves, got 2"):
        pullback((np.ones((3, 3)), np.ones((3, 3))))


def test_a_tree_refuses_a_short_rebuild_and_a_second_registration():
    _, rebuild = tree.flatten((1.0, np.ones(2)))
    with pytest.raises(ShapeError, match="rebuild expected 2 leaf values, got 1"):
        rebuild([1.0])
    with pytest.raises(ValueError, match="container ModelState already registered"):
        tree.register_container(dyncore.ModelState, children=("u",))


def test_jvp_tangent_shape_checked():
    with pytest.raises(ShapeError):
        jvp(lambda x: ops.mul(x, 2.0), np.ones((3, 3)), np.ones((4, 4)))


@pytest.mark.parametrize("k,match", [
    ((np.ones((2, 2)), np.ones((2, 2))), r"expected \(\) or \(m,\)"),
    # a stack of directions on one leaf, a single direction on the other
    ((np.ones(2), 1.0), r"leading axes \(\), an earlier leaf \(2,\)"),
    # stacks that disagree on m
    ((np.ones(2), np.ones(3)), r"leading axes \(3,\), an earlier leaf \(2,\)"),
    # a tangent tree with a leaf too few
    ((1.0,), "tree mismatch: expected 2 leaves, got 1"),
])
def test_jvp_direction_stacks_checked(k, match):
    with pytest.raises(ShapeError, match=match):
        jvp(lambda t: ops.mul(t[0], t[1]), (1.0, 2.0), k)


def test_jvp_broadcast_scalar_tangent_matches_grad():
    """A scalar added to (or subtracted from) a field moves every cell; a
    scalar that only switches a where_pos moves none."""
    field = np.ones((4, 3))
    for f in (
        lambda a: ops.asum(ops.add(a, field)),
        lambda a: ops.asum(ops.sub(field, a)),
        lambda a: ops.asum(ops.where_pos(a, field, field)),
    ):
        _, g = grad(f, 2.0)
        _, tangent = jvp(f, 2.0, 1.0)
        _, stacked = jvp(f, 2.0, np.array([1.0, -2.0]))
        assert tangent == g
        np.testing.assert_array_equal(stacked, [g, -2.0 * g])


@pytest.mark.parametrize("reduce", [ops.asum, ops.amean], ids=["asum", "amean"])
def test_jvp_direction_stack_equals_single_directions_bitwise(reduce):
    """Three stacked directions over a model state's velocities, elevation
    and two scalar parameters give bitwise what three one-direction passes
    give, closed-over values included."""
    g, p, c, s = dissipative_test_setup(seed=4)
    p = replace(p, kappa_T=2e3, tau0=0.05)

    def f(x):
        u, v, eta, A_h, r_bot = x
        state = replace(s, u=u, v=v, eta=eta)
        out = step_n(state, 3, replace(p, A_h=A_h, r_bot=r_bot), g, c)
        loss = reduce(ops.power(ops.sub(out.T.values, 10.0), p=2.0))
        return loss, out.u, state.T  # state.T is closed over: zero tangent

    x = (s.u, s.v, s.eta, p.A_h, p.r_bot)
    leaves, rebuild = tree.flatten(x)
    rng = np.random.default_rng(5)
    stacks = [rng.standard_normal((3,) + np.shape(leaf.value)) for leaf in leaves]
    value, tangent = jvp(f, x, rebuild(stacks))
    out_stacks = tree.leaf_values(tangent)
    assert np.shape(out_stacks[0]) == (3,)
    assert np.shape(out_stacks[-1]) == (3,) + g.shape
    assert np.all(out_stacks[0] != 0.0) and not np.any(out_stacks[-1])
    for k in range(3):
        value_k, tangent_k = jvp(f, x, rebuild([t[k] for t in stacks]))
        assert tree.leaf_values(value_k)[0] == tree.leaf_values(value)[0]
        for stack, single in zip(out_stacks, tree.leaf_values(tangent_k)):
            assert np.shape(stack[k]) == np.shape(single)
            assert np.asarray(stack[k]).tobytes() == np.asarray(single).tobytes()


def test_random_direction_is_unit_and_deterministic():
    x = {"a": np.zeros((3, 3)), "b": 0.0}
    k1 = random_direction(x, seed=123)
    k2 = random_direction(x, seed=123)
    assert tree.tree_dot(k1, k2) == pytest.approx(1.0, abs=1e-12)
    assert k1["b"] == k2["b"]
    assert k1["a"].tobytes() == k2["a"].tobytes()
    with pytest.raises(ShapeError, match="direction is empty"):
        random_direction({"a": np.zeros(0)})


def test_closed_over_value_puts_no_node_on_the_tape():
    b = 3.0
    tapes = []

    def f(a):
        tapes.append(a.tape)
        return a * a + b * b * b

    loss, g = grad(f, 2.0)
    assert loss == pytest.approx(31.0)
    assert g == 4.0
    # the leaf a, a * a and the sum: b * b * b is plain arithmetic
    assert [node.name for node in tapes[0].nodes] == [None, "mul", "add"]


def test_mixing_dual_and_tape_rejected():
    tape = Tape()
    a = tape.leaf(1.0)
    b = DualBox(2.0, 1.0)
    with pytest.raises(UnregisteredPrimitiveError):
        apply("mul", a, b)


def test_mixing_two_tapes_rejected():
    a = Tape().leaf(1.0)
    b = Tape().leaf(2.0)
    with pytest.raises(UnregisteredPrimitiveError):
        apply("add", a, b)
    # a checkpoint group ran plain, so it checks its inputs itself, as a
    # taped replay does, and records nothing
    program = trace(lambda xs: [ops.mul(xs[0], xs[1])], [1.0, 2.0])
    for other, message in ((b, "different tapes"), (DualBox(2.0, 1.0), "cannot mix")):
        with pytest.raises(UnregisteredPrimitiveError, match=message):
            program.checkpoint([a, other], 3, [8.0])
    assert len(a.tape.nodes) == 1 and a.tape.steps == 0


def test_independent_grad_inside_a_traced_function():
    # the inner grad traces its own plain value on a tape of its own
    assert grad(lambda x: x * grad(lambda y: y * y, 3.0)[1], 2.0) == (12.0, 6.0)


def test_nested_reverse_traces_rejected():
    def inner(x):
        return grad(lambda y: y * y, x)[1]

    with pytest.raises(
        UnregisteredPrimitiveError,
        match=r"^reverse over reverse is not supported: input leaf \(\) of vjp",
    ):
        grad(inner, 2.0)
    with pytest.raises(
        UnregisteredPrimitiveError,
        match=r"^forward over reverse is not supported: input leaf \(\) of vjp",
    ):
        jvp(inner, 2.0, 1.0)


def test_central_difference_second_order():
    """|<grad, k> - FD_eps| should shrink like eps^2 on a smooth loss."""
    rng = np.random.default_rng(11)
    x = rng.standard_normal((6, 6)) * 0.5

    def f(v):
        return ops.asum(ops.power(ops.exp(ops.mul(v, 0.3)), p=3.0))

    k = random_direction(x, seed=3)
    _, ad = jvp(f, x, k)
    errors = []
    eps_list = (1e-2, 1e-3, 1e-4)
    for eps in eps_list:
        fd = (f(tree.tree_add_scaled(x, k, eps)) - f(tree.tree_add_scaled(x, k, -eps))) / (
            2 * eps
        )
        errors.append(abs(ad - fd))
    slope = np.polyfit(np.log(eps_list), np.log(errors), 1)[0]
    assert slope >= 1.8


def test_unbroadcast_scalar_against_array():
    def f(t):
        scalar, arr = t
        return ops.asum(ops.mul(scalar, arr))

    arr = np.arange(6.0).reshape(2, 3)
    _, g = grad(f, (2.0, arr))
    assert g[0] == pytest.approx(arr.sum())
    np.testing.assert_array_equal(g[1], 2.0)


@pytest.mark.parametrize("depends", [True, False])
def test_a_0d_array_leaf_gets_a_0d_array_gradient(depends):
    """An ndarray leaf gets an ndarray gradient of its shape, a 0-d one
    too, whether or not the loss depends on it; a float leaf gets a float."""
    arr = np.arange(6.0).reshape(2, 3)

    def f(t):
        return ops.asum(ops.mul(t[0] if depends else t[1], arr))

    _, (g0, g1) = grad(f, (np.array(2.0), 3.0))
    assert type(g0) is np.ndarray and g0.shape == () and g0.dtype == np.float64
    assert type(g1) is float
    assert (float(g0), g1) == ((arr.sum(), 0.0) if depends else (0.0, arr.sum()))


_W = np.arange(1.0, 7.0).reshape(2, 3)
_ROW = np.array([0.5, -1.0, 2.0])

# (loss, point, its gradient) for rules a model step never takes.
_RULE_CASES = {
    # -x of a box is Box.__neg__
    "neg": (lambda x: ops.asum(ops.mul(-x, _W)), _W + 1.0, -_W),
    # a 1-D row broadcast against a field: its cotangent sums the leading axis
    "row-broadcast": (
        lambda t: ops.asum(ops.mul(t[0], t[1])),
        (_ROW, _W),
        (_W.sum(axis=0), np.broadcast_to(_ROW, _W.shape)),
    ),
    # x ** 0 is constant, so its derivative is zero, also at x = 0
    "pow-0": (lambda x: ops.asum(x**0), np.array([0.0, 1.0, -2.0]), np.zeros(3)),
}


@pytest.mark.parametrize("case", list(_RULE_CASES))
def test_grad_and_jvp_of_a_rule_no_step_takes(case):
    """grad gives the known gradient, leaf by leaf in shape and value, and
    jvp along a direction k gives <gradient, k>."""
    loss, x, want = _RULE_CASES[case]
    value, got = grad(loss, x)
    assert value == float(loss(x))
    for g, w in zip(tree.leaf_values(got), tree.leaf_values(want)):
        assert np.shape(g) == np.shape(w)
        np.testing.assert_array_equal(g, w)
    k = random_direction(x, seed=4)
    _, slope = jvp(loss, x, k)
    assert slope == pytest.approx(tree.tree_dot(want, k), rel=1e-12, abs=1e-15)


def test_the_cotangent_of_a_summed_float_is_a_float():
    """sum of a scalar hands its scalar operand a float cotangent, as its
    primal is one, not a 0-d array."""
    tape = Tape()
    x = tape.leaf(2.0)
    out = ops.asum(x)
    ct = tape.sweep({out.index: 1.0})[x.index]
    assert type(ct) is float and ct == 1.0
    assert grad(ops.asum, 2.0) == (2.0, 1.0)
