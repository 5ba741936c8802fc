"""Engine-level differentiation behavior: rules, tapes, selectors."""

from dataclasses import replace

import numpy as np
import pytest

import diffocean.autodiff.primitives as ops
from diffocean.autodiff import (
    CustomGradientEntry,
    DiffSelector,
    DualBox,
    Tape,
    grad,
    jvp,
    random_direction,
    register_custom_gradient,
    sqrt_reg,
    tree,
    vjp,
)
from diffocean.autodiff.engine import _OVERRIDES, _PRIMITIVES, apply
from diffocean.dyncore import step_n
from diffocean.errors import (
    DomainError,
    DuplicateGradientError,
    ShapeError,
    TapeMemoryError,
    UnregisteredPrimitiveError,
)
from diffocean.scenarios import dissipative_test_setup


def test_jvp_square_scalar():
    value, tangent = jvp(lambda x: x * x, 3.0, 1.0)
    assert value == 9.0
    assert tangent == 6.0


def test_vjp_square_scalar():
    value, gradient = vjp(lambda x: x * x, 3.0, 1.0)
    assert value == 9.0
    assert gradient == 6.0


def test_grad_norm_squared_tuple():
    loss, g = grad(lambda t: t[0] * t[0] + t[1] * t[1], (1.0, 2.0))
    assert loss == 5.0
    assert g == (2.0, 4.0)


def test_grad_requires_scalar_loss():
    with pytest.raises(ShapeError):
        grad(lambda x: x, np.ones(3))


def test_grad_frozen_selector_returns_zero_gradient():
    loss, g = grad(
        lambda t: t[0] * t[0] + t[1] * t[1],
        (1.0, 2.0),
        select=DiffSelector.nothing(),
    )
    assert loss == 5.0
    assert g == (0.0, 0.0)


def test_jvp_linear_in_tangent():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(12)
    k1 = rng.standard_normal(12)
    k2 = rng.standard_normal(12)
    a, b = 1.7, -2.4

    def f(v):
        return ops.asum(ops.power(v, 3.0))

    _, d1 = jvp(f, x, k1)
    _, d2 = jvp(f, x, k2)
    _, dc = jvp(f, x, a * k1 + b * k2)
    assert abs(dc - (a * d1 + b * d2)) <= 1e-12 * abs(dc)


def test_transpose_identity_elementwise_chain():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((6, 5))
    k = rng.standard_normal((6, 5))

    def f(v):
        return ops.mul(ops.laplacian(v, 2.0, 3.0, ybc="neumann"), v)

    v_ct = rng.standard_normal((6, 5))
    _, jk = jvp(f, x, k)
    _, g = vjp(f, x, v_ct)
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
        (ct_in,) = prim.vjp(e.reshape(nx, ny), (np.zeros((nx, ny)),), None, **static)
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
    (back,) = prim.vjp(stack, shapes, None, **static)
    for k in range(3):
        assert out[k].tobytes() == prim.fn(stack[k], **static).tobytes()
        (back_k,) = prim.vjp(stack[k], shapes, None, **static)
        assert back[k].tobytes() == back_k.tobytes()


@pytest.mark.parametrize("name,static", STENCILS)
def test_stencil_jvp_matches_forward(name, static):
    prim = _PRIMITIVES[name]
    rng = np.random.default_rng(42)
    t = rng.standard_normal((5, 4))
    np.testing.assert_array_equal(
        prim.jvp((t,), (np.zeros((5, 4)),), None, **static), prim.fn(t, **static)
    )


def test_where_pos_subgradient_rules():
    w = np.array([-1.0, 0.0, 2.0])
    a = np.array([10.0, 20.0, 30.0])
    b = np.array([1.0, 2.0, 3.0])
    out = ops.where_pos(w, a, b)
    np.testing.assert_array_equal(out, [1.0, 2.0, 30.0])
    _, g = vjp(lambda t: ops.asum(ops.where_pos(w, t[0], t[1])), (a, b))
    np.testing.assert_array_equal(g[0], [0.0, 0.0, 1.0])
    np.testing.assert_array_equal(g[1], [1.0, 1.0, 0.0])
    # the switch variable itself gets no derivative
    _, gw = vjp(lambda s: ops.asum(ops.where_pos(s, a, b)), w)
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


def test_duplicate_registration_rejected():
    # the package installs the sqrt_reg rules at import
    assert "sqrt_reg" in _OVERRIDES
    with pytest.raises(DuplicateGradientError):
        register_custom_gradient(ops.SQRT_REG_ENTRY)


def test_registration_changes_rules_not_primal():
    entry = CustomGradientEntry(
        primitive="log",
        vjp=lambda ct, args, out: (np.multiply(ct, 100.0),),
        jvp=lambda t, args, out: np.multiply(t[0], 100.0),
    )
    before = apply("log", 2.5)
    register_custom_gradient(entry)
    try:
        after = apply("log", 2.5)
        assert np.float64(before).tobytes() == np.float64(after).tobytes()
        _, g = grad(lambda x: ops.log(x), 2.5)
        assert g == 100.0  # subsequent tapes use the custom rule
    finally:
        del _OVERRIDES["log"]


def test_register_unknown_primitive_rejected():
    entry = CustomGradientEntry("definitely_not_registered", vjp=None, jvp=None)
    with pytest.raises(UnregisteredPrimitiveError):
        register_custom_gradient(entry)


def test_unregistered_ufunc_raises():
    with pytest.raises(UnregisteredPrimitiveError):
        jvp(lambda x: np.tanh(x), 0.5, 1.0)
    with pytest.raises(UnregisteredPrimitiveError):
        vjp(lambda x: np.arctan(x), np.ones(3), np.ones(3))


def test_np_power_is_box_pow():
    assert jvp(lambda x: np.power(x, 3), 2.0, 1.0) == jvp(lambda x: x**3, 2.0, 1.0)
    with pytest.raises(UnregisteredPrimitiveError, match="exponent"):
        grad(lambda x: np.power(2.0, x), 1.0)


def test_control_flow_on_traced_value_raises():
    def f(x):
        if x > 0:
            return x
        return -x

    with pytest.raises((UnregisteredPrimitiveError, TypeError)):
        grad(f, 1.0)


def test_primal_preservation_bitwise():
    rng = np.random.default_rng(7)
    x = np.abs(rng.standard_normal((8, 6))) + 0.1

    def f(v):
        return ops.amean(ops.mul(ops.sqrt(v), ops.laplacian(v, 1.0, 1.0, ybc="neumann")))

    plain = f(x)
    val_j, _ = jvp(f, x, np.zeros_like(x) + 0.3)
    val_v, _ = vjp(f, x, 1.0)
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
        t = ops.laplacian(v, 1.0, 1.0, ybc="dirichlet")
        return ops.asum(ops.mul(t, t))

    jvp(f, x, np.ones_like(x))
    vjp(f, x, 1.0)
    grad(f, x)
    assert x.tobytes() == snapshot


def test_tape_replay_reproduces_primals():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((4, 4)) + 3.0
    for mode in ("full", "minimal"):
        tape = Tape(save=mode)
        leaf = tape.leaf(x)
        out = ops.mul(ops.laplacian(leaf, 1.0, 1.0, ybc="neumann"), leaf)
        out = ops.exp(ops.mul(out, 0.01))
        _ = ops.amean(out)
        # full mode re-executes and compares every node bitwise; minimal
        # mode checks the subset of outputs its rules keep
        assert tape.replay()


def test_tape_topological_order():
    tape = Tape()
    a = tape.leaf(np.ones(3))
    b = ops.mul(ops.add(a, 2.0), ops.neg(a))
    _ = ops.asum(b)
    for idx, node in enumerate(tape.nodes):
        assert all(p < idx for p in node.parents if p is not None)


def test_tape_full_mode_detects_tampering():
    tape = Tape(save="full")
    leaf = tape.leaf(np.ones((3, 3)))
    _ = ops.mul(ops.add(leaf, 1.0), 2.0)
    tape.nodes[-1].out[0, 0] += 1.0
    assert not tape.replay()


def test_tape_memory_budget_error_names_steps():
    from diffocean.autodiff.engine import _activate, mark_step

    x = np.zeros((64, 64))
    tape = Tape(max_bytes=3 * x.nbytes)
    leaf = tape.leaf(x)
    # each loop records one mul (keeps one array for its rule): the budget
    # of three arrays breaks inside the fourth step
    with _activate(tape):
        with pytest.raises(TapeMemoryError, match="4 recorded model steps"):
            value = leaf
            for _ in range(8):
                mark_step()
                value = ops.mul(value, 2.0)
                value = ops.add(value, 1.0)


def test_vjp_cotangent_shape_checked():
    with pytest.raises(ShapeError):
        vjp(lambda x: ops.mul(x, 2.0), np.ones((3, 3)), np.ones((2, 2)))


def test_jvp_tangent_shape_checked():
    with pytest.raises(ShapeError):
        jvp(lambda x: ops.mul(x, 2.0), np.ones((3, 3)), np.ones((4, 4)))


@pytest.mark.parametrize("k,match", [
    ((np.ones((2, 2)), np.ones((2, 2))), r"expected \(\) or \(m,\)"),
    # a stack of directions on one leaf, a single direction on the other
    ((np.ones(2), 1.0), r"leading axes \(\), an earlier leaf \(2,\)"),
    # stacks that disagree on m
    ((np.ones(2), np.ones(3)), r"leading axes \(3,\), an earlier leaf \(2,\)"),
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


@pytest.mark.parametrize("reduce", [ops.asum, ops.amean])
def test_jvp_direction_stack_equals_single_directions_bitwise(reduce):
    """Three stacked directions over a model state and its scalar parameters
    give bitwise what three one-direction passes give, frozen leaves
    included."""
    g, p, c, s = dissipative_test_setup(seed=4)
    p = replace(p, kappa_T=2e3, tau0=0.05)

    def f(x):
        state, params = x
        out = step_n(state, 3, params, g, c)
        loss = reduce(ops.power(ops.sub(out.T.values, 10.0), 2.0))
        return loss, out.u, state.T  # state.T is frozen: zero tangent

    x = (s, p)
    select = DiffSelector.only("u", "v", "eta", "A_h", "r_bot")
    leaves, rebuild = tree.flatten(x)
    rng = np.random.default_rng(5)
    stacks = [rng.standard_normal((3,) + np.shape(leaf.value)) for leaf in leaves]
    value, tangent = jvp(f, x, rebuild(stacks), select=select)
    out_stacks = tree.leaf_values(tangent)
    assert np.shape(out_stacks[0]) == (3,)
    assert np.shape(out_stacks[-1]) == (3,) + g.shape
    assert np.all(out_stacks[0] != 0.0) and not np.any(out_stacks[-1])
    for k in range(3):
        value_k, tangent_k = jvp(f, x, rebuild([t[k] for t in stacks]), select=select)
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
    k3 = random_direction(x, select=DiffSelector.only("a"), seed=5)
    assert k3["b"] == 0.0
    assert tree.tree_dot(k3, k3) == pytest.approx(1.0, abs=1e-12)


def test_selector_freezes_leaves_without_tape_nodes():
    x = {"a": 2.0, "b": 3.0}

    def f(v):
        return v["a"] * v["a"] + v["b"] * v["b"] * v["b"]

    loss, g = grad(f, x, select=DiffSelector.only("a"))
    assert loss == pytest.approx(31.0)
    assert g["a"] == 4.0
    assert g["b"] == 0.0


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


def test_nested_reverse_traces_rejected():
    def inner(x):
        return grad(lambda y: y * y, x)[1]

    with pytest.raises(UnregisteredPrimitiveError):
        grad(inner, 2.0)


def test_central_difference_second_order():
    """|<grad, k> - FD_eps| should shrink like eps^2 on a smooth loss."""
    rng = np.random.default_rng(11)
    x = rng.standard_normal((6, 6)) * 0.5

    def f(v):
        return ops.asum(ops.power(ops.exp(ops.mul(v, 0.3)), 3.0))

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
