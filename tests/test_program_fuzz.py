"""Generated straight-line programs against each replay form of a Program.

A strategy draws programs over the registered primitives, computing each
value as it goes, so every operand stays inside its primitive's domain and
every value stays finite and bounded: a drawn operation that breaks this is
left out. The programs have 4-8 by 4-8 grids with and without a leading
stack axis, repeated arguments, constants, a returned input and a value
returned twice. Each replay form must equal its reference bitwise.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import diffocean.autodiff.primitives as ops
from diffocean.autodiff import DualBox, Tape, TapeBox, jvp, trace, vjp
from diffocean.autodiff.engine import Primitive

PRIMITIVES = {p.name: p for p in vars(ops).values() if isinstance(p, Primitive)}

# The static keywords each primitive is drawn with; one that takes none has
# no entry.
STATICS = {
    "power": [{"p": 2.0}, {"p": 3.0}, {"p": 0.5}],
    "roll_x": [{"n": 1}, {"n": -1}, {"n": 2}],
    "shift_yp": [{"fill": "zero"}, {"fill": "edge"}],
    "ddx_fwd": [{"dx": 0.5}],
    "ddx_bwd": [{"dx": 0.7}],
    "ddy_fwd": [{"dy": 0.6}],
    "ddy_bwd": [{"dy": 0.9}],
    "laplacian": [{"dx": 0.8, "dy": 0.6, "ybc": b} for b in ("neumann", "dirichlet", "noslip")],
}

# Argument positions that must hold values of at least POSITIVE, so that
# log, sqrt, a fractional power, a quotient and their derivatives stay tame.
POSITIVE = 0.1
DOMAIN = {"log": (0,), "sqrt": (0,), "sqrt_reg": (0,), "power": (0,), "div": (1,)}

# Primitives that take a whole grid, not a row or a scalar.
STENCILS = {
    "roll_x", "shift_yp", "ddx_fwd", "ddx_bwd", "ddy_fwd", "ddy_bwd", "interp_x_fwd",
    "interp_x_bwd", "interp_y_fwd", "interp_y_bwd", "laplacian", "cumsum_y",
}

BOUND = 1e6  # the largest magnitude a drawn value may reach


@st.composite
def programs(draw):
    """(inputs, constants, ops, outputs): ops are (name, static, argument
    indices) into the pool of inputs, then constants, then op values."""
    nx, ny = draw(st.integers(4, 8)), draw(st.integers(4, 8))
    shape = (2, nx, ny) if draw(st.booleans()) else (nx, ny)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    inputs = [rng.uniform(0.5, 2.0, shape) for _ in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        inputs.append(float(rng.uniform(0.5, 2.0)))  # a parameter
    constants = [
        {"grid": lambda: rng.uniform(0.5, 2.0, (nx, ny)),
         "row": lambda: rng.uniform(0.5, 2.0, (1, ny)),
         "scalar": lambda: float(rng.uniform(0.5, 2.0))}[kind]()
        for kind in draw(st.lists(st.sampled_from(["grid", "row", "scalar"]), max_size=2))
    ]
    pool = inputs + constants
    steps = []
    for _ in range(draw(st.integers(1, 12))):
        name = draw(st.sampled_from(sorted(PRIMITIVES)))
        static = draw(st.sampled_from(STATICS.get(name, [{}])))
        args = []
        for k in range(len(PRIMITIVES[name].vjps)):
            fits = [
                j for j, v in enumerate(pool)
                if (name not in STENCILS or np.shape(v)[-2:] == (nx, ny))
                and (k not in DOMAIN.get(name, ()) or np.min(v) >= POSITIVE)
            ]
            if not fits:
                break
            args.append(draw(st.sampled_from(fits)))
        else:
            with np.errstate(all="ignore"):
                value = PRIMITIVES[name](*(pool[j] for j in args), **static)
            if np.all(np.isfinite(value)) and np.max(np.abs(value)) <= BOUND:
                steps.append((name, static, tuple(args)))
                pool.append(value)
    first = len(inputs) + len(constants)
    computed = list(range(first, len(pool))) or [first - 1]
    outputs = [computed[-1]]
    outputs += draw(st.lists(st.sampled_from(computed), max_size=2))
    if draw(st.booleans()):
        outputs.append(draw(st.sampled_from(range(len(inputs)))))  # an input
    if constants and draw(st.booleans()):
        outputs.append(len(inputs))  # a constant
    if draw(st.booleans()):
        outputs.append(outputs[0])  # a value returned twice
    return inputs, constants, steps, outputs


def as_function(constants, steps, outputs):
    """The drawn program as a function of its leaves, one apply per op."""
    def f(leaves):
        pool = list(leaves) + constants
        for name, static, args in steps:
            pool.append(PRIMITIVES[name](*(pool[j] for j in args), **static))
        return [pool[j] for j in outputs]

    return f


def bits(x):
    return np.shape(x), np.asarray(x).dtype, np.asarray(x).tobytes()


def patterns(n):
    """Every non-empty subset of n inputs, as masks."""
    return [[bool(m >> i & 1) for i in range(n)] for m in range(1, 2**n)]


def taped_run(run, inputs, mask, seed):
    """Values, leaf cotangents and tape bytes of run (the function or its
    program) on inputs whose masked entries are leaves of a fresh tape."""
    tape = Tape()
    leaves = [tape.leaf(x) if m else x for x, m in zip(inputs, mask)]
    outs = run(leaves)
    rng = np.random.default_rng(seed)
    seeds = {}
    for out in outs:
        ct = rng.uniform(-1.0, 1.0, np.shape(out.primal if isinstance(out, TapeBox) else out))
        if isinstance(out, TapeBox):
            held = seeds.get(out.index)
            seeds[out.index] = ct if held is None else np.add(held, ct)
    adjoint = tape.sweep(seeds)
    values = [(isinstance(o, TapeBox), bits(getattr(o, "primal", o))) for o in outs]
    cts = [None if (ct := adjoint.get(x.index)) is None else bits(ct)
           for x in leaves if isinstance(x, TapeBox)]
    return values, cts, tape.bytes_used


@settings(max_examples=100)
@given(programs())
def test_a_plain_replay_is_the_traced_function_and_writes_nothing_it_shares(drawn):
    """A plain replay, run twice, gives the traced function's values
    bitwise, and writes no input, constant or output of an earlier replay
    (its donations land only in buffers that die inside it)."""
    inputs, constants, steps, outputs = drawn
    f = as_function(constants, steps, outputs)
    program = trace(f, inputs)
    before = [bits(v) for v in inputs + constants]
    want = [bits(v) for v in f(inputs)]
    first = program(inputs)
    kept = [bits(v) for v in first]
    assert kept == want
    assert [bits(v) for v in program(inputs)] == want
    assert [bits(v) for v in first] == kept
    assert [bits(v) for v in inputs + constants] == before


@settings(max_examples=60)
@given(programs())
def test_a_taped_replay_is_a_tape_of_one_node_per_operation(drawn):
    """For every pattern of taped inputs, a taped replay returns the same
    values, taped where that tape's are, and its sweep gives the same
    leaf cotangents and keeps the same bytes."""
    inputs, constants, steps, outputs = drawn
    f = as_function(constants, steps, outputs)
    program = trace(f, inputs)
    for seed, mask in enumerate(patterns(len(inputs))):
        assert taped_run(program, inputs, mask, seed) == taped_run(f, inputs, mask, seed)


@settings(max_examples=60)
@given(programs())
def test_a_tangent_replay_is_apply_per_operation(drawn):
    """For every pattern of DualBox inputs, a tangent replay gives the
    primals and two-direction tangents of the function run through apply
    per operation, and writes none of its inputs."""
    inputs, constants, steps, outputs = drawn
    f = as_function(constants, steps, outputs)
    program = trace(f, inputs)
    before = [bits(v) for v in inputs + constants]
    rng = np.random.default_rng(0)
    for mask in patterns(len(inputs)):
        duals = [
            DualBox(x, rng.uniform(-1.0, 1.0, (2,) + np.shape(x))) if m else x
            for x, m in zip(inputs, mask)
        ]
        for got, want in zip(program(duals), f(duals)):
            assert type(got) is type(want)
            if isinstance(want, DualBox):
                assert bits(got.primal) == bits(want.primal)
                assert bits(got.tangent) == bits(want.tangent)
            else:
                assert bits(got) == bits(want)
    assert [bits(v) for v in inputs + constants] == before


@settings(max_examples=60)
@given(programs(), st.integers(0, 2**32 - 1))
def test_the_tangent_and_adjoint_of_a_program_are_transposes(drawn, seed):
    """<J v, w> from jvp equals <v, Jᵀ w> from vjp to 1e-12, relative to
    ‖J v‖·‖w‖, for random v and w."""
    inputs, constants, steps, outputs = drawn
    program = trace(as_function(constants, steps, outputs), inputs)
    rng = np.random.default_rng(seed)
    v = [rng.standard_normal(np.shape(x)) for x in inputs]
    values, jv = jvp(program, inputs, v)
    w = [rng.standard_normal(np.shape(y)) for y in values]
    _, pullback = vjp(program, inputs)
    jtw = pullback(w)
    forward = sum(float(np.vdot(a, b)) for a, b in zip(jv, w))
    reverse = sum(float(np.vdot(a, b)) for a, b in zip(v, jtw))
    scale = np.sqrt(sum(float(np.vdot(a, a)) for a in jv) * sum(float(np.vdot(b, b)) for b in w))
    assert abs(forward - reverse) <= 1e-12 * scale
