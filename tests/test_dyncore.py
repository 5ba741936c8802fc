"""Dynamical-core behavior: stepping, diagnostics, conservation."""

import hashlib
import sys
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest

from diffocean import dyncore
from diffocean.autodiff import Tape, grad, jvp, tree, unbox, vjp
from diffocean.autodiff import primitives as ops
from diffocean.dyncore import (
    ModelState,
    PhysParams,
    StepConfig,
    barotropic_streamfunction,
    bsf_mse_loss,
    flow_only,
    has_tracer,
    step,
    step_n,
    total_energy,
    transport,
    wind_stress_profile,
)
from diffocean.errors import (
    CFLError,
    DampingError,
    DomainError,
    NonFiniteError,
    ShapeError,
    StaggeringError,
)
from diffocean.grid import Field, Staggering, make_channel_grid
from diffocean.scenarios import linear_profile_field, solenoidal_noise
from helpers import dissipative_test_setup, random_state


def quiet_params(grid, **kwargs):
    defaults = dict(
        A_h=0.0,
        r_bot=0.0,
        g=9.81,
        rho0=1024.0,
        tau0=0.0,
        kappa_T=0.0,
        lambda_relax=0.0,
        T_star=linear_profile_field(grid, 10.0, 10.0),
    )
    defaults.update(kwargs)
    return PhysParams(**defaults)


def zero_state(g, T0=10.0):
    return ModelState(
        u=Field(np.zeros(g.shape), Staggering.U_FACE),
        v=Field(np.zeros(g.shape), Staggering.V_FACE),
        eta=Field(np.zeros(g.shape), Staggering.CENTER),
        T=Field(np.full(g.shape, T0), Staggering.CENTER),
        time=0.0,
    )


def state_bytes(s):
    return tuple(
        np.asarray(getattr(s, name).values).tobytes() for name in ("u", "v", "eta", "T")
    )


def test_wind_profile_zero_tau():
    g = make_channel_grid(8, 42, 1e6, 1e6, 100.0, 0.0, 0.0)
    out = wind_stress_profile(g, 0.0, 0.5)
    np.testing.assert_array_equal(out.values, 0.0)
    assert out.staggering is Staggering.U_FACE


def test_wind_profile_peak_and_edges():
    # ny * band odd puts one u row exactly at the band midpoint
    g = make_channel_grid(8, 42, 1e6, 1e6, 100.0, 0.0, 0.0)
    out = wind_stress_profile(g, 0.1, 0.5).values
    assert out.max() == pytest.approx(0.1, rel=1e-12)
    j_mid = np.argmax(out[0])
    assert g.y_center[j_mid] == pytest.approx(0.25 * g.Ly)
    assert np.all(out[:, g.y_center >= 0.5 * g.Ly] == 0.0)
    assert out[0, 0] < 0.1 * out.max()  # approaches zero at the southern edge


def test_wind_profile_symmetric_about_band_midpoint():
    g = make_channel_grid(4, 40, 1e6, 1e6, 100.0, 0.0, 0.0)
    out = wind_stress_profile(g, 0.25, 0.5).values[0]
    band = out[:20]
    np.testing.assert_allclose(band, band[::-1], rtol=1e-12)


def test_wind_profile_band_validated():
    g = make_channel_grid(8, 8, 1e6, 1e6, 100.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        wind_stress_profile(g, 0.1, 0.0)
    with pytest.raises(DomainError):
        wind_stress_profile(g, 0.1, 1.5)


def test_zero_state_is_fixed_point():
    g = make_channel_grid(8, 8, 1e6, 1e6, 100.0, 1e-4, 0.0)
    p = quiet_params(g, A_h=100.0, r_bot=1e-5, kappa_T=50.0)
    c = StepConfig(dt=300.0)
    s = zero_state(g)
    out = step(s, p, g, c)
    np.testing.assert_array_equal(out.u.values, 0.0)
    np.testing.assert_array_equal(out.v.values, 0.0)
    np.testing.assert_array_equal(out.eta.values, 0.0)
    np.testing.assert_array_equal(out.T.values, s.T.values)
    assert out.time == 300.0


def test_step_mass_conservation_any_state():
    g = make_channel_grid(16, 12, 1e6, 1e6, 200.0, 1e-4, 1e-11)
    p = quiet_params(g, A_h=500.0, r_bot=1e-5, tau0=0.2, kappa_T=100.0)
    c = StepConfig(dt=200.0)
    rng = np.random.default_rng(0)
    for _ in range(5):
        s = random_state(g, rng, amp=0.2)
        out = step(s, p, g, c)
        before = np.sum(s.eta.values)
        after = np.sum(out.eta.values)
        scale = np.sum(np.abs(s.eta.values))
        assert abs(after - before) <= 1e-12 * scale


def test_unforced_spin_down_closed_form():
    g = make_channel_grid(8, 8, 1e6, 1e6, 100.0, 0.0, 0.0)  # f-plane off
    r_bot = 2e-5
    p = quiet_params(g, r_bot=r_bot, g=0.0)
    c = StepConfig(dt=400.0)
    rng = np.random.default_rng(1)
    s = random_state(g, rng, amp=0.3)
    n = 20
    out = step_n(s, n, p, g, c)
    expected = s.u.values * (1.0 - c.dt * r_bot) ** n
    np.testing.assert_allclose(out.u.values, expected, rtol=1e-12)


def test_step_purity_and_determinism():
    g = make_channel_grid(12, 10, 1e6, 1e6, 300.0, -1e-4, 2e-11)
    p = quiet_params(g, A_h=800.0, r_bot=1e-5, tau0=0.1, kappa_T=200.0,
                     lambda_relax=1e-6)
    c = StepConfig(dt=250.0)
    rng = np.random.default_rng(2)
    s = random_state(g, rng, amp=0.1)
    before = state_bytes(s)
    out1 = step(s, p, g, c)
    assert state_bytes(s) == before
    out2 = step(s, p, g, c)
    assert state_bytes(out1) == state_bytes(out2)
    assert out1.time == out2.time


def test_step_n_identity_and_composition():
    g = make_channel_grid(8, 8, 1e6, 1e6, 100.0, 1e-4, 0.0)
    p = quiet_params(g, A_h=200.0, r_bot=1e-5, tau0=0.05)
    c = StepConfig(dt=300.0)
    rng = np.random.default_rng(3)
    s = random_state(g, rng, amp=0.05)

    out0 = step_n(s, 0, p, g, c)
    assert out0 is s  # bitwise-identical, in fact the same object

    four = step_n(s, 4, p, g, c)
    nested = step(step(step(step(s, p, g, c), p, g, c), p, g, c), p, g, c)
    assert state_bytes(four) == state_bytes(nested)

    rng2 = np.random.default_rng(4)
    for _ in range(3):
        a = int(rng2.integers(0, 8))
        b = int(rng2.integers(0, 8))
        whole = step_n(s, a + b, p, g, c)
        split = step_n(step_n(s, a, p, g, c), b, p, g, c)
        assert state_bytes(whole) == state_bytes(split)
        assert whole.time == split.time


def test_step_n_calls_module_level_step_every_step(monkeypatch):
    # The benchmark's step clock and tracer replace dyncore.step; step_n
    # must look it up on every step so that they see each one.
    g = make_channel_grid(8, 8, 1e6, 1e6, 100.0, 1e-4, 0.0)
    p = quiet_params(g, A_h=200.0)
    s = random_state(g, np.random.default_rng(5), amp=0.05)
    calls = []
    original = dyncore.step

    def counting(*args):
        calls.append(args[0].time)
        return original(*args)

    monkeypatch.setattr(dyncore, "step", counting)
    step_n(s, 3, p, g, StepConfig(dt=300.0))
    assert calls == [0.0, 300.0, 600.0]


def test_step_rejects_cfl_violation():
    g = make_channel_grid(8, 8, 1e5, 1e5, 500.0, 0.0, 0.0)
    p = quiet_params(g)
    # sqrt(gH) = 70 m/s, dx = 12.5 km -> limit ~125 s
    with pytest.raises(CFLError):
        step(zero_state(g), p, g, StepConfig(dt=200.0))


@pytest.mark.parametrize(
    "term, kind",
    [("A_h", "momentum"), ("r_bot", "momentum"), ("kappa_T", "tracer"),
     ("lambda_relax", "tracer")],
)
def test_step_rejects_unstable_damping(term, kind):
    g = make_channel_grid(8, 8, 1e6, 1e6, 100.0, 0.0, 0.0)
    c = StepConfig(dt=100.0)
    # Forward Euler is stable for dt * rate <= 2; diffusive terms act at
    # the Laplacian's largest eigenvalue 4 * (1/dx^2 + 1/dy^2).
    limit = 2.0 / c.dt
    if term in ("A_h", "kappa_T"):
        limit /= 4.0 * (1.0 / g.dx**2 + 1.0 / g.dy**2)
    step(zero_state(g), quiet_params(g, **{term: 0.99 * limit}), g, c)
    with pytest.raises(DampingError, match=kind) as info:
        step(zero_state(g), quiet_params(g, **{term: 1.01 * limit}), g, c)
    assert isinstance(info.value, CFLError)


def _step_in_mode(mode, s, p, g, c):
    """step(s, p, g, c) with p's g and r_bot plain, pushed by jvp or taped
    by vjp; the value of the new u."""

    def f(x):
        gravity, r_bot = x
        return step(s, replace(p, g=gravity, r_bot=r_bot), g, c).u.values

    x = (p.g, p.r_bot)
    if mode == "plain":
        return f(x)
    if mode == "jvp":
        return jvp(f, x, (1.0, 1.0))[0]
    return vjp(f, x)[0]


@pytest.mark.parametrize("mode", ["plain", "jvp", "vjp"])
def test_stability_bounds_decide_at_the_exact_float(mode):
    """dt equal to the CFL limit is refused and the next float below it
    steps; a damping product dt * rate of exactly 2.0 steps and the next
    float above it is refused, whether g and r_bot are plain or boxed."""
    g = make_channel_grid(8, 8, 1e6, 1e6, 100.0, 1e-4, 0.0)
    s = random_state(g, np.random.default_rng(5), amp=0.05)
    p = quiet_params(g)
    limit = dyncore.cfl_limit(g, p.g)
    with pytest.raises(CFLError, match="CFL bound"):
        _step_in_mode(mode, s, p, g, StepConfig(dt=limit))
    _step_in_mode(mode, s, p, g, StepConfig(dt=float(np.nextafter(limit, 0.0))))

    c = StepConfig(dt=128.0)
    assert c.dt < limit
    _step_in_mode(mode, s, replace(p, r_bot=1.0 / 64.0), g, c)
    above = float(np.nextafter(1.0 / 64.0, 1.0))
    with pytest.raises(DampingError, match="momentum"):
        _step_in_mode(mode, s, replace(p, r_bot=above), g, c)


def test_step_reports_nonfinite_field():
    g = make_channel_grid(8, 8, 1e6, 1e6, 100.0, 0.0, 0.0)
    p = quiet_params(g)
    c = StepConfig(dt=100.0)
    s = zero_state(g)
    s.eta.values[3, 3] = np.nan
    with pytest.raises(NonFiniteError, match="non-finite values in field"):
        step(s, p, g, c)


def test_step_shape_mismatch():
    g = make_channel_grid(8, 8, 1e6, 1e6, 100.0, 0.0, 0.0)
    g2 = make_channel_grid(8, 10, 1e6, 1e6, 100.0, 0.0, 0.0)
    p = quiet_params(g)
    with pytest.raises(ShapeError):
        step(zero_state(g2), p, g, StepConfig(dt=100.0))


@pytest.mark.parametrize(
    "name, wrong",
    [
        ("u", Staggering.CENTER),
        ("v", Staggering.CENTER),
        ("eta", Staggering.U_FACE),
        ("T", Staggering.V_FACE),
    ],
)
def test_step_rejects_mistagged_field(name, wrong):
    g = make_channel_grid(8, 8, 1e6, 1e6, 100.0, 1e-4, 0.0)
    p = quiet_params(g, A_h=100.0, r_bot=1e-5, kappa_T=50.0)
    s = zero_state(g)
    s = replace(s, **{name: Field(getattr(s, name).values, wrong)})
    with pytest.raises(StaggeringError):
        step(s, p, g, StepConfig(dt=300.0))


# A taped step is one program node, swept operation by operation in
# reverse program order, and each value's cotangents accumulate in that
# order, so a step that orders its primitives or operands otherwise can
# change gradient bits while its forward values stay the same. The pin
# covers the program's primitive names and argument slots only.
@pytest.mark.parametrize(
    "drag_mode, boundary, nodes, nbytes, digest",
    [
        ("linear", "free-slip", 12, 8960,
         "6b77fcf4b4a4277dd6382d0a711885ac80148a7d8065bc3ae7f69e5dc529a89a"),
        ("quadratic", "no-slip", 12, 16640,
         "24b124957e0192b88bf02d0f0d4cdad913d45172f56a60a948e1e770e1f01914"),
    ],
    ids=["linear-free-slip", "quadratic-no-slip"],
)
def test_step_tape_structure_pinned(drag_mode, boundary, nodes, nbytes, digest):
    g = make_channel_grid(12, 10, 1e6, 1e6, 500.0, -1e-4, 1e-11)
    s = random_state(g, np.random.default_rng(0))
    tape = Tape()

    def leaf(f):
        return Field(tape.leaf(f.values), f.staggering)

    boxed = ModelState(u=leaf(s.u), v=leaf(s.v), eta=leaf(s.eta), T=leaf(s.T))
    p = quiet_params(
        g,
        A_h=tape.leaf(300.0),
        r_bot=tape.leaf(1e-5),
        C_d=tape.leaf(1e-3),
        drag_mode=drag_mode,
        tau0=0.05,
        kappa_T=100.0,
        lambda_relax=1e-6,
        T_star=linear_profile_field(g, 5.0, 15.0),
    )
    c = StepConfig(dt=200.0, boundary=boundary)
    step(boxed, p, g, c)
    # 7 leaves, one program node and one output node per field
    assert len(tape.nodes) == nodes
    assert tape.bytes_used == nbytes
    program = dyncore._program(boxed, p, g, c, dyncore._leaf_values(boxed, p))
    structure = repr([(name, refs) for name, refs, *_ in program.ops]).encode()
    assert hashlib.sha256(structure).hexdigest() == digest


@pytest.fixture
def traces(monkeypatch):
    """A fresh step-program cache; the list records the key of every trace."""
    keys = []
    original = dyncore._trace

    def counting(s, p, g, c):
        keys.append((g, c, p.drag_mode, p.wind_band, s.v.staggering))
        return original(s, p, g, c)

    monkeypatch.setattr(dyncore, "_PROGRAMS", {})
    monkeypatch.setattr(dyncore, "_trace", counting)
    return keys


def _structure(x):
    """The rebuild spec of x: containers, field names, staggerings, time,
    drag mode and wind band, and where each leaf sits."""
    return tree._build(x, (), [])


def test_leaf_values_follow_tree_order():
    """_leaf_values reads the leaves of (s, p) in tree order, and _unboxed
    builds (s, p) as tree.flatten's rebuild does from the unboxed leaves,
    for plain and boxed leaves; a flow-only state has no T leaf."""
    g, p, c, s = dissipative_test_setup(seed=1)
    for state, count in ((s, 13), (flow_only(s), 12)):
        values = dyncore._leaf_values(state, p)
        assert all(a is b for a, b in zip(values, tree.leaf_values((state, p))))
        assert len(values) == len(tree.leaf_values((state, p))) == count
        tape = Tape()
        _, rebuild = tree.flatten((state, p))
        for leaves in (values, [tape.leaf(v) for v in values]):
            got = dyncore._unboxed(*rebuild(leaves))
            want = rebuild(values)
            assert _structure(got) == _structure(want) == _structure((state, p))
            assert all(a is b for a, b in zip(tree.leaf_values(got), values))


def test_step_program_is_traced_once_per_structure(traces):
    """States and parameter values share one program, plain or boxed; what
    fixes the structure gets a program of its own."""
    g, p, c, s = dissipative_test_setup(seed=1)
    other = random_state(g, np.random.default_rng(2), amp=0.05)
    step(s, p, g, c)
    step(other, p, g, c)
    step(s, replace(p, A_h=5.0e5, r_bot=2e-4), g, c)
    jvp(lambda a: step(s, replace(p, A_h=a), g, c), 6.0e5, 1.0)
    grad(lambda t: ops.asum(step(replace(s, T=Field(t, Staggering.CENTER)), p, g, c).T.values),
         s.T.values)
    assert len(traces) == 1
    variants = [
        (s, replace(p, drag_mode="quadratic", C_d=1e-3), g, c),
        (s, p, g, StepConfig(dt=300.0, boundary="no-slip")),
        (s, replace(p, wind_band=0.25), g, c),
        (s, p, g, StepConfig(dt=250.0)),
    ]
    for args in variants:
        step(*args)
    g2 = make_channel_grid(16, 16, 1.6e6, 1.6e6, 120.0, 1e-4, 0.0)
    step(s, replace(p, T_star=linear_profile_field(g2, 10.0, 10.0)), g2, c)
    assert len(traces) == 6 and len(set(traces)) == 6
    # a mis-tagged field gets a key of its own, and its trace raises
    with pytest.raises(StaggeringError):
        step(replace(s, v=Field(s.v.values, Staggering.U_FACE)), p, g, c)
    assert len(traces) == 7 and len(dyncore._PROGRAMS) == 6
    step(s, p, g, c)
    assert len(traces) == 7


def test_step_program_cache_is_safe_across_threads(traces, monkeypatch):
    """Threads stepping two structures through a one-program cache, which
    every miss empties, get the serial trajectories bitwise."""
    g, p, c, s = dissipative_test_setup(seed=1)
    configs = [c, StepConfig(dt=250.0)]
    monkeypatch.setattr(dyncore, "_MAX_PROGRAMS", 1)
    want = [state_bytes(step_n(s, 6, p, g, cfg)) for cfg in configs]
    got = [None] * 8
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def work(i):
            got[i] = state_bytes(step_n(s, 6, p, g, configs[i % 2]))

        workers = [threading.Thread(target=work, args=(i,)) for i in range(len(got))]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
        assert not any(w.is_alive() for w in workers)
    finally:
        sys.setswitchinterval(previous)
    assert got == [want[i % 2] for i in range(len(got))]
    assert len(traces) > 2  # the cache was emptied and refilled


def _body_step(s, p, g, c):
    """One step straight through the traced definition, with no program."""
    u, v, eta, T = dyncore._step_body(s, p, g, c)
    return ModelState(u=u, v=v, eta=eta, T=T, time=s.time + c.dt)


@pytest.mark.parametrize(
    "drag_mode, boundary", [("linear", "free-slip"), ("quadratic", "no-slip")]
)
def test_replayed_step_is_bitwise_the_traced_definition(drag_mode, boundary):
    g = make_channel_grid(12, 10, 1e6, 1e6, 500.0, -1e-4, 1e-11)
    s = random_state(g, np.random.default_rng(3), amp=0.05)
    c = StepConfig(dt=200.0, boundary=boundary)
    p = quiet_params(
        g, A_h=300.0, r_bot=1e-5, C_d=1e-3, drag_mode=drag_mode, tau0=0.05,
        kappa_T=100.0, lambda_relax=1e-6, T_star=linear_profile_field(g, 5.0, 15.0),
    )
    n = 20

    def rollout(stepper):
        def run(x):
            s, a, r = x
            q = replace(p, A_h=a, r_bot=r) if drag_mode == "linear" else replace(p, A_h=a, C_d=r)
            for _ in range(n):
                s = stepper(s, q, g, c)
            return s
        return run

    x = (s, 300.0, 1e-5 if drag_mode == "linear" else 1e-3)
    replayed, defined = rollout(step), rollout(_body_step)
    assert state_bytes(replayed(x)) == state_bytes(defined(x))
    leaves, rebuild = tree.flatten(x)
    rng = np.random.default_rng(5)
    k = rebuild([rng.standard_normal((2,) + np.shape(leaf.value)) for leaf in leaves])
    got, want = jvp(replayed, x, k), jvp(defined, x, k)
    assert state_bytes(got[0]) == state_bytes(want[0])
    assert state_bytes(got[1]) == state_bytes(want[1])
    ct = random_state(g, np.random.default_rng(4), amp=1.0)
    got, want = vjp(replayed, x)[1](ct), vjp(defined, x)[1](ct)
    for a, b in zip(tree.leaf_values(got), tree.leaf_values(want)):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


def _flow_bytes(s):
    """The bytes of u, v, eta and time: what a flow-only state carries."""
    return [np.asarray(unbox(f.values)).tobytes() for f in (s.u, s.v, s.eta)] + [
        np.float64(s.time).tobytes()
    ]


def _flow_loss(s):
    return ops.add(
        ops.add(ops.asum(ops.power(s.u.values, p=2.0)), ops.asum(ops.power(s.v.values, p=2.0))),
        ops.asum(ops.power(s.eta.values, p=2.0)),
    )


@pytest.mark.parametrize("flow_first", [False, True], ids=["full-first", "flow-first"])
def test_flow_only_state_steps_the_flow_of_the_full_state_bitwise(monkeypatch, flow_first):
    """A state whose T is Field(None) runs a program of its own for u, v
    and eta alone, and gets them bitwise as the full state does: plain,
    under a two-direction jvp and under grad, for one step and for a
    9-step step_n that runs in 3-step checkpoint groups when taped. Both
    orders start from an empty program cache, so neither structure ever
    replays the other's program."""
    monkeypatch.setattr(dyncore, "_PROGRAMS", {})
    g = make_channel_grid(12, 10, 1e6, 1e6, 500.0, -1e-4, 1e-11)
    full = random_state(g, np.random.default_rng(3), amp=0.05)
    flow = flow_only(full)
    c = StepConfig(dt=200.0)
    p = quiet_params(
        g, A_h=300.0, r_bot=1e-5, tau0=0.05, kappa_T=100.0, lambda_relax=1e-6,
        T_star=linear_profile_field(g, 5.0, 15.0),
    )
    rng = np.random.default_rng(5)
    # two directions for each of u, v, eta, T, A_h and r_bot
    tangents = [
        rng.standard_normal((2,) + np.shape(v)) for v in tree.leaf_values((full, 0.0, 0.0))
    ]

    def forms(state):
        x = (state, p.A_h, p.r_bot)
        _, rebuild = tree.flatten(x)
        k = rebuild(tangents if has_tracer(state) else tangents[:3] + tangents[4:])
        out = []
        for n in (1, 9):
            def run(x, n=n):
                s, a, r = x
                q = replace(p, A_h=a, r_bot=r)
                return step(s, q, g, c) if n == 1 else step_n(s, n, q, g, c)

            value, tangent = jvp(run, x, k)
            loss, (gs, ga, gr) = grad(lambda x: _flow_loss(run(x)), x)
            out += [
                _flow_bytes(run(x)), _flow_bytes(value), _flow_bytes(tangent)[:3],
                _flow_bytes(gs)[:3], [float.hex(v) for v in (loss, ga, gr)],
            ]
        return out

    first, second = (flow, full) if flow_first else (full, flow)
    assert forms(first) == forms(second)
    assert len(dyncore._PROGRAMS) == 2
    out = step_n(flow, 9, p, g, c)
    assert out.T is flow.T and out.time == 9 * c.dt


def test_streamfunction_zero_velocity():
    g = make_channel_grid(8, 8, 1e6, 1e6, 100.0, 0.0, 0.0)
    psi = barotropic_streamfunction(zero_state(g), g)
    np.testing.assert_array_equal(psi.values, 0.0)
    assert psi.staggering is Staggering.CENTER


def test_streamfunction_uniform_u_is_linear_ramp():
    g = make_channel_grid(8, 10, 1e6, 1e6, 500.0, 0.0, 0.0)
    u0 = 0.1
    s = zero_state(g)
    s.u.values[:] = u0
    psi = barotropic_streamfunction(s, g).values
    expected = np.broadcast_to(g.H * u0 * g.dy * (np.arange(g.ny) + 1.0), g.shape)
    np.testing.assert_allclose(psi, expected, rtol=1e-12)
    assert psi[0, -1] == pytest.approx(g.H * u0 * g.Ly, rel=1e-12)


def test_transport_arithmetic():
    g = make_channel_grid(8, 10, 1e6, 1e6, 500.0, 0.0, 0.0)
    s = zero_state(g)
    assert transport(s, g, 0) == 0.0
    s.u.values[:] = 0.1
    assert transport(s, g, 3) == pytest.approx(50.0, rel=1e-12)
    with pytest.raises(ShapeError):
        transport(s, g, 8)


def test_a_diagnostic_that_overflows_names_itself_and_the_time():
    """A finite u whose squares and section sum overflow gives
    NonFiniteError naming the diagnostic and the model time, with no
    NumPy warning."""
    g = make_channel_grid(8, 10, 1e6, 1e6, 500.0, 0.0, 0.0)
    s = replace(zero_state(g), time=600.0)
    s.u.values[:] = 1e300
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match="'total_energy' at model time 600.0 s"):
            total_energy(s, quiet_params(g), g)
        with pytest.raises(NonFiniteError, match="'transport' at model time 600.0 s"):
            transport(s, g, 0)


def test_streamfunction_north_wall_equals_transport():
    g = make_channel_grid(12, 10, 1e6, 1.5e6, 400.0, -1e-4, 2e-11)
    p = quiet_params(g, A_h=500.0, r_bot=1e-5, tau0=0.1)
    c = StepConfig(dt=250.0)
    s = step_n(zero_state(g), 60, p, g, c)
    psi = barotropic_streamfunction(s, g).values
    for i in (0, 5, 11):
        assert psi[i, -1] / 1e6 == pytest.approx(transport(s, g, i), rel=1e-12)


def test_transport_zonally_uniform_after_spinup():
    g = make_channel_grid(16, 12, 2e6, 1.5e6, 400.0, -1e-4, 2e-11)
    p = quiet_params(g, A_h=500.0, r_bot=1e-5, tau0=0.1)
    c = StepConfig(dt=250.0)
    s = step_n(zero_state(g), 200, p, g, c)
    values = [transport(s, g, i) for i in range(g.nx)]
    spread = max(values) - min(values)
    assert spread <= 1e-10 * max(abs(v) for v in values)


def test_bsf_mse_loss_zero_at_reference():
    g = make_channel_grid(8, 8, 1e6, 1e6, 100.0, 0.0, 0.0)
    rng = np.random.default_rng(5)
    s = random_state(g, rng)
    psi = barotropic_streamfunction(s, g)
    assert bsf_mse_loss(s, psi, g) == 0.0


def test_bsf_mse_loss_closed_form_ramp():
    g = make_channel_grid(8, 10, 1e6, 1e6, 500.0, 0.0, 0.0)
    u0 = 0.2
    s = zero_state(g)
    s.u.values[:] = u0
    ref = Field(np.zeros(g.shape), Staggering.CENTER)
    got = bsf_mse_loss(s, ref, g)
    # mean over j of (H u0 dy (j+1))^2 = (H u0 dy)^2 * sum k^2 / ny
    k2 = g.ny * (g.ny + 1) * (2 * g.ny + 1) / 6.0
    expected = (g.H * u0 * g.dy) ** 2 * k2 / g.ny
    assert got == pytest.approx(expected, rel=1e-12)


def test_bsf_mse_loss_zonal_rotation_invariance():
    g = make_channel_grid(12, 8, 1e6, 1e6, 100.0, 0.0, 0.0)
    rng = np.random.default_rng(6)
    s = random_state(g, rng)
    ref = Field(rng.standard_normal(g.shape), Staggering.CENTER)
    base = bsf_mse_loss(s, ref, g)
    rolled_state = ModelState(
        u=Field(np.roll(s.u.values, 3, axis=0), Staggering.U_FACE),
        v=Field(np.roll(s.v.values, 3, axis=0), Staggering.V_FACE),
        eta=Field(np.roll(s.eta.values, 3, axis=0), Staggering.CENTER),
        T=Field(np.roll(s.T.values, 3, axis=0), Staggering.CENTER),
        time=s.time,
    )
    rolled_ref = Field(np.roll(ref.values, 3, axis=0), Staggering.CENTER)
    assert bsf_mse_loss(rolled_state, rolled_ref, g) == pytest.approx(base, rel=1e-13)


def test_bsf_mse_loss_shape_mismatch():
    g = make_channel_grid(8, 8, 1e6, 1e6, 100.0, 0.0, 0.0)
    s = zero_state(g)
    with pytest.raises(ShapeError):
        bsf_mse_loss(s, Field(np.zeros((8, 9)), Staggering.CENTER), g)


def test_quadratic_drag_matches_linear_at_uniform_speed():
    g = make_channel_grid(12, 10, 1e6, 1e6, 500.0, -1e-4, 1e-11)
    u0, r_bot = 0.5, 1e-5
    c_d = r_bot * g.H / u0
    base = dict(g=9.81, tau0=0.05, kappa_T=100.0, A_h=300.0)
    p_lin = quiet_params(g, r_bot=r_bot, drag_mode="linear", **base)
    p_quad = quiet_params(g, r_bot=0.0, drag_mode="quadratic", C_d=c_d, **base)
    c = StepConfig(dt=200.0)
    s = zero_state(g)
    s.u.values[:] = u0
    out_lin = step(s, p_lin, g, c)
    out_quad = step(s, p_quad, g, c)
    for name in ("u", "v", "eta", "T"):
        a = getattr(out_lin, name).values
        b = getattr(out_quad, name).values
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-15 * max(1.0, np.abs(a).max()))


def test_energy_dissipates_without_forcing():
    g, p, c, s = dissipative_test_setup(seed=0)
    energies = [total_energy(s, p, g)]
    for _ in range(100):
        s = step(s, p, g, c)
        energies.append(total_energy(s, p, g))
    energies = np.array(energies)
    assert np.all(np.diff(energies) <= 1e-12 * energies[0])
    assert energies[-1] < 0.9 * energies[0]


def test_mass_conserved_over_long_run():
    g = make_channel_grid(16, 12, 1.6e6, 1.2e6, 300.0, -1e-4, 2e-11)
    p = quiet_params(g, A_h=400.0, r_bot=1e-5, tau0=0.1, kappa_T=100.0)
    c = StepConfig(dt=200.0)
    rng = np.random.default_rng(8)
    s = random_state(g, rng, amp=0.05)
    total0 = np.sum(s.eta.values)
    scale = np.sum(np.abs(s.eta.values))
    for _ in range(1000):
        s = step(s, p, g, c)
    assert abs(np.sum(s.eta.values) - total0) <= 1e-10 * scale


def test_params_validation():
    g = make_channel_grid(8, 8, 1e6, 1e6, 100.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        quiet_params(g, A_h=-1.0)
    with pytest.raises(DomainError):
        quiet_params(g, r_bot=-1e-6)
    with pytest.raises(DomainError):
        PhysParams(drag_mode="cubic")
    with pytest.raises(DomainError):
        StepConfig(dt=100.0, boundary="slippery")
    with pytest.raises(CFLError):
        StepConfig(dt=-5.0)


def test_params_with_negative_gravity_are_refused_when_built():
    """A negative g would make the CFL bound nan at the first step; it is
    refused with a DomainError naming g when the parameters are built.
    g = 0 (no gravity waves) stays allowed."""
    g = make_channel_grid(8, 8, 1e6, 1e6, 100.0, 0.0, 0.0)
    with pytest.raises(DomainError, match="^g must be non-negative"):
        quiet_params(g, g=-9.81)
    with pytest.raises(DomainError, match="^g must be non-negative"):
        replace(quiet_params(g), g=-9.81)
    assert quiet_params(g, g=0.0).g == 0.0


def test_params_without_a_relaxation_target_are_refused_when_built():
    """No step accepts parameters without T_star, so building them fails,
    with a DomainError naming the field, and not the first step."""
    g = make_channel_grid(8, 8, 1e6, 1e6, 100.0, 0.0, 0.0)
    with pytest.raises(DomainError, match="T_star"):
        PhysParams()
    with pytest.raises(DomainError, match="T_star"):
        PhysParams(A_h=300.0, r_bot=1e-5, tau0=0.05)
    with pytest.raises(DomainError, match="T_star"):
        replace(quiet_params(g), T_star=None)


def test_solenoidal_noise_matches_requested_rms():
    g = make_channel_grid(32, 24, 2e6, 1.5e6, 300.0, -1e-4, 0.0)
    rng = np.random.default_rng(9)
    u, v = solenoidal_noise(g, rng, rms=0.07)
    assert np.sqrt(np.mean(u * u) + np.mean(v * v)) == pytest.approx(0.07, rel=1e-12)
    assert np.abs(v[:, -1]).max() == 0.0
