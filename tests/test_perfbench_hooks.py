"""The benchmark's hooks into the package still fit it.

perfbench/ reaches into the package by name: its span tracer replaces
`apply` in engine, primitives and autodiff and wraps `Tape.sweep`, and its
dispatch timing calls each stencil case through `engine.apply` with
keyword statics. These tests import those modules as they are, without
changing them, and fail when the package drops a name they use or the
tape figures stop describing one gradient's tape.
"""

import importlib
from dataclasses import replace
from pathlib import Path

import numpy as np

import diffocean.autodiff as autodiff
from diffocean import calibrate, dyncore
from diffocean.autodiff import engine, primitives
from diffocean.grid import make_channel_grid
from helpers import dissipative_test_setup

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_tracer_and_stencil_cases_fit_the_package(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    layers = importlib.import_module("layers")
    g = make_channel_grid(16, 12, 1.6e6, 1.2e6, 300.0, -1e-4, 0.0)
    cases = layers._stencil_cases(g)
    owners = (engine, primitives, autodiff)
    originals = [owner.apply for owner in owners]
    tracer = spans.Tracer()
    tracer.install()
    try:
        for name, args, static in cases:
            got = engine.apply(name, *args, **static)
            want = engine._PRIMITIVES[name].fn(*args, **static)
            assert np.shape(got) == np.shape(want), name
            assert got.tobytes() == want.tobytes(), name
        # a primitive called directly goes through the replaced apply
        primitives.add(cases[0][1][0], 1.0)
        # so does Box arithmetic, forward and reflected
        leaf = engine.Tape().leaf(cases[0][1][0])
        leaf * 2.0
        2.0 - leaf
        counted = tracer.spans[0].applies
    finally:
        tracer.uninstall()
    assert counted == len(cases) + 3
    assert all(owner.apply is original for owner, original in zip(owners, originals))


def test_benchmark_tracer_sees_one_sweep_per_gradient(monkeypatch):
    """A gradient through checkpoint groups sweeps each group as a segment
    of the gradient's tape, so the tracer opens one Tape.sweep span per
    gradient, whose tape statistics are those of the forward record."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    g, p, c, s = dissipative_test_setup(seed=4)

    def loss(T):
        state = replace(s, T=replace(s.T, values=T))
        return primitives.asum(dyncore.step_n(state, 7, p, g, c).T.values)

    sweeps = _sweeps_of_two_gradients(spans, loss, s.T.values)
    assert len(sweeps) == 2
    assert all(span.info["steps"] == 7 for span in sweeps)


def test_benchmark_tape_steps_cover_a_calibration_window(monkeypatch):
    """A calibration gradient over (A_h, r_bot) starts from a plain state,
    so every step of its window runs in a checkpoint group: the tracer
    opens one Tape.sweep span per gradient, whose steps are the whole
    observation window. The benchmark divides the tape's nodes and bytes
    by these steps (autodiff.tape.nodes_per_step)."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    g, p, c, s = dissipative_test_setup(seed=4)
    obs = calibrate.reference_bsf_observations(s, p, g, c, [3, 8])
    loss = calibrate.bsf_calibration_loss(obs, s, p, g, c)
    sweeps = _sweeps_of_two_gradients(spans, loss, (1.5 * p.A_h, 0.5 * p.r_bot))
    assert len(sweeps) == 2
    assert all(span.info["steps"] == 8 for span in sweeps)


def test_benchmark_tape_bytes_are_those_of_the_swept_tape(monkeypatch):
    """The bytes on the tracer's Tape.sweep span of a calibration gradient
    are the tape's bytes_used, which reads the same before and after the
    sweep records each group again on that tape. The benchmark divides
    them by the steps (autodiff.tape.bytes_per_step)."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    g, p, c, s = dissipative_test_setup(seed=4)
    obs = calibrate.reference_bsf_observations(s, p, g, c, [3, 8])
    loss = calibrate.bsf_calibration_loss(obs, s, p, g, c)
    read = []
    sweep = engine.Tape.sweep

    def reading(tape, seeds):
        before = tape.bytes_used
        adjoint = sweep(tape, seeds)
        read.append((before, tape.bytes_used))
        return adjoint

    # under the tracer's wrapper, which it restores on uninstall
    monkeypatch.setattr(engine.Tape, "sweep", reading)
    sweeps = _sweeps_of_two_gradients(spans, loss, (1.5 * p.A_h, 0.5 * p.r_bot))
    assert len(sweeps) == len(read) == 2
    assert all(before == after > 0 for before, after in read)
    assert [span.info["bytes"] for span in sweeps] == [before for before, _ in read]


def _sweeps_of_two_gradients(spans, loss, x):
    """The Tape.sweep spans the benchmark's tracer opens over two gradients."""
    tracer = spans.Tracer()
    tracer.install()
    try:
        for _ in range(2):
            autodiff.grad(loss, x)
    finally:
        tracer.uninstall()
    return [span for span in tracer.spans if span.name == "autodiff.Tape.sweep"]
