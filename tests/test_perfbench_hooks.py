"""The benchmark's hooks into the package still fit it.

perfbench/ reaches into the package by name: its span tracer replaces
`apply` in engine, primitives and autodiff, and its dispatch timing calls
each stencil case through `engine.apply` with keyword statics. This test
imports those modules as they are, without changing them, and fails when
the package drops a name they use.
"""

import importlib
from pathlib import Path

import numpy as np

import diffocean.autodiff as autodiff
from diffocean.autodiff import engine, primitives
from diffocean.grid import make_channel_grid

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
        counted = tracer.spans[0].applies
    finally:
        tracer.uninstall()
    assert counted == len(cases) + 1
    assert all(owner.apply is original for owner, original in zip(owners, originals))
