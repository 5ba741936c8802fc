"""Per-layer figures for the traced run.

Three sources feed them:

* microbenchmarks, run with tracing off: `engine.apply` against a direct
  call of each stencil's raw `fn` (the dispatch cost), the public grid
  operators, and one model step in plain, JVP and VJP form;
* the spans of the workload's own traced operation;
* a short-window sweep, traced after the operation, that calls the layers
  the workload itself never reaches (snapshots, grad, jvp, calibration
  and the sensitivity grid) so every metric has a measured value. The
  result says which source each group of metrics came from.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import diffocean.autodiff as autodiff
from diffocean import calibrate, grid, snapshot
from diffocean.autodiff import engine
from diffocean.grid import Staggering

import workloads

_clock = time.perf_counter

# Model steps per call in the step-form timings and in the sweep window.
FORM_STEPS = 10
SWEEP_OBS = (10, 20)
REPEATS = 7
# Calls per timing and interleaved pairs in the dispatch measurement.
DISPATCH_CALLS = 100
DISPATCH_PAIRS = 15
# Calls per timing of a grid operator.
GRID_CALLS = 400
# Snapshots written and read back in the sweep.
SWEEP_SNAPSHOTS = 5


def _per_call(fn, calls: int) -> float:
    """Median over REPEATS of the mean seconds per call."""
    times = []
    for _ in range(REPEATS):
        t0 = _clock()
        for _ in range(calls):
            fn()
        times.append((_clock() - t0) / calls)
    return statistics.median(times)


def _stencil_cases(g):
    """The primitives step applies, with 64x48 plain arguments."""
    rng = np.random.default_rng(0)
    a, b, w = (rng.standard_normal(g.shape) for _ in range(3))
    return [
        ("laplacian", (a,), {"dx": g.dx, "dy": g.dy, "ybc": "neumann"}),
        ("interp_x_fwd", (a,), {}),
        ("interp_x_bwd", (a,), {}),
        ("interp_y_fwd", (a,), {}),
        ("interp_y_bwd", (a,), {}),
        ("ddx_fwd", (a,), {"dx": g.dx}),
        ("ddx_bwd", (a,), {"dx": g.dx}),
        ("ddy_fwd", (a,), {"dy": g.dy}),
        ("ddy_bwd", (a,), {"dy": g.dy}),
        ("roll_x", (a,), {"n": -1}),
        ("shift_yp", (a,), {"fill": "edge"}),
        ("where_pos", (w, a, b), {}),
        ("mul", (a, b), {}),
        ("add", (a, b), {}),
    ]


def _paired_overhead(base, variant) -> float:
    """Median over DISPATCH_PAIRS interleaved pairs of (variant - base)
    seconds per call; pairing cancels slow drifts in machine speed."""
    diffs = []
    for _ in range(DISPATCH_PAIRS):
        t0 = _clock()
        for _ in range(DISPATCH_CALLS):
            base()
        t1 = _clock()
        for _ in range(DISPATCH_CALLS):
            variant()
        t2 = _clock()
        diffs.append(((t2 - t1) - (t1 - t0)) / DISPATCH_CALLS)
    return statistics.median(diffs)


def dispatch(g) -> dict:
    """Nanoseconds `apply` adds over a direct call of the raw primitive."""
    out = {}
    for name, args, static in _stencil_cases(g):
        fn = engine._PRIMITIVES[name].fn
        out[name] = 1e9 * _paired_overhead(
            lambda: fn(*args, **static),
            lambda: engine.apply(name, *args, **static),
        )
    return out


def grid_operators(ctx) -> dict:
    g, s = ctx.grid, ctx.start
    boundary = ctx.stepcfg.boundary
    return {
        "grid.laplacian_us": 1e6 * _per_call(lambda: grid.laplacian(s.u, g, boundary), GRID_CALLS),
        "grid.interp_us": 1e6 * _per_call(lambda: grid.interp(s.u, Staggering.CENTER), GRID_CALLS),
        "grid.divergence_us": 1e6 * _per_call(lambda: grid.divergence(s.u, s.v, g), GRID_CALLS),
    }


def step_forms(ctx) -> dict:
    """Microseconds per model step of one loss over FORM_STEPS steps,
    evaluated plainly, under jvp and under grad (recording plus sweep)."""
    p, g, c = ctx.params, ctx.grid, ctx.stepcfg
    obs = calibrate.reference_bsf_observations(ctx.start, p, g, c, [FORM_STEPS])
    loss = calibrate.bsf_calibration_loss(obs, ctx.start, p, g, c)
    x = ctx.truth
    per_step = 1e6 / FORM_STEPS
    return {
        "dyncore.step.plain_us": per_step * _per_call(lambda: loss(x), 1),
        "dyncore.step.dual_us": per_step * _per_call(
            lambda: autodiff.jvp(loss, x, (1.0, 0.0)), 1),
        "dyncore.step.tape_us": per_step * _per_call(lambda: autodiff.grad(loss, x), 1),
    }


def micro(ctx) -> tuple[dict, dict]:
    """All microbenchmark figures, and the dispatch cost per stencil; call
    with tracing off."""
    per_stencil = dispatch(ctx.grid)
    out = {"autodiff.apply.dispatch_ns": statistics.median(per_stencil.values())}
    out.update(grid_operators(ctx))
    out.update(step_forms(ctx))
    return out, per_stencil


def sweep(ctx, path: str):
    """Short calls into every layer, for metrics the workload never reaches."""
    for _ in range(SWEEP_SNAPSHOTS):
        snapshot.write_snapshot(ctx.start, path)
        snapshot.read_snapshot(path, grid=ctx.grid)
    p, g, c = ctx.params, ctx.grid, ctx.stepcfg
    obs = calibrate.reference_bsf_observations(ctx.start, p, g, c, SWEEP_OBS)
    workloads.run_calibrate(ctx, obs=obs, iters=2)
    workloads.run_sensitivity(ctx, obs=obs)


# -- metrics from spans -------------------------------------------------------

def _median_ms(spans) -> float:
    return 1e3 * statistics.median(s.duration for s in spans) if spans else 0.0


# Each group of span metrics comes from the operation when the operation
# calls the group's entry point, else from the sweep.
_GROUPS = {
    "grad": "autodiff.grad",
    "jvp": "autodiff.jvp",
    "calibrate": "calibrate.calibrate_params",
    "cells": "calibrate.sensitivity_grid",
    "snapshot": "snapshot.write_snapshot",
}


def span_metrics(tracer, setup_span, op_span, sweep_span) -> tuple[dict, dict]:
    src = {
        group: op_span if tracer.inside(op_span, entry) else sweep_span
        for group, entry in _GROUPS.items()
    }
    m = {}

    steps = tracer.inside(op_span, "dyncore.step")
    m["autodiff.apply.calls_per_step"] = sum(s.applies for s in steps) / max(len(steps), 1)

    grads = tracer.inside(src["grad"], "autodiff.grad")
    sweeps = tracer.inside(src["grad"], "autodiff.Tape.sweep")
    m["autodiff.grad.calls"] = len(grads)
    m["autodiff.grad.ms"] = _median_ms(grads)
    m["autodiff.tape.sweep_ms"] = _median_ms(sweeps)
    m["autodiff.tape.record_ms"] = 1e3 * statistics.median(
        g.duration - sum(s.duration for s in tracer.inside(g, "autodiff.Tape.sweep"))
        for g in grads
    )
    tape_steps = sum(s.info["steps"] for s in sweeps)
    m["autodiff.tape.nodes_per_step"] = sum(s.info["nodes"] for s in sweeps) / tape_steps
    m["autodiff.tape.bytes_per_step"] = sum(s.info["bytes"] for s in sweeps) / tape_steps

    jvps = tracer.inside(src["jvp"], "autodiff.jvp")
    m["autodiff.jvp.calls"] = len(jvps)
    m["autodiff.jvp.ms"] = _median_ms(jvps)

    calls = tracer.inside(src["calibrate"], "calibrate.calibrate_params")
    trials = [t for c in calls for t in tracer.inside(c, "calibrate.trial")]
    iterations = sum(c.info["iterations"] for c in calls)
    m["calibrate.iterations"] = iterations
    m["calibrate.trial_evals"] = len(trials)
    m["calibrate.accept_ratio"] = iterations / max(len(trials), 1)
    m["calibrate.trial_ms"] = _median_ms(trials)

    grids = tracer.inside(src["cells"], "calibrate.sensitivity_grid")
    m["calibrate.cells"] = sum(s.info["cells"] for s in grids)
    m["calibrate.cells_nonfinite"] = sum(s.info["nonfinite"] for s in grids)

    writes = tracer.inside(src["snapshot"], "snapshot.write_snapshot")
    m["snapshot.write_ms"] = _median_ms(writes)
    m["snapshot.read_ms"] = _median_ms(tracer.inside(src["snapshot"], "snapshot.read_snapshot"))
    m["snapshot.bytes"] = statistics.median(s.info for s in writes)

    m["config.parse_ms"] = _median_ms(tracer.inside(setup_span, "config.parse_config"))
    m["scenarios.spinup_ms"] = _median_ms(tracer.inside(setup_span, "scenarios.step_n"))
    m["calibrate.observations_ms"] = _median_ms(
        tracer.inside(setup_span, "calibrate.reference_bsf_observations")
    )
    sources = {group: ("op" if s is op_span else "sweep") for group, s in src.items()}
    return m, sources


def step_kinds(tracer, op_span) -> dict:
    """Steps of the traced operation by derivative mode."""
    kinds = {}
    for s in tracer.inside(op_span, "dyncore.step"):
        kinds[s.info] = kinds.get(s.info, 0) + 1
    return kinds

