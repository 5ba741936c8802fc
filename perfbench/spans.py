"""In-memory span tracer that wraps the package's public functions at runtime.

Nothing in the package is edited: `Tracer.install` replaces module
attributes (and `Tape.sweep`) with wrappers that open a span around each
call, and `Tracer.uninstall` puts the originals back. A span records its
name, start, end and parent; self time is the span's duration minus the
time its children cover. `apply` runs some sixty times per model step, so
its calls are counted on the innermost open span rather than stored one
span each, which keeps the trace of a 500-step gradient small.
"""

from __future__ import annotations

import functools
import gc
import json
import os
import time
from contextlib import contextmanager

import numpy as np

import diffocean.autodiff as autodiff
from diffocean import calibrate, config, dyncore, scenarios, snapshot
from diffocean.autodiff import DualBox, Tape, TapeBox, engine, primitives

_clock = time.perf_counter


class Span:
    __slots__ = (
        "name", "index", "parent", "start", "end", "last", "applies", "info"
    )

    def __init__(self, name, index, parent):
        self.name = name
        self.index = index
        self.parent = parent  # index of the enclosing span, None for the root
        self.start = _clock()
        self.end = None
        self.last = None  # one past the index of the last span opened inside
        self.applies = 0
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def box_kind(values) -> str:
    """'tape', 'dual' or 'plain': the derivative mode a call runs in."""
    for v in values:
        if isinstance(v, TapeBox):
            return "tape"
        if isinstance(v, DualBox):
            return "dual"
    return "plain"


def step_kind(args, kwargs):
    """The derivative mode of one dyncore.step call."""
    s, p = args[0], args[1]
    return box_kind((p.A_h, p.r_bot, s.u.values, s.v.values, s.eta.values, s.T.values))


def _tape_stats(args, kwargs):
    tape = args[0]
    return {"nodes": len(tape.nodes), "bytes": tape.bytes_used, "steps": tape.steps}


def _file_size(span, args, kwargs, result):
    span.info = os.path.getsize(args[1])
    return result


def _iterations(span, args, kwargs, result):
    span.info = {"iterations": result[0].final.iteration}
    return result


def _cells(span, args, kwargs, result):
    span.info = {
        "cells": int(result.loss.size),
        "nonfinite": int(np.count_nonzero(~np.isfinite(result.loss))),
    }
    return result


class Tracer:
    """Spans of one process; `install` turns tracing on, `uninstall` off."""

    def __init__(self):
        self.spans: list[Span] = [Span("bench.root", 0, None)]
        self._stack = [self.spans[0]]
        self._saved = []
        self.gc_collections = 0
        self.gc_seconds = 0.0
        self._gc_start = None

    # -- spans -------------------------------------------------------------
    def _open(self, name) -> Span:
        span = Span(name, len(self.spans), self._stack[-1].index)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span):
        span.end = _clock()
        span.last = len(self.spans)
        self._stack.pop()

    @contextmanager
    def span(self, name):
        s = self._open(name)
        try:
            yield s
        finally:
            self._close(s)

    def inside(self, root: Span, name: str | None = None) -> list[Span]:
        """Spans opened within `root` (optionally only those called `name`)."""
        found = self.spans[root.index + 1 : root.last]
        return found if name is None else [s for s in found if s.name == name]

    def self_times(self, root: Span) -> dict[str, dict]:
        """name -> calls, total and self milliseconds over the spans in root."""
        spans = self.inside(root)
        covered = {}
        for s in spans:
            covered[s.parent] = covered.get(s.parent, 0.0) + s.duration
        out = {}
        for s in spans:
            row = out.setdefault(s.name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["calls"] += 1
            row["total_ms"] += 1e3 * s.duration
            row["self_ms"] += 1e3 * (s.duration - covered.get(s.index, 0.0))
        return out

    # -- wrapping ----------------------------------------------------------
    def _wrap(self, owner, attr, name, before=None, after=None):
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            if before is not None:
                span.info = before(args, kwargs)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(span)
            return result if after is None else after(span, args, kwargs, result)

        setattr(owner, attr, traced)
        self._saved.append((owner, attr, original))

    def _wrap_apply(self):
        original = engine.apply
        stack = self._stack

        def counted(name, *args, **static):
            stack[-1].applies += 1
            return original(name, *args, **static)

        # primitives imported the name, and Box arithmetic looks it up in
        # engine, so both module globals are replaced.
        for owner in (engine, primitives, autodiff):
            self._saved.append((owner, "apply", owner.apply))
            owner.apply = counted

    def _trial_loss(self, span, args, kwargs, loss):
        """Wrap the closure bsf_calibration_loss returns: a call with plain
        arguments is a trial evaluation, a boxed one runs under grad or jvp."""
        tracer = self

        @functools.wraps(loss)
        def traced_loss(pair):
            plain = box_kind(pair) == "plain"
            s = tracer._open("calibrate.trial" if plain else "calibrate.loss")
            try:
                return loss(pair)
            finally:
                tracer._close(s)

        return traced_loss

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        w = self._wrap
        self._wrap_apply()
        w(dyncore, "step", "dyncore.step", before=step_kind)
        # step_n is imported by name into scenarios and calibrate; inside
        # dyncore it calls the (wrapped) module-level step. The benchmark
        # spins up through scenarios.step_n, so that binding has its own name.
        w(dyncore, "step_n", "dyncore.step_n")
        w(calibrate, "step_n", "dyncore.step_n")
        w(scenarios, "step_n", "scenarios.step_n")
        for owner in (autodiff, calibrate):
            w(owner, "grad", "autodiff.grad")
            w(owner, "jvp", "autodiff.jvp")
        w(Tape, "sweep", "autodiff.Tape.sweep", before=_tape_stats)
        w(snapshot, "write_snapshot", "snapshot.write_snapshot", after=_file_size)
        w(snapshot, "read_snapshot", "snapshot.read_snapshot")
        w(config, "parse_config", "config.parse_config")
        w(scenarios, "build_initial_state", "scenarios.build_initial_state")
        w(calibrate, "reference_bsf_observations", "calibrate.reference_bsf_observations")
        w(calibrate, "bsf_calibration_loss", "calibrate.bsf_calibration_loss",
          after=self._trial_loss)
        w(calibrate, "calibrate_params", "calibrate.calibrate_params", after=_iterations)
        w(calibrate, "sensitivity_grid", "calibrate.sensitivity_grid", after=_cells)
        gc.callbacks.append(self._on_gc)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = _clock()
        elif self._gc_start is not None:
            self.gc_collections += 1
            self.gc_seconds += _clock() - self._gc_start
            self._gc_start = None

    def dump(self, path):
        """Write every closed span as one JSON list per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans[1:]:
                if s.end is not None:
                    handle.write(json.dumps(
                        [s.index, s.parent, s.name, s.start, s.end, s.applies, s.info]
                    ) + "\n")
