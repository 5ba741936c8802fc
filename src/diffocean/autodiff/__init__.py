"""Forward- and reverse-mode automatic differentiation entry points.

jvp pushes one tangent direction, or a stack of them on a leading axis,
alongside the primal computation; vjp records a tape and returns the value
with a pullback that sweeps the tape backwards; grad is vjp followed by a
pullback of a unit cotangent on a scalar loss. Every numeric leaf of the
input is differentiated: to hold a quantity fixed, close over it in f and
pass only what is differentiated.

The primal value returned by any entry point is bitwise identical to the
plain, undifferentiated evaluation: differentiation wraps values but never
changes the arithmetic applied to them.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError, UnregisteredPrimitiveError
from . import tree
from .engine import (
    Box,
    DualBox,
    Tape,
    TapeBox,
    apply,
    trace,
    unbox,
)
from .primitives import sqrt_reg

__all__ = [
    "DualBox",
    "Tape",
    "TapeBox",
    "jvp",
    "vjp",
    "grad",
    "sqrt_reg",
    "random_direction",
    "trace",
    "unbox",
    "apply",
    "tree",
]


def _tangent_stacks(leaves, k):
    """The tangents in k as (m,) + leaf shape stacks.

    Returns (stacks, lead): lead is (m,) when every tangent carries one
    extra leading axis of the same length m, and () when every one has its
    leaf's shape (a single direction, stacked as m = 1).
    """
    got, _ = tree.flatten(k)
    if len(got) != len(leaves):
        raise ShapeError(f"tree mismatch: expected {len(leaves)} leaves, got {len(got)}")
    stacks, lead = [], None
    for leaf, t in zip(leaves, got):
        t = np.asarray(t.value, dtype=float)
        shape = np.shape(unbox(leaf.value))
        extra = t.shape[: t.ndim - len(shape)]
        if len(extra) > 1 or t.shape[len(extra):] != shape:
            raise ShapeError(
                f"tangent for leaf {leaf.path} has shape {t.shape}, "
                f"expected {shape} or (m,) + {shape}"
            )
        if lead is None:
            lead = extra
        elif extra != lead:
            raise ShapeError(
                f"tangent for leaf {leaf.path} has leading axes {extra}, an "
                f"earlier leaf {lead}: every leaf takes one direction or the "
                f"same number m of stacked directions"
            )
        stacks.append(t if extra else t[np.newaxis])
    return stacks, lead or ()


def jvp(f, x, k):
    """Evaluate f at x and push tangents k through it in one pass.

    Every leaf of x carries a tangent; what f closes over carries none. k
    is congruent to x (one direction), or every leaf of k carries one
    extra leading axis of a shared length m (m directions, e.g.
    tuple(np.eye(2)) for a pair of scalars). Returns (value,
    tangent_of_output), the tangent with the same leading axis as k; an
    output leaf that depends on no leaf of x gets zeros. For a
    scalar-valued f and one direction the second element is the
    directional derivative <grad f, k>.
    """
    leaves, rebuild = tree.flatten(x)
    stacks, lead = _tangent_stacks(leaves, k)
    y = f(rebuild([DualBox(_as_value(leaf.value), t) for leaf, t in zip(leaves, stacks)]))
    out_leaves, out_rebuild = tree.flatten(y)
    primal = out_rebuild([unbox(l.value) for l in out_leaves])
    tangents = [
        l.value.tangent if isinstance(l.value, DualBox)
        else np.zeros((lead or (1,)) + np.shape(l.value))
        for l in out_leaves
    ]
    return primal, out_rebuild(tangents if lead else [t[0] for t in tangents])


def vjp(f, x):
    """Evaluate f at x on a tape of its own; returns (value, pullback).

    Every leaf of x is taped; what f closes over puts no node on the tape.
    pullback(v) pulls a cotangent v congruent to the value back to the
    inputs and returns a tree shaped like x, with zeros at leaves the value
    does not depend on. Each call sweeps the record afresh, so a pullback
    may be called any number of times; the record lives as long as the
    pullback does. f may differentiate plain values of its own, but a
    traced leaf of x is refused: nesting vjp under grad, vjp or jvp is not
    supported.
    """
    leaves, rebuild = tree.flatten(x)
    for leaf in leaves:
        if isinstance(leaf.value, Box):
            outer = "reverse" if isinstance(leaf.value, TapeBox) else "forward"
            raise UnregisteredPrimitiveError(
                f"{outer} over reverse is not supported: input leaf {leaf.path} "
                f"of vjp is traced by an enclosing "
                f"{'grad or vjp' if outer == 'reverse' else 'jvp'}"
            )
    tape = Tape()
    boxed = [tape.leaf(_as_value(leaf.value)) for leaf in leaves]
    out_leaves, out_rebuild = tree.flatten(f(rebuild(boxed)))
    outs = [l.value for l in out_leaves]
    primal = out_rebuild([unbox(o) for o in outs])

    def pullback(v):
        seeds = {}
        for out, ct in zip(outs, tree.congruent_leaves(primal, v)):
            if isinstance(out, TapeBox):
                ct = np.asarray(ct, dtype=float) if isinstance(ct, np.ndarray) else float(ct)
                idx = out.index
                seeds[idx] = ct if idx not in seeds else seeds[idx] + ct
        adjoint = tape.sweep(seeds)
        grad_leaves = []
        for box in boxed:
            g = adjoint.get(box.index)
            if g is None:
                g = _zero_like(box.primal)
            elif isinstance(box.primal, np.ndarray):
                g = np.asarray(g, dtype=float)  # a 0-d leaf's cotangent may be a float
            else:
                g = float(g)
            grad_leaves.append(g)
        return rebuild(grad_leaves)

    return primal, pullback


def grad(f, x):
    """Gradient of a scalar loss: vjp, then the pullback of 1.0.

    Returns (loss, gradient_tree). The gradient mirrors the structure of x,
    with zeros at leaves the loss does not depend on; to differentiate
    only some quantities, close over the others in f.
    """
    value, pullback = vjp(f, x)
    if np.shape(value) != ():
        raise ShapeError(f"grad requires a scalar loss, got shape {np.shape(value)}")
    return float(value), pullback(1.0)


def random_direction(x, seed=0):
    """Unit direction over the leaves of x.

    Entries are standard normal from a seeded generator, drawn leaf by leaf
    in flatten order, then the whole direction is L2-normalized.
    """
    rng = np.random.default_rng(seed)
    leaves, rebuild = tree.flatten(x)
    parts = []
    for leaf in leaves:
        value = unbox(leaf.value)
        parts.append(
            rng.standard_normal(np.shape(value))
            if isinstance(value, np.ndarray)
            else rng.standard_normal()
        )
    norm = float(np.sqrt(sum(np.sum(np.square(p)) for p in parts)))
    if norm == 0.0:
        raise ShapeError("direction is empty: x has no numeric entries")
    out = []
    for p in parts:
        out.append(p / norm if isinstance(p, np.ndarray) else float(p) / norm)
    return rebuild(out)


def _zero_like(v):
    return np.zeros_like(v) if isinstance(v, np.ndarray) else 0.0


def _as_value(v):
    if isinstance(v, np.ndarray):
        return np.asarray(v, dtype=float)
    return float(v)
