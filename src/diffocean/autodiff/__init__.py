"""Forward- and reverse-mode automatic differentiation entry points.

jvp pushes one tangent direction, or a stack of them on a leading axis,
alongside the primal computation; vjp records a tape and sweeps it
backwards; grad is vjp with a unit cotangent on a scalar loss. A
DiffSelector freezes every input leaf except a named subset, so gradients
flow only into the quantities of interest.

The primal value returned by any entry point is bitwise identical to the
plain, undifferentiated evaluation: differentiation wraps values but never
changes the arithmetic applied to them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ShapeError
from . import tree
from .engine import (
    Box,
    CustomGradientEntry,
    DualBox,
    Tape,
    TapeBox,
    _activate,
    apply,
    mark_step,
    register_custom_gradient,
    unbox,
)
from .primitives import (
    REG_EPS_DEFAULT,
    amean,
    asum,
    exp,
    log,
    power,
    sqrt,
    sqrt_reg,
    where_pos,
)

__all__ = [
    "DiffSelector",
    "CustomGradientEntry",
    "DualBox",
    "Tape",
    "TapeBox",
    "Box",
    "jvp",
    "vjp",
    "grad",
    "sqrt_reg",
    "register_custom_gradient",
    "random_direction",
    "mark_step",
    "unbox",
    "apply",
    "tree",
    "REG_EPS_DEFAULT",
    "exp",
    "log",
    "sqrt",
    "power",
    "asum",
    "amean",
    "where_pos",
]


@dataclass(frozen=True)
class DiffSelector:
    """Set of differentiable leaves; every other input leaf is frozen.

    Leaves are named after the dataclass attribute holding them ("u", "T",
    "A_h", ...). `names=None` selects everything, including anonymous
    leaves such as bare arrays or tuple entries.
    """

    names: frozenset | None = None

    @classmethod
    def only(cls, *names: str) -> "DiffSelector":
        return cls(frozenset(names))

    @classmethod
    def nothing(cls) -> "DiffSelector":
        return cls(frozenset())

    def selects(self, name: str | None) -> bool:
        if self.names is None:
            return True
        return name in self.names


def _selector(select) -> DiffSelector:
    return DiffSelector() if select is None else select


def _tangent_stacks(leaves, k, sel):
    """The tangents in k as (m,) + leaf shape stacks; None at frozen leaves.

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
        if not sel.selects(leaf.name):
            t = None
        elif not extra:
            t = t[np.newaxis]
        stacks.append(t)
    return stacks, lead or ()


def jvp(f, x, k, select=None):
    """Evaluate f at x and push tangents k through it in one pass.

    k is congruent to x (one direction), or every leaf of k carries one
    extra leading axis of a shared length m (m directions, e.g.
    tuple(np.eye(2)) for a pair of scalars). Returns (value,
    tangent_of_output), the tangent with the same leading axis as k.
    The values of frozen leaves' tangents are ignored; an output leaf that
    depends on no selected leaf gets zeros. For a scalar-valued f and one
    direction the second element is the directional derivative <grad f, k>.
    """
    sel = _selector(select)
    leaves, rebuild = tree.flatten(x)
    stacks, lead = _tangent_stacks(leaves, k, sel)
    y = f(rebuild([
        leaf.value if t is None else DualBox(_as_value(leaf.value), t)
        for leaf, t in zip(leaves, stacks)
    ]))
    out_leaves, out_rebuild = tree.flatten(y)
    primal = out_rebuild([unbox(l.value) for l in out_leaves])
    tangents = [
        l.value.tangent if isinstance(l.value, DualBox)
        else np.zeros((lead or (1,)) + np.shape(l.value))
        for l in out_leaves
    ]
    return primal, out_rebuild(tangents if lead else [t[0] for t in tangents])


def vjp(f, x, v=None, select=None, max_tape_bytes=None):
    """Evaluate f at x, then pull cotangent v back to the selected inputs.

    v must be congruent to the output of f (default 1.0 for a scalar loss).
    Returns (value, gradient_tree); frozen leaves receive zero gradients.
    """
    sel = _selector(select)
    leaves, rebuild = tree.flatten(x)
    tape = Tape(max_bytes=max_tape_bytes)
    boxed = []
    for leaf in leaves:
        if sel.selects(leaf.name):
            boxed.append(tape.leaf(_as_value(leaf.value)))
        else:
            boxed.append(leaf.value)
    with _activate(tape):
        y = f(rebuild(boxed))

    out_leaves, out_rebuild = tree.flatten(y)
    primal = out_rebuild([unbox(l.value) for l in out_leaves])
    if v is None:
        v = 1.0
    cts = tree.congruent_leaves(primal, v)
    seeds = {}
    for leaf, ct in zip(out_leaves, cts):
        if isinstance(leaf.value, TapeBox):
            ct = np.asarray(ct, dtype=float) if isinstance(ct, np.ndarray) else float(ct)
            if np.shape(ct) != np.shape(leaf.value.primal):
                raise ShapeError(
                    f"cotangent for output leaf {leaf.path} has shape "
                    f"{np.shape(ct)}, expected {np.shape(leaf.value.primal)}"
                )
            idx = leaf.value.index
            seeds[idx] = ct if idx not in seeds else seeds[idx] + ct

    grads_by_node = tape.sweep(seeds)
    grad_leaves = []
    for leaf, box in zip(leaves, boxed):
        if isinstance(box, TapeBox):
            g = grads_by_node.get(box.index)
            if g is None:
                g = _zero_like(box.primal)
            elif not isinstance(box.primal, np.ndarray):
                g = float(g)
            grad_leaves.append(g)
        else:
            grad_leaves.append(_zero_like(leaf.value))
    return primal, rebuild(grad_leaves)


def grad(f, x, select=None, max_tape_bytes=None):
    """Gradient of a scalar loss: vjp with unit cotangent.

    Returns (loss, gradient_tree). The gradient mirrors the structure of x
    with zeros at frozen leaves.
    """
    value, g = vjp(f, x, 1.0, select=select, max_tape_bytes=max_tape_bytes)
    if np.shape(value) != ():
        raise ShapeError(f"grad requires a scalar loss, got shape {np.shape(value)}")
    return float(value), g


def random_direction(x, select=None, seed=0):
    """Unit direction over the selected leaves of x (zeros elsewhere).

    Entries are standard normal from a seeded generator, then the whole
    direction is L2-normalized.
    """
    sel = _selector(select)
    rng = np.random.default_rng(seed)
    leaves, rebuild = tree.flatten(x)
    parts = []
    for leaf in leaves:
        value = unbox(leaf.value)
        if sel.selects(leaf.name):
            parts.append(
                rng.standard_normal(np.shape(value))
                if isinstance(value, np.ndarray)
                else rng.standard_normal()
            )
        else:
            parts.append(_zero_like(value))
    norm = float(np.sqrt(sum(np.sum(np.square(p)) for p in parts)))
    if norm == 0.0:
        raise ShapeError("direction is empty: selector matched no leaves")
    out = []
    for p in parts:
        out.append(p / norm if isinstance(p, np.ndarray) else float(p) / norm)
    return rebuild(out)


def _zero_like(v):
    v = unbox(v)
    return np.zeros_like(v) if isinstance(v, np.ndarray) else 0.0


def _as_value(v):
    if isinstance(v, np.ndarray):
        return np.asarray(v, dtype=float)
    return float(v)
