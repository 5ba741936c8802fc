"""Forward- and reverse-mode differentiation over registered array primitives.

Every differentiable operation in the package is a named primitive with
three pieces: a raw computation `fn`, a tangent rule `jvp`, and a cotangent
rule `vjp`. `apply` always evaluates `fn` on the unwrapped values, so the
primal numbers are bitwise identical whether or not derivatives are being
propagated. Forward mode wraps values in DualBox (value, tangent), where
the tangent stacks m directions on a leading axis, (m,) + value shape;
reverse mode wraps them in TapeBox and records each application on a Tape
that is later swept backwards.

Tapes are single-owner objects: one tape is built and swept by one logical
thread. The primitive registry and the custom-gradient overrides are
written during startup and read-only afterwards.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import (
    DuplicateGradientError,
    TapeMemoryError,
    UnregisteredPrimitiveError,
)


class Primitive:
    """A named operation with default differentiation rules.

    `saves` declares which primal values the backward rule reads: a tuple
    of argument indices plus whether the output is needed. Tapes drop
    everything else, which keeps reverse-mode memory proportional to what
    the sweep actually touches.
    """

    __slots__ = ("name", "fn", "jvp", "vjp", "saves")

    def __init__(self, name, fn, jvp, vjp, saves=None):
        self.name = name
        self.fn = fn
        self.jvp = jvp
        self.vjp = vjp
        self.saves = saves  # (arg_indices, out_needed); None = keep everything


_PRIMITIVES: dict[str, Primitive] = {}


def define_primitive(name: str, fn, jvp, vjp, saves=None) -> Primitive:
    if name in _PRIMITIVES:
        raise ValueError(f"primitive {name!r} already defined")
    prim = Primitive(name, fn, jvp, vjp, saves)
    _PRIMITIVES[name] = prim
    return prim


@dataclass(frozen=True)
class CustomGradientEntry:
    """Replacement differentiation rules for one primitive.

    Registering an entry never changes primal outputs: only the jvp/vjp
    rules consulted by later tapes and tangent pushes are swapped. `saves`
    mirrors Primitive.saves; None keeps every primal for safety.
    """

    primitive: str
    vjp: Callable
    jvp: Callable
    saves: tuple | None = None


_OVERRIDES: dict[str, CustomGradientEntry] = {}


def register_custom_gradient(entry: CustomGradientEntry) -> str:
    """Install custom rules for a primitive; returns the primitive id."""
    if entry.primitive not in _PRIMITIVES:
        raise UnregisteredPrimitiveError(
            f"unregistered primitive: {entry.primitive!r}"
        )
    if entry.primitive in _OVERRIDES:
        raise DuplicateGradientError(
            f"custom gradient for {entry.primitive!r} already registered"
        )
    _OVERRIDES[entry.primitive] = entry
    return entry.primitive


def _rules(prim: Primitive):
    override = _OVERRIDES.get(prim.name)
    return override if override is not None else prim


class Box:
    """Base for values carrying derivative information through primitives."""

    __slots__ = ()

    @property
    def shape(self):
        return np.shape(self.primal)

    @staticmethod
    def _operand(other) -> bool:
        # Defer to the partner type (e.g. Field.__rmul__) for anything that
        # is not a plain number, array, or another box.
        return isinstance(other, (int, float, np.ndarray, np.generic, Box))

    # -- arithmetic routed through the registry ------------------------------
    def __add__(self, other):
        if not Box._operand(other):
            return NotImplemented
        return apply("add", self, other)

    def __radd__(self, other):
        if not Box._operand(other):
            return NotImplemented
        return apply("add", other, self)

    def __sub__(self, other):
        if not Box._operand(other):
            return NotImplemented
        return apply("sub", self, other)

    def __rsub__(self, other):
        if not Box._operand(other):
            return NotImplemented
        return apply("sub", other, self)

    def __mul__(self, other):
        if not Box._operand(other):
            return NotImplemented
        return apply("mul", self, other)

    def __rmul__(self, other):
        if not Box._operand(other):
            return NotImplemented
        return apply("mul", other, self)

    def __truediv__(self, other):
        if not Box._operand(other):
            return NotImplemented
        return apply("div", self, other)

    def __rtruediv__(self, other):
        if not Box._operand(other):
            return NotImplemented
        return apply("div", other, self)

    def __neg__(self):
        return apply("neg", self)

    def __pow__(self, p):
        if isinstance(p, Box):
            raise UnregisteredPrimitiveError("exponent may not be differentiated")
        return apply("power", self, p=float(p))

    def sum(self, axis=None, **kwargs):
        if axis is not None:
            raise UnregisteredPrimitiveError("only full reductions are registered")
        return apply("sum", self)

    def mean(self, axis=None, **kwargs):
        if axis is not None:
            raise UnregisteredPrimitiveError("only full reductions are registered")
        return apply("mean", self)

    _UFUNCS = {}  # populated after numpy import below

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if method != "__call__" or kwargs.get("out") is not None:
            raise UnregisteredPrimitiveError(
                f"unregistered primitive: {ufunc.__name__}.{method}"
            )
        name = Box._UFUNCS.get(ufunc)
        if name is None:
            raise UnregisteredPrimitiveError(
                f"unregistered primitive: {ufunc.__name__}"
            )
        if name == "power":
            return Box.__pow__(*inputs)
        return apply(name, *inputs)

    def __bool__(self):
        raise UnregisteredPrimitiveError(
            "truth value of a traced quantity is undefined; "
            "control flow must not branch on differentiated values"
        )

    def __float__(self):
        raise UnregisteredPrimitiveError(
            "cannot convert a traced quantity to float; use its primal"
        )


Box._UFUNCS = {
    np.add: "add",
    np.subtract: "sub",
    np.multiply: "mul",
    np.true_divide: "div",
    np.negative: "neg",
    np.exp: "exp",
    np.log: "log",
    np.sqrt: "sqrt",
    np.power: "power",
}


class DualBox(Box):
    """Forward-mode pair (primal, tangent); tangent is (m,) + primal shape."""

    __slots__ = ("primal", "tangent")

    def __init__(self, primal, tangent):
        self.primal = primal
        self.tangent = tangent

    def __repr__(self):
        return f"DualBox({self.primal!r}, tangent={self.tangent!r})"


class TapeBox(Box):
    """Reverse-mode handle: a node index on a Tape plus its primal value."""

    __slots__ = ("tape", "index", "primal")

    def __init__(self, tape, index, primal):
        self.tape = tape
        self.index = index
        self.primal = primal

    def __repr__(self):
        return f"TapeBox(node={self.index}, {self.primal!r})"


def unbox(x):
    return x.primal if isinstance(x, Box) else x


class _Node:
    __slots__ = ("name", "parents", "args", "out", "static")

    def __init__(self, name, parents, args, out, static):
        self.name = name  # None marks a leaf
        self.parents = parents
        self.args = args
        self.out = out
        self.static = static


def _nbytes(v):
    return v.nbytes if isinstance(v, np.ndarray) else 16


_ZERO = np.float64(0.0)


class Tape:
    """Ordered record of primitive applications for one reverse-mode sweep.

    Every intermediate primal needed by a backward rule is saved on the
    tape (no recomputation checkpointing); desk-scale rollouts fit in
    memory. In the default "minimal" mode only the primals each rule
    declared are kept alive; "full" mode retains every input and output so
    the whole record can be replayed and compared bitwise. An optional
    byte budget turns exhaustion into TapeMemoryError naming how many
    model steps had been recorded.
    """

    def __init__(self, max_bytes=None, save: str = "minimal"):
        if save not in ("minimal", "full"):
            raise ValueError(f"unknown tape save mode {save!r}")
        self.nodes: list[_Node] = []
        self.steps = 0
        self.bytes_used = 0
        self.max_bytes = max_bytes
        self.save = save

    def leaf(self, value) -> TapeBox:
        self.nodes.append(_Node(None, (), (), value, {}))
        return TapeBox(self, len(self.nodes) - 1, value)

    def _record(self, prim, parents, args, out, static) -> int:
        saves = _rules(prim).saves
        if self.save == "full" or saves is None:
            kept_args, kept_out = args, out
            self.bytes_used += _nbytes(out)
        else:
            arg_indices, out_needed = saves
            # Constants (non-parent args) are kept for replay; they are
            # either tiny or shared across steps. Parent values are kept
            # only when the backward rule reads them; rules that merely
            # need a shape get a zero-strided stand-in so the real array
            # can be freed.
            kept_args = []
            for i, a in enumerate(args):
                if parents[i] is None or i in arg_indices:
                    kept_args.append(a)
                    if parents[i] is not None:
                        self.bytes_used += _nbytes(a)
                elif isinstance(a, np.ndarray):
                    kept_args.append(np.broadcast_to(_ZERO, a.shape))
                else:
                    kept_args.append(a)
            kept_args = tuple(kept_args)
            kept_out = out if out_needed else None
            if kept_out is not None:
                self.bytes_used += _nbytes(kept_out)
        node = _Node(prim.name, parents, kept_args, kept_out, static)
        self.nodes.append(node)
        if self.max_bytes is not None and self.bytes_used > self.max_bytes:
            raise TapeMemoryError(
                f"tape memory budget exceeded ({self.bytes_used} > "
                f"{self.max_bytes} bytes) after {self.steps} recorded model "
                f"steps ({len(self.nodes)} primitives)"
            )
        return len(self.nodes) - 1

    def sweep(self, seeds: dict[int, object]) -> dict[int, object]:
        """Backward pass: cotangents per seed node -> cotangents per leaf.

        Visits every node exactly once, in reverse recording order.
        """
        adjoint: dict[int, object] = {}
        for idx, ct in seeds.items():
            _accumulate(adjoint, idx, ct)
        grads: dict[int, object] = {}
        for idx in range(len(self.nodes) - 1, -1, -1):
            ct = adjoint.pop(idx, None)
            if ct is None:
                continue
            node = self.nodes[idx]
            if node.name is None:
                grads[idx] = ct
                continue
            rules = _rules(_PRIMITIVES[node.name])
            input_cts = rules.vjp(ct, node.args, node.out, **node.static)
            for parent, c in zip(node.parents, input_cts):
                if parent is not None and c is not None:
                    _accumulate(adjoint, parent, c)
        return grads

    def replay(self) -> bool:
        """Re-run the record from the leaves; True iff every saved output
        matches bitwise. In full mode this checks every node."""
        recomputed: dict[int, object] = {}
        for idx, node in enumerate(self.nodes):
            if node.name is None:
                recomputed[idx] = node.out
                continue
            args = tuple(
                recomputed[p] if p is not None else a
                for p, a in zip(node.parents, node.args)
            )
            out = _PRIMITIVES[node.name].fn(*args, **node.static)
            if node.out is not None and not _bitwise_equal(out, node.out):
                return False
            recomputed[idx] = out
        return True


def _bitwise_equal(a, b):
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.tobytes() == b.tobytes()
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def _accumulate(adjoint, idx, ct):
    held = adjoint.get(idx)
    adjoint[idx] = ct if held is None else np.add(held, ct)


_LOCAL = threading.local()


class _activate:
    """Make a tape visible to mark_step() for the duration of a forward pass."""

    def __init__(self, tape):
        self.tape = tape

    def __enter__(self):
        if getattr(_LOCAL, "tape", None) is not None:
            raise UnregisteredPrimitiveError(
                "nested reverse-mode traces are not supported"
            )
        _LOCAL.tape = self.tape
        return self.tape

    def __exit__(self, *exc):
        _LOCAL.tape = None
        return False


def mark_step():
    """Count one model step on the active tape (used by memory diagnostics)."""
    tape = getattr(_LOCAL, "tape", None)
    if tape is not None:
        tape.steps += 1


def apply(name: str, *args, **static):
    """Evaluate a primitive, propagating tangents or recording on a tape.

    The primal result is always `fn(*unboxed args)`: differentiation can
    never perturb the forward computation.
    """
    prim = _PRIMITIVES.get(name)
    if prim is None:
        raise UnregisteredPrimitiveError(f"unregistered primitive: {name!r}")
    # One pass over the arguments: unboxed values, plus per argument the
    # tangent (forward mode) or tape node index (reverse mode) of a box and
    # None for a constant.
    box = None
    values = []
    links = []
    for a in args:
        if isinstance(a, Box):
            if box is None:
                box = a
            elif type(a) is not type(box):
                raise UnregisteredPrimitiveError(
                    "cannot mix forward-mode and reverse-mode values in one primitive"
                )
            values.append(a.primal)
            if type(a) is DualBox:
                links.append(a.tangent)
            elif a.tape is not box.tape:
                raise UnregisteredPrimitiveError(
                    "cannot combine values recorded on different tapes"
                )
            else:
                links.append(a.index)
        else:
            values.append(a)
            links.append(None)
    if box is None:
        return prim.fn(*args, **static)
    values = tuple(values)
    out = prim.fn(*values, **static)
    if type(box) is DualBox:
        # Right-align each tangent stack with the output rank, so the (m,)
        # tangent of a scalar broadcasts as (m, 1, 1) against (nx, ny).
        rank = np.ndim(out) + 1
        for i, t in enumerate(links):
            if t is not None and t.ndim < rank:
                links[i] = t.reshape(t.shape[:1] + (1,) * (rank - t.ndim) + t.shape[1:])
        return DualBox(out, _rules(prim).jvp(tuple(links), values, out, **static))
    tape = box.tape
    return TapeBox(tape, tape._record(prim, tuple(links), values, out, static), out)
