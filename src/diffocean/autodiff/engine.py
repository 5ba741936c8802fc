"""Forward- and reverse-mode differentiation over registered array primitives.

Every differentiable operation in the package is a named primitive with a
raw computation `fn`, a tangent rule `jvp`, and one cotangent rule per
argument, each declaring which primal values it reads. define_primitive
returns the Primitive, which callers call directly, array arguments
positional and statics as keywords: the call is apply(name, ...). `apply`
always evaluates `fn` on the unwrapped values, so the primal numbers are
bitwise identical whether or not derivatives are being propagated. Forward
mode wraps values in DualBox (value, tangent), where the tangent stacks m
directions on a leading axis, (m,) + value shape; reverse mode wraps them
in TapeBox and records each application on a Tape, which keeps only what
the rules of the taped arguments read, and is later swept backwards. A
checkpoint group stands on a tape for a whole pure computation that ran
plain: it keeps only its inputs, tapes only the outputs a taped input
reaches, and the sweep re-records it on a fresh tape when it reaches it,
trading one extra forward for memory. A tape also is a trace: a Program
keeps the structure of a record and its constants, drops its primals, and
replays it on new inputs (trace).

A tape is reached only through its boxes: there is no ambient "current
tape", so independent traces may nest, and code that needs the tape of a
traced computation (mark_step) finds it on the values it is given. Tapes
are single-owner objects: one tape is built and swept by one logical
thread. The primitive registry is written during startup and read-only
afterwards.
"""

from __future__ import annotations

from functools import partial
from operator import itemgetter

import numpy as np

from ..errors import TapeMemoryError, UnregisteredPrimitiveError


class Primitive:
    """A named operation with its differentiation rules.

    `jvp` pushes the stacked tangents of all arguments at once. `vjps`
    holds one cotangent rule per argument, `rule(ct, args, out, **static)`,
    or None for an argument that gets no derivative. `reads[i]` names the
    primal values rule i reads: argument indices, and "out" for the output.
    A rule may use the shape of any argument; a tape keeps only the values
    that the rules of its taped arguments read. Calling a primitive is
    `apply(name, *args, **static)`, with one positional argument per rule.
    """

    __slots__ = ("name", "fn", "jvp", "vjps", "reads")

    def __init__(self, name, fn, jvp, vjps, reads):
        self.name = name
        self.fn = fn
        self.jvp = jvp
        self.vjps = vjps
        self.reads = reads

    def __call__(self, *args, **static):
        # a positional static runs on plain values but fails once boxed
        if len(args) != len(self.vjps):
            raise TypeError(
                f"primitive {self.name!r} takes {len(self.vjps)} positional "
                f"arguments but {len(args)} were given; static arguments are keywords"
            )
        return apply(self.name, *args, **static)


_PRIMITIVES: dict[str, Primitive] = {}


def define_primitive(name: str, fn, jvp, vjps, reads) -> Primitive:
    if name in _PRIMITIVES:
        raise ValueError(f"primitive {name!r} already defined")
    if len(vjps) != len(reads):
        raise ValueError(
            f"primitive {name!r}: {len(vjps)} cotangent rules but {len(reads)} read-sets"
        )
    for read in reads:
        for r in read:
            if r != "out" and r not in range(len(vjps)):
                raise ValueError(
                    f"primitive {name!r}: read-set names argument {r!r} of {len(vjps)}"
                )
    prim = Primitive(name, fn, jvp, tuple(vjps), tuple(frozenset(r) for r in reads))
    _PRIMITIVES[name] = prim
    return prim


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


# Names of the nodes a checkpoint group records; no primitive carries them.
_GROUP = "<checkpoint group>"
_OUTPUT = "<checkpoint output>"  # args holds the output's position


class _Group(_Node):
    """A checkpoint group: args are its input values, links[i] the node
    args[i] stands for (None for a constant), parents the distinct links,
    run(inputs) re-runs it, returning its outputs as a list, and taped[i]
    says whether output i has a node."""

    __slots__ = ("run", "links", "taped")


def _nbytes(v):
    return v.nbytes if isinstance(v, np.ndarray) else 16


class Tape:
    """Ordered record of primitive applications for one reverse-mode sweep.

    Every intermediate primal needed by a backward rule is saved on the
    tape, except inside a checkpoint group (see group), which keeps only
    its inputs and is recorded again, one group at a time, by the sweep.
    A node keeps the primals read by the cotangent rules of its
    taped arguments, plus its constant arguments (tiny or shared across
    steps); a taped array that no such rule reads is dropped for a shared
    read-only zero stand-in of its shape. So `c * x` keeps neither operand
    when only x is taped, and the sweep calls only the taped arguments'
    rules. `bytes_used` counts each kept array once, however many nodes
    keep it, constant arrays included (a scalar constant is not counted).
    `steps` counts the model steps completed on the tape (see
    mark_step). An optional byte budget turns exhaustion into
    TapeMemoryError naming how many model steps had been completed.
    """

    def __init__(self, max_bytes=None):
        self.nodes: list[_Node] = []
        self.steps = 0
        self.bytes_used = 0
        self.max_bytes = max_bytes
        self._zeros: dict[tuple, np.ndarray] = {}  # stand-ins by shape
        # ids of the values counted in bytes_used; the tape keeps each of
        # them alive, so no id is reused while it is here
        self._counted: set[int] = set()

    def leaf(self, value) -> TapeBox:
        self.nodes.append(_Node(None, (), (), value, {}))
        return TapeBox(self, len(self.nodes) - 1, value)

    def _stand_in(self, shape):
        zeros = self._zeros.get(shape)
        if zeros is None:
            zeros = self._zeros[shape] = np.broadcast_to(np.float64(0.0), shape)
        return zeros

    def _keep(self, value):
        """value, counted the first time the tape keeps it."""
        if id(value) not in self._counted:
            self._counted.add(id(value))
            self.bytes_used += _nbytes(value)
        return value

    def _keep_constant(self, value):
        return self._keep(value) if isinstance(value, np.ndarray) else value

    def _record(self, prim, parents, args, out, static) -> int:
        index = len(self.nodes)
        reads = set()
        for parent, read in zip(parents, prim.reads):
            if parent is not None:
                reads |= read
        kept_args = []
        for i, a in enumerate(args):
            if parents[i] is None:
                kept_args.append(self._keep_constant(a))
            elif i in reads:
                kept_args.append(self._keep(a))
            elif isinstance(a, np.ndarray):
                kept_args.append(self._stand_in(a.shape))
            else:
                kept_args.append(a)
        kept_out = self._keep(out) if "out" in reads else None
        self.nodes.append(_Node(prim.name, parents, tuple(kept_args), kept_out, static))
        self._check_budget()
        return index

    def _check_budget(self):
        if self.max_bytes is not None and self.bytes_used > self.max_bytes:
            raise TapeMemoryError(
                f"tape memory budget exceeded ({self.bytes_used} > "
                f"{self.max_bytes} bytes) after {self.steps} complete model "
                f"steps ({len(self.nodes)} primitives)"
            )

    def group(self, run, values, links, outs, taped) -> list:
        """Record a computation that ran plain as one checkpoint group.

        values are its plain inputs and links[i] the node of values[i] on
        this tape (None for a constant); outs are its plain outputs, and
        run(inputs) must give them bitwise from any inputs equal to values,
        boxed or not. taped[i] says whether output i depends on a taped
        input: those come back as TapeBoxes, the others plain, and the
        sweep refuses a re-recording that tapes the outputs otherwise. The
        group keeps only values, each array counted once.
        """
        index = len(self.nodes)
        parents = tuple(dict.fromkeys(p for p in links if p is not None))
        kept = tuple(
            self._keep_constant(v) if p is None else self._keep(v)
            for v, p in zip(values, links)
        )
        node = _Group(_GROUP, parents, kept, None, {})
        node.run, node.links, node.taped = run, tuple(links), tuple(taped)
        self.nodes.append(node)
        results = []
        for position, (out, is_taped) in enumerate(zip(outs, node.taped)):
            if is_taped:
                self.nodes.append(_Node(_OUTPUT, (index,), position, None, {}))
                out = TapeBox(self, len(self.nodes) - 1, out)
            results.append(out)
        self._check_budget()
        return results

    def sweep(self, seeds: dict[int, object]) -> dict[int, object]:
        """Backward pass: cotangents per seed node -> cotangents per leaf.

        Visits every node exactly once, in reverse recording order, and
        calls the rules of its taped arguments in argument order. A group's
        outputs hand their cotangents to the group, which sweeps its own
        re-recording (_sweep_group).
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
            if node.name is _OUTPUT:
                adjoint.setdefault(node.parents[0], {})[node.args] = ct
                continue
            if node.name is _GROUP:
                _sweep_group(node, ct, adjoint)
                continue
            rules = _PRIMITIVES[node.name].vjps
            for parent, rule in zip(node.parents, rules):
                if parent is not None and rule is not None:
                    c = rule(ct, node.args, node.out, **node.static)
                    _accumulate(adjoint, parent, c)
        return grads


def _accumulate(adjoint, idx, ct):
    held = adjoint.get(idx)
    adjoint[idx] = ct if held is None else np.add(held, ct)


def _sweep_group(group, cts, adjoint):
    """Sweep a checkpoint group, given the cotangents of its outputs by
    position, inside the sweep of its tape, whose adjoints it updates.

    The group runs again on a fresh tape with one leaf per distinct input
    node. Each leaf starts from the running adjoint of the node it stands
    for, and only outputs that have a cotangent are seeded, so every
    adjoint sums its terms in the order a tape of the whole computation
    would, and the result is bitwise the same.
    """
    tape = Tape()
    leaves = {}
    for v, p in zip(group.args, group.links):
        if p is not None and p not in leaves:
            leaves[p] = tape.leaf(v)
    outs = group.run([v if p is None else leaves[p] for v, p in zip(group.args, group.links)])
    for position, (out, taped) in enumerate(zip(outs, group.taped)):
        if isinstance(out, TapeBox) != taped:
            # what was computed from a plain output holds no derivative
            raise RuntimeError(
                f"checkpoint group output {position} was "
                f"{'taped' if taped else 'plain'} when the group ran, but "
                f"not when it was recorded again"
            )
    seeds = {}
    for p, leaf in leaves.items():
        held = adjoint.pop(p, None)
        if held is not None:
            seeds[leaf.index] = held
    for position, ct in cts.items():
        _accumulate(seeds, outs[position].index, ct)
    grads = tape.sweep(seeds)
    for p, leaf in leaves.items():
        g = grads.get(leaf.index)
        if g is not None:
            adjoint[p] = g


class Program:
    """A record replayed as a flat program, keeping none of its primals.

    Built from a tape of primitive applications, its leaves (inputs, in
    the order the program takes them) and the values it returns (outputs:
    boxes on the tape, or plain constants). Every node of the tape becomes
    one operation, in recording order: a primitive and the slots of its
    arguments in a flat value list that starts with the constants, then
    the inputs, then one value per operation, each dropped after its last
    use. Each distinct constant argument is kept once.

    Called on plain inputs, it calls each primitive's fn directly. With any
    boxed input it calls apply per node, so a DualBox pushes tangents and a
    TapeBox records on its tape exactly the nodes the traced function would
    record.
    """

    __slots__ = ("consts", "ops", "outputs")

    def __init__(self, tape, inputs, outputs):
        nodes = tape.nodes
        if sorted(leaf.index for leaf in inputs) != [
            i for i, node in enumerate(nodes) if node.name is None
        ]:
            raise ValueError("the inputs of a program must be every leaf of its tape")
        for node in nodes:
            if node.name is not None and node.name not in _PRIMITIVES:
                raise ValueError(f"a program replays primitives only, not {node.name}")
        taped = [isinstance(out, TapeBox) and out.tape is tape for out in outputs]
        # the constants come first, so their slots are known before the ops'
        self.consts, constant = [], {}  # slot by id; consts keeps each alive
        untaped = [out for out, t in zip(outputs, taped) if not t]
        for value in [*_constants(nodes), *untaped]:
            if id(value) not in constant:
                constant[id(value)] = len(self.consts)
                self.consts.append(value)
        slots = {leaf.index: len(self.consts) + k for k, leaf in enumerate(inputs)}
        ops = []
        for index, node in enumerate(nodes):
            if node.name is None:
                continue
            prim = _PRIMITIVES[node.name]
            refs = tuple(
                constant[id(a)] if p is None else slots[p]
                for p, a in zip(node.parents, node.args)
            )
            fn = partial(prim.fn, **node.static) if node.static else prim.fn
            slots[index] = len(self.consts) + len(inputs) + len(ops)
            ops.append((fn, refs, node.name, node.static))
        self.outputs = tuple(
            slots[out.index] if t else constant[id(out)] for out, t in zip(outputs, taped)
        )
        # An operation's value is dropped at its last use, as the traced
        # code drops a temporary, so a replay holds no more than a run.
        first = len(self.consts) + len(inputs)
        last = {j: i for i, (_, refs, _, _) in enumerate(ops) for j in refs if j >= first}
        last.update(dict.fromkeys(self.outputs, len(ops)))
        self.ops = tuple(
            (fn, _getter(refs), tuple(j for j in set(refs) if last.get(j) == i), name, static)
            for i, (fn, refs, name, static) in enumerate(ops)
        )

    def __call__(self, inputs) -> list:
        env = [*self.consts, *inputs]
        push = env.append
        boxed = any(isinstance(x, Box) for x in inputs)
        for fn, get, dead, name, static in self.ops:
            args = get(env)
            for j in dead:
                env[j] = None
            push(apply(name, *args, **static) if boxed else fn(*args))
        return [env[j] for j in self.outputs]


def _getter(refs):
    """env -> the arguments at slots refs, as one C-level call: itemgetter
    of several slots gives a tuple, and of a one-slot slice a list."""
    if len(refs) == 1:
        return itemgetter(slice(refs[0], refs[0] + 1))
    return itemgetter(*refs)


def _constants(nodes):
    """The constant arguments of nodes, in recording order."""
    for node in nodes:
        for p, a in zip(node.parents, node.args):
            if p is None:
                yield a


def trace(f, values) -> Program:
    """Record f once on a fresh tape, with one leaf per value (unboxed), and
    return the Program of the record, which keeps none of its primals. f
    takes the list of leaves and returns a list of outputs."""
    tape = Tape()
    leaves = [tape.leaf(unbox(v)) for v in values]
    return Program(tape, leaves, f(leaves))


def mark_step(*values):
    """Count one complete model step on the tape of the first TapeBox among
    values; a no-op when none is taped (used by memory diagnostics)."""
    for v in values:
        if isinstance(v, TapeBox):
            v.tape.steps += 1
            return


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
        return DualBox(out, prim.jvp(tuple(links), values, out, **static))
    tape = box.tape
    return TapeBox(tape, tape._record(prim, tuple(links), values, out, static), out)
