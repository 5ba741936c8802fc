"""Forward- and reverse-mode differentiation over registered array primitives.

Every differentiable operation in the package is a named primitive with a
raw computation `fn`, a tangent rule `jvp`, and one cotangent rule per
argument, each declaring which primal values it reads. A cotangent rule
gives the local partial at the broadcast shape of the arguments, and the
sweep reduces it to its argument's shape (_unbroadcast). define_primitive
returns the Primitive, which callers call directly, array arguments
positional and statics as keywords: the call is apply(name, ...). `apply`
always evaluates `fn` on the unwrapped values, so the primal numbers are
bitwise identical whether or not derivatives are being propagated. Forward
mode wraps values in DualBox (value, tangent), where the tangent stacks m
directions on a leading axis, (m,) + value shape; reverse mode wraps them
in TapeBox and records each application on a Tape, which keeps only what
the rules of the taped arguments read, and is later swept backwards. A box
refuses by name what would drop its derivative unseen: a branch, a
comparison or a conversion on it (_REFUSED). The nodes are a tape's whole
record: what it keeps is read off them. A tape also is a trace: a Program
keeps the structure of a record and its constants, drops its primals, and
replays it on new inputs (trace) in one loop over a plan of one op table,
built once per pattern of boxed inputs: plain, writing each ufunc into a
dying operand's buffer; tangent, on lists of primals and tangents, boxing
only the outputs; or taped, as one program node whose kept values one
gather takes after the loop. A taped plan also decides which of the node's
rules the sweep passes by (`identity`) and which results it reduces, so
the node sweeps bitwise as one node per operation. A checkpoint group
stands on a tape for n replays of one Program that ran plain, each feeding
its outputs back as its leading inputs: it keeps only its inputs, tapes
only the outputs a taped input reaches, and the sweep replays the program
n times at the end of the tape, sweeps those nodes and drops them, trading
one extra forward for memory. A program node and a group tape their
outputs by one routine (_tape_outputs), and the sweep adds two cotangents
by one rule (_accumulate), in place into a sum that it alone holds.

A tape is reached only through its boxes: there is no ambient "current
tape", so independent traces may nest, and a replay finds its tape on
the values it is given. A tape holds plain values: its leaves refuse a
box, so no replay on a tape runs over another trace's boxes. Tapes are
single-owner objects: one tape is built and swept by one logical thread.
The primitive registry is written during startup and read-only afterwards.
"""

from __future__ import annotations

from functools import partial
from operator import itemgetter

import numpy as np

from ..errors import UnregisteredPrimitiveError


class Primitive:
    """A named operation with its differentiation rules.

    `jvp` pushes the stacked tangents of all arguments at once. `vjps`
    holds one cotangent rule per argument, `rule(ct, args, out, **static)`,
    or None for an argument that gets no derivative. `reads[i]` names the
    primal values rule i reads: argument indices, and "out" for the output.
    A rule gives its result at the broadcast shape of the arguments, which
    the sweep reduces, and may use the shape of any argument; a tape keeps
    only the values that the rules of its taped arguments read. A rule
    that is `identity` passes the cotangent on. Calling a primitive is
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

    # -- arithmetic routed through the registry; + - * / come from _OPERATORS --
    def __neg__(self):
        return apply("neg", self)

    def __pow__(self, p):
        if isinstance(p, Box):
            raise UnregisteredPrimitiveError("exponent may not be differentiated")
        return apply("power", self, p=float(p))

    def sum(self, axis=None, **kwargs):
        _refuse_keywords("sum", axis=axis, **kwargs)
        return apply("sum", self)

    def mean(self, axis=None, **kwargs):
        _refuse_keywords("mean", axis=axis, **kwargs)
        return apply("mean", self)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if method != "__call__":
            raise UnregisteredPrimitiveError(f"unregistered primitive: {ufunc.__name__}.{method}")
        _refuse_keywords(ufunc.__name__, **kwargs)
        name = Box._UFUNCS.get(ufunc)
        if name is None:
            raise UnregisteredPrimitiveError(f"unregistered primitive: {ufunc.__name__}")
        if name == "power":
            return Box.__pow__(*inputs)
        return apply(name, *inputs)

    __hash__ = object.__hash__  # by identity, though == is refused


# The NumPy keywords a boxed value takes, each only at its default: no
# registered primitive has any of them.
_DEFAULTS = {"axis": None, "dtype": None, "out": None, "keepdims": False, "where": True}


def _refuse_keywords(what, **kwargs):
    for key, value in kwargs.items():
        if key not in _DEFAULTS or value is not _DEFAULTS[key]:
            raise UnregisteredPrimitiveError(f"unregistered primitive: {what} with {key}=")


def _operator(name, reflected):
    """Box's binary dunder for primitive name. It reads the module-global
    apply on every call, so a replaced engine.apply sees Box arithmetic."""

    def method(self, other):
        # Defer to the partner type (e.g. Field.__rmul__) for anything that
        # is not a plain number, array, or another box.
        if not isinstance(other, (int, float, np.ndarray, np.generic, Box)):
            return NotImplemented
        return apply(name, other, self) if reflected else apply(name, self, other)

    return method


# Box's binary operators, (dunder stem, primitive), each with its reflection.
_OPERATORS = (("add", "add"), ("sub", "sub"), ("mul", "mul"), ("truediv", "div"))
for _stem, _name in _OPERATORS:
    setattr(Box, f"__{_stem}__", _operator(_name, False))
    setattr(Box, f"__r{_stem}__", _operator(_name, True))

# What a boxed value refuses, by dunder: a branch on it, or a conversion,
# would drop its derivative unseen. A reflected comparison (0 <= x) is x's.
_BRANCH = "control flow must not branch on differentiated values"
_REFUSED = {
    "__bool__": f"truth value of a traced quantity is undefined; {_BRANCH}",
    "__float__": "cannot convert a traced quantity to float; use its primal",
    "__int__": "cannot convert a traced quantity to int; use its primal",
    "__abs__": "unregistered primitive: abs",
    **{f"__{stem}__": f"cannot compare a traced quantity ({op}); {_BRANCH}" for stem, op in (
        ("eq", "=="), ("ne", "!="), ("lt", "<"), ("le", "<="), ("gt", ">"), ("ge", ">="))},
}


def _refuse(message):
    raise UnregisteredPrimitiveError(message)


for _dunder, _message in _REFUSED.items():
    setattr(Box, _dunder, lambda self, *other, _message=_message: _refuse(_message))

Box._UFUNCS = {
    np.add: "add", np.subtract: "sub", np.multiply: "mul", np.true_divide: "div",
    np.negative: "neg", np.exp: "exp", np.log: "log", np.sqrt: "sqrt", np.power: "power",
}


class DualBox(Box):
    """Forward-mode pair (primal, tangent); tangent is (m,) + primal shape."""

    __slots__ = ("primal", "tangent")

    def __init__(self, primal, tangent):
        self.primal = primal
        self.tangent = tangent


class TapeBox(Box):
    """Reverse-mode handle: a node index on a Tape plus its primal value."""

    __slots__ = ("tape", "index", "primal")

    def __init__(self, tape, index, primal):
        self.tape = tape
        self.index = index
        self.primal = primal


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


# Names of the nodes that stand for a whole computation, a checkpoint group
# or a taped program, and of the node of each of their taped outputs; no
# primitive carries them. An output node's args is its key in the
# cotangents its parent reads: a group's output position, a program's slot.
_GROUP = "<checkpoint group>"
_PROGRAM = "<program>"
_OUTPUT = "<output>"


class _Group:
    """A checkpoint group (Program.checkpoint): n replays of program, each
    feeding its outputs back as its leading inputs. args are the plain
    values of its inputs, links[i] the node of input i (None for a plain
    input)."""

    __slots__ = ("program", "n", "args", "links")
    name = _GROUP
    out = None

    def __init__(self, program, n, args, links):
        self.program, self.n, self.args, self.links = program, n, args, links


class _ProgramNode:
    """A taped program replay (Program._record): args are the values its
    operations keep, flat, as the plan lays them out, links[i] the node of
    input i (None for a plain input), and plan the program's _Plan for
    that pattern of taped inputs."""

    __slots__ = ("args", "links", "plan")
    name = _PROGRAM
    out = None

    def __init__(self, args, links, plan):
        self.args, self.links, self.plan = args, links, plan


# One shared read-only zero array per shape and dtype, kept on a tape in
# place of a taped array that no rule reads.
_STAND_INS: dict[tuple, np.ndarray] = {}


def _zeros_like(a):
    key = (a.shape, a.dtype)
    zeros = _STAND_INS.get(key)
    if zeros is None:
        zeros = _STAND_INS[key] = np.broadcast_to(np.zeros((), a.dtype), a.shape)
    return zeros


class Tape:
    """Ordered record of primitive applications for one reverse-mode sweep.

    Every intermediate primal needed by a backward rule is saved on the
    tape, except inside a checkpoint group (Program.checkpoint), which
    keeps only its inputs and is replayed by the sweep (_sweep_group). A
    node keeps the primals read by the cotangent rules of its taped arguments,
    plus its constant arguments (tiny or shared across steps); a taped
    array that no such rule reads is dropped for a shared read-only zero
    stand-in of its shape and dtype, by its type as it is recorded. So
    `c * x` keeps neither operand when only x is taped, and the sweep
    calls only the taped arguments' rules. A taped Program replay is one
    program node, then a node per taped output; the program node keeps in
    its args, flat, what a node per operation would keep (_kept), its
    stand-ins decided by the traced shapes and dtypes when its _Plan is
    built, and is swept as those nodes would be.
    Its values are plain: leaf refuses a box. `nodes` is the whole
    record, and `bytes_used` and `steps` are read off it: both describe
    the forward record, however often it is swept, and neither limits the
    tape: checkpoint groups are what bound a gradient's memory.
    """

    def __init__(self):
        self.nodes: list = []

    @property
    def steps(self) -> int:
        """The replays its checkpoint groups stand for: dyncore's steps."""
        return sum(node.n for node in self.nodes if node.name is _GROUP)

    @property
    def bytes_used(self) -> int:
        """Bytes of the distinct arrays the nodes keep in args and out,
        constants included; leaves, scalars and the zero stand-ins count
        nothing. It is read off the nodes, so it costs nothing unread."""
        stand_ins = {id(z) for z in _STAND_INS.values()}
        kept = {
            id(v): v.nbytes
            for node in self.nodes if node.name not in (None, _OUTPUT)
            for v in (*node.args, node.out)
            if isinstance(v, np.ndarray) and id(v) not in stand_ins
        }
        return sum(kept.values())

    def leaf(self, value) -> TapeBox:
        if isinstance(value, Box):
            raise UnregisteredPrimitiveError(
                f"a tape takes plain values, not a {type(value).__name__}"
            )
        self.nodes.append(_Node(None, (), (), value, {}))
        return TapeBox(self, len(self.nodes) - 1, value)

    def _record(self, prim, parents, args, out, static) -> int:
        index = len(self.nodes)
        keep, keep_out = _kept(prim, [p is not None for p in parents])
        kept_args = tuple([
            a if k or not isinstance(a, np.ndarray) else _zeros_like(a)
            for a, k in zip(args, keep)
        ])
        self.nodes.append(_Node(prim.name, parents, kept_args, out if keep_out else None, static))
        return index

    def sweep(self, seeds: dict[int, object]) -> dict[int, object]:
        """Backward pass: cotangents per seed node -> cotangents per leaf,
        by _sweep over the whole tape with one owned set (_accumulate)."""
        adjoint = dict(seeds)
        _sweep(self, adjoint, 0, set())
        return adjoint


def _kept(prim, live):
    """What a node of prim keeps when argument k is taped iff live[k]: per
    argument, whether its value is kept (an untaped one always, a taped one
    if a rule of a taped argument reads it; a taped array that is not gives
    way to its zero stand-in), and whether its value is kept."""
    reads = frozenset().union(*[r for r, a in zip(prim.reads, live) if a])
    return [not a or k in reads for k, a in enumerate(live)], "out" in reads


def _sweep(tape, adjoint, start, owned):
    """Sweep tape.nodes[start:] backwards into adjoint, cotangents by node.

    Visits every node exactly once, in reverse recording order, and pops
    its adjoint, except a leaf's, which stays. A primitive node calls the
    rules of its taped arguments in argument order. The outputs of a
    program or a group hand their cotangents to it: a program node sweeps
    its operations as their own nodes would be swept (_sweep_program), and
    a group replays its program on the tape and sweeps those nodes
    (_sweep_group).
    """
    nodes = tape.nodes
    for idx in range(len(nodes) - 1, start - 1, -1):
        node = nodes[idx]
        if node.name is None or (ct := adjoint.pop(idx, None)) is None:
            continue
        owned.discard(id(ct))
        if node.name is _OUTPUT:
            adjoint.setdefault(node.parents[0], {})[node.args] = ct
        elif node.name is _PROGRAM:
            _sweep_program(node, ct, adjoint, owned)
        elif node.name is _GROUP:
            _sweep_group(tape, node, ct, adjoint, owned)
        else:
            prim = _PRIMITIVES[node.name]
            for parent, rule, a in zip(node.parents, prim.vjps, node.args):
                if parent is not None and rule is not None:
                    part = rule(ct, node.args, node.out, **node.static)
                    _accumulate(adjoint, parent, _unbroadcast(part, np.shape(a)), owned)


def identity(ct, args, out):
    """The cotangent rule of an argument passed on unchanged (add's both)."""
    return ct


def _unbroadcast(g, shape):
    """Sum g, a rule's result at the broadcast shape of its operation's
    arguments, down to shape, its argument's: the sweep's one reduction. A
    scalar argument gets a float."""
    if shape == ():
        return float(np.add.reduce(g, axis=None))
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _accumulate(store, key, ct, owned):
    """Add the contribution ct into the cotangent store[key], the sweep's
    one sum rule. A first contribution is stored as it is (a rule may hand
    one array to two keys); a sum this rule allocated takes further ones in
    place while its id is in owned, the sweep's set of what it alone holds,
    which a cotangent leaves when it is popped. In place or not, it is the
    same IEEE addition, so the gradient is bitwise the same."""
    held = store.get(key)
    if held is None:
        store[key] = ct
    elif id(held) in owned:
        np.add(held, ct, out=held)
    else:
        total = store[key] = np.add(held, ct)
        if type(total) is np.ndarray:
            owned.add(id(total))


def _sweep_program(node, cts, adjoint, owned):
    """Sweep a taped program node, given the cotangents of its taped
    outputs by slot (a dict of its own, which the sweep fills).

    The plan lists the taped operations in reverse order, each with the
    place of its kept values in node.args and the rules of its taped
    arguments in argument order: the same calls, with the same values, in
    the order a tape of one node per operation sweeps them. A cotangent of
    an operation's value collects in cts; one of an input goes straight to
    the input's node in adjoint, so every sum runs in that tape's order
    and the gradient is bitwise its gradient. Both sum by _accumulate,
    under the sweep's one owned set, which a popped cotangent leaves.
    """
    kept, links = node.args, node.links
    for slot, lo, hi, out_at, rules in node.plan.backward:
        ct = cts.pop(slot, None)
        if ct is None:
            continue
        owned.discard(id(ct))
        args = kept[lo:hi]
        out = None if out_at is None else kept[out_at]
        for rule, to_input, target in rules:
            part = ct if rule is identity else rule(ct, args, out)
            if to_input:
                _accumulate(adjoint, links[target], part, owned)
            else:
                _accumulate(cts, target, part, owned)


def _sweep_group(tape, group, cts, adjoint, owned):
    """Sweep a checkpoint group of tape, given the cotangents of its
    outputs by position.

    Its program replays n times with the group's input nodes as parents,
    at the end of the tape, taping the outputs the group tapes (the same
    plans decided those). The new nodes are those a tape of the whole
    computation holds in the group's place, so the same loop and adjoints
    sweep them in full-tape order, bitwise; they are dropped afterwards.
    """
    start = len(tape.nodes)
    values = [v if p is None else TapeBox(tape, p, v) for v, p in zip(group.args, group.links)]
    k = len(group.program.outputs)
    try:
        for _ in range(group.n):
            values[:k] = group.program(values)
        for position, ct in cts.items():
            _accumulate(adjoint, values[position].index, ct, owned)
        _sweep(tape, adjoint, start, owned)
    finally:
        del tape.nodes[start:]


class Program:
    """A record replayed as a flat program, keeping none of its primals.

    Built from a tape of primitive applications, its leaves (inputs, in
    the order the program takes them) and the values it returns (outputs:
    boxes on the tape, or plain constants). ops holds one row per node, in
    recording order: (name, refs, dead, static, donors, zeros). refs are
    the slots of its arguments in a flat value list of the constants (each
    distinct one once), the inputs, then one value per operation; dead the
    slots whose last use it is; donors the dead ones a ufunc may write its
    result into, those of the result's recorded shape and dtype (inputs,
    constants and outputs never die); zeros the zero stand-ins of its
    array arguments, from which a _Plan also reads each argument's traced
    shape (a scalar's None has shape ()). It replays inputs of the traced
    shapes and dtypes.

    Every replay is one loop over a _Plan built from ops (plan), with no
    apply. Plain inputs run the plan with no input taped (_run), which
    calls each fn directly and writes a ufunc's result into its first
    donor: every fn returns a scalar or an ndarray that owns its memory,
    so a dying value is no view of a live one. DualBoxes run the tangent
    plan of their pattern (_push), which calls fn, and jvp where an
    argument is a DualBox, on the values apply would, bitwise. TapeBoxes
    run the plan of their taped inputs, which keeps what a tape of one
    node per operation keeps, as one program node (_record) that the
    plan's gather fills; the sweep calls the same rules in the same order
    (_sweep_program), so the gradient is bitwise that tape's.
    """

    __slots__ = ("consts", "arity", "ops", "outputs", "plans")

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
        self.arity = len(inputs)
        first = len(self.consts) + len(inputs)  # the slot of the first op's value
        slots = {leaf.index: len(self.consts) + k for k, leaf in enumerate(inputs)}
        rows = []
        for index, node in enumerate(nodes):
            if node.name is not None:
                slots[index] = first + len(rows)
                rows.append((node, tuple(
                    constant[id(a)] if p is None else slots[p]
                    for p, a in zip(node.parents, node.args)
                )))
        self.outputs = tuple(
            slots[out.index] if t else constant[id(out)] for out, t in zip(outputs, taped)
        )
        # An operation's value is dropped at its last use, as the traced
        # code drops a temporary, so a replay holds no more than a run.
        last = {j: i for i, (_, refs) in enumerate(rows) for j in refs if j >= first}
        last.update(dict.fromkeys(self.outputs, len(rows)))
        ops = []
        for i, (node, refs) in enumerate(rows):
            dead = tuple(j for j in set(refs) if last.get(j) == i)
            donatable = _donatable(_PRIMITIVES[node.name].fn, node.args)
            ops.append((node.name, refs, dead, node.static,
                        tuple(refs[k] for k in donatable if refs[k] in dead),
                        tuple(_zeros_like(a) if isinstance(a, np.ndarray) else None
                              for a in node.args)))
        self.ops = tuple(ops)
        self.plans = {}

    def __call__(self, inputs) -> list:
        if any(isinstance(x, Box) for x in inputs):
            tape = _tape_of(inputs)
            return self._push(inputs) if tape is None else self._record(tape, inputs)
        env = [*self.consts, *inputs]
        _run(self.plan([False] * self.arity), env)
        return [env[j] for j in self.outputs]

    def plan(self, pattern, dual=False) -> _Plan:
        """The _Plan of a replay whose input i is taped, or for dual a
        DualBox, iff pattern[i], built on first use."""
        key = (dual, tuple(pattern))
        plan = self.plans.get(key)
        if plan is None:
            plan = self.plans[key] = _Plan(self, pattern, dual)
        return plan

    def _push(self, inputs) -> list:
        """Replay on inputs, some of them DualBoxes, by the tangent plan of
        their pattern (_run_dual); an output a DualBox reaches comes back
        as a DualBox, the others plain."""
        dual = [type(x) is DualBox for x in inputs]
        plan = self.plan(dual, True)
        env = [*self.consts, *map(unbox, inputs)]
        tan = [None] * len(self.consts) + [x.tangent if d else None for x, d in zip(inputs, dual)]
        tan += [None] * len(self.ops)
        tan += [_align(tan[j], rank) for j, rank in plan.aligned]
        _run_dual(plan, env, tan)
        return [DualBox(env[j], tan[j]) if r else env[j] for j, r in zip(self.outputs, plan.taped)]

    def _record(self, tape, inputs) -> list:
        """Replay on the values of inputs as one program node on tape, its
        outputs taped by _tape_outputs."""
        links = tuple(x.index if isinstance(x, TapeBox) else None for x in inputs)
        plan = self.plan([link is not None for link in links])
        env = [*self.consts, *map(unbox, inputs)]
        _run(plan, env)
        env += plan.stand_ins
        node = _ProgramNode(plan.gather(env), links, plan)
        given = dict(enumerate(inputs, len(self.consts)))  # the inputs by slot
        return _tape_outputs(tape, node, self.outputs, plan.taped, env, given)

    def checkpoint(self, inputs, n, outs) -> list:
        """Record n replays that ran plain, each feeding its outputs back as
        its leading inputs, as one checkpoint group on the tape of inputs
        that keeps only their plain values; outs are the last replay's. It
        tapes the outputs n taped replays tape (plan, until a replay adds
        none), as TapeBoxes; with none, outs come back and nothing is
        recorded. _tape_of refuses boxes of two tapes or of two kinds."""
        tape = _tape_of(inputs)
        taped = [isinstance(x, TapeBox) for x in inputs]
        k = len(self.outputs)
        reached = taped[:k]
        for _ in range(n):
            last, reached = reached, self.plan(reached + taped[k:]).taped
            if reached == last:
                break
        if not any(reached):
            return outs
        links = tuple(x.index if t else None for x, t in zip(inputs, taped))
        group = _Group(self, n, tuple(map(unbox, inputs)), links)
        return _tape_outputs(tape, group, range(len(outs)), reached, outs, {})


def _tape_outputs(tape, node, keys, taped, values, boxes) -> list:
    """Append node, a program or a group, to tape, then one output node per
    taped key: its place in node's cotangents (a program's slot, a group's
    position) and in values. A key in boxes (a returned input, a value
    returned twice) comes back as that box. Returns values[key] per key,
    boxed where taped: the one routine that tapes a replay's outputs."""
    nodes = tape.nodes
    nodes.append(node)
    index = len(nodes) - 1
    for key, is_taped in zip(keys, taped):
        if is_taped and key not in boxes:
            nodes.append(_Node(_OUTPUT, (index,), key, None, {}))
            boxes[key] = TapeBox(tape, len(nodes) - 1, values[key])
    return [boxes[key] if is_taped else values[key] for key, is_taped in zip(keys, taped)]


class _Plan:
    """How a program replays when input i is live iff pattern[i]: taped,
    or for a tangent plan (dual) a DualBox.

    One walk over the operations marks each value live if an argument
    is, as apply does; taped says which outputs are. A taped plan lays out
    what each taped operation keeps in its node's flat args by the rule of
    Tape._record (_kept): its arguments, then its value if it is read. A
    taped argument no rule reads gives way to its zero stand-in where it
    was traced as an array (Program's zeros). forward holds (fn, get,
    dead) per operation: fn has its statics bound, and a ufunc writes into
    the first donor no node keeps; dead the slots dropped once read, by
    any operation, never one the node keeps. After the run, env plus
    stand_ins holds every kept value, and gather takes the node's args
    from it in one call. backward holds, in reverse order, (slot, lo, hi,
    out_at, rules) per taped operation: its kept arguments are
    args[lo:hi], its kept value args[out_at] (None if not kept), and rules
    are (rule, to_input, target) for its taped arguments in argument
    order, target being an input position or a slot. rule is `identity`,
    which the sweep does not call, or takes (ct, args, out) (_local).

    A tangent plan keeps and donates nothing: forward holds (fn, get,
    dead, jvp, tget), jvp and tget (its tangents' getter) None where no
    argument is live. A tangent below the rank of its operation (the
    broadcast rank of two or more arguments) is right-aligned with it as
    apply aligns it (_align): an input's once per replay, at a slot past
    the operations' (aligned lists (input slot, rank)); an operation
    value's when it is read.
    """

    __slots__ = ("forward", "backward", "gather", "stand_ins", "aligned", "taped")

    def __init__(self, program, pattern, dual):
        first = len(program.consts)
        base = first + program.arity  # the slot of the first operation's value
        end = base + len(program.ops)  # the slot of the first stand-in or aligned tangent
        active = [False] * first + list(pattern)
        places, stand_ins = [], []  # the slot of each kept value, in args' order
        held = set()  # the slots the gather reads: none dies or takes a result
        aligned = {}  # (input slot, rank) -> its place past end
        forward, backward = [], []
        for i, (name, refs, dead, static, donors, zeros) in enumerate(program.ops):
            prim = _PRIMITIVES[name]
            live = [active[j] for j in refs]
            active.append(any(live))
            fn = partial(prim.fn, **static) if static else prim.fn
            # a scalar's zero is None, whose shape is ()
            full = np.broadcast_shapes(*map(np.shape, zeros))
            if dual:
                jvp = tget = None
                if active[-1]:
                    jvp = partial(prim.jvp, **static) if static else prim.jvp
                    rank = len(full) + 1
                    low = [a and np.ndim(zero) < len(full) for a, zero in zip(live, zeros)]
                    tget = _getter(tuple(end + aligned.setdefault((j, rank), len(aligned))
                                         if lo and j < base else j for j, lo in zip(refs, low)))
                    if any(lo and j >= base for j, lo in zip(refs, low)):
                        tget = lambda tan, get=tget, rank=rank: [_align(t, rank) for t in get(tan)]
                forward.append((fn, _getter(refs), dead, jvp, tget))
                continue
            if active[-1]:
                keep, keep_out = _kept(prim, live)
                lo = len(places)
                for j, k, zero in zip(refs, keep, zeros):
                    if k or zero is None:
                        places.append(j)
                    else:  # its stand-in, placed past the operations' values
                        places.append(end + len(stand_ins))
                        stand_ins.append(zero)
                if keep_out:
                    places.append(base + i)
                held.update(places[lo:])
                out_at = lo + len(refs) if keep_out else None
                backward.append((base + i, lo, lo + len(refs), out_at, tuple(
                    (_local(rule, static, np.shape(zero), full), j < base,
                     j - first if j < base else j)
                    for j, a, rule, zero in zip(refs, live, prim.vjps, zeros)
                    if a and rule is not None
                )))
            dead = tuple(j for j in dead if j not in held)
            donor = next((j for j in donors if j not in held), None)
            # a ufunc takes its out argument by position, after its inputs
            forward.append((fn, _getter(refs if donor is None else refs + (donor,)), dead))
        self.forward = tuple(forward)
        self.backward = tuple(reversed(backward))
        self.gather = _getter(tuple(places))
        self.stand_ins = tuple(stand_ins)
        self.aligned = tuple(aligned)
        self.taped = [active[j] for j in program.outputs]


def _local(rule, static, shape, full):
    """rule as a program node's sweep calls it: static bound, and its
    result, of the broadcast shape full, reduced to the argument's shape
    where the two differ. identity stays itself unless it is reduced."""
    if static:
        rule = partial(rule, **static)
    if shape == full:
        return rule
    return lambda ct, args, out: _unbroadcast(rule(ct, args, out), shape)


def _run(plan, env):
    """Run plan's operations on env, the constants and then the inputs:
    each value is appended to env and dropped at its last use unless the
    plan's node keeps it."""
    push = env.append
    for fn, get, dead in plan.forward:
        args = get(env)
        for j in dead:
            env[j] = None
        push(fn(*args))


def _run_dual(plan, env, tan):
    """Run a tangent plan on env, the primals, and tan, the tangents by
    slot (None for a value with none): a live value's tangent goes to its
    slot, and both lists drop a value at its last use."""
    push = env.append
    for fn, get, dead, jvp, tget in plan.forward:
        args = get(env)
        tangents = None if jvp is None else tget(tan)
        for j in dead:
            env[j] = tan[j] = None
        out = fn(*args)
        if jvp is not None:
            tan[len(env)] = jvp(tangents, args, out)
        push(out)


def _align(t, rank):
    """Tangent stack t (or None) right-aligned with rank, its operation's
    plus one: a scalar's (m,) broadcasts as (m, 1, 1) against (nx, ny)."""
    if t is None or t.ndim >= rank:
        return t
    return t.reshape(t.shape[:1] + (1,) * (rank - t.ndim) + t.shape[1:])


def _tape_of(values):
    """The tape of the TapeBoxes among values, None if there are none.
    Boxes of two tapes, or a TapeBox beside a DualBox, are refused here,
    for apply too."""
    tape = dual = None
    for v in values:
        if isinstance(v, TapeBox):
            if tape is None:
                tape = v.tape
            elif v.tape is not tape:
                raise UnregisteredPrimitiveError(
                    "cannot combine values recorded on different tapes"
                )
        elif isinstance(v, DualBox):
            dual = v
    if tape is not None and dual is not None:
        raise UnregisteredPrimitiveError(
            "cannot mix forward-mode and reverse-mode values in one primitive"
        )
    return tape


def _donatable(fn, args):
    """Positions of the recorded arguments whose buffer ufunc fn may write
    its result into: arrays of the result's shape (not a scalar's) and
    dtype. The dtype is the ufunc's own on empty arrays of the arguments'
    dtypes, so a float32 operand never takes a float64 result."""
    if not isinstance(fn, np.ufunc):
        return ()
    shape = np.broadcast_shapes(*map(np.shape, args))
    if shape == ():
        return ()
    dtype = fn(*(np.empty(0, a.dtype) if isinstance(a, np.ndarray) else a for a in args)).dtype
    return tuple(
        k for k, a in enumerate(args)
        if isinstance(a, np.ndarray) and a.shape == shape and a.dtype == dtype
    )


def _getter(refs):
    """env -> the values at slots refs, as one C-level call: itemgetter of
    several slots gives a tuple, and of a one-slot or empty slice a list."""
    if len(refs) == 1:
        return itemgetter(slice(refs[0], refs[0] + 1))
    return itemgetter(*refs) if refs else itemgetter(slice(0))


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
                _tape_of(args)  # refuses a TapeBox beside a DualBox
            values.append(a.primal)
            if type(a) is DualBox:
                links.append(a.tangent)
            elif a.tape is not box.tape:
                _tape_of(args)  # refuses boxes of two tapes
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
        rank = np.ndim(out) + 1
        return DualBox(out, prim.jvp(tuple(_align(t, rank) for t in links), values, out, **static))
    tape = box.tape
    return TapeBox(tape, tape._record(prim, tuple(links), values, out, static), out)
