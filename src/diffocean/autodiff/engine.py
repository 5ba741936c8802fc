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
the rules of the taped arguments read, and is later swept backwards. The
nodes are a tape's whole record: what it keeps is read off them. A tape
also is a trace: a Program keeps the structure of a record and its
constants, drops its primals, and replays it on new inputs (trace) in
one loop over a plan of one op table: plain, writing each ufunc into a
dying operand's buffer; tangent, through apply; or taped, as one program
node that the sweep runs from an adjoint list built once per pattern of
taped inputs, bitwise as it would sweep one node per operation. A
checkpoint group stands on a tape for n replays of one Program that ran
plain, each feeding its outputs back as its leading inputs: it keeps only
its inputs, tapes only the outputs a taped input reaches, and the sweep
replays the program n times at the end of the same tape, sweeps those
nodes and drops them, trading one extra forward for memory.

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
            raise UnregisteredPrimitiveError(
                f"unregistered primitive: {ufunc.__name__}.{method}"
            )
        _refuse_keywords(ufunc.__name__, **kwargs)
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
    stand-in of its shape and dtype. So `c * x` keeps neither operand when
    only x is taped, and the sweep calls only the taped arguments' rules.
    A taped Program replay is one program node, then a node per taped
    output; the program node keeps in its args, flat, what a node per
    operation would keep (_kept), and is swept as those nodes would be.
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
        """Backward pass: cotangents per seed node -> cotangents per leaf.

        Runs _sweep over the whole tape and returns its adjoints, in which
        only the leaves' entries remain.
        """
        adjoint = dict(seeds)
        _sweep(self, adjoint, 0)
        return adjoint


def _kept(prim, live):
    """What a node of prim keeps when argument k is taped iff live[k]: per
    argument, whether its value is kept (an untaped one always, a taped one
    if a rule of a taped argument reads it; a taped array that is not gives
    way to its zero stand-in), and whether its value is kept."""
    reads = frozenset().union(*[r for r, a in zip(prim.reads, live) if a])
    return [not a or k in reads for k, a in enumerate(live)], "out" in reads


def _sweep(tape, adjoint, start):
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
        if node.name is _OUTPUT:
            adjoint.setdefault(node.parents[0], {})[node.args] = ct
        elif node.name is _PROGRAM:
            _sweep_program(node, ct, adjoint)
        elif node.name is _GROUP:
            _sweep_group(tape, node, ct, adjoint)
        else:
            for parent, rule in zip(node.parents, _PRIMITIVES[node.name].vjps):
                if parent is not None and rule is not None:
                    _accumulate(adjoint, parent, rule(ct, node.args, node.out, **node.static))


def _accumulate(adjoint, idx, ct):
    held = adjoint.get(idx)
    adjoint[idx] = ct if held is None else np.add(held, ct)


def _sweep_program(node, cts, adjoint):
    """Sweep a taped program node, given the cotangents of its taped
    outputs by slot (a dict of its own, which the sweep fills).

    The plan lists the taped operations in reverse order, each with the
    place of its kept values in node.args and the rules of its taped
    arguments in argument order: the same calls, with the same values, in
    the order a tape of one node per operation sweeps them. A cotangent of
    an operation's value collects in cts; one of an input goes straight to
    the input's node in adjoint, so every sum runs in that tape's order
    and the gradient is bitwise its gradient. A sum the sweep allocated in
    cts takes further contributions in place, with the same IEEE additions
    in the same order, but only while cts alone holds it: its mark is
    cleared when it is popped, since a rule may hand it on unchanged.
    """
    kept, links = node.args, node.links
    owned = set()  # ids of the sums in cts that the sweep alone holds
    for slot, lo, hi, out_at, rules in node.plan.backward:
        ct = cts.pop(slot, None)
        if ct is None:
            continue
        # once popped, a sum may go on unchanged to two targets (add's rule)
        owned.discard(id(ct))
        args = kept[lo:hi]
        out = None if out_at is None else kept[out_at]
        for rule, to_input, target in rules:
            if to_input:
                _accumulate(adjoint, links[target], rule(ct, args, out))
                continue
            contribution = rule(ct, args, out)
            held = cts.get(target)
            if held is None:
                cts[target] = contribution
            elif id(held) in owned:
                np.add(held, contribution, out=held)
            else:
                total = cts[target] = np.add(held, contribution)
                if type(total) is np.ndarray:
                    owned.add(id(total))


def _sweep_group(tape, group, cts, adjoint):
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
            _accumulate(adjoint, values[position].index, ct)
        _sweep(tape, adjoint, start)
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
    array arguments. It replays inputs of the traced shapes and dtypes.

    Every replay is one loop (_run) over a _Plan built from ops (plan).
    Plain inputs run the plan with no input taped, which calls each fn
    directly and writes a ufunc's result into its first donor: every fn
    returns a scalar or an ndarray that owns its memory, so a dying value
    is no view of a live one. DualBoxes run the plan for taped=None, which
    calls apply per operation and so pushes the traced tangents. TapeBoxes
    run the plan of their taped inputs, which keeps what a tape of one
    node per operation keeps, as one program node (_record); the sweep
    calls the same rules in the same order (_sweep_program), so the
    gradient is bitwise that tape's.
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
        boxed = any(isinstance(x, Box) for x in inputs)
        if boxed and (tape := _tape_of(inputs)) is not None:
            return self._record(tape, inputs)
        env = [*self.consts, *inputs]
        _run(self.plan(None if boxed else [False] * self.arity), env)
        return [env[j] for j in self.outputs]

    def plan(self, taped) -> _Plan:
        """The _Plan of a replay whose input i is taped iff taped[i], or of
        a tangent replay for taped=None, built on first use; its `taped`
        says which outputs such a replay tapes."""
        taped = None if taped is None else tuple(taped)
        plan = self.plans.get(taped)
        if plan is None:
            plan = self.plans[taped] = _Plan(self, taped)
        return plan

    def _record(self, tape, inputs) -> list:
        """Replay on the values of inputs, recording one program node on
        tape, then one output node per taped output an operation computes;
        an input it returns comes back as it was given."""
        links = tuple(x.index if isinstance(x, TapeBox) else None for x in inputs)
        plan = self.plan([link is not None for link in links])
        env = [*self.consts, *map(unbox, inputs)]
        nodes = tape.nodes
        index = len(nodes)
        nodes.append(_ProgramNode(tuple(_run(plan, env)), links, plan))
        boxes = dict(enumerate(inputs, len(self.consts)))  # by slot
        results = []
        for j, taped in zip(self.outputs, plan.taped):
            if taped and j not in boxes:
                nodes.append(_Node(_OUTPUT, (index,), j, None, {}))
                boxes[j] = TapeBox(tape, len(nodes) - 1, env[j])
            results.append(boxes[j] if taped else env[j])
        return results

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
        nodes = tape.nodes
        index = len(nodes)
        links = tuple(x.index if t else None for x, t in zip(inputs, taped))
        nodes.append(_Group(self, n, tuple(map(unbox, inputs)), links))
        results = []
        for position, (out, is_taped) in enumerate(zip(outs, reached)):
            if is_taped:
                nodes.append(_Node(_OUTPUT, (index,), position, None, {}))
                out = TapeBox(tape, len(nodes) - 1, out)
            results.append(out)
        return results


class _Plan:
    """How a program replays when input i is taped iff taped[i], or with
    tangents when taped is None.

    One walk over the operations marks each value taped if an argument
    is, as apply does, and lays out what each taped operation keeps in its
    node's flat args by the rule of Tape._record (_kept): its arguments, a
    taped array no rule reads giving way to its zero stand-in, then its
    value if it is read. forward holds (fn, get, dead, record) per
    operation; record is None for an untaped one, else (number of
    arguments, places in args that take a stand-in, whether the value is
    kept). fn is the primitive's fn, a ufunc writing into the first donor
    no node keeps, or for tangents apply, looked up when called, with no
    donor. backward holds, in reverse order, (slot, lo, hi, out_at, rules)
    per taped operation: its kept arguments are args[lo:hi], its kept
    value args[out_at] (None if not kept), and rules are (rule, to_input,
    target) for its taped arguments in argument order, rule taking (ct,
    args, out) with the operation's statics bound, target being an input
    position or a slot. taped says which outputs are taped.
    """

    __slots__ = ("forward", "backward", "taped")

    def __init__(self, program, taped):
        first = len(program.consts)
        base = first + program.arity  # the slot of the first operation's value
        active = [False] * first + list(taped or [False] * program.arity)
        held = set()  # the slots whose values a node keeps as they are
        forward, backward = [], []
        at = 0
        for i, (name, refs, dead, static, donors, zeros) in enumerate(program.ops):
            prim = _PRIMITIVES[name]
            live = [active[j] for j in refs]
            active.append(any(live))
            record = None
            if active[-1]:
                keep, keep_out = _kept(prim, live)
                held.update(j for j, k in zip(refs, keep) if k)
                out_at = at + len(refs) if keep_out else None
                if out_at is not None:
                    held.add(base + i)
                backward.append((base + i, at, at + len(refs), out_at, tuple(
                    (partial(rule, **static) if static else rule, j < base,
                     j - first if j < base else j)
                    for j, a, rule in zip(refs, live, prim.vjps) if a and rule is not None
                )))
                swap = tuple(
                    (at + k, zero) for k, (k_kept, zero) in enumerate(zip(keep, zeros))
                    if not k_kept and zero is not None
                )
                record = (len(refs), swap, out_at is not None)
                at += len(refs) + (out_at is not None)
            if taped is None:
                fn, donor = _applier(name, static), None
            else:
                fn = partial(prim.fn, **static) if static else prim.fn
                donor = next((j for j in donors if j not in held), None)
            # a ufunc takes its out argument by position, after its inputs
            get = _getter(refs if donor is None else refs + (donor,))
            forward.append((fn, get, dead, record))
        self.forward = tuple(forward)
        self.backward = tuple(reversed(backward))
        self.taped = [active[j] for j in program.outputs]


def _run(plan, env) -> list:
    """Run plan's operations on env, the constants and then the inputs:
    each value is appended to env and dropped at its last use. Returns
    what the taped operations keep, flat, as the plan lays it out."""
    push = env.append
    kept = []
    for fn, get, dead, record in plan.forward:
        args = get(env)
        for j in dead:
            env[j] = None
        push(fn(*args))
        if record is not None:
            n, swap, keep_out = record
            kept += args[:n]
            for at, zero in swap:
                if isinstance(kept[at], np.ndarray):
                    kept[at] = zero
            if keep_out:
                kept.append(env[-1])
    return kept


def _tape_of(values):
    """The tape of the TapeBoxes among values, None if there are none. As
    in apply, boxes of two tapes, or a TapeBox beside a DualBox, are
    refused."""
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
    """env -> the arguments at slots refs, as one C-level call: itemgetter
    of several slots gives a tuple, and of a one-slot slice a list."""
    if len(refs) == 1:
        return itemgetter(slice(refs[0], refs[0] + 1))
    return itemgetter(*refs)


def _applier(name, static):
    """args -> apply(name, *args, **static), with apply looked up in this
    module on every call, so a replaced engine.apply sees a tangent replay."""
    return lambda *args: apply(name, *args, **static)


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
