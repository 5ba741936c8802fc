"""Apply each named engine mutant to a copy of the tree and report whether a
fast test subset kills it.

    python tools/mutants.py                                # the default subset
    python tools/mutants.py tests/test_program_fuzz.py     # generated tests only

The arguments, if any, are the pytest paths or node ids to run in place of
the default subset (the program fuzz, `tests/test_autodiff.py` and the
dyncore bitwise oracles). Each mutant is an exact (file, old text, new text)
edit. The old text must occur exactly once in its file, so the table breaks
loudly when the code moves: every mutant is checked before any is run. The
unmutated copy runs first and must pass. Then, for each mutant, the tree
(without `.git`) is copied to a temporary directory, the edit applied and the
subset run there with pytest, stopping at the first failure: a failing run
kills the mutant, a passing one lets it survive. A run that ends otherwise
(a collection error, say) is reported as an error. Standard library and
pytest only. The exit status is 1 if any mutant survived or erred.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ENGINE = "src/diffocean/autodiff/engine.py"
PRIMITIVES = "src/diffocean/autodiff/primitives.py"
SUBSET = [
    "tests/test_program_fuzz.py",
    "tests/test_autodiff.py",
    "tests/test_dyncore.py::test_step_tape_structure_pinned",
    "tests/test_dyncore.py::test_replayed_step_is_bitwise_the_traced_definition",
    "tests/test_dyncore.py::test_flow_only_state_steps_the_flow_of_the_full_state_bitwise",
]

# A rebinding appended to the engine: Box's operators call the apply that
# existed when they were made, not the module's apply of the moment.
_BOUND_OPERATORS = '''

def _bound(name, reflected, apply=apply):
    def method(self, other):
        if not isinstance(other, (int, float, np.ndarray, np.generic, Box)):
            return NotImplemented
        return apply(name, other, self) if reflected else apply(name, self, other)

    return method


for _stem, _name in _OPERATORS:
    setattr(Box, f"__{_stem}__", _bound(_name, False))
    setattr(Box, f"__r{_stem}__", _bound(_name, True))
'''

_APPLY_END = "    return TapeBox(tape, tape._record(prim, tuple(links), values, out, static), out)\n"

# _sweep_program's loop, and the same loop holding an input's contributions
# back until the node is swept, then adding each input's sum at once.
_SWEEP_PROGRAM = """\
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
"""
_SUMMED_AFTER = _SWEEP_PROGRAM.replace(
    "kept, links = node.args, node.links", "kept, links, later = node.args, node.links, {}"
).replace("(adjoint, links[target]", "(later, links[target]") + (
    "    for key, total in later.items():\n        _accumulate(adjoint, key, total, owned)\n"
)

# (name, file, old text, new text)
MUTANTS = [
    ("a plain replay donates a kept value", ENGINE,
     "donor = next((j for j in donors if j not in held), None)",
     "donor = next((j for j in donors), None)"),
    ("a plain replay donates a slot that does not die", ENGINE,
     "tuple(refs[k] for k in donatable if refs[k] in dead),",
     "tuple(refs[k] for k in donatable),"),
    ("a taped replay keeps unread taped arrays", ENGINE,
     "                    if k or zero is None:\n",
     "                    if True:\n"),
    ("a taped replay frees a kept slot at its last use", ENGINE,
     "            dead = tuple(j for j in dead if j not in held)\n",
     ""),
    ("an untaped operation frees a kept slot at its last use", ENGINE,
     "                )))\n            dead = tuple(j for j in dead if j not in held)\n",
     "                )))\n                dead = tuple(j for j in dead if j not in held)\n"),
    ("outputs die at their last use", ENGINE,
     "        last.update(dict.fromkeys(self.outputs, len(rows)))\n",
     ""),
    ("a returned input is boxed anew", ENGINE,
     "given = dict(enumerate(inputs, len(self.consts)))",
     "given = {}"),
    ("an operation's rules run in reverse order", ENGINE,
     "for j, a, rule, zero in zip(refs, live, prim.vjps, zeros)\n",
     "for j, a, rule, zero in reversed(list(zip(refs, live, prim.vjps, zeros)))\n"),
    ("the plan skips a broadcast argument's reduction", ENGINE,
     "    return lambda ct, args, out: _unbroadcast(rule(ct, args, out), shape)\n",
     "    return rule\n"),
    ("_sweep_program keeps the mark after the pop", ENGINE,
     "            continue\n        owned.discard(id(ct))\n        args = kept[lo:hi]\n",
     "            continue\n        args = kept[lo:hi]\n"),
    ("an input's contributions are summed after the node", ENGINE,
     _SWEEP_PROGRAM, _SUMMED_AFTER),
    ("a group replays n - 1 times", ENGINE,
     "for _ in range(group.n):",
     "for _ in range(group.n - 1):"),
    ("the taping fixpoint runs one round", ENGINE,
     "        for _ in range(n):\n            last, reached",
     "        for _ in range(min(n, 1)):\n            last, reached"),
    ("exp's rule is scaled by 1 + 1e-9", PRIMITIVES,
     "lambda ct, args, out: np.multiply(ct, out), (",
     "lambda ct, args, out: np.multiply(ct, out) * (1 + 1e-9), ("),
    ("_elementwise passes t instead of t[0]", PRIMITIVES,
     "jvp=lambda t, args, out, **kw: rule(t[0], args, out, **kw),",
     "jvp=lambda t, args, out, **kw: rule(t, args, out, **kw),"),
    ("shift_yp accepts any fill", PRIMITIVES,
     "    if fill not in SHIFT_FILLS:\n",
     "    if False:\n"),
    ("Box's operators bind apply when they are made", ENGINE,
     _APPLY_END, _APPLY_END + _BOUND_OPERATORS),
    ("_sweep keeps the mark after the pop", ENGINE,
     "            continue\n        owned.discard(id(ct))\n        if node.name is _OUTPUT:\n",
     "            continue\n        if node.name is _OUTPUT:\n"),
    ("_accumulate marks a stored first contribution as owned", ENGINE,
     "    if held is None:\n        store[key] = ct\n",
     "    if held is None:\n        store[key] = ct\n"
     "        if type(ct) is np.ndarray:\n            owned.add(id(ct))\n"),
]


def _copy(destination):
    shutil.copytree(ROOT, destination, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis", "out"))


def _run(tree, tests) -> str:
    """'killed' if the subset fails on tree, 'survived' if it passes, else
    'error' with pytest's exit code."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONDONTWRITEBYTECODE="1")
    code = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    ).returncode
    return {0: "survived", 1: "killed"}.get(code, f"error (pytest exit {code})")


def main(argv) -> int:
    tests = argv or SUBSET
    for name, path, old, _new in MUTANTS:
        with open(os.path.join(ROOT, path), encoding="utf-8") as handle:
            count = handle.read().count(old)
        if count != 1:
            raise SystemExit(f"mutant {name!r}: its old text occurs {count} times in {path}")
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        control = os.path.join(scratch, "control")
        _copy(control)
        if _run(control, tests) != "survived":
            raise SystemExit("the unmutated tree fails the subset: no mutant can be judged")
        outcomes = []
        for number, (name, path, old, new) in enumerate(MUTANTS, 1):
            tree = os.path.join(scratch, f"mutant-{number}")
            _copy(tree)
            target = os.path.join(tree, path)
            with open(target, encoding="utf-8") as handle:
                source = handle.read()
            with open(target, "w", encoding="utf-8") as handle:
                handle.write(source.replace(old, new))
            outcomes.append(_run(tree, tests))
            print(f"{number:2d}. {outcomes[-1]:<9} {name}", flush=True)
            shutil.rmtree(tree)
    print(f"{outcomes.count('killed')} of {len(MUTANTS)} killed")
    return 0 if all(o == "killed" for o in outcomes) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
