"""List the function-body lines of the package that a pytest run never runs.

    PYTHONPATH=src python tools/unreached.py tests \
        --deselect tests/test_acceptance.py::test_c07_parameter_calibration

The arguments go to pytest unchanged. A standard-library line tracer
(sys.settrace) records every line the run executes in src/, from before
pytest imports the package. The candidate lines are the first lines of the
statements inside functions, so module and class bodies, which run at
import time, are never listed. Each candidate that never ran is printed as
`file:line function`, after pytest's own report. A guide to where tests are
missing, not a gate: the exit status is pytest's.
"""

from __future__ import annotations

import ast
import inspect
import os
import sys
import threading
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src") + os.sep


def _function_codes(code):
    """Every function code object nested in code, outer before inner."""
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            if const.co_flags & inspect.CO_OPTIMIZED:
                yield const
            yield from _function_codes(const)


def _candidates(path):
    """{line: function name} for the first line of each statement inside a
    function, and of each lambda. The tracer reports a line as it starts
    running, so the later lines of a statement that spans several are not
    candidates: they can run without being reported."""
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    starts = set()
    for node in ast.walk(ast.parse(source, path)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            starts.update(
                n.lineno for n in ast.walk(node) if isinstance(n, ast.stmt) and n is not node
            )
        elif isinstance(node, ast.Lambda):
            starts.add(node.lineno)
    names = {}  # line -> the innermost function with code on it
    for code in _function_codes(compile(source, path, "exec")):
        for _start, _end, line in code.co_lines():
            if line in starts:
                names[line] = code.co_qualname
    return names


def main(argv) -> int:
    import pytest

    ran = set()  # (absolute path, line)
    paths = {}  # co_filename -> its absolute path, or None outside src/

    def local(frame, event, arg):
        if event == "line":
            ran.add((paths[frame.f_code.co_filename], frame.f_lineno))
        return local

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in paths:
            path = os.path.abspath(name)
            paths[name] = path if path.startswith(SRC) else None
        if paths[name] is None:
            return None
        ran.add((paths[name], frame.f_code.co_firstlineno))
        return local

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = 0
    for folder, _dirs, files in sorted(os.walk(SRC)):
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(folder, name)
            for line, function in sorted(_candidates(path).items()):
                if (path, line) not in ran:
                    print(f"{os.path.relpath(path, ROOT)}:{line} {function}")
                    missed += 1
    print(f"{missed} function-body lines never ran")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
