"""Opt-in line tracer for the package source: a pytest plugin, never collected by tier-1.

Run it as::

    PYTHONPATH=src:tests python -m pytest -q -p linecov

It traces only frames whose code lives under ``src/qvirial`` (subprocess runs
are not followed) and, at session end, prints ``unrun src lines: N`` followed
by ``file:line`` for each executable line that no test ran.  A code object
stops being traced once every one of its lines has run.  Adding
``--deselect tests/test_cli.py::test_fuzzed_argv_ends_in_an_exit_code`` shows
that no line is reached only by the grammar fuzz's random draws.
"""

import os
import sys
import threading
import types

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "qvirial")
_left: dict[types.CodeType, set[int]] = {}  # code -> its lines not yet run (empty: not traced)


def _lines(code: types.CodeType) -> set[int]:
    return {line for _, _, line in code.co_lines() if line}


def _trace(frame, event, arg):
    code = frame.f_code
    left = _left.get(code)
    if left is None:
        # the first line of a def or class runs in the enclosing code, not in its own frame
        left = _left[code] = _lines(code) - {code.co_firstlineno} if code.co_filename.startswith(SRC) else set()
    if not left:
        return None

    def local(frame, event, arg):
        if event == "line":
            left.discard(frame.f_lineno)
        return local if left else None
    return local


# installed at import, before qvirial loads, so that its module-level lines are traced
sys.settrace(_trace)
threading.settrace(_trace)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    threading.settrace(None)
    unrun = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            path = os.path.join(SRC, name)
            with open(path, encoding="utf-8") as handle:
                stack, lines = [compile(handle.read(), path, "exec")], set()
            while stack:
                code = stack.pop()
                lines |= _lines(code)
                stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
            lines -= {line for code, left in _left.items() if code.co_filename == path for line in _lines(code) - left}
            unrun.extend(f"{name}:{line}" for line in sorted(lines))
    terminalreporter.write_line(f"unrun src lines: {len(unrun)}")
    for line in unrun:
        terminalreporter.write_line(line)
