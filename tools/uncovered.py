"""The executable lines of ``fournls`` that no test runs.

    python tools/uncovered.py [PYTEST_ARGS ...]

Runs pytest in this process, with the arguments given (by default the
``testpaths`` of ``pyproject.toml``), on the ``fournls`` of this tree's
``src``, under a ``sys.settrace`` tracer that follows only the frames of
code in ``src/fournls``.  The executable lines of a module are those its
compiled code objects map instructions to (``co_lines()``); a line counts
as run when the tracer sees a line event on it.  It then prints, for each
module with lines that no test ran, the module and those lines, ranges
joined with a dash::

    dispersive.py: 105-106
    imethod.py: 487-488

and a last line with the totals.  It exits with pytest's exit code, so a
failing test shows, but the lines are printed either way.

Code run in a subprocess is not traced, and a line that a test runs only
there reads as not run.  The second line of a statement that spans lines
can read as not run when the interpreter reports the whole statement on its
first line.  Tracing makes the tests slower: tier-1 took 58 s and 71 s
against 54 s untraced on a shared 2-core VM.  The tool needs no package besides pytest.
"""

from __future__ import annotations

import os
import sys
import types
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "fournls"


def code_lines(code: types.CodeType) -> set:
    """The lines that ``code`` and the code objects nested in it map an
    instruction to."""
    lines, todo = set(), [code]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def executable_lines(path: Path) -> set:
    """The lines of the source file ``path`` that its compiled code maps an
    instruction to."""
    return code_lines(compile(path.read_text(), str(path), "exec"))


def _ranges(lines) -> str:
    """``[1, 2, 3, 7]`` as ``"1-3, 7"``."""
    runs = []
    for line in sorted(lines):
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def trace_tests(pytest_args) -> tuple:
    """``(exit code, {path: lines run})`` of pytest run on ``pytest_args``."""
    import pytest

    ran = {}  # co_filename -> the set of its lines run, or None outside the package

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        code = frame.f_code
        if code.co_filename not in ran:
            inside = os.path.realpath(code.co_filename).startswith(f"{PACKAGE}{os.sep}")
            ran[code.co_filename] = set() if inside else None
        return None if ran[code.co_filename] is None else local

    sys.path.insert(0, str(SRC))
    sys.settrace(tracer)
    try:
        code = pytest.main(list(pytest_args))
    finally:
        sys.settrace(None)
    by_path = {Path(os.path.realpath(f)): hits for f, hits in ran.items() if hits is not None}
    return int(code), by_path


def main(argv=None) -> int:
    code, by_path = trace_tests(sys.argv[1:] if argv is None else argv)
    n_lines = n_missed = 0
    report = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        missed = lines - by_path.get(path, set())
        n_lines += len(lines)
        n_missed += len(missed)
        if missed:
            report.append(f"{path.name}: {_ranges(missed)}")
    print("\n".join(report + [f"{n_missed} of {n_lines} executable lines not run"]))
    return code


if __name__ == "__main__":
    sys.exit(main())
