"""``tools/uncovered.py`` names the executable lines of ``fournls`` that the
tests it runs leave out, and only those."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

from fournls import fitting

ROOT = Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location("_uncovered_tool",
                                                  ROOT / "tools" / "uncovered.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _lines(ranges: str) -> set:
    """``"1-3, 7"`` as ``{1, 2, 3, 7}``."""
    out = set()
    for part in ranges.split(", "):
        lo, _, hi = part.partition("-")
        out.update(range(int(lo), int(hi or lo) + 1))
    return out


def test_names_the_lines_one_test_file_leaves_out():
    # test_package.py imports every module, so every module-level line runs,
    # and calls no function of fitting, so all of fit_loglog's body is left out
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "uncovered.py"), "-q", "-p", "no:cacheprovider",
         str(ROOT / "tests" / "test_package.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = proc.stdout.splitlines()
    assert re.fullmatch(r"\d+ of \d+ executable lines not run", out[-1])
    report = {name: _lines(ranges) for name, ranges in
              (line.split(": ", 1) for line in out if re.match(r"\w+\.py: \d", line))}
    code = fitting.fit_loglog.__code__
    assert report["fitting.py"] == _tool().code_lines(code) - {code.co_firstlineno}
    assert "__init__.py" not in report  # nothing but imports and __all__
