"""Every exported name resolves, and so does every function the perfbench tracer wraps.

The tracer (``perfbench/trace.py``) looks each ``(module, attr)`` of its
``TRACED`` table up with ``getattr`` when a traced run starts, so a name
removed from the package would only fail there, at run time.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import fournls

MODULES = sorted(p.stem for p in Path(fournls.__file__).parent.glob("*.py")
                 if not p.stem.startswith("_"))


def _traced():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "trace.py"
    spec = importlib.util.spec_from_file_location("_perfbench_trace", path)
    trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace)
    return [(mod, attr) for mod, names in trace.TRACED.items() for attr in names]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(f"fournls.{name}")
    missing = [attr for attr in getattr(mod, "__all__", ()) if not hasattr(mod, attr)]
    assert not missing, f"fournls.{name}.__all__ names missing attributes: {missing}"


def test_traced_names_resolve():
    pairs = _traced()
    assert pairs
    missing = [f"{mod}.{attr}" for mod, attr in pairs
               if not hasattr(importlib.import_module(f"fournls.{mod}"), attr)]
    assert not missing, f"perfbench TRACED names missing from fournls: {missing}"
