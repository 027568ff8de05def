"""Bitwise fingerprints of fournls outputs, to compare two source trees.

    PYTHONPATH=<tree>/src python tools/parity.py manifest OUT.json
    python tools/parity.py diff A.json B.json

``manifest`` runs the ``fournls`` found on the path and writes one JSON object,
key -> fingerprint, for:

* every harness kind at ``{"kind": k, "seed": 0}``: each leaf of its
  ``report.json`` under its own key, and the raw bytes of every other file;
* ``lambda_n`` (a real and a complex four-slot symbol, and Lambda6(M6) on the
  collapsed walk), ``energy4``, ``derivative_identity_check`` and every
  ``imethod.symbol_*`` function, at L = 2 pi and L = 7.3;
* each part of the ``evolve`` record, and of the two records of a
  two-member ``evolve_many``, for each scheme at kappa = 1, -1 and 0, on a
  k0 = 0 grid (M = 256) and a band grid (M = 250, k0 = 37), and for "ifrk4"
  also with ``project_K`` = M // 6;
* the result of every call of a function in a ``fournls`` module's
  ``__all__`` made while the criteria 01-13 of ``tests/test_acceptance.py``
  (the copy next to this script) run, keyed by test, function and call
  number.  This part takes about 40 s of the 50.

A number's fingerprint is its ``repr``; anything else is the sha256 of its raw
bytes.  A result with parts (a dataclass, list, tuple or dict) is the sha256
of its parts' fingerprints; a generator is left unconsumed.  ``diff`` prints
each key that differs or is on one side only and exits 1 if there is any.
Manifests of one tree taken at one and at two OpenBLAS threads differ only in
the key ``env/OPENBLAS_NUM_THREADS``, which records the setting.  A tree whose
``dispersive.kernel_K`` still sums with BLAS dots gives other kernel bits at
other thread counts; compare it with both sides at ``OPENBLAS_NUM_THREADS=1``.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import importlib
import inspect
import json
import numbers
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np


def fingerprint(value) -> str:
    """repr for a number, sha256 of the raw bytes (with dtype and shape) otherwise."""
    if isinstance(value, np.generic) and value.dtype.kind in "biufc":
        return repr(value.item())
    if isinstance(value, (numbers.Number, str, type(None))):
        return repr(value)
    if isinstance(value, bytes):
        return "sha256:" + hashlib.sha256(value).hexdigest()
    a = np.ascontiguousarray(value)
    if a.dtype.hasobject:  # its raw bytes would be addresses
        return "sha256:" + hashlib.sha256(repr(value).encode()).hexdigest()
    head = f"{a.dtype.str}{a.shape}".encode()
    return "sha256:" + hashlib.sha256(head + a.tobytes()).hexdigest()


def _result_fingerprint(value) -> str:
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        parts = [getattr(value, f.name) for f in dataclasses.fields(value)]
    elif isinstance(value, dict):
        parts = [x for kv in value.items() for x in kv]
    elif isinstance(value, (list, tuple)):
        parts = list(value)
    elif inspect.isgenerator(value):
        return "generator"
    else:
        return fingerprint(value)
    joined = "\n".join(_result_fingerprint(x) for x in parts).encode()
    return "sha256:" + hashlib.sha256(type(value).__name__.encode() + joined).hexdigest()


def _criteria_keys(out: dict):
    import fournls
    import pytest

    modules = [importlib.import_module(f"fournls.{q.stem}")
               for q in sorted(Path(fournls.__file__).parent.glob("*.py"))
               if not q.stem.startswith("_")]
    calls = {"test": None, "n": {}}

    def wrap(name, fn):
        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            result = fn(*args, **kwargs)
            key = (calls["test"], name)
            calls["n"][key] = i = calls["n"].get(key, 0) + 1
            out[f"criteria/{calls['test']}/{name}#{i}"] = _result_fingerprint(result)
            return result
        return recorded

    patches = []  # (namespace, attribute, original), wrapped wherever a module holds it
    for mod in modules:
        for name in getattr(mod, "__all__", ()):
            fn = getattr(mod, name)
            if not inspect.isfunction(fn):
                continue
            new = wrap(f"{mod.__name__.split('.')[-1]}.{name}", fn)
            for holder in (fournls, *modules):
                for attr, value in list(vars(holder).items()):
                    if value is fn:
                        patches.append((holder, attr, fn))
                        setattr(holder, attr, new)

    class Recorder:
        @pytest.hookimpl(hookwrapper=True)
        def pytest_runtest_protocol(self, item, nextitem):
            calls["test"] = item.nodeid
            yield

    tests = Path(__file__).resolve().parents[1] / "tests" / "test_acceptance.py"
    try:
        pytest.main([str(tests), "-q", "-p", "no:cacheprovider"], plugins=[Recorder()])
    finally:
        for holder, attr, fn in reversed(patches):
            setattr(holder, attr, fn)


def _json_leaves(prefix: str, doc, out: dict):
    if isinstance(doc, dict):
        for k, v in doc.items():
            _json_leaves(f"{prefix}.{k}", v, out)
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            _json_leaves(f"{prefix}[{i}]", v, out)
    else:
        out[prefix] = fingerprint(doc)


def _harness_keys(out: dict):
    from fournls import harness

    with tempfile.TemporaryDirectory() as tmp:
        for kind in sorted(harness.EXPERIMENT_KINDS):
            t0 = time.perf_counter()
            harness.run(harness.validate_spec({"kind": kind, "seed": 0}), out_dir=tmp)
            for path in sorted((Path(tmp) / kind).iterdir()):
                key = f"harness/{kind}/{path.name}"
                if path.name == "report.json":
                    _json_leaves(key + ":", json.loads(path.read_text()), out)
                else:
                    out[key] = fingerprint(path.read_bytes())
            print(f"  {kind}: {time.perf_counter() - t0:.1f} s", file=sys.stderr)


def _narrow_state(grid, rng, support):
    from fournls import Spectrum, to_physical

    coef = np.zeros(grid.M, dtype=np.complex128)
    ks = np.arange(-support, support + 1)
    coef[ks % grid.M] = 0.3 * (rng.normal(size=ks.size) + 1j * rng.normal(size=ks.size))
    return to_physical(Spectrum(grid, coef))


def _imethod_keys(out: dict):
    from fournls import EvolutionConfig, IMethodParams, ModeSet, imethod, make_grid

    cfg = EvolutionConfig(equation="quartic", orientation=1, kappa=1, dt=1e-5, t_end=1e-4)
    symbols = sorted(n for n in dir(imethod) if n.startswith("symbol_"))
    for name_L, L in (("2pi", 2 * np.pi), ("7.3", 7.3)):
        rng = np.random.default_rng(0)
        for K, M in ((12, 64), (40, 128)):
            modes = ModeSet(make_grid(L, M), K)
            f = _narrow_state(modes.grid, rng, K // 3)
            for N in (1.0, 2.0, 4.5):
                p = IMethodParams(N=N)
                at = f"L={name_L}/K={K}/N={N}"
                out[f"energy4/{at}"] = fingerprint(imethod.energy4(f, p, modes))
                m6 = imethod.lambda_n(imethod._m6(p), [f] * 6, modes)
                out[f"lambda_n/m6/{at}"] = fingerprint(m6.value)
                out[f"lambda_n/m6/{at}/terms"] = fingerprint(m6.terms)
            for tag, sym in (("real", lambda a, b, c, d: 1.0 + a * b - c * d),
                             ("complex", lambda a, b, c, d: (1 + 0.5j) * (a - b) ** 2 + c)):
                res = imethod.lambda_n(sym, [f] * 4, modes)
                out[f"lambda_n/{tag}/L={name_L}/K={K}"] = fingerprint(res.value)
                out[f"lambda_n/{tag}/L={name_L}/K={K}/terms"] = fingerprint(res.terms)
        modes = ModeSet(make_grid(L, 64), 12)
        chk = imethod.derivative_identity_check(_narrow_state(modes.grid, rng, 4),
                                                IMethodParams(N=2.0), cfg, modes)
        for field, value in vars(chk).items():
            out[f"derivative_identity_check/L={name_L}/{field}"] = fingerprint(value)
        # lattice tuples on the hyperplane, |k| <= 12 in the free slots
        k = rng.integers(-12, 13, size=(5, 4096))
        for name in symbols:
            fn = getattr(imethod, name)
            n_xi = sum(1 for q in inspect.signature(fn).parameters if q.startswith("xi"))
            xi = 2 * np.pi / L * np.vstack([k[:n_xi - 1], -k[:n_xi - 1].sum(axis=0)])
            if "p" not in inspect.signature(fn).parameters:
                out[f"{name}/L={name_L}"] = fingerprint(fn(*xi))
                continue
            for N in (1.0, 2.0, 4.5):
                out[f"{name}/L={name_L}/N={N}"] = fingerprint(fn(*xi, IMethodParams(N=N)))


def _packet(grid, rng):
    """A Gaussian of width 2 on the grid's local modes, at a random amplitude and center."""
    from fournls import Spectrum, to_physical

    xi = 2 * np.pi / grid.L * grid.k
    amp = (rng.normal() + 1j * rng.normal()) * 2 * np.sqrt(np.pi) / grid.L
    coef = amp * np.exp(-xi**2 - 1j * rng.uniform(-3.0, 3.0) * xi)
    return to_physical(Spectrum(grid, coef))


def _evolve_keys(out: dict):
    from fournls import EvolutionConfig, evolve, evolve_many, make_grid

    for tag, grid in (("k0=0", make_grid(40.0, 256)), ("band", make_grid(40.0, 250, 37))):
        rng = np.random.default_rng(0)
        pair = [_packet(grid, rng) for _ in range(2)]
        for scheme, K in (("strang", None), ("mclachlan2", None), ("ifrk4", None),
                          ("ifrk4", grid.M // 6)):
            for kappa in (1, -1, 0):
                cfg = EvolutionConfig(kappa=kappa, dt=1e-3, t_end=0.01, scheme=scheme,
                                      record_stride=5, sobolev_orders=(-0.5,), project_K=K)
                runs = {"evolve": evolve(pair[0], cfg)}
                runs.update((f"evolve_many[{i}]", r) for i, r in enumerate(evolve_many(pair, cfg)))
                for name, rec in runs.items():
                    for part in dataclasses.fields(rec):
                        key = f"evolve/{tag}/{scheme}/K={K}/kappa={kappa}/{name}/{part.name}"
                        out[key] = _result_fingerprint(getattr(rec, part.name))


def manifest(path: str):
    import fournls

    print(f"fournls from {Path(fournls.__file__).parent}", file=sys.stderr)
    out = {"env/OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset")}
    _imethod_keys(out)
    _evolve_keys(out)
    _harness_keys(out)
    _criteria_keys(out)
    Path(path).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"{len(out)} keys written to {path}", file=sys.stderr)


def diff(path_a: str, path_b: str) -> int:
    """Print every key that differs or is on one side only; the number of such keys."""
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    bad = 0
    for key in sorted(a.keys() | b.keys()):
        if key not in b:
            print(f"only in A: {key}")
        elif key not in a:
            print(f"only in B: {key}")
        elif a[key] != b[key]:
            print(f"differs:   {key}: {a[key]} -> {b[key]}")
        else:
            continue
        bad += 1
    print(f"{len(a.keys() | b.keys())} keys, {bad} differ")
    return bad


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 2 and argv[0] == "manifest":
        manifest(argv[1])
        return 0
    if len(argv) == 3 and argv[0] == "diff":
        return 1 if diff(argv[1], argv[2]) else 0
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
