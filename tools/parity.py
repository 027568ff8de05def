"""Bitwise fingerprints of fournls outputs, to compare two source trees.

    PYTHONPATH=<tree>/src python tools/parity.py manifest OUT.json
    python tools/parity.py diff A.json B.json
    python tools/parity.py diff REV

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
* ``galerkin_rhs``, and ``galerkin_evolve`` forward and backward in time, at
  kappa = 1, -1 and 0, on a k0 = 0 grid and a band grid (M = 64, K = 8);
* the result of every call of a function in a ``fournls`` module's
  ``__all__`` made while the criteria 01-13 of ``tests/test_acceptance.py``
  (the copy next to this script) run, keyed by test, function and call
  number.  This part takes about 40 s of the 50.

A number's fingerprint is its ``repr``; anything else is the sha256 of its raw
bytes.  A result with parts (a dataclass, list, tuple or dict) is the sha256
of its parts' fingerprints; a generator is left unconsumed.  Next to OUT.json,
OUT.npz keeps each numeric array of at most ``ARRAY_CAP`` elements and the
part list of each result with parts, keyed by fingerprint.  ``diff`` prints
each key that differs or is on one side only and exits 1 if there is any.
Where both sides of a differing key are numbers it also prints their
relative difference |a - b| / max(|a|, |b|).  Where they are arrays, or
results whose differing parts are numbers and arrays of one shape, it
prints the largest such difference over the elements, and the largest
|a - b| against the array's peak: round-off in a coefficient near zero reads
large in the first and at eps in the second.  It compares the criteria calls
of each test and function as two call sequences (``difflib``), so a call that
one side adds or drops shows as that call only ("only in A: …#n"), and a
changed call that sits at another number in B as "…#n (#m in B)".  Calls
that differ only in order, the same fingerprints as multisets, show as one
line and count as one key ("reordered: …/<function> (n calls, same
fingerprints)").

``diff REV`` compares the git revision REV (A) with the working tree (B).  It
extracts REV with ``git archive`` and copies the working tree's ``src``,
``tests``, ``tools`` and ``pyproject.toml`` into two sibling directories of a
temporary directory, so both trees sit at paths of the same length.  It then
builds the two manifests one process at a time, each with the working tree's
copy of this script and its ``tests/test_acceptance.py``, and diffs them.  An
unknown REV exits 2 before any manifest is built.
Manifests of one tree taken at one and at two OpenBLAS threads differ only in
the key ``env/OPENBLAS_NUM_THREADS``, which records the setting.  A tree whose
``dispersive.kernel_K`` still sums with BLAS dots gives other kernel bits at
other thread counts; compare it with both sides at ``OPENBLAS_NUM_THREADS=1``.
"""

from __future__ import annotations

import dataclasses
import difflib
import functools
import hashlib
import importlib
import inspect
import json
import numbers
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np


ARRAY_CAP = 2**16  # elements of the largest array a manifest keeps for the diff


class Kept:
    """The arrays, and the part lists of results with parts, by fingerprint:
    what ``diff`` reads, next to a manifest, to measure a differing key."""

    def __init__(self, arrays=None, parts=None):
        self.arrays, self.parts = arrays or {}, parts or {}

    def save(self, manifest_path) -> None:
        arrays = {fp.removeprefix("sha256:"): a for fp, a in self.arrays.items()}
        np.savez(Path(manifest_path).with_suffix(".npz"), parts=np.array(json.dumps(self.parts)),
                 **arrays)

    @classmethod
    def load(cls, manifest_path) -> "Kept":
        """What ``save`` wrote next to the manifest; empty if it wrote nothing there."""
        side = Path(manifest_path).with_suffix(".npz")
        if not side.is_file():
            return cls()
        with np.load(side) as z:
            return cls({"sha256:" + k: z[k] for k in z.files if k != "parts"},
                       json.loads(str(z["parts"])))


def fingerprint(value, kept: Kept | None = None) -> str:
    """repr for a number, sha256 of the raw bytes (with dtype and shape) otherwise;
    a numeric array of at most ``ARRAY_CAP`` elements goes into ``kept``."""
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
    fp = "sha256:" + hashlib.sha256(head + a.tobytes()).hexdigest()
    if kept is not None and a.dtype.kind in "biufc" and a.size <= ARRAY_CAP:
        kept.arrays.setdefault(fp, a.copy())
    return fp


def _result_fingerprint(value, kept: Kept | None = None) -> str:
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        parts = [getattr(value, f.name) for f in dataclasses.fields(value)]
    elif isinstance(value, dict):
        parts = [x for kv in value.items() for x in kv]
    elif isinstance(value, (list, tuple)):
        parts = list(value)
    elif inspect.isgenerator(value):
        return "generator"
    else:
        return fingerprint(value, kept)
    fps = [_result_fingerprint(x, kept) for x in parts]
    fp = "sha256:" + hashlib.sha256(type(value).__name__.encode()
                                    + "\n".join(fps).encode()).hexdigest()
    if kept is not None:
        kept.parts.setdefault(fp, fps)
    return fp


def _criteria_keys(out: dict, kept: Kept | None = None):
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
            out[f"criteria/{calls['test']}/{name}#{i}"] = _result_fingerprint(result, kept)
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


def _imethod_keys(out: dict, kept: Kept | None = None):
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
                out[f"energy4/{at}"] = fingerprint(imethod.energy4(f, p, modes), kept)
                m6 = imethod.lambda_n(imethod._m6(p), [f] * 6, modes)
                out[f"lambda_n/m6/{at}"] = fingerprint(m6.value, kept)
                out[f"lambda_n/m6/{at}/terms"] = fingerprint(m6.terms, kept)
            for tag, sym in (("real", lambda a, b, c, d: 1.0 + a * b - c * d),
                             ("complex", lambda a, b, c, d: (1 + 0.5j) * (a - b) ** 2 + c)):
                res = imethod.lambda_n(sym, [f] * 4, modes)
                out[f"lambda_n/{tag}/L={name_L}/K={K}"] = fingerprint(res.value, kept)
                out[f"lambda_n/{tag}/L={name_L}/K={K}/terms"] = fingerprint(res.terms, kept)
        modes = ModeSet(make_grid(L, 64), 12)
        chk = imethod.derivative_identity_check(_narrow_state(modes.grid, rng, 4),
                                                IMethodParams(N=2.0), cfg, modes)
        for field, value in vars(chk).items():
            out[f"derivative_identity_check/L={name_L}/{field}"] = fingerprint(value, kept)
        # lattice tuples on the hyperplane, |k| <= 12 in the free slots
        k = rng.integers(-12, 13, size=(5, 4096))
        for name in symbols:
            fn = getattr(imethod, name)
            n_xi = sum(1 for q in inspect.signature(fn).parameters if q.startswith("xi"))
            xi = 2 * np.pi / L * np.vstack([k[:n_xi - 1], -k[:n_xi - 1].sum(axis=0)])
            if "p" not in inspect.signature(fn).parameters:
                out[f"{name}/L={name_L}"] = fingerprint(fn(*xi), kept)
                continue
            for N in (1.0, 2.0, 4.5):
                value = fn(*xi, IMethodParams(N=N))
                out[f"{name}/L={name_L}/N={N}"] = fingerprint(value, kept)


def _packet(grid, rng):
    """A Gaussian of width 2 on the grid's local modes, at a random amplitude and center."""
    from fournls import Spectrum, to_physical

    xi = 2 * np.pi / grid.L * grid.k
    amp = (rng.normal() + 1j * rng.normal()) * 2 * np.sqrt(np.pi) / grid.L
    coef = amp * np.exp(-xi**2 - 1j * rng.uniform(-3.0, 3.0) * xi)
    return to_physical(Spectrum(grid, coef))


def _evolve_keys(out: dict, kept: Kept | None = None):
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
                        out[key] = _result_fingerprint(getattr(rec, part.name), kept)


def _galerkin_keys(out: dict, kept: Kept | None = None):
    from fournls import EvolutionConfig, Spectrum, galerkin_evolve, galerkin_rhs, make_grid

    K = 8
    ks = np.arange(-K, K + 1)
    for tag, grid in (("k0=0", make_grid(2 * np.pi, 64)), ("band", make_grid(9.0, 64, 23))):
        rng = np.random.default_rng(0)
        coef = np.zeros(grid.M, dtype=np.complex128)
        coef[ks] = 0.3 * (rng.normal(size=ks.size) + 1j * rng.normal(size=ks.size))
        s = Spectrum(grid, coef)
        for kappa in (1, -1, 0):
            cfg = EvolutionConfig(kappa=kappa)
            rhs = galerkin_rhs(s, cfg, K).coef
            out[f"galerkin_rhs/{tag}/kappa={kappa}"] = fingerprint(rhs, kept)
            for t in (0.01, -0.01):
                end = galerkin_evolve(s, cfg, K, t, n_steps=20)
                out[f"galerkin_evolve/{tag}/kappa={kappa}/t={t}"] = fingerprint(end.coef, kept)


def manifest(path: str):
    import fournls

    print(f"fournls from {Path(fournls.__file__).parent}", file=sys.stderr)
    out = {"env/OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset")}
    kept = Kept()
    _imethod_keys(out, kept)
    _evolve_keys(out, kept)
    _galerkin_keys(out, kept)
    _harness_keys(out)  # report leaves are numbers and strings, other files raw bytes
    _criteria_keys(out, kept)
    Path(path).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    kept.save(path)
    print(f"{len(out)} keys written to {path}", file=sys.stderr)


def _number(fp: str):
    """The number a fingerprint is the repr of, or None for any other fingerprint."""
    try:
        return complex(fp)
    except ValueError:
        return None


def relative_difference(fp_a: str, fp_b: str):
    """|a - b| / max(|a|, |b|) of two number fingerprints (0 for two zeros), else None."""
    a, b = _number(fp_a), _number(fp_b)
    if a is None or b is None:
        return None
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


def _leaves(fp: str, kept: Kept) -> list:
    """The fingerprints of the numbers, arrays and other leaves under ``fp``."""
    parts = kept.parts.get(fp)
    return [fp] if parts is None else [x for p in parts for x in _leaves(p, kept)]


def array_difference(fp_a: str, fp_b: str, kept_a: Kept, kept_b: Kept):
    """``(elementwise, peak)``: the largest |a - b| / max(|a|, |b|) over the
    elements of two kept arrays, and the largest |a - b| over the larger of
    the two peaks max |a|, max |b|; over the differing leaves of two results,
    each a pair of numbers or of kept arrays of one shape, the largest of
    each.  None where some differing leaf is neither."""
    leaves_a, leaves_b = _leaves(fp_a, kept_a), _leaves(fp_b, kept_b)
    if len(leaves_a) != len(leaves_b):
        return None
    worst = (0.0, 0.0)
    for la, lb in zip(leaves_a, leaves_b):
        if la == lb:
            continue
        rel = relative_difference(la, lb)
        if rel is not None:
            worst = (max(worst[0], rel), max(worst[1], rel))
            continue
        a, b = kept_a.arrays.get(la), kept_b.arrays.get(lb)
        if a is None or b is None or a.shape != b.shape:
            return None
        a, b = a.astype(np.complex128), b.astype(np.complex128)
        scale, gap = np.maximum(np.abs(a), np.abs(b)), np.abs(a - b)
        elementwise = np.max(gap / np.where(scale > 0, scale, 1.0), initial=0.0)
        peak = np.max(scale, initial=0.0)
        worst = (max(worst[0], float(elementwise)),
                 max(worst[1], float(np.max(gap, initial=0.0) / peak) if peak else 0.0))
    return worst


def _differs(key: str, fp_a: str, fp_b: str, kept_a: Kept, kept_b: Kept) -> str:
    line = f"differs:   {key}: {fp_a} -> {fp_b}"
    rel = relative_difference(fp_a, fp_b)
    if rel is not None:
        return line + f" (relative {rel:.3g})"
    rel = array_difference(fp_a, fp_b, kept_a, kept_b)
    return line + ("" if rel is None else
                   f" (largest relative {rel[0]:.3g}, against the peak {rel[1]:.3g})")


def _call_sequences(doc: dict) -> dict:
    """"criteria/<test>/<function>" -> the fingerprints of its calls, in call order."""
    calls = {}
    for key, fp in doc.items():
        if key.startswith("criteria/"):
            head, n = key.rsplit("#", 1)
            calls.setdefault(head, []).append((int(n), fp))
    return {head: [fp for _, fp in sorted(seq)] for head, seq in calls.items()}


def _call_report(head: str, seq_a: list, seq_b: list, kept_a: Kept, kept_b: Kept) -> list:
    """(sort key, line) for each call of ``head`` that one side adds, drops or changes;
    one line for the whole sequence when the two sides only order the calls apart."""
    if seq_a != seq_b and sorted(seq_a) == sorted(seq_b):
        return [(head, f"reordered: {head} ({len(seq_a)} calls, same fingerprints)")]
    out = []
    matcher = difflib.SequenceMatcher(None, seq_a, seq_b, autojunk=False)
    for op, i1, i2, j1, j2 in matcher.get_opcodes():
        if op == "equal":
            continue
        pairs = min(i2 - i1, j2 - j1)
        for i, j in zip(range(i1, i1 + pairs), range(j1, j1 + pairs)):
            key = f"{head}#{i + 1}" + ("" if i == j else f" (#{j + 1} in B)")
            out.append((key, _differs(key, seq_a[i], seq_b[j], kept_a, kept_b)))
        out += [(f"{head}#{i + 1}", f"only in A: {head}#{i + 1}") for i in range(i1 + pairs, i2)]
        out += [(f"{head}#{j + 1}", f"only in B: {head}#{j + 1}") for j in range(j1 + pairs, j2)]
    return out


def diff(path_a: str, path_b: str) -> int:
    """Print every key that differs or is on one side only; the number of such keys.

    The criteria calls of each test and function are compared as sequences, so
    a call that one side adds or drops is reported as that call alone, not as
    a renumbering of every later call."""
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    kept_a, kept_b = Kept.load(path_a), Kept.load(path_b)
    report = []
    for key in (a.keys() | b.keys()):
        if key.startswith("criteria/"):
            continue
        if key not in b:
            report.append((key, f"only in A: {key}"))
        elif key not in a:
            report.append((key, f"only in B: {key}"))
        elif a[key] != b[key]:
            report.append((key, _differs(key, a[key], b[key], kept_a, kept_b)))
    calls_a, calls_b = _call_sequences(a), _call_sequences(b)
    for head in calls_a.keys() | calls_b.keys():
        report += _call_report(head, calls_a.get(head, []), calls_b.get(head, []),
                               kept_a, kept_b)
    for _, line in sorted(report):
        print(line)
    print(f"{len(a.keys() | b.keys())} keys, {len(report)} differ")
    return len(report)


ROOT = Path(__file__).resolve().parents[1]
WORKING_TREE = ("src", "tests", "tools", "pyproject.toml")


def _extract(rev: str, dest: Path) -> None:
    """Write the files of git revision ``rev`` of this checkout under ``dest``."""
    archive = dest.with_suffix(".tar")
    with open(archive, "wb") as fh:
        done = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                              stdout=fh, stderr=subprocess.PIPE)
    if done.returncode:
        raise ValueError(f"git archive {rev}: {done.stderr.decode().strip()}")
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")


def _copy_working_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
    for name in WORKING_TREE:
        if (ROOT / name).is_dir():
            shutil.copytree(ROOT / name, dest / name, ignore=ignore)
        else:
            shutil.copy2(ROOT / name, dest / name)


def _build_manifest(tree: Path, tool: Path, out: Path) -> None:
    """Run ``tool manifest out`` in a fresh process on the ``fournls`` of ``tree``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    subprocess.run([sys.executable, str(tool), "manifest", str(out)], env=env, cwd=tree,
                   check=True)


def diff_rev(rev: str) -> int:
    """``diff`` of the manifests of revision ``rev`` (A) and of the working tree (B);
    the exit code: 1 if any key differs, 2 for a revision git cannot archive."""
    with tempfile.TemporaryDirectory(prefix="parity-") as tmp:
        rev_tree, work_tree = Path(tmp) / "rev", Path(tmp) / "cur"  # names of one length
        rev_tree.mkdir()
        try:
            _extract(rev, rev_tree)
        except ValueError as e:
            print(e, file=sys.stderr)
            return 2
        _copy_working_tree(work_tree)
        tool = work_tree / "tools" / "parity.py"
        for tree in (rev_tree, work_tree):
            _build_manifest(tree, tool, tree.with_suffix(".json"))
        a, b = (str(tree.with_suffix(".json")) for tree in (rev_tree, work_tree))
        return 1 if diff(a, b) else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 2 and argv[0] == "manifest":
        manifest(argv[1])
        return 0
    if len(argv) == 3 and argv[0] == "diff":
        return 1 if diff(argv[1], argv[2]) else 0
    if len(argv) == 2 and argv[0] == "diff":
        return diff_rev(argv[1])
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
