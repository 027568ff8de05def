"""Spans around the public functions of each fournls module, and the per-layer
metrics computed from them.

The tracer replaces a function in every fournls module that holds a reference
to it, so calls between modules are caught where the caller looks the name up
(``energy4 -> lambda_n``, the ``evolve`` inside ``error_decay_experiment``).
``numpy.fft.fft`` and ``numpy.fft.ifft`` are wrapped as well; a transform is
not a span of its own but is counted (calls, points, seconds) on the span that
is open when it runs, which keeps the trace small on runs with 10^5 steps.
Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import json
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

# (module, attribute) pairs that are wrapped; the span name is "<module>.<attribute>"
TRACED = {
    "spectral": ("to_spectrum", "to_physical", "sobolev_norm", "spectral_tail_fraction",
                 "boundary_tail_fraction", "check_resolved", "lebesgue_norm",
                 "fractional_derivative", "make_gaussian"),
    "evolution": ("evolve", "ifrk4_step", "conserved_energy", "galerkin_evolve",
                  "galerkin_rhs", "linear_propagate_4nls", "trajectory_to_csv"),
    "symmetries": ("check_scaling_covariance", "scale_transform"),
    "dispersive": ("kernel_K", "decay_fit", "flat_spectrum_datum"),
    "imethod": ("lambda_n", "energy2", "energy4", "derivative_identity_check",
                "fit_m6_constant", "almost_conservation_experiment",
                "rough_localized_datum"),
    "illposedness": ("plan_uap_discretization", "build_uap", "residual_fields",
                     "uap_tracking_error", "error_decay_experiment",
                     "separation_experiment"),
    "harness": ("run",),
}

# calls that evolve makes at record points (and once at the start, the guard)
RECORD_SPANS = {"spectral.sobolev_norm", "spectral.spectral_tail_fraction",
                "spectral.check_resolved", "evolution.conserved_energy", "spectral.Field.copy"}
NORM_SPANS = {"spectral.sobolev_norm", "spectral.spectral_tail_fraction",
              "spectral.boundary_tail_fraction"}
SCHEMES = ("mclachlan2", "strang", "ifrk4")

PER_LAYER = (
    ("spectral.fft_calls", "count"), ("spectral.fft_points", "count"),
    ("spectral.fft_s", "s"), ("spectral.fft_ns_per_point", "ns"), ("spectral.norm_s", "s"),
    *((f"evolution.steps.{s}", "count") for s in SCHEMES),
    *((f"evolution.step_us.{s}", "us") for s in SCHEMES),
    *((f"evolution.ffts_per_step.{s}", "count") for s in SCHEMES),
    ("evolution.record_s", "s"), ("evolution.galerkin_steps", "count"),
    ("evolution.galerkin_s", "s"),
    ("symmetries.covariance_s", "s"),
    ("dispersive.kernel_K_calls", "count"), ("dispersive.kernel_K_s", "s"),
    ("dispersive.decay_fit_s", "s"),
    ("imethod.lambda4_calls", "count"), ("imethod.lambda4_s", "s"),
    ("imethod.lambda6_calls", "count"), ("imethod.lambda6_s", "s"),
    ("imethod.terms", "count"), ("imethod.ns_per_term", "ns"), ("imethod.energy4_s", "s"),
    ("imethod.identity_checks", "count"), ("imethod.identity_unique_ratio", "ratio"),
    ("illposedness.build_uap_calls", "count"), ("illposedness.build_uap_s", "s"),
    ("illposedness.residual_s", "s"),
    ("harness.self_s", "s"), ("harness.bytes_written", "bytes"),
)


class Span:
    __slots__ = ("name", "parent", "t0", "t1", "info", "fft_calls", "fft_points", "fft_s")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.t0 = self.t1 = 0.0
        self.info = None
        self.fft_calls = 0
        self.fft_points = 0
        self.fft_s = 0.0

    @property
    def duration(self):
        return self.t1 - self.t0


def _evolve_info(args, kwargs, result):
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    return {"scheme": cfg.scheme, "steps": int(round(cfg.t_end / cfg.dt))}


def _galerkin_info(args, kwargs, result):
    return {"steps": int(args[4] if len(args) > 4 else kwargs.get("n_steps", 200))}


def _lambda_info(args, kwargs, result):
    fields = args[1] if len(args) > 1 else kwargs["fields"]
    return {"order": len(fields), "terms": int(result.terms)}


def _identity_info(args, kwargs, result):
    f = args[0] if args else kwargs["f"]
    return {"state": hashlib.sha256(f.values.tobytes()).hexdigest()[:16]}


def _harness_info(args, kwargs, result):
    spec = args[0] if args else kwargs["spec"]
    out = Path(kwargs.get("out_dir") or args[1]) / spec.kind
    return {"bytes": sum((out / f).stat().st_size for f in [*result.files, "report.json"])}


INFO = {
    "evolution.evolve": _evolve_info,
    "evolution.galerkin_evolve": _galerkin_info,
    "imethod.lambda_n": _lambda_info,
    "imethod.derivative_identity_check": _identity_info,
    "harness.run": _harness_info,
}


class Tracer:
    """Span recorder; ``install`` patches fournls and numpy.fft, ``remove`` undoes it."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself (a round, an operation)."""
        s = self._open(name)
        try:
            yield s
        finally:
            self._close(s)

    def _open(self, name):
        s = Span(name, self._stack[-1] if self._stack else None)
        self.spans.append(s)
        self._stack.append(s)
        s.t0 = perf_counter()
        return s

    def _close(self, s):
        s.t1 = perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        info = INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            s = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(s)
            if info is not None:
                s.info = info(args, kwargs, result)
            return result

        return traced

    def _wrap_fft(self, fn):
        stack = self._stack

        @functools.wraps(fn)
        def traced(a, *args, **kwargs):
            t0 = perf_counter()
            out = fn(a, *args, **kwargs)
            elapsed = perf_counter() - t0
            if stack:
                top = stack[-1]
                top.fft_calls += 1
                top.fft_points += out.shape[-1]
                top.fft_s += elapsed
            return out

        return traced

    # -- patching ----------------------------------------------------------

    def install(self):
        from fournls import spectral

        for mod_name in TRACED:
            importlib.import_module(f"fournls.{mod_name}")
        modules = [m for k, m in sys.modules.items()
                   if k == "fournls" or k.startswith("fournls.")]
        for mod_name, names in TRACED.items():
            mod = sys.modules[f"fournls.{mod_name}"]
            for attr in names:
                orig = getattr(mod, attr)
                wrapped = self._wrap(f"{mod_name}.{attr}", orig)
                for m in modules:
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            self._patches.append((m, key, orig))
                            setattr(m, key, wrapped)
        self._patches.append((spectral.Field, "copy", spectral.Field.copy))
        spectral.Field.copy = self._wrap("spectral.Field.copy", spectral.Field.copy)
        for attr in ("fft", "ifft"):
            orig = getattr(np.fft, attr)
            self._patches.append((np.fft, attr, orig))
            setattr(np.fft, attr, self._wrap_fft(orig))

    def remove(self):
        for obj, key, orig in reversed(self._patches):
            setattr(obj, key, orig)
        self._patches.clear()

    # -- output ------------------------------------------------------------

    def dump(self, path):
        index = {id(s): i for i, s in enumerate(self.spans)}
        rows = [
            [s.name, index[id(s.parent)] if s.parent is not None else -1,
             round(s.t0, 9), round(s.t1, 9), s.fft_calls, s.fft_points,
             round(s.fft_s, 9), s.info]
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "parent", "t0", "t1", "fft_calls",
                                   "fft_points", "fft_s", "info"], "spans": rows}, fh)


def layer_metrics(spans, rounds: int) -> dict:
    """Per-layer metrics per round of operations, from a finished trace.

    Counts and seconds are divided by ``rounds``; ratios (per step, per
    point, per term) are taken over the whole trace.  A layer that does not
    run in the workload reads 0.
    """
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append(s)

    def subtree_ffts(s):
        calls, todo = 0, [s]
        while todo:
            x = todo.pop()
            calls += x.fft_calls
            todo.extend(children.get(id(x), ()))
        return calls

    def total(name):
        return sum(s.duration for s in spans if s.name == name)

    def count(name):
        return sum(1 for s in spans if s.name == name)

    m = {}
    fft_calls = sum(s.fft_calls for s in spans)
    fft_points = sum(s.fft_points for s in spans)
    fft_s = sum(s.fft_s for s in spans)
    m["spectral.fft_calls"] = fft_calls / rounds
    m["spectral.fft_points"] = fft_points / rounds
    m["spectral.fft_s"] = fft_s / rounds
    m["spectral.fft_ns_per_point"] = 1e9 * fft_s / fft_points if fft_points else 0.0

    def outermost(names):
        # spans in ``names`` not nested in another span of ``names``
        out = []
        for s in spans:
            if s.name not in names:
                continue
            p = s.parent
            while p is not None and p.name not in names:
                p = p.parent
            if p is None:
                out.append(s)
        return out

    m["spectral.norm_s"] = sum(s.duration for s in outermost(NORM_SPANS)) / rounds

    steps = dict.fromkeys(SCHEMES, 0)
    step_s = dict.fromkeys(SCHEMES, 0.0)
    step_ffts = dict.fromkeys(SCHEMES, 0)
    record_s = 0.0
    for e in spans:
        if e.name != "evolution.evolve":
            continue
        scheme = e.info["scheme"]
        rec = [c for c in children.get(id(e), ()) if c.name in RECORD_SPANS]
        rec_time = sum(c.duration for c in rec)
        record_s += rec_time
        steps[scheme] += e.info["steps"]
        step_s[scheme] += e.duration - rec_time
        step_ffts[scheme] += subtree_ffts(e) - sum(subtree_ffts(c) for c in rec)
    for s in SCHEMES:
        m[f"evolution.steps.{s}"] = steps[s] / rounds
    for s in SCHEMES:
        m[f"evolution.step_us.{s}"] = 1e6 * step_s[s] / steps[s] if steps[s] else 0.0
    for s in SCHEMES:
        m[f"evolution.ffts_per_step.{s}"] = step_ffts[s] / steps[s] if steps[s] else 0.0
    m["evolution.record_s"] = record_s / rounds
    m["evolution.galerkin_steps"] = sum(
        s.info["steps"] for s in spans if s.name == "evolution.galerkin_evolve") / rounds
    m["evolution.galerkin_s"] = sum(
        s.duration for s in outermost({"evolution.galerkin_evolve", "evolution.galerkin_rhs"})
    ) / rounds

    m["symmetries.covariance_s"] = total("symmetries.check_scaling_covariance") / rounds
    m["dispersive.kernel_K_calls"] = count("dispersive.kernel_K") / rounds
    m["dispersive.kernel_K_s"] = total("dispersive.kernel_K") / rounds
    m["dispersive.decay_fit_s"] = total("dispersive.decay_fit") / rounds

    lam = [s for s in spans if s.name == "imethod.lambda_n"]
    lam4 = [s for s in lam if s.info["order"] == 4]
    lam6 = [s for s in lam if s.info["order"] == 6]
    terms = sum(s.info["terms"] for s in lam)
    m["imethod.lambda4_calls"] = len(lam4) / rounds
    m["imethod.lambda4_s"] = sum(s.duration for s in lam4) / rounds
    m["imethod.lambda6_calls"] = len(lam6) / rounds
    m["imethod.lambda6_s"] = sum(s.duration for s in lam6) / rounds
    m["imethod.terms"] = terms / rounds
    m["imethod.ns_per_term"] = 1e9 * sum(s.duration for s in lam) / terms if terms else 0.0
    m["imethod.energy4_s"] = total("imethod.energy4") / rounds
    checks = [s for s in spans if s.name == "imethod.derivative_identity_check"]
    m["imethod.identity_checks"] = len(checks) / rounds
    # distinct states per round: every round checks the same states again
    per_round: dict[int, set] = {}
    for s in checks:
        top = s
        while top.parent is not None:
            top = top.parent
        per_round.setdefault(id(top), set()).add(s.info["state"])
    m["imethod.identity_unique_ratio"] = (
        sum(len(v) for v in per_round.values()) / len(checks) if checks else 0.0
    )

    m["illposedness.build_uap_calls"] = count("illposedness.build_uap") / rounds
    m["illposedness.build_uap_s"] = total("illposedness.build_uap") / rounds
    m["illposedness.residual_s"] = total("illposedness.residual_fields") / rounds

    harness_self = 0.0
    harness_bytes = 0
    for h in spans:
        if h.name == "harness.run":
            inner = sum(c.duration for c in children.get(id(h), ())) + h.fft_s
            harness_self += h.duration - inner
            harness_bytes += h.info["bytes"]
    m["harness.self_s"] = harness_self / rounds
    m["harness.bytes_written"] = harness_bytes / rounds
    return m
