"""Experiment specs, dispatch, persistence and report emission.

A spec is a JSON document with a ``kind`` plus kind-specific parameters;
``run`` validates it, executes the owning module, writes CSV/JSON artifacts
under the output directory and returns a report whose ``passed`` flag feeds
the CLI exit code.  Identical spec + seed reproduces byte-identical CSV
payloads: all randomness flows from one seeded generator, sweep results are
assembled in input order and floats are serialized with ``repr``.

``EXPERIMENT_KINDS`` is the one source of defaults, and of types.  Each
kind's entry holds its runner and the default of every ``params`` and
``tolerances`` key the runner reads.  Validation accepts exactly those keys,
each with a value of its default's type (a tuple default takes a list of
finite numbers, an int an integer, a str a string, a float a finite number
and None null or a finite number; bools are not numbers), and reports every
other key or value, one error per key, in one pass.  ``run`` merges the
defaults under the spec's values, and the runners index the merged dicts,
so a key missing from a table fails at once with ``KeyError``.  The report
echoes only the keys the spec gave.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import dispersive, illposedness, imethod, resonance
from .errors import ConfigError, is_integer, is_real
from .evolution import EvolutionConfig, _write_csv, evolve, run_manifest, trajectory_to_csv
from .fitting import FitResult
from .spectral import make_gaussian, make_grid, to_physical, Spectrum

__all__ = [
    "ExperimentKind", "ExperimentSpec", "ReportDocument", "SpecValidationError",
    "parse_spec", "run", "EXPERIMENT_KINDS", "OUTPUT_ROOT_ENV",
]

OUTPUT_ROOT_ENV = "FOURNLS_OUT"
TOOL_VERSION = "fournls 0.1.0"


class SpecValidationError(ConfigError):
    """Carries every validation problem found in one pass."""

    def __init__(self, errors):
        super().__init__("; ".join(errors))
        self.errors = list(errors)


@dataclass
class ExperimentSpec:
    kind: str
    params: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    seed: int = 0
    out: str | None = None

    def echo(self) -> dict:
        return {"kind": self.kind, "params": self.params, "tolerances": self.tolerances,
                "seed": self.seed}


@dataclass
class ReportDocument:
    manifest: dict
    results: dict
    files: list
    passed: bool


@dataclass(frozen=True)
class ExperimentKind:
    """A runner, ``(params, tolerances, rng, out) -> (payload, files, passed)``,
    and the default of every params and tolerances key it reads."""

    runner: Callable
    params: dict
    tolerances: dict


EXPERIMENT_KINDS: dict[str, ExperimentKind] = {}


def _kind(name: str, params: dict, tolerances: dict):
    """Register the decorated runner under ``name`` with its defaults tables."""
    def register(runner):
        EXPERIMENT_KINDS[name] = ExperimentKind(runner, params, tolerances)
        return runner
    return register


def _fit_payload(fit: FitResult) -> dict:
    return {
        "slope": fit.slope,
        "intercept": fit.intercept,
        "stderr": fit.slope_stderr,
        "residual_rms": fit.residual_rms,
        "points": fit.points,
    }


# ---------------------------------------------------------------------------
# experiment runners, each registered with its defaults tables


# the evolve keys whose defaults are EvolutionConfig's own
_CONFIG_KEYS = ("equation", "orientation", "kappa", "dt", "t_end", "scheme")


@_kind("evolve",
       params=dict(L=200.0, M=4096, amplitude=1.0, width=2.0, carrier=0.0, center=0.0,
                   record_stride=100, sobolev_orders=(-0.5,),
                   **{k: getattr(EvolutionConfig, k) for k in _CONFIG_KEYS}),
       tolerances=dict(mass_drift=1e-8, hamiltonian_drift=1e-6))
def _run_evolve(p, tol, rng, out):
    grid = make_grid(p["L"], p["M"])
    f0 = make_gaussian(grid, amplitude=p["amplitude"], width=p["width"],
                       carrier=p["carrier"], center=p["center"])
    cfg = EvolutionConfig(
        **{k: p[k] for k in _CONFIG_KEYS},
        record_stride=p["record_stride"],
        record_fields=False,
        sobolev_orders=tuple(p["sobolev_orders"]),
    )
    rec = evolve(f0, cfg)
    trajectory_to_csv(rec, out / "trajectory.csv")
    mass_drift = float(np.max(np.abs(rec.mass - rec.mass[0])) / rec.mass[0])
    ham_drift = float(np.max(np.abs(rec.energy - rec.energy[0])) / abs(rec.energy[0]))
    payload = {
        "mass_drift": mass_drift,
        "hamiltonian_drift": ham_drift,
        "manifest": run_manifest(f0, cfg),
    }
    ok = mass_drift < tol["mass_drift"] and ham_drift < tol["hamiltonian_drift"]
    return payload, ["trajectory.csv"], ok


@_kind("imethod-almost",
       params=dict(L=2 * np.pi, M=512, support=120, amplitude=0.4, decay=1.2, family=4,
                   dt=5e-4, window=0.5, record_stride=100, n_values=(8, 16, 32, 64),
                   s=-0.5),
       tolerances=dict(corrected_slope_range=(-4.0, -2.0), separation=1.5))
def _run_imethod_almost(p, tol, rng, out):
    grid = make_grid(p["L"], p["M"])
    support = p["support"]
    family = [
        imethod.rough_localized_datum(grid, rng, p["amplitude"], support, p["decay"])
        for _ in range(p["family"])
    ]
    cfg = EvolutionConfig(
        equation="quartic", orientation=1, kappa=1, dt=p["dt"], t_end=p["window"],
        scheme="ifrk4", record_stride=p["record_stride"], record_fields=True,
        require_localized=False,
        run_tail_tol=1.0,  # datum is intentionally rough; guard disabled
        start_tail_tol=1.0,
        project_K=support,  # exact dealiased truncated dynamics
    )
    res = imethod.almost_conservation_experiment(
        family, p["n_values"], cfg, s=p["s"], support_K=support,
    )
    rows = [
        (N, res.increments_corrected[N], res.increments_uncorrected[N])
        for N in sorted(res.increments_corrected)
    ]
    _write_csv(out / "increments.csv", ["N", "corrected", "uncorrected"], rows)
    payload = {
        "fit_corrected": _fit_payload(res.fit_corrected),
        "fit_uncorrected": _fit_payload(res.fit_uncorrected),
    }
    lo, hi = tol["corrected_slope_range"]
    ok = lo <= res.fit_corrected.slope <= hi and (
        res.fit_corrected.slope <= res.fit_uncorrected.slope - tol["separation"]
    )
    return payload, ["increments.csv"], ok


def _random_narrow_state(grid, rng, support):
    coef = np.zeros(grid.M, dtype=np.complex128)
    ks = rng.choice(np.arange(-support, support + 1), size=5, replace=False)
    for k in ks:
        coef[int(k) % grid.M] = 0.3 * (rng.normal() + 1j * rng.normal())
    return to_physical(Spectrum(grid, coef))


@_kind("derivative-identity",
       params=dict(M=64, K=12, kappa=1, N=2.0, s=-0.5, n_states=10),
       tolerances=dict(defect2=1e-6, c_spread=1e-3))
def _run_derivative_identity(p, tol, rng, out):
    grid = make_grid(2 * np.pi, p["M"])
    K = p["K"]
    modes = imethod.ModeSet(grid, K)
    cfg = EvolutionConfig(equation="quartic", orientation=1, kappa=p["kappa"],
                          dt=1e-5, t_end=1e-4)
    params = imethod.IMethodParams(N=p["N"], s=p["s"])
    states = [_random_narrow_state(grid, rng, K // 3) for _ in range(p["n_states"])]
    checks = [imethod.derivative_identity_check(f, params, cfg, modes) for f in states]
    c_fit, ratios = imethod.m6_constant_from_checks(checks)
    rows = [(i, c.defect2, c.defect4, c.c_estimate) for i, c in enumerate(checks)]
    _write_csv(out / "identity.csv", ["state", "defect2", "defect4", "c"], rows)
    payload = {
        "c_fitted": c_fit,
        "c_spread": float(np.max(ratios) - np.min(ratios)),
        "max_defect2": float(max(c.defect2 for c in checks)),
        "max_defect4": float(max(c.defect4 for c in checks)),
    }
    ok = payload["max_defect2"] < tol["defect2"] and payload["c_spread"] < tol["c_spread"]
    return payload, ["identity.csv"], ok


@_kind("resonance-check", params=dict(samples=1_000_000), tolerances=dict(residual=1e-6))
def _run_resonance_check(p, tol, rng, out):
    n = p["samples"]
    x1, x2, x3, x4 = resonance.sample_hyperplane(rng, n)
    lhs = resonance.resonance_lhs(x1, x2, x3, x4)
    rhs = resonance.resonance_product_signed(x1, x2, x3, x4)
    scale = np.maximum.reduce([np.abs(x) for x in (x1, x2, x3, x4)]) ** 4
    rel = np.abs(lhs - rhs) / scale
    worst = float(np.max(rel))
    idx = np.argsort(rel)[-16:]
    rows = [(x1[i], x2[i], x3[i], x4[i], rel[i]) for i in idx]
    _write_csv(out / "worst_tuples.csv", ["xi1", "xi2", "xi3", "xi4", "rel"], rows)
    payload = {"samples": n, "max_relative_residual": worst}
    return payload, ["worst_tuples.csv"], worst < tol["residual"]


@_kind("trilinear-counterexample",
       params=dict(s=-1.0, n_values=(16, 32, 64, 128, 256, 512)),
       tolerances=dict(exponent=0.15))
def _run_trilinear(p, tol, rng, out):
    s = p["s"]
    n_values = p["n_values"]
    res = resonance.trilinear_counterexample(n_values, s)
    rows = [(N, res.lhs[N], res.rhs[N], res.lhs[N] / res.rhs[N]) for N in n_values]
    _write_csv(out / "ratio.csv", ["N", "lhs", "rhs", "ratio"], rows)
    predicted = -2 * s - 1
    payload = {"fit": _fit_payload(res.fit), "predicted": predicted,
               "diverges": res.diverges}
    ok = abs(res.fit.slope - predicted) < tol["exponent"]
    return payload, ["ratio.csv"], ok


@_kind("dispersive-decay",
       params=dict(alpha=0.0, L=6000.0, M=16384, sigma=1.2, t_min=4.0, t_max=40.0,
                   n_times=12),
       tolerances=dict(slope=None))
def _run_dispersive_decay(p, tol, rng, out):
    alpha = p["alpha"]
    grid = make_grid(p["L"], p["M"])
    datum = dispersive.flat_spectrum_datum(grid, sigma=p["sigma"])
    times = np.geomspace(p["t_min"], p["t_max"], p["n_times"])
    fit = dispersive.decay_fit(alpha, datum, times)
    _write_csv(out / "decay.csv", ["log_t", "log_norm"], fit.points)
    predicted = -(1 + alpha) / 4
    payload = {"fit": _fit_payload(fit), "predicted": predicted}
    bound = tol["slope"]
    if bound is None:  # the default slope bound depends on alpha
        bound = 0.03 if alpha == 0 else 0.05
    return payload, ["decay.csv"], abs(fit.slope - predicted) < bound


@_kind("bilinear-fit",
       params=dict(n1=2.0, n2_values=(32, 64, 128, 256, 512)),
       tolerances=dict(slope=0.15))
def _run_bilinear(p, tol, rng, out):
    fit = dispersive.bilinear_fit(p["n1"], p["n2_values"])
    _write_csv(out / "bilinear.csv", ["log_n2", "log_norm"], fit.points)
    payload = {"fit": _fit_payload(fit), "predicted": -1.5}
    return payload, ["bilinear.csv"], abs(fit.slope + 1.5) < tol["slope"]


@_kind("local-smoothing",
       params=dict(scales=(1, 2, 4, 8, 16, 32), order=1.5, control_order=2.0),
       tolerances=dict(spread=2.0, control_growth=2.0))
def _run_local_smoothing(p, tol, rng, out):
    scales = p["scales"]
    ratios = dispersive.local_smoothing_family(scales, order=p["order"])
    control = dispersive.local_smoothing_family(scales, order=p["control_order"])
    rows = [(lam, ratios[lam], control[lam]) for lam in scales]
    _write_csv(out / "smoothing.csv", ["scale", "ratio", "control_ratio"], rows)
    vals = np.array([ratios[lam] for lam in scales])
    ctrl = np.array([control[lam] for lam in scales])
    spread = float(np.max(vals) / np.min(vals))
    growth = float(ctrl[-1] / ctrl[0])
    payload = {"ratio_spread": spread, "control_growth": growth}
    ok = spread < tol["spread"] and growth > tol["control_growth"]
    return payload, ["smoothing.csv"], ok


@_kind("modulation-check",
       params=dict(L=200.0, M=16384, s=-0.5, carriers=(16, 32, 64, 128),
                   widths=(0.5, 1, 2, 4), amplitudes=(0.5, 1, 2, 4), base_carrier=96.0),
       tolerances=dict(slope=0.05))
def _run_modulation(p, tol, rng, out):
    grid = make_grid(p["L"], p["M"])
    u = lambda y: np.exp(-(y**2))
    s = p["s"]
    fits = {
        "carrier": illposedness.modulation_norm_check(
            u, s, grid, "carrier", p["carriers"]
        ),
        "width": illposedness.modulation_norm_check(
            u, s, grid, "width", p["widths"], M=p["base_carrier"],
        ),
        "amplitude": illposedness.modulation_norm_check(
            u, s, grid, "amplitude", p["amplitudes"], M=p["base_carrier"],
        ),
    }
    payload = {k: _fit_payload(v) for k, v in fits.items()}
    rows = [(k, v.slope) for k, v in fits.items()]
    _write_csv(out / "modulation.csv", ["sweep", "slope"], rows)
    t = tol["slope"]
    ok = (
        abs(fits["carrier"].slope - s) < t
        and abs(fits["width"].slope - 0.5) < t
        and abs(fits["amplitude"].slope - 1.0) < t
    )
    return payload, ["modulation.csv"], ok


@_kind("illposed-error",
       params=dict(n_values=(8, 16, 32, 64), window=0.5, amplitude=1.0, dt=1e-3,
                   profile_modes=256, profile_length=40.0),
       tolerances=dict(slope=0.4))
def _run_illposed_error(p, tol, rng, out):
    res = illposedness.error_decay_experiment(
        p["n_values"],
        window=p["window"],
        amplitude=p["amplitude"],
        dt=p["dt"],
        profile_modes=p["profile_modes"],
        profile_length=p["profile_length"],
    )
    rows = sorted(res.sup_errors.items())
    _write_csv(out / "error_decay.csv", ["N", "sup_error"], rows)
    payload = {"fit": _fit_payload(res.fit)}
    return payload, ["error_decay.csv"], abs(res.fit.slope + 2.0) < tol["slope"]


@_kind("illposed-separation",
       params=dict(a=1.0, a2=1.05, s=-0.75, N=16.0, T=10.0, dt=2e-3, profile_modes=256,
                   profile_length=40.0),
       tolerances=dict(initial=0.1, sup=0.5))
def _run_illposed_separation(p, tol, rng, out):
    rep = illposedness.separation_experiment(
        p["a"], p["a2"], p["s"], p["N"], p["T"], dt=p["dt"],
        profile_modes=p["profile_modes"], profile_length=p["profile_length"],
    )
    payload = {
        "eps": rep.eps, "delta": rep.initial_distance,
        "sup_distance": rep.sup_distance, "time_of_max": rep.time_of_max,
        "lambda": rep.lam, "triangle_lower_bound": rep.triangle_lower_bound,
    }
    _write_csv(
        out / "separation.csv",
        ["eps", "delta", "sup_distance", "time_of_max"],
        [(rep.eps, rep.initial_distance, rep.sup_distance, rep.time_of_max)],
    )
    ok = rep.initial_distance <= tol["initial"] * rep.eps and (
        rep.sup_distance >= tol["sup"] * rep.eps
    )
    return payload, ["separation.csv"], ok


@_kind("gwp-parameters", params=dict(s=-0.5, T=100.0, u0_norm=1.0, eps0=0.1),
       tolerances={})
def _run_gwp(p, tol, rng, out):
    res = imethod.gwp_parameters(p["s"], p["T"], p["u0_norm"], p["eps0"])
    payload = {
        "lambda": res.lam,
        "N": res.N,
        "lambda_exponent": str(res.lambda_exponent),
        "time_exponent": str(res.time_exponent),
        "growth_exponent": str(res.growth_exponent),
    }
    _write_csv(out / "gwp.csv", ["lambda", "N"], [(res.lam, res.N)])
    return payload, ["gwp.csv"], True


# ---------------------------------------------------------------------------
# validation and dispatch

_TOP_LEVEL_KEYS = ("kind", "params", "tolerances", "seed", "out")


def _is_numbers(v) -> bool:
    return isinstance(v, (list, tuple)) and all(is_real(x) for x in v)


# what a value must be, and the test of it, by the type of its default
_TYPES = {
    tuple: ("a list of finite numbers", _is_numbers),
    int: ("an integer", is_integer),
    float: ("a finite number", is_real),
    type(None): ("null or a finite number", lambda v: v is None or is_real(v)),
    str: ("a string", lambda v: isinstance(v, str)),
}


# keys whose values every kind restricts beyond the type of their default
_DOMAINS = {
    "M": ("an even integer >= 8", lambda v: is_integer(v) and v % 2 == 0 and v >= 8),
    "L": ("a positive finite number", lambda v: is_real(v) and v > 0),
    "dt": ("a positive finite number", lambda v: is_real(v) and v > 0),
    "corrected_slope_range": ("a list of two finite numbers",
                              lambda v: _is_numbers(v) and len(v) == 2),
}


def _value_errors(kind: str, params: dict, tolerances: dict, out=None) -> list:
    """One error per params or tolerances key that ``kind``'s tables lack, or
    whose value is not of its default's type or outside its ``_DOMAINS`` entry,
    and one if the output root ``out`` is neither None nor a non-empty path
    string.  For an unknown ``kind`` only the ``_DOMAINS`` entries are checked."""
    entry = EXPERIMENT_KINDS.get(kind) if isinstance(kind, str) else None
    errors = [] if out is None or (isinstance(out, str) and out) else [
        f"'out' must be a non-empty path string, got {out!r}"]
    for section, given in (("params", params), ("tolerances", tolerances)):
        accepted = getattr(entry, section, None)
        for key, v in sorted(given.items()):
            if accepted is not None and key not in accepted:
                errors.append(f"unknown {section} key '{key}' for kind '{kind}'; accepted: "
                              + (", ".join(sorted(accepted)) or "none"))
                continue
            if key in _DOMAINS:
                want, ok = _DOMAINS[key]
            elif accepted is not None:
                want, ok = _TYPES[type(accepted[key])]
            else:
                continue
            if not ok(v):
                errors.append(f"{section}.{key} must be {want}, got {v!r}")
    return errors


def validate_spec(doc: dict) -> ExperimentSpec:
    """Validate a raw spec document, collecting every error before raising."""
    errors = []
    if not isinstance(doc, dict):
        raise SpecValidationError(["spec document must be a JSON object"])
    kind = doc.get("kind")
    if kind is None:
        errors.append("missing required key 'kind'")
    elif not isinstance(kind, str) or kind not in EXPERIMENT_KINDS:
        errors.append(
            f"unknown experiment kind '{kind}'; valid kinds: "
            + ", ".join(sorted(EXPERIMENT_KINDS))
        )
    for key in sorted(set(doc) - set(_TOP_LEVEL_KEYS)):
        errors.append(f"unknown top-level key '{key}'; accepted: "
                      + ", ".join(_TOP_LEVEL_KEYS))
    params = doc.get("params", {})
    if not isinstance(params, dict):
        errors.append("'params' must be an object")
        params = {}
    tolerances = doc.get("tolerances", {})
    if not isinstance(tolerances, dict):
        errors.append("'tolerances' must be an object")
        tolerances = {}
    errors += _value_errors(kind, params, tolerances, doc.get("out"))
    seed = doc.get("seed", 0)
    if not is_integer(seed) or seed < 0:
        errors.append(f"'seed' must be a non-negative integer, got {seed!r}")
        seed = 0
    if errors:
        raise SpecValidationError(errors)
    return ExperimentSpec(kind=kind, params=params, tolerances=tolerances, seed=seed,
                          out=doc.get("out"))


def parse_spec(path) -> ExperimentSpec:
    """Read and validate a JSON experiment spec."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise SpecValidationError([f"invalid JSON: {e}"]) from e
    return validate_spec(doc)


def run(spec: ExperimentSpec, out_dir=None, seed: int | None = None) -> ReportDocument:
    """Dispatch a spec, persist artifacts and report pass/fail.

    The kind's defaults fill every key the spec leaves out; a key outside
    the kind's tables, a value not of its default's type, or a bad ``out``
    raises ``SpecValidationError``, also for a spec built without ``validate_spec``.
    """
    entry = EXPERIMENT_KINDS[spec.kind]
    errors = _value_errors(spec.kind, spec.params, spec.tolerances, spec.out)
    if errors:
        raise SpecValidationError(errors)
    root = Path(out_dir or spec.out or os.environ.get(OUTPUT_ROOT_ENV, "runs"))
    out = root / spec.kind
    out.mkdir(parents=True, exist_ok=True)
    use_seed = spec.seed if seed is None else seed
    rng = np.random.default_rng(use_seed)
    payload, files, passed = entry.runner(
        {**entry.params, **spec.params}, {**entry.tolerances, **spec.tolerances}, rng, out
    )
    spec_echo = spec.echo()
    spec_echo["seed"] = use_seed
    manifest = {
        "tool": TOOL_VERSION,
        "spec": spec_echo,
        "spec_sha256": hashlib.sha256(
            json.dumps(spec_echo, sort_keys=True).encode()
        ).hexdigest(),
    }
    report = ReportDocument(manifest, payload, sorted(files), bool(passed))
    with open(out / "report.json", "w") as fh:
        json.dump(asdict(report), fh, indent=2, sort_keys=True)
    return report
