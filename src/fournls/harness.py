"""Experiment specs, dispatch, persistence and report emission.

A spec is a JSON document with a ``kind`` plus kind-specific parameters;
``run`` validates it, executes the owning module, writes CSV/JSON artifacts
under the output directory and returns a report whose ``passed`` flag feeds
the CLI exit code.  Identical spec + seed reproduces byte-identical CSV
payloads: all randomness flows from one seeded generator, sweep results are
assembled in input order and floats are serialized with ``repr``.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import dispersive, illposedness, imethod, resonance
from .errors import ConfigError
from .evolution import EvolutionConfig, evolve, run_manifest, trajectory_to_csv
from .fitting import FitResult, fit_loglog
from .spectral import make_gaussian, make_grid, to_physical, Spectrum

__all__ = [
    "ExperimentSpec",
    "ReportDocument",
    "SpecValidationError",
    "parse_spec",
    "run",
    "fit_loglog",
    "EXPERIMENT_KINDS",
    "OUTPUT_ROOT_ENV",
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
        return {
            "kind": self.kind,
            "params": self.params,
            "tolerances": self.tolerances,
            "seed": self.seed,
        }


@dataclass
class ReportDocument:
    manifest: dict
    results: dict
    files: list
    passed: bool


def _float_list(v):
    return [float(x) for x in v]


def _write_csv(path: Path, header: list, rows: list) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) if isinstance(v, (int, float, np.floating))
                              else str(v) for v in row) + "\n")


def _fit_payload(fit: FitResult) -> dict:
    return {
        "slope": fit.slope,
        "intercept": fit.intercept,
        "stderr": fit.slope_stderr,
        "residual_rms": fit.residual_rms,
        "points": fit.points,
    }


# ---------------------------------------------------------------------------
# experiment runners: params -> (results payload, csv rows to persist, passed)


def _run_evolve(p, tol, rng, out):
    grid = make_grid(p.get("L", 200.0), p.get("M", 4096))
    f0 = make_gaussian(
        grid,
        amplitude=p.get("amplitude", 1.0),
        width=p.get("width", 2.0),
        carrier=p.get("carrier", 0.0),
        center=p.get("center", 0.0),
    )
    cfg = EvolutionConfig(
        equation=p.get("equation", "quartic"),
        orientation=p.get("orientation", 1),
        kappa=p.get("kappa", 1),
        dt=p.get("dt", 1e-3),
        t_end=p.get("t_end", 1.0),
        scheme=p.get("scheme", EvolutionConfig.scheme),
        record_stride=p.get("record_stride", 100),
        record_fields=False,
        sobolev_orders=tuple(p.get("sobolev_orders", (-0.5,))),
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
    ok = mass_drift < tol.get("mass_drift", 1e-8) and ham_drift < tol.get(
        "hamiltonian_drift", 1e-6
    )
    return payload, ["trajectory.csv"], ok


def _run_imethod_almost(p, tol, rng, out):
    grid = make_grid(p.get("L", 2 * np.pi), p.get("M", 512))
    support = p.get("support", 120)
    family = [
        imethod.rough_localized_datum(
            grid, rng, p.get("amplitude", 0.4), support, p.get("decay", 1.2)
        )
        for _ in range(p.get("family", 4))
    ]
    cfg = EvolutionConfig(
        equation="quartic",
        orientation=1,
        kappa=1,
        dt=p.get("dt", 5e-4),
        t_end=p.get("window", 0.5),
        scheme="ifrk4",
        record_stride=p.get("record_stride", 100),
        record_fields=True,
        require_localized=False,
        run_tail_tol=1.0,  # datum is intentionally rough; guard disabled
        start_tail_tol=1.0,
        project_K=support,  # exact dealiased truncated dynamics
    )
    res = imethod.almost_conservation_experiment(
        family, _float_list(p.get("n_values", [8, 16, 32, 64])), cfg,
        s=p.get("s", -0.5), support_K=support,
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
    lo, hi = tol.get("corrected_slope_range", (-4.0, -2.0))
    ok = lo <= res.fit_corrected.slope <= hi and (
        res.fit_corrected.slope <= res.fit_uncorrected.slope - tol.get("separation", 1.5)
    )
    return payload, ["increments.csv"], ok


def _random_narrow_state(grid, rng, support, n_modes=5, scale=0.3):
    coef = np.zeros(grid.M, dtype=np.complex128)
    ks = rng.choice(np.arange(-support, support + 1), size=n_modes, replace=False)
    for k in ks:
        coef[int(k) % grid.M] = scale * (rng.normal() + 1j * rng.normal())
    return to_physical(Spectrum(grid, coef))


def _run_derivative_identity(p, tol, rng, out):
    grid = make_grid(2 * np.pi, p.get("M", 64))
    K = p.get("K", 12)
    modes = imethod.ModeSet(grid, K)
    cfg = EvolutionConfig(equation="quartic", orientation=1, kappa=p.get("kappa", 1),
                          dt=1e-5, t_end=1e-4)
    params = imethod.IMethodParams(N=p.get("N", 2.0), s=p.get("s", -0.5))
    states = [
        _random_narrow_state(grid, rng, K // 3) for _ in range(p.get("n_states", 10))
    ]
    checks = [imethod.derivative_identity_check(f, params, cfg, modes) for f in states]
    c_fit, ratios = imethod.fit_m6_constant(states, params, cfg, modes)
    rows = [(i, c.defect2, c.defect4, c.c_estimate) for i, c in enumerate(checks)]
    _write_csv(out / "identity.csv", ["state", "defect2", "defect4", "c"], rows)
    payload = {
        "c_fitted": c_fit,
        "c_spread": float(np.max(ratios) - np.min(ratios)),
        "max_defect2": float(max(c.defect2 for c in checks)),
        "max_defect4": float(max(c.defect4 for c in checks)),
    }
    ok = (
        payload["max_defect2"] < tol.get("defect2", 1e-6)
        and payload["c_spread"] < tol.get("c_spread", 1e-3)
    )
    return payload, ["identity.csv"], ok


def _run_resonance_check(p, tol, rng, out):
    n = int(p.get("samples", 1_000_000))
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
    return payload, ["worst_tuples.csv"], worst < tol.get("residual", 1e-6)


def _run_trilinear(p, tol, rng, out):
    s = p.get("s", -1.0)
    n_values = _float_list(p.get("n_values", [16, 32, 64, 128, 256, 512]))
    res = resonance.trilinear_counterexample(n_values, s)
    rows = [(N, res.lhs[N], res.rhs[N], res.lhs[N] / res.rhs[N]) for N in n_values]
    _write_csv(out / "ratio.csv", ["N", "lhs", "rhs", "ratio"], rows)
    predicted = -2 * s - 1
    payload = {"fit": _fit_payload(res.fit), "predicted": predicted,
               "diverges": res.diverges}
    ok = abs(res.fit.slope - predicted) < tol.get("exponent", 0.15)
    return payload, ["ratio.csv"], ok


def _run_dispersive_decay(p, tol, rng, out):
    alpha = p.get("alpha", 0.0)
    grid = make_grid(p.get("L", 2400.0), p.get("M", 4096))
    datum = make_gaussian(grid, width=p.get("width", 3.0))
    times = np.geomspace(p.get("t_min", 6.0), p.get("t_max", 60.0), p.get("n_times", 12))
    fit = dispersive.decay_fit(alpha, datum, times)
    _write_csv(out / "decay.csv", ["log_t", "log_norm"], fit.points)
    predicted = -(1 + alpha) / 4
    payload = {"fit": _fit_payload(fit), "predicted": predicted}
    ok = abs(fit.slope - predicted) < tol.get("slope", 0.03 if alpha == 0 else 0.05)
    return payload, ["decay.csv"], ok


def _run_bilinear(p, tol, rng, out):
    fit = dispersive.bilinear_fit(
        p.get("n1", 2.0), _float_list(p.get("n2_values", [32, 64, 128, 256, 512]))
    )
    _write_csv(out / "bilinear.csv", ["log_n2", "log_norm"], fit.points)
    payload = {"fit": _fit_payload(fit), "predicted": -1.5}
    return payload, ["bilinear.csv"], abs(fit.slope + 1.5) < tol.get("slope", 0.15)


def _run_local_smoothing(p, tol, rng, out):
    scales = _float_list(p.get("scales", [1, 2, 4, 8, 16, 32]))
    ratios = dispersive.local_smoothing_family(scales, order=p.get("order", 1.5))
    control = dispersive.local_smoothing_family(scales, order=p.get("control_order", 2.0))
    rows = [(lam, ratios[lam], control[lam]) for lam in scales]
    _write_csv(out / "smoothing.csv", ["scale", "ratio", "control_ratio"], rows)
    vals = np.array([ratios[lam] for lam in scales])
    ctrl = np.array([control[lam] for lam in scales])
    spread = float(np.max(vals) / np.min(vals))
    growth = float(ctrl[-1] / ctrl[0])
    payload = {"ratio_spread": spread, "control_growth": growth}
    ok = spread < tol.get("spread", 2.0) and growth > tol.get("control_growth", 2.0)
    return payload, ["smoothing.csv"], ok


def _run_modulation(p, tol, rng, out):
    grid = make_grid(p.get("L", 200.0), p.get("M", 16384))
    u = lambda y: np.exp(-(y**2))
    s = p.get("s", -0.5)
    fits = {
        "carrier": illposedness.modulation_norm_check(
            u, s, grid, "carrier", _float_list(p.get("carriers", [16, 32, 64, 128]))
        ),
        "width": illposedness.modulation_norm_check(
            u, s, grid, "width", _float_list(p.get("widths", [0.5, 1, 2, 4])),
            M=p.get("base_carrier", 96.0),
        ),
        "amplitude": illposedness.modulation_norm_check(
            u, s, grid, "amplitude", _float_list(p.get("amplitudes", [0.5, 1, 2, 4])),
            M=p.get("base_carrier", 96.0),
        ),
    }
    payload = {k: _fit_payload(v) for k, v in fits.items()}
    rows = [(k, v.slope) for k, v in fits.items()]
    _write_csv(out / "modulation.csv", ["sweep", "slope"], rows)
    t = tol.get("slope", 0.05)
    ok = (
        abs(fits["carrier"].slope - s) < t
        and abs(fits["width"].slope - 0.5) < t
        and abs(fits["amplitude"].slope - 1.0) < t
    )
    return payload, ["modulation.csv"], ok


def _run_illposed_error(p, tol, rng, out):
    res = illposedness.error_decay_experiment(
        _float_list(p.get("n_values", [8, 16, 32])),
        window=p.get("window", 0.5),
        amplitude=p.get("amplitude", 1.0),
        dt=p.get("dt", 1e-3),
        profile_modes=p.get("profile_modes", 256),
        profile_length=p.get("profile_length", 40.0),
    )
    rows = sorted(res.sup_errors.items())
    _write_csv(out / "error_decay.csv", ["N", "sup_error"], rows)
    payload = {"fit": _fit_payload(res.fit)}
    return payload, ["error_decay.csv"], abs(res.fit.slope + 2.0) < tol.get("slope", 0.4)


def _run_illposed_separation(p, tol, rng, out):
    rep = illposedness.separation_experiment(
        p.get("a", 1.0),
        p.get("a2", 1.05),
        p.get("s", -0.75),
        p.get("N", 16.0),
        p.get("T", 10.0),
        dt=p.get("dt", 2e-3),
        profile_modes=p.get("profile_modes", 256),
        profile_length=p.get("profile_length", 40.0),
    )
    payload = {
        "eps": rep.eps,
        "delta": rep.delta,
        "initial_distance": rep.initial_distance,
        "sup_distance": rep.sup_distance,
        "time_of_max": rep.time_of_max,
        "lambda": rep.lam,
        "triangle_lower_bound": rep.triangle_lower_bound,
    }
    _write_csv(
        out / "separation.csv",
        ["eps", "delta", "sup_distance", "time_of_max"],
        [(rep.eps, rep.delta, rep.sup_distance, rep.time_of_max)],
    )
    ok = rep.initial_distance <= tol.get("initial", 0.1) * rep.eps and (
        rep.sup_distance >= tol.get("sup", 0.5) * rep.eps
    )
    return payload, ["separation.csv"], ok


def _run_gwp(p, tol, rng, out):
    res = imethod.gwp_parameters(
        p.get("s", -0.5), p.get("T", 100.0), p.get("u0_norm", 1.0), p.get("eps0", 0.1)
    )
    payload = {
        "lambda": res.lam,
        "N": res.N,
        "lambda_exponent": str(res.lambda_exponent),
        "time_exponent": str(res.time_exponent),
        "growth_exponent": str(res.growth_exponent),
    }
    _write_csv(out / "gwp.csv", ["lambda", "N"], [(res.lam, res.N)])
    return payload, ["gwp.csv"], True


EXPERIMENT_KINDS = {
    "evolve": _run_evolve,
    "imethod-almost": _run_imethod_almost,
    "derivative-identity": _run_derivative_identity,
    "resonance-check": _run_resonance_check,
    "trilinear-counterexample": _run_trilinear,
    "dispersive-decay": _run_dispersive_decay,
    "bilinear-fit": _run_bilinear,
    "local-smoothing": _run_local_smoothing,
    "modulation-check": _run_modulation,
    "illposed-error": _run_illposed_error,
    "illposed-separation": _run_illposed_separation,
    "gwp-parameters": _run_gwp,
}

_TOP_LEVEL_KEYS = {"kind", "params", "tolerances", "seed", "out"}


def validate_spec(doc: dict, strict: bool = False) -> ExperimentSpec:
    """Validate a raw spec document, collecting every error before raising."""
    errors = []
    if not isinstance(doc, dict):
        raise SpecValidationError(["spec document must be a JSON object"])
    kind = doc.get("kind")
    if kind is None:
        errors.append("missing required key 'kind'")
    elif kind not in EXPERIMENT_KINDS:
        errors.append(
            f"unknown experiment kind '{kind}'; valid kinds: "
            + ", ".join(sorted(EXPERIMENT_KINDS))
        )
    unknown = set(doc) - _TOP_LEVEL_KEYS
    if unknown and strict:
        errors.append(f"unknown keys in strict mode: {', '.join(sorted(unknown))}")
    params = doc.get("params", {})
    if not isinstance(params, dict):
        errors.append("'params' must be an object")
        params = {}
    seed = doc.get("seed", 0)
    if not isinstance(seed, int) or seed < 0:
        errors.append(f"'seed' must be a non-negative integer, got {seed!r}")
        seed = 0
    M = params.get("M")
    if M is not None and (not isinstance(M, int) or M % 2 != 0 or M < 8):
        errors.append(f"params.M must be an even integer >= 8, got {M!r}")
    L = params.get("L")
    if L is not None and not (isinstance(L, (int, float)) and L > 0):
        errors.append(f"params.L must be positive, got {L!r}")
    dt = params.get("dt")
    if dt is not None and not (isinstance(dt, (int, float)) and dt > 0):
        errors.append(f"params.dt must be positive, got {dt!r}")
    if errors:
        raise SpecValidationError(errors)
    return ExperimentSpec(
        kind=kind,
        params=params,
        tolerances=doc.get("tolerances", {}),
        seed=seed,
        out=doc.get("out"),
    )


def parse_spec(path, strict: bool = False) -> ExperimentSpec:
    """Read and validate a JSON experiment spec."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise SpecValidationError([f"invalid JSON: {e}"]) from e
    return validate_spec(doc, strict=strict)


def run(
    spec: ExperimentSpec,
    out_dir=None,
    seed: int | None = None,
) -> ReportDocument:
    """Dispatch a validated spec, persist artifacts and report pass/fail."""
    root = Path(out_dir or spec.out or os.environ.get(OUTPUT_ROOT_ENV, "runs"))
    out = root / spec.kind
    out.mkdir(parents=True, exist_ok=True)
    use_seed = spec.seed if seed is None else seed
    rng = np.random.default_rng(use_seed)
    runner = EXPERIMENT_KINDS[spec.kind]
    payload, files, passed = runner(spec.params, spec.tolerances, rng, out)
    spec_echo = spec.echo()
    spec_echo["seed"] = use_seed
    manifest = {
        "tool": TOOL_VERSION,
        "spec": spec_echo,
        "spec_sha256": hashlib.sha256(
            json.dumps(spec_echo, sort_keys=True).encode()
        ).hexdigest(),
    }
    report = ReportDocument(
        manifest=manifest,
        results=payload,
        files=sorted(files),
        passed=bool(passed),
    )
    with open(out / "report.json", "w") as fh:
        json.dump(
            {
                "manifest": report.manifest,
                "results": report.results,
                "files": report.files,
                "passed": report.passed,
            },
            fh,
            indent=2,
            sort_keys=True,
        )
    return report
