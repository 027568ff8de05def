"""Typed-error branches that no acceptance run, benchmark workload or other
test reaches: one case per branch, each raising the package's own error, or
for the command line its exit code 2, in well under a second."""

import json

import numpy as np
import pytest

from fournls import (
    ConfigError,
    EvolutionConfig,
    Field,
    IMethodParams,
    InconclusiveFitError,
    ModeSet,
    QuadratureError,
    ResolutionError,
    check_scaling_covariance,
    derivative_identity_check,
    evolve,
    galerkin_rhs,
    make_gaussian,
    make_grid,
    to_physical,
)
from fournls.cli import main as cli_main
from fournls.dispersive import decay_fit, kernel_K, strichartz_admissible
from fournls.harness import SpecValidationError, validate_spec
from fournls.illposedness import modulation_norm_check, separation_experiment
from fournls.imethod import almost_conservation_experiment
from fournls.spectral import Spectrum, check_resolved


def grid():
    return make_grid(2 * np.pi, 64)


def narrow():
    coef = np.zeros(64, dtype=np.complex128)
    coef[[1, 2, -3]] = [0.3, 0.2j, 0.1]
    return Spectrum(grid(), coef)


def packet():
    return make_gaussian(make_grid(40.0, 256), width=2.0)


def lean_final_field():
    cfg = EvolutionConfig(dt=1e-3, t_end=2e-3, record_fields=False)
    return evolve(packet(), cfg).final_field()


def sweep(data, **cfg):
    cfg = EvolutionConfig(dt=1e-3, t_end=2e-3, scheme="ifrk4", require_localized=False,
                          project_K=12, **cfg)
    return almost_conservation_experiment(data, [1, 2, 3, 4], cfg, support_K=12)


def identity_check_on_the_cubic_equation():
    derivative_identity_check(to_physical(narrow()), IMethodParams(N=2.0), EvolutionConfig(equation="cubic"),
                              ModeSet(grid(), 12))


def white_noise():
    rng = np.random.default_rng(0)
    return Field(grid(), rng.normal(size=64) + 1j * rng.normal(size=64))


CASES = {
    # evolution.py
    "unknown-scheme": (lambda: EvolutionConfig(scheme="euler"), ConfigError, "scheme"),
    "lean-record-final-field": (lean_final_field, ConfigError, "storage-lean"),
    "fractional-step-count": (
        lambda: evolve(packet(), EvolutionConfig(dt=1e-3, t_end=1.5e-3)),
        ConfigError, "integer number of steps"),
    "galerkin-support-above-cutoff": (
        lambda: galerkin_rhs(narrow(), EvolutionConfig(), 2), ConfigError, "Galerkin cutoff"),
    # spectral.py
    "sample-count": (lambda: Field(grid(), np.zeros(32)), ConfigError, "sample count"),
    "coefficient-count": (lambda: Spectrum(grid(), np.zeros(32)), ConfigError,
                          "coefficient count"),
    "spectral-tail": (lambda: check_resolved(white_noise(), localized=False),
                      ResolutionError, "spectral tail"),
    # imethod.py
    "threshold-below-one": (lambda: IMethodParams(N=0.5), ConfigError, "threshold N"),
    "cutoff-above-half-M": (lambda: ModeSet(grid(), 32), ConfigError, "K <= M/2 - 1"),
    "identity-check-cubic": (identity_check_on_the_cubic_equation, ConfigError,
                             "identity check"),
    "sweep-without-fields": (lambda: sweep([packet()], record_fields=False), ConfigError,
                             "recorded fields"),
    "sweep-of-a-zero-family": (lambda: sweep([Field(grid(), np.zeros(64))]),
                               InconclusiveFitError, "round-off floor"),
    # a lone field was iterated (a bare TypeError) and [] indexed (a bare IndexError)
    "sweep-of-a-lone-field": (lambda: sweep(packet()), ConfigError, "non-empty list of fields"),
    "sweep-of-an-empty-family": (lambda: sweep([]), ConfigError, "non-empty list of fields"),
    # dispersive.py
    "kernel-alpha-above-one": (lambda: kernel_K(1.0, 0.0, 2.0), ConfigError, "alpha"),
    "kernel-phase-span": (lambda: kernel_K(1e6, 0.0, 0.5), QuadratureError, "phase span"),
    # at x = 0 the phase slope at the cut is about 2048 t^(1/4), below 1e-8 for t < 6e-46
    "kernel-cut-at-stationary-phase": (lambda: kernel_K(1e-50, 0.0, 0.5), QuadratureError,
                                       "stationary phase"),
    "decay-wrap-around": (lambda: decay_fit(0.0, packet(), [5.0]), ResolutionError,
                          "wrap-around"),
    "strichartz-exponent-below-one": (lambda: strichartz_admissible(0.5, 2, 0), ConfigError,
                                      ">= 1"),
    # illposedness.py: each argument is checked before any arithmetic; a zero
    # carrier divided by zero, a negative one raised to a complex power and an
    # amplitude or order that is no number failed in a comparison
    "separation-zero-carrier": (lambda: separation_experiment(1.0, 1.05, -0.75, 0.0, 10.0),
                                ConfigError, "carrier frequency N must be a positive"),
    "separation-negative-carrier": (lambda: separation_experiment(1.0, 1.05, -0.75, -16.0, 10.0),
                                    ConfigError, "carrier frequency N must be a positive"),
    "separation-amplitude-not-a-number": (
        lambda: separation_experiment("x", 1.05, -0.75, 16.0, 10.0),
        ConfigError, "amplitude a must be a finite number"),
    "separation-second-amplitude-nan": (
        lambda: separation_experiment(1.0, float("nan"), -0.75, 16.0, 10.0),
        ConfigError, "amplitude a2 must be a finite number"),
    "modulation-order-not-a-number": (
        lambda: modulation_norm_check(packet(), "x", packet().grid, "carrier", [16.0]),
        ConfigError, "s must be a finite number"),
    "modulation-order-nan": (
        lambda: modulation_norm_check(packet(), float("nan"), packet().grid, "carrier", [16.0]),
        ConfigError, "s must be a finite number"),
    # elsewhere
    "unknown-modulation-sweep": (
        lambda: modulation_norm_check(packet(), -0.5, packet().grid, "phase", [1.0]),
        ConfigError, "unknown sweep"),
    "covariance-cubic": (
        lambda: check_scaling_covariance(packet(), 2.0, EvolutionConfig(equation="cubic"), 0.01),
        ConfigError, "quartic"),
    "spec-not-an-object": (lambda: validate_spec([]), SpecValidationError, "JSON object"),
    "spec-without-kind": (lambda: validate_spec({}), SpecValidationError, "'kind'"),
    "params-not-an-object": (lambda: validate_spec({"kind": "evolve", "params": []}),
                             SpecValidationError, "'params' must be an object"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", CASES)
def test_branch_raises_its_typed_error(case):
    call, error, match = CASES[case]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert match in str(info.value) or match in str(getattr(info.value, "errors", ""))


def test_a_run_failure_exits_with_code_two(tmp_path, capsys):
    # a valid spec whose run raises a ConfigError: s = -1.4 reaches no time
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"kind": "gwp-parameters", "params": {"s": -1.4}}))
    code = cli_main(["gwp-parameters", "--spec", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "run failed: iteration does not reach arbitrary times" in capsys.readouterr().err
