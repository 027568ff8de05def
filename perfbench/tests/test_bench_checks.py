"""Each correctness check of the benchmark rejects a wrong value, and the tracer
counts what it is meant to count.  None of these needs a workload run.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fournls import EvolutionConfig, evolution, imethod, make_gaussian, make_grid
from fournls.spectral import Field, Spectrum, to_physical
from perfbench import checks
from perfbench.trace import PER_LAYER, Tracer, layer_metrics

BENCH = Path(__file__).resolve().parents[1]


def passed(records):
    return all(r["passed"] for r in records)


def test_conservation_rejects_drifts_above_bounds():
    assert passed(checks.evolve_checks({"mass_drift": 5e-11, "hamiltonian_drift": 2e-10}))
    assert not passed(checks.evolve_checks({"mass_drift": 5e-11, "hamiltonian_drift": 2e-6}))
    assert not passed(checks.evolve_checks({"mass_drift": 2e-8, "hamiltonian_drift": 2e-10}))


def test_covariance_rejects_large_defects():
    assert passed(checks.covariance_checks(2.4e-7))
    assert not passed(checks.covariance_checks(1.5e-6))
    assert passed(checks.commuting_covariance_checks(0.0, 1.3))
    assert not passed(checks.commuting_covariance_checks(1e-11, 1.3))


@pytest.mark.parametrize("alpha, good, bad", [(0.0, -0.249, -0.285), (1.0, -0.499, -0.444)])
def test_decay_rejects_slopes_outside_band(alpha, good, bad):
    assert passed(checks.decay_checks(alpha, good))
    assert not passed(checks.decay_checks(alpha, bad))


def test_kernel_rejects_broken_self_similarity():
    assert passed(checks.kernel_checks(2e-11))
    assert not passed(checks.kernel_checks(2e-5))


@pytest.mark.parametrize("slope, ok", [(-2.64, True), (-1.9, False), (-4.1, False)])
def test_corrected_slope_band(slope, ok):
    assert passed(checks.almost_conservation_checks(slope, -2.6)) is ok


def test_identity_and_m6_fit_reject_wrong_values():
    assert passed(checks.identity_checks(3e-9))
    assert not passed(checks.identity_checks(2e-6))
    assert passed(checks.m6_fit_checks(4.0000002, np.array([4.0, 4.0000004])))
    assert not passed(checks.m6_fit_checks(4.002, np.array([4.002, 4.002])))
    assert not passed(checks.m6_fit_checks(4.0, np.array([3.999, 4.001])))


def _band_limited(M=64, K=8, seed=3):
    rng = np.random.default_rng(seed)
    grid = make_grid(2 * np.pi, M)
    coef = np.zeros(M, dtype=np.complex128)
    ks = np.arange(-K, K + 1)
    coef[ks % M] = rng.normal(size=ks.size) + 1j * rng.normal(size=ks.size)
    return to_physical(Spectrum(grid, coef)), imethod.ModeSet(grid, K)


def test_lambda4_quadrature_rejects_perturbed_snapshot_and_value():
    snap, modes = _band_limited()
    lam4 = imethod.lambda_n(lambda a, b, c, d: np.ones_like(a), [snap] * 4, modes).value
    assert passed(checks.lambda4_quadrature_checks(lam4, snap))
    assert not passed(checks.lambda4_quadrature_checks(lam4 * (1 + 1e-8), snap))
    perturbed = Field(snap.grid, snap.values * (1 + 1e-6))
    assert not passed(checks.lambda4_quadrature_checks(lam4, perturbed))


def test_ill_posedness_checks_reject_wrong_values():
    assert passed(checks.residual_checks(2.3e-5, 7.5e-5))
    assert not passed(checks.residual_checks(2e-3, 7.5e-3))
    assert not passed(checks.residual_checks(2.3e-5, 2.0e-5))
    assert passed(checks.tracking_checks(-1.997))
    assert not passed(checks.tracking_checks(-2.5))
    assert passed(checks.separation_checks(0.038, 0.7))
    assert not passed(checks.separation_checks(0.11, 0.7))
    assert not passed(checks.separation_checks(0.038, 0.49))


def _traced(fn):
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("bench.round"):
            fn()
    finally:
        tracer.remove()
    return layer_metrics(tracer.spans, rounds=1)


@pytest.mark.parametrize("scheme", ["strang", "mclachlan2"])
def test_tracer_counts_steps_and_transforms(scheme):
    u0 = make_gaussian(make_grid(40.0, 256), width=2.0)
    cfg = EvolutionConfig(dt=1e-3, t_end=0.02, scheme=scheme, record_stride=5,
                          record_fields=False)
    m = _traced(lambda: evolution.evolve(u0, cfg))
    assert set(m) == {name for name, _ in PER_LAYER}
    assert m[f"evolution.steps.{scheme}"] == 20
    if scheme == "strang":
        assert m["evolution.ffts_per_step.strang"] == 4.0
    else:
        # one forward transform at the start and one at each of 4 record points
        assert m["evolution.ffts_per_step.mclachlan2"] == 4.0 + 5 / 20
    assert m["evolution.record_s"] > 0
    assert np.fft.fft.__module__ == "numpy.fft"  # patches removed


def test_tracer_sees_repeated_identity_checks():
    grid = make_grid(2 * np.pi, 32)
    coef = np.zeros(32, dtype=np.complex128)
    coef[[1, 2, -1]] = [0.3, 0.2j, 0.1]
    f = to_physical(Spectrum(grid, coef))
    modes = imethod.ModeSet(grid, 6)
    p = imethod.IMethodParams(N=2.0)
    cfg = EvolutionConfig(dt=1e-5, t_end=1e-4)

    def work():
        imethod.derivative_identity_check(f, p, cfg, modes)
        imethod.fit_m6_constant([f], p, cfg, modes)

    m = _traced(work)
    assert m["imethod.identity_checks"] == 2
    assert m["imethod.identity_unique_ratio"] == 0.5
    assert m["imethod.lambda6_calls"] == 2
    assert m["evolution.galerkin_steps"] == 2 * 4 * 10


def test_run_fails_without_package_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lwp-flow", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_lists_every_per_layer_metric():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(PER_LAYER)
