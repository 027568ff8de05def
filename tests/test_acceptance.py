"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Tolerances are pinned here, not configurable.
"""

import numpy as np
import pytest
import sympy as sp

import fournls
from fournls import (
    EvolutionConfig,
    IMethodParams,
    ModeSet,
    evolve,
    make_gaussian,
    make_grid,
    scale_transform,
    sobolev_norm,
)
from fournls.dispersive import (
    bilinear_fit,
    decay_fit,
    flat_spectrum_datum,
    kernel_K,
    strichartz_admissible,
)
from fournls.harness import ExperimentSpec, run, validate_spec, SpecValidationError
from fournls.illposedness import (
    SolitonProfile,
    error_decay_experiment,
    modulation_norm_check,
    plan_uap_discretization,
    residual_fields,
    separation_experiment,
)
from fournls.imethod import (
    almost_conservation_experiment,
    derivative_identity_check,
    gwp_parameters,
    m6_constant_from_checks,
    rough_localized_datum,
)
from fournls.resonance import (
    resonance_lhs,
    resonance_product_signed,
    sample_hyperplane,
    trilinear_counterexample,
)
from fournls.spectral import Field, Spectrum, to_physical


def report(num, name, ok, detail):
    print(f"\n[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


class TestCriterion01Conservation:
    def test_mass_and_hamiltonian_drift(self):
        u0 = make_gaussian(make_grid(200.0, 4096), amplitude=1.0, width=2.0)
        cfg = EvolutionConfig(kappa=1, dt=1e-4, t_end=10.0, record_stride=2000,
                              record_fields=False)
        rec = evolve(u0, cfg)
        mass_drift = float(np.max(np.abs(rec.mass - rec.mass[0])) / rec.mass[0])
        ham_drift = float(np.max(np.abs(rec.energy - rec.energy[0])) / abs(rec.energy[0]))
        ok = mass_drift < 1e-8 and ham_drift < 1e-6
        report(1, "conservation over [0, 10]", ok,
               f"mass drift {mass_drift:.2e} (<1e-8), "
               f"hamiltonian drift {ham_drift:.2e} (<1e-6)")
        assert mass_drift < 1e-8
        assert ham_drift < 1e-6


class TestCriterion02ScalingCovariance:
    def test_covariance_and_norm_scaling(self):
        from dataclasses import replace
        from fournls import check_scaling_covariance

        u0 = make_gaussian(make_grid(80.0, 512), amplitude=1.2, width=2.0, carrier=2.0)
        lam, t, dt = 2.0, 0.02, 3.125e-5
        cfg = EvolutionConfig(dt=dt, t_end=1.0, record_stride=1000)
        defect = check_scaling_covariance(u0, lam, cfg, t=t)

        # measured discretization error of the scaled-data run (step halving)
        scaled0 = scale_transform(u0, lam)
        ends = {}
        for d in (dt, dt / 2):
            rec = evolve(scaled0, replace(cfg, dt=d, t_end=t, record_fields=True,
                                          record_stride=int(round(t / d))))
            ends[d] = rec.final_field()
        disc = sobolev_norm(
            Field(ends[dt].grid, ends[dt].values - ends[dt / 2].values), 0.0
        ) * 4 / 3

        ratios_ok = True
        details = []
        for s in (-0.5, -1.0, 0.5):
            got = sobolev_norm(scale_transform(u0, lam), s, homogeneous=True) / (
                sobolev_norm(u0, s, homogeneous=True)
            )
            want = lam ** (s + 1.5)
            ratios_ok &= abs(got / want - 1.0) < 1e-6
            details.append(f"s={s}: exp err {abs(got / want - 1):.1e}")
        crit = sobolev_norm(scale_transform(u0, lam), -1.5, homogeneous=True) / (
            sobolev_norm(u0, -1.5, homogeneous=True)
        )
        ok = defect <= 2 * disc and defect < 1e-6 and ratios_ok and abs(crit - 1) < 1e-8
        report(2, "scaling covariance and norm exponents", ok,
               f"defect {defect:.2e} vs measured disc err {disc:.2e}, "
               f"critical ratio err {abs(crit - 1):.1e}, " + "; ".join(details))
        assert defect <= 2 * disc
        assert defect < 1e-6
        assert ratios_ok
        assert abs(crit - 1.0) < 1e-8


class TestCriterion03ResonanceAlgebra:
    def test_symbolic_and_sampled(self):
        x1, x2, x3 = sp.symbols("x1 x2 x3")
        x4 = -x1 - x2 - x3
        lhs = x1**4 - x2**4 + x3**4 - x4**4
        quad = x1**2 + x2**2 + x3**2 + x4**2 + 2 * (x1 + x3) ** 2
        symbolic_zero = sp.expand(lhs - (x1 + x2) * (x1 + x4) * quad) == 0

        rng = np.random.default_rng(42)
        a, b, c, d = sample_hyperplane(rng, 1_000_000)
        resid = np.abs(resonance_lhs(a, b, c, d) - resonance_product_signed(a, b, c, d))
        scale = np.maximum.reduce([np.abs(v) for v in (a, b, c, d)]) ** 4
        worst = float(np.max(resid / scale))
        ok = symbolic_zero and worst < 1e-6
        report(3, "resonance factorization", ok,
               f"symbolic residual zero: {symbolic_zero}, "
               f"max relative residual over 1e6 samples {worst:.2e} (<1e-6)")
        assert symbolic_zero
        assert worst < 1e-6


class TestCriterion04DerivativeIdentities:
    def test_oracle_identities(self):
        grid = make_grid(2 * np.pi, 64)
        modes = ModeSet(grid, 12)
        p = IMethodParams(N=2.0, s=-0.5)
        cfg = EvolutionConfig(equation="quartic", orientation=1, kappa=1,
                              dt=1e-5, t_end=1e-4)
        rng = np.random.default_rng(123)
        states = []
        for _ in range(10):
            coef = np.zeros(64, dtype=np.complex128)
            ks = rng.choice(np.arange(-4, 5), size=5, replace=False)
            for k in ks:
                coef[int(k) % 64] = 0.3 * (rng.normal() + 1j * rng.normal())
            states.append(to_physical(Spectrum(grid, coef)))
        checks = [derivative_identity_check(f, p, cfg, modes) for f in states]
        worst2 = max(c.defect2 for c in checks)
        c_fit, ratios = m6_constant_from_checks(checks)
        spread = float(np.max(ratios) - np.min(ratios))
        ok = worst2 < 1e-6 and spread < 1e-3 and abs(c_fit - 4.0) < 1e-3
        report(4, "modified-energy derivative identities", ok,
               f"max defect2 {worst2:.2e} (<1e-6), fitted c {c_fit:.6f} "
               f"(paper 4), spread {spread:.2e} (<1e-3) over 10 states")
        assert worst2 < 1e-6
        assert spread < 1e-3
        assert abs(c_fit - 4.0) < 1e-3


class TestCriterion05AlmostConservation:
    def test_increment_decay_sweep(self):
        rng = np.random.default_rng(0)
        grid = make_grid(2 * np.pi, 512)
        family = [rough_localized_datum(grid, rng) for _ in range(4)]
        cfg = EvolutionConfig(equation="quartic", orientation=1, kappa=1, dt=5e-4,
                              t_end=0.5, scheme="ifrk4", record_stride=125,
                              record_fields=True, require_localized=False,
                              run_tail_tol=1.0, start_tail_tol=1.0, project_K=120)
        res = almost_conservation_experiment(
            family, [8.0, 16.0, 32.0, 64.0], cfg, support_K=120
        )
        slope4 = res.fit_corrected.slope
        slope2 = res.fit_uncorrected.slope
        in_band = -4.0 <= slope4 <= -2.0
        separated = slope4 <= slope2 - 1.5
        sep_note = (
            "ok" if separated else
            "NOT MET: on this fixed data the variation of Re Lambda4(sigma4) "
            "is 1e-2..4e-5 of the E2 increment and decays like N^-5.35, so both "
            "series are the same six-linear drift; see CHANGES.md"
        )
        report(5, "almost conservation N-sweep", in_band and separated,
               f"corrected slope {slope4:.3f} (target -3 +/- 1: "
               f"{'ok' if in_band else 'out'}), uncorrected slope {slope2:.3f}, "
               f"separation {slope2 - slope4:.3f} (>= 1.5 required: {sep_note})")
        assert in_band
        assert separated, (
            "slope separation not realizable on fixed Cauchy data: the sigma4 "
            "boundary term is too small to move the E4 slope; measurements in "
            "CHANGES.md"
        )


class TestCriterion06TrilinearCounterexample:
    def test_exponent_law_and_sign_flip(self):
        slopes = {}
        ok = True
        for s in (0.0, -0.5, -1.0):
            res = trilinear_counterexample([16, 32, 64, 128, 256, 512], s)
            slopes[s] = res.fit.slope
            ok &= abs(res.fit.slope - (-2 * s - 1)) < 0.15
        flips = slopes[0.0] < -0.5 and abs(slopes[-0.5]) < 0.15 and slopes[-1.0] > 0.5
        ok &= flips
        report(6, "trilinear counterexample scaling", ok,
               ", ".join(f"s={s}: slope {v:+.3f} (want {-2 * s - 1:+.1f})"
                         for s, v in slopes.items()) +
               f"; sign flip across s=-1/2: {flips}")
        for s, v in slopes.items():
            assert abs(v - (-2 * s - 1)) < 0.15, (s, v)
        assert flips


class TestCriterion07DispersiveDecay:
    def test_decay_slopes_and_kernel(self):
        datum = flat_spectrum_datum(make_grid(6000.0, 16384))
        times = np.geomspace(4.0, 40.0, 12)
        fit0 = decay_fit(0.0, datum, times)
        fit1 = decay_fit(1.0, datum, times)
        worst = 0.0
        for alpha in (0.0, 1.0):
            for t in (0.5, 2.0, 4.0):
                for x in (-20.0, 0.0, 15.0):
                    lhs = kernel_K(t, x, alpha)
                    rhs = t ** (-(alpha + 1) / 4) * kernel_K(1.0, x * t**-0.25, alpha)
                    worst = max(worst, abs(lhs - rhs))
        ok = (abs(fit0.slope + 0.25) < 0.03 and abs(fit1.slope + 0.5) < 0.05
              and worst < 1e-5 and fit0.residual_rms < 0.05)
        report(7, "dispersive decay exponents", ok,
               f"alpha=0 slope {fit0.slope:+.4f} (-0.25 +/- 0.03), "
               f"alpha=1 slope {fit1.slope:+.4f} (-0.50 +/- 0.05), "
               f"kernel self-similarity {worst:.1e} (<1e-5)")
        assert abs(fit0.slope + 0.25) < 0.03
        assert abs(fit1.slope + 0.5) < 0.05
        assert worst < 1e-5


class TestCriterion08BilinearStrichartz:
    def test_high_frequency_decay(self):
        fit = bilinear_fit(2.0, [32, 64, 128, 256, 512])
        ok = abs(fit.slope + 1.5) < 0.15 and fit.residual_rms < 0.05
        report(8, "bilinear interaction decay", ok,
               f"slope {fit.slope:+.4f} (-1.5 +/- 0.15), rms {fit.residual_rms:.4f}")
        assert abs(fit.slope + 1.5) < 0.15
        assert fit.residual_rms < 0.05


class TestCriterion09StrichartzAdmissibility:
    def test_exact_pairs(self):
        from fractions import Fraction
        from math import inf

        good = (
            strichartz_admissible(4, inf, 1)
            and strichartz_admissible(8, inf, 0)
            and all(strichartz_admissible(inf, 2, a) for a in (0, Fraction(1, 2), 1))
        )
        bad = (not strichartz_admissible(2, inf, 0)
               and not strichartz_admissible(8, 9, Fraction(1, 3))
               and not strichartz_admissible(8, 1, 0))
        ok = good and bad
        report(9, "Strichartz admissibility arithmetic", ok,
               f"reference pairs admissible: {good}, violations rejected: {bad}")
        assert good
        assert bad


class TestCriterion10Illposedness:
    def test_residual_identity(self):
        setup = plan_uap_discretization(8.0, profile_length=40.0, profile_modes=256)
        prof = SolitonProfile(1.0, setup.grid_v)
        fine = residual_fields(prof, setup, t=0.3, fd_step=1e-5)
        coarse = residual_fields(prof, setup, t=0.3, fd_step=1e-4)
        ok = fine.relative_defect < 1e-3 and fine.relative_defect < coarse.relative_defect
        report(10, "ill-posedness: residual identity", ok,
               f"defect {fine.relative_defect:.2e} (<1e-3) at fd step 1e-5, "
               f"improving from {coarse.relative_defect:.2e} at 1e-4")
        assert fine.relative_defect < 1e-3
        assert fine.relative_defect < coarse.relative_defect

    def test_error_decay(self):
        res = error_decay_experiment([8, 16, 32, 64], window=0.5, dt=2e-3,
                                     profile_modes=256, profile_length=40.0,
                                     n_records=10)
        ok = abs(res.fit.slope + 2.0) < 0.4
        report(10, "ill-posedness: tracking-error decay", ok,
               f"slope {res.fit.slope:+.3f} (-2.0 +/- 0.4) over N in 8..64")
        assert abs(res.fit.slope + 2.0) < 0.4

    def test_separation(self):
        rep = separation_experiment(1.0, 1.05, -0.75, 16.0, T=10.0, dt=4e-3,
                                    profile_modes=256, profile_length=40.0,
                                    n_records=40)
        init_ratio = rep.initial_distance / rep.eps
        sup_ratio = rep.sup_distance / rep.eps
        ok = init_ratio <= 0.1 and sup_ratio >= 0.5
        report(10, "ill-posedness: two-solution separation", ok,
               f"initial distance {init_ratio:.3f} eps (<=0.1), "
               f"sup distance {sup_ratio:.3f} eps (>=0.5) at scaled "
               f"t={rep.time_of_max:.3f}")
        assert init_ratio <= 0.1
        assert sup_ratio >= 0.5


class TestCriterion11ModulationNorms:
    def test_three_sweeps(self):
        grid = make_grid(200.0, 16384)
        u = lambda y: np.exp(-(y**2))
        carrier = modulation_norm_check(u, -0.5, grid, "carrier", [16, 32, 64, 128])
        width = modulation_norm_check(u, -0.5, grid, "width", [0.5, 1, 2, 4], M=96.0)
        amp = modulation_norm_check(u, -0.5, grid, "amplitude", [0.5, 1, 2, 4], M=96.0)
        ok = (abs(carrier.slope + 0.5) < 0.05 and abs(width.slope - 0.5) < 0.05
              and abs(amp.slope - 1.0) < 0.05)
        report(11, "modulation norm exponents", ok,
               f"carrier {carrier.slope:+.4f} (s=-0.5), width {width.slope:+.4f} "
               f"(1/2), amplitude {amp.slope:+.4f} (1); all +/- 0.05")
        assert abs(carrier.slope + 0.5) < 0.05
        assert abs(width.slope - 0.5) < 0.05
        assert abs(amp.slope - 1.0) < 0.05


class TestCriterion12GwpArithmetic:
    def test_exact_rationals(self):
        from fractions import Fraction

        res = gwp_parameters(Fraction(-1, 2), T=100.0, u0_norm=1.0, eps0=1.0)
        ok = (res.lambda_exponent == Fraction(1, 2)
              and res.time_exponent == Fraction(1)
              and res.growth_exponent == Fraction(1, 2)
              and abs(res.lam - res.N**0.5) < 1e-9)
        report(12, "rescaling arithmetic at s=-1/2", ok,
               f"lambda ~ N^{res.lambda_exponent}, N^{res.time_exponent} ~ T, "
               f"growth exponent {res.growth_exponent} (all exact rationals)")
        assert res.lambda_exponent == Fraction(1, 2)
        assert res.time_exponent == Fraction(1)
        assert res.growth_exponent == Fraction(1, 2)


class TestCriterion13HarnessDeterminism:
    def test_byte_identical_and_full_validation(self, tmp_path):
        spec = ExperimentSpec(kind="resonance-check", params={"samples": 50000}, seed=11)
        run(spec, out_dir=tmp_path / "a")
        run(spec, out_dir=tmp_path / "b")
        a = (tmp_path / "a" / "resonance-check" / "worst_tuples.csv").read_bytes()
        b = (tmp_path / "b" / "resonance-check" / "worst_tuples.csv").read_bytes()
        identical = a == b

        try:
            validate_spec({"kind": "nope", "params": {"M": 9, "L": 0}, "seed": -2})
            n_errors = 0
        except SpecValidationError as e:
            n_errors = len(e.errors)
        ok = identical and n_errors >= 4
        report(13, "harness determinism and validation", ok,
               f"byte-identical CSVs: {identical}, "
               f"validation errors collected in one pass: {n_errors}")
        assert identical
        assert n_errors >= 4
