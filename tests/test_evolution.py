import numpy as np
import pytest

from fournls import (
    AbortedRunError,
    ConfigError,
    EvolutionConfig,
    Field,
    NumericDomainError,
    )
from fournls import (
    evolve,
    galerkin_evolve,
    galerkin_rhs,
    ifrk4_step,
    linear_propagate_4nls,
    linear_propagate_nls,
    make_gaussian,
    make_grid,
    mass,
    nonlinear_substep,
    sobolev_norm,
    strang_step,
    to_physical,
    to_spectrum,
)
from fournls.evolution import MCLACHLAN_A
from fournls.spectral import Spectrum, cubic_convolution


def smooth_datum(L=60.0, M=512, width=1.5, amplitude=1.0):
    return make_gaussian(make_grid(L, M), amplitude=amplitude, width=width)


class TestLinearPropagators:
    def test_zero_time_identity(self):
        u = smooth_datum()
        for prop in (linear_propagate_4nls, linear_propagate_nls):
            out = prop(u, 0.0)
            assert np.array_equal(out.values, u.values)

    def test_single_mode_phase(self):
        g = make_grid(2 * np.pi, 32)
        k, t = 3, 0.37
        u = Field(g, np.exp(1j * k * g.x))
        out4 = linear_propagate_4nls(u, t, orientation=-1)
        expect = np.exp(-1j * t * k**4) * u.values
        assert np.max(np.abs(out4.values - expect)) < 1e-12
        out2 = linear_propagate_nls(u, t, orientation=1)
        expect2 = np.exp(1j * t * k**2) * u.values
        assert np.max(np.abs(out2.values - expect2)) < 1e-12

    def test_group_law(self):
        u = smooth_datum()
        a = linear_propagate_nls(linear_propagate_nls(u, 0.3), 0.7)
        b = linear_propagate_nls(u, 1.0)
        assert np.max(np.abs(a.values - b.values)) < 1e-12

    def test_mass_preserved_over_many_steps(self):
        u = smooth_datum()
        m0 = mass(u)
        for _ in range(1000):
            u = linear_propagate_4nls(u, 1e-3, orientation=-1)
        assert abs(mass(u) - m0) < 1e-12 * m0

    def test_sobolev_preserved(self):
        u = smooth_datum()
        out = linear_propagate_4nls(u, 0.5, orientation=1)
        for s in (-0.5, 0.0, 2.0):
            assert abs(sobolev_norm(out, s) - sobolev_norm(u, s)) < 1e-10


class TestNonlinearSubstep:
    def test_zero_dt_identity(self):
        u = smooth_datum()
        assert np.array_equal(nonlinear_substep(u, 0.0, 1).values, u.values)

    def test_modulus_pointwise_invariant(self):
        u = smooth_datum(amplitude=2.0)
        out = nonlinear_substep(u, 0.3, -1)
        assert np.max(np.abs(np.abs(out.values) - np.abs(u.values))) < 1e-14

    def test_unit_field_phase(self):
        g = make_grid(10.0, 32)
        u = Field(g, np.ones(32, dtype=complex))
        out = nonlinear_substep(u, np.pi, 1)
        assert np.max(np.abs(out.values + 1.0)) < 1e-12


class TestSteppers:
    def test_kappa_zero_matches_linear(self):
        u = smooth_datum()
        cfg = EvolutionConfig(kappa=0, dt=0.01, t_end=0.01)
        a = strang_step(u, cfg)
        b = linear_propagate_4nls(u, 0.01, orientation=-1)
        assert np.max(np.abs(a.values - b.values)) < 1e-12
        c = ifrk4_step(u, cfg)
        assert np.max(np.abs(c.values - b.values)) < 1e-12

    def test_strang_reversible(self):
        u = smooth_datum()
        fwd = strang_step(u, EvolutionConfig(dt=1e-3, t_end=1e-3))
        # stepping backwards: negate dt via the reversed linear/nonlinear phases
        g = u.grid
        back = strang_step(
            Field(g, np.conj(fwd.values)), EvolutionConfig(dt=1e-3, t_end=1e-3)
        )
        assert np.max(np.abs(np.conj(back.values) - u.values)) < 1e-11

    def test_strang_second_order_against_ifrk4(self):
        u = smooth_datum(M=256)
        t_end = 0.05
        ref_cfg = EvolutionConfig(dt=t_end / 2048, t_end=t_end, scheme="ifrk4",
                                  record_fields=True, record_stride=2048)
        ref = evolve(u, ref_cfg).final_field()
        dts = [t_end / 16, t_end / 32, t_end / 64]
        # Strang and the default McLachlan splitting are both second order
        for scheme in ("strang", "mclachlan2"):
            errs = []
            for dt in dts:
                rec = evolve(u, EvolutionConfig(dt=dt, t_end=t_end, scheme=scheme,
                                                record_fields=True,
                                                record_stride=int(round(t_end / dt))))
                diff = rec.final_field().values - ref.values
                errs.append(np.sqrt(u.grid.dx * np.sum(np.abs(diff) ** 2)))
            slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
            assert abs(slope - 2.0) <= 0.2, (scheme, slope)

    def test_mclachlan_loop_matches_unmerged_composition(self):
        # evolve merges adjacent linear substeps; the plain composition
        # L(a) P N(1/2) L(1-2a) P N(1/2) L(a), projecting P after every
        # nonlinear substep, must give the same record fields
        g = make_grid(2 * np.pi, 64)
        c = np.zeros(64, complex)
        c[1], c[-2 % 64], c[3] = 0.6, 0.4j, 0.2
        u0 = to_physical(Spectrum(g, c))
        a, dt = MCLACHLAN_A, 1e-3
        for K in (None, 4):
            cfg = EvolutionConfig(kappa=1, dt=dt, t_end=7 * dt, record_stride=3,
                                  require_localized=False, project_K=K)

            def project(f):
                if K is None:
                    return f
                spec = to_spectrum(f)
                spec.coef[np.abs(g.k) > K] = 0.0
                return to_physical(spec)

            u, expect = u0, [u0.values]
            for n in range(1, 8):
                u = linear_propagate_4nls(u, a * dt, orientation=-1)
                u = project(nonlinear_substep(u, dt / 2, 1))
                u = linear_propagate_4nls(u, (1 - 2 * a) * dt, orientation=-1)
                u = project(nonlinear_substep(u, dt / 2, 1))
                u = linear_propagate_4nls(u, a * dt, orientation=-1)
                if n % 3 == 0 or n == 7:
                    expect.append(u.values)
            got = [f.values for f in evolve(u0, cfg).fields]
            assert len(got) == len(expect) == 4
            for x, y in zip(got, expect):
                assert np.max(np.abs(x - y)) < 1e-13, K

    def test_ifrk4_fourth_order_self_refinement(self):
        # measured on the cubic equation, whose xi^2 stiffness leaves a wide
        # asymptotic window; the quartic shows the same order only at very
        # small dt (pre-asymptotic order reduction of Lawson-type schemes)
        u = smooth_datum(M=256, amplitude=2.0)
        t_end = 0.4
        ns = (8, 16, 32, 64, 128)
        sols = {}
        for n in ns:
            rec = evolve(u, EvolutionConfig(equation="cubic", kappa=-1, dt=t_end / n,
                                            t_end=t_end, scheme="ifrk4",
                                            record_fields=True, record_stride=n))
            sols[n] = rec.final_field().values
        dts, errs = [], []
        for n in ns[:-1]:
            diff = sols[n] - sols[2 * n]
            errs.append(np.sqrt(u.grid.dx * np.sum(np.abs(diff) ** 2)))
            dts.append(t_end / n)
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert abs(slope - 4.0) <= 0.3


class TestEvolve:
    def test_mass_conservation(self):
        u = smooth_datum()
        rec = evolve(u, EvolutionConfig(dt=1e-3, t_end=1.0, record_stride=100,
                                        record_fields=False))
        assert np.max(np.abs(rec.mass - rec.mass[0])) < 1e-10 * rec.mass[0]

    def test_energy_conservation_both_schemes(self):
        u = smooth_datum()
        for scheme in ("strang", "ifrk4"):
            rec = evolve(u, EvolutionConfig(dt=5e-4, t_end=0.5, scheme=scheme,
                                            record_stride=100, record_fields=False))
            drift = np.max(np.abs(rec.energy - rec.energy[0])) / abs(rec.energy[0])
            assert drift < 1e-6, (scheme, drift)

    def test_schemes_agree(self):
        u = smooth_datum()
        out = {}
        for scheme in ("strang", "ifrk4"):
            rec = evolve(u, EvolutionConfig(dt=2e-4, t_end=0.2, scheme=scheme,
                                            record_stride=1000, record_fields=True))
            out[scheme] = rec.final_field().values
        err = np.sqrt(u.grid.dx * np.sum(np.abs(out["strang"] - out["ifrk4"]) ** 2))
        assert err < 1e-6

    def test_tail_blowup_aborts_with_partial_record(self):
        # focusing run pushed far under-resolved to force a cascade
        g = make_grid(30.0, 128)
        u = make_gaussian(g, amplitude=6.0, width=1.2)
        cfg = EvolutionConfig(kappa=-1, dt=2e-3, t_end=4.0, record_stride=10,
                              start_tail_tol=1e-6)
        with pytest.raises(AbortedRunError) as exc:
            evolve(u, cfg)
        rec = exc.value.record
        assert rec.aborted
        assert len(rec.times) > 1

    def test_ifrk4_spends_eight_transforms_per_step(self, monkeypatch):
        # runs of n and 2n steps with record_stride = n_steps share their two
        # record points, so the difference counts the transforms of n steps
        calls = []

        def counted(fn):
            def wrapped(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapped

        for name in ("fft", "ifft"):
            monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name)))
        u, n, counts = smooth_datum(M=128, L=30.0), 10, []
        for steps in (n, 2 * n):
            calls.clear()
            evolve(u, EvolutionConfig(dt=1e-3, t_end=steps * 1e-3, scheme="ifrk4",
                                      record_stride=steps, record_fields=False))
            counts.append(len(calls))
        assert counts[1] - counts[0] == 8 * n

    def test_ifrk4_overflow_raises(self):
        # |u|^2 u overflows on the first step; the run must stop with the
        # package's error, not hand back non-finite fields
        u = smooth_datum(amplitude=1e120)
        cfg = EvolutionConfig(dt=1e-3, t_end=1e-2, scheme="ifrk4", record_stride=5)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericDomainError):
            evolve(u, cfg)

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError):
            EvolutionConfig(dt=-1e-3)
        with pytest.raises(ConfigError):
            EvolutionConfig(equation="quintic")
        with pytest.raises(ConfigError):
            EvolutionConfig(dt=1.0, t_end=0.5)
        with pytest.raises(ConfigError):
            EvolutionConfig(kappa=2)


class TestGalerkin:
    def grid(self):
        return make_grid(2 * np.pi, 64)

    def test_single_mode_linear(self):
        g = self.grid()
        cfg = EvolutionConfig(kappa=0)
        c = np.zeros(64, complex)
        c[3] = 0.7 + 0.2j
        rhs = galerkin_rhs(Spectrum(g, c), cfg, K=8)
        expect = -1j * 1 * 3.0**4 * c[3]
        assert abs(rhs.coef[3] - expect) < 1e-12
        assert np.max(np.abs(np.delete(rhs.coef, 3))) < 1e-14

    def test_matches_pseudospectral_cubic(self):
        g = self.grid()
        rng = np.random.default_rng(11)
        c = np.zeros(64, complex)
        for k in (-2, 1):
            c[k % 64] = rng.normal() + 1j * rng.normal()
        cfg = EvolutionConfig(kappa=1)
        K = 8
        rhs = galerkin_rhs(Spectrum(g, c), cfg, K)
        u = to_physical(Spectrum(g, c))
        cubic = Field(g, np.abs(u.values) ** 2 * u.values)
        cube_hat = to_spectrum(cubic).coef
        lin = 1j * cfg.linear_phase_rate(g.xi) * c
        expect = lin - 1j * cube_hat
        inside = np.abs(g.k) <= K
        assert np.max(np.abs(rhs.coef[inside] - expect[inside])) < 1e-12
        assert np.max(np.abs(rhs.coef[~inside])) == 0

    def test_real_even_symmetry(self):
        g = self.grid()
        c = np.zeros(64, complex)
        c[2] = c[-2 % 64] = 0.4
        c[0] = 1.0
        rhs = galerkin_rhs(Spectrum(g, c), cfg=EvolutionConfig(kappa=1), K=8).coef
        # data real and even => spectrum of i*rhs stays real and even
        assert np.max(np.abs((1j * rhs).imag)) < 1e-14
        for k in range(1, 8):
            assert abs(rhs[k] - rhs[-k % 64]) < 1e-14

    @pytest.mark.parametrize("K", [1, 3, 8])
    def test_convolution_matches_triple_index_sum(self, K):
        # reference: the (2K+1)^3 triple-index sum over k - l + m = n
        rng = np.random.default_rng(K)
        ks = np.arange(-K, K + 1)
        c = rng.normal(size=ks.size) + 1j * rng.normal(size=ks.size)
        prod = c[:, None, None] * np.conj(c)[None, :, None] * c[None, None, :]
        n = ks[:, None, None] - ks[None, :, None] + ks[None, None, :]
        full = np.zeros(6 * K + 1, dtype=np.complex128)
        np.add.at(full, n.ravel() + 3 * K, prod.ravel())
        conv = cubic_convolution(c, np.conj(c[::-1]), c)
        assert np.max(np.abs(conv - full)) < 1e-13 * np.max(np.abs(full))

        g = self.grid()
        coef = np.zeros(64, complex)
        coef[ks % 64] = c
        cfg = EvolutionConfig(kappa=1)
        rhs = galerkin_rhs(Spectrum(g, coef), cfg, K).coef[ks % 64]
        lin = 1j * cfg.linear_phase_rate(2 * np.pi / g.L * ks) * c
        expect = -1j * full[2 * K:4 * K + 1]
        assert np.max(np.abs(rhs - lin - expect)) < 1e-13 * np.max(np.abs(expect))

    def test_cutoff_above_resolution_rejected(self):
        g = self.grid()
        with pytest.raises(ConfigError):
            galerkin_rhs(Spectrum(g, np.zeros(64, complex)), EvolutionConfig(), K=40)

    def test_galerkin_tracks_full_solver(self):
        # band-limited data evolved both ways: truncation inactive while the
        # cascade stays inside |k| <= K
        g = make_grid(2 * np.pi, 64)
        c = np.zeros(64, complex)
        c[1] = 0.1
        c[-2 % 64] = 0.05j
        spec = Spectrum(g, c)
        cfg = EvolutionConfig(kappa=1, dt=1e-4, t_end=0.01)
        end = galerkin_evolve(spec, cfg, K=9, t=0.01, n_steps=400)
        rec = evolve(to_physical(spec), EvolutionConfig(
            kappa=1, dt=1e-5, t_end=0.01, scheme="ifrk4", record_stride=1000,
            record_fields=True, require_localized=False, run_tail_tol=1.0,
            start_tail_tol=1.0))
        full = to_spectrum(rec.final_field()).coef
        inside = np.abs(g.k) <= 3
        assert np.max(np.abs(end.coef[inside] - full[inside])) < 1e-7
