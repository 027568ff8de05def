import warnings

import numpy as np
import pytest

from fournls import ConfigError, evolve, illposedness, make_grid, mass, sobolev_norm
from fournls.illposedness import (
    SolitonProfile,
    _solver_config,
    _uap_on,
    build_uap,
    error_decay_experiment,
    modulated_profile,
    modulation_norm_check,
    plan_uap_discretization,
    residual_fields,
    separation_experiment,
    uap_tracking_error,
)
from fournls.spectral import Field, to_physical, to_spectrum
from fournls.spectral import Spectrum


def small_setup(N=8.0):
    return plan_uap_discretization(N, profile_length=40.0, profile_modes=256)


class TestPlanUapDiscretization:
    def test_grid_multiplier_is_the_next_5_smooth_integer(self):
        smooth = sorted(2**a * 3**b * 5**c for a in range(12) for b in range(8) for c in range(6))
        sizes = {}
        for N in (8, 12, 16, 32, 64):
            setup = small_setup(float(N))
            M4 = setup.grid4.M
            assert M4 % 256 == 0
            # the required multiplier: Nyquist at 4 N with 2 % to spare, in
            # units of the profile grid
            m4_needed = setup.grid4.L * (4.0 * setup.N) / np.pi
            required = int(np.ceil(m4_needed * 1.02 / 256))
            assert M4 // 256 == next(m for m in smooth if m >= required)
            sizes[N] = M4
        # at N = 8, 12 and 16 the required multiplier is 5-smooth already; at
        # 32 and 64 it is 509 and 4 * 509, rounded up to 512 and 2048
        assert sizes == {8: 8192, 12: 18432, 16: 32768, 32: 131072, 64: 524288}

    @pytest.mark.parametrize("N", [4.0, 7.9])
    def test_carrier_below_8_rejected(self, N):
        # the snapped carrier stays below 8 even after its one-mode nudge
        with pytest.raises(ConfigError, match="carrier frequency must be >= 8"):
            small_setup(N)

    @pytest.mark.parametrize("N", ["16", True, np.nan])
    def test_non_number_carrier_rejected(self, N):
        with pytest.raises(ConfigError, match="carrier frequency N must be"):
            small_setup(N)


class TestSolitonProfile:
    def test_solves_profile_equation(self):
        # i v_s - v_yy - |v|^2 v = 0 checked spectrally with an FD clock
        setup = small_setup()
        prof = SolitonProfile(1.3, setup.grid_v)
        h = 1e-6
        t = 0.37
        v = prof.value(t)
        v_t = (prof.value(t + h).values - prof.value(t - h).values) / (2 * h)
        spec = to_spectrum(v)
        v_yy = to_physical(
            Spectrum(v.grid, spec.coef * (1j * v.grid.xi) ** 2)
        ).values
        resid = 1j * v_t - v_yy - np.abs(v.values) ** 2 * v.values
        assert np.max(np.abs(resid)) < 1e-8

    def test_short_domain_rejected(self):
        with pytest.raises(ConfigError):
            SolitonProfile(0.5, make_grid(20.0, 128))


class TestBuildUap:
    def test_initial_data_form(self):
        # U_ap(0, x) = e^{iNx} v(0, x/(sqrt6 N))
        setup = small_setup()
        prof = SolitonProfile(1.0, setup.grid_v)
        u0 = build_uap(prof, setup, 0.0)
        N = setup.N
        x = setup.grid4.x
        a = prof.amplitude
        expect = np.exp(1j * N * x) * np.sqrt(2) * a / np.cosh(
            a * x / (np.sqrt(6) * N)
        )
        # agreement up to the soliton's periodization seam (~ e^{-a Lv/2})
        assert np.max(np.abs(u0.values - expect)) < 1e-7

    def test_carrier_unimodularity(self):
        # |U_ap(t,x)| = |v(s,y)| pointwise; in L^2: ||U_ap||^2 = sqrt6 N ||v||^2
        setup = small_setup()
        prof = SolitonProfile(1.0, setup.grid_v)
        for t in (0.0, 0.4):
            u = build_uap(prof, setup, t)
            expect = np.sqrt(6) * setup.N * mass(prof.value(t))
            assert abs(mass(u) - expect) < 1e-8 * expect

    def test_modulated_norm_prefactor(self):
        # ||U_ap(0)||_{H^s} ~ (sqrt6 N)^{1/2} N^s ||v||_{L^2} for large N
        for N in (16.0, 32.0):
            setup = plan_uap_discretization(N, profile_length=40.0, profile_modes=256)
            prof = SolitonProfile(1.0, setup.grid_v)
            u0 = build_uap(prof, setup, 0.0)
            s = -0.5
            Nx = setup.N
            predict = (np.sqrt(6) * Nx) ** 0.5 * Nx**s * np.sqrt(mass(prof.value(0.0)))
            assert abs(sobolev_norm(u0, s) / predict - 1.0) < 0.01


class TestResiduals:
    def test_identity_and_refinement(self):
        setup = small_setup()
        prof = SolitonProfile(1.0, setup.grid_v)
        coarse = residual_fields(prof, setup, t=0.3, fd_step=1e-4)
        fine = residual_fields(prof, setup, t=0.3, fd_step=1e-5)
        assert fine.relative_defect < 1e-3
        assert fine.relative_defect < coarse.relative_defect

    def test_component_ratio_scales(self):
        # |E1| / |E2| in H^{-1/2} is proportional to N^{-2}
        ratios = {}
        for N in (8.0, 16.0, 32.0):
            setup = plan_uap_discretization(N, profile_length=40.0, profile_modes=256)
            prof = SolitonProfile(1.0, setup.grid_v)
            res = residual_fields(prof, setup, t=0.1)
            ratios[N] = sobolev_norm(res.e1, -0.5) / sobolev_norm(res.e2, -0.5)
        scaled = [ratios[N] * N**2 for N in (8.0, 16.0, 32.0)]
        assert max(scaled) / min(scaled) < 1.01

    @pytest.mark.parametrize("N, bound", [(8.0, 1e-5), (16.0, 1e-4)])
    def test_band_frame_defect_at_fine_step(self, N, bound):
        # the carrier is the band's exact mode shift, so the fine-step defect
        # is the time difference's error (4.2e-6 and 3.3e-5), not the
        # round-off of a pointwise exp(i N x) times xi^4
        setup = small_setup(N)
        prof = SolitonProfile(1.0, setup.grid_v)
        res = residual_fields(prof, setup, t=0.3, fd_step=1e-5)
        assert res.direct.grid == res.e1.grid == setup.band
        assert res.relative_defect < bound

    @pytest.mark.parametrize("fd_step", [0.0, np.nan, np.inf])
    def test_bad_fd_step_rejected(self, fd_step):
        # 0 and inf used to warn (divide by zero, invalid value in exp) and
        # nan to raise only after every transform
        setup = small_setup()
        prof = SolitonProfile(1.0, setup.grid_v)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError):
                residual_fields(prof, setup, t=0.3, fd_step=fd_step)

    def test_zero_profile_zero_residual(self):
        setup = small_setup()

        class ZeroProfile:
            grid = setup.grid_v

            def value(self, t):
                return Field(setup.grid_v, np.zeros(setup.grid_v.M, complex))

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = residual_fields(ZeroProfile(), setup, t=0.2)
        assert np.max(np.abs(res.e1.values)) == 0
        assert np.max(np.abs(res.e2.values)) == 0
        assert np.max(np.abs(res.direct.values)) < 1e-12
        # the target e1 + e2 is zero, so the defect is the unscaled norm
        assert np.isfinite(res.relative_defect)
        assert res.relative_defect < 1e-12


@pytest.fixture(scope="module")
def grid():
    return make_grid(200.0, 16384)


class TestModulationNorms:

    def test_carrier_slope(self, grid):
        u = lambda y: np.exp(-(y**2))
        fit = modulation_norm_check(u, -0.5, grid, "carrier", [16, 32, 64, 128])
        assert abs(fit.slope - (-0.5)) < 0.05

    def test_width_slope(self, grid):
        u = lambda y: np.exp(-(y**2))
        fit = modulation_norm_check(u, -0.5, grid, "width", [0.5, 1, 2, 4], M=96.0)
        assert abs(fit.slope - 0.5) < 0.05

    def test_amplitude_slope(self, grid):
        u = lambda y: np.exp(-(y**2))
        fit = modulation_norm_check(u, -0.5, grid, "amplitude", [0.5, 1, 2, 4], M=96.0)
        assert abs(fit.slope - 1.0) < 1e-9

    def test_nonnegative_order_checks_carrier_times_width(self, grid):
        # for s >= 0 the hypothesis is M tau >= 1: the carrier sweep fits
        # slope s and the width sweep 1/2 with no warning, and a carrier
        # below 1 at tau = 1 is flagged
        u = lambda y: np.exp(-(y**2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            carrier = modulation_norm_check(u, 0.5, grid, "carrier", [16, 32, 64, 128])
            width = modulation_norm_check(u, 0.5, grid, "width", [0.5, 1, 2, 4], M=96.0)
        assert abs(carrier.slope - 0.5) < 0.05
        assert abs(width.slope - 0.5) < 0.05
        with pytest.warns(UserWarning, match="modulation hypothesis violated at carrier=0.5"):
            modulation_norm_check(u, 0.5, grid, "carrier", [0.5, 16, 32, 64])

    def test_hypothesis_violation_warns(self, grid):
        u = lambda y: np.exp(-(y**2))
        with pytest.warns(UserWarning):
            modulation_norm_check(
                u, -0.5, grid, "width", [1e-4, 2e-4, 4e-4, 8e-4], M=16.0
            )

    @pytest.mark.parametrize("values", [[1.0, "2"], [True, 2.0], [1.0, float("inf")], [1j, 2.0]])
    def test_bad_sweep_value_rejected_before_any_norm(self, grid, values, monkeypatch):
        from fournls import illposedness

        def no_norm(*args):
            raise AssertionError("a norm was computed")

        monkeypatch.setattr(illposedness, "sobolev_norm", no_norm)
        with pytest.raises(ConfigError):
            modulation_norm_check(lambda y: np.exp(-(y**2)), -0.5, grid, "amplitude", values)

    def test_modulated_profile_values(self, grid):
        u = lambda y: np.exp(-(y**2))
        v = modulated_profile(u, 2.0, 8.0, 3.0, 1.0, grid)
        x = grid.x
        expect = 2.0 * np.exp(8j * x) * np.exp(-(((x - 1.0) / 3.0) ** 2))
        assert np.max(np.abs(v.values - expect)) < 1e-14


_RUNS = {
    "tracking": lambda **kw: uap_tracking_error(8.0, **{"window": 0.1, **kw}),
    "decay": lambda **kw: error_decay_experiment([8.0, 16.0, 32.0, 64.0],
                                                 **{"window": 0.1, **kw}),
    "separation": lambda **kw: separation_experiment(1.0, 1.05, -0.75, 16.0, T=10.0, **kw),
}
_BAD_STEP = {"dt0": dict(dt=0.0), "dt_nan": dict(dt=float("nan")), "dt_negative": dict(dt=-1e-3),
             "records0": dict(n_records=0), "records_float": dict(n_records=2.5)}
# run lengths that are not finite and positive; an infinite window_factor is
# capped at T, so only its nan is bad
_BAD_LENGTH = [
    ("window_nan", "tracking", dict(window=float("nan"))),
    ("window_inf", "tracking", dict(window=float("inf"))),
    ("window_nan", "decay", dict(window=float("nan"))),
    ("window_inf", "decay", dict(window=float("inf"))),
    ("window_factor_nan", "separation", dict(window_factor=float("nan"))),
]


class TestExperiments:
    def test_tracking_error_decays(self):
        errs = {
            N: uap_tracking_error(N, window=0.25, dt=2e-3, profile_modes=256,
                                  profile_length=40.0, n_records=5)
            for N in (8.0, 16.0, 32.0)
        }
        assert errs[32.0] < errs[16.0] < errs[8.0]
        rate = np.log(errs[8.0] / errs[32.0]) / np.log(4.0)
        assert abs(rate - 2.0) < 0.4

    def test_tracking_error_decay_beyond_the_full_grid(self):
        # the band grid keeps 512 points at every N; the 4NLS grid would need
        # 2,097,152 at N = 128.  Beyond, at N = 256, the error sits 8 % above
        # the N^-2 line (Strang error and round-off in xi^4 t, see CHANGES.md)
        res = error_decay_experiment([16, 32, 64, 128], window=0.5, dt=2e-3,
                                     profile_modes=256, profile_length=40.0,
                                     n_records=10)
        assert plan_uap_discretization(128.0, profile_length=40.0,
                                       profile_modes=256).grid4.M == 2097152
        assert abs(res.fit.slope + 2.0) < 0.05

    def test_error_decay_refuses_fewer_than_four_carriers_before_stepping(self, monkeypatch):
        # the fit's floor of 4 points used to be read only after every N was
        # planned and stepped
        calls = []
        monkeypatch.setattr(illposedness, "evolve_many", lambda *a: calls.append(a))
        with pytest.raises(ConfigError, match="at least 4 carriers N"):
            error_decay_experiment([8.0, 16.0], window=0.5, dt=2e-3, profile_modes=256,
                                   profile_length=40.0)
        assert calls == []

    def test_band_run_matches_full_grid_run(self):
        # the band evolution is the full-grid evolution with the modes
        # outside the band dropped: fields agree to round-off
        setup = small_setup(16.0)
        prof = SolitonProfile(1.0, setup.grid_v)
        cfg = _solver_config(2e-3, 0.1, 50)
        full = evolve(build_uap(prof, setup, 0.0), cfg).final_field()
        band = evolve(_uap_on(prof, setup, 0.0, setup.band), cfg).final_field()
        k = (setup.band.k + setup.band.k0) % setup.grid4.M
        c_full, c_band = to_spectrum(full).coef, to_spectrum(band).coef
        assert np.linalg.norm(c_band - c_full[k]) < 1e-12 * np.linalg.norm(c_full)
        # and the band holds all but round-off of the full grid's mass
        off_band = np.delete(np.abs(c_full) ** 2, k)
        assert np.sum(off_band) < 1e-24 * np.sum(np.abs(c_full) ** 2)

    @pytest.mark.parametrize("run, bad", [
        *(pytest.param(_RUNS[r], bad, id=f"{b}-{r}") for b, bad in _BAD_STEP.items()
          for r in _RUNS),
        *(pytest.param(_RUNS[r], bad, id=f"{b}-{r}") for b, r, bad in _BAD_LENGTH),
    ])
    def test_bad_step_or_record_count_rejected(self, run, bad):
        with pytest.raises(ConfigError):
            run(profile_modes=256, profile_length=40.0, **bad)

    def test_equal_amplitudes_rejected(self):
        with pytest.raises(ConfigError):
            separation_experiment(1.0, 1.0, -0.75, 16.0, T=10.0)

    def test_amplitude_range_enforced(self):
        with pytest.raises(ConfigError):
            separation_experiment(0.2, 1.0, -0.75, 16.0, T=10.0)

    @pytest.mark.parametrize("T", [np.nan, np.inf, 0.0, -1.0, True])
    def test_bad_horizon_rejected(self, T):
        with pytest.raises(ConfigError):
            separation_experiment(1.0, 1.05, -0.75, 16.0, T=T)

    def test_out_of_range_s_warns(self):
        with pytest.warns(UserWarning):
            try:
                separation_experiment(1.0, 1.05, -0.3, 16.0, T=1e-9, dt=0.5,
                                      profile_modes=256, profile_length=40.0)
            except Exception:
                pass

    def test_lambda_choice(self):
        # lam = N^(-(s+1/2)/(s+3/2)): s = -3/4 gives N^(1/3)
        rep_lam = 16.0 ** (1.0 / 3.0)
        from fournls.illposedness import separation_experiment as _  # noqa: F401
        s = -0.75
        lam = 16.0 ** (-(s + 0.5) / (s + 1.5))
        assert abs(lam - rep_lam) < 1e-12
