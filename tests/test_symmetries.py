from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fournls import (
    ConfigError,
    EvolutionConfig,
    Field,
    check_scaling_covariance,
    evolve,
    evolve_many,
    linear_propagate_4nls,
    make_gaussian,
    make_grid,
    mass,
    scale_transform,
    sobolev_norm,
)
from fournls.evolution import conserved_energy


class TestMass:
    def test_constant(self):
        g = make_grid(7.0, 32)
        u = Field(g, np.full(32, 1.5 - 0.5j))
        assert abs(mass(u) - abs(1.5 - 0.5j) ** 2 * 7.0) < 1e-12

    def test_plane_wave(self):
        g = make_grid(2 * np.pi, 32)
        u = Field(g, np.exp(3j * g.x))
        assert abs(mass(u) - g.L) < 1e-12

    def test_invariant_under_free_flow(self):
        u = make_gaussian(make_grid(60.0, 256), width=2.0)
        out = linear_propagate_4nls(u, 0.7, orientation=-1)
        assert abs(mass(out) - mass(u)) < 1e-12 * mass(u)

    def test_equals_squared_l2(self):
        rng = np.random.default_rng(0)
        g = make_grid(9.0, 64)
        u = Field(g, rng.normal(size=64) + 1j * rng.normal(size=64))
        assert abs(mass(u) - sobolev_norm(u, 0.0) ** 2) < 1e-10


class TestHamiltonian:
    """The energy H = (1/2) int |u_xx|^2 + (kappa/4) int |u|^4 of ``conserved_energy``."""

    def test_plane_wave_parts(self):
        g = make_grid(2 * np.pi, 64)
        A, k = 1.3, 2
        u = Field(g, A * np.exp(1j * k * g.x))
        kinetic = conserved_energy(u, EvolutionConfig(kappa=0))
        assert abs(kinetic - 0.5 * k**4 * A**2 * g.L) < 1e-10
        quartic = 4 * (conserved_energy(u, EvolutionConfig(kappa=1)) - kinetic)
        assert abs(quartic - A**4 * g.L) < 1e-10

    def test_kappa_flip_gap(self):
        # E(+1) - E(-1) = (1/2) int |u|^4, and for A exp(-(x/w)^2) that
        # integral is A^4 w sqrt(pi) / 2
        A, w = 1.4, 1.5
        u = make_gaussian(make_grid(40.0, 128), amplitude=A, width=w)
        plus = conserved_energy(u, EvolutionConfig(kappa=1))
        minus = conserved_energy(u, EvolutionConfig(kappa=-1))
        assert abs((plus - minus) - 0.5 * A**4 * w * np.sqrt(np.pi) / 2) < 1e-12

    def test_conserved_along_flow(self):
        # adjudicates the +kappa/4 sign of the quartic term
        u = make_gaussian(make_grid(60.0, 512), amplitude=1.5, width=1.5)
        for kappa in (1, -1):
            cfg = EvolutionConfig(kappa=kappa, dt=2e-4, t_end=0.4,
                                  record_stride=200, record_fields=True)
            rec = evolve(u, cfg)
            vals = [conserved_energy(f, cfg) for f in rec.fields]
            drift = np.max(np.abs(np.array(vals) - vals[0])) / abs(vals[0])
            assert drift < 1e-6, (kappa, drift)


class TestScaleTransform:
    def test_identity(self):
        u = make_gaussian(make_grid(50.0, 128), width=2.0)
        out = scale_transform(u, 1.0)
        assert out.grid == u.grid
        assert np.array_equal(out.values, u.values)

    def test_group_action(self):
        u = make_gaussian(make_grid(50.0, 128), width=2.0)
        a = scale_transform(scale_transform(u, 2.0), 1.5)
        b = scale_transform(u, 3.0)
        assert a.grid == b.grid
        assert np.max(np.abs(a.values - b.values)) < 1e-14

    def test_homogeneous_norm_scaling(self):
        u = make_gaussian(make_grid(80.0, 512), width=2.0, carrier=2.0)
        for lam in (0.5, 2.0, 3.7):
            for s in (-0.5, -1.0, 0.5):
                scaled = scale_transform(u, lam)
                ratio = sobolev_norm(scaled, s, homogeneous=True) / sobolev_norm(
                    u, s, homogeneous=True
                )
                assert abs(ratio - lam ** (s + 1.5)) < 1e-8 * lam ** (s + 1.5)

    def test_critical_index(self):
        u = make_gaussian(make_grid(80.0, 512), width=2.0, carrier=2.0)
        scaled = scale_transform(u, 2.0)
        ratio = sobolev_norm(scaled, -1.5, homogeneous=True) / sobolev_norm(
            u, -1.5, homogeneous=True
        )
        assert abs(ratio - 1.0) < 1e-8

    def test_invalid_lambda(self):
        u = make_gaussian(make_grid(50.0, 128), width=2.0)
        with pytest.raises(ConfigError):
            scale_transform(u, -2.0)


    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.125, 8.0), st.floats(-1.5, 1.5), st.sampled_from([0, 7, -40]),
           st.integers(0, 2**32 - 1))
    def test_homogeneous_norms_scale_by_lambda_to_s_plus_three_halves(self, lam, s, k0, seed):
        # any spectrum, band grids included: |c_k| is unchanged by the map and
        # every frequency stretches by lam, so the ratio is lam^(s+3/2) to round-off
        rng = np.random.default_rng(seed)
        grid = make_grid(float(rng.uniform(5.0, 100.0)), 64, k0)
        u = Field(grid, rng.normal(size=64) + 1j * rng.normal(size=64))
        scaled = scale_transform(u, lam)
        ratio = sobolev_norm(scaled, s, homogeneous=True) / sobolev_norm(u, s, homogeneous=True)
        assert abs(ratio / lam ** (s + 1.5) - 1.0) < 1e-12


class TestScalingCovariance:
    def test_lambda_one_is_roundoff(self):
        u = make_gaussian(make_grid(60.0, 256), width=2.0)
        cfg = EvolutionConfig(dt=1e-3, t_end=1.0, record_stride=50)
        defect = check_scaling_covariance(u, 1.0, cfg, t=0.02)
        assert defect < 1e-11

    def test_commuting_step_choice_is_exact(self):
        u = make_gaussian(make_grid(60.0, 256), width=2.0)
        lam = 2.0
        cfg = EvolutionConfig(dt=1e-3, t_end=1.0, record_stride=50)
        defect = check_scaling_covariance(u, lam, cfg, t=0.02,
                                          dt_scaled=1e-3 / lam**4)
        assert defect < 1e-11

    @pytest.mark.parametrize("dt_scaled", [0.0, False, -1e-3])
    def test_a_step_that_is_not_positive_is_rejected(self, dt_scaled):
        # 0.0 and False used to run with cfg.dt without a word
        u = make_gaussian(make_grid(60.0, 256), width=2.0)
        cfg = EvolutionConfig(dt=1e-3, t_end=1.0, record_stride=50)
        with pytest.raises(ConfigError, match="dt"):
            check_scaling_covariance(u, 2.0, cfg, t=0.02, dt_scaled=dt_scaled)

    def test_defect_below_measured_discretization_error(self):
        u = make_gaussian(make_grid(60.0, 256), amplitude=1.5, width=2.0)
        lam, t, dt = 2.0, 0.02, 1e-3
        cfg = EvolutionConfig(dt=dt, t_end=1.0, record_stride=50)
        defect = check_scaling_covariance(u, lam, cfg, t=t)
        # discretization error of the scaled-data run, estimated by halving
        # its step: ||u_dt - u_dt/2|| * 4/3 bounds the order-2 error
        from dataclasses import replace
        from fournls import Field, scale_transform, sobolev_norm
        scaled0 = scale_transform(u, lam)
        runs = {}
        for d in (dt, dt / 2):
            rec = evolve(scaled0, replace(cfg, dt=d, t_end=t, record_fields=True,
                                          record_stride=int(round(t / d))))
            runs[d] = rec.final_field()
        est = sobolev_norm(Field(runs[dt].grid,
                                 runs[dt].values - runs[dt / 2].values), 0.0) * 4 / 3
        assert defect <= 2.0 * est

    def test_defect_shrinks_at_second_order(self):
        u = make_gaussian(make_grid(60.0, 256), amplitude=1.5, width=2.0)
        lam, t = 2.0, 0.02
        dts = [4e-3, 2e-3, 1e-3, 2.5e-4]
        defects = []
        for dt in dts:
            cfg = EvolutionConfig(dt=dt, t_end=1.0, record_stride=50)
            defects.append(check_scaling_covariance(u, lam, cfg, t=t))
        slope = np.polyfit(np.log(dts), np.log(defects), 1)[0]
        assert slope >= 2.0 - 0.2

    @pytest.mark.parametrize("lam", [2.0, 3**0.25], ids=["2", "3^1/4"])
    def test_stacked_pair_equals_two_runs_bitwise(self, lam):
        # the commuting choice takes equal step counts, so the two runs share
        # one evolve_many stack; records and defect must be those of two runs
        u = make_gaussian(make_grid(60.0, 256), width=2.0)
        cfg = EvolutionConfig(dt=1e-3, t_end=1.0, record_stride=5)
        t, dt_scaled = 0.02, 1e-3 / lam**4
        scaled0 = scale_transform(u, lam)
        cfg_a = replace(cfg, t_end=lam**4 * t, record_fields=True)
        cfg_b = replace(cfg, t_end=t, dt=dt_scaled, record_fields=True)
        pair = evolve_many([u, scaled0], [cfg_a, cfg_b])
        alone = [evolve(u, cfg_a), evolve(scaled0, cfg_b)]
        for got, want in zip(pair, alone, strict=True):
            assert np.array_equal(got.times, want.times)
            assert got.mass.tobytes() == want.mass.tobytes()
            assert got.energy.tobytes() == want.energy.tobytes()
            assert len(got.fields) == len(want.fields) > 2
            for f, g in zip(got.fields, want.fields):
                assert f.grid == g.grid
                assert f.values.tobytes() == g.values.tobytes()
        u_a = scale_transform(alone[0].final_field(), lam)
        two_runs = sobolev_norm(Field(u_a.grid, u_a.values - alone[1].final_field().values), 0.0)
        assert check_scaling_covariance(u, lam, cfg, t=t, dt_scaled=dt_scaled) == two_runs

    def test_commuting_pair_spends_one_transform_pair_per_stage(self, monkeypatch):
        # as test_scheme_spends_its_transforms_per_step: checks of n and 2n
        # steps share their record and norm transforms, so the difference
        # counts those of n steps, 4 per McLachlan step for the stacked pair
        calls = []

        def counted(fn):
            def wrapped(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapped

        for name in ("fft", "ifft"):
            monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name)))
        u = make_gaussian(make_grid(60.0, 256), width=2.0)
        lam, dt, n, counts = 2.0, 1e-3, 10, []
        cfg = EvolutionConfig(dt=dt, t_end=1.0, record_stride=10**6)
        for steps in (n, 2 * n):
            calls.clear()
            check_scaling_covariance(u, lam, cfg, t=steps * dt / lam**4, dt_scaled=dt / lam**4)
            counts.append(len(calls))
        assert counts[1] - counts[0] == 4 * n
