from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fournls import (
    AbortedRunError,
    ConfigError,
    EvolutionConfig,
    Field,
    NumericDomainError,
    )
from fournls import (
    evolve,
    evolve_many,
    galerkin_evolve,
    galerkin_rhs,
    ifrk4_step,
    linear_propagate_4nls,
    make_gaussian,
    make_grid,
    mass,
    sobolev_norm,
    to_physical,
    to_spectrum,
)
from fournls.evolution import (
    MCLACHLAN_A,
    _rotate,
    _stepper,
    _Trajectory,
    conserved_energy,
    free_flow,
    run_manifest,
)
from fournls.spectral import Spectrum, cubic_convolution, spectral_tail_fraction


def smooth_datum(L=60.0, M=512, width=1.5, amplitude=1.0):
    return make_gaussian(make_grid(L, M), amplitude=amplitude, width=width)


def rotate(u, theta):
    """The exact nonlinear flow u e^{i theta |u|^2} on a copy of ``u``."""
    M = u.grid.M
    return Field(u.grid, _rotate(u.values.copy(), theta, np.empty(M, complex), np.empty(M)))


def cubic_flow(u, t, orientation=1):
    """The linear flow of the cubic equation: mode xi times exp(i orientation t xi^2)."""
    (out,) = free_flow(u, [t], EvolutionConfig(equation="cubic", orientation=orientation))
    return out


def assert_loop_matches_composition(scheme, one_step):
    """``evolve`` merges adjacent linear substeps; the plain composition
    ``one_step(u, dt)`` must give the same record fields, at a record stride
    that does not divide the step count."""
    g = make_grid(2 * np.pi, 64)
    c = np.zeros(64, complex)
    c[1], c[-2 % 64], c[3] = 0.6, 0.4j, 0.2
    u0 = to_physical(Spectrum(g, c))
    dt = 1e-3
    cfg = EvolutionConfig(kappa=1, dt=dt, t_end=7 * dt, scheme=scheme, record_stride=3,
                          require_localized=False)
    u, expect = u0, [u0.values]
    for n in range(1, 8):
        u = one_step(u, dt)
        if n % 3 == 0 or n == 7:
            expect.append(u.values)
    got = [f.values for f in evolve(u0, cfg).fields]
    assert len(got) == len(expect) == 4
    for x, y in zip(got, expect):
        assert np.max(np.abs(x - y)) < 1e-13


class TestLinearPropagators:
    def test_zero_time_identity(self):
        u = smooth_datum()
        assert np.array_equal(linear_propagate_4nls(u, 0.0).values, u.values)
        assert np.max(np.abs(cubic_flow(u, 0.0).values - u.values)) < 1e-15

    def test_single_mode_phase(self):
        g = make_grid(2 * np.pi, 32)
        k, t = 3, 0.37
        u = Field(g, np.exp(1j * k * g.x))
        out4 = linear_propagate_4nls(u, t, orientation=-1)
        expect = np.exp(-1j * t * k**4) * u.values
        assert np.max(np.abs(out4.values - expect)) < 1e-12
        out2 = cubic_flow(u, t, orientation=1)
        expect2 = np.exp(1j * t * k**2) * u.values
        assert np.max(np.abs(out2.values - expect2)) < 1e-12

    def test_group_law(self):
        u = smooth_datum()
        a = cubic_flow(cubic_flow(u, 0.3), 0.7)
        b = cubic_flow(u, 1.0)
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

    @pytest.mark.parametrize("equation", ["quartic", "cubic"])
    @pytest.mark.parametrize("orientation", [1, -1])
    def test_free_flow_is_the_steppers_linear_flow(self, equation, orientation):
        # kappa = 0 leaves the stepper only its linear substeps, so this pins
        # that free_flow rotates with the stepper's sign
        u = smooth_datum(L=40.0, M=256)
        t = 0.25
        cfg = EvolutionConfig(equation=equation, orientation=orientation, dt=0.05, t_end=1.0)
        (got,) = free_flow(u, [t], cfg)
        want = evolve(u, replace(cfg, kappa=0, t_end=t)).final_field()
        assert np.max(np.abs(got.values - want.values)) < 1e-12
        if equation == "quartic":
            prop = linear_propagate_4nls(u, t, -orientation)
            assert np.array_equal(prop.values, got.values)

    def test_free_flow_rows_are_fresh_fields(self):
        # 11 times at M = 2^16 span two chunks; rows read after the whole
        # flow must still equal the single-time flow
        u = smooth_datum(M=2**16)
        ts = np.linspace(0.0, 0.01, 11)
        rows = list(free_flow(u, ts, EvolutionConfig(), weight=np.abs(u.grid.xi)))
        assert len(rows) == len(ts)
        for t, row in zip(ts, rows):
            (alone,) = free_flow(u, [t], EvolutionConfig(), weight=np.abs(u.grid.xi))
            assert np.array_equal(row.values, alone.values)

    @pytest.mark.parametrize("times", [[np.inf], [0.1, np.nan], ["x"], [1j]])
    def test_free_flow_rejects_times_that_are_not_finite_reals(self, times):
        # inf used to raise a RuntimeWarning in the phase product, "x" a bare ValueError
        with pytest.raises(ConfigError, match="flow times"):
            next(free_flow(smooth_datum(), times, EvolutionConfig()))

    def test_free_flow_checks_its_times_at_the_call_and_streams_the_rows(self):
        # the times were checked only at the first next(); the rows still
        # come one at a time, a chunk transformed only when it is reached
        with pytest.raises(ConfigError, match="flow times"):
            free_flow(smooth_datum(), ["x"], EvolutionConfig())
        u = smooth_datum(M=2**16)
        rows = free_flow(u, np.linspace(0.0, 0.01, 11), EvolutionConfig())
        assert iter(rows) is rows
        calls = []
        real_ifft = np.fft.ifft
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.fft, "ifft", lambda *a, **k: calls.append(1) or real_ifft(*a, **k))
            next(rows)
            assert len(calls) == 1  # the first of two chunks
            assert sum(1 for _ in rows) == 10 and len(calls) == 2


class TestNonlinearSubstep:
    # the split steps' nonlinear substep over dt is _rotate at theta = -kappa dt
    def test_zero_dt_identity(self):
        u = smooth_datum()
        assert np.array_equal(rotate(u, -0.0).values, u.values)

    def test_modulus_pointwise_invariant(self):
        u = smooth_datum(amplitude=2.0)
        out = rotate(u, 0.3)
        assert np.max(np.abs(np.abs(out.values) - np.abs(u.values))) < 1e-14

    def test_unit_field_phase(self):
        g = make_grid(10.0, 32)
        u = Field(g, np.ones(32, dtype=complex))
        out = rotate(u, -np.pi)
        assert np.max(np.abs(out.values + 1.0)) < 1e-12


class TestRotation:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 64), st.integers(0, 2**32 - 1), st.floats(0.0, 10.0),
           st.sampled_from((-1, 0, 1)), st.floats(0.0, 0.1))
    def test_matches_complex_exponential(self, n, seed, amplitude, kappa, dt):
        rng = np.random.default_rng(seed)
        u = amplitude * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)) / np.sqrt(2)
        expected = u * np.exp(-1j * kappa * dt * (u.real**2 + u.imag**2))
        out = _rotate(u.copy(), -dt * kappa, np.empty_like(u), np.empty(n))
        assert np.all(np.abs(out - expected) <= 1e-15 * np.abs(u))

    @pytest.mark.parametrize("scheme", ["mclachlan2", "strang", "ifrk4"])
    def test_evolve_leaves_its_input_unchanged(self, scheme):
        # the steps advance their state in place; the start must be a copy
        u = smooth_datum(amplitude=2.0)
        before = u.values.copy()
        rec = evolve(u, EvolutionConfig(dt=1e-3, t_end=2e-3, scheme=scheme))
        assert np.array_equal(u.values.view(np.int64), before.view(np.int64))
        assert not any(np.shares_memory(f.values, u.values) for f in rec.fields)


class TestSteppers:
    def test_kappa_zero_matches_linear(self):
        u = smooth_datum()
        cfg = EvolutionConfig(kappa=0, dt=0.01, t_end=0.01)
        a = evolve(u, replace(cfg, scheme="strang")).final_field()
        b = linear_propagate_4nls(u, 0.01, orientation=-1)
        assert np.max(np.abs(a.values - b.values)) < 1e-12
        c = ifrk4_step(u, cfg)
        assert np.max(np.abs(c.values - b.values)) < 1e-12

    def test_strang_reversible(self):
        u = smooth_datum()
        cfg = EvolutionConfig(dt=1e-3, t_end=1e-3, scheme="strang")
        fwd = evolve(u, cfg).final_field()
        # stepping backwards: negate dt via the reversed linear/nonlinear phases
        back = evolve(Field(u.grid, np.conj(fwd.values)), cfg).final_field()
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
        def one_step(u, dt):  # L(a) N(1/2) L(1-2a) N(1/2) L(a)
            a = MCLACHLAN_A
            u = linear_propagate_4nls(u, a * dt, orientation=-1)
            u = rotate(u, -dt / 2)
            u = linear_propagate_4nls(u, (1 - 2 * a) * dt, orientation=-1)
            u = rotate(u, -dt / 2)
            return linear_propagate_4nls(u, a * dt, orientation=-1)

        assert_loop_matches_composition("mclachlan2", one_step)

    def test_strang_loop_matches_unmerged_composition(self):
        def one_step(u, dt):  # L(1/2) N(1) L(1/2)
            u = linear_propagate_4nls(u, dt / 2, orientation=-1)
            u = rotate(u, -dt)
            return linear_propagate_4nls(u, dt / 2, orientation=-1)

        assert_loop_matches_composition("strang", one_step)

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
    def test_manifest_names_the_carrier_index_of_a_band_grid(self):
        cfg = EvolutionConfig()
        band = Field(make_grid(2 * np.pi, 32, k0=10), np.ones(32, complex))
        assert run_manifest(band, cfg)["grid"] == {"L": 2 * np.pi, "M": 32, "k0": 10}
        full = Field(make_grid(2 * np.pi, 32), np.ones(32, complex))
        assert run_manifest(full, cfg)["grid"] == {"L": 2 * np.pi, "M": 32}

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

    @pytest.mark.parametrize("scheme, per_step", [("strang", 2), ("mclachlan2", 4), ("ifrk4", 8)],
                             ids=["strang", "mclachlan2", "ifrk4"])
    def test_scheme_spends_its_transforms_per_step(self, monkeypatch, scheme, per_step):
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
            evolve(u, EvolutionConfig(dt=1e-3, t_end=steps * 1e-3, scheme=scheme,
                                      record_stride=steps, record_fields=False))
            counts.append(len(calls))
        assert counts[1] - counts[0] == per_step * n

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
        for bad in (dict(dt="x"), dict(t_end=True), dict(t_end=np.nan), dict(kappa=True),
                    dict(orientation=True)):
            with pytest.raises(ConfigError):
                EvolutionConfig(**bad)
        for order in (np.nan, np.inf):  # nan used to record a column of nan
            with pytest.raises(ConfigError):
                EvolutionConfig(sobolev_orders=(-0.5, order))

    @pytest.mark.parametrize("bad", [dict(record_stride=1.5), dict(record_stride=True),
                                     dict(record_stride=0), dict(project_K=-3),
                                     dict(project_K=2.0), dict(project_K=True)],
                             ids=["fractional-stride", "bool-stride", "zero-stride",
                                  "negative-K", "float-K", "bool-K"])
    def test_non_integer_or_negative_counts_rejected(self, bad):
        # a fractional stride put records at t = 0.003, 0.006, 0.009, 0.01 and
        # project_K = -3 zeroed the field; neither may reach the stepper
        with pytest.raises(ConfigError):
            EvolutionConfig(dt=1e-3, t_end=0.01, scheme="ifrk4", **bad)

    def test_python_and_numpy_integer_counts_accepted(self):
        for stride, K in ((2, 0), (np.int64(2), np.int32(5)), (np.uint8(3), None)):
            cfg = EvolutionConfig(record_stride=stride, scheme="ifrk4", project_K=K)
            assert cfg.record_stride == stride and cfg.project_K == K

    @pytest.mark.parametrize("scheme", ["strang", "mclachlan2"])
    def test_split_schemes_reject_project_K(self, scheme):
        # a projection after the exact pointwise nonlinear flow is only first
        # order against the Galerkin system; project_K is IFRK4's alone
        for K in (0, 4, np.int64(20)):
            with pytest.raises(ConfigError, match="project_K"):
                EvolutionConfig(scheme=scheme, project_K=K)


def _family(M, L=40.0, k0=0):
    # three localized members that differ in amplitude, width and carrier
    g = make_grid(L, M, k0)
    return [make_gaussian(g, amplitude=a, width=w, carrier=c, center=x0)
            for a, w, c, x0 in ((1.0, 1.5, 0.0, 0.0), (0.7, 2.0, 1.5, -2.0),
                                (1.3, 1.2, -1.0, 3.0))]


def _cutoffs(scheme, K):
    """The values of ``project_K`` that ``scheme`` accepts, out of None and K."""
    return (None, K) if scheme == "ifrk4" else (None,)


def _assert_records_equal(got, want):
    assert np.array_equal(got.times, want.times)
    assert got.mass.tobytes() == want.mass.tobytes()
    assert got.energy.tobytes() == want.energy.tobytes()
    assert sorted(got.sobolev) == sorted(want.sobolev)
    for s in want.sobolev:
        assert got.sobolev[s].tobytes() == want.sobolev[s].tobytes()
    assert (got.fields is None) == (want.fields is None)
    for f, g in zip(got.fields or (), want.fields or ()):
        assert f.values.tobytes() == g.values.tobytes()
    assert got.aborted == want.aborted


class TestRecord:
    @pytest.mark.parametrize("equation", ["quartic", "cubic"])
    @pytest.mark.parametrize("L, M, k0", [(30.0, 128, 0), (40.0, 96, 37)], ids=["k0=0", "band"])
    def test_diagnostics_are_the_public_functions_bitwise(self, equation, L, M, k0):
        # one transform per record serves the energy, the Sobolev norms and the
        # tail; each must be what the public function returns for the field
        g = make_grid(L, M, k0)
        u0 = Field(g, np.exp(-(g.x / 2.5) ** 2) * (1.0 + 0.3j * np.sin(2 * np.pi * g.x / L)))
        orders = (-0.75, 0.0, 0.5, 1.0)
        cfg = EvolutionConfig(equation=equation, kappa=-1, orientation=-1, dt=1e-3,
                              t_end=0.02, scheme="strang", record_stride=5,
                              sobolev_orders=orders, run_tail_tol=1.0)
        rec = evolve(u0, cfg)
        assert len(rec.fields) == 5
        run = _Trajectory(g, cfg)
        for i, f in enumerate(rec.fields):
            assert rec.mass[i] == mass(f)
            assert rec.energy[i] == conserved_energy(f, cfg)
            for s in orders:
                assert rec.sobolev[s][i] == sobolev_norm(f, s)
            assert run.record(rec.times[i], f.values) == spectral_tail_fraction(f)
        assert spectral_tail_fraction(rec.fields[-1]) > 0

    def test_a_record_takes_one_transform(self, monkeypatch):
        g = make_grid(30.0, 128)
        cfg = EvolutionConfig(sobolev_orders=(-0.5, 0.0, 1.0))
        run = _Trajectory(g, cfg)
        u = smooth_datum(M=128, L=30.0).values
        calls = []
        fft = np.fft.fft
        monkeypatch.setattr(np.fft, "fft", lambda *a, **kw: calls.append(1) or fft(*a, **kw))
        run.record(0.0, u)
        assert len(calls) == 1


class TestEvolveMany:
    @pytest.mark.parametrize("M", [486, 500, 512, 4096])
    @pytest.mark.parametrize("scheme", ["strang", "mclachlan2", "ifrk4"])
    def test_members_match_evolve_alone_bitwise(self, scheme, M):
        fields = _family(M)
        for K in _cutoffs(scheme, M // 6):
            for kappa in (1, -1):
                cfg = EvolutionConfig(kappa=kappa, dt=1e-3, t_end=7e-3, scheme=scheme,
                                      record_stride=3, sobolev_orders=(-0.5, 1.0),
                                      project_K=K)
                for got, f in zip(evolve_many(fields, cfg), fields, strict=True):
                    _assert_records_equal(got, evolve(f, cfg))

    def test_storage_lean_members_match(self):
        fields = _family(256)
        cfg = EvolutionConfig(dt=1e-3, t_end=5e-3, scheme="strang", record_fields=False)
        for got, f in zip(evolve_many(fields, cfg), fields, strict=True):
            _assert_records_equal(got, evolve(f, cfg))

    def test_empty_family_rejected(self):
        with pytest.raises(ConfigError):
            evolve_many([], EvolutionConfig())

    @pytest.mark.parametrize("vary", ["L", "dt", "L and dt"])
    @pytest.mark.parametrize("M, k0", [(512, 0), (500, 37)], ids=["M512", "band-M500"])
    @pytest.mark.parametrize("scheme", ["strang", "mclachlan2", "ifrk4"])
    def test_members_with_own_length_and_step_match_evolve_alone_bitwise(
            self, scheme, M, k0, vary):
        # each row has its own phase tables and step; the records must still
        # be those of the member run alone
        lengths = (40.0, 33.0, 52.5) if "L" in vary else (40.0,) * 3
        steps = (1e-3, 6e-4, 1.25e-3) if "dt" in vary else (1e-3,) * 3
        fields = [_family(M, L, k0)[i] for i, L in enumerate(lengths)]
        for K in _cutoffs(scheme, M // 6):
            cfgs = [EvolutionConfig(dt=dt, t_end=7 * dt, scheme=scheme, record_stride=3,
                                    sobolev_orders=(-0.5, 1.0), project_K=K,
                                    require_localized=False)
                    for dt in steps]
            for got, f, cfg in zip(evolve_many(fields, cfgs), fields, cfgs, strict=True):
                assert got.config == cfg
                assert all(g.grid == f.grid for g in got.fields)
                _assert_records_equal(got, evolve(f, cfg))

    @pytest.mark.parametrize("other", [dict(M=512), dict(k0=3)], ids=["M", "k0"])
    def test_fields_on_different_grids_rejected(self, other):
        base = dict(M=256, L=40.0, k0=0)
        fields = [_family(**base)[0], _family(**{**base, **other})[1]]
        with pytest.raises(ConfigError, match="field 1"):
            evolve_many(fields, EvolutionConfig(dt=1e-3, t_end=2e-3,
                                                require_localized=False))

    @pytest.mark.parametrize("other", [dict(scheme="strang"), dict(kappa=-1),
                                       dict(record_stride=2), dict(t_end=3e-3),
                                       dict(dt=5e-4)],
                             ids=["scheme", "kappa", "record_stride", "steps", "dt-steps"])
    def test_configs_that_cannot_share_a_stack_rejected(self, other):
        fields = _family(256)[:2]
        cfg = EvolutionConfig(dt=1e-3, t_end=2e-3)
        with pytest.raises(ConfigError, match="field 1"):
            evolve_many(fields, [cfg, replace(cfg, **other)])

    def test_one_config_per_field(self):
        cfg = EvolutionConfig(dt=1e-3, t_end=2e-3)
        with pytest.raises(ConfigError, match="2 configs for 3 fields"):
            evolve_many(_family(256), [cfg, cfg])

    def test_one_member_tripping_the_tail_guard_aborts_with_its_record(self):
        # the focusing test datum above blows up; a small one on its grid does not
        g = make_grid(30.0, 128)
        calm = make_gaussian(g, amplitude=0.3, width=2.0)
        wild = make_gaussian(g, amplitude=6.0, width=1.2)
        cfg = EvolutionConfig(kappa=-1, dt=2e-3, t_end=4.0, record_stride=10,
                              start_tail_tol=1e-6)
        with pytest.raises(AbortedRunError, match="field 1 of 2") as exc:
            evolve_many([calm, wild], cfg)
        with pytest.raises(AbortedRunError) as alone:
            evolve(wild, cfg)
        assert "field" not in str(alone.value)
        assert exc.value.record.aborted
        _assert_records_equal(exc.value.record, alone.value.record)


SCHEMES = ["strang", "mclachlan2", "ifrk4"]


class TestInPlaceStepping:
    """A step may overwrite its state; nothing the caller holds may change."""

    @pytest.mark.parametrize(
        "scheme, K",
        [(s, None) for s in SCHEMES] + [("ifrk4", K) for K in (0, 128 // 6, 128 // 2, 128)],
        ids=[f"{s}-unset" for s in SCHEMES] + ["ifrk4-0", "ifrk4-M/6", "ifrk4-M/2", "ifrk4-M"])
    def test_inputs_are_untouched(self, scheme, K):
        fields = _family(128, L=30.0)
        before = [f.values.tobytes() for f in fields]
        cfg = EvolutionConfig(dt=1e-3, t_end=5e-3, scheme=scheme, record_stride=2,
                              project_K=K, require_localized=False)
        evolve(fields[0], cfg)
        evolve_many(fields, cfg)
        assert [f.values.tobytes() for f in fields] == before

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_recorded_fields_do_not_alias(self, scheme):
        fields = _family(128, L=30.0)
        cfg = EvolutionConfig(dt=1e-3, t_end=6e-3, scheme=scheme, record_stride=2,
                              project_K=20 if scheme == "ifrk4" else None)
        arrays = [f.values for rec in evolve_many(fields, cfg) for f in rec.fields]
        arrays += [evolve(fields[0], cfg).fields[-1].values]
        assert len(arrays) == 3 * 4 + 1
        for i, a in enumerate(arrays):
            assert not any(np.shares_memory(a, b) for b in arrays[i + 1:])
            assert not any(np.shares_memory(a, f.values) for f in fields)
        kept = [a.copy() for a in arrays]
        arrays[5][:] = 0.0
        for i, (a, b) in enumerate(zip(arrays, kept)):
            assert i == 5 or a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("shape", [(), (3,)], ids=["one", "stack"])
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_samples_read_from_a_state_are_not_the_state(self, scheme, shape):
        grid = make_grid(30.0, 128)
        rng = np.random.default_rng(3)
        u = 0.5 * (rng.normal(size=shape + (128,)) + 1j * rng.normal(size=shape + (128,)))
        cfg = EvolutionConfig(dt=1e-3, scheme=scheme, project_K=30 if scheme == "ifrk4" else None)
        start, step, values = _stepper(grid, cfg)
        state = step(start(u))
        read = values(state)
        kept = read.copy()
        step(state)
        assert read.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("grid", [make_grid(2 * np.pi, 64), make_grid(40.0, 64, 10),
                                      make_grid(25.0, 500, -37)],
                             ids=["M64", "band-M64", "band-M500"])
    def test_projection_zeroes_exactly_the_modes_above_K(self, grid):
        # IFRK4's cubic term zeroes the FFT-order run [K+1, M-K); it must be
        # the set np.abs(grid.k) > K, for every K, on band grids as well
        rng = np.random.default_rng(4)
        u = 0.3 * (rng.normal(size=(2, grid.M)) + 1j * rng.normal(size=(2, grid.M)))
        for K in (0, 1, 5, grid.M // 6, grid.M // 2 - 1, grid.M // 2, grid.M):
            above = np.abs(grid.k) > K
            for w in (u[0], u):
                cfg = EvolutionConfig(dt=1e-3, scheme="ifrk4", project_K=K)
                start, step, _ = _stepper(grid, cfg)
                got = step(start(w))
                # the nonlinear stages vanish above K, so those modes only
                # rotate, exactly as in a kappa = 0 step; the rest move
                start0, step0, _ = _stepper(grid, replace(cfg, kappa=0))
                free = step0(start0(w))
                assert np.array_equal(got[..., above], free[..., above]), K
                assert np.all(got[..., ~above] != free[..., ~above]), K


def _fresh_ifrk4(c, nl, lam, dt, n_steps):
    """The states after each of ``n_steps`` IFRK4 steps of c' = nl(c), from
    ``_ifrk4``'s documented formula evaluated on fresh arrays."""
    e_half = np.exp(lam * dt / 2)
    e_full = e_half * e_half
    states = []
    for _ in range(n_steps):
        k1 = nl(c)
        k2 = nl(e_half * (c + dt / 2 * k1))
        k3 = nl(e_half * c + dt / 2 * k2)
        k4 = nl(e_full * c + dt * e_half * k3)
        c = e_full * c + dt / 6 * (e_full * k1 + 2 * e_half * (k2 + k3) + k4)
        states.append(c)
    return states


class TestIfrk4OperandOrder:
    """IFRK4 forms its stage sums in place; the bits must be those of the
    RK4 formula on fresh arrays, in its written operand order."""

    @staticmethod
    def fresh_samples(f, cfg):
        grid = f.grid

        def nl(w):
            u = np.fft.ifft(w)
            v = -1j * cfg.kappa * np.fft.fft((u.real**2 + u.imag**2) * u)
            if cfg.project_K is not None:
                v[np.abs(grid.k) > cfg.project_K] = 0
            return v

        n = int(round(cfg.t_end / cfg.dt))
        states = _fresh_ifrk4(np.fft.fft(f.values), nl, 1j * cfg.linear_phase_rate(grid.xi),
                              cfg.dt, n)
        return [f.values.tobytes()] + [np.fft.ifft(states[i - 1]).tobytes()
                                       for i in range(1, n + 1)
                                       if i % cfg.record_stride == 0 or i == n]

    @pytest.mark.parametrize("project_K", [None, 128 // 6], ids=["unset", "M/6"])
    @pytest.mark.parametrize("kappa", [-1, 0, 1])
    def test_evolve_records_are_the_fresh_array_formula(self, kappa, project_K):
        # one (M,) run, and a (B, M) stack whose rows differ in L and in dt;
        # steps this long keep an ulp moved in a stage visible in the records
        fields = _family(128, L=30.0) + [make_gaussian(make_grid(27.0, 128), amplitude=0.9,
                                                       width=1.6)]
        cfg = EvolutionConfig(kappa=kappa, dt=0.05, t_end=0.5, scheme="ifrk4",
                              record_stride=3, project_K=project_K)
        cfgs = [cfg, replace(cfg, dt=0.025, t_end=0.25), cfg, cfg]
        records = [evolve(fields[0], cfg)] + evolve_many(fields, cfgs)
        for f, c, rec in zip([fields[0]] + fields, [cfg] + cfgs, records):
            assert [g.values.tobytes() for g in rec.fields] == self.fresh_samples(f, c)

    @staticmethod
    def galerkin_formula(s, cfg, K, grid, dt, n_steps):
        """The modes k = -K..K of ``s`` after ``n_steps`` steps of ``dt`` of the
        formula on fresh arrays, in raw FFT coordinates on ``grid``."""
        ks = np.arange(-K, K + 1)
        scale = grid.M * np.where(ks % 2 == 0, 1.0, -1.0)
        w = np.zeros(grid.M, dtype=np.complex128)
        w[ks] = s.coef[ks] * scale

        def nl(w):
            u = np.fft.ifft(w)
            v = -1j * cfg.kappa * np.fft.fft((u.real**2 + u.imag**2) * u)
            v[np.abs(grid.k) > K] = 0
            return v

        w = _fresh_ifrk4(w, nl, 1j * cfg.linear_phase_rate(grid.xi), dt, n_steps)[-1]
        return w[ks] / scale

    @staticmethod
    def galerkin_datum(grid, K, seed=6):
        rng = np.random.default_rng(seed)
        coef = np.zeros(grid.M, dtype=np.complex128)
        coef[np.arange(-K, K + 1)] = 0.3 * (rng.normal(size=2 * K + 1)
                                            + 1j * rng.normal(size=2 * K + 1))
        return Spectrum(grid, coef)

    def assert_galerkin_is(self, got, K, want):
        ks = np.arange(-K, K + 1)
        assert got.coef[ks].tobytes() == want.tobytes()
        assert not np.any(np.delete(got.coef, ks % got.grid.M))

    @pytest.mark.parametrize("kappa", [-1, 0, 1])
    def test_galerkin_evolve_is_the_fresh_array_formula(self, kappa):
        # M = 64 is the power of two above 4K = 36: the run is on the datum's grid
        grid, K = make_grid(2 * np.pi, 64), 9
        s, cfg = self.galerkin_datum(grid, K), EvolutionConfig(kappa=kappa)
        got = galerkin_evolve(s, cfg, K, t=1.0, n_steps=20)
        self.assert_galerkin_is(got, K, self.galerkin_formula(s, cfg, K, grid, 1.0 / 20, 20))

    @pytest.mark.parametrize("equation", ["quartic", "cubic"])
    @pytest.mark.parametrize("kappa", [-1, 0, 1])
    def test_galerkin_evolve_backwards_is_the_negative_step_formula(self, kappa, equation):
        # t < 0 runs forward with orientation and kappa negated; the bits must
        # be those of the formula with step t/n and the config's own rate and kappa
        grid, K = make_grid(2 * np.pi, 64, k0=3), 9
        s = self.galerkin_datum(grid, K, seed=7)
        cfg = EvolutionConfig(equation=equation, orientation=-1, kappa=kappa)
        got = galerkin_evolve(s, cfg, K, t=-1.0, n_steps=20)
        self.assert_galerkin_is(got, K, self.galerkin_formula(s, cfg, K, grid, -1.0 / 20, 20))

    @pytest.mark.parametrize("M", [40, 500], ids=["narrow", "wide"])
    @pytest.mark.parametrize("kappa", [-1, 0, 1])
    def test_galerkin_evolve_runs_on_the_power_of_two_grid_above_4K(self, kappa, M):
        # at M = 40 <= 4K = 48 the cubic term's aliases would reach |k| <= K;
        # M = 500 would spend larger transforms: both runs take M = 64, with
        # the datum's L and k0; K a numpy integer
        grid, K = make_grid(9.0, M, k0=-5), np.int64(12)
        s, cfg = self.galerkin_datum(grid, K, seed=8), EvolutionConfig(kappa=kappa)
        got = galerkin_evolve(s, cfg, K, t=0.2, n_steps=20)
        want = self.galerkin_formula(s, cfg, K, make_grid(9.0, 64, k0=-5), 0.2 / 20, 20)
        self.assert_galerkin_is(got, K, want)


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

    @pytest.mark.parametrize("K", [1, 3, 8, 16])
    def test_convolution_matches_triple_index_sum(self, K):
        # reference: the (2K+1)^3 triple-index sum over k - l + m = n, for
        # cubic_convolution and for galerkin_rhs's cubic part, which is IFRK4's
        # own cubic term on the power-of-two grid above 4K: M = 8, 16 and 64
        # at K = 1, 3 and 8, and M = 128, wider than the datum's, at K = 16
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

    def test_band_grid_matches_full_grid_at_shifted_modes(self):
        # mode k of a band grid is mode k + k0 of the full grid: the same
        # frequency, and the cubic sum over k - l + m = n is shift-invariant
        k0, K = 10, 4
        band, full = make_grid(2 * np.pi, 32, k0=k0), self.grid()
        one = np.zeros(32, complex)
        one[1] = 1.0
        assert galerkin_rhs(Spectrum(band, one), EvolutionConfig(kappa=0), K).coef[1] \
            == -14641j  # -i xi^4 at xi = k0 + 1 = 11
        rng = np.random.default_rng(5)
        ks = np.arange(-K, K + 1)
        c = 0.3 * (rng.normal(size=ks.size) + 1j * rng.normal(size=ks.size))
        cb, cf = np.zeros(32, complex), np.zeros(64, complex)
        cb[ks % 32] = c
        cf[(ks + k0) % 64] = c
        on_band = {}
        for kappa in (0, 1):
            cfg = EvolutionConfig(kappa=kappa)
            rb = galerkin_rhs(Spectrum(band, cb), cfg, K).coef[ks % 32]
            rf = galerkin_rhs(Spectrum(full, cf), cfg, k0 + K).coef[(ks + k0) % 64]
            on_band[kappa] = rb, rf
        # the linear part is bitwise the full grid's, the cubic part to round-off
        assert np.array_equal(*on_band[0])
        cubic_b, cubic_f = (on_band[1][i] - on_band[0][i] for i in (0, 1))
        assert np.max(np.abs(cubic_b - cubic_f)) < 1e-13 * np.max(np.abs(cubic_f))
        # the linear flow rotates each mode at its own frequency
        cfg = EvolutionConfig(kappa=0)
        eb = galerkin_evolve(Spectrum(band, cb), cfg, K, t=1e-3, n_steps=20).coef
        ef = galerkin_evolve(Spectrum(full, cf), cfg, k0 + K, t=1e-3, n_steps=20).coef
        assert np.array_equal(eb[ks % 32], ef[(ks + k0) % 64])

    def test_cutoff_above_resolution_rejected(self):
        g = self.grid()
        with pytest.raises(ConfigError):
            galerkin_rhs(Spectrum(g, np.zeros(64, complex)), EvolutionConfig(), K=40)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad, name", [
        (dict(n_steps=0), "n_steps"), (dict(n_steps=2.5), "n_steps"),
        (dict(n_steps=-3), "n_steps"), (dict(t=np.nan), "t"), (dict(t=np.inf), "t"),
        (dict(t=0.0), "t"), (dict(K=2.5), "K"), (dict(K=True), "K")],
        ids=["zero-steps", "fractional-steps", "negative-steps", "nan-t", "inf-t", "zero-t",
             "fractional-K", "bool-K"])
    def test_bad_counts_and_times_rejected(self, bad, name):
        # these raised ZeroDivisionError, TypeError or IndexError, returned the
        # input or NaN, or warned; each must be a ConfigError naming the argument
        c = np.zeros(64, complex)
        c[1] = 0.5
        spec, cfg = Spectrum(self.grid(), c), EvolutionConfig()
        args = {**dict(K=4, t=0.1, n_steps=10), **bad}
        with pytest.raises(ConfigError, match=rf"\b{name}\b"):
            galerkin_evolve(spec, cfg, **args)
        if "K" in bad:
            with pytest.raises(ConfigError, match=r"\bK\b"):
                galerkin_rhs(spec, cfg, bad["K"])

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 4), st.sampled_from(["quartic", "cubic"]), st.sampled_from([-1, 0, 1]),
           st.floats(1e-3, 1e-2), st.integers(0, 2**32 - 1))
    def test_backward_run_undoes_the_forward_run(self, K, equation, kappa, t, seed):
        # IFRK4 is not time-symmetric, so the round trip is exact only up to
        # its error; dt <= 5e-4 against |Omega| <= 2 K^4 = 512 resolves it.
        # Over 300 such draws the round trip missed by at most 2.5e-12 of
        # max|c|, and 20 against 40 steps of the forward run differed by up
        # to 6.1e-10; a sign lost in the backward run misses by 7e-4 or more
        rng = np.random.default_rng(seed)
        c = np.zeros(64, complex)
        c[np.arange(-K, K + 1)] = 0.5 * (rng.random(2 * K + 1)
                                         * np.exp(2j * np.pi * rng.random(2 * K + 1)))
        s, cfg = Spectrum(self.grid(), c), EvolutionConfig(equation=equation, kappa=kappa)
        back = galerkin_evolve(galerkin_evolve(s, cfg, K, t, n_steps=20), cfg, K, -t, n_steps=20)
        assert np.max(np.abs(back.coef - c)) < 1e-10 * np.max(np.abs(c))

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
