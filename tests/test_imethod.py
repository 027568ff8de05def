import itertools
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from fournls import (
    ConfigError,
    EvolutionConfig,
    Field,
    IMethodParams,
    ModeSet,
    NumericDomainError,
    TermBudgetError,
    apply_I,
    derivative_identity_check,
    energy2,
    energy4,
    evolve,
    gwp_parameters,
    lambda_n,
    make_gaussian,
    make_grid,
    mass,
    sobolev_norm,
    symbol_m4,
    symbol_m6,
    symbol_sigma4,
    to_physical,
)
from fournls import imethod
from fournls.imethod import SumLastThree, fit_m6_constant, m6_constant_from_checks
from fournls.spectral import Spectrum
from oracle import (brute_force, direct_sum, m2_derivatives, mean_value_constants,
                    sigma4_bound_constant)


def params(N=2.0, s=-0.5):
    return IMethodParams(N=N, s=s)


def multiplier(p):
    """The smoothing multiplier m of ``p`` as a function of xi."""
    return lambda xi: imethod._m_values(p, xi)


def narrow_state(grid, rng, support=4, n_modes=5, scale=0.3):
    coef = np.zeros(grid.M, dtype=np.complex128)
    ks = rng.choice(np.arange(-support, support + 1), size=n_modes, replace=False)
    for k in ks:
        coef[int(k) % grid.M] = scale * (rng.normal() + 1j * rng.normal())
    return to_physical(Spectrum(grid, coef))


class TestMultiplier:
    def test_unit_below_threshold(self):
        m = multiplier(params(N=8.0))
        assert m(np.array([0.0]))[0] == 1.0
        assert np.all(m(np.linspace(-7.9, 7.9, 101)) == 1.0)

    def test_power_branch_value(self):
        m = multiplier(params(N=4.0, s=-0.5))
        assert abs(m(np.array([16.0]))[0] - 0.5) < 1e-14  # (4N/N)^(-1/2)

    def test_monotone_dense_sweep(self):
        m = multiplier(params(N=16.0, s=-0.75))
        xi = np.linspace(0.0, 400.0, 10_000)
        vals = m(xi)
        assert np.all(np.diff(vals) <= 1e-15)
        assert np.all((vals > 0) & (vals <= 1))

    def test_c1_junctions(self):
        p = params(N=8.0, s=-0.5)
        m = multiplier(p)
        for xi0 in (8.0, 16.0):
            h = 1e-6
            left = (m(np.array([xi0])) - m(np.array([xi0 - h])))[0] / h
            right = (m(np.array([xi0 + h])) - m(np.array([xi0])))[0] / h
            assert abs(left - right) < 1e-4

    def test_positive_s_rejected(self):
        with pytest.raises(ConfigError):
            IMethodParams(N=4.0, s=0.5)

    @pytest.mark.parametrize("s", [np.nan, -np.inf])
    def test_non_finite_s_rejected(self, s):
        with pytest.raises(ConfigError):
            IMethodParams(N=2.0, s=s)

    def test_derivative_closed_forms(self):
        p = params(N=8.0, s=-0.5)
        xi = np.linspace(2.0, 64.0, 300)
        m2, d1, d2 = m2_derivatives(p, xi)
        h = 1e-5
        m2p = (m2_derivatives(p, xi + h)[0] - m2_derivatives(p, xi - h)[0]) / (2 * h)
        assert np.max(np.abs(d1 - m2p)) < 1e-5
        d1p = (m2_derivatives(p, xi + h)[1] - m2_derivatives(p, xi - h)[1]) / (2 * h)
        assert np.max(np.abs(d2 - d1p)) < 1e-4


class TestMeanValueBounds:
    def test_constant_region_vanishes(self):
        c1, c2 = mean_value_constants(params(N=1024.0), np.random.default_rng(2), "constant")
        assert c1 == 0.0
        assert c2 == 0.0

    def test_power_region_constants(self):
        # against the closed-form derivatives of |xi|^{-1}: near-1 constants
        c1, c2 = mean_value_constants(params(N=32.0), np.random.default_rng(3), "power", 4000)
        assert 0.9 <= c1 <= 1.0 + 1e-9
        assert 0.9 <= c2 <= 1.0 + 1e-9

    def test_junction_region_bounded(self):
        power = mean_value_constants(params(N=32.0), np.random.default_rng(4), "power", 4000)
        junction = mean_value_constants(params(N=32.0), np.random.default_rng(5), "junction", 4000)
        assert np.isfinite(junction[0])
        assert junction[0] < 10 * power[0]
        assert junction[1] < 10 * power[1]


class TestApplyI:
    def test_identity_when_threshold_above_nyquist(self):
        g = make_grid(2 * np.pi, 32)
        rng = np.random.default_rng(0)
        u = Field(g, rng.normal(size=32) + 1j * rng.normal(size=32))
        out = apply_I(u, params(N=1000.0))
        assert np.max(np.abs(out.values - u.values)) < 1e-13

    def test_twice_equals_squared_multiplier(self):
        g = make_grid(2 * np.pi, 64)
        rng = np.random.default_rng(1)
        u = Field(g, rng.normal(size=64) + 1j * rng.normal(size=64))
        p = params(N=2.0)
        twice = apply_I(apply_I(u, p), p)
        from fournls import apply_symbol, to_spectrum
        direct = to_physical(apply_symbol(to_spectrum(u), multiplier(p)(g.xi) ** 2))
        assert np.max(np.abs(twice.values - direct.values)) < 1e-13

    def test_norm_sandwich_uniform_over_sweep(self):
        # ||u||_{H^s} <= C1 ||Iu||_{L^2} <= C2 N^{-s} ||u||_{H^s}
        g = make_grid(2 * np.pi, 512)
        rng = np.random.default_rng(2)
        coef = (rng.normal(size=512) + 1j * rng.normal(size=512)) / (
            1.0 + np.abs(g.k) ** 0.7
        )
        u = to_physical(Spectrum(g, coef))
        s = -0.5
        lower_cs, upper_cs = [], []
        for N in (4.0, 8.0, 16.0, 32.0, 64.0):
            p = params(N=N, s=s)
            iu_l2 = sobolev_norm(apply_I(u, p), 0.0)
            us = sobolev_norm(u, s)
            lower_cs.append(us / iu_l2)
            upper_cs.append(iu_l2 / (N ** (-s) * us))
        assert max(lower_cs) < 4.0
        assert max(upper_cs) <= 1.0 + 1e-12
        assert max(lower_cs) / min(lower_cs) < 4.0


class TestEnergy2:
    def test_large_threshold_recovers_mass(self):
        u = make_gaussian(make_grid(40.0, 256), width=1.5)
        assert abs(energy2(u, params(N=10000.0)) - mass(u)) < 1e-12 * mass(u)

    def test_single_high_mode(self):
        g = make_grid(2 * np.pi, 64)
        k, N = 12, 3.0
        u = Field(g, np.exp(1j * k * g.x))
        expect = (N / k) * g.L  # m^2 = (k/N)^{-1}
        assert abs(energy2(u, params(N=N, s=-0.5)) - expect) < 1e-12 * expect

    def test_plancherel_against_lambda2(self):
        g = make_grid(2 * np.pi, 64)
        rng = np.random.default_rng(3)
        u = narrow_state(g, rng, support=8, n_modes=7)
        p = params(N=2.0)
        m = multiplier(p)
        value = direct_sum(lambda a, b: m(a) * m(b), [u, u], 10)
        assert abs(value.imag) < 1e-12
        assert abs(value.real - energy2(u, p)) < 1e-12 * abs(value.real)


class TestSymbols:
    def test_off_hyperplane_rejected(self):
        with pytest.raises(ConfigError):
            symbol_m4(1.0, 2.0, 3.0, 4.0, params())
        with pytest.raises(ConfigError):
            symbol_sigma4(1.0, 2.0, 3.0, 4.0, params())
        with pytest.raises(ConfigError):
            symbol_m6(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, params())

    def test_pair_pattern_vanishes(self):
        p = params(N=2.0)
        # (a, a, b, b) in alternating slots: xi2 = -xi1, xi4 = -xi3
        val = symbol_sigma4(5.0, -5.0, 3.0, -3.0, p)
        assert val == 0.0

    def test_all_low_frequencies_vanish(self):
        p = params(N=50.0)
        val = symbol_sigma4(3.0, -1.0, -4.0, 2.0, p)
        assert val == 0.0
        assert symbol_m4(3.0, -1.0, -4.0, 2.0, p) == 0.0

    def test_sigma4_real_on_random_tuples(self):
        rng = np.random.default_rng(4)
        p = params(N=8.0)
        x1, x2, x3 = rng.uniform(-60, 60, size=(3, 1000))
        x4 = -(x1 + x2 + x3)
        vals = symbol_sigma4(x1, x2, x3, x4, p)
        assert np.isrealobj(vals)

    def test_sigma4_pair_swap_symmetry(self):
        p = params(N=4.0)
        args = (7.0, -3.0, 11.0, -15.0)
        a = symbol_sigma4(*args, p)
        swapped = symbol_sigma4(args[1], args[0], args[3], args[2], p)
        assert abs(a - swapped) < 1e-15

    def test_no_spurious_singularity_on_lattice(self):
        # every zero of the resonance factorization on the integer lattice
        # must be removable for the even multiplier
        p = params(N=3.0)
        ks = np.arange(-12, 13)
        k1, k2, k3 = np.meshgrid(ks, ks, ks, indexing="ij")
        k4 = -(k1 + k2 + k3)
        vals = symbol_sigma4(
            k1.astype(float).ravel(),
            k2.astype(float).ravel(),
            k3.astype(float).ravel(),
            k4.astype(float).ravel(),
            p,
        )
        assert np.all(np.isfinite(vals))

    def test_m6_low_frequencies_vanish(self):
        p = params(N=60.0)
        assert symbol_m6(1.0, -2.0, 3.0, 1.0, 0.0, -3.0, p) == 0.0

    def test_m6_depends_on_sum_only(self):
        p = params(N=4.0)
        a = symbol_m6(9.0, -3.0, 7.0, -5.0, -6.0, -2.0, p)
        b = symbol_m6(9.0, -3.0, 7.0, -2.0, -5.0, -6.0, p)
        assert a == b

    def test_m6_magnitude_bound(self):
        # |M6| <= C m^2(min(N_i, N_456)) / prod (N + N_i); C finite, stable
        rng = np.random.default_rng(5)
        m2 = lambda p, x: multiplier(p)(np.atleast_1d(np.abs(x))) ** 2
        consts = []
        for N in (8.0, 16.0, 32.0):
            p = params(N=N)
            x = 2.0 ** rng.uniform(0, 9, size=(5, 20000)) * rng.choice(
                [-1, 1], size=(5, 20000)
            )
            x6 = -x.sum(axis=0)
            vals = np.abs(symbol_m6(x[0], x[1], x[2], x[3], x[4], x6, p))
            n456 = np.abs(x[3] + x[4] + x6)
            mins = np.minimum.reduce([np.abs(x[0]), np.abs(x[1]), np.abs(x[2]), n456])
            bound = m2(p, mins) / (
                (N + np.abs(x[0])) * (N + np.abs(x[1])) * (N + np.abs(x[2])) * (N + n456)
            )
            ok = bound > 0
            consts.append(np.max(vals[ok] / bound[ok]))
        assert all(np.isfinite(c) for c in consts)
        assert max(consts) / min(consts) < 4.0

    def test_sigma4_magnitude_bound_stable(self):
        consts = [
            sigma4_bound_constant(params(N=N), np.random.default_rng(6))
            for N in (8.0, 16.0, 32.0, 64.0, 128.0)
        ]
        assert all(np.isfinite(c) for c in consts)
        assert max(consts) / min(consts) < 2.0


class TestLambdaN:
    def grid(self):
        return make_grid(2 * np.pi, 64)

    def test_mode_set_rejects_band_grid(self):
        # the zero-sum hyperplanes are sums of the local indices, which a
        # band grid shifts by k0
        with pytest.raises(ConfigError, match="k0"):
            ModeSet(make_grid(2 * np.pi, 64, k0=10), 8)

    @pytest.mark.parametrize("K", [2.5, True, "x"])
    def test_mode_set_rejects_a_non_integer_cutoff(self, K):
        with pytest.raises(ConfigError, match="mode cutoff K"):
            ModeSet(self.grid(), K)

    def test_mode_set_takes_a_numpy_integer_cutoff(self):
        modes = ModeSet(self.grid(), np.int64(12))
        assert modes.k_values.tolist() == list(range(-12, 13))

    def test_quartic_power_plane_wave(self):
        g = self.grid()
        A, k = 1.3, 3
        u = Field(g, A * np.exp(1j * k * g.x))
        res = lambda_n(lambda a, b, c, d: np.ones_like(a), [u] * 4, ModeSet(g, 8))
        assert abs(res.value - A**4 * g.L) < 1e-12
        assert res.terms == 17**3

    def test_quartic_power_general_field(self):
        g = self.grid()
        rng = np.random.default_rng(7)
        u = narrow_state(g, rng, support=6, n_modes=6, scale=0.8)
        res = lambda_n(lambda a, b, c, d: np.ones_like(a), [u] * 4, ModeSet(g, 18))
        quartic = g.dx * np.sum(np.abs(u.values) ** 4)
        assert abs(res.value.real - quartic) < 1e-12 * quartic
        assert abs(res.value.imag) < 1e-13

    def test_real_for_real_even_symbol(self):
        g = self.grid()
        rng = np.random.default_rng(8)
        u = narrow_state(g, rng, support=5, n_modes=5)
        p = params(N=2.0)
        res = lambda_n(
            lambda a, b, c, d: symbol_sigma4(a, b, c, d, p), [u] * 4, ModeSet(g, 15)
        )
        assert abs(res.value.imag) < 1e-12 * max(abs(res.value), 1e-12)

    def test_symbol_linearity(self):
        g = self.grid()
        rng = np.random.default_rng(9)
        u = narrow_state(g, rng, support=4, n_modes=4)
        modes = ModeSet(g, 6)
        s1 = lambda a, b, c, d: a**2 + b**2
        s2 = lambda a, b, c, d: np.abs(c) + 1.0
        v1 = lambda_n(s1, [u] * 4, modes).value
        v2 = lambda_n(s2, [u] * 4, modes).value
        v12 = lambda_n(lambda a, b, c, d: 2 * s1(a, b, c, d) - 3 * s2(a, b, c, d),
                       [u] * 4, modes).value
        assert abs(v12 - (2 * v1 - 3 * v2)) < 1e-12 * max(abs(v12), 1.0)

    def test_conjugation_symmetry(self):
        g = self.grid()
        rng = np.random.default_rng(10)
        u = narrow_state(g, rng, support=4, n_modes=4)
        modes = ModeSet(g, 6)
        sym = lambda a, b, c, d: a * b + 1j * (c - d)
        sym_bar_swapped = lambda a, b, c, d: np.conj(
            (-b) * (-a) + 1j * ((-d) - (-c))
        )
        v = lambda_n(sym, [u] * 4, modes).value
        w = lambda_n(sym_bar_swapped, [u] * 4, modes).value
        assert abs(w - np.conj(v)) < 1e-12 * max(abs(v), 1.0)

    @pytest.mark.parametrize("n, symbol", [
        (2, lambda a, b: np.ones_like(a)),
        (3, lambda a, b, c: np.ones_like(a)),
        (6, lambda a, b, c, d, e, f: np.ones_like(a)),
        (4, SumLastThree(lambda a, b, c, d: np.ones_like(a))),
    ], ids=["two-fields", "three-fields", "plain-six-slot", "sum-last-three-on-four"])
    def test_other_forms_refused_before_any_work(self, n, symbol, monkeypatch):
        # only four fields, or six under SumLastThree, are walked; K = 232 is
        # over the term budget, so any work done first would raise that instead
        g = make_grid(2 * np.pi, 512)
        u = Field(g, np.ones(512, complex))
        monkeypatch.setattr(imethod, "_slot_coefs", lambda *a: pytest.fail("coefficients formed"))
        with pytest.raises(ConfigError, match="SumLastThree"):
            lambda_n(symbol, [u] * n, ModeSet(g, 232))

    def test_budget_guard_counts_collapsed_terms(self):
        # the collapsed Lambda6 sums (2K+1)^3 terms: 465^3 > 1e8 is refused
        # before any work; 25^3 is reported as the count summed
        g = make_grid(2 * np.pi, 512)
        u = Field(g, np.ones(512, complex))
        m6 = SumLastThree(lambda a, b, c, d: np.ones_like(a))
        with pytest.raises(TermBudgetError):
            lambda_n(m6, [u] * 6, ModeSet(g, 232))
        assert lambda_n(m6, [u] * 6, ModeSet(g, 12)).terms == 25**3
        with pytest.raises(TermBudgetError):
            energy4(u, params(), ModeSet(g, 232))

    def test_matches_brute_force_sum(self):
        # four different fields and a symbol with no slot symmetry, on a
        # lattice off 2 pi (L = 5)
        g = make_grid(5.0, 32)
        rng = np.random.default_rng(18)
        fields = [narrow_state(g, rng, support=3, n_modes=4, scale=0.8) for _ in range(6)]
        sym = lambda a, b, c, d: 1.0 + 0.3j * a - 0.2 * b**2 + 0.1j * c * d + 0.05 * a**3
        for K in (1, 4):
            got = lambda_n(sym, fields[:4], ModeSet(g, K)).value
            ref = brute_force(sym, fields[:4], K)
            assert abs(got - ref) <= 1e-12 * abs(ref)
        # the collapsed six-slot form reads its last slot over |k4| <= 3K
        m6 = SumLastThree(sym)
        got = lambda_n(m6, fields, ModeSet(g, 2)).value
        ref = brute_force(m6, fields, 2)
        assert abs(got - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("n", [2, 4, 6])
    @pytest.mark.parametrize("K", [1, 2])
    def test_direct_sum_oracle_matches_brute_force(self, n, K):
        # the oracle of the six-slot and order-2 checks, pinned point by point
        # on a lattice off 2 pi; the symbol takes slot j to the power j, so
        # reading every index reflected (k -> -k) would change the sum
        g = make_grid(5.0, 32)
        rng = np.random.default_rng(20)
        fields = [narrow_state(g, rng, support=2, n_modes=4, scale=0.8) for _ in range(n)]
        weights = 1.0 + 0.1j * np.arange(1, n + 1)
        sym = lambda *x: 1.0 + sum(w * xi**j for j, (w, xi) in enumerate(zip(weights, x), 1))
        ref = brute_force(sym, fields, K)
        assert abs(direct_sum(sym, fields, K) - ref) <= 1e-12 * abs(ref)

    def test_non_finite_symbol_refused(self):
        # 1 / (xi1 + xi2) is infinite on k2 = -k1
        g = self.grid()
        u = narrow_state(g, np.random.default_rng(19), support=3, n_modes=4)
        sym = lambda a, b, c, d: 1.0 / (a + b)
        with pytest.raises(NumericDomainError, match="not finite"):
            lambda_n(sym, [u] * 4, ModeSet(g, 6))
        with pytest.raises(NumericDomainError, match="not finite"):
            lambda_n(SumLastThree(sym), [u] * 6, ModeSet(g, 3))


class TestEnergy4:
    def test_low_frequency_state_collapses_to_energy2(self):
        g = make_grid(2 * np.pi, 64)
        rng = np.random.default_rng(11)
        u = narrow_state(g, rng, support=3, n_modes=4)
        p = params(N=20.0)
        assert energy4(u, p, ModeSet(g, 9)) == energy2(u, p)

    def test_resonant_check_rejects_uneven_multiplier(self, monkeypatch):
        # alpha4 = 0 on k2 = -k1; an even m makes M4 vanish there, an uneven
        # one must be refused as a non-removable singularity
        from fournls import imethod

        g = make_grid(2 * np.pi, 64)
        u = narrow_state(g, np.random.default_rng(11), support=3, n_modes=4)
        monkeypatch.setattr(imethod, "_m_values", lambda p, xi: 1.0 + 0.01 * np.asarray(xi))
        with pytest.raises(NumericDomainError):
            energy4(u, params(N=2.0), ModeSet(g, 9))

    def test_closeness_to_energy2(self):
        # |E4 - E2| <= C ||Iu||^4 with a stable constant across states
        g = make_grid(2 * np.pi, 64)
        rng = np.random.default_rng(12)
        p = params(N=2.0)
        ratios = []
        for _ in range(8):
            u = narrow_state(g, rng, support=6, n_modes=8, scale=0.5)
            gap = abs(energy4(u, p, ModeSet(g, 18)) - energy2(u, p))
            ratios.append(gap / energy2(u, p) ** 2)
        assert max(ratios) < 1.0


class TestLambdaNSymbolInputs:
    @pytest.mark.parametrize("L, K", [(2 * np.pi, 12), (7.3, 12), (7.3, 5)])
    @pytest.mark.parametrize("collapsed", [False, True], ids=["four-slot", "collapsed"])
    def test_symbol_sees_the_hyperplane_lattice_bitwise(self, L, K, collapsed):
        # once per plane k1 + k2 = a, the symbol's inputs are 2 pi/L times the
        # integer lattice (k1, k2, k3, -(k1 + k2 + k3)) on a block of points,
        # read-only; the blocks hold every hyperplane point with |k4| <= R once
        g = make_grid(L, 64)
        u = narrow_state(g, np.random.default_rng(3), support=3, n_modes=5)
        R = 3 * K if collapsed else K
        planes, points = [], []

        def spy(x1, x2, x3, x4):
            k1, k2, k3 = (np.rint(x * L / (2 * np.pi)).astype(int) for x in (x1, x2, x3))
            for got, k in zip((x1, x2, x3, x4), (k1, k2, k3, -(k1 + k2 + k3))):
                assert got.tobytes() == (2 * np.pi / L * k).tobytes()
                assert not got.flags.writeable
            assert len(np.unique(k1 + k2)) == 1
            assert np.all(k1 == k1[:, :1]) and np.all(k3 == k3[:1])
            planes.append(int(k1[0, 0] + k2[0, 0]))
            points.extend(zip(k1.ravel(), k2.ravel(), k3.ravel()))
            return np.ones(k1.shape, dtype=np.complex128)

        symbol = SumLastThree(spy) if collapsed else spy
        res = lambda_n(symbol, [u] * (6 if collapsed else 4), ModeSet(g, K))
        assert sorted(planes) == list(range(-2 * K, 2 * K + 1))
        ks = range(-K, K + 1)
        lattice = [p for p in itertools.product(ks, ks, ks) if abs(sum(p)) <= R]
        assert len(points) == len(lattice)
        assert set(points) == set(lattice)
        assert res.terms == (2 * K + 1) ** 3
        assert np.isfinite(res.value)


class TestSigma4Walk:
    def test_family_walk_equals_member_walks_bitwise(self):
        # the snapshots of three members, walked one member at a time and then
        # as one family
        g = make_grid(2 * np.pi, 64)
        rng = np.random.default_rng(21)
        members = [[narrow_state(g, rng, support=6, n_modes=9, scale=0.5) for _ in range(n)]
                   for n in (3, 2, 3)]
        modes = ModeSet(g, 18)
        alone = np.concatenate([imethod._sigma4_marginals(m, modes) for m in members])
        family = imethod._sigma4_marginals([f for m in members for f in m], modes)
        assert family.shape == (8, 37)
        assert family.tobytes() == alone.tobytes()

    def test_walk_traced_peak_stays_small(self):
        # the 1/alpha4 blocks live in two reused buffers: four snapshots at
        # K = 120 keep the traced peak at about 1.5 MB (6 block-sized arrays,
        # 2.8 MB, before the buffers were reused)
        g = make_grid(2 * np.pi, 512)
        rng = np.random.default_rng(8)
        k = np.arange(-120, 121)
        fields = []
        for _ in range(4):
            coef = np.zeros(512, dtype=np.complex128)
            coef[k % 512] = rng.normal(size=k.size) + 1j * rng.normal(size=k.size)
            fields.append(to_physical(Spectrum(g, coef)))
        modes = ModeSet(g, 120)
        imethod._sigma4_marginals(fields, modes)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            imethod._sigma4_marginals(fields, modes)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak <= 2.0 * 2**20, f"{peak / 2**20:.2f} MB"

    def test_sweep_equals_member_by_member_walks(self):
        # the sweep walks every snapshot of the family at once; its increments
        # must be those of one walk per member, the loop kept here as reference
        g = make_grid(2 * np.pi, 64)
        rng = np.random.default_rng(5)
        family = [imethod.rough_localized_datum(g, rng, support=10) for _ in range(3)]
        cfg = EvolutionConfig(dt=1e-3, t_end=6e-3, scheme="ifrk4", record_stride=2,
                              require_localized=False, start_tail_tol=1.0,
                              run_tail_tol=1.0, project_K=10)
        N_values = [1.0, 2.0, 3.0, 4.0]
        res = imethod.almost_conservation_experiment(family, N_values, cfg, support_K=10)
        modes = ModeSet(g, 10)
        inc4 = {N: [] for N in N_values}
        for f in family:
            snapshots = evolve(f, cfg).fields
            marginals = imethod._sigma4_marginals(snapshots, modes)
            for N in N_values:
                e2 = np.array([energy2(u, params(N=N)) for u in snapshots])
                e4 = e2 + imethod._lambda4_sigma4(marginals, params(N=N), modes).real
                inc4[N].append(float(np.max(np.abs(e4 - e4[0]))))
        assert res.increments_corrected == {N: float(np.mean(v)) for N, v in inc4.items()}
        assert len(set(res.increments_corrected.values())) == 4

    def test_walk_bits_do_not_depend_on_the_blas_thread_count(self):
        # the walk's matrix products go through BLAS; at K = 120 the S = 4
        # marginals and a real and a complex Lambda4 read the same bits on
        # one and on two OpenBLAS threads, each run in a fresh process
        code = (
            "import hashlib, numpy as np\n"
            "from fournls import imethod, lambda_n, make_grid, ModeSet\n"
            "g = make_grid(2 * np.pi, 512)\n"
            "rng = np.random.default_rng(7)\n"
            "family = [imethod.rough_localized_datum(g, rng) for _ in range(4)]\n"
            "modes = ModeSet(g, 120)\n"
            "m = imethod._sigma4_marginals(family, modes)\n"
            "re = lambda_n(lambda a, b, c, d: np.ones_like(a), [family[0]] * 4, modes)\n"
            "co = lambda_n(lambda a, b, c, d: (1 + 0.5j) * np.ones_like(a), [family[0]] * 4, modes)\n"
            "print(hashlib.sha256(m.tobytes()).hexdigest(), repr(re.value), repr(co.value))\n"
        )
        src = str(Path(imethod.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
                   "MKL_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
            run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                 text=True, timeout=300)
            assert run.returncode == 0, run.stderr
            outputs.append(run.stdout)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("K", [12, 120])
    def test_inv_alpha4_is_the_direct_formula_bitwise(self, K):
        # on every plane block the walk asks for, in the walk's order and in
        # rising a (no block then reuses its mirror), 1/alpha4 is the direct
        # formula, with +0 at the resonances and no weight on the plane a = 0
        blocks = []
        zero = np.zeros((1, 2 * K + 1), dtype=np.complex128)
        imethod._walk_planes(lambda *block: blocks.append(block), zero, zero, zero, zero, K)
        assert sorted(a for a, _, _ in blocks) == list(range(-2 * K, 2 * K + 1))
        ks = np.arange(-K, K + 1, dtype=np.float64)
        for order in (blocks, sorted(blocks, key=lambda block: block[0])):
            weight = imethod._inv_alpha4(K)
            for a, rows, cols in order:
                got = weight(a, rows, cols)
                if a == 0:
                    assert got is None
                    continue
                k1, k3 = ks[rows, None], ks[cols]
                k2, k4 = a - k1, -(a + k3)
                alpha = (k1 + k2) * (k1 + k4) * (
                    k1**2 + k2**2 + k3**2 + k4**2 + 2 * (k1 + k3) ** 2)
                want = np.divide(1.0, alpha, out=np.zeros_like(alpha), where=alpha != 0)
                assert got.tobytes() == want.tobytes(), a
                resonant = k1 + k4 == 0
                assert np.array_equal(alpha == 0, resonant)
                assert np.all(got[resonant] == 0) and not np.any(np.signbit(got[resonant]))


class TestDerivativeIdentities:
    def setup_method(self):
        self.grid = make_grid(2 * np.pi, 64)
        self.modes = ModeSet(self.grid, 12)
        self.p = params(N=2.0)

    def cfg(self, kappa=1):
        return EvolutionConfig(equation="quartic", orientation=1, kappa=kappa,
                               dt=1e-5, t_end=1e-4)

    def test_linear_flow(self):
        # kappa = 0: E2 exactly conserved; dE4/dt reduces to the pure
        # resonance-phase rotation of the correction term, Re(-i Lambda4(M4))
        rng = np.random.default_rng(13)
        u = narrow_state(self.grid, rng)
        chk = derivative_identity_check(u, self.p, self.cfg(kappa=0), self.modes)
        assert abs(chk.fd2) < 1e-10
        assert chk.defect4 < 1e-8

    def test_defocusing_sign(self):
        # kappa = -1 flips the Lambda6 constant to -4 and leaves an
        # uncancelled Lambda4 remainder, both captured by the prediction
        rng = np.random.default_rng(17)
        u = narrow_state(self.grid, rng)
        chk = derivative_identity_check(u, self.p, self.cfg(kappa=-1), self.modes)
        assert chk.defect4 < 1e-6
        assert abs(chk.c_estimate + 4.0) < 1e-3

    def test_defect2_inside_threshold(self):
        # every mode in |xi| <= N: m = 1, Lambda4(M4) = 0 term by term and fd2
        # is stencil error, which is measured against E2 rather than itself
        coef = np.zeros(self.grid.M, dtype=np.complex128)
        coef[[1, 2, -2]] = [0.3, 0.2 - 0.1j, 0.25j]
        u = to_physical(Spectrum(self.grid, coef))
        chk = derivative_identity_check(u, self.p, self.cfg(), self.modes)
        assert chk.defect2 < 1e-6

    def test_defect2_small(self):
        rng = np.random.default_rng(14)
        u = narrow_state(self.grid, rng)
        chk = derivative_identity_check(u, self.p, self.cfg(), self.modes)
        assert chk.defect2 < 1e-6

    def test_c_equals_four(self):
        rng = np.random.default_rng(15)
        states = [narrow_state(self.grid, rng) for _ in range(4)]
        c, ratios = fit_m6_constant(states, self.p, self.cfg(), self.modes)
        assert abs(c - 4.0) < 1e-3
        assert np.max(ratios) - np.min(ratios) < 1e-3
        # the harness fits from the checks it already holds: the same numbers
        checks = [derivative_identity_check(u, self.p, self.cfg(), self.modes) for u in states]
        c2, ratios2 = m6_constant_from_checks(checks)
        assert c2 == c and np.array_equal(ratios2, ratios)

    def test_wide_state_rejected(self):
        rng = np.random.default_rng(16)
        u = narrow_state(self.grid, rng, support=10)
        with pytest.raises(ConfigError):
            derivative_identity_check(u, self.p, self.cfg(), self.modes)


def criterion04_first_state():
    """The first of criterion 04's ten states: five modes in |k| <= 4 on L = 2 pi, M = 64."""
    grid = make_grid(2 * np.pi, 64)
    rng = np.random.default_rng(123)
    coef = np.zeros(64, dtype=np.complex128)
    for k in rng.choice(np.arange(-4, 5), size=5, replace=False):
        coef[int(k) % 64] = 0.3 * (rng.normal() + 1j * rng.normal())
    return to_physical(Spectrum(grid, coef))


class TestModeSetOwnsTheLattice:
    """A field meets the truncated lattice only through its ``ModeSet``: a form,
    an identity check or a sweep on a field off ``modes.grid`` is refused,
    naming the field, before any work.  Without that check the walk read
    8.4304 for int |u|^4 = 0.44311 below, the identity check c = -9613.3 for
    4, and a sweep scaled an L = 3 pi member by member 0's L = 2 pi."""

    def ones(self):
        return lambda a, b, c, d: np.ones_like(a)

    def mismatched(self):
        u = make_gaussian(make_grid(2 * np.pi, 64), width=0.5)
        return [(u, ModeSet(make_grid(2 * np.pi, 512), 120)),
                (criterion04_first_state(), ModeSet(make_grid(7.3, 64), 12))]

    @pytest.mark.parametrize("case", [0, 1], ids=["M=64-field-M=512-modes", "L=7.3-modes"])
    def test_forms_refuse_a_field_off_the_mode_set_grid(self, case):
        u, modes = self.mismatched()[case]
        with pytest.raises(ConfigError, match=r"field 0 lies on Grid\(L=6.28"):
            lambda_n(self.ones(), [u] * 4, modes)
        with pytest.raises(ConfigError, match="field 0 lies on"):
            energy4(u, params(), modes)
        other = Field(modes.grid, np.zeros(modes.grid.M))
        with pytest.raises(ConfigError, match="field 2 lies on"):
            lambda_n(self.ones(), [other, other, u, other], modes)

    def test_forms_read_L_from_the_mode_set(self):
        # a field on an equal grid, built apart, is on the lattice: int |u|^4
        u = make_gaussian(make_grid(2 * np.pi, 64), width=0.5)
        got = lambda_n(self.ones(), [u] * 4, ModeSet(make_grid(2 * np.pi, 64), 20)).value
        assert abs(got - u.grid.dx * np.sum(np.abs(u.values) ** 4)) < 1e-12

    @pytest.mark.parametrize("case", [0, 1], ids=["M=64-field-M=512-modes", "L=7.3-modes"])
    def test_identity_check_refuses_before_any_galerkin_step(self, case, monkeypatch):
        u, modes = self.mismatched()[case]
        monkeypatch.setattr(imethod, "galerkin_evolve", lambda *a, **k: pytest.fail("evolved"))
        cfg = EvolutionConfig(kappa=1, dt=1e-5, t_end=1e-4)
        with pytest.raises(ConfigError, match="field 0 lies on"):
            derivative_identity_check(u, params(), cfg, modes)

    def test_sweep_refuses_a_mixed_length_family_before_evolving(self, monkeypatch):
        family = [criterion04_first_state()]
        family.append(Field(make_grid(3 * np.pi, 64), family[0].values))
        monkeypatch.setattr(imethod, "evolve_many", lambda *a: pytest.fail("evolved"))
        cfg = EvolutionConfig(kappa=1, dt=1e-3, t_end=1e-2, scheme="ifrk4",
                              require_localized=False, project_K=12)
        with pytest.raises(ConfigError, match=r"field 1 lies on Grid\(L=9.42"):
            imethod.almost_conservation_experiment(family, [1, 2, 3, 4], cfg, support_K=12)

    @pytest.mark.parametrize("K", [32, 40])
    def test_one_cutoff_rule_for_mode_sets_and_galerkin_runs(self, K):
        g = make_grid(2 * np.pi, 64)
        with pytest.raises(ConfigError) as by_modes:
            ModeSet(g, K)
        with pytest.raises(ConfigError) as by_galerkin:
            imethod.galerkin_evolve(Spectrum(g, np.zeros(64)), EvolutionConfig(), K, 0.1)
        assert str(by_modes.value) == str(by_galerkin.value)
        assert f"K={K} needs K <= M/2 - 1" in str(by_modes.value)
        assert ModeSet(g, 31).K == 31

    def test_one_support_threshold_for_identity_checks_and_galerkin_runs(self):
        # a mode 5e-13 of the peak counts as support for both readers; the
        # Galerkin cutoff used to read at 1e-12 and drop it without a word
        g = make_grid(2 * np.pi, 64)
        coef = np.zeros(64, dtype=np.complex128)
        coef[1], coef[5] = 1.0, 5e-13
        with pytest.raises(ConfigError, match="support above the Galerkin cutoff K=4"):
            imethod.galerkin_evolve(Spectrum(g, coef), EvolutionConfig(), 4, 0.1)
        with pytest.raises(ConfigError, match="state support 5 too wide"):
            derivative_identity_check(to_physical(Spectrum(g, coef)), params(),
                                      EvolutionConfig(), ModeSet(g, 12))
        coef[5] = 5e-14  # below 1e-13 of the peak: round-off, not support
        assert imethod.galerkin_evolve(Spectrum(g, coef), EvolutionConfig(), 4, 0.1).coef[5] == 0


class TestSigma4FormsSeeTheWholeState:
    """The sigma4 walk reads a state's modes on |k| <= K only.  A state with a
    mode above K is refused, naming it, by ``energy4``, the identity check's
    stencil and the sweep; it used to be truncated without a word (``energy4``
    at N = 2 read 4.79517 at K = 3 against 4.79582 at K = 10 on a state like
    the one below).  ``lambda_n`` keeps its documented truncation."""

    def wide_state(self):
        # 21 random modes on |k| <= 10
        g = make_grid(2 * np.pi, 64)
        rng = np.random.default_rng(0)
        ks = np.arange(-10, 11)
        coef = np.zeros(64, dtype=np.complex128)
        coef[ks % 64] = 0.3 * (rng.normal(size=21) + 1j * rng.normal(size=21))
        return to_physical(Spectrum(g, coef))

    @pytest.mark.parametrize("K", [3, 9])
    def test_a_state_wider_than_K_is_refused(self, K):
        u = self.wide_state()
        modes = ModeSet(u.grid, K)
        with pytest.raises(ConfigError, match=f"field 0 has support 10 above the mode cutoff "
                                              f"K={K}"):
            energy4(u, params(), modes)
        narrow = narrow_state(u.grid, np.random.default_rng(1), support=1, n_modes=2)
        with pytest.raises(ConfigError, match="field 2 has support 10"):
            imethod._sigma4_marginals([narrow, narrow, u], modes)

    def test_sweep_refuses_a_wide_family_before_evolving(self, monkeypatch):
        monkeypatch.setattr(imethod, "evolve_many", lambda *a: pytest.fail("evolved"))
        cfg = EvolutionConfig(dt=1e-3, t_end=2e-3, scheme="ifrk4", require_localized=False,
                              project_K=9)
        with pytest.raises(ConfigError, match="field 0 has support 10"):
            imethod.almost_conservation_experiment([self.wide_state()], [1, 2, 3, 4], cfg,
                                                   support_K=9)

    @pytest.mark.parametrize("K", [10, 20, 30])
    def test_the_value_at_K_at_or_above_the_support_is_unchanged(self, K):
        u = self.wide_state()
        modes = ModeSet(u.grid, K)
        # the walk as it ran before the refusal, on the lattice coefficients alone
        a = imethod._coefs([u], modes)
        b = np.conj(a[:, ::-1])
        r1, r2 = imethod._walk_planes(imethod._inv_alpha4(K), a, b, a, b, K)
        ungated = (r1 - r2) / (2 * np.pi / modes.grid.L) ** 4
        assert imethod._sigma4_marginals([u], modes).tobytes() == ungated.tobytes()
        at_support = energy4(u, params(), ModeSet(u.grid, 10))
        assert abs(energy4(u, params(), modes) - at_support) <= 1e-12 * abs(at_support)

    def test_lambda_n_keeps_its_truncation(self):
        u = self.wide_state()
        ones = lambda a, b, c, d: np.ones_like(a)
        full = lambda_n(ones, [u] * 4, ModeSet(u.grid, 10)).value
        assert abs(full - u.grid.dx * np.sum(np.abs(u.values) ** 4)) <= 1e-12 * abs(full)
        assert abs(lambda_n(ones, [u] * 4, ModeSet(u.grid, 3)).value) < 0.5 * abs(full)


class TestSweepThresholds:
    @pytest.mark.parametrize("bad", [0.5, True, "x", None, []])
    def test_a_bad_threshold_is_refused_before_evolving(self, bad, monkeypatch):
        # N = 0.5 used to be refused only inside the sweep, after evolve_many
        # and the sigma4 walk had run; True was read as N = 1, "x" and None
        # raised bare exceptions from float() and [] from the increments dict
        monkeypatch.setattr(imethod, "evolve_many", lambda *a: pytest.fail("evolved"))
        u = criterion04_first_state()
        cfg = EvolutionConfig(dt=1e-3, t_end=2e-3, scheme="ifrk4", require_localized=False,
                              project_K=12)
        with pytest.raises(ConfigError, match="threshold N must be a finite number >= 1, "
                                              + re.escape(f"got {bad!r}")):
            imethod.almost_conservation_experiment([u], [2, 3, 4, bad], cfg, support_K=12)

    @pytest.mark.parametrize("kind", [Fraction, np.float32, int])
    def test_any_real_threshold_reads_as_its_float(self, kind):
        # the sweep passes N on as given; np.log of a Fraction N raised a bare
        # TypeError, and a float32 N took the multiplier's logs in float32
        g = make_grid(2 * np.pi, 64)
        rng = np.random.default_rng(5)
        family = [imethod.rough_localized_datum(g, rng, support=10) for _ in range(2)]
        cfg = EvolutionConfig(dt=1e-3, t_end=4e-3, scheme="ifrk4", record_stride=2,
                              require_localized=False, start_tail_tol=1.0,
                              run_tail_tol=1.0, project_K=10)
        runs = [imethod.almost_conservation_experiment(family, [t(N) for N in (2, 3, 4, 5)],
                                                       cfg, support_K=10)
                for t in (kind, float)]
        assert runs[0].increments_corrected == runs[1].increments_corrected
        assert runs[0].fit_corrected == runs[1].fit_corrected

    @pytest.mark.parametrize("project_K", [None, 13])
    def test_a_flow_past_the_mode_set_is_refused_before_evolving(self, project_K, monkeypatch):
        # the cubic term spreads a flow's modes up to project_K, or to the grid
        # without it; the sigma4 walk refused the snapshots only after the run
        monkeypatch.setattr(imethod, "evolve_many", lambda *a: pytest.fail("evolved"))
        cfg = EvolutionConfig(dt=1e-3, t_end=2e-3, scheme="ifrk4", require_localized=False,
                              project_K=project_K)
        with pytest.raises(ConfigError, match=re.escape(
                f"in |k| <= support_K=12, got project_K={project_K}")):
            imethod.almost_conservation_experiment([criterion04_first_state()], [1, 2, 3, 4],
                                                   cfg, support_K=12)


class TestGwpParameters:
    def test_half_regularity(self):
        res = gwp_parameters(Fraction(-1, 2), T=100.0, u0_norm=1.0, eps0=1.0)
        assert res.lambda_exponent == Fraction(1, 2)
        assert res.time_exponent == Fraction(1)
        assert res.growth_exponent == Fraction(1, 2)
        assert abs(res.N - 100.0) < 1e-9
        assert abs(res.lam - 10.0) < 1e-9  # N^(1/2)

    def test_zero_regularity(self):
        res = gwp_parameters(0, T=50.0, u0_norm=2.0, eps0=0.5)
        assert res.lam == 1.0
        assert res.growth_exponent == 0

    def test_near_critical_rejected(self):
        with pytest.raises(ConfigError):
            gwp_parameters(Fraction(-3, 2), T=10.0, u0_norm=1.0, eps0=1.0)
        with pytest.raises(ConfigError):
            gwp_parameters(-1.4, T=10.0, u0_norm=1.0, eps0=1.0)

    @pytest.mark.parametrize("s, T", [(-0.6428, 100.0), (-0.642857, 2.0)])
    def test_overflow_near_the_time_exponent_zero_is_a_config_error(self, s, T):
        # 14 s + 9 -> 0+ sends N = T^(1/t_exp) past every float, which Python's
        # float power raised as a bare OverflowError
        with pytest.raises(ConfigError, match="overflowed"):
            gwp_parameters(s, T=T, u0_norm=1.0, eps0=0.1)

    @pytest.mark.parametrize("s", [np.nan, np.inf, -np.inf])
    def test_non_finite_regularity_rejected(self, s):
        # Fraction(s) used to raise a bare ValueError or OverflowError
        with pytest.raises(ConfigError):
            gwp_parameters(s, T=10.0, u0_norm=1.0, eps0=1.0)
