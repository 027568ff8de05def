import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from math import gamma, inf, pi
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fournls
from fournls import (
    ConfigError,
    ResolutionError,
    make_gaussian,
    make_grid,
    to_physical,
    to_spectrum,
)
from fournls.dispersive import (
    bilinear_fit,
    decay_fit,
    flat_spectrum_datum,
    kernel_K,
    local_smoothing_check,
    local_smoothing_family,
    strichartz_admissible,
)
from fournls.fitting import fit_loglog
from fournls.dispersive import _log_time_grid
from fournls.spectral import Field, Spectrum, boundary_tail_fraction, lebesgue_norm


class TestKernel:
    def test_self_similarity(self):
        # K_t(x) = t^(-(a+1)/4) K_1(x t^(-1/4))
        worst = 0.0
        for alpha in (0.0, 0.5, 1.0):
            for t in (0.5, 2.0, 4.0):
                for x in (-20.0, -5.0, 0.0, 3.0, 15.0):
                    lhs = kernel_K(t, x, alpha)
                    rhs = t ** (-(alpha + 1) / 4) * kernel_K(1.0, x * t**-0.25, alpha)
                    worst = max(worst, abs(lhs - rhs))
        assert worst < 1e-5

    def test_value_at_origin_against_closed_form(self):
        # int e^{i xi^4} dxi = 2 Gamma(5/4) e^{i pi/8}
        exact = 2 * gamma(1.25) * np.exp(1j * pi / 8)
        assert abs(kernel_K(1.0, 0.0, 0.0) - exact) < 1e-9

    def test_origin_magnitude_power_law(self):
        ts = np.geomspace(1.0, 100.0, 8)
        fit = fit_loglog([(t, abs(kernel_K(t, 0.0, 0.0))) for t in ts])
        assert abs(fit.slope + 0.25) < 1e-6

    def test_bounded_over_window(self):
        vals = [abs(kernel_K(1.0, x, 0.0)) for x in np.linspace(-50, 50, 41)]
        assert max(vals) < 5.0

    def test_zero_time_rejected(self):
        with pytest.raises(ConfigError):
            kernel_K(0.0, 1.0, 0.0)

    def test_bits_do_not_depend_on_the_blas_thread_count(self):
        # criterion 07's 36 kernel calls read the same bits on one and on two
        # OpenBLAS threads, each run in a fresh process
        code = (
            "from fournls.dispersive import kernel_K\n"
            "for alpha in (0.0, 1.0):\n"
            "    for t in (0.5, 2.0, 4.0):\n"
            "        for x in (-20.0, 0.0, 15.0):\n"
            "            print(repr(kernel_K(t, x, alpha)),\n"
            "                  repr(kernel_K(1.0, x * t**-0.25, alpha)))\n"
        )
        src = str(Path(fournls.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
                   "MKL_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
            run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                 text=True, timeout=300)
            assert run.returncode == 0, run.stderr
            outputs.append(run.stdout)
        assert len(outputs[0].splitlines()) == 18
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("t, x", [(np.nan, 1.0), (np.inf, 1.0), (1.0, np.nan), (1.0, np.inf)])
    def test_non_finite_point_rejected(self, t, x):
        with pytest.raises(ConfigError):
            kernel_K(t, x, 0.0)


def full_range_K(t, x, alpha):
    """The full-range form of ``kernel_K``: the complex exponential summed on
    [-xi_cut, xi_cut] with the same panels, rule and tail corrections."""
    t, x = float(t), float(x)
    xi_stat = (abs(x) / (4 * abs(t))) ** (1.0 / 3.0)
    xi_cut = 2.0 * xi_stat + 8.0 / abs(t) ** 0.25 + 4.0
    n_panels = max(16, int(abs(t) * xi_cut**4 + abs(x) * xi_cut))
    n_panels += n_panels % 2
    x0, w0 = np.polynomial.legendre.leggauss(10)
    edges = np.linspace(-xi_cut, xi_cut, n_panels + 1)
    mid = (edges[1:] + edges[:-1]) / 2
    half = (edges[1:] - edges[:-1]) / 2
    xs = (mid[:, None] + half[:, None] * x0[None, :]).ravel()
    ws = (half[:, None] * w0[None, :]).ravel()
    f = np.abs(xs) ** alpha if alpha > 0 else np.ones_like(xs)
    val = np.sum(ws * f * np.exp(1j * (t * xs**4 + x * xs)))

    def tail_correction(xi_e, sign):
        phi = t * xi_e**4 + x * xi_e
        dphi = 4 * t * xi_e**3 + x
        fval = abs(xi_e) ** alpha
        fprime = alpha * abs(xi_e) ** (alpha - 1) * np.sign(xi_e) if alpha > 0 else 0.0
        d2phi = 12 * t * xi_e**2
        term1 = -sign * fval * np.exp(1j * phi) / (1j * dphi)
        g = (fprime * dphi - fval * d2phi) / dphi**2
        term2 = sign * g * np.exp(1j * phi) / (1j * dphi) / 1j
        return term1 + term2

    return complex(val + tail_correction(xi_cut, +1.0) + tail_correction(-xi_cut, -1.0))


class TestKernelProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.1, 2.0), st.booleans(), st.floats(-20.0, 20.0), st.floats(0.0, 1.0))
    def test_even_in_x_and_conjugate_in_t(self, t, negative, x, alpha):
        t = -t if negative else t
        k = kernel_K(t, x, alpha)
        assert abs(kernel_K(t, -x, alpha) - k) < 1e-12
        assert abs(kernel_K(-t, x, alpha) - np.conj(k)) < 1e-12

    def test_half_range_matches_full_range(self):
        # criterion 07's evaluation points and the points its scaling maps them to
        pairs = [(p, y) for t in (0.5, 2.0, 4.0) for x in (-20.0, 0.0, 15.0)
                 for p, y in ((t, x), (1.0, x * t**-0.25))]
        for alpha in (0.0, 0.5, 1.0):
            for t, x in pairs:
                assert abs(kernel_K(t, x, alpha) - full_range_K(t, x, alpha)) < 1e-11, (t, x)

    def test_memory_does_not_grow_with_phase_span(self):
        # about 1.1 million panels; the working set is a few fixed-size blocks
        tracemalloc.start()
        try:
            kernel_K(1.0, 3770.0, 0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6


@pytest.fixture(scope="module")
def datum():
    return flat_spectrum_datum(make_grid(6000.0, 16384))


class TestDecay:

    def test_alpha0(self, datum):
        fit = decay_fit(0.0, datum, np.geomspace(4.0, 40.0, 12))
        assert abs(fit.slope + 0.25) < 0.03
        assert fit.residual_rms < 0.05

    def test_alpha1(self, datum):
        fit = decay_fit(1.0, datum, np.geomspace(4.0, 40.0, 12))
        assert abs(fit.slope + 0.5) < 0.05
        assert fit.residual_rms < 0.05

    def test_plateau_excluded(self, datum):
        # very early times (no decay yet) are dropped, leaving >= 4 points
        fit = decay_fit(0.0, datum, [1e-4, 1e-3] + list(np.geomspace(4.0, 40.0, 8)))
        assert len(fit.points) == 8

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_fit_streams_its_flow_a_field_at_a_time(self, datum, alpha):
        # the sorted times run through one free_flow, a 16384-point row per
        # time: a traced peak of 1.0 and 1.5 MB, against 1.0 and 1.1 MB for one
        # flow per time and 3.8 and 4.3 MB for all 12 times as one block
        times = np.geomspace(4.0, 40.0, 12)
        decay_fit(alpha, datum, times)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            decay_fit(alpha, datum, times)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak <= 2.0 * 2**20, f"{peak / 2**20:.2f} MB"

    def test_decay_matches_kernel_scaling(self, datum):
        fit = decay_fit(0.0, datum, np.geomspace(4.0, 40.0, 8))
        kfit = fit_loglog(
            [(t, abs(kernel_K(t, 0.0, 0.0))) for t in np.geomspace(1.0, 100.0, 6)]
        )
        assert abs(fit.slope - kfit.slope) < 0.03


class TestStrichartzAdmissible:
    def test_known_admissible_pairs(self):
        assert strichartz_admissible(4, inf, 1)
        assert strichartz_admissible(8, inf, 0)
        for alpha in (0, Fraction(1, 3), 0.5, 1):
            assert strichartz_admissible(inf, 2, alpha)

    def test_relation_violated(self):
        assert not strichartz_admissible(2, inf, 0)

    def test_r_below_two(self):
        assert not strichartz_admissible(8, 1, 0)

    def test_q_below_threshold(self):
        # q = 7 < 8 with r solving the relation is still rejected
        q = 7
        r = Fraction(1, 1) / (Fraction(1, 2) - Fraction(4, q))
        assert r < 0 or not strichartz_admissible(q, r, 0)

    def test_exact_rationals(self):
        # 4/q + (1+a)/r = (1+a)/2 with a = 1/3: 4/8 + (4/3)/8 = 2/3 exactly
        assert strichartz_admissible(8, 8, Fraction(1, 3))
        assert not strichartz_admissible(8, 9, Fraction(1, 3))
        # a float is rounded to a small denominator: the binary value of 1/3
        # is not 1/3 and would fail the relation, the rounded one passes it
        assert Fraction(1 / 3) != Fraction(1, 3)
        assert strichartz_admissible(8, 8, 1 / 3)

    def test_bad_alpha_rejected(self):
        with pytest.raises(ConfigError):
            strichartz_admissible(8, inf, 2)

    @pytest.mark.parametrize("bad", [np.nan, -inf, True, "8"])
    @pytest.mark.parametrize("slot", range(3))
    def test_bad_exponent_rejected(self, bad, slot):
        args = [8, inf, 0]
        args[slot] = bad
        with pytest.raises(ConfigError):
            strichartz_admissible(*args)


class TestBilinear:
    def test_high_frequency_slope(self):
        fit = bilinear_fit(2.0, [32, 64, 128, 256, 512])
        assert abs(fit.slope + 1.5) < 0.15
        assert fit.residual_rms < 0.05

    def test_swap_symmetry(self):
        # which packet is "low" cannot matter: the product is commutative
        a = bilinear_fit(2.0, [64, 128, 256, 512])
        b = bilinear_fit(2.0, [64, 128, 256, 512])
        assert a.points == b.points

    def test_hypothesis_guard(self):
        with pytest.raises(ConfigError):
            bilinear_fit(64.0, [64, 128])
        with pytest.raises(ConfigError):  # a bare ValueError from float("x") before
            bilinear_fit(1.0, ["x"])
        with pytest.raises(ConfigError):  # a bare TypeError from "x" > 8.0 before
            bilinear_fit("x", [64])

    @pytest.mark.parametrize("n1, n2", [(0.0, 0.0), (np.nan, 32.0), (2.0, np.inf)])
    def test_degenerate_frequencies_rejected(self, n1, n2):
        # (0, 0) used to divide by zero in the co-moving window
        from fournls.dispersive import bilinear_interaction_norm

        with pytest.raises(ConfigError):
            bilinear_interaction_norm(n1, n2)

    def test_equal_frequency_degrades(self):
        # diagnostic only: with n1 = n2 the packets co-move and the -3/2
        # transversality mechanism disappears; the exponent visibly degrades
        from fournls.dispersive import bilinear_interaction_norm

        pts = [
            (n, bilinear_interaction_norm(n, n)) for n in (32.0, 64.0, 128.0, 256.0)
        ]
        fit = fit_loglog(pts)
        assert fit.slope > -1.5 + 0.3


def _local_smoothing_one_time_at_a_time(datum, window, order, n_times):
    # the quotient with one inverse transform and one boundary check per time
    grid = datum.grid
    spec0 = to_spectrum(datum).coef
    weight = np.abs(grid.xi) ** order
    ts = np.concatenate([[0.0], _log_time_grid(window, n_times - 1)])
    profiles = np.empty((len(ts), grid.M))
    for i, t in enumerate(ts):
        u = to_physical(Spectrum(grid, spec0 * weight * np.exp(-1j * t * grid.xi**4)))
        if boundary_tail_fraction(u) > 1e-3:
            raise ResolutionError(f"window too long: wrap-around at t={t:g}")
        profiles[i] = np.abs(u.values) ** 2
    integral = np.trapezoid(profiles, ts, axis=0)
    return float(np.sqrt(np.max(integral)) / lebesgue_norm(datum, 2))


class TestLocalSmoothing:
    # the 100 times stream through one free_flow at M = 16384; each row must
    # be the bits of a flow to that time alone
    @pytest.mark.parametrize("order", [1.5, 2.0])
    def test_chunks_match_one_time_at_a_time_bitwise(self, order):
        f = make_gaussian(make_grid(80.0, 16384), width=1.0, carrier=4.0)
        got = local_smoothing_check(f, 0.005, order=order, n_times=100)
        assert got == _local_smoothing_one_time_at_a_time(f, 0.005, order, 100)

    @pytest.mark.parametrize("window", [0.0, -0.1, np.nan, np.inf])
    def test_bad_window_rejected(self, window):
        # a zero window used to raise a bare ValueError from geomspace
        f = make_gaussian(make_grid(80.0, 1024), width=1.0, carrier=4.0)
        with pytest.raises(ConfigError):
            local_smoothing_check(f, window, n_times=10)

    def test_wrap_around_names_the_first_offending_time(self):
        f = make_gaussian(make_grid(80.0, 16384), width=1.0, carrier=4.0)
        with pytest.raises(ResolutionError) as want:
            _local_smoothing_one_time_at_a_time(f, 0.5, 1.5, 100)
        with pytest.raises(ResolutionError) as got:
            local_smoothing_check(f, 0.5, n_times=100)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("n_times", [1, 0, 2.5, True])
    def test_bad_time_count_rejected(self, n_times):
        f = make_gaussian(make_grid(80.0, 1024), width=1.0, carrier=4.0)
        with pytest.raises(ConfigError):
            local_smoothing_check(f, 1e-3, n_times=n_times)

    def test_zero_datum(self):
        g = make_grid(40.0, 512)
        assert local_smoothing_check(Field(g, np.zeros(512, complex)), 1.0) == 0.0

    def test_family_ratio_bounded(self):
        scales = [1, 2, 4, 8, 16, 32]
        ratios = local_smoothing_family(scales, order=1.5)
        vals = np.array([ratios[s] for s in scales])
        assert vals.max() / vals.min() < 2.0

    @pytest.mark.parametrize("scales", [[True, "2"], [1, "2"], [1, float("nan")], [1, -2], [0], []])
    def test_bad_scales_rejected(self, scales):
        with pytest.raises(ConfigError):
            local_smoothing_family(scales)

    def test_supercritical_order_grows(self):
        scales = [1, 2, 4, 8, 16, 32]
        ctrl = local_smoothing_family(scales, order=2.0)
        vals = [ctrl[s] for s in scales]
        fit = fit_loglog(list(zip(scales, vals)))
        assert fit.slope > 0.35  # ~ lambda^(1/2)
        assert vals[-1] / vals[0] > 2.0
