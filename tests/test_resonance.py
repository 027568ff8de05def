import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from fournls.errors import ConfigError
from fournls.resonance import (
    MODES_PER_BAND,
    _band_ratio,
    resonance_lhs,
    resonance_product_signed,
    sample_hyperplane,
    trilinear_counterexample,
)
from fournls.spectral import Field, Spectrum, make_grid, to_physical, to_spectrum


class TestFactorization:
    def test_symbolic_identity(self):
        # exact symbolic oracle: the signed pairing is a polynomial identity
        x1, x2, x3 = sp.symbols("x1 x2 x3")
        x4 = -x1 - x2 - x3
        lhs = x1**4 - x2**4 + x3**4 - x4**4
        quad = x1**2 + x2**2 + x3**2 + x4**2 + 2 * (x1 + x3) ** 2
        assert sp.expand(lhs - (x1 + x2) * (x1 + x4) * quad) == 0

    def test_reference_tuple(self):
        # (1,2,3,-6): both sides -1230
        assert resonance_lhs(1, 2, 3, -6) == -1230
        assert resonance_product_signed(1, 2, 3, -6) == -1230

    def test_pair_pattern_vanishes(self):
        assert resonance_lhs(5, 5, 2, 2 - 14 + 0) != 0  # not a hyperplane tuple
        assert resonance_product_signed(3, -3, 7, -7) == 0.0
        assert resonance_lhs(3, -3, 7, -7) == 0.0

    def test_abs_form_matches_magnitude_only(self):
        # (1, 1, 0, -2): signed product -16 = lhs, but the commonly quoted
        # (xi2+xi3) pairing, |(xi1+xi2)(xi2+xi3)| Q, gives +16
        def abs_form(x1, x2, x3, x4):
            quad = x1**2 + x2**2 + x3**2 + x4**2 + 2 * (x1 + x3) ** 2
            return np.abs((x1 + x2) * (x2 + x3)) * quad

        assert resonance_lhs(1, 1, 0, -2) == -16
        assert resonance_product_signed(1, 1, 0, -2) == -16
        assert abs_form(1, 1, 0, -2) == 16
        x = sample_hyperplane(np.random.default_rng(0), 5000)
        lhs = resonance_lhs(*x)
        assert np.allclose(np.abs(lhs), abs_form(*x), rtol=1e-9, atol=1e-6)

    def test_million_random_tuples(self):
        rng = np.random.default_rng(1)
        x1, x2, x3, x4 = sample_hyperplane(rng, 1_000_000)
        resid = np.abs(resonance_lhs(x1, x2, x3, x4)
                       - resonance_product_signed(x1, x2, x3, x4))
        scale = np.maximum.reduce([np.abs(v) for v in (x1, x2, x3, x4)]) ** 4
        assert float(np.max(resid / scale)) < 1e-6


# |k| <= 2048 keeps |k4| <= 6144 and every term and partial product of both
# sides below 2^53, so float64 evaluates them exactly
lattice_triples = st.lists(st.tuples(*[st.integers(-2048, 2048)] * 3), min_size=1, max_size=64)


class TestFactorizationProperties:
    @settings(max_examples=200, deadline=None)
    @given(lattice_triples)
    def test_signed_factorization_on_integer_quadruples(self, triples):
        k1, k2, k3 = (np.array(k, dtype=np.int64) for k in zip(*triples))
        k4 = -(k1 + k2 + k3)
        quad = k1**2 + k2**2 + k3**2 + k4**2 + 2 * (k1 + k3) ** 2
        exact = k1**4 - k2**4 + k3**4 - k4**4  # int64 holds these exactly
        assert np.array_equal((k1 + k2) * (k1 + k4) * quad, exact)
        biggest = np.maximum.reduce([k1 * k1, k2 * k2, k3 * k3, k4 * k4])
        assert np.all(biggest <= quad) and np.all(quad <= 12 * biggest)
        x = [k.astype(np.float64) for k in (k1, k2, k3, k4)]
        assert np.array_equal(resonance_product_signed(*x), exact.astype(np.float64))
        assert np.array_equal(resonance_lhs(*x), exact.astype(np.float64))


def _band_grid(N: float):
    """k0 = 0 grid whose lattice resolves the band [N, N + 1/N] with 4 modes."""
    L = 2 * np.pi * MODES_PER_BAND * N  # delta_xi = 1/(4N)
    M = int(np.ceil(L * 1.25 * N / np.pi / 2)) * 2
    return make_grid(L, M)


def _band_field(N: float) -> Field:
    """Unit-height indicator spectrum on [N, N + 1/N] as a physical field."""
    grid = _band_grid(N)
    xi = grid.xi
    band = (xi >= N) & (xi < N + 1.0 / N)
    coef = np.zeros(grid.M, dtype=np.complex128)
    coef[band] = 1.0 / grid.L  # continuum hat(u) = 1 on the band
    return to_physical(Spectrum(grid, coef))


class TestTrilinearCounterexample:
    def test_band_convolution_matches_grid_product(self):
        # dual route: the 16-point band grid vs the pointwise product on a
        # k0 = 0 grid that reaches the band
        N, s = 16.0, -0.5
        times = np.linspace(-1.0, 1.0, 5)
        u0 = _band_field(N)
        grid = u0.grid
        spec0 = to_spectrum(u0).coef
        weight = (1.0 + grid.xi**2) ** s
        vals = []
        for t in times:
            u = to_physical(Spectrum(grid, spec0 * np.exp(-1j * t * grid.xi**4)))
            prod = Field(grid, u.values * np.conj(u.values) * u.values)
            vals.append(grid.L * np.sum(weight * np.abs(to_spectrum(prod).coef) ** 2))
        lhs_grid = np.sqrt(np.trapezoid(np.array(vals), times))
        lhs_band, _ = _band_ratio(N, s, times)
        assert abs(lhs_grid - lhs_band) < 1e-12 * lhs_band

    def test_marginal_regularity_flat(self):
        res = trilinear_counterexample([16, 32, 64, 128, 256, 512], -0.5)
        assert abs(res.fit.slope) < 0.1
        assert not res.diverges

    def test_rough_regularity_diverges(self):
        res = trilinear_counterexample([16, 32, 64, 128, 256, 512], -1.0)
        assert abs(res.fit.slope - 1.0) < 0.15
        assert res.diverges

    def test_zero_regularity_comfortable(self):
        res = trilinear_counterexample([16, 32, 64, 128, 256, 512], 0.0)
        assert abs(res.fit.slope + 1.0) < 0.15
        assert not res.diverges

    @pytest.mark.parametrize("s", [0.25, 1e-9, 0.5])
    def test_positive_regularity_rejected(self, s):
        # the counterexample targets s <= 0; s = 0.25 used to run and fit -1.499
        with pytest.raises(ConfigError, match="s <= 0"):
            trilinear_counterexample([16, 32, 64, 128], s)

    def test_exponent_law_across_s(self):
        for s in (0.0, -0.25, -0.5, -0.75, -1.0):
            res = trilinear_counterexample([16, 32, 64, 128, 256], s)
            assert abs(res.fit.slope - (-2 * s - 1)) < 0.15, s
