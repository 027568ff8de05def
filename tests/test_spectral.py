import numpy as np
import pytest

from fournls import (
    ConfigError,
    Field,
    NumericDomainError,
    ResolutionError,
    apply_symbol,
    fractional_derivative,
    lebesgue_norm,
    make_gaussian,
    make_grid,
    sobolev_norm,
    to_physical,
    to_spectrum,
)
from fournls.spectral import (
    _fft,
    _ifft,
    boundary_tail_fraction,
    check_resolved,
    spectral_tail_fraction,
)


def random_field(grid, rng, decay=2.0):
    coef = (rng.normal(size=grid.M) + 1j * rng.normal(size=grid.M))
    coef /= (1.0 + np.abs(grid.k)) ** decay
    return to_physical(type(to_spectrum(Field(grid, np.zeros(grid.M))))(grid, coef))


class TestGrid:
    def test_unit_spacing_frequencies(self):
        g = make_grid(2 * np.pi, 8)
        assert sorted(g.k.tolist()) == [-4, -3, -2, -1, 0, 1, 2, 3]
        assert np.allclose(sorted(g.xi), np.arange(-4, 4))

    def test_dx(self):
        g = make_grid(100.0, 1024)
        assert g.dx == 100.0 / 1024
        assert g.dx * g.M == g.L

    @pytest.mark.parametrize("L, M, k0", [(2 * np.pi, 8, 0), (7.3, 64, 0), (40.0, 96, 37)])
    def test_lattice_arrays_are_their_formulas_once_and_read_only(self, L, M, k0):
        g = make_grid(L, M, k0)
        k = np.fft.fftfreq(M, d=1.0 / M).astype(np.int64)
        formulas = {
            "x": -L / 2 + L / M * np.arange(M),
            "k": k,
            "xi": 2.0 * np.pi / L * (k + k0),
            "_centering_phase": np.where(k % 2 == 0, 1.0, -1.0),
        }
        for name, want in formulas.items():
            got = getattr(g, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
            assert getattr(g, name) is got, name  # computed once
            with pytest.raises(ValueError):
                got[0] = got[1]
        # the cached arrays do not enter equality or hashing
        fresh = make_grid(L, M, k0)
        assert fresh == g and hash(fresh) == hash(g)

    def test_invalid(self):
        with pytest.raises(ConfigError):
            make_grid(-1.0, 16)
        with pytest.raises(ConfigError):
            make_grid(10.0, 15)
        with pytest.raises(ConfigError):
            make_grid(10.0, 4)
        # each is checked before float() or int() could read it as another value
        for L, M, k0 in ((40.0, 256.9, 0), (40.0, 256, 0.5), ("40", 256, 0), (True, 256, 0),
                         (40.0, True, 0)):
            with pytest.raises(ConfigError):
                make_grid(L, M, k0)


class TestTransforms:
    def test_single_mode(self):
        g = make_grid(2 * np.pi, 8)
        s = to_spectrum(Field(g, np.exp(1j * g.x)))
        assert abs(s.coef[1] - 1.0) < 1e-14
        assert np.max(np.abs(np.delete(s.coef, 1))) < 1e-14

    def test_constant(self):
        g = make_grid(2 * np.pi, 8)
        s = to_spectrum(Field(g, np.full(8, 3.0, dtype=complex)))
        assert abs(s.coef[0] - 3.0) < 1e-14
        assert np.max(np.abs(s.coef[1:])) < 1e-14

    def test_roundtrip_random(self):
        rng = np.random.default_rng(0)
        g = make_grid(30.0, 128)
        u = Field(g, rng.normal(size=128) + 1j * rng.normal(size=128))
        back = to_physical(to_spectrum(u))
        assert np.max(np.abs(back.values - u.values)) < 1e-12 * np.max(np.abs(u.values))

    def test_parseval(self):
        rng = np.random.default_rng(1)
        g = make_grid(17.0, 256)
        u = Field(g, rng.normal(size=256) + 1j * rng.normal(size=256))
        phys = g.dx * np.sum(np.abs(u.values) ** 2)
        spec = g.L * np.sum(np.abs(to_spectrum(u).coef) ** 2)
        assert abs(phys - spec) <= 1e-10 * phys

    @pytest.mark.parametrize("M", [8, 128, 486, 500, 512, 4096, 18432])
    @pytest.mark.parametrize("rows", [None, 3], ids=["(M,)", "(B,M)"])
    def test_transform_pair_is_np_fft_bitwise(self, M, rows):
        # _fft/_ifft call numpy's private pocketfft ufuncs; a numpy that
        # changes them, or their factors, fails here and not in a criterion
        rng = np.random.default_rng(M)
        shape = (M,) if rows is None else (rows, M)
        a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        a0 = a.copy()
        for ours, theirs in ((_fft, np.fft.fft), (_ifft, np.fft.ifft)):
            want = theirs(a)
            got = ours(a)
            assert got.dtype == np.complex128 and got.shape == shape
            assert got.tobytes() == want.tobytes() and a.tobytes() == a0.tobytes()
            b = a.copy()
            assert ours(b, out=b) is b
            assert b.tobytes() == want.tobytes()


class TestSymbols:
    def test_identity(self):
        g = make_grid(10.0, 32)
        u = Field(g, np.sin(g.x) + 0.5j)
        out = to_physical(apply_symbol(to_spectrum(u), np.ones_like(g.xi)))
        assert np.allclose(out.values, u.values)

    def test_half_derivative_unit_mode(self):
        g = make_grid(2 * np.pi, 16)
        u = Field(g, np.exp(1j * g.x))
        out = fractional_derivative(u, 0.5)
        assert np.max(np.abs(out.values - u.values)) < 1e-13

    def test_second_derivative(self):
        g = make_grid(2 * np.pi, 16)
        u = Field(g, np.exp(2j * g.x))
        out = fractional_derivative(u, 2.0)
        assert np.max(np.abs(out.values - 4.0 * u.values)) < 1e-12

    def test_derivative_of_constant_vanishes(self):
        g = make_grid(2 * np.pi, 16)
        out = fractional_derivative(Field(g, np.full(16, 2.0 + 0j)), 0.7)
        assert np.max(np.abs(out.values)) < 1e-14

    def test_negative_order_rejected(self):
        g = make_grid(2 * np.pi, 16)
        with pytest.raises(ConfigError):
            fractional_derivative(Field(g, np.ones(16, complex)), -1.0)

    def test_nonfinite_symbol_rejected(self):
        g = make_grid(2 * np.pi, 16)
        s = to_spectrum(Field(g, np.ones(16, complex)))
        with pytest.raises(NumericDomainError), np.errstate(divide="ignore"):
            apply_symbol(s, 1.0 / g.xi)

    def test_symbol_composition(self):
        rng = np.random.default_rng(2)
        g = make_grid(11.0, 64)
        u = Field(g, rng.normal(size=64) + 1j * rng.normal(size=64))
        xi = g.xi
        a = apply_symbol(apply_symbol(to_spectrum(u), np.exp(1j * xi)), 1.0 + xi**2)
        b = apply_symbol(to_spectrum(u), np.exp(1j * xi) * (1 + xi**2))
        assert np.allclose(a.coef, b.coef, rtol=0, atol=1e-14)


class TestNorms:
    def test_l2_constant(self):
        g = make_grid(5.0, 32)
        u = Field(g, np.full(32, 2.0 - 1.0j))
        assert abs(sobolev_norm(u, 0.0) - abs(2 - 1j) * np.sqrt(5.0)) < 1e-12

    def test_single_mode_hs(self):
        g = make_grid(2 * np.pi, 32)
        for k in (1, 3, -5):
            u = Field(g, np.exp(1j * k * g.x))
            for s in (-0.5, 0.0, 1.5):
                expect = np.sqrt(g.L) * (1 + k * k) ** (s / 2)
                assert abs(sobolev_norm(u, s) - expect) < 1e-12 * expect

    def test_lebesgue_matches_l2(self):
        rng = np.random.default_rng(3)
        g = make_grid(9.0, 64)
        u = Field(g, rng.normal(size=64) + 1j * rng.normal(size=64))
        assert abs(lebesgue_norm(u, 2) - sobolev_norm(u, 0.0)) < 1e-12

    def test_lebesgue_inf_and_p4(self):
        g = make_grid(2 * np.pi, 32)
        u = Field(g, 3.0 * np.exp(1j * g.x))
        assert abs(lebesgue_norm(u, np.inf) - 3.0) < 1e-12
        ones = Field(g, np.ones(32, complex))
        assert abs(lebesgue_norm(ones, 4) - (2 * np.pi) ** 0.25) < 1e-12
        with pytest.raises(ConfigError):
            lebesgue_norm(u, 0.5)

    @pytest.mark.parametrize("norm, order", [(sobolev_norm, np.nan), (sobolev_norm, np.inf),
                                             (sobolev_norm, -np.inf), (lebesgue_norm, np.nan),
                                             (lebesgue_norm, "x"), (fractional_derivative, "x")],
                             ids=["sobolev-nan", "sobolev-inf", "sobolev-minus-inf",
                                  "lebesgue-nan", "lebesgue-str", "derivative-str"])
    def test_non_finite_order_rejected(self, norm, order):
        # the nan cases used to return nan, the strings raised a bare TypeError
        u = Field(make_grid(2 * np.pi, 32), np.ones(32, complex))
        with pytest.raises(ConfigError):
            norm(u, order)

    def test_monotone_in_s(self):
        rng = np.random.default_rng(4)
        g = make_grid(20.0, 128)
        u = random_field(g, rng)
        norms = [sobolev_norm(u, s) for s in (-1.0, -0.5, 0.0, 0.5, 1.0)]
        assert all(a <= b * (1 + 1e-12) for a, b in zip(norms, norms[1:]))

    def test_high_frequency_packet_scaling(self):
        # |e^{iNx} g|_{H^{-1/2}} ~ N^{-1/2} |g|_{L^2} for N >> 1
        g = make_grid(80.0, 2048)
        env = make_gaussian(g, width=2.0)
        l2 = sobolev_norm(env, 0.0)
        for N in (16.0, 32.0):
            packet = Field(g, env.values * np.exp(1j * N * g.x))
            ratio = sobolev_norm(packet, -0.5) * np.sqrt(N) / l2
            assert abs(ratio - 1.0) < 0.02


class TestGaussian:
    def test_real_even(self):
        g = make_grid(40.0, 256)
        u = make_gaussian(g, amplitude=1.0, width=1.5)
        assert np.max(np.abs(u.values.imag)) == 0
        assert np.allclose(u.values, u.values[::-1].take(range(-1, 255), mode="wrap"))

    def test_mass_analytic(self):
        # int A^2 exp(-2 x^2 / w^2) dx = A^2 w sqrt(pi/2)
        g = make_grid(60.0, 512)
        A, w = 1.7, 2.2
        u = make_gaussian(g, amplitude=A, width=w)
        expect = A * A * w * np.sqrt(np.pi / 2)
        got = g.dx * np.sum(np.abs(u.values) ** 2)
        assert abs(got - expect) < 1e-8 * expect

    def test_carrier_above_nyquist_rejected(self):
        g = make_grid(10.0, 64)
        with pytest.raises(ConfigError):
            make_gaussian(g, carrier=100.0)

    @pytest.mark.parametrize("bad", [dict(center=np.inf), dict(center="x"), dict(carrier=np.nan)])
    def test_non_finite_center_or_carrier_rejected(self, bad):
        # center = inf used to return an all-zero field, carrier = nan a nan one
        with pytest.raises(ConfigError):
            make_gaussian(make_grid(10.0, 64), **bad)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("amplitude", [np.inf, "x", np.nan, complex(1, np.nan), True, None])
    def test_amplitude_that_is_not_a_finite_number_rejected(self, amplitude):
        # inf used to raise a RuntimeWarning, "x" a bare UFuncTypeError and
        # nan a NumericDomainError
        with pytest.raises(ConfigError, match="gaussian amplitude"):
            make_gaussian(make_grid(10.0, 64), amplitude=amplitude)

    @pytest.mark.parametrize("amplitude", [1 + 1j, np.complex64(2j), np.int64(2), 0.0])
    def test_finite_complex_and_integer_amplitudes_accepted(self, amplitude):
        g = make_grid(10.0, 64)
        u = make_gaussian(g, amplitude=amplitude)
        assert np.array_equal(u.values, complex(amplitude) * make_gaussian(g).values)

    def test_underresolved_width_rejected(self):
        g = make_grid(10.0, 16)
        with pytest.raises(ResolutionError):
            make_gaussian(g, width=0.05)


class TestTailGuards:
    def test_smooth_field_passes(self):
        g = make_grid(60.0, 512)
        u = make_gaussian(g, width=2.0)
        report = check_resolved(u, tol=1e-8)
        assert report["spectral_tail"] < 1e-10
        assert report["boundary_tail"] < 1e-10

    def test_edge_mass_detected(self):
        g = make_grid(60.0, 512)
        # periodized Gaussian parked near the right edge: smooth but not local
        vals = sum(
            np.exp(-(((g.x - 28.0 - 60.0 * m) / 4.0) ** 2)) for m in (-1, 0, 1)
        )
        u = Field(g, vals.astype(complex))
        assert boundary_tail_fraction(u) > 1e-3
        with pytest.raises(ResolutionError):
            check_resolved(u, tol=1e-8)

    def test_rough_spectrum_detected(self):
        g = make_grid(10.0, 64)
        rng = np.random.default_rng(7)
        u = Field(g, rng.normal(size=64) + 0j)
        assert spectral_tail_fraction(u) > 1e-3
