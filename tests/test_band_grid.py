"""Property tests for band grids: a grid with carrier index k0 holds the modes
k0 + k of the period-L lattice at local indices k, and every norm, transform
and step on it must agree with the same modes on a full k0 = 0 grid."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fournls import EvolutionConfig, Field, evolve, make_grid, mass, scale_transform, sobolev_norm
from fournls.spectral import Spectrum, spectral_tail_fraction, to_physical, to_spectrum

PROPS = settings(max_examples=25, deadline=None)

FULL_M = 1024
BAND_M = 64

# (L, sizes) of every grid the test suite builds, band grids aside
SUITE_GRIDS = [
    (5.0, (32,)), (6.283185307179586, (8, 16, 32, 64, 512)), (7.0, (32,)), (7.3, (64,)),
    (7.5, (32,)), (9.0, (64,)), (9.7, (32,)), (10.0, (16, 32, 64)), (11.0, (64,)),
    (12.0, (64,)), (12.566370614359172, (64,)), (16.666666666666668, (128,)),
    (17.0, (256,)), (18.0, (256,)), (20.0, (128,)), (21.62162162162162, (512,)),
    (25.0, (128,)), (30.0, (128, 256)), (39.96043665982405, (256, 8192)),
    (39.991572351789614, (256,)), (39.99985092734818, (256, 524288)),
    (40.0, (128, 256, 512)), (40.00047717751926, (256, 32768, 131072)),
    (48.0, (1024, 2048, 4096, 8192, 16384)), (50.0, (128,)), (60.0, (256, 512)),
    (80.0, (512, 2048, 16384)), (100.0, (1024,)), (160.0, (512,)), (200.0, (4096, 16384)),
    (402.1238596594935, (2560,)), (622.131615116693, (32768,)),
    (783.836717690617, (8192,)), (1175.7550765359254, (18432,)),
    (1567.673435381234, (32768,)), (3135.346870762468, (131072,)), (6000.0, (16384,)),
    (6270.693741524936, (524288,)),
]


def _relative(a, b):
    return abs(a - b) / abs(b)


@st.composite
def packets(draw):
    """A random packet in the lower half of a band around k0, as a full-grid
    field and as the matching band-grid field."""
    L = draw(st.floats(2.0, 500.0))
    k0 = draw(st.integers(-FULL_M // 2 + BAND_M, FULL_M // 2 - BAND_M))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = np.arange(-BAND_M // 4 + 1, BAND_M // 4)
    c = (rng.normal(size=m.size) + 1j * rng.normal(size=m.size)) / (1.0 + m**2)
    full, band = make_grid(L, FULL_M), make_grid(L, BAND_M, k0)
    cf = np.zeros(FULL_M, complex)
    cf[(m + k0) % FULL_M] = c
    cb = np.zeros(BAND_M, complex)
    cb[m % BAND_M] = c
    return to_physical(Spectrum(full, cf)), to_physical(Spectrum(band, cb))


@PROPS
@given(packets(), st.floats(-2.0, 2.0), st.floats(0.25, 4.0), st.booleans())
def test_norms_agree_on_full_and_band_grids(case, s, lam, homogeneous):
    full, band = case
    assert _relative(mass(band), mass(full)) < 1e-13
    assert _relative(sobolev_norm(band, s, homogeneous), sobolev_norm(full, s, homogeneous)) < 1e-13
    scaled_f = scale_transform(full, lam)
    scaled_b = scale_transform(band, lam)
    assert scaled_b.grid.k0 == band.grid.k0
    assert _relative(sobolev_norm(scaled_b, s, homogeneous),
                     sobolev_norm(scaled_f, s, homogeneous)) < 1e-13


@PROPS
@given(packets())
def test_band_frequencies_are_the_full_grid_frequencies_bitwise(case):
    full, band = case
    k0 = band.grid.k0
    assert np.array_equal(band.grid.xi, full.grid.xi[(band.grid.k + k0) % FULL_M])


@PROPS
@given(st.floats(1.0, 1e3), st.sampled_from([8, 16, 24, 64, 250]),
       st.integers(-10**6, 10**6), st.integers(0, 2**32 - 1))
def test_parseval_and_roundtrip_on_band_grids(L, M, k0, seed):
    rng = np.random.default_rng(seed)
    u = Field(make_grid(L, M, k0), rng.normal(size=M) + 1j * rng.normal(size=M))
    spec = to_spectrum(u)
    phys = u.grid.dx * np.sum(np.abs(u.values) ** 2)
    assert abs(phys - u.grid.L * np.sum(np.abs(spec.coef) ** 2)) <= 1e-12 * phys
    back = to_physical(spec)
    assert back.grid == u.grid
    assert np.max(np.abs(back.values - u.values)) < 1e-12 * np.max(np.abs(u.values))


def _assert_k0_zero_grid_unchanged(L, M, rng):
    # the frequencies and the tail mask as they were computed before band grids
    g = make_grid(L, M)
    k = np.fft.fftfreq(M, d=1.0 / M).astype(np.int64)
    xi = 2.0 * np.pi / L * k
    assert g.xi.tobytes() == xi.tobytes()
    u = Field(g, rng.normal(size=M) + 1j * rng.normal(size=M))
    power = np.abs(to_spectrum(u).coef) ** 2
    old_tail = float(np.sum(power[np.abs(xi) >= (np.pi * M / L) / 2]) / np.sum(power))
    assert spectral_tail_fraction(u) == old_tail


@pytest.mark.parametrize("L,sizes", SUITE_GRIDS)
def test_k0_zero_grids_of_the_suite_unchanged(L, sizes):
    rng = np.random.default_rng(0)
    for M in sizes:
        _assert_k0_zero_grid_unchanged(L, M, rng)


@PROPS
@given(st.floats(0.1, 1e4), st.integers(4, 2048), st.integers(0, 2**32 - 1))
def test_k0_zero_grids_unchanged(L, half_M, seed):
    # rounding puts the boundary mode |k| = M/4 on either side for some
    # (L, M); the mask must round the way it always did
    _assert_k0_zero_grid_unchanged(L, 2 * half_M, np.random.default_rng(seed))


@settings(max_examples=10, deadline=None)
@given(st.integers(-120, 120), st.floats(0.5, 1.5), st.sampled_from(["strang", "mclachlan2"]))
def test_split_steps_on_band_match_full_grid(k0, amplitude, scheme):
    # a Gaussian packet around mode k0: narrow enough that its cubic stays
    # inside the band, so the two grids differ only by FFT round-off
    L, width = 80.0, 5.0
    full, band = make_grid(L, 1024), make_grid(L, 128, k0)
    env = amplitude * np.exp(-((full.x / width) ** 2))
    u_full = Field(full, env * np.exp(1j * full.xi[k0] * full.x))
    u_band = Field(band, amplitude * np.exp(-((band.x / width) ** 2)))
    cfg = EvolutionConfig(dt=1e-3, t_end=20e-3, scheme=scheme, record_stride=20, kappa=1)
    c_full = to_spectrum(evolve(u_full, cfg).final_field()).coef
    c_band = to_spectrum(evolve(u_band, cfg).final_field()).coef
    on_band = c_full[(band.k + k0) % full.M]
    assert np.linalg.norm(c_band - on_band) < 1e-12 * np.linalg.norm(on_band)
