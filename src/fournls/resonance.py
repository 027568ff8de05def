"""Quartic resonance algebra and the trilinear-estimate counterexample.

On the zero-sum hyperplane the resonance function factorizes exactly:

    xi1^4 - xi2^4 + xi3^4 - xi4^4
        = (xi1 + xi2)(xi1 + xi4)(xi1^2 + xi2^2 + xi3^2 + xi4^2 + 2(xi1+xi3)^2).

The (xi1 + xi4) pairing makes the identity hold with signs; the commonly
quoted (xi2 + xi3) pairing is correct only inside absolute values
(counterexample (1, 1, 0, -2): the two sides differ by a sign).  Only the
signed form is exposed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, check_integer, check_real
from .evolution import EvolutionConfig, free_flow
from .fitting import FitResult, fit_loglog
from .spectral import Field, Spectrum, make_grid, sobolev_norm, to_physical

__all__ = [
    "sample_hyperplane",
    "resonance_lhs",
    "resonance_product_signed",
    "trilinear_counterexample",
    "TrilinearResult",
]


def sample_hyperplane(rng: np.random.Generator, n: int):
    """Draw n random zero-sum quadruples with log-uniform magnitudes.

    The magnitudes of xi1, xi2, xi3 are 2^U with U uniform on [0, 10].
    Returns four arrays (xi1, xi2, xi3, xi4) with xi4 = -(xi1+xi2+xi3).
    """
    check_integer("sample count n", n, 1)
    mags = 2.0 ** rng.uniform(0.0, 10.0, size=(3, n))
    signs = rng.choice([-1.0, 1.0], size=(3, n))
    x1, x2, x3 = mags * signs
    x4 = -(x1 + x2 + x3)
    return x1, x2, x3, x4


def resonance_lhs(x1, x2, x3, x4):
    x1, x2, x3, x4 = (np.asarray(x, dtype=np.float64) for x in (x1, x2, x3, x4))
    return x1**4 - x2**4 + x3**4 - x4**4


def resonance_product_signed(x1, x2, x3, x4):
    """(xi1+xi2)(xi1+xi4) * quadratic factor; equals the lhs identically."""
    x1, x2, x3, x4 = (np.asarray(x, dtype=np.float64) for x in (x1, x2, x3, x4))
    return (x1 + x2) * (x1 + x4) * (x1**2 + x2**2 + x3**2 + x4**2 + 2 * (x1 + x3) ** 2)


# ---------------------------------------------------------------------------
# trilinear counterexample


@dataclass
class TrilinearResult:
    fit: FitResult          # ratio lhs/rhs vs N; predicted exponent -2s - 1
    lhs: dict
    rhs: dict
    diverges: bool          # True when the fitted ratio grows with N


MODES_PER_BAND = 4


def _band_ratio(N: float, s: float, times: np.ndarray) -> tuple:
    """(lhs, rhs) norms for one band datum, on a 16-point band grid.

    The lattice spacing 1/(4N) puts 4 modes in the band [N, N + 1/N], at the
    local modes -1..2 of carrier index k0 + 1.  Their cube reaches -4..5,
    inside the grid's -8..7, so the pointwise cube of the free flow is the
    exact lattice convolution; a k0 = 0 grid needs ~10 N^2 points for that.
    """
    dxi = 1.0 / (MODES_PER_BAND * N)
    L = 2 * np.pi / dxi
    k0 = int(round(N / dxi))
    grid = make_grid(L, 16, k0 + 1)
    coef = np.zeros(grid.M, dtype=np.complex128)
    coef[np.arange(-1, MODES_PER_BAND - 1)] = 1.0 / L  # continuum hat(u) = 1 on the band
    u0 = to_physical(Spectrum(grid, coef))
    vals = [sobolev_norm(Field(grid, u.values * np.conj(u.values) * u.values), s) ** 2
            for u in free_flow(u0, times, EvolutionConfig())]
    lhs = float(np.sqrt(np.trapezoid(np.array(vals), times)))
    return lhs, sobolev_norm(u0, s) ** 3


def trilinear_counterexample(N_values, s: float) -> TrilinearResult:
    """Scaling check of the cubic interaction of width-1/N band data.

    For each N the datum has unit spectrum on [N, N + 1/N]; its free quartic
    evolution stays within an O(1) modulation strip because the band width
    keeps the resonance phase of high-high-high tuples of size O(1).  The
    spatial norm proxies evaluated over |t| <= 1 are

        lhs(N) = ||<xi>^s F(u ubar u)||_{L^2 in (t, xi)} ~ N^(s - 5/2),
        rhs(N) = (||<xi>^s hat u||_{L^2})^3 ~ N^(3s - 3/2),

    so the ratio scales like N^(-2s-1): bounded for s >= -1/2, divergent
    below.
    """
    check_real("s", s)
    if s > 0:
        raise ConfigError(f"counterexample targets s <= 0 (rough data), got s={s!r}")
    for N in N_values:
        check_real("band frequency N", N, positive=True)
    lhs, rhs = {}, {}
    times = np.linspace(-1.0, 1.0, 9)
    for N in N_values:
        lhs[N], rhs[N] = _band_ratio(float(N), s, times)
    fit = fit_loglog([(N, lhs[N] / rhs[N]) for N in N_values])
    return TrilinearResult(fit=fit, lhs=lhs, rhs=rhs, diverges=fit.slope > 0.1)
