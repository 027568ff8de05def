"""Quartic resonance algebra and the trilinear-estimate counterexample.

On the zero-sum hyperplane the resonance function factorizes exactly:

    xi1^4 - xi2^4 + xi3^4 - xi4^4
        = (xi1 + xi2)(xi1 + xi4)(xi1^2 + xi2^2 + xi3^2 + xi4^2 + 2(xi1+xi3)^2).

The (xi1 + xi4) pairing makes the identity hold with signs; the commonly
quoted (xi2 + xi3) pairing is correct only inside absolute values
(counterexample (1, 1, 0, -2): the two sides differ by a sign).  Both forms
are exposed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .evolution import _is_integer
from .fitting import FitResult, fit_loglog
from .imethod import IMethodParams, _check_hyperplane, _m_values, multiplier_m2_derivatives
from .spectral import Field, Spectrum, cubic_convolution, make_grid, to_physical

__all__ = [
    "sample_hyperplane",
    "resonance_lhs",
    "resonance_product_signed",
    "resonance_product_abs",
    "factorization_residual",
    "mean_value_bound_check",
    "MeanValueReport",
    "trilinear_counterexample",
    "TrilinearResult",
]


def sample_hyperplane(rng: np.random.Generator, n: int):
    """Draw n random zero-sum quadruples with log-uniform magnitudes.

    The magnitudes of xi1, xi2, xi3 are 2^U with U uniform on [0, 10].
    Returns four arrays (xi1, xi2, xi3, xi4) with xi4 = -(xi1+xi2+xi3).
    """
    if not (_is_integer(n) and n >= 1):
        raise ConfigError(f"need a positive integer sample count, got {n!r}")
    mags = 2.0 ** rng.uniform(0.0, 10.0, size=(3, n))
    signs = rng.choice([-1.0, 1.0], size=(3, n))
    x1, x2, x3 = mags * signs
    x4 = -(x1 + x2 + x3)
    return x1, x2, x3, x4


def resonance_lhs(x1, x2, x3, x4):
    x1, x2, x3, x4 = (np.asarray(x, dtype=np.float64) for x in (x1, x2, x3, x4))
    return x1**4 - x2**4 + x3**4 - x4**4


def _quadratic_factor(x1, x2, x3, x4):
    return x1**2 + x2**2 + x3**2 + x4**2 + 2 * (x1 + x3) ** 2


def resonance_product_signed(x1, x2, x3, x4):
    """(xi1+xi2)(xi1+xi4) * quadratic factor; equals the lhs identically."""
    x1, x2, x3, x4 = (np.asarray(x, dtype=np.float64) for x in (x1, x2, x3, x4))
    return (x1 + x2) * (x1 + x4) * _quadratic_factor(x1, x2, x3, x4)


def resonance_product_abs(x1, x2, x3, x4):
    """|(xi1+xi2)(xi2+xi3)| * quadratic factor; matches |lhs| only."""
    x1, x2, x3, x4 = (np.asarray(x, dtype=np.float64) for x in (x1, x2, x3, x4))
    return np.abs((x1 + x2) * (x2 + x3)) * _quadratic_factor(x1, x2, x3, x4)


def factorization_residual(xi1, xi2, xi3, xi4) -> float:
    """|lhs - signed product| for a zero-sum tuple."""
    _check_hyperplane(xi1, xi2, xi3, xi4)
    return float(
        np.abs(
            resonance_lhs(xi1, xi2, xi3, xi4)
            - resonance_product_signed(xi1, xi2, xi3, xi4)
        )
    )


# ---------------------------------------------------------------------------
# mean value inequalities for m^2


@dataclass
class MeanValueReport:
    first_order_const: float
    second_order_const: float
    samples: int


def mean_value_bound_check(
    p: IMethodParams,
    rng: np.random.Generator,
    n_samples: int = 2000,
    region: str = "any",
) -> MeanValueReport:
    """Measure the constants in the one- and two-increment bounds for m^2.

    For |eta|, |lambda| <= |xi|/8 the report gives the largest observed
    ratios |a(xi+eta) - a(xi)| / (|eta| sup|a'|) and
    |a(xi+eta+lam) - a(xi+eta) - a(xi+lam) + a(xi)| / (|eta||lam| sup|a''|),
    with each sup taken over the convex hull of the evaluation points.
    ``region`` picks the base point: 'any' (uniform on [4, 4096]),
    'constant' (all below N), 'power' (all above 2N) or 'junction'
    (straddling [N, 2N]).
    """
    lo, hi = 4.0, 4096.0
    if region == "constant":
        lo, hi = 1.0, p.N / 2
    elif region == "power":
        lo, hi = 4 * p.N, max(64 * p.N, 8 * p.N)
    elif region == "junction":
        lo, hi = p.N * 0.9, p.N * 2.2
    elif region != "any":
        raise ConfigError(f"unknown region '{region}'")

    xi = rng.uniform(lo, hi, n_samples)
    eta = rng.uniform(-1.0, 1.0, n_samples) * xi / 8
    lam = rng.uniform(-1.0, 1.0, n_samples) * xi / 8

    def a(x):
        return _m_values(p, x) ** 2

    def sup_derivs(x_lo, x_hi):
        # dense sample of |a'|, |a''| over the hull of the evaluation points
        pts = np.linspace(x_lo, x_hi, 65)
        _, d1, d2 = multiplier_m2_derivatives(p, pts)
        return np.max(np.abs(d1), axis=0), np.max(np.abs(d2), axis=0)

    pts1 = np.stack([xi, xi + eta])
    sup1, _ = sup_derivs(pts1.min(axis=0), pts1.max(axis=0))
    diff1 = np.abs(a(xi + eta) - a(xi))
    denom1 = np.abs(eta) * sup1
    ok1 = denom1 > 0
    c1 = float(np.max(diff1[ok1] / denom1[ok1])) if np.any(ok1) else 0.0
    if region == "constant" and np.any(diff1 != 0):
        raise ConfigError("m^2 differences must vanish identically below N")

    pts2 = np.stack([xi, xi + eta, xi + lam, xi + eta + lam])
    _, sup2 = sup_derivs(pts2.min(axis=0), pts2.max(axis=0))
    diff2 = np.abs(a(xi + eta + lam) - a(xi + eta) - a(xi + lam) + a(xi))
    denom2 = np.abs(eta) * np.abs(lam) * sup2
    ok2 = denom2 > 0
    c2 = float(np.max(diff2[ok2] / denom2[ok2])) if np.any(ok2) else 0.0
    return MeanValueReport(first_order_const=c1, second_order_const=c2, samples=n_samples)


# ---------------------------------------------------------------------------
# trilinear counterexample


@dataclass
class TrilinearResult:
    fit: FitResult          # ratio lhs/rhs vs N; predicted exponent -2s - 1
    lhs: dict
    rhs: dict
    diverges: bool          # True when the fitted ratio grows with N


MODES_PER_BAND = 4


def _band_grid(N: float):
    """Grid whose lattice resolves the band [N, N + 1/N] with 4 modes."""
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


def _band_ratio(N: float, s: float, times: np.ndarray) -> tuple:
    """(lhs, rhs) norms for one band datum, by direct band convolution.

    The cubic product of a 4-mode band function is the exact lattice
    convolution ``ct * conj(ct)[::-1] * ct`` over the 4^3 frequency triples
    (output entry n sits at mode k0 - 3 + n); pointwise grid multiplication
    gives identical coefficients (cross-checked in the tests) at far higher
    cost.
    """
    dxi = 1.0 / (MODES_PER_BAND * N)
    L = 2 * np.pi / dxi
    k0 = int(round(N / dxi))
    ks = k0 + np.arange(MODES_PER_BAND)
    xi = dxi * ks
    c = np.full(MODES_PER_BAND, 1.0 / L, dtype=np.complex128)

    weight_in = (1.0 + xi**2) ** s
    rhs_single = np.sqrt(L * np.sum(weight_in * np.abs(c) ** 2))

    out_k = k0 - MODES_PER_BAND + 1 + np.arange(3 * MODES_PER_BAND - 2)
    weight_out = (1.0 + (dxi * out_k) ** 2) ** s

    vals = []
    for t in times:
        ct = c * np.exp(-1j * t * xi**4)  # free flow of i u_t = u_xxxx
        conv = cubic_convolution(ct, np.conj(ct[::-1]), ct)
        vals.append(L * np.sum(weight_out * np.abs(conv) ** 2))
    lhs = float(np.sqrt(np.trapezoid(np.array(vals), times)))
    return lhs, float(rhs_single**3)


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
    if s >= 0.5:
        raise ConfigError("counterexample targets s <= 0 (rough data)")
    if not all(np.isfinite(N) and N > 0 for N in N_values):
        raise ConfigError(f"band frequencies must be finite and positive, got {N_values}")
    lhs, rhs = {}, {}
    times = np.linspace(-1.0, 1.0, 9)
    for N in N_values:
        lhs[N], rhs[N] = _band_ratio(float(N), s, times)
    fit = fit_loglog([(N, lhs[N] / rhs[N]) for N in N_values])
    return TrilinearResult(fit=fit, lhs=lhs, rhs=rhs, diverges=fit.slope > 0.1)
