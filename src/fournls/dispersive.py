"""Numerical verification of the linear dispersive estimates.

Fits are log-log power laws; every fit reports its residual RMS and the
experiments include negative controls so that a flat fit cannot pass for
trivial reasons.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import inf

import numpy as np

from .errors import (ConfigError, QuadratureError, ResolutionError, check_integer,
                     check_real, is_integer, is_real)
from .evolution import EvolutionConfig, free_flow, linear_propagate_4nls
from .fitting import FitResult, fit_loglog
from .spectral import (
    Field,
    Spectrum,
    _edge_mask,
    _mass_fraction,
    boundary_tail_fraction,
    fractional_derivative,
    lebesgue_norm,
    make_gaussian,
    make_grid,
    mass,
    to_physical,
)

__all__ = [
    "kernel_K",
    "decay_fit",
    "strichartz_admissible",
    "bilinear_fit",
    "local_smoothing_check",
    "local_smoothing_family",
]


# ---------------------------------------------------------------------------
# oscillatory kernel


_PANEL_BLOCK = 4096  # panels evaluated at once: a ~2 MB working set at any phase span


@cache
def _gauss_legendre():  # the 10-point rule on [-1, 1]; numpy.polynomial is slow to import
    return np.polynomial.legendre.leggauss(10)


def kernel_K(t: float, x: float, alpha: float) -> complex:
    """Oscillatory integral ``int |xi|^alpha exp(i t xi^4 + i x xi) dxi``.

    By evenness it is 2 int_0^xi_cut |xi|^alpha e^{i t xi^4} cos(x xi) dxi,
    with xi_cut beyond every stationary point and the kink of |xi|^alpha on
    the end point 0.  Composite 10-point Gauss-Legendre on uniform panels,
    one per radian of phase span over [-xi_cut, xi_cut] (at least 16); the
    two leading integration-by-parts boundary terms of the discarded tails
    are added back, leaving a truncation error well below 1e-6 for |t| >= 0.05.
    Self-similar: K_t(x) = t^{-(alpha+1)/4} K_1(x t^{-1/4}) for t > 0.
    """
    check_real("t", t)
    check_real("x", x)
    if t == 0:
        raise ConfigError("kernel is defined for t != 0")
    if not (is_real(alpha) and 0 <= alpha <= 1):
        raise ConfigError("alpha must lie in [0, 1]")
    t = float(t)
    x = float(x)
    # stationary point of t xi^4 + x xi sits at |xi| = (|x|/(4|t|))^(1/3)
    xi_stat = (abs(x) / (4 * abs(t))) ** (1.0 / 3.0)
    xi_cut = 2.0 * xi_stat + 8.0 / abs(t) ** 0.25 + 4.0
    phase_span = abs(t) * xi_cut**4 + abs(x) * xi_cut
    n_panels = max(16, int(phase_span))
    n_panels += n_panels % 2  # an even count over [-xi_cut, xi_cut]: half on each side
    if n_panels > 4_000_000:
        raise QuadratureError(
            "phase span too large for direct quadrature",
            {"t": t, "x": x, "panels": n_panels},
        )
    nodes, weights = _gauss_legendre()
    width = 2 * xi_cut / n_panels
    val = 0j
    for j0 in range(0, n_panels // 2, _PANEL_BLOCK):  # the panels of [0, xi_cut], by blocks
        j = np.arange(j0, min(j0 + _PANEL_BLOCK, n_panels // 2))[:, None]
        xs = width / 2 * (2 * j + 1 + nodes)
        g = width * weights * xs**alpha  # 2 (evenness) * width/2 (panel map) * weight
        if x != 0:
            g *= np.cos(x * xs)
        phase = t * (xs * xs) ** 2
        val += complex(np.vdot(g, np.cos(phase)), np.vdot(g, np.sin(phase)))

    # boundary corrections: two integration-by-parts terms at each endpoint
    def tail_correction(xi_e: float, sign: float) -> complex:
        # tail integral from xi_e to sign*inf of f e^{i phi}
        phi = t * xi_e**4 + x * xi_e
        dphi = 4 * t * xi_e**3 + x
        if abs(dphi) < 1e-8:
            raise QuadratureError("truncation point too close to stationary phase",
                                  {"t": t, "x": x, "xi_cut": xi_e})
        fval = abs(xi_e) ** alpha
        fprime = alpha * abs(xi_e) ** (alpha - 1) * np.sign(xi_e) if alpha > 0 else 0.0
        d2phi = 12 * t * xi_e**2
        term1 = -sign * fval * np.exp(1j * phi) / (1j * dphi)
        g = (fprime * dphi - fval * d2phi) / dphi**2  # d/dxi (f / dphi)
        term2 = sign * g * np.exp(1j * phi) / (1j * dphi) / 1j
        return term1 + term2

    val += tail_correction(xi_cut, +1.0)
    val += tail_correction(-xi_cut, -1.0)
    return complex(val)


# ---------------------------------------------------------------------------
# decay of the free evolution


def flat_spectrum_datum(grid, sigma: float = 1.2) -> Field:
    """Localized L^1 datum with spectrum exp(-(xi/sigma)^4).

    The quartic-exponential profile is flat at xi = 0, which removes the
    O(t^{-1/2}) correction to the stationary-phase decay coming from the
    spectrum's curvature; fitted decay exponents then converge within a
    one-decade time window (a plain Gaussian needs two or more).
    """
    coef = np.exp(-np.abs(grid.xi / sigma) ** 4).astype(np.complex128) / grid.L
    return to_physical(Spectrum(grid, coef))


def decay_fit(alpha: float, datum: Field, times) -> FitResult:
    """Fit ||D^alpha exp(it d_x^4) u0||_inf against t; predicted slope -(1+alpha)/4.

    Times in the pre-decay plateau (sup norm above 80% of the datum's) are
    excluded automatically; wrap-around is guarded via the boundary-tail
    mass of each snapshot.
    """
    base = lebesgue_norm(fractional_derivative(datum, alpha), np.inf)
    pts = []
    for t in sorted(times):
        u = linear_propagate_4nls(datum, float(t), orientation=-1)
        if boundary_tail_fraction(u) > 1e-6:
            raise ResolutionError(f"wrap-around at t={t:g}: boundary mass too high")
        val = lebesgue_norm(fractional_derivative(u, alpha), np.inf)
        if val > 0.8 * base:
            continue  # dispersive decay has not set in yet
        pts.append((float(t), val))
    return fit_loglog(pts)


# ---------------------------------------------------------------------------
# Strichartz admissibility


def _as_fraction(v):
    if v == inf:
        return inf
    if isinstance(v, Fraction) or is_integer(v):
        return Fraction(v)
    if isinstance(v, float) and is_real(v):
        return Fraction(v).limit_denominator(10**9)
    raise ConfigError(f"cannot interpret exponent {v!r}")


def strichartz_admissible(q, r, alpha) -> bool:
    """Exact check of r >= 2, q >= 8/(1+alpha) and 4/q + (1+alpha)/r = (1+alpha)/2.

    Arguments may be ints, Fractions, floats or ``math.inf``, which is
    handled symbolically.  A float is rounded to the nearest fraction with
    denominator at most 10**9 (``Fraction.limit_denominator``), not taken
    at its binary value: ``1/3`` counts as exactly 1/3.
    """
    q, r, alpha = _as_fraction(q), _as_fraction(r), _as_fraction(alpha)
    if alpha == inf or not (0 <= alpha <= 1):
        raise ConfigError("alpha must lie in [0, 1]")
    if (q != inf and q < 1) or (r != inf and r < 1):
        raise ConfigError("exponents must be >= 1")
    if r != inf and r < 2:
        return False
    if q != inf and q < Fraction(8) / (1 + alpha):
        return False
    inv_q = 0 if q == inf else Fraction(1) / q
    inv_r = 0 if r == inf else Fraction(1) / r
    return 4 * inv_q + (1 + alpha) * inv_r == (1 + alpha) / 2


# ---------------------------------------------------------------------------
# bilinear interaction of separated packets


def _packet(grid, carrier: float) -> Field:
    f = make_gaussian(grid, amplitude=1.0, width=1.0, carrier=carrier)
    return Field(grid, f.values / np.sqrt(mass(f)))


def bilinear_interaction_norm(n1: float, n2: float) -> float:
    """L^2_{t,x} norm of the product of two free unit-L^2 packets.

    The packets are Gaussians of width 1 that carry frequencies n1 and n2
    and cross at relative group speed ~ 4(n2^3 - n1^3); the quadrature
    takes 33 times over a window that covers the full crossing (or, for
    co-moving packets, the envelope dispersal time).
    """
    if not (is_real(n1) and is_real(n2)) or n1 == n2 == 0:
        raise ConfigError(f"packet frequencies must be finite, not both 0, got {n1!r}, {n2!r}")
    n1, n2 = float(n1), float(n2)
    speed = 4 * abs(n2**3 - n1**3)
    if speed > 0:
        t_win = 10.0 / speed
    else:
        t_win = 1.0 / (24 * max(n1, n2) ** 2) * 20
    span = 2 * (6.0 + speed * t_win * 1.2)
    L = max(48.0, span)
    xi_need = max(n1, n2) + 8.0
    M = int(2 ** np.ceil(np.log2(L * xi_need / np.pi * 1.25)))
    grid = make_grid(L, M)
    ts = np.linspace(-t_win, t_win, 33)
    flows = (free_flow(_packet(grid, n), ts, EvolutionConfig()) for n in (n1, n2))
    vals = [mass(Field(grid, u1.values * u2.values)) for u1, u2 in zip(*flows)]
    return float(np.sqrt(np.trapezoid(np.array(vals), ts)))


def bilinear_fit(n1: float, n2_values) -> FitResult:
    """Fit the packet-interaction norm against the high frequency.

    Requires the separation hypothesis n1 <= n2/8 throughout the sweep;
    the predicted slope is -3/2.
    """
    pts = []
    for n2 in n2_values:
        if n1 > float(n2) / 8:
            raise ConfigError("sweep requires n1 <= n2/8")
        pts.append((float(n2), bilinear_interaction_norm(n1, n2)))
    return fit_loglog(pts)


# ---------------------------------------------------------------------------
# local smoothing


def _log_time_grid(t_end: float, n: int):
    return np.geomspace(t_end * 1e-8, t_end, n)


def local_smoothing_check(
    datum: Field, window: float, order: float = 1.5, n_times: int = 400
) -> float:
    """sup_x (int_0^window |D^order e^{it d_x^4} phi(x)|^2 dt)^{1/2} / ||phi||_2.

    The time integral concentrates where the packet crosses each point, so
    it is evaluated on a geometric time grid (trapezoid in t); ``window``
    must stay below the first wrap-around of the fastest resolved content,
    checked at every time by the boundary tail fraction.
    """
    if not (is_real(order) and order >= 0):
        raise ConfigError(f"smoothing order must be >= 0, got {order!r}")
    check_real("smoothing window", window, positive=True)
    check_integer("n_times", n_times, 2)
    l2 = lebesgue_norm(datum, 2)
    if l2 == 0:
        return 0.0
    grid = datum.grid
    ts = np.concatenate([[0.0], _log_time_grid(window, n_times - 1)])
    profiles = np.empty((len(ts), grid.M))
    edge = _edge_mask(grid)
    flow = free_flow(datum, ts, EvolutionConfig(), weight=np.abs(grid.xi) ** order)
    for i, (t, u) in enumerate(zip(ts, flow)):
        power = np.square(np.abs(u.values, out=profiles[i]), out=profiles[i])  # |u|^2
        if _mass_fraction(power, edge) > 1e-3:
            raise ResolutionError(f"window too long: wrap-around at t={t:g}")
    integral = np.trapezoid(profiles, ts, axis=0)
    return float(np.sqrt(np.max(integral)) / l2)


def local_smoothing_family(scales, order: float = 1.5) -> dict:
    """Ratios of the local-smoothing quotient across a frequency-rescaled family.

    phi is the Gaussian of width 1 and carrier 4, and
    phi_lambda(x) = lambda^(1/2) phi(lambda x) concentrates at frequency
    ~ 4 lambda; every member lives on the grid L = 80, M = 16384.  Each
    scale gets a window ending before its fastest content wraps.  For the
    critical order 3/2 the ratios stay bounded; order 2 is the growing
    negative control.
    """
    scales = list(scales)
    if not scales:
        raise ConfigError("the local-smoothing family needs at least one scale")
    for lam in scales:
        check_real("a local-smoothing scale", lam, positive=True)
    grid = make_grid(80.0, 16384)
    out = {}
    for lam in map(float, scales):
        f = make_gaussian(grid, amplitude=np.sqrt(lam), width=1.0 / lam, carrier=4.0 * lam)
        xi_hi = 4.0 * lam + 6.0 * lam  # the carrier plus six inverse widths
        window = 0.25 * grid.L / (4 * xi_hi**3)
        out[lam] = local_smoothing_check(f, window, order=order)
    return out
