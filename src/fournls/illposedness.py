"""Approximate solutions, residual bounds and the two-solution separation.

A cubic-NLS profile v(s, y) rides the comoving frame

    (s, y) = (t, (x + 4 N^3 t) / (sqrt(6) N)),

and the carrier-modulated field

    U_ap(t, x) = exp(i N^4 t) exp(i N x) v(s, y)

solves (i d_t + d_x^4) U - |U|^2 U = E with residual of size O(N^-2),
provided v solves i d_s v - d_y^2 v - |v|^2 v = 0.  The construction's sign
is kappa = -1 (focusing, after Christ-Colliander-Tao), the one sign for
which that profile equation has the exact soliton family

    v_a(s, y) = sqrt(2) a sech(a y) exp(-i a^2 s),

whose internal phase clock a^2 s drives the uniform-continuity failure:
two nearby amplitudes decohere at s ~ pi / |a^2 - a'^2|.

The spectrum of U_ap is the profile's packet at the carrier mode k*, so the
experiments run on a band grid of 2 * profile_modes points with carrier
index k* (``UapSetup.band``), whose size does not grow with N as the 4NLS
grid's does: w = exp(-i N x) U is an exact index shift, with |w| = |U|.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .evolution import EvolutionConfig, _is_integer, evolve, evolve_many
from .fitting import FitResult, fit_loglog
from .spectral import (Field, Grid, Spectrum, apply_symbol, make_grid, sobolev_norm,
                       to_physical, to_spectrum)
from .symmetries import scale_transform

__all__ = [
    "ApproxParams", "UapSetup", "SolitonProfile", "plan_uap_discretization",
    "change_coords", "build_uap", "residual_fields", "ResidualFields",
    "modulated_profile", "modulation_norm_check", "error_decay_experiment",
    "ErrorDecayResult", "separation_experiment", "SeparationReport",
]

SQRT6 = np.sqrt(6.0)
XI_HEADROOM = 4.0  # grid4's Nyquist frequency in units of the carrier N


@dataclass(frozen=True)
class ApproxParams:
    """Carrier frequency of the construction (its sign is kappa = -1)."""

    N: float

    def __post_init__(self):
        if not (np.isfinite(self.N) and self.N >= 8):
            raise ConfigError("carrier frequency must be >= 8")


class SolitonProfile:
    """Closed-form soliton of i v_s - v_yy - |v|^2 v = 0 on a profile grid.

    Exact at every time, so it contributes nothing to the error budget of
    the experiments that consume it.  Pairs with the kappa = -1 residual
    form of the quartic equation.
    """

    def __init__(self, amplitude: float, grid: Grid):
        if not (0 < amplitude):
            raise ConfigError("soliton amplitude must be positive")
        self.amplitude = float(amplitude)
        self.grid = grid
        # the periodization seam is of this size; keep it far below the
        # O(N^-2) residuals the profile is used to measure
        edge = np.exp(-self.amplitude * grid.L / 2)
        if edge > 3e-8:
            raise ConfigError(
                f"profile domain too short: soliton tail {edge:.2e} at the edge"
            )

    def value(self, t: float) -> Field:
        a = self.amplitude
        env = np.sqrt(2.0) * a / np.cosh(a * self.grid.x)
        return Field(self.grid, env * np.exp(-1j * a * a * t))


@dataclass(frozen=True)
class UapSetup:
    """Commensurate grids for the construction; N snapped to the 4NLS lattice."""

    params: ApproxParams
    grid4: Grid
    grid_v: Grid
    band: Grid  # 4NLS modes k* + m, -profile_modes <= m < profile_modes


def plan_uap_discretization(
    N: float,
    profile_length: float = 50.0,
    profile_modes: int = 512,
) -> UapSetup:
    """Choose the 4NLS grid and the profile grid so they are commensurate.

    The construction's sign is kappa = -1: the quartic equation
    (i d_t + d_x^4) U - |U|^2 U = 0 with the soliton profile of
    ``SolitonProfile``.

    The 4NLS domain has length sqrt(6)*N*profile_length so the comoving
    window covers the profile torus exactly once; the carrier is snapped to
    the 4NLS frequency lattice and the profile length re-derived from the
    snapped value, keeping the change of variables exact.  The 4NLS Nyquist
    frequency is XI_HEADROOM * N to keep the carrier out of the guarded
    top octave.  The 4NLS grid size is profile_modes times the smallest
    5-smooth integer (no prime factor above 5) that meets that frequency
    with 2 % to spare: an FFT on a size with a large prime factor costs
    many times more per point (130304 = 2^8 * 509 points against 131072).

    The band grid (length L4, k0 = k*, 2 * profile_modes points) holds the
    profile's modes in its lower half, so its guarded top octave starts
    empty and measures how far the flow spreads the packet.  Its
    frequencies come from ``Grid.xi``, bitwise equal to grid4.xi at mode
    k* + m: written as 2*pi*(m + k*)/L4 they move the N = 32 tracking error
    by 7e-8 relative, since xi^4 dt is a phase of thousands of radians.
    """
    if not (np.isfinite(N) and N > 0):
        raise ConfigError(f"carrier frequency N must be positive and finite, got {N!r}")
    if not (np.isfinite(profile_length) and profile_length > 0):
        raise ConfigError(f"profile_length must be positive and finite, got {profile_length!r}")
    if not (_is_integer(profile_modes) and profile_modes > 0):
        raise ConfigError(f"profile_modes must be a positive integer, got {profile_modes!r}")
    L4 = SQRT6 * N * profile_length
    k_star = int(round(N * L4 / (2 * np.pi)))
    if 2 * np.pi * k_star / L4 < 8.0:  # keep the snapped carrier admissible
        k_star += 1
    N_exact = 2 * np.pi * k_star / L4
    Lv = L4 / (SQRT6 * N_exact)
    m4_needed = L4 * (XI_HEADROOM * N_exact) / np.pi
    M4 = profile_modes * _next_5smooth(int(np.ceil(m4_needed * 1.02 / profile_modes)))
    return UapSetup(
        params=ApproxParams(N=N_exact),
        grid4=make_grid(L4, M4),
        grid_v=make_grid(Lv, profile_modes),
        band=make_grid(L4, 2 * profile_modes, k_star),
    )


def _next_5smooth(n: int) -> int:
    """The smallest integer >= n whose prime factors are all 2, 3 or 5."""
    while True:
        rest = n
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return n
        n += 1


def change_coords(N: float, t, x):
    """The comoving frame map (t, x) -> (s, y) = (t, (x + 4 N^3 t)/(sqrt(6) N))."""
    t = np.asarray(t, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    return t, (x + 4.0 * N**3 * t) / (SQRT6 * N)


def _comoving_modes(setup: UapSetup, spec_v: Spectrum, t: float) -> np.ndarray:
    """The modes of v(t, y(t, x)) on the 4NLS lattice, exact for band-limited v.

    The mapped points y(t, x_j) are the profile grid refined to the 4NLS
    spacing and shifted by 4 N^2 t / sqrt(6), so profile mode m is 4NLS mode
    m times that shift as a per-mode phase.
    """
    shift = 4.0 * setup.params.N**2 * t / SQRT6
    return spec_v.coef * np.exp(1j * setup.grid_v.xi * shift)


def _padded(setup: UapSetup, c: np.ndarray, grid: Grid, offset: int) -> Field:
    """The modes ``c`` placed at the local indices grid_v.k + offset of ``grid``."""
    big = np.zeros(grid.M, dtype=np.complex128)
    big[(setup.grid_v.k + offset) % grid.M] = c
    return to_physical(Spectrum(grid, big))


def _profile_on_grid4(setup: UapSetup, spec_v: Spectrum, t: float) -> np.ndarray:
    """Band-limited evaluation of the profile at the mapped points y(t, x_j)."""
    if setup.grid4.M % setup.grid_v.M != 0:
        raise ConfigError("4NLS grid must refine the profile grid")
    return _padded(setup, _comoving_modes(setup, spec_v, t), setup.grid4, 0).values


def _uap_on(profile, setup: UapSetup, t: float, grid: Grid) -> Field:
    """U_ap(t) on the 4NLS grid or the band, straight from the profile spectrum.

    With xi_{k*} = N the carrier moves mode m to k* + m and adds exp(i N^4 t).
    """
    c = _comoving_modes(setup, to_spectrum(profile.value(t)), t)
    return _padded(setup, c * np.exp(1j * setup.params.N**4 * t), grid, setup.band.k0 - grid.k0)


def build_uap(profile, setup: UapSetup, t: float) -> Field:
    """The modulated, rescaled, comoving profile as a field on the 4NLS grid."""
    return _uap_on(profile, setup, t, setup.grid4)


@dataclass
class ResidualFields:
    e1: Field              # (1/36) N^-4 carrier * d_y^4 v
    e2: Field              # (4i/6^{3/2}) N^-2 carrier * d_y^3 v
    direct: Field          # (i d_t + d_x^4) U - |U|^2 U by FD + spectral
    relative_defect: float  # ||direct - (e1 + e2)||_2 / ||e1 + e2||_2, unscaled if e1 + e2 = 0


def residual_fields(
    profile, setup: UapSetup, t: float, fd_step: float = 1e-5
) -> ResidualFields:
    """Evaluate the two residual expressions and the direct residual.

    The time derivative is a five-point finite difference applied after
    factoring out the exact carrier oscillation exp(i N^4 t) (differencing
    through a phase rotating at N^4 would swamp the O(N^-2) residual); the
    spatial derivative is spectral.  Agreement of ``direct`` with
    ``e1 + e2`` validates the whole change-of-variables computation.
    """
    N = setup.params.N
    grid4, grid_v = setup.grid4, setup.grid_v

    def dy_m(m: int, at_t: float) -> np.ndarray:
        spec = apply_symbol(to_spectrum(profile.value(at_t)), (1j * grid_v.xi) ** m)
        return _profile_on_grid4(setup, spec, at_t)

    carrier = np.exp(1j * N**4 * t) * np.exp(1j * N * grid4.x)
    e1 = Field(grid4, (1.0 / 36.0) * N**-4 * carrier * dy_m(4, t))
    e2 = Field(grid4, (4j / 6**1.5) * N**-2 * carrier * dy_m(3, t))

    # W(t) = exp(i N x) v(t, y(t, x)); i U_t = exp(i N^4 t) (i W_t - N^4 W)
    h = fd_step
    w = {}
    for mlt in (-2, -1, 0, 1, 2):
        spec = to_spectrum(profile.value(t + mlt * h))
        w[mlt] = np.exp(1j * N * grid4.x) * _profile_on_grid4(setup, spec, t + mlt * h)
    w_t = (w[-2] - 8 * w[-1] + 8 * w[1] - w[2]) / (12 * h)
    u = np.exp(1j * N**4 * t) * w[0]
    iu_t = np.exp(1j * N**4 * t) * (1j * w_t - N**4 * w[0])
    u_xxxx = to_physical(apply_symbol(to_spectrum(Field(grid4, u)), grid4.xi**4)).values
    direct = Field(grid4, iu_t + u_xxxx - np.abs(u) ** 2 * u)

    target = e1.values + e2.values
    scale = np.sqrt(grid4.dx * np.sum(np.abs(target) ** 2))
    defect = np.sqrt(grid4.dx * np.sum(np.abs(direct.values - target) ** 2))
    if scale > 0:
        defect /= scale  # a zero target (zero profile) leaves the absolute norm
    return ResidualFields(e1=e1, e2=e2, direct=direct, relative_defect=float(defect))


# ---------------------------------------------------------------------------
# modulation norms


def modulated_profile(u, A: complex, M: float, tau: float, x0: float, grid: Grid) -> Field:
    """v(x) = A exp(i M x) u((x - x0)/tau) sampled on the grid; u is a callable."""
    if tau <= 0:
        raise ConfigError("width tau must be positive")
    x = grid.x
    return Field(grid, A * np.exp(1j * M * x) * np.asarray(u((x - x0) / tau)))


def modulation_norm_check(
    u,
    s: float,
    grid: Grid,
    sweep: str,
    values,
    M: float = 64.0,
) -> FitResult:
    """Fit ||A e^{iMx} u((x-x0)/tau)||_{H^s} against one swept parameter.

    The base point is A = 1, carrier M, tau = 1 and x0 = 0; the sweep
    replaces A, M or tau.  Expected slopes: s for the carrier sweep, 1/2
    for the width sweep, 1 for the amplitude sweep.  The validity
    hypothesis (M tau >= 1 for s >= 0; tau M^{1+s/5} >= 1 for s < 0, taking
    u of smoothness 5) is checked per point and flagged with a warning, but
    the norm is computed regardless.
    """
    if sweep not in ("carrier", "width", "amplitude"):
        raise ConfigError(f"unknown sweep '{sweep}'")
    pts = []
    for val in values:
        a_, m_, t_ = 1.0, M, 1.0
        if sweep == "carrier":
            m_ = float(val)
        elif sweep == "width":
            t_ = float(val)
        else:
            a_ = complex(val)
        if s >= 0:
            ok = m_ * t_ >= 1
        else:
            ok = t_ * m_ ** (1 + s / 5.0) >= 1
        if not ok:
            warnings.warn(
                f"modulation hypothesis violated at {sweep}={val}: computed anyway",
                stacklevel=2,
            )
        v = modulated_profile(u, a_, m_, t_, 0.0, grid)
        pts.append((abs(val), sobolev_norm(v, s)))
    return fit_loglog(pts)


# ---------------------------------------------------------------------------
# experiments against the true solver


def _solver_config(dt: float, t_end: float, stride: int) -> EvolutionConfig:
    # (i d_t + d_x^4) U - |U|^2 U = 0  <=>  i U_t = -U_xxxx + |U|^2 U
    return EvolutionConfig(equation="quartic", orientation=-1, kappa=1, dt=dt,
                           t_end=t_end, scheme="strang", record_stride=stride,
                           record_fields=True)


@dataclass
class ErrorDecayResult:
    fit: FitResult
    sup_errors: dict


def uap_tracking_error(N: float, window: float = 1.0, amplitude: float = 1.0,
                       s: float = -0.5, dt: float = 5e-4, n_records: int = 20,
                       profile_length: float = 50.0, profile_modes: int = 512) -> float:
    """sup over the window of ||U - U_ap||_{H^s} with U(0) = U_ap(0), on the band grid."""
    setup = plan_uap_discretization(
        float(N), profile_length=profile_length, profile_modes=profile_modes
    )
    profile = SolitonProfile(amplitude, setup.grid_v)
    band = setup.band
    steps = int(round(window / dt))
    stride = max(1, steps // n_records)
    rec = evolve(_uap_on(profile, setup, 0.0, band),
                 _solver_config(dt, window, stride))
    worst = 0.0
    for t, f in zip(rec.times, rec.fields):
        if t == 0:
            continue
        ref = _uap_on(profile, setup, float(t), band)
        worst = max(worst, sobolev_norm(Field(band, f.values - ref.values), s))
    return worst


def error_decay_experiment(N_values, window: float = 1.0, amplitude: float = 1.0,
                           s: float = -0.5, dt: float = 5e-4, n_records: int = 20,
                           profile_length: float = 50.0,
                           profile_modes: int = 512) -> ErrorDecayResult:
    """Evolve U(0) = U_ap(0) exactly and fit sup_t ||U - U_ap||_{H^s} vs N.

    The residual of the construction is O(N^-2), so the fitted slope is
    predicted near -2.
    """
    sups = {
        N: uap_tracking_error(
            N, window, amplitude, s, dt, n_records, profile_length, profile_modes
        )
        for N in N_values
    }
    fit = fit_loglog(sorted(sups.items()))
    return ErrorDecayResult(fit=fit, sup_errors=sups)


@dataclass
class SeparationReport:
    s: float
    N: float
    lam: float
    eps: float
    delta: float
    initial_norm_u: float
    initial_norm_v: float
    initial_distance: float
    sup_distance: float
    time_of_max: float           # in the lambda-scaled time of the theorem
    scaled_window: float
    triangle_lower_bound: float  # ||Uap1-Uap2|| - drift1 - drift2 at the max time
    drifts: tuple


def separation_experiment(
    a: float,
    a2: float,
    s: float,
    N: float,
    T: float,
    dt: float = 1e-3,
    n_records: int = 60,
    profile_length: float = 50.0,
    profile_modes: int = 512,
    window_factor: float = 1.25,
) -> SeparationReport:
    """Two soliton-built solutions through the true solver, distances in H^s.

    The scaling map u -> lam^2 u(lam^4 t, lam x) with
    lam = N^(-(s+1/2)/(s+3/2)) is exact on the frequency lattice, so the
    runs execute in unscaled variables and every reported norm is taken
    after applying the exact scaling to the recorded fields.  Phase
    decoherence of the profile clocks peaks near t = pi/|a^2 - a2^2|
    (unscaled), which the run window must contain.  Both runs and every
    norm live on the band grid of the setup, where the two runs are stepped
    together as one stack.
    """
    if not (-15.0 / 14.0 < s < -0.5):
        warnings.warn(
            f"s={s} outside the guaranteed range (-15/14, -1/2); proceeding",
            stacklevel=2,
        )
    if a == a2:
        raise ConfigError("profile amplitudes must differ")
    for amp in (a, a2):
        if not 0.5 <= amp <= 2.0:
            raise ConfigError("amplitudes must lie in [1/2, 2]")
    lam = float(N) ** (-(s + 0.5) / (s + 1.5))
    t_decohere = np.pi / abs(a**2 - a2**2)
    t_run = window_factor * t_decohere
    if t_run / lam**4 > T:
        warnings.warn(
            f"decoherence time {t_decohere / lam**4:.3g} (scaled) exceeds T={T}; "
            "increase N",
            stacklevel=2,
        )
        t_run = T * lam**4

    setup = plan_uap_discretization(
        float(N), profile_length=profile_length, profile_modes=profile_modes
    )
    prof1 = SolitonProfile(a, setup.grid_v)
    prof2 = SolitonProfile(a2, setup.grid_v)
    u1_0 = _uap_on(prof1, setup, 0.0, setup.band)
    u2_0 = _uap_on(prof2, setup, 0.0, setup.band)

    steps = int(round(t_run / dt))
    stride = max(1, steps // n_records)
    cfg = _solver_config(dt, steps * dt, stride)
    rec1, rec2 = evolve_many([u1_0, u2_0], cfg)

    def scaled_norm(f: Field) -> float:
        return sobolev_norm(scale_transform(f, lam), s)

    def scaled_dist(f: Field, g: Field) -> float:
        return scaled_norm(Field(f.grid, f.values - g.values))

    eps = max(scaled_norm(u1_0), scaled_norm(u2_0))
    delta = scaled_dist(u1_0, u2_0)

    sup_d, t_max, i_max = 0.0, 0.0, 0
    for i, t in enumerate(rec1.times):
        d = scaled_dist(rec1.fields[i], rec2.fields[i])
        if d > sup_d:
            sup_d, t_max, i_max = d, float(t), i

    ref1 = _uap_on(prof1, setup, t_max, setup.band)
    ref2 = _uap_on(prof2, setup, t_max, setup.band)
    drift1 = scaled_dist(rec1.fields[i_max], ref1)
    drift2 = scaled_dist(rec2.fields[i_max], ref2)
    lower = scaled_dist(ref1, ref2) - drift1 - drift2

    return SeparationReport(
        s=s,
        N=setup.params.N,
        lam=lam,
        eps=eps,
        delta=delta,
        initial_norm_u=scaled_norm(u1_0),
        initial_norm_v=scaled_norm(u2_0),
        initial_distance=delta,
        sup_distance=sup_d,
        time_of_max=t_max / lam**4,
        scaled_window=steps * dt / lam**4,
        triangle_lower_bound=lower,
        drifts=(drift1, drift2),
    )
