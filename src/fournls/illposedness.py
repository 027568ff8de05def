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

The spectrum of U_ap is the profile's packet at the carrier mode k*, so
every experiment, the residual identity included, runs on a band grid of
2 * profile_modes points with carrier index k* (``UapSetup.band``), whose
size does not grow with N as the 4NLS grid's does: w = exp(-i N x) U is an
exact index shift, with |w| = |U|.  One function, ``_placed``, puts the
profile's modes there; the full 4NLS grid (``UapSetup.grid4``) is kept only
for ``build_uap``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, check_integer, check_real, is_real
from .evolution import EvolutionConfig, evolve_many
from .fitting import FitResult, fit_loglog
from .spectral import (Field, Grid, Spectrum, apply_symbol, make_grid, mass, sobolev_norm,
                       to_physical, to_spectrum)
from .symmetries import scale_transform

__all__ = [
    "UapSetup", "SolitonProfile", "plan_uap_discretization",
    "build_uap", "residual_fields", "ResidualFields",
    "modulated_profile", "modulation_norm_check", "error_decay_experiment",
    "ErrorDecayResult", "separation_experiment", "SeparationReport",
]

SQRT6 = np.sqrt(6.0)
XI_HEADROOM = 4.0  # grid4's Nyquist frequency in units of the carrier N


class SolitonProfile:
    """Closed-form soliton of i v_s - v_yy - |v|^2 v = 0 on a profile grid.

    Exact at every time, so it contributes nothing to the error budget of
    the experiments that consume it.  Pairs with the kappa = -1 residual
    form of the quartic equation.
    """

    def __init__(self, amplitude: float, grid: Grid):
        check_real("soliton amplitude", amplitude, positive=True)
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

    N: float  # the carrier frequency 2 pi k* / L4 >= 8, k* = band.k0
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
    check_real("carrier frequency N", N, positive=True)
    check_real("profile_length", profile_length, positive=True)
    check_integer("profile_modes", profile_modes, 1)
    L4 = SQRT6 * N * profile_length
    k_star = int(round(N * L4 / (2 * np.pi)))
    if 2 * np.pi * k_star / L4 < 8.0:  # keep the snapped carrier admissible
        k_star += 1
    N_exact = 2 * np.pi * k_star / L4
    if not N_exact >= 8:
        raise ConfigError(f"carrier frequency must be >= 8, got N={N!r}")
    Lv = L4 / (SQRT6 * N_exact)
    m4_needed = L4 * (XI_HEADROOM * N_exact) / np.pi
    M4 = profile_modes * _next_5smooth(int(np.ceil(m4_needed * 1.02 / profile_modes)))
    return UapSetup(
        N=N_exact,
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


def _placed(setup: UapSetup, spec_v: Spectrum, t: float, grid: Grid, phase=1.0) -> Field:
    """v(t, y(t, x)) times the carrier exp(i N x) on ``grid``, exact for band-limited v.

    The mapped points y(t, x_j) are the profile grid refined to the 4NLS
    spacing and shifted by 4 N^2 t / sqrt(6), so profile mode m is that
    shift as a per-mode phase at 4NLS mode k* + m: the carrier is an exact
    index shift, with no pointwise exp(i N x).  ``phase`` is a scalar
    factor on every mode.
    """
    shift = 4.0 * setup.N**2 * t / SQRT6
    c = spec_v.coef * np.exp(1j * setup.grid_v.xi * shift) * phase
    big = np.zeros(grid.M, dtype=np.complex128)
    big[(setup.grid_v.k + setup.band.k0 - grid.k0) % grid.M] = c
    return to_physical(Spectrum(grid, big))


def _uap_on(profile, setup: UapSetup, t: float, grid: Grid) -> Field:
    """U_ap(t) on the 4NLS grid or the band, straight from the profile spectrum."""
    spec = to_spectrum(profile.value(t))
    return _placed(setup, spec, t, grid, np.exp(1j * setup.N**4 * t))


def build_uap(profile, setup: UapSetup, t: float) -> Field:
    """The modulated, rescaled, comoving profile as a field on the 4NLS grid."""
    return _uap_on(profile, setup, t, setup.grid4)


@dataclass
class ResidualFields:
    """Band fields (carrier as the mode shift k*) of the residual identity."""

    e1: Field              # (1/36) N^-4 exp(i N^4 t) d_y^4 v
    e2: Field              # (4i/6^{3/2}) N^-2 exp(i N^4 t) d_y^3 v
    direct: Field          # (i d_t + d_x^4) U - |U|^2 U by FD + spectral
    relative_defect: float  # ||direct - (e1 + e2)||_2 / ||e1 + e2||_2, unscaled if e1 + e2 = 0


def residual_fields(
    profile, setup: UapSetup, t: float, fd_step: float = 1e-5
) -> ResidualFields:
    """Evaluate the two residual expressions and the direct residual on the band.

    Every field comes from ``_placed``, so the carrier exp(i N x) is the
    exact mode shift k*, and d_x^4 is the band's symbol xi^4.  The time
    derivative is a five-point finite difference applied after factoring
    out the exact carrier oscillation exp(i N^4 t) (differencing through a
    phase rotating at N^4 would swamp the O(N^-2) residual).  Agreement of
    ``direct`` with ``e1 + e2`` validates the whole change-of-variables
    computation.
    """
    if not (is_real(fd_step) and fd_step != 0):
        raise ConfigError(f"fd_step must be finite and nonzero, got {fd_step!r}")
    N, band = setup.N, setup.band
    carrier = np.exp(1j * N**4 * t)
    spec = to_spectrum(profile.value(t))

    def dy(m: int) -> Spectrum:
        return apply_symbol(spec, (1j * setup.grid_v.xi) ** m)

    e1 = _placed(setup, dy(4), t, band, (1.0 / 36.0) * N**-4 * carrier)
    e2 = _placed(setup, dy(3), t, band, (4j / 6**1.5) * N**-2 * carrier)

    # w(t) = v(t, y(t, x)) with the carrier exp(i N x) as the band's mode
    # shift; U = exp(i N^4 t) w, so i U_t = exp(i N^4 t) (i w_t - N^4 w)
    h = fd_step
    w = [_placed(setup, to_spectrum(profile.value(t + m * h)), t + m * h, band).values
         for m in (-2, -1, 0, 1, 2)]
    w_t = (w[0] - 8 * w[1] + 8 * w[3] - w[4]) / (12 * h)
    u = carrier * w[2]
    iu_t = carrier * (1j * w_t - N**4 * w[2])
    u_xxxx = to_physical(apply_symbol(to_spectrum(Field(band, u)), band.xi**4)).values
    direct = Field(band, iu_t + u_xxxx - np.abs(u) ** 2 * u)

    target = e1.values + e2.values
    scale = np.sqrt(mass(Field(band, target)))
    defect = np.sqrt(mass(Field(band, direct.values - target)))
    if scale > 0:
        defect /= scale  # a zero target (zero profile) leaves the absolute norm
    return ResidualFields(e1=e1, e2=e2, direct=direct, relative_defect=float(defect))


# ---------------------------------------------------------------------------
# modulation norms


def modulated_profile(u, A: complex, M: float, tau: float, x0: float, grid: Grid) -> Field:
    """v(x) = A exp(i M x) u((x - x0)/tau) sampled on the grid; u is a callable."""
    check_real("width tau", tau, positive=True)
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
    check_real("s", s)
    if sweep not in ("carrier", "width", "amplitude"):
        raise ConfigError(f"unknown sweep '{sweep}'")
    values = list(values)
    for val in values:
        check_real(f"a {sweep} sweep value", val)
    pts = []
    for val in values:
        a_, m_, t_ = {"carrier": (1.0, float(val), 1.0), "width": (1.0, M, float(val)),
                      "amplitude": (complex(val), M, 1.0)}[sweep]
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


def _evolve_uaps(profiles, setups, t_run: float, dt: float, n_records: int) -> list:
    """The solver's records from U_ap(0) of each profile on the band of its setup.

    The run takes round(t_run / dt) steps and records about ``n_records``
    times; each record's first field is U_ap(0); bands of one size share a stack.
    """
    check_real("the run length", t_run, positive=True)
    check_real("dt", dt, positive=True)
    check_integer("n_records", n_records, 1)
    steps = int(round(t_run / dt))
    cfg = _solver_config(dt, steps * dt, max(1, steps // n_records))
    return evolve_many([_uap_on(p, s, 0.0, s.band) for p, s in zip(profiles, setups)], cfg)


@dataclass
class ErrorDecayResult:
    fit: FitResult
    sup_errors: dict


def uap_tracking_error(N: float, window: float = 1.0, amplitude: float = 1.0,
                       dt: float = 5e-4, n_records: int = 20,
                       profile_length: float = 50.0, profile_modes: int = 512) -> float:
    """sup over the window of ||U - U_ap||_{H^{-1/2}} with U(0) = U_ap(0), on the band
    grid: the one-N case of ``error_decay_experiment``.

    The window is rounded to a whole number of steps of ``dt``.
    """
    return _tracking_errors([N], window, amplitude, dt, n_records, profile_length,
                            profile_modes)[N]


def _tracking_errors(N_values, window, amplitude, dt, n_records, profile_length,
                     profile_modes) -> dict:
    """``uap_tracking_error`` at each N, every N planned before one ``_evolve_uaps`` call."""
    setups = [plan_uap_discretization(float(N), profile_length=profile_length,
                                      profile_modes=profile_modes) for N in N_values]
    profiles = [SolitonProfile(amplitude, setup.grid_v) for setup in setups]
    records = _evolve_uaps(profiles, setups, window, dt, n_records)
    sups = {}
    for N, setup, profile, rec in zip(N_values, setups, profiles, records):
        worst = 0.0
        for t, f in zip(rec.times[1:], rec.fields[1:]):
            ref = _uap_on(profile, setup, float(t), setup.band)
            worst = max(worst, sobolev_norm(Field(setup.band, f.values - ref.values), -0.5))
        sups[N] = worst
    return sups


def error_decay_experiment(N_values, window: float = 1.0, amplitude: float = 1.0,
                           dt: float = 5e-4, n_records: int = 20,
                           profile_length: float = 50.0,
                           profile_modes: int = 512) -> ErrorDecayResult:
    """Evolve U(0) = U_ap(0) exactly and fit sup_t ||U - U_ap||_{H^{-1/2}} vs N.

    Every N is stepped in one ``evolve_many`` call.  The residual of the
    construction is O(N^-2), so the fitted slope is predicted near -2.
    """
    N_values = list(N_values)
    if len(N_values) < 4:  # fit_loglog's floor, checked before any N is planned or stepped
        raise ConfigError(f"need at least 4 carriers N for the fit, got {len(N_values)}")
    sups = _tracking_errors(N_values, window, amplitude, dt, n_records,
                            profile_length, profile_modes)
    return ErrorDecayResult(fit=fit_loglog(sorted(sups.items())), sup_errors=sups)


@dataclass
class SeparationReport:
    s: float
    N: float
    lam: float
    eps: float                   # max of the two initial norms
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
    for name, value in (("s", s), ("amplitude a", a), ("amplitude a2", a2)):
        check_real(name, value)
    check_real("carrier frequency N", N, positive=True)
    check_real("T", T, positive=True)
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
    profiles = [SolitonProfile(a, setup.grid_v), SolitonProfile(a2, setup.grid_v)]
    rec1, rec2 = _evolve_uaps(profiles, [setup, setup], t_run, dt, n_records)

    def scaled_norm(f: Field) -> float:
        return sobolev_norm(scale_transform(f, lam), s)

    def scaled_dist(f: Field, g: Field) -> float:
        return scaled_norm(Field(f.grid, f.values - g.values))

    norm_u, norm_v = scaled_norm(rec1.fields[0]), scaled_norm(rec2.fields[0])

    sup_d, t_max, i_max = 0.0, 0.0, 0
    for i, t in enumerate(rec1.times):
        d = scaled_dist(rec1.fields[i], rec2.fields[i])
        if d > sup_d:
            sup_d, t_max, i_max = d, float(t), i

    ref1, ref2 = (_uap_on(p, setup, t_max, setup.band) for p in profiles)
    drift1 = scaled_dist(rec1.fields[i_max], ref1)
    drift2 = scaled_dist(rec2.fields[i_max], ref2)

    return SeparationReport(
        s=s,
        N=setup.N,
        lam=lam,
        eps=max(norm_u, norm_v),
        initial_norm_u=norm_u,
        initial_norm_v=norm_v,
        initial_distance=scaled_dist(rec1.fields[0], rec2.fields[0]),
        sup_distance=sup_d,
        time_of_max=t_max / lam**4,
        scaled_window=rec1.config.t_end / lam**4,
        triangle_lower_bound=scaled_dist(ref1, ref2) - drift1 - drift2,
        drifts=(drift1, drift2),
    )
