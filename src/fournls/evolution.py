"""Time integrators for the quartic and cubic Schrodinger equations.

The canonical form integrated here is

    i u_t = orientation * P(d_x) u + kappa * |u|^2 u,

with ``P = d_x^4`` (quartic) or ``P = d_x^2`` (cubic).  In Fourier variables
the linear flow is exact: for the quartic equation coefficients rotate by
``exp(-i * orientation * xi^4 * t)``, for the cubic by
``exp(+i * orientation * xi^2 * t)``.  The nonlinear substep is the exact
phase rotation ``u -> u * exp(-i kappa |u|^2 dt)``, which conserves |u|
pointwise, so both splitting schemes below conserve mass to round-off
(when ``project_K`` is unset).

The default scheme ``"mclachlan2"`` is the symmetric second-order
composition ``L(a dt) N(dt/2) L((1 - 2a) dt) N(dt/2) L(a dt)`` with
``a = 0.1931833275037836``, the weight that minimises the leading error term
of such two-stage methods (R. I. McLachlan, SIAM J. Sci. Comput. 16 (1995)
151-168).  ``"strang"`` is ``L(dt/2) N(dt) L(dt/2)`` and ``"ifrk4"`` is
classical RK4 in the integrating-factor frame.

Every scheme advances plain arrays through one core, ``_stepper``, which
tabulates its multipliers and the ``project_K`` mask once per run.  The
spectral states are raw FFT coefficients ``np.fft.fft(u)``, not the
coefficients ``c_k`` of :mod:`fournls.spectral`: the two differ by the
centering phase ``(-1)^k`` and the factor ``1/M``, which are diagonal and
constant, so they commute with every linear substep, with the mode
projection and with the RK4 combination, and cancel between ``fft`` and
``ifft``.  A step therefore costs only the transforms its nonlinearity
needs: 4 for ``"mclachlan2"`` and ``"strang"``, 8 for ``"ifrk4"``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import AbortedRunError, ConfigError
from .spectral import (
    Field,
    Spectrum,
    check_resolved,
    cubic_convolution,
    sobolev_norm,
    spectral_tail_fraction,
    to_physical,
    to_spectrum,
)

__all__ = [
    "EvolutionConfig",
    "TrajectoryRecord",
    "linear_propagate_4nls",
    "linear_propagate_nls",
    "nonlinear_substep",
    "strang_step",
    "ifrk4_step",
    "evolve",
    "galerkin_rhs",
    "galerkin_evolve",
    "conserved_energy",
    "trajectory_to_csv",
    "run_manifest",
]


# linear-substep weight of McLachlan's symmetric two-stage splitting
MCLACHLAN_A = 0.1931833275037836


@dataclass(frozen=True)
class EvolutionConfig:
    """Full description of one evolution run."""

    equation: str = "quartic"  # "quartic" or "cubic"
    orientation: int = 1  # sign of the linear term in i u_t = +/- P u + ...
    kappa: int = 1  # nonlinearity coefficient, -1 / 0 / +1
    dt: float = 1e-3
    t_end: float = 1.0
    # "mclachlan2" (McLachlan 1995 two-stage splitting, a = MCLACHLAN_A; mass
    # exact), "strang" (L/2 N L/2; mass exact) or "ifrk4"
    scheme: str = "mclachlan2"
    record_stride: int = 1
    record_fields: bool = True
    sobolev_orders: tuple = ()
    start_tail_tol: float = 1e-8
    run_tail_tol: float = 1e-6
    require_localized: bool = True
    # with project_K set, every nonlinear evaluation is truncated to
    # |k| <= project_K.  On a grid with M > 4*project_K the cubic aliases
    # cannot reach the band, so "ifrk4" integrates the Galerkin ODE system
    # exactly (up to its RK4 error).  The split schemes project after the
    # exact pointwise nonlinear flow, which differs from the flow of the
    # projected field at O(dt^2) per step: they are only first order against
    # that system (McLachlan, M=64, K=4: error 6.1e-7 at 50 steps, 7.7e-8 at
    # 400 steps)
    project_K: Optional[int] = None

    def __post_init__(self):
        if self.equation not in ("quartic", "cubic"):
            raise ConfigError(f"unknown equation '{self.equation}'")
        if self.orientation not in (1, -1):
            raise ConfigError("orientation must be +1 or -1")
        if self.kappa not in (1, 0, -1):
            raise ConfigError("kappa must be -1, 0 or +1")
        if self.scheme not in ("mclachlan2", "strang", "ifrk4"):
            raise ConfigError(f"unknown scheme '{self.scheme}'")
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ConfigError("dt must be positive and finite")
        if not (np.isfinite(self.t_end) and self.t_end >= self.dt):
            raise ConfigError("t_end must satisfy dt <= t_end")
        if self.record_stride < 1:
            raise ConfigError("record_stride must be a positive integer")

    def linear_phase_rate(self, xi: np.ndarray) -> np.ndarray:
        """d(arg c_k)/dt of the linear flow at frequency xi."""
        if self.equation == "quartic":
            return -self.orientation * xi**4
        return self.orientation * xi**2


@dataclass
class TrajectoryRecord:
    """Diagnostics collected during a run; read-only afterwards."""

    times: np.ndarray
    mass: np.ndarray
    energy: np.ndarray
    sobolev: dict
    fields: Optional[list]
    config: EvolutionConfig
    aborted: bool = False

    def final_field(self) -> Field:
        if not self.fields:
            raise ConfigError("run was recorded in storage-lean mode")
        return self.fields[-1]


def _linear_propagate(f: Field, t: float, orientation: int, power: int) -> Field:
    if t == 0:
        return f.copy()
    spec = to_spectrum(f)
    spec.coef *= np.exp(1j * orientation * t * f.grid.xi**power)
    return to_physical(spec)


def linear_propagate_4nls(f: Field, t: float, orientation: int = 1) -> Field:
    """Multiply mode xi by exp(i * orientation * t * xi^4)."""
    return _linear_propagate(f, t, orientation, 4)


def linear_propagate_nls(f: Field, t: float, orientation: int = 1) -> Field:
    """Multiply mode xi by exp(i * orientation * t * xi^2)."""
    return _linear_propagate(f, t, orientation, 2)


def _rotate(u: np.ndarray, rotation: complex) -> np.ndarray:
    # u * exp(rotation |u|^2): the exact nonlinear flow for rotation = -i kappa t
    return u * np.exp(rotation * (u.real**2 + u.imag**2))


def nonlinear_substep(f: Field, dt: float, kappa: int) -> Field:
    """Exact flow of i u_t = kappa |u|^2 u: a pointwise phase rotation."""
    return Field(f.grid, _rotate(f.values, -1j * kappa * dt))


def _ifrk4(c: np.ndarray, nl, e_half: np.ndarray, e_full: np.ndarray, dt: float) -> np.ndarray:
    """One classical RK4 step of c' = nl(c) in the integrating-factor frame."""
    k1 = nl(c)
    k2 = nl(e_half * (c + dt / 2 * k1))
    k3 = nl(e_half * c + dt / 2 * k2)
    k4 = nl(e_full * c + dt * e_half * k3)
    return e_full * c + dt / 6 * (e_full * k1 + 2 * e_half * (k2 + k3) + k4)


def _stepper(grid, cfg: EvolutionConfig):
    """``(start, step, values)`` of ``cfg.scheme`` on ``grid``, on plain arrays.

    ``start`` maps samples to the scheme's state, ``step`` advances a state
    by ``cfg.dt`` and ``values`` returns the samples of a state that has
    taken at least one step.  Spectral states hold raw FFT coefficients
    (module docstring); every multiplier is tabulated here, once.
    """
    lam = 1j * cfg.linear_phase_rate(grid.xi)
    dt = cfg.dt
    outside = None if cfg.project_K is None else np.abs(grid.k) > cfg.project_K

    def project(w):
        if outside is not None:
            w[outside] = 0.0
        return w

    if cfg.scheme == "mclachlan2":
        # the state (w, lead) is taken just after a nonlinear substep and
        # still owes the trailing L(a dt); that is merged with the next
        # step's leading L(a dt) into one L(2a dt), and applied on its own
        # only when samples are read
        edge, merged, middle = (
            np.exp(lam * frac * dt)
            for frac in (MCLACHLAN_A, 2 * MCLACHLAN_A, 1 - 2 * MCLACHLAN_A)
        )
        rotation = -1j * cfg.kappa * dt / 2

        def nonlinear_half(w):
            return project(np.fft.fft(_rotate(np.fft.ifft(w), rotation)))

        def step(state):
            w, lead = state
            return nonlinear_half(nonlinear_half(w * lead) * middle), merged

        return (lambda u: (np.fft.fft(u), edge)), step, (lambda s: np.fft.ifft(s[0] * edge))

    half = np.exp(lam * dt / 2)
    if cfg.scheme == "strang":
        # the state is the samples themselves
        def step(u):
            u = _rotate(np.fft.ifft(np.fft.fft(u) * half), -1j * cfg.kappa * dt)
            return np.fft.ifft(project(np.fft.fft(u) * half))

        return (lambda u: u), step, (lambda u: u)

    full = half * half

    def nl(w):
        u = np.fft.ifft(w)
        return project(-1j * cfg.kappa * np.fft.fft((u.real**2 + u.imag**2) * u))

    return np.fft.fft, (lambda w: _ifrk4(w, nl, half, full, dt)), np.fft.ifft


def _one_step(f: Field, cfg: EvolutionConfig, scheme: str) -> Field:
    start, step, values = _stepper(f.grid, replace(cfg, scheme=scheme))
    return Field(f.grid, values(step(start(f.values))))


def strang_step(f: Field, cfg: EvolutionConfig) -> Field:
    """One half-linear / full-nonlinear / half-linear composition."""
    return _one_step(f, cfg, "strang")


def ifrk4_step(f: Field, cfg: EvolutionConfig) -> Field:
    """Classical RK4 in the rotating Fourier frame (integrating factor)."""
    return _one_step(f, cfg, "ifrk4")


def conserved_energy(f: Field, cfg: EvolutionConfig) -> float:
    """The energy functional conserved by the configured equation.

    Quartic: orientation/2 * int |u_xx|^2 + kappa/4 * int |u|^4.
    Cubic:   orientation/2 * int |u_x|^2  + kappa/4 * int |u|^4.
    """
    spec = to_spectrum(f)
    xi = f.grid.xi
    order = 2 if cfg.equation == "quartic" else 1
    kinetic = 0.5 * f.grid.L * np.sum(np.abs(xi) ** (2 * order) * np.abs(spec.coef) ** 2)
    quartic = f.grid.dx * np.sum(np.abs(f.values) ** 4)
    return float(cfg.orientation * kinetic + cfg.kappa / 4 * quartic)


def evolve(f0: Field, cfg: EvolutionConfig) -> TrajectoryRecord:
    """March ``f0`` to ``t_end``, recording diagnostics every record_stride steps.

    The start is guarded by the resolution check (spectral tail, and the
    boundary tail when ``require_localized``); at every record point the
    spectral tail is re-checked and a blow-up past ``run_tail_tol`` raises
    :class:`AbortedRunError` carrying the partial record.
    """
    check_resolved(f0, tol=cfg.start_tail_tol, localized=cfg.require_localized)
    grid = f0.grid
    n_steps = int(round(cfg.t_end / cfg.dt))
    if abs(n_steps * cfg.dt - cfg.t_end) > 1e-9 * cfg.t_end:
        raise ConfigError("t_end must be an integer number of steps")

    times, masses, energies = [], [], []
    sob = {s: [] for s in cfg.sobolev_orders}
    fields = [] if cfg.record_fields else None

    def record(t, u_phys):
        f = Field(grid, u_phys)
        times.append(t)
        masses.append(grid.dx * float(np.sum(np.abs(u_phys) ** 2)))
        energies.append(conserved_energy(f, cfg))
        for s in cfg.sobolev_orders:
            sob[s].append(sobolev_norm(f, s))
        if fields is not None:
            fields.append(f.copy())
        return f

    def make_record(aborted=False):
        return TrajectoryRecord(
            times=np.array(times),
            mass=np.array(masses),
            energy=np.array(energies),
            sobolev={s: np.array(v) for s, v in sob.items()},
            fields=fields,
            config=cfg,
            aborted=aborted,
        )

    start, step, values = _stepper(grid, cfg)
    record(0.0, f0.values)
    state = start(f0.values)
    for n in range(1, n_steps + 1):
        state = step(state)
        if n % cfg.record_stride == 0 or n == n_steps:
            f = record(n * cfg.dt, values(state))
            tail = spectral_tail_fraction(f)
            if tail > cfg.run_tail_tol:
                raise AbortedRunError(
                    f"spectral tail blow-up at t={n * cfg.dt:g}: "
                    f"{tail:.3e} > {cfg.run_tail_tol:.1e}",
                    record=make_record(aborted=True),
                )
    return make_record()


# ---------------------------------------------------------------------------
# brute-force Galerkin oracle


def _galerkin_band(s: Spectrum, K: int):
    """The modes k = -K..K of ``s`` and their coefficients, after checking
    that K fits the grid and that ``s`` has no support above it."""
    grid = s.grid
    if K < 1 or K > grid.M // 2 - 1:
        raise ConfigError(f"mode cutoff K={K} outside grid resolution")
    peak = np.max(np.abs(s.coef))
    if peak > 0 and np.any(np.abs(s.coef[np.abs(grid.k) > K]) > 1e-12 * peak):
        raise ConfigError("spectrum has support above the Galerkin cutoff")
    ks = np.arange(-K, K + 1)
    return ks, s.coef[ks % grid.M]


def _galerkin_spectrum(grid, ks: np.ndarray, c: np.ndarray) -> Spectrum:
    full = np.zeros(grid.M, dtype=np.complex128)
    full[ks % grid.M] = c
    return Spectrum(grid, full)


def galerkin_rhs(s: Spectrum, cfg: EvolutionConfig, K: int) -> Spectrum:
    """Exact RHS of the Fourier-truncated equation on modes |k| <= K.

    The cubic term is the direct convolution
    ``sum_{k-l+m=n} c_k conj(c_l) c_m`` restricted to |k|,|l|,|m|,|n| <= K,
    summed as two exact 1-D convolutions in O(K^2) time and O(K) memory.
    """
    ks, c = _galerkin_band(s, K)
    xi = 2 * np.pi / s.grid.L * ks
    out = _galerkin_cubic(c, K, cfg.kappa) + 1j * cfg.linear_phase_rate(xi) * c
    return _galerkin_spectrum(s.grid, ks, out)


def _galerkin_cubic(coef: np.ndarray, K: int, kappa: int) -> np.ndarray:
    """-i kappa * truncated convolution of |u|^2 u on centered indices.

    conj(c_l) at index -l is conj(coef) reversed, so the sum over
    k - l + m = n is the lattice convolution of coef, conj(coef)[::-1] and
    coef, read at |n| <= K.
    """
    if kappa == 0:
        return np.zeros(2 * K + 1, dtype=np.complex128)
    full = cubic_convolution(coef, np.conj(coef[::-1]), coef)
    return -1j * kappa * full[2 * K:4 * K + 1]


def galerkin_evolve(s0: Spectrum, cfg: EvolutionConfig, K: int, t: float,
                    n_steps: int = 200) -> Spectrum:
    """Integrating-factor RK4 for the truncated ODE system.

    The linear rotation is applied exactly (an explicit treatment of the
    xi^4 phases would dissipate the top modes long before the RK4 step
    limit), so the only error is the RK4 error of the slow nonlinear part;
    ground truth for the derivative identities and increment experiments.
    """
    ks, c = _galerkin_band(s0, K)
    lam = 1j * cfg.linear_phase_rate(2 * np.pi / s0.grid.L * ks)
    dt = t / n_steps
    e_half = np.exp(lam * dt / 2)
    e_full = e_half * e_half

    def nl(coef):
        return _galerkin_cubic(coef, K, cfg.kappa)

    for _ in range(n_steps):
        c = _ifrk4(c, nl, e_half, e_full, dt)
    return _galerkin_spectrum(s0.grid, ks, c)


# ---------------------------------------------------------------------------
# export


def trajectory_to_csv(rec: TrajectoryRecord, path) -> None:
    orders = sorted(rec.sobolev)
    with open(path, "w") as fh:
        cols = ["t", "mass", "hamiltonian"] + [f"h{s:g}" for s in orders]
        fh.write(",".join(cols) + "\n")
        for i, t in enumerate(rec.times):
            row = [repr(float(t)), repr(float(rec.mass[i])), repr(float(rec.energy[i]))]
            row += [repr(float(rec.sobolev[s][i])) for s in orders]
            fh.write(",".join(row) + "\n")


def run_manifest(f0: Field, cfg: EvolutionConfig) -> dict:
    """Self-contained description of a run: config, grid, data hash."""
    h = hashlib.sha256(f0.values.tobytes()).hexdigest()
    d = {
        "grid": {"L": f0.grid.L, "M": f0.grid.M},
        "config": {
            "equation": cfg.equation,
            "orientation": cfg.orientation,
            "kappa": cfg.kappa,
            "dt": cfg.dt,
            "t_end": cfg.t_end,
            "scheme": cfg.scheme,
            "record_stride": cfg.record_stride,
        },
        "initial_data_sha256": h,
    }
    return json.loads(json.dumps(d))  # force plain JSON types
