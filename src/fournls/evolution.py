"""Time integrators for the quartic and cubic Schrodinger equations.

The canonical form integrated here is

    i u_t = orientation * P(d_x) u + kappa * |u|^2 u,

with ``P = d_x^4`` (quartic) or ``P = d_x^2`` (cubic).  In Fourier variables
the linear flow is exact: for the quartic equation coefficients rotate by
``exp(-i * orientation * xi^4 * t)``, for the cubic by
``exp(+i * orientation * xi^2 * t)``.  The nonlinear substep is the exact
phase rotation ``u -> u * exp(-i kappa |u|^2 dt)``, a real cos/sin rotation
into a reused buffer, which conserves |u| pointwise, so both splitting schemes
below conserve mass to round-off.

The default scheme ``"mclachlan2"`` is the symmetric second-order
composition ``L(a dt) N(dt/2) L((1 - 2a) dt) N(dt/2) L(a dt)`` with
``a = 0.1931833275037836``, the weight that minimises the leading error term
of such two-stage methods (R. I. McLachlan, SIAM J. Sci. Comput. 16 (1995)
151-168).  ``"strang"`` is ``L(dt/2) N(dt) L(dt/2)`` and ``"ifrk4"`` is
classical RK4 in the integrating-factor frame.

Every scheme advances plain arrays through one core, ``_stepper``, which
tabulates its multipliers once per run.  IFRK4's nonlinearity,
``_cubic_term``, zeroes the one FFT-order run of modes with ``|k| >
project_K`` when that is set; the split schemes reject ``project_K``.  The
Galerkin system on ``|k| <= K`` (``galerkin_evolve``, ``galerkin_rhs``) is IFRK4
with ``project_K = K`` on a grid with ``M > 4K``, where the cubic term's
aliases cannot reach those modes.  A step may advance its state array in
place (the split steps multiply, transform, rotate and transform back on it;
IFRK4 forms |u|^2 u and its transform in place on fresh arrays), so a caller
that keeps a state across a step must copy it.  The samples read from a
state, and so every recorded field, are fresh arrays.  The linear flow
alone, at any times, has one evaluator of its own, ``free_flow``, with the
stepper's phase rate; ``linear_propagate_4nls`` and every flow of the
dispersive estimates call it.

Every transform is ``spectral._fft`` or ``_ifft``, which skip ``np.fft``'s
per-call wrapper; ``_stepper`` reads them once per run.  Its spectral states
are raw FFT coefficients ``_fft(u)``, not the coefficients ``c_k`` of
:mod:`fournls.spectral`: the two differ by the centering phase ``(-1)^k``
and the factor ``1/M``, which are diagonal and constant, so they commute
with every linear substep, the mode projection and the RK4 combination, and
cancel between the transforms.  A step therefore costs only the transforms
its nonlinearity needs: 2 for ``"strang"``, 4 for ``"mclachlan2"`` and 8 for
``"ifrk4"``.  The split schemes merge the trailing linear substep of one step
with the next one's leading one, so a step is one pair per nonlinear substep.

The core runs on one shape: a family of B fields as a (B, M) stack, one
field as a stack of one.  Transforms act along the last axis.  The rows
share M, but each may have its own length L, carrier index k0 and step dt:
every multiplier is a (B, M) table with a row per field, and the step a
(B, 1) column.  Each row of a stack so does the arithmetic of a run on that
field alone, bitwise; ``evolve_many`` groups any family into such stacks.
A stack saves the per-call overhead of the transforms, which dominates at
the band grids' few hundred points.

A record point takes one forward transform per field: the energy, every
Sobolev norm and the run's spectral tail guard all read that one spectrum,
through weights tabulated once per run, bitwise equal to
``conserved_energy``, ``sobolev_norm`` and ``spectral_tail_fraction`` of the
recorded field.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import spectral
from .errors import (AbortedRunError, ConfigError, NumericDomainError, check_integer, check_real,
                     is_real)
from .spectral import (
    Field,
    Spectrum,
    _check_cutoff,
    _mass_fraction,
    _sobolev_weight,
    _support_radius,
    _tail_mask,
    _weighted_norm,
    check_resolved,
    make_grid,
    mass,
    to_spectrum,
)

__all__ = [
    "EvolutionConfig",
    "TrajectoryRecord",
    "linear_propagate_4nls",
    "free_flow",
    "ifrk4_step",
    "evolve",
    "evolve_many",
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
    # with project_K set, "ifrk4" truncates every nonlinear evaluation to
    # |k| <= project_K; on a grid with M > 4*project_K, where the cubic
    # aliases cannot reach the band, it integrates the Galerkin ODE system up
    # to its RK4 error.  The split schemes reject it: projected after their
    # exact pointwise nonlinear flow, they are only first order against that
    # system (McLachlan, M=64, K=4: error 6.1e-7 at 50 steps, 7.7e-8 at 400)
    project_K: Optional[int] = None

    def __post_init__(self):
        if self.equation not in ("quartic", "cubic"):
            raise ConfigError(f"unknown equation '{self.equation}'")
        if not (is_real(self.orientation) and self.orientation in (1, -1)):
            raise ConfigError(f"orientation must be +1 or -1, got {self.orientation!r}")
        if not (is_real(self.kappa) and self.kappa in (1, 0, -1)):
            raise ConfigError(f"kappa must be -1, 0 or +1, got {self.kappa!r}")
        if self.scheme not in ("mclachlan2", "strang", "ifrk4"):
            raise ConfigError(f"unknown scheme '{self.scheme}'")
        check_real("dt", self.dt, positive=True)
        if not (is_real(self.t_end) and self.t_end >= self.dt):
            raise ConfigError(f"t_end must be a finite number >= dt, got {self.t_end!r}")
        check_integer("record_stride", self.record_stride, 1)
        if self.project_K is not None:
            check_integer("project_K", self.project_K, 0)
            if self.scheme != "ifrk4":
                raise ConfigError(f"project_K needs the scheme 'ifrk4', not '{self.scheme}'")
        for s in self.sobolev_orders:
            check_real("a Sobolev order", s)

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


def free_flow(f: Field, times, cfg: EvolutionConfig, weight=1.0):
    """An iterator over the fields of coefficients ``weight * exp(i *
    cfg.linear_phase_rate(xi) * t) * c_k``, one per t in ``times``; the
    times are checked at the call, and the work starts at the first field.

    Each field is formed in an array of its own: cos/sin phases, the
    centering phase and one inverse transform in place.
    """
    if not all(is_real(t) for t in np.ravel(times)):
        raise ConfigError(f"flow times must be finite numbers, got {times!r}")
    return _flow(f, times, cfg, weight)


def _flow(f: Field, times, cfg: EvolutionConfig, weight):
    """The fields of ``free_flow``, streamed."""
    grid = f.grid
    coef = to_spectrum(f).coef * weight
    rate = cfg.linear_phase_rate(grid.xi)
    centering = grid._centering_phase
    for t in np.asarray(times, dtype=np.float64):
        u = np.empty(grid.M, dtype=np.complex128)
        np.multiply(t, rate, out=u.imag)  # the phases, then cos/sin of them
        np.cos(u.imag, out=u.real)
        np.sin(u.imag, out=u.imag)
        np.multiply(coef, u, out=u)  # the operand order of coef * phases
        u *= centering
        spectral._ifft(u, out=u)
        u *= grid.M
        yield Field(grid, u)


def linear_propagate_4nls(f: Field, t: float, orientation: int = 1) -> Field:
    """Multiply mode xi by exp(i * orientation * t * xi^4).

    This is the flow of ``EvolutionConfig(orientation=-orientation)``: the
    stepper's quartic equation with the opposite sign.
    """
    cfg = EvolutionConfig(orientation=-orientation)
    return f.copy() if t == 0 else next(free_flow(f, [t], cfg))


def _rotate(u: np.ndarray, theta, buf: np.ndarray, phase: np.ndarray) -> np.ndarray:
    # u <- u e^{i theta |u|^2} in place via the complex scratch ``buf`` and the
    # float64 scratch ``phase``; exact flow at theta = -kappa t, a (B, 1)
    # column of per-row values
    np.square(u.real, out=phase)
    np.square(u.imag, out=buf.imag)
    np.add(phase, buf.imag, out=phase)
    np.multiply(theta, phase, out=phase)
    np.cos(phase, out=buf.real)
    np.sin(phase, out=buf.imag)
    u *= buf
    return u


def _cubic_term(w: np.ndarray, gain, K) -> np.ndarray:
    """IFRK4's nonlinearity ``gain * fft(|u|^2 u)``, ``u = ifft(w)``, with
    ``gain = -i kappa``, as a fresh array in that operand order (a complex
    product is not bitwise commutative), zeroed at |k| > K unless K is None:
    the FFT-order run k = K+1 .. M/2-1, -M/2 .. -(K+1), empty for K >= M/2."""
    u = spectral._ifft(w)
    np.multiply(u.real**2 + u.imag**2, u, out=u)
    spectral._fft(u, out=u)
    np.multiply(gain, u, out=u)
    if K is not None:
        u[..., K + 1:u.shape[-1] - K] = 0.0
    return u


def _ifrk4(c: np.ndarray, nl, e_half: np.ndarray, e_full: np.ndarray, dt) -> np.ndarray:
    """One classical RK4 step of c' = nl(c) in the integrating-factor frame:

        k1 = nl(c), k2 = nl(e_half (c + dt/2 k1)), k3 = nl(e_half c + dt/2 k2),
        k4 = nl(e_full c + dt e_half k3),
        c <- e_full c + dt/6 (e_full k1 + 2 e_half (k2 + k3) + k4).

    ``dt`` is a (B, 1) column of per-row steps.  The stage sums are formed
    in place, in two scratch arrays and in the ``k`` arrays, which ``nl``
    returns fresh; each product keeps the operand order written above (a
    complex product is not bitwise commutative).  ``c`` is left as it is.
    The plain formula gives the same bits but took gwp-imethod's median round
    0.269 -> 0.276 s, slower in 37 of 60 alternating rounds (one process).
    """
    h = dt / 2
    k1 = nl(c)
    x = np.multiply(h, k1)
    np.add(c, x, out=x)
    k2 = nl(np.multiply(e_half, x, out=x))
    y = np.multiply(e_half, c)
    np.multiply(h, k2, out=x)
    k3 = nl(np.add(y, x, out=x))
    np.multiply(e_full, c, out=y)  # e_full c, read twice
    np.multiply(dt, e_half, out=x)
    np.multiply(x, k3, out=x)
    k4 = nl(np.add(y, x, out=x))
    np.add(k2, k3, out=k2)
    np.multiply(2, e_half, out=x)
    np.multiply(x, k2, out=k2)
    np.multiply(e_full, k1, out=k1)
    np.add(k1, k2, out=k1)
    np.add(k1, k4, out=k1)
    np.multiply(dt / 6, k1, out=k1)
    return np.add(y, k1, out=k1)


def _stepper(grids: list, cfgs: list):
    """``(start, step, values)`` of a scheme on (B, M) stacks, on plain arrays.

    ``grids`` and ``cfgs`` hold one grid and one config per row; the rows
    must share M and every setting but ``dt`` and ``t_end`` (``evolve_many``
    groups them so).  ``start`` maps a (B, M) stack of samples to the
    scheme's state, ``step`` advances a state by each row's ``dt`` and
    ``values`` returns the samples of a state that has taken at least one
    step, as a fresh (B, M) array.  Spectral states hold raw FFT
    coefficients (module docstring); every multiplier is tabulated here,
    once, as a (B, M) table, and the step as a (B, 1) column.  A split step
    overwrites its state's array in place.
    """
    cfg = cfgs[0]
    dt = np.array([[c.dt] for c in cfgs])
    lam = 1j * cfg.linear_phase_rate(np.stack([g.xi for g in grids]))
    fft, ifft = spectral._fft, spectral._ifft  # looked up per run: a patched pair is seen

    if cfg.scheme == "ifrk4":
        half = np.exp(lam * dt / 2)
        full = half * half
        gain = -1j * cfg.kappa

        def nl(w):
            return _cubic_term(w, gain, cfg.project_K)

        return fft, (lambda w: _ifrk4(w, nl, half, full, dt)), ifft

    # split steps L(a) N(1/stages) [L(1-2a) N(1/stages)] L(a): Strang is
    # the one-stage case a = 1/2, McLachlan the two-stage one.  The state
    # (w, lead) is taken just after a nonlinear substep and still owes
    # the trailing L(a dt); that is merged with the next step's leading
    # L(a dt) into one L(2a dt), and applied on its own only when samples
    # are read, so a step costs one transform pair per stage.  Each stage
    # multiplies, transforms, rotates and transforms back in place on w,
    # with the scratch arrays ``buf`` (complex) and ``phase`` (float64),
    # allocated by ``start`` with the state's shape, once per run
    a, stages = (0.5, 1) if cfg.scheme == "strang" else (MCLACHLAN_A, 2)
    edge, merged, middle = (np.exp(lam * frac * dt) for frac in (a, 2 * a, 1 - 2 * a))
    theta = -dt * cfg.kappa / stages
    buf = phase = None

    def start(u):
        nonlocal buf, phase
        buf = np.empty(u.shape, dtype=np.complex128)
        phase = np.empty(u.shape, dtype=np.float64)
        return fft(u), edge

    def stage(w, linear):
        np.multiply(w, linear, out=w)
        ifft(w, out=w)
        _rotate(w, theta, buf, phase)
        fft(w, out=w)

    def step(state):
        w, lead = state
        stage(w, lead)
        for _ in range(stages - 1):
            stage(w, middle)
        return w, merged

    return start, step, (lambda s: ifft(s[0] * edge))


def ifrk4_step(f: Field, cfg: EvolutionConfig) -> Field:
    """Classical RK4 in the rotating Fourier frame (integrating factor)."""
    start, step, values = _stepper([f.grid], [replace(cfg, scheme="ifrk4")])
    return Field(f.grid, values(step(start(f.values[None])))[0])


def conserved_energy(f: Field, cfg: EvolutionConfig) -> float:
    """The energy functional conserved by the configured equation; the
    package's one energy functional, also the one every trajectory records.

    Quartic: orientation/2 * int |u_xx|^2 + kappa/4 * int |u|^4.
    Cubic:   orientation/2 * int |u_x|^2  + kappa/4 * int |u|^4.
    The kinetic part is summed by Plancherel and the quartic part by grid
    quadrature; kappa = 0 leaves the kinetic part alone.
    """
    return _energy(cfg, f, np.abs(f.grid.xi) ** (2 * _energy_order(cfg)),
                   np.abs(to_spectrum(f).coef) ** 2)


def _energy_order(cfg: EvolutionConfig) -> int:
    return 2 if cfg.equation == "quartic" else 1


def _energy(cfg: EvolutionConfig, f: Field, weight: np.ndarray, power: np.ndarray) -> float:
    """``conserved_energy`` of ``f`` from the weight |xi|^(2 order) and its power |c_k|^2."""
    kinetic = 0.5 * f.grid.L * np.sum(weight * power)
    quartic = f.grid.dx * np.sum(np.abs(f.values) ** 4)
    return float(cfg.orientation * kinetic + cfg.kappa / 4 * quartic)


class _Trajectory:
    """The diagnostics of one run's field, appended at each record point,
    with the spectral weights of the energy, the norms and the tail tabulated."""

    def __init__(self, grid, cfg: EvolutionConfig):
        self.grid, self.cfg = grid, cfg
        self.times, self.masses, self.energies = [], [], []
        self.sob = {s: [] for s in cfg.sobolev_orders}
        self.fields = [] if cfg.record_fields else None
        self.kinetic_weight = np.abs(grid.xi) ** (2 * _energy_order(cfg))
        self.sobolev_weights = {s: _sobolev_weight(grid.xi, s) for s in cfg.sobolev_orders}
        self.tail_mask = _tail_mask(grid)

    def record(self, t: float, u_phys: np.ndarray) -> float:
        """Append the diagnostics of the samples ``u_phys`` at time ``t``;
        return their spectral tail fraction, inf for non-finite samples,
        which are not recorded."""
        try:
            f = Field(self.grid, u_phys)
        except NumericDomainError:
            return np.inf
        power = np.abs(to_spectrum(f).coef) ** 2
        self.times.append(t)
        self.masses.append(mass(f))
        self.energies.append(_energy(self.cfg, f, self.kinetic_weight, power))
        for s, weight in self.sobolev_weights.items():
            self.sob[s].append(_weighted_norm(self.grid.L, weight, power))
        if self.fields is not None:
            self.fields.append(f.copy())
        return _mass_fraction(power, self.tail_mask)

    def result(self, aborted: bool = False) -> TrajectoryRecord:
        return TrajectoryRecord(
            times=np.array(self.times),
            mass=np.array(self.masses),
            energy=np.array(self.energies),
            sobolev={s: np.array(v) for s, v in self.sob.items()},
            fields=self.fields,
            config=self.cfg,
            aborted=aborted,
        )


def evolve(f0: Field, cfg: EvolutionConfig) -> TrajectoryRecord:
    """March ``f0`` to ``t_end``, recording diagnostics every record_stride steps.

    The start is guarded by the resolution check (spectral tail, and the
    boundary tail when ``require_localized``); at every record point the
    spectral tail is re-checked and a blow-up past ``run_tail_tol`` raises
    :class:`AbortedRunError` carrying the partial record.
    """
    return evolve_many([f0], cfg)[0]


def evolve_many(fields, cfg) -> list[TrajectoryRecord]:
    """``[evolve(f, c) for f, c in zip(fields, cfgs)]``, with the members
    grouped into stacks, each a (B, M) array stepped together.

    ``cfg`` is one :class:`EvolutionConfig` for every field, or a list with
    one per field.  Members share a stack when they have equal M and step
    counts and configs equal but for ``dt`` and ``t_end``; L and k0 may
    differ.  The stacks run one after another, and the records come back in
    input order, each bitwise equal to that of ``evolve`` on the member
    alone.  Each member keeps its own start guard, all read before the first
    step, its own record and its own run tail guard; a member that trips it
    raises :class:`AbortedRunError` naming its index in the family and
    carrying its partial record.
    """
    fields = list(fields)
    if not fields:
        raise ConfigError("evolve_many needs at least one field")
    cfgs = list(cfg) if isinstance(cfg, (list, tuple)) else [cfg] * len(fields)
    if len(cfgs) != len(fields):
        raise ConfigError(f"{len(cfgs)} configs for {len(fields)} fields")
    keys, stacks = [], []  # the (M, steps, settings) of each stack, and its members
    for i, (f, c) in enumerate(zip(fields, cfgs)):
        check_resolved(f, tol=c.start_tail_tol, localized=c.require_localized)
        key = (f.grid.M, _n_steps(c), replace(c, dt=cfgs[0].dt, t_end=cfgs[0].t_end))
        if key not in keys:
            keys.append(key)
            stacks.append([])
        stacks[keys.index(key)].append(i)

    runs = [_Trajectory(f.grid, c) for f, c in zip(fields, cfgs)]
    for run, f in zip(runs, fields):
        run.record(0.0, f.values)
    for (_, n_steps, shared), members in zip(keys, stacks):
        start, step, values = _stepper([fields[i].grid for i in members],
                                       [cfgs[i] for i in members])
        state = start(np.stack([fields[i].values for i in members]))
        with np.errstate(over="ignore", invalid="ignore"):  # a blow-up trips the tail guard
            for n in range(1, n_steps + 1):
                state = step(state)
                if n % shared.record_stride == 0 or n == n_steps:
                    for i, u in zip(members, values(state)):
                        run = runs[i]
                        tail = run.record(n * run.cfg.dt, u)
                        if tail > shared.run_tail_tol:
                            member = f" in field {i} of {len(fields)}" if len(fields) > 1 else ""
                            raise AbortedRunError(
                                f"spectral tail blow-up{member} at t={n * run.cfg.dt:g}: "
                                f"{tail:.3e} > {shared.run_tail_tol:.1e}",
                                record=run.result(aborted=True),
                            )
    return [run.result() for run in runs]


def _n_steps(cfg: EvolutionConfig) -> int:
    """The number of steps of ``cfg.dt`` in ``cfg.t_end``; :class:`ConfigError`
    unless that is a whole number."""
    n_steps = int(round(cfg.t_end / cfg.dt))
    if abs(n_steps * cfg.dt - cfg.t_end) > 1e-9 * cfg.t_end:
        raise ConfigError("t_end must be an integer number of steps")
    return n_steps


# ---------------------------------------------------------------------------
# the Galerkin system on |k| <= K, on the stepper's IFRK4


def _galerkin_run(s: Spectrum, K):
    """``(grid, w, finish)``: the modes k = -K..K of ``s`` as a raw-FFT state
    ``w = M (-1)^k c_k`` of ``_stepper`` on ``grid``, and ``finish``, which reads
    such a state back as a spectrum on ``s.grid`` that is zero above K.

    ``grid`` has the L and k0 of ``s.grid`` and the smallest power of two
    above 4K as its M: the cubic term's aliases cannot reach |k| <= K, the
    factor M is exact, and a wide ``s.grid`` costs no larger transforms.
    """
    _check_cutoff(s.grid, K)
    if _support_radius(s) > K:
        raise ConfigError(f"spectrum has support above the Galerkin cutoff K={K}")
    grid = make_grid(s.grid.L, 2 ** int(4 * K).bit_length(), s.grid.k0)
    ks = np.arange(-K, K + 1)
    scale = grid.M * grid._centering_phase[ks]
    w = np.zeros(grid.M, dtype=np.complex128)
    w[ks] = s.coef[ks] * scale

    def finish(v):
        coef = np.zeros(s.grid.M, dtype=np.complex128)
        coef[ks] = v[ks] / scale
        return Spectrum(s.grid, coef)

    return grid, w, finish


def galerkin_rhs(s: Spectrum, cfg: EvolutionConfig, K: int) -> Spectrum:
    """RHS of the Fourier-truncated equation on modes |k| <= K: the linear
    symbol plus IFRK4's cubic term with ``project_K = K`` on the grid of
    ``_galerkin_run``, where it is the convolution ``-i kappa sum_{k-l+m=n}
    c_k conj(c_l) c_m`` over |k|,|l|,|m|,|n| <= K.  On a band grid the modes
    are k0 + k: only the linear symbol reads k0, since the cubic sum is
    invariant under a common index shift.
    """
    grid, w, finish = _galerkin_run(s, K)
    return finish(1j * cfg.linear_phase_rate(grid.xi) * w + _cubic_term(w, -1j * cfg.kappa, K))


def galerkin_evolve(s0: Spectrum, cfg: EvolutionConfig, K: int, t: float,
                    n_steps: int = 200) -> Spectrum:
    """``n_steps`` steps of the stepper's IFRK4 with ``project_K = K`` over time
    t: the Galerkin system on |k| <= K, with no transform at the start or end.

    The linear rotation is exact (an explicit treatment of the xi^4 phases
    would dissipate the top modes long before the RK4 step limit), so the
    only error is the RK4 error of the slow nonlinear part.  A negative t
    runs forward with ``orientation`` and ``kappa`` negated: the same IEEE
    arithmetic as a step of t / n_steps, which ``EvolutionConfig`` rejects.
    """
    check_integer("n_steps", n_steps, 1)
    check_real("t", t)
    if t == 0:
        raise ConfigError(f"t must be a nonzero finite number, got {t!r}")
    grid, w, finish = _galerkin_run(s0, K)
    sign = 1 if t > 0 else -1
    dt = abs(t) / n_steps
    _, step, _ = _stepper([grid], [replace(cfg, orientation=sign * cfg.orientation,
                                           kappa=sign * cfg.kappa, scheme="ifrk4", dt=dt,
                                           t_end=dt, project_K=K)])
    w = w[None]
    for _ in range(n_steps):
        w = step(w)
    return finish(w[0])


# ---------------------------------------------------------------------------
# export


def _write_csv(path, header: list, rows: list) -> None:
    """Write ``rows`` under ``header``; numbers as ``repr(float)``, anything else as ``str``."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) if isinstance(v, (int, float, np.floating))
                              else str(v) for v in row) + "\n")


def trajectory_to_csv(rec: TrajectoryRecord, path) -> None:
    orders = sorted(rec.sobolev)
    _write_csv(path, ["t", "mass", "hamiltonian"] + [f"h{s:g}" for s in orders],
               [(t, rec.mass[i], rec.energy[i], *(rec.sobolev[s][i] for s in orders))
                for i, t in enumerate(rec.times)])


def run_manifest(f0: Field, cfg: EvolutionConfig) -> dict:
    """Self-contained description of a run: config, grid, data hash."""
    h = hashlib.sha256(f0.values.tobytes()).hexdigest()
    grid = {"L": f0.grid.L, "M": f0.grid.M}
    if f0.grid.k0:  # a band grid; k0 = 0 manifests keep their old form
        grid["k0"] = f0.grid.k0
    d = {
        "grid": grid,
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
