"""Periodic grid, Fourier transforms, multipliers, norms and canonical data.

Conventions, fixed once and inherited by every other module:

* sample points ``x_j = -L/2 + j*dx`` with ``dx = L/M``,
* frequencies ``xi_k = 2*pi*(k + k0)/L`` for integer ``k in [-M/2, M/2)``,
  stored in FFT order, with an integer carrier index ``k0`` (default 0),
* coefficients ``c_k = (1/M) sum_j u(x_j) exp(-i xi_k x_j)`` so that
  ``u(x_j) = sum_k c_k exp(i xi_k x_j)``,
* a field on a grid with ``k0 != 0`` holds the samples of
  ``exp(-i xi_{k0} x) u``, where ``xi_{k0} = 2*pi*k0/L``: a band of M modes
  around mode k0 of the period-L lattice, shifted to the local indices k.
  Transforms act on the local indices, so only the frequencies move;
  norms, multipliers and ``evolve`` read the true frequencies ``xi_k``,
  bitwise equal to those of a grid with ``k0 = 0`` at mode ``k + k0``,
* Parseval: ``sum_j |u(x_j)|^2 dx = L sum_k |c_k|^2``.

All physical-space integrals are the rectangle rule ``dx * sum``, spectrally
accurate for periodic band-limited data; ``mass`` is the one L^2 quadrature.

``_fft`` and ``_ifft`` are every module's transform pair.  They call
pocketfft's ufuncs with the factors ``np.fft`` passes, so their bits are
``np.fft``'s, but skip its per-call wrapper, which costs about as much as a
transform at the 512 points of the I-method's and band grids' step loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.fft import _pocketfft_umath as _pfu

from .errors import (ConfigError, NumericDomainError, ResolutionError, check_integer, check_real,
                     is_real)

__all__ = [
    "Grid",
    "Field",
    "Spectrum",
    "make_grid",
    "mass",
    "to_spectrum",
    "to_physical",
    "apply_symbol",
    "cubic_convolution",
    "fractional_derivative",
    "sobolev_norm",
    "lebesgue_norm",
    "make_gaussian",
    "spectral_tail_fraction",
    "boundary_tail_fraction",
    "check_resolved",
]


@dataclass(frozen=True)
class Grid:
    """Periodic spatial grid on ``[-L/2, L/2)`` with ``M`` points.

    ``k0`` is the carrier index of a band grid (module docstring).
    Immutable; safe to share between threads and reuse across fields.  The
    lattice arrays ``x``, ``k``, ``xi`` and the centering phase are computed
    on first use, kept for the grid's lifetime and read-only (writing to one
    raises ``ValueError``); equality and hashing see only (L, M, k0).  Build
    one with :func:`make_grid`, which checks the arguments.
    """

    L: float
    M: int
    k0: int = 0

    @property
    def dx(self) -> float:
        return self.L / self.M

    @cached_property
    def x(self) -> np.ndarray:
        return _read_only(-self.L / 2 + self.dx * np.arange(self.M))

    @cached_property
    def k(self) -> np.ndarray:
        """Integer mode indices in FFT order: 0, 1, ..., M/2-1, -M/2, ..., -1."""
        return _read_only(np.fft.fftfreq(self.M, d=1.0 / self.M).astype(np.int64))

    @cached_property
    def xi(self) -> np.ndarray:
        """Angular frequencies 2*pi*(k + k0)/L in FFT order."""
        return _read_only(2.0 * np.pi / self.L * (self.k + self.k0))

    @property
    def xi_max(self) -> float:
        """Largest represented |xi - xi_{k0}| (the Nyquist frequency pi*M/L)."""
        return np.pi * self.M / self.L

    @cached_property
    def _centering_phase(self) -> np.ndarray:
        # exp(-i xi_k x_0) with x_0 = -L/2 equals (-1)^k exactly.
        return _read_only(np.where(self.k % 2 == 0, 1.0, -1.0))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass
class Field:
    """Complex-valued state sampled on a grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.complex128)
        if self.values.shape != (self.grid.M,):
            raise ConfigError(
                f"sample count {self.values.shape} does not match grid M={self.grid.M}"
            )
        if not np.all(np.isfinite(self.values.view(np.float64))):
            raise NumericDomainError("field contains non-finite samples")

    def copy(self) -> "Field":
        return Field(self.grid, self.values.copy())


@dataclass
class Spectrum:
    """Fourier coefficients of a field, indexed by frequency in FFT order."""

    grid: Grid
    coef: np.ndarray

    def __post_init__(self):
        self.coef = np.ascontiguousarray(self.coef, dtype=np.complex128)
        if self.coef.shape != (self.grid.M,):
            raise ConfigError(
                f"coefficient count {self.coef.shape} does not match grid M={self.grid.M}"
            )


def _check_cutoff(grid: Grid, K) -> None:
    """:class:`ConfigError` unless the mode cutoff K is an integer, 1 <= K <= M/2 - 1."""
    check_integer("mode cutoff K", K, 1)
    if K > grid.M // 2 - 1:
        raise ConfigError(f"mode cutoff K={K} needs K <= M/2 - 1 on a grid of M={grid.M}")


def _support_radius(s: Spectrum) -> int:
    """The largest local |k| with |c_k| above 1e-13 of the peak; 0 for a zero spectrum."""
    mags = np.abs(s.coef)
    return int(np.max(np.abs(s.grid.k[mags > 1e-13 * np.max(mags)]), initial=0))


def make_grid(L: float, M: int, k0: int = 0) -> Grid:
    """Build a periodic grid of length ``L`` with ``M`` (even, >= 8) modes,
    centred on the carrier index ``k0``."""
    # checked before float() and int(), which would read True, "40" or 256.9
    check_real("domain length L", L, positive=True)
    check_integer("mode count M", M, 8)
    check_integer("carrier index k0", k0)
    if M % 2 != 0:
        raise ConfigError(f"mode count must be even, got M={M}")
    return Grid(float(L), int(M), int(k0))


def mass(f: Field) -> float:
    """int |u|^2 dx by grid quadrature."""
    return float(f.grid.dx * np.sum(np.abs(f.values) ** 2))


def _fft(a: np.ndarray, out=None) -> np.ndarray:
    """``np.fft.fft`` along the last axis, bitwise, into ``out`` or a fresh complex128 array."""
    return _pfu.fft(a, 1.0, out=np.empty(a.shape, complex) if out is None else out)


def _ifft(a: np.ndarray, out=None) -> np.ndarray:
    """``_fft``'s inverse, bitwise ``np.fft.ifft``: its factor is the float64 1/M."""
    return _pfu.ifft(a, 1 / a.shape[-1], out=np.empty(a.shape, complex) if out is None else out)


def to_spectrum(f: Field) -> Spectrum:
    phase = f.grid._centering_phase
    return Spectrum(f.grid, _fft(f.values) * phase / f.grid.M)


def to_physical(s: Spectrum) -> Field:
    phase = s.grid._centering_phase
    return Field(s.grid, _ifft(s.coef * phase) * s.grid.M)


def apply_symbol(s: Spectrum, values: np.ndarray) -> Spectrum:
    """Multiply each coefficient by a multiplier tabulated on the grid, its value
    at ``s.grid.xi[j]`` in ``values[j]``; a real table is cast to complex first."""
    vals = np.asarray(values, dtype=np.complex128)
    if not np.all(np.isfinite(vals.view(np.float64))):
        raise NumericDomainError("multiplier is non-finite on the grid")
    return Spectrum(s.grid, s.coef * vals)


def cubic_convolution(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Exact lattice convolution ``x * y * z`` of centred coefficient arrays.

    Each input of length 2K+1 holds indices k = -K..K; the output, of length
    6K+1, holds n = -3K..3K with entry ``sum_{k+l+m=n} x_k y_l z_m``.  The
    sums are direct (``np.convolve``), so there is no aliasing and no
    (2K+1)^3 temporary.
    """
    return np.convolve(np.convolve(x, y), z)


def fractional_derivative(f: Field, alpha: float) -> Field:
    """Apply |xi|^alpha.  alpha = 0 is the identity; constants map to zero for alpha > 0."""
    check_real("derivative order alpha", alpha)
    if alpha < 0:
        raise ConfigError("negative-order derivatives are not supported")
    if alpha == 0:
        return f.copy()
    return to_physical(apply_symbol(to_spectrum(f), np.abs(f.grid.xi) ** alpha))


def sobolev_norm(f: Field, s: float, homogeneous: bool = False) -> float:
    """H^s norm ``(L sum <xi>^{2s} |c_k|^2)^{1/2}`` with ``<xi>^2 = 1 + xi^2``.

    With ``homogeneous=True`` the weight is ``|xi|^{2s}`` and the zero mode
    is excluded (its weight is zero for s > 0 and undefined for s < 0; on
    mean-free data the exclusion is exact).
    """
    check_real("Sobolev order s", s)
    power = np.abs(to_spectrum(f).coef) ** 2
    return _weighted_norm(f.grid.L, _sobolev_weight(f.grid.xi, s, homogeneous), power)


def _sobolev_weight(xi: np.ndarray, s: float, homogeneous: bool = False) -> np.ndarray:
    """The weight of ``sobolev_norm`` at the frequencies ``xi``."""
    if homogeneous:
        w = np.zeros_like(xi)
        nz = xi != 0
        w[nz] = np.abs(xi[nz]) ** (2.0 * s)
        return w
    return (1.0 + xi**2) ** s


def _weighted_norm(L: float, weight: np.ndarray, power: np.ndarray) -> float:
    """``(L sum weight |c_k|^2)^{1/2}`` from the spectral power ``|c_k|^2``."""
    return float(np.sqrt(L * np.sum(weight * power)))


def lebesgue_norm(f: Field, p: float) -> float:
    """L^p norm by grid quadrature; ``p = inf`` returns the max modulus."""
    if p == np.inf:
        return float(np.max(np.abs(f.values)))
    if not (is_real(p) and p >= 1):
        raise ConfigError(f"Lebesgue exponent must be inf or a finite number >= 1, got p={p!r}")
    return float((f.grid.dx * np.sum(np.abs(f.values) ** p)) ** (1.0 / p))


def make_gaussian(
    grid: Grid,
    amplitude: complex = 1.0,
    width: float = 1.0,
    carrier: float = 0.0,
    center: float = 0.0,
) -> Field:
    """Modulated Gaussian ``A exp(i k0 x) exp(-((x - x0)/w)^2)``.

    Fails with :class:`ResolutionError` when the carrier or width leaves
    spectral mass at the Nyquist mode above 1e-12 of the peak coefficient.
    """
    parts = ((amplitude.real, amplitude.imag) if isinstance(amplitude, (complex, np.complexfloating))
             else (amplitude,))
    if not all(is_real(v) for v in parts):
        raise ConfigError(f"gaussian amplitude must be a finite number, got {amplitude!r}")
    check_real("gaussian width", width, positive=True)
    check_real("gaussian carrier", carrier)
    check_real("gaussian center", center)
    if abs(carrier) >= grid.xi_max:
        raise ConfigError(
            f"carrier {carrier} is at or above the Nyquist frequency {grid.xi_max}"
        )
    x = grid.x
    f = Field(
        grid,
        amplitude * np.exp(1j * carrier * x) * np.exp(-(((x - center) / width) ** 2)),
    )
    spec = to_spectrum(f)
    k = grid.k
    nyq_zone = np.abs(k) >= grid.M // 2 - 1
    tail = np.max(np.abs(spec.coef[nyq_zone]))
    peak = np.max(np.abs(spec.coef))
    if tail > 1e-12 * peak:
        raise ResolutionError(
            f"gaussian under-resolved: Nyquist coefficient {tail:.3e} "
            f"exceeds 1e-12 of peak {peak:.3e}"
        )
    return f


def spectral_tail_fraction(f: Field) -> float:
    """Fraction of spectral mass in the top octave |k| >= M/4 of the local index.

    The octave is |xi - xi_{k0}| >= xi_max/2, evaluated with the operations
    of ``Grid.xi`` at k0 = 0: rounding decides the boundary mode k = M/4
    (on about 4 % of random (L, M)), so a k0 = 0 grid keeps its old mask.
    """
    return _mass_fraction(np.abs(to_spectrum(f).coef) ** 2, _tail_mask(f.grid))


def _tail_mask(grid: Grid) -> np.ndarray:
    """The modes of the top octave read by ``spectral_tail_fraction``."""
    return np.abs(2.0 * np.pi / grid.L * grid.k) >= grid.xi_max / 2


def boundary_tail_fraction(f: Field) -> float:
    """Fraction of mass within L/16 of either domain edge."""
    return _mass_fraction(np.abs(f.values) ** 2, _edge_mask(f.grid))


def _edge_mask(grid: Grid) -> np.ndarray:
    """The samples within L/16 of either domain edge."""
    return np.abs(grid.x) >= grid.L / 2 - grid.L / 16


def _mass_fraction(power: np.ndarray, mask: np.ndarray) -> float:
    """The share of ``power`` (|u|^2 samples or |c_k|^2) on ``mask``; 0 for u = 0."""
    total = np.sum(power)
    if total == 0:
        return 0.0
    return float(np.sum(power[mask]) / total)


def check_resolved(f: Field, tol: float = 1e-8, localized: bool = True) -> dict:
    """Guard used by experiments before trusting a periodic surrogate.

    Returns the measured tail fractions; raises :class:`ResolutionError`
    when the spectral tail (or, for localized data, the boundary tail)
    exceeds ``tol`` of the total mass.
    """
    spectral = spectral_tail_fraction(f)
    boundary = boundary_tail_fraction(f)
    report = {"spectral_tail": spectral, "boundary_tail": boundary}
    if spectral > tol:
        raise ResolutionError(f"spectral tail {spectral:.3e} exceeds {tol:.1e}")
    if localized and boundary > tol:
        raise ResolutionError(f"boundary tail {boundary:.3e} exceeds {tol:.1e}")
    return report
