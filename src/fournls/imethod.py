"""Smoothing multiplier, modified energies and multilinear forms.

The multiplier ``m`` equals 1 below the threshold N, follows the power law
``(|xi|/N)^s`` above 2N, and is joined in between by a monotone C^1 cubic in
log|xi|.  The operator ``I`` multiplies spectra by ``m``; the modified
masses are

    E2 = ||I u||_{L^2}^2,
    E4 = E2 + Re Lambda4(sigma4),

where ``Lambda_n`` is the multilinear form over the zero-sum frequency
hyperplane with the alternating-conjugate slot pattern and ``sigma4`` is the
correction multiplier that cancels the leading quadrilinear increment of E2.

Sign bookkeeping (verified by the derivative-identity tests): along
``i u_t = u_xxxx + g |u|^2 u``,

    d/dt E2 = Re( i g Lambda4(M4) ),
    d/dt E4 = Re( i (g - 1) Lambda4(M4) ) + 4 g Re( Lambda6(M6) ),

with M4 = (m^2(xi1) - m^2(xi2) + m^2(xi3) - m^2(xi4)) / 2,
sigma4 = M4 / (xi1^4 - xi2^4 + xi3^4 - xi4^4)  (real-valued), and
M6 = i sigma4(xi1, xi2, xi3, xi4+xi5+xi6).  The correction term cancels the
quadrilinear increment exactly for g = +1, the normalization adopted here.

The lattice.  Every form sums over the truncation |k| <= K of one
:class:`ModeSet`, its one owner: the forms take L, the index wrap and their
fields' coefficients from its grid and refuse a field on any other.  The
cutoff rule and the support reader it shares with the Galerkin runs are
written once, in :mod:`fournls.spectral`.

Evaluation.  Lambda4(sigma4) and Lambda4(M4) are not summed symbol by
symbol: each reads one table of m^2 on the lattice.  One walk of the
hyperplane, ``_walk_planes`` (the planes k1 + k2 = a, one BLAS matrix
product each), serves Lambda4(sigma4), Lambda6(M6) and the generic Lambda4;
it is the one summation path of ``lambda_n``, which takes four fields with
a four-slot symbol, or six under :class:`SumLastThree`:

* Lambda4(sigma4).  With W = u(xi1) conj(u(-xi2)) u(xi3) conj(u(-xi4)) and
  the N-free weight alpha4 = (xi1+xi2)(xi1+xi4) Q of the factorized
  resonance phase, the relabellings xi1 <-> xi3 and xi2 <-> xi4 fix W and
  alpha4, so

      Lambda4(sigma4) = L sum_k (m^2(xi_k) - 1) (R1(k) - R2(k)),

  where R1(k), R2(k) sum W / alpha4 over the hyperplane points with k1 = k,
  resp. k2 = k (terms with alpha4 = 0 dropped, as sigma4 := 0 drops them).
  The marginals R1 - R2 are computed once per snapshot, and each threshold
  N then costs one dot product with the tabulated m^2 - 1.
* Lambda4(M4).  M4 has unit weight, so the same relabellings leave two
  exact lattice convolutions (``cubic_convolution``) and no walk: with
  a_k = u(xi_k) on |k| <= K and b = conj(a[::-1]),

      Lambda4(M4) = L sum_k (m^2(xi_k) - 1) (a_k (b*a*b)(-k) - b_k (a*a*b)(-k)).

* Lambda6(M6).  M6 sees xi4, xi5, xi6 only through their sum, so with the
  exact lattice convolution V = conj(u(-.)) * u * conj(u(-.)) (|k'| <= 3K),

      Lambda6(M6) = L sum_{k1,k2,k3} M6 u(xi1) conj(u(-xi2)) u(xi3) V(-(k1+k2+k3)),

  a sum of (2K+1)^3 terms in place of (2K+1)^5 (:class:`SumLastThree`).
  M6 is evaluated once per plane, in one ``lambda_n`` call per identity
  check as the benchmark's tracer counts it; an m^2 table would also need
  the walk's k4-marginal, since V breaks the xi2 <-> xi4 relabelling.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import (ConfigError, InconclusiveFitError, NumericDomainError, TermBudgetError,
                     check_real, is_real)
from .evolution import EvolutionConfig, evolve_many, galerkin_evolve
from .fitting import FitResult, fit_loglog
from .spectral import (
    Field,
    Grid,
    Spectrum,
    _check_cutoff,
    _support_radius,
    apply_symbol,
    cubic_convolution,
    mass,
    to_physical,
    to_spectrum,
)

__all__ = [
    "IMethodParams",
    "ModeSet",
    "MultilinearResult",
    "SumLastThree",
    "i_multiplier",
    "apply_I",
    "energy2",
    "symbol_m4",
    "symbol_sigma4",
    "symbol_m6",
    "lambda_n",
    "energy4",
    "derivative_identity_check",
    "IdentityCheck",
    "fit_m6_constant",
    "m6_constant_from_checks",
    "almost_conservation_experiment",
    "AlmostConservationResult",
    "gwp_parameters",
    "GwpParameters",
]

TERM_BUDGET = int(1e8)


@dataclass(frozen=True)
class IMethodParams:
    """Threshold N and target regularity s <= 0; m is log-cubic (C^1) on the
    junction N < |xi| < 2N."""

    N: float
    s: float = -0.5

    def __post_init__(self):
        if not (is_real(self.N) and self.N >= 1):
            raise ConfigError(f"threshold N must be a finite number >= 1, got {self.N!r}")
        if not (is_real(self.s) and self.s <= 0):
            raise ConfigError(f"target regularity s must be finite and <= 0, got {self.s!r}")


def _m_values(p: IMethodParams, xi: np.ndarray) -> np.ndarray:
    axi = np.abs(np.asarray(xi, dtype=np.float64))
    out = np.ones_like(axi)
    hi = axi >= 2 * p.N
    out[hi] = (axi[hi] / p.N) ** p.s
    mid = (axi > p.N) & (axi < 2 * p.N)
    t = (np.log(axi[mid]) - np.log(p.N)) / np.log(2.0)
    out[mid] = np.exp(p.s * np.log(2.0) * t * t * (2.0 - t))
    return out


def i_multiplier(p: IMethodParams) -> Callable[[np.ndarray], np.ndarray]:
    """The smoothing multiplier m as a function of xi."""
    return lambda xi: _m_values(p, xi)


def apply_I(f: Field, p: IMethodParams) -> Field:
    return to_physical(apply_symbol(to_spectrum(f), _m_values(p, f.grid.xi)))


def energy2(f: Field, p: IMethodParams) -> float:
    """First modified mass ||I u||_{L^2}^2."""
    return mass(apply_I(f, p))


# ---------------------------------------------------------------------------
# hyperplane symbols


def _check_hyperplane(*xis):
    total = sum(np.asarray(x, dtype=np.float64) for x in xis)
    scale = np.maximum.reduce([np.abs(np.asarray(x, dtype=np.float64)) for x in xis])
    if np.any(np.abs(total) > 1e-9 * np.maximum(scale, 1.0)):
        raise ConfigError("frequencies do not satisfy the zero-sum constraint")


def symbol_m4(xi1, xi2, xi3, xi4, p: IMethodParams):
    """Symmetrized m^2 difference (m2(xi1) - m2(xi2) + m2(xi3) - m2(xi4)) / 2."""
    _check_hyperplane(xi1, xi2, xi3, xi4)
    return _m4_of_slots(np.array(np.broadcast_arrays(xi1, xi2, xi3, xi4), dtype=np.float64), p)


def _m4_of_slots(x, p):
    """M4 of the slot-first stack ``x`` of the four frequencies."""
    m2 = _m_values(p, x) ** 2
    return 0.5 * (m2[0] - m2[1] + m2[2] - m2[3])


def _sigma4_on_hyperplane(x1, x2, x3, x4, p):
    x1, x2, x3, x4 = x = np.array(np.broadcast_arrays(x1, x2, x3, x4), dtype=np.float64)
    # factorized resonance denominator; exact on the zero-sum lattice and
    # free of the catastrophic cancellation of the raw fourth-power form
    s12, s14 = x1 + x2, x1 + x4
    quad = (x**2).sum(axis=0) + 2 * (x1 + x3) ** 2  # rows added in turn
    denom = s12 * s14 * quad
    num = _m4_of_slots(x, p)
    out = np.zeros(num.shape)
    # a frequency summed in floating point (xi4 + xi5 + xi6 off the 2 pi
    # lattice) leaves a factor of order 1e-16 where it should be 0; read
    # factors at round-off level as the resonant zeros they stand for.
    # max|xi_j| <= sqrt(quad) <= sqrt(12) max|xi_j|
    tol = 1e-12 * np.sqrt(quad)
    nz = (np.abs(s12) > tol) & (np.abs(s14) > tol)
    np.divide(num, denom, out=out, where=nz)
    _check_removable(num[~nz])
    return out


def _check_removable(m4_at_zeros):
    """Raise unless M4, read where alpha4 = 0, vanishes there (to 1e-12):
    sigma4 = M4 / alpha4 is defined only at such removable zeros."""
    bad = np.abs(m4_at_zeros)
    if np.any(bad > 1e-12):
        raise NumericDomainError(
            "non-removable resonant singularity: alpha4 = 0 with M4 != 0 "
            f"(|M4| up to {np.max(bad):.3e})"
        )


def symbol_sigma4(xi1, xi2, xi3, xi4, p: IMethodParams):
    """Correction multiplier M4 / (xi1^4 - xi2^4 + xi3^4 - xi4^4).

    Real-valued on alternating-conjugate tuples.  Returns 0 at removable
    singularities (M4 = 0 where the resonance phase vanishes) and raises
    for non-removable ones, which cannot occur for an even multiplier.
    """
    _check_hyperplane(xi1, xi2, xi3, xi4)
    return _sigma4_on_hyperplane(xi1, xi2, xi3, xi4, p)


def symbol_m6(xi1, xi2, xi3, xi4, xi5, xi6, p: IMethodParams):
    """Six-frequency symbol i sigma4(xi1, xi2, xi3, xi4 + xi5 + xi6)."""
    _check_hyperplane(xi1, xi2, xi3, xi4, xi5, xi6)
    return _m6(p)(xi1, xi2, xi3, xi4, xi5, xi6)


def _m6(p: IMethodParams) -> SumLastThree:
    return SumLastThree(lambda a, b, c, d: 1j * _sigma4_on_hyperplane(a, b, c, d, p))


# ---------------------------------------------------------------------------
# multilinear forms


@dataclass(frozen=True)
class ModeSet:
    """Symmetric truncation {xi_k : |k| <= K}, 1 <= K <= M/2 - 1, of a grid's lattice,
    and its one owner: the forms read L, the index wrap and their fields'
    coefficients from ``grid`` alone (``check``).  Only on k0 = 0 grids: the zero-sum
    hyperplanes of the forms are sums of the indices k, which a band grid shifts by k0."""

    grid: Grid
    K: int

    def __post_init__(self):
        _check_cutoff(self.grid, self.K)
        if self.grid.k0:
            raise ConfigError(f"mode sets need a k0 = 0 grid, got k0={self.grid.k0}")

    def check(self, fields) -> None:
        for i, f in enumerate(fields):
            if f.grid != self.grid:
                raise ConfigError(f"field {i} lies on {f.grid}, not on the mode set's {self.grid}")

    @property
    def k_values(self) -> np.ndarray:
        return np.arange(-self.K, self.K + 1)

    @property
    def xi_values(self) -> np.ndarray:
        return self.grid.xi[self.k_values % self.grid.M]


@dataclass
class MultilinearResult:
    value: complex
    terms: int  # (2K+1)^3: the (k1, k2, k3) cube the walk covers, for either form


@dataclass(frozen=True)
class SumLastThree:
    """Six-slot symbol ``core(xi1, xi2, xi3, xi4 + xi5 + xi6)``.

    Evaluates like any six-slot symbol; :func:`lambda_n` sums six fields
    only under this type, folding the last three slots into one lattice
    convolution: (2K+1)^3 terms instead of (2K+1)^5.
    """

    core: Callable

    def __call__(self, xi1, xi2, xi3, xi4, xi5, xi6):
        return self.core(xi1, xi2, xi3, np.asarray(xi4, dtype=np.float64) + xi5 + xi6)


def _coefs(fields, modes: ModeSet) -> np.ndarray:
    """(len(fields), 2K+1) coefficients hat u_j(xi_k), k = -K..K, of fields on ``modes.grid``."""
    modes.check(fields)
    return np.array([to_spectrum(f).coef[modes.k_values % modes.grid.M] for f in fields])


def _slot_coefs(fields, modes: ModeSet) -> list:
    """Per-slot coefficients on k = -K..K: hat u_j(xi_k) in odd slots (1-based)
    and conj(hat u_j(-xi_k)) in even slots."""
    coefs = _coefs(fields, modes)
    return [c if j % 2 == 0 else np.conj(c[::-1]) for j, c in enumerate(coefs)]


def _walk_planes(weight, s1, s2, s3, last, K: int):
    """k1- and k2-marginals of weight * s1[k1] s2[k2] s3[k3] last[k4] on k1+k2+k3+k4 = 0.

    s1, s2, s3 are (S, 2K+1) on k = -K..K and ``last`` is (S, 2R+1) centred,
    K <= R <= 3K.  The planes k1 + k2 = a come in the order a = 0, -1, 1,
    ..., 2K, each a block of points, k1 down the rows and k3 along the
    columns with |k4| = |a + k3| <= R; about 2/3 of the (2K+1)^3 points at
    R = K.  ``weight(a, rows, cols)`` gets the slices of indices k + K of
    the block's k1 and k3 and returns its weight, or None for a plane that
    adds nothing; the walk is done with a weight before it asks for the
    next, so a weight may be a view of a buffer reused at the next call.
    Since last[k4] depends on k3 alone, a row of s1 gets the block's k3 sums
    as one matrix product of the weight with s3 * last, a real one on the
    float view of that vector when the weight is real, so its sums do not
    depend on the other rows.  Returns the (S, 2K+1) sums over k1 = k and k2 = k.
    """
    n = 2 * K + 1
    if n**3 > TERM_BUDGET:
        raise TermBudgetError(
            f"{n**3:.3g} lattice terms exceed the {TERM_BUDGET:.0g} term budget"
        )
    R, o = last.shape[1] // 2, last.shape[1] // 2 - K
    # reversed, so k2 = a - k1 and k4 = -(a + k3) sit at indices rising with
    # i = k + K: i1 - a of s2[::-1] and i3 + o + a of last[::-1]
    s2_rev, last_rev = s2[:, ::-1], last[:, ::-1]
    by_k1, by_k2_rev = np.zeros((2, *s1.shape), dtype=np.complex128)
    for a in sorted(range(-2 * K, 2 * K + 1), key=abs):
        rows = slice(max(0, a), min(n, n + a))
        cols = slice(max(0, K - R - a), min(n, K + R - a + 1))
        w = weight(a, rows, cols)
        if w is None:
            continue
        v = s3[:, cols] * last_rev[:, cols.start + o + a:cols.stop + o + a]
        if np.iscomplexobj(w):
            g = np.matmul(w, v[:, :, None])[..., 0]
        else:
            g = np.matmul(w, v.view(np.float64).reshape(len(v), -1, 2)).view(np.complex128)[..., 0]
        g *= s1[:, rows]
        g *= s2_rev[:, rows.start - a:rows.stop - a]
        by_k1[:, rows] += g
        by_k2_rev[:, rows.start - a:rows.stop - a] += g
    return by_k1, by_k2_rev[:, ::-1]


def lambda_n(symbol, fields, modes: ModeSet) -> MultilinearResult:
    """The multilinear form of ``symbol`` over the hyperplane truncated to ``modes``.

    The fields lie on ``modes.grid`` (``ModeSet.check``), whose L scales the
    frequencies and the measure.  Slots alternate u, conj: odd slots
    contribute hat(u_j)(xi), even slots conj(hat(u_j)(-xi)).  The hyperplane
    measure is calibrated so Lambda4(1; u) = int |u|^4 dx for band-limited u
    (one overall factor L).
    Two forms are summed, each on one walk of ``_walk_planes``: four fields
    with a four-slot symbol, and six fields with a :class:`SumLastThree`
    symbol, summed as sum_{k1,k2,k3} core * u1 u2 u3 V(-(k1+k2+k3)) with V
    the exact lattice convolution of the last three slots (|k'| <= 3K).
    Any other form raises ``ConfigError`` before any work.

    The symbol is called once per plane k1 + k2 = a on its block of points.
    Its inputs are read-only broadcast views, of the block's shape, of
    2 pi/L times the integers k1, a - k1, k3 and -(a + k3); it returns an
    array of that shape.
    """
    n = len(fields)
    collapsed = isinstance(symbol, SumLastThree)
    if n != (6 if collapsed else 4):
        raise ConfigError(
            f"lambda_n sums 4 fields, or 6 with a SumLastThree symbol; got {n} fields "
            f"and a {type(symbol).__name__}"
        )
    K, L = modes.K, modes.grid.L
    slots = _slot_coefs(fields, modes)
    core = symbol.core if collapsed else symbol
    last = cubic_convolution(*slots[3:]) if collapsed else slots[3]

    # 2 pi/L times -R..R rising and falling, broadcast down the rows and
    # along the columns: with i = k + K, k1 and k3 sit at i + o of the
    # rising sheets, a - k1 at i + o - a and -(a + k3) at i + o + a of
    # the falling ones
    R, o = len(last) // 2, len(last) // 2 - K
    rising = 2 * np.pi / L * np.arange(-R, R + 1)
    rows_up, rows_down = (np.broadcast_to(x[:, None], (2 * R + 1, 2 * K + 1))
                          for x in (rising, rising[::-1]))
    cols_up, cols_down = (np.broadcast_to(x, (2 * K + 1, 2 * R + 1))
                          for x in (rising, rising[::-1]))

    def weight(a, rows, cols):
        nr, nc = rows.stop - rows.start, cols.stop - cols.start
        return np.asarray(core(rows_up[rows.start + o:rows.stop + o, :nc],
                               rows_down[rows.start + o - a:rows.stop + o - a, :nc],
                               cols_up[:nr, cols.start + o:cols.stop + o],
                               cols_down[:nr, cols.start + o + a:cols.stop + o + a]))

    with np.errstate(all="ignore"):  # a non-finite symbol is refused below
        by_k1, _ = _walk_planes(weight, *(s[None, :] for s in (*slots[:3], last)), K)
        total = by_k1.sum()
    if not np.isfinite(total):
        raise NumericDomainError(f"the {n}-linear form is not finite: {total}")
    return MultilinearResult(value=complex(L * total), terms=(2 * K + 1) ** 3)


def _inv_alpha4(K: int):
    """The weight ``weight(a, rows, cols)`` of the Lambda4(sigma4) walk:
    1/alpha4 in lattice units on the block of the plane k1 + k2 = a, 0 where
    alpha4 = 0, and None on the plane a = 0, where alpha4 vanishes.

    alpha4 = (k1+k2)(k1+k4) Q with k4 = -(k1+k2+k3) and Q = k1^2 + k2^2 +
    k3^2 + k4^2 + 2 (k1+k3)^2.  On the plane, with t = k1 + k4 = k1 - k3 - a,
    alpha4 = a t Q and Q = 4 (k1^2 + k1 k3 + k3^2) - 2 a t, zero exactly on
    the diagonal t = 0 of the square block (the walk of ``_sigma4_marginals``
    has R = K); a t is one lag row in k1 - k3, read through a sliding window.
    Every factor is an integer below 2^53 within the term budget, so 1/alpha4
    is that of the direct formula, bit for bit.  The walk asks for the planes
    -a and a in turn; as alpha4(-a; -k1, -k3) = alpha4(a; k1, k3), the second
    block is the first reversed.  A block is a view of one of two reused
    buffers, valid until the next call.
    """
    ks = np.arange(-K, K + 1, dtype=np.float64)
    base = 4 * (ks[:, None] ** 2 + ks[:, None] * ks + ks**2)  # Q on a = 0
    d, lag = np.arange(-2 * K, 2 * K + 1, dtype=np.float64), np.empty(4 * K + 1)  # k1 - k3, a t
    at = np.lib.stride_tricks.sliding_window_view(lag, len(ks))[:, ::-1]  # lag[i1 - i3 + 2K]
    built, mirrored = np.empty((2, len(ks) ** 2))  # C-contiguous blocks for BLAS
    last = None  # the plane whose block ``built`` holds

    def inv_alpha4(a, rows, cols):
        nonlocal last
        if a == 0:
            return None
        m = rows.stop - rows.start  # = cols.stop - cols.start
        if last == -a:
            mirrored[:m * m] = built[:m * m][::-1]
            return mirrored[:m * m].reshape(m, m)
        np.multiply(a, np.subtract(d, a, out=lag), out=lag)
        w, v = built[:m * m].reshape(m, m), at[rows, cols]
        np.multiply(2, v, out=w)
        np.subtract(base[rows, cols], w, out=w)  # Q
        np.multiply(v, w, out=w)
        built[:m * m:m + 1] = np.inf  # t = 0, so that 1/alpha4 reads +0 there
        last = a
        return np.divide(1.0, w, out=w)

    return inv_alpha4


def _sigma4_marginals(fields, modes: ModeSet) -> np.ndarray:
    """R1 - R2 of each field, shape (len(fields), 2K+1), for Lambda4(sigma4).

    R1(k) and R2(k) sum W / alpha4 over the hyperplane points with k1 = k
    and k2 = k, where W = c[k1] conj(c[-k2]) c[k3] conj(c[-k4]) and alpha4 =
    (xi1+xi2)(xi1+xi4) Q is the factorized resonance denominator of
    ``_sigma4_on_hyperplane``; its zeros (k2 = -k1 or k4 = -k1) are dropped.
    alpha4 is formed in lattice units (``_inv_alpha4``) and scaled by
    (2 pi / L)^4 at the end.

    ``fields`` is walked once, whatever it holds (every snapshot of a whole
    family, say), so each plane's weight is built once for all of them.
    """
    a = _coefs(fields, modes)
    b = np.conj(a[:, ::-1])
    r1, r2 = _walk_planes(_inv_alpha4(modes.K), a, b, a, b, modes.K)
    return (r1 - r2) / (2 * np.pi / modes.grid.L) ** 4


def _lambda4_sigma4(marginals: np.ndarray, p: IMethodParams, modes: ModeSet) -> np.ndarray:
    """Lambda4(sigma4) for each row of ``_sigma4_marginals``, with its checks.

    sigma4's numerator pairs m^2(xi1) with m^2(xi3) and m^2(xi2) with
    m^2(xi4) under relabellings that leave W and alpha4 unchanged, so
    Lambda4(sigma4) = L sum_k (m^2(xi_k) - 1) (R1(k) - R2(k)); the -1 adds
    sum R1 - sum R2 = 0 and makes the value exactly 0 inside |xi| <= N.
    """
    m2 = _m_values(p, modes.xi_values) ** 2
    # alpha4 = 0 on k2 = -k1 and on k4 = -k1, where M4 vanishes iff m^2 is even;
    # its largest |M4| there is that of m^2(xi) - m^2(-xi), at xi3 = xi1
    _check_removable(m2 - m2[::-1])
    # a row sum, not a matrix product, so a row's value does not depend on the batch
    corr = modes.grid.L * (marginals * (m2 - 1.0)).sum(axis=1)
    for value in corr:
        if abs(value.imag) > 1e-10 * max(abs(value), 1e-30):
            raise NumericDomainError(
                f"Lambda4(sigma4) imaginary residual {value.imag:.3e} out of tolerance"
            )
    return corr


def _lambda4_m4(f: Field, p: IMethodParams, modes: ModeSet) -> complex:
    """Lambda4(M4) of one field from two lattice convolutions (module docstring)."""
    K = modes.K
    a = _coefs([f], modes)[0]
    b = np.conj(a[::-1])
    # entry n of a (6K+1) convolution sits at 3K + n; n = -k for k = -K..K
    c1 = cubic_convolution(b, a, b)[2 * K:4 * K + 1][::-1]
    c2 = cubic_convolution(a, a, b)[2 * K:4 * K + 1][::-1]
    m2 = _m_values(p, modes.xi_values) ** 2
    return complex(modes.grid.L * np.sum((m2 - 1.0) * (a * c1 - b * c2)))


def _energies(snapshots, marginals: np.ndarray, p: IMethodParams, modes: ModeSet):
    """(E2, E4) arrays over ``snapshots``, given their ``_sigma4_marginals`` rows."""
    e2 = np.array([energy2(f, p) for f in snapshots])
    return e2, e2 + _lambda4_sigma4(marginals, p, modes).real


def energy4(f: Field, p: IMethodParams, modes: ModeSet) -> float:
    """Second modified mass E2 + Re Lambda4(sigma4).

    The imaginary residual of the correction term is asserted below 1e-10
    relative; sigma4 is real and pair-swap symmetric, so a violation means
    the state leaked outside the mode set.
    """
    return _energies([f], _sigma4_marginals([f], modes), p, modes)[1][0]


# ---------------------------------------------------------------------------
# derivative identities on the Galerkin system


@dataclass
class IdentityCheck:
    defect2: float
    defect4: float
    fd2: float
    pred2: float
    fd4: float
    re_lambda6: float
    c_estimate: float


def derivative_identity_check(
    f: Field, p: IMethodParams, cfg: EvolutionConfig, modes: ModeSet
) -> IdentityCheck:
    """Compare finite-difference dE2/dt and dE4/dt with the multilinear forms.

    The state is evolved with the truncated Galerkin system on |k| <= K,
    ``galerkin_evolve``: the stepper's IFRK4 with ``project_K = K``.  Since
    the energy gradients reach three times the state's support, exactness
    requires 3 * support <= K, which is enforced.  Time derivatives use the
    five-point fourth-order stencil with step 1e-5 (the resonance
    phases reach ~K^4, so a second-order stencil would not meet 1e-6).
    """
    modes.check([f])
    spec0 = to_spectrum(f)
    support = _support_radius(spec0)
    if 3 * support > modes.K:
        raise ConfigError(f"state support {support} too wide: need 3*support <= K = {modes.K}")
    g = cfg.kappa
    if cfg.equation != "quartic" or cfg.orientation != 1:
        raise ConfigError("identity check is defined for i u_t = +u_xxxx + kappa|u|^2 u")

    h = 1e-5
    states = [to_physical(galerkin_evolve(spec0, cfg, modes.K, mlt * h, n_steps=10))
              for mlt in (-2, -1, 1, 2)]
    e = np.array(_energies(states, _sigma4_marginals(states, modes), p, modes))
    fd2, fd4 = (e[:, 0] - 8 * e[:, 1] + 8 * e[:, 2] - e[:, 3]) / (12 * h)
    lam4 = _lambda4_m4(f, p, modes)
    pred2 = (1j * g * lam4).real
    if 2 * np.pi / modes.grid.L * support <= p.N:
        # m = 1 on every occupied mode: M4 vanishes term by term, pred2 is 0
        # and fd2 is stencil error, so measure both against E2 itself
        defect2 = abs(fd2 - pred2) / energy2(f, p)
    else:
        defect2 = abs(fd2 - pred2) / max(abs(pred2), abs(fd2), 1e-300)

    re_l6 = lambda_n(_m6(p), [f] * 6, modes).value.real
    # sigma4 is normalized to cancel the quadrilinear increment of the
    # g = +1 equation; for other g the uncancelled remainder appears here
    mismatch = (1j * (g - 1.0) * lam4).real
    pred4 = mismatch + 4.0 * g * re_l6
    defect4 = abs(fd4 - pred4) / max(abs(fd4), abs(pred4), 1e-300)
    c_est = (fd4 - mismatch) / re_l6 if re_l6 != 0 else np.nan
    return IdentityCheck(*map(float, (defect2, defect4, fd2, pred2, fd4, re_l6, c_est)))


def fit_m6_constant(states, p: IMethodParams, cfg: EvolutionConfig, modes: ModeSet):
    """Least-squares constant c in dE4/dt = c * Re Lambda6(M6) across states.

    For the kappa = +1 equation the six-linear term is the whole derivative
    and c comes out 4; for other kappa the Lambda4 remainder is subtracted
    first and the expected constant is 4 * kappa.  Returns (c, ratios).
    """
    return m6_constant_from_checks([derivative_identity_check(f, p, cfg, modes) for f in states])


def m6_constant_from_checks(checks):
    """The (c, ratios) of :func:`fit_m6_constant` from identity checks already run."""
    if not checks:
        raise ConfigError("fitting the M6 constant needs at least one identity check")
    res = np.array([chk.re_lambda6 for chk in checks])
    nums = np.array([chk.c_estimate for chk in checks]) * res
    c = float(np.sum(nums * res) / np.sum(res * res))
    return c, (nums / res)


# ---------------------------------------------------------------------------
# almost-conservation experiment


@dataclass
class AlmostConservationResult:
    fit_corrected: FitResult      # |E4 increment| vs N
    fit_uncorrected: FitResult    # |E2 increment| vs N
    increments_corrected: dict    # family mean per N
    increments_uncorrected: dict


def rough_localized_datum(
    grid: Grid,
    rng: np.random.Generator,
    amplitude: float = 0.4,
    support: int = 120,
    decay: float = 1.2,
) -> Field:
    """Random-phase datum with |c_k| ~ (1+|k|)^-decay under a spatial envelope.

    The band is hard-truncated at ``support`` after the envelope so the
    mode support is exact; amplitude normalizes the sup norm.
    """
    coef = np.zeros(grid.M, dtype=np.complex128)
    band = np.abs(grid.k) <= support
    coef[band] = (1.0 + np.abs(grid.k[band])) ** -decay * np.exp(
        2j * np.pi * rng.random(band.sum())
    )
    f = to_physical(Spectrum(grid, coef))
    vals = f.values * np.exp(-((grid.x / (0.18 * grid.L)) ** 2))
    c2 = np.fft.fft(vals)
    c2[~band] = 0
    vals = np.fft.ifft(c2)
    return Field(grid, vals * amplitude / np.max(np.abs(vals)))


def almost_conservation_experiment(
    data,
    N_values,
    cfg: EvolutionConfig,
    s: float = -0.5,
    *,
    support_K: int,
) -> AlmostConservationResult:
    """Sweep the threshold N and fit the modified-mass increment decay.

    ``data`` is one field or a family of fields sharing a grid; the family
    is evolved once, as one stack, and the sweep reuses each member's
    snapshots and their Lambda4(sigma4) marginals (one walk of the whole
    family serves every N), with increments sup_t |E(t) - E(0)| averaged
    over the family (single random-phase realizations carry an O(0.5) slope
    scatter).  The multilinear forms run on the mode set |k| <= ``support_K``.
    The corrected slope is predicted near -3; the uncorrected E2 series is
    fitted for comparison.
    """
    family = [data] if isinstance(data, Field) else list(data)
    floor = 1e-13  # increments below it are round-off
    if len(N_values) < 4:
        raise ConfigError("need at least 4 threshold values for the sweep")
    if not cfg.record_fields:
        raise ConfigError("sweep requires recorded fields")
    inc4 = {N: [] for N in N_values}
    inc2 = {N: [] for N in N_values}
    modes = ModeSet(family[0].grid, support_K)
    modes.check(family)
    records = evolve_many(family, cfg)
    # one walk over every snapshot of every member; members share their times
    walked = _sigma4_marginals([f for rec in records for f in rec.fields], modes)
    for rec, marginals in zip(records, walked.reshape(len(records), -1, 2 * modes.K + 1)):
        for N in N_values:
            e2, e4 = _energies(rec.fields, marginals, IMethodParams(N=float(N), s=s), modes)
            inc4[N].append(float(np.max(np.abs(e4 - e4[0]))))
            inc2[N].append(float(np.max(np.abs(e2 - e2[0]))))
    mean4 = {N: float(np.mean(v)) for N, v in inc4.items()}
    mean2 = {N: float(np.mean(v)) for N, v in inc2.items()}
    if max(mean4.values()) < floor:
        raise InconclusiveFitError(
            "corrected increments are at the round-off floor; use larger data"
        )
    fit4 = fit_loglog([(N, max(mean4[N], floor)) for N in N_values])
    fit2 = fit_loglog([(N, max(mean2[N], floor)) for N in N_values])
    return AlmostConservationResult(fit4, fit2, mean4, mean2)


# ---------------------------------------------------------------------------
# global well-posedness bookkeeping


@dataclass
class GwpParameters:
    lam: float
    N: float
    lambda_exponent: Fraction   # lambda ~ N^this
    time_exponent: Fraction     # N^this ~ T
    growth_exponent: Fraction   # sup_[0,T] ||u|| ~ T^this


def gwp_parameters(s, T: float, u0_norm: float, eps0: float) -> GwpParameters:
    """Solve the rescaling relations for (lambda, N) and the growth exponent.

    Exponent arithmetic is exact over the rationals: lambda ~ N^(-2s/(3+2s)),
    N^((14s+9)/(3+2s)) ~ T and the polynomial growth exponent is
    -s(3+2s)/(14s+9).  Numeric lambda and N additionally use u0_norm, eps0
    through lambda^(-3/2-s) N^(-s) u0_norm = eps0.
    """
    check_real("regularity s", s)
    s = Fraction(s)
    if not (Fraction(-3, 2) < s <= 0):
        raise ConfigError("regularity must satisfy -3/2 < s <= 0")
    for name, v in (("T", T), ("u0_norm", u0_norm), ("eps0", eps0)):
        check_real(name, v, positive=True)
    three_plus = 3 + 2 * s
    lam_exp = -2 * s / three_plus
    t_exp = (14 * s + 9) / three_plus
    if t_exp <= 0:
        raise ConfigError(
            f"iteration does not reach arbitrary times for s = {s} (exponent {t_exp})"
        )
    growth = -s * three_plus / (14 * s + 9)
    if s == 0:
        N = 1.0
        lam = 1.0
    else:
        try:
            N = float(T) ** float(1 / t_exp)
            lam = (N ** float(-s) * u0_norm / eps0) ** float(2 / three_plus)
        except OverflowError:  # float powers raise it where products give inf
            N = lam = float("inf")
        if not np.isfinite(lam) or not np.isfinite(N):
            raise ConfigError("lambda or N overflowed; s is too close to -3/2")
    return GwpParameters(
        lam=lam, N=N, lambda_exponent=lam_exp, time_exponent=t_exp, growth_exponent=growth
    )
