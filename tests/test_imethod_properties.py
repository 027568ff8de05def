"""Property tests: the marginal Lambda4(sigma4) pass and the convolution form
of Lambda4(M4) against the four-slot walk of ``lambda_n``, and the collapsed
Lambda6 walk against the six-fold direct sum of ``oracle.direct_sum``."""

import mpmath
import numpy as np
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from fournls import IMethodParams, ModeSet, lambda_n, make_grid, symbol_m4, to_physical
from fournls import imethod
from fournls.imethod import SumLastThree, _sigma4_on_hyperplane
from fournls.spectral import Spectrum, cubic_convolution
from oracle import direct_sum

PROPS = settings(max_examples=25, deadline=None)


@st.composite
def narrow_states(draw, max_K=8, count=1):
    """``count`` random states supported in |k| <= support <= K on one grid."""
    L = draw(st.sampled_from([2 * np.pi, 5.0, 9.7]))
    K = draw(st.integers(2, max_K))
    support = draw(st.integers(1, K))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    grid = make_grid(L, 32)
    ks = np.arange(-support, support + 1)
    states = []
    for _ in range(count):
        coef = np.zeros(grid.M, dtype=np.complex128)
        coef[ks % grid.M] = rng.normal(size=ks.size) + 1j * rng.normal(size=ks.size)
        states.append(to_physical(Spectrum(grid, 0.3 * coef)))
    return states, ModeSet(grid, K)


# thresholds that put the lattice below N, inside the junction [N, 2N] and above 2N
thresholds = st.sampled_from([1.0, 1.5, 2.0, 2.5, 3.0, 4.5, 6.0])


@PROPS
@given(narrow_states(), thresholds)
def test_marginal_lambda4_matches_direct_sum(case, N):
    (f,), modes = case
    p = IMethodParams(N=N)
    direct = lambda_n(
        lambda a, b, c, d: _sigma4_on_hyperplane(a, b, c, d, p), [f] * 4, modes
    ).value
    marginal = imethod._lambda4_sigma4(imethod._sigma4_marginals([f], modes), p, modes)[0]
    # round-off is relative to the marginal formula's absolute terms,
    # L sum_k |m^2_k - 1| (A1 + A2)(k) / (2 pi/L)^4, with A1 and A2 the
    # marginals of |coefficients| weighted by |1/alpha4|: Lambda4 itself can
    # cancel to 1e-40 while its terms stay of order one
    K = modes.K
    a = np.abs(imethod._coefs([f], K)).astype(np.complex128)
    inv_alpha4 = imethod._inv_alpha4(K)

    def abs_inv_alpha4(*block):
        w = inv_alpha4(*block)
        return None if w is None else np.abs(w)

    a1, a2 = imethod._walk_planes(abs_inv_alpha4, a, a[:, ::-1], a, a[:, ::-1], K)
    m2 = imethod._m_values(p, modes.xi_values) ** 2
    terms = np.sum(np.abs(m2 - 1.0) * (a1 + a2).real[0])
    scale = modes.grid.L * terms / (2 * np.pi / modes.grid.L) ** 4
    assert abs(marginal - direct) <= 1e-12 * scale


@PROPS
@given(narrow_states(), thresholds)
def test_convolution_lambda4_m4_matches_direct_sum(case, N):
    (f,), modes = case
    p = IMethodParams(N=N)
    direct = lambda_n(
        lambda a, b, c, d: symbol_m4(a, b, c, d, p) + 0j, [f] * 4, modes
    ).value
    convolved = imethod._lambda4_m4(f, p, modes)
    # round-off is relative to the absolute terms of the convolution form,
    # L sum_k |m^2_k - 1| (|a_k| |C1|(-k) + |b_k| |C2|(-k)), with |C1| and
    # |C2| the same convolutions of |a|; Lambda4(M4) itself may cancel
    K = modes.K
    a = np.abs(imethod._coefs([f], K)[0])
    b = a[::-1]
    c1 = cubic_convolution(b, a, b)[2 * K:4 * K + 1][::-1]
    c2 = cubic_convolution(a, a, b)[2 * K:4 * K + 1][::-1]
    m2 = imethod._m_values(p, modes.xi_values) ** 2
    scale = modes.grid.L * np.sum(np.abs(m2 - 1.0) * (a * c1 + b * c2))
    assert abs(convolved - direct) <= 1e-12 * scale


@PROPS
@given(narrow_states(count=3), thresholds)
def test_snapshot_batch_matches_one_at_a_time(case, N):
    fields, modes = case
    p = IMethodParams(N=N)
    batch = imethod._lambda4_sigma4(imethod._sigma4_marginals(fields, modes), p, modes)
    single = [imethod._lambda4_sigma4(imethod._sigma4_marginals([f], modes), p, modes)[0]
              for f in fields]
    assert np.allclose(batch, single, rtol=1e-13, atol=0)


@PROPS
@given(narrow_states(max_K=6), thresholds)
def test_collapsed_lambda6_matches_six_fold_sum(case, N):
    (f,), modes = case
    p = IMethodParams(N=N)

    def m6(a, b, c, d, e, f6):
        # xi4 + xi5 + xi6 is added in floating point, off the lattice when L != 2 pi
        return 1j * _sigma4_on_hyperplane(a, b, c, d + e + f6, p)

    generic = direct_sum(m6, [f] * 6, modes.K)
    collapsed = lambda_n(imethod._m6(p), [f] * 6, modes)
    assert collapsed.terms == (2 * modes.K + 1) ** 3
    assert abs(collapsed.value - generic) <= 1e-12 * abs(generic)


def test_plain_m6_keeps_the_resonant_zero_off_the_2pi_lattice():
    # at L = 7.3 the float sum xi4 + xi5 + xi6 misses -xi1 by round-off on
    # the resonant points; sigma4 must still read 0 there, as on the lattice
    grid = make_grid(7.3, 64)
    rng = np.random.default_rng(5)
    ks = np.arange(-12, 13)
    coef = np.zeros(grid.M, dtype=np.complex128)
    coef[ks % grid.M] = rng.normal(size=ks.size) + 1j * rng.normal(size=ks.size)
    f = to_physical(Spectrum(grid, 0.3 * coef))
    p = IMethodParams(N=2.0)
    modes = ModeSet(grid, 12)
    plain = direct_sum(lambda a, b, c, d, e, f6: 1j * _sigma4_on_hyperplane(a, b, c, d + e + f6, p),
                       [f] * 6, modes.K)
    collapsed = lambda_n(imethod._m6(p), [f] * 6, modes)
    assert abs(collapsed.value - plain) <= 1e-12 * abs(collapsed.value)


def test_sum_last_three_evaluates_on_six_arrays():
    sym = SumLastThree(lambda a, b, c, d: a - 2 * b + 3 * c - 5 * d)
    x = np.arange(6.0)[:, None] * np.array([1.0, -2.0])
    assert np.array_equal(sym(*x), x[0] - 2 * x[1] + 3 * x[2] - 5 * (x[3] + x[4] + x[5]))


# ---------------------------------------------------------------------------
# the plane walk against sums in 40-digit arithmetic

EPS = np.finfo(np.float64).eps
# no shrinking: each example sums (2K+1)^3 terms in 40 digits
REFERENCE = settings(max_examples=4, deadline=None,
                     phases=(Phase.explicit, Phase.reuse, Phase.generate))


def _bound(n, convolved=False):
    """Roundings on one term's longest path through a walk of 2K+1 = n: its
    complex products (under 3 eps each), the k3 sum of a plane row, the sum
    over the n planes that meet a marginal entry and the sum over the
    entries, each n terms; with a convolved last slot, its two convolution
    stages of at most n terms.  First-order worst case: the computed sum
    lies within this many eps times the sum of its absolute terms."""
    return 3 * n + 12 + (2 * n + 8 if convolved else 0)


def _mp(values):
    return [mpmath.mpc(complex(v)) for v in values]


def _hyperplane(K, R):
    ks = range(-K, K + 1)
    return [(k1, k2, k3) for k1 in ks for k2 in ks for k3 in ks if abs(k1 + k2 + k3) <= R]


@REFERENCE
@given(narrow_states())
def test_plane_walk_marginals_within_the_stated_bound(case):
    (f,), modes = case
    K, n = modes.K, 2 * modes.K + 1
    a = imethod._coefs([f], K)
    b = np.conj(a[:, ::-1])
    r1, r2 = imethod._walk_planes(imethod._inv_alpha4(K), a, b, a, b, K)
    am, bm = _mp(a[0]), _mp(b[0])
    with mpmath.workdps(40):
        exact = [[mpmath.mpc(0)] * n for _ in range(2)]
        scale = np.zeros((2, n))
        for k1, k2, k3 in _hyperplane(K, K):
            k4 = -(k1 + k2 + k3)
            alpha = (k1 + k2) * (k1 + k4) * (k1**2 + k2**2 + k3**2 + k4**2 + 2 * (k1 + k3) ** 2)
            if alpha == 0:
                continue
            t = am[k1 + K] * bm[k2 + K] * am[k3 + K] * bm[k4 + K] * (1.0 / alpha)
            for j, k in enumerate((k1, k2)):
                exact[j][k + K] += t
                scale[j, k + K] += float(abs(t))
        for walked, ref, sc in zip((r1[0], r2[0]), exact, scale):
            err = np.array([float(abs(mpmath.mpc(complex(w)) - e)) for w, e in zip(walked, ref)])
            assert np.all(err <= _bound(n) * EPS * sc)


@REFERENCE
@given(narrow_states(max_K=6), thresholds)
def test_plane_walk_lambda_forms_within_the_stated_bound(case, N):
    # Lambda4(1; u) on the four-slot walk and Lambda6(M6) on the collapsed
    # walk, against the same float symbol values and coefficients summed in
    # 40 digits, the last three slots convolved exactly
    (f,), modes = case
    K, n, L = modes.K, 2 * modes.K + 1, modes.grid.L
    p = IMethodParams(N=N)
    ks = np.arange(-K, K + 1)
    k1, k2, k3 = np.meshgrid(ks, ks, ks, indexing="ij")
    xi = [2 * np.pi / L * k for k in (k1, k2, k3, -(k1 + k2 + k3))]
    m6 = imethod._m6(p).core(*xi)
    slots = [_mp(s) for s in imethod._slot_coefs([f] * 6, K)]
    with mpmath.workdps(40):
        lam4, scale4 = mpmath.mpc(0), 0.0
        for j1, j2, j3 in _hyperplane(K, K):
            t = slots[0][j1 + K] * slots[1][j2 + K] * slots[2][j3 + K] * slots[3][-(j1 + j2 + j3) + K]
            lam4 += t
            scale4 += float(abs(t))
        v, v_abs = {}, {}
        for j4, j5, j6 in _hyperplane(K, 3 * K):
            t = slots[3][j4 + K] * slots[4][j5 + K] * slots[5][j6 + K]
            j = j4 + j5 + j6
            v[j] = v.get(j, 0) + t
            v_abs[j] = v_abs.get(j, 0.0) + float(abs(t))
        lam6, scale6 = mpmath.mpc(0), 0.0
        for j1, j2, j3 in _hyperplane(K, 3 * K):
            w = m6[j1 + K, j2 + K, j3 + K]
            t = slots[0][j1 + K] * slots[1][j2 + K] * slots[2][j3 + K] * complex(w)
            lam6 += t * v[-(j1 + j2 + j3)]
            scale6 += float(abs(t)) * v_abs[-(j1 + j2 + j3)]
        walked4 = lambda_n(lambda a, b, c, d: np.ones_like(a), [f] * 4, modes).value
        walked6 = lambda_n(imethod._m6(p), [f] * 6, modes).value
        err4 = float(abs(mpmath.mpc(walked4) - L * lam4))
        err6 = float(abs(mpmath.mpc(walked6) - L * lam6))
    assert err4 <= (_bound(n) + 1) * EPS * L * scale4
    assert err6 <= (_bound(n, convolved=True) + 1) * EPS * L * scale6
