"""Property tests: the marginal Lambda4(sigma4) pass, the convolution form of
Lambda4(M4) and the collapsed Lambda6 sum against the direct hyperplane sums
of ``lambda_n``."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fournls import IMethodParams, ModeSet, lambda_n, make_grid, to_physical
from fournls import imethod
from fournls.imethod import SumLastThree, _m4_on_hyperplane, _sigma4_on_hyperplane
from fournls.spectral import Spectrum, cubic_convolution

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
    a = np.abs(imethod._coefs([f], K))
    inv_alpha4 = imethod._inv_alpha4(K)
    a1, a2 = imethod._walk_slices(lambda i1, k1: np.abs(inv_alpha4(i1, k1)),
                                  a, a[:, ::-1], a, a[:, ::-1], K)
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
        lambda a, b, c, d: _m4_on_hyperplane(a, b, c, d, p) + 0j, [f] * 4, modes
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

    generic = lambda_n(m6, [f] * 6, modes)
    collapsed = lambda_n(imethod._m6(p), [f] * 6, modes)
    assert generic.terms == (2 * modes.K + 1) ** 5
    assert collapsed.terms == (2 * modes.K + 1) ** 3
    assert abs(collapsed.value - generic.value) <= 1e-12 * abs(generic.value)


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
    plain = lambda_n(lambda a, b, c, d, e, f6: 1j * _sigma4_on_hyperplane(a, b, c, d + e + f6, p),
                     [f] * 6, modes)
    collapsed = lambda_n(imethod._m6(p), [f] * 6, modes)
    assert abs(collapsed.value - plain.value) <= 1e-12 * abs(collapsed.value)


def test_sum_last_three_evaluates_on_six_arrays():
    sym = SumLastThree(lambda a, b, c, d: a - 2 * b + 3 * c - 5 * d)
    x = np.arange(6.0)[:, None] * np.array([1.0, -2.0])
    assert np.array_equal(sym(*x), x[0] - 2 * x[1] + 3 * x[2] - 5 * (x[3] + x[4] + x[5]))
