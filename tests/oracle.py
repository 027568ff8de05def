"""Direct hyperplane sums that ``imethod.lambda_n``'s plane walk is checked against,
and probes of the I-method lemmas on m^2 and sigma4.

``direct_sum`` and ``brute_force`` both sum L * symbol * slots over
k1 + ... + kn = 0, |kj| <= K, with the slot pattern of ``lambda_n``:
hat u_j(xi_k) in odd slots (1-based) and conj(hat u_j(-xi_k)) in even slots.
``direct_sum`` takes one k1 at a time and the middle n - 2 indices as one
array; ``brute_force`` takes one point at a time, and pins ``direct_sum`` on
small lattices.

``m2_derivatives``, ``mean_value_constants`` and ``sigma4_bound_constant``
measure the constants of the mean-value bounds for m^2 and of the pointwise
bound on sigma4 that the correction-term estimates rest on.
"""

import itertools

import numpy as np

from fournls import to_spectrum
from fournls.imethod import ModeSet, _m_values, _sigma4_on_hyperplane, _slot_coefs


def direct_sum(symbol, fields, K: int) -> complex:
    """The form of any even order n = len(fields); ``symbol`` gets n arrays of frequencies."""
    n = len(fields)
    grid = fields[0].grid
    slots = _slot_coefs(fields, ModeSet(grid, K))
    ks = np.arange(-K, K + 1)
    two_pi_over_L = 2 * np.pi / grid.L
    # k2 .. k(n-1) on every point of their cube, in meshgrid "ij" order
    mid = np.indices((2 * K + 1,) * (n - 2)).reshape(n - 2, (2 * K + 1) ** (n - 2)) - K
    total = 0.0 + 0.0j
    for k1 in ks:
        kn = -(k1 + mid.sum(axis=0))
        valid = np.abs(kn) <= K
        if not np.any(valid):
            continue
        point = (np.full(valid.sum(), k1), *mid[:, valid], kn[valid])
        prod = np.asarray(symbol(*(two_pi_over_L * k for k in point)))
        for slot, k in zip(slots, point):
            prod = prod * slot[k + K]
        total += np.sum(prod)
    return complex(grid.L * total)


def brute_force(symbol, fields, K: int) -> complex:
    """The same sum, one point at a time in Python complex arithmetic."""
    g = fields[0].grid
    scale = 2 * np.pi / g.L
    coefs = [to_spectrum(f).coef for f in fields]
    slot = lambda j, k: coefs[j][k % g.M] if j % 2 == 0 else np.conj(coefs[j][-k % g.M])
    total = 0j
    for ks in itertools.product(range(-K, K + 1), repeat=len(fields) - 1):
        last = -sum(ks)
        if abs(last) > K:
            continue
        ks = (*ks, last)
        term = complex(symbol(*(scale * k for k in ks)))
        for j, k in enumerate(ks):
            term *= slot(j, k)
        total += term
    return g.L * total


def m2_derivatives(p, xi):
    """(m^2, (m^2)', (m^2)'') evaluated branch-wise in closed form."""
    xi = np.asarray(xi, dtype=np.float64)
    axi, sgn = np.abs(xi), np.sign(xi)
    m2 = _m_values(p, xi) ** 2
    d1, d2 = np.zeros_like(m2), np.zeros_like(m2)
    hi = axi >= 2 * p.N
    d1[hi] = sgn[hi] * 2 * p.s * m2[hi] / axi[hi]
    d2[hi] = 2 * p.s * (2 * p.s - 1) * m2[hi] / axi[hi] ** 2
    mid = (axi > p.N) & (axi < 2 * p.N)
    t = (np.log(axi[mid]) - np.log(p.N)) / np.log(2.0)
    hp = p.s * (4 * t - 3 * t * t)          # dh/du, u = log|xi|
    hpp = p.s * (4 - 6 * t) / np.log(2.0)   # d2h/du2
    d1[mid] = sgn[mid] * m2[mid] * 2 * hp / axi[mid]
    d2[mid] = m2[mid] * ((2 * hp) ** 2 + 2 * hpp - 2 * hp) / axi[mid] ** 2
    return m2, d1, d2


def _largest_ratio(diff, denom) -> float:
    """max diff / denom, where 0 / 0 reads 0 and a difference over a zero bound reads inf."""
    ratio = np.where(diff > 0, np.inf, 0.0)
    np.divide(diff, denom, out=ratio, where=denom > 0)
    return float(np.max(ratio))


def mean_value_constants(p, rng, region: str, n_samples: int = 2000):
    """The largest observed constants of the one- and two-increment bounds for m^2.

    For |eta|, |lambda| <= |xi|/8, the ratios
    |a(xi+eta) - a(xi)| / (|eta| sup|a'|) and
    |a(xi+eta+lam) - a(xi+eta) - a(xi+lam) + a(xi)| / (|eta||lam| sup|a''|)
    with a = m^2, each sup taken over the convex hull of the evaluation
    points.  ``region`` picks the base point: 'constant' (all below N),
    'power' (all above 2N) or 'junction' (straddling [N, 2N]).
    """
    lo, hi = {"constant": (1.0, p.N / 2), "power": (4 * p.N, 64 * p.N),
              "junction": (p.N * 0.9, p.N * 2.2)}[region]
    xi = rng.uniform(lo, hi, n_samples)
    eta = rng.uniform(-1.0, 1.0, n_samples) * xi / 8
    lam = rng.uniform(-1.0, 1.0, n_samples) * xi / 8

    def a(x):
        return _m_values(p, x) ** 2

    def sup_derivs(pts):
        # dense sample of |a'|, |a''| over the hull of the evaluation points
        hull = np.linspace(pts.min(axis=0), pts.max(axis=0), 65)
        _, d1, d2 = m2_derivatives(p, hull)
        return np.max(np.abs(d1), axis=0), np.max(np.abs(d2), axis=0)

    sup1, _ = sup_derivs(np.stack([xi, xi + eta]))
    c1 = _largest_ratio(np.abs(a(xi + eta) - a(xi)), np.abs(eta) * sup1)
    _, sup2 = sup_derivs(np.stack([xi, xi + eta, xi + lam, xi + eta + lam]))
    diff2 = np.abs(a(xi + eta + lam) - a(xi + eta) - a(xi + lam) + a(xi))
    c2 = _largest_ratio(diff2, np.abs(eta) * np.abs(lam) * sup2)
    return c1, c2


def sigma4_bound_constant(p, rng) -> float:
    """Largest observed |sigma4| / [m^2(min|xi_i|) / prod(N + |xi_i|)].

    Half the tuples are broad log-uniform draws; the other half sit on the
    near-pair ridge (xi2 ~ -xi1) at magnitudes scaled to the threshold,
    where the ratio is extremal.  With the ridge samples the estimate is
    threshold-independent, which is the content of the multiplier bound.
    """
    n_half = 50_000  # 100 000 tuples in all
    x1, x2, x3 = 2.0 ** rng.uniform(0, np.log2(p.N) + 4, size=(3, n_half)) * rng.choice(
        [-1.0, 1.0], size=(3, n_half)
    )
    a = 2.0 ** rng.uniform(np.log2(p.N) - 2, np.log2(p.N) + 4, n_half) * rng.choice(
        [-1.0, 1.0], n_half
    )
    b = 2.0 ** rng.uniform(np.log2(p.N) - 2, np.log2(p.N) + 4, n_half) * rng.choice(
        [-1.0, 1.0], n_half
    )
    d = a * 2.0 ** rng.uniform(-20, 0, n_half) * rng.choice([-1.0, 1.0], n_half)
    x1 = np.concatenate([x1, a])
    x2 = np.concatenate([x2, -a + d])
    x3 = np.concatenate([x3, b])
    x4 = -(x1 + x2 + x3)
    vals = np.abs(_sigma4_on_hyperplane(x1, x2, x3, x4, p))
    mins = np.minimum.reduce([np.abs(v) for v in (x1, x2, x3, x4)])
    bound = _m_values(p, mins) ** 2
    for v in (x1, x2, x3, x4):
        bound = bound / (p.N + np.abs(v))
    ok = bound > 0
    return float(np.max(vals[ok] / bound[ok]))
