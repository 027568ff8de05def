"""Direct hyperplane sums that ``imethod.lambda_n``'s plane walk is checked against.

Both sum L * symbol * slots over k1 + ... + kn = 0, |kj| <= K, with the slot
pattern of ``lambda_n``: hat u_j(xi_k) in odd slots (1-based) and
conj(hat u_j(-xi_k)) in even slots.  ``direct_sum`` takes one k1 at a time
and the middle n - 2 indices as one array; ``brute_force`` takes one point
at a time, and pins ``direct_sum`` on small lattices.
"""

import itertools

import numpy as np

from fournls import to_spectrum
from fournls.imethod import _slot_coefs


def direct_sum(symbol, fields, K: int) -> complex:
    """The form of any even order n = len(fields); ``symbol`` gets n arrays of frequencies."""
    n = len(fields)
    grid = fields[0].grid
    slots = _slot_coefs(fields, K)
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
