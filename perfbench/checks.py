"""Correctness checks of the benchmark's operations.

Each check compares one number against a property the method must have, or
against a value the benchmark computes itself, never against a stored copy of
an earlier output.  A check returns a record of the compared number, its
bound and the verdict, so that every run's output shows the numbers next to
the times.
"""

from __future__ import annotations

import numpy as np


def _record(name, value, bound, passed):
    return {"name": name, "value": float(value), "bound": bound, "passed": bool(passed)}


def below(name, value, limit):
    """``value < limit``."""
    return _record(name, value, f"< {limit:g}", value < limit)


def at_most(name, value, limit):
    """``value <= limit``."""
    return _record(name, value, f"<= {limit:g}", value <= limit)


def at_least(name, value, limit):
    """``value >= limit``."""
    return _record(name, value, f">= {limit:g}", value >= limit)


def within(name, value, target, tol):
    """``|value - target| < tol``."""
    return _record(name, value, f"{target:g} +/- {tol:g}", abs(value - target) < tol)


def between(name, value, lo, hi):
    """``lo <= value <= hi``."""
    return _record(name, value, f"in [{lo:g}, {hi:g}]", lo <= value <= hi)


def l2_norm(values, dx):
    """Grid quadrature of the L^2 norm, independent of the program's norms."""
    return float(np.sqrt(dx * np.sum(np.abs(values) ** 2)))


def quartic_integral(values, dx):
    """Grid quadrature of int |u|^4 dx.

    For u band-limited to |k| <= K on M > 4K points, |u|^4 is a trigonometric
    polynomial of degree 4K < M and the periodic trapezoid rule is exact.
    """
    return float(dx * np.sum(np.abs(values) ** 4))


# -- per-operation checks -----------------------------------------------------


def evolve_checks(results):
    """Conservation along the default split-step run (harness ``evolve`` report)."""
    return [
        below("mass_drift", results["mass_drift"], 1e-8),
        below("hamiltonian_drift", results["hamiltonian_drift"], 1e-6),
    ]


def covariance_checks(defect):
    """Scaling covariance at the common time step: a discretisation error only."""
    return [below("covariance_defect", defect, 1e-6)]


def commuting_covariance_checks(defect, l2):
    """At dt / lam^4 the two runs take the same steps and agree to round-off."""
    return [at_most("covariance_defect_commuting_rel", defect / l2, 1e-12)]


def decay_checks(alpha, slope):
    """Dispersive decay ||D^alpha e^{it dx^4} u0||_inf ~ t^{-(1+alpha)/4}."""
    tol = 0.03 if alpha == 0 else 0.05
    return [within(f"decay_slope_alpha{alpha:g}", slope, -(1 + alpha) / 4, tol)]


def kernel_checks(worst):
    """K_t(x) = t^{-(alpha+1)/4} K_1(x t^{-1/4}) on the evaluated set."""
    return [below("kernel_self_similarity", worst, 1e-5)]


def almost_conservation_checks(slope_corrected, slope_uncorrected):
    """The corrected increment decays near N^-3; the uncorrected slope is recorded."""
    return [
        between("corrected_slope", slope_corrected, -4.0, -2.0),
        _record("uncorrected_slope", slope_uncorrected, "recorded", True),
    ]


def identity_checks(defect2):
    """Finite-difference dE2/dt along the Galerkin flow against Re(i Lambda4(M4))."""
    return [below("identity_defect2", defect2, 1e-6)]


def m6_fit_checks(c, ratios):
    """dE4/dt = c Re Lambda6(M6) with c = 4, the same on every state."""
    spread = float(np.max(ratios) - np.min(ratios))
    return [within("m6_constant", c, 4.0, 1e-3), below("m6_spread", spread, 1e-3)]


def lambda4_quadrature_checks(lam4_value, snapshot):
    """Lambda4(1; u) equals int |u|^4 dx by the benchmark's own quadrature."""
    ref = quartic_integral(snapshot.values, snapshot.grid.dx)
    rel = abs(complex(lam4_value) - ref) / ref
    return [below("lambda4_quadrature_rel", rel, 1e-10)]


def residual_checks(fine, coarse):
    """Residual identity: small at fd step 1e-5 and smaller than at 1e-4."""
    return [
        below("residual_defect_fine", fine, 1e-3),
        below("residual_defect_fine_over_coarse", fine / coarse, 1.0),
    ]


def tracking_checks(slope):
    """The approximate solution tracks the true one to O(N^-2)."""
    return [within("tracking_slope", slope, -2.0, 0.4)]


def separation_checks(initial_ratio, sup_ratio):
    """Two data eps/10 apart at t = 0 separate to eps/2 and beyond."""
    return [
        at_most("separation_initial_over_eps", initial_ratio, 0.1),
        at_least("separation_sup_over_eps", sup_ratio, 0.5),
    ]
