"""Conserved quantities and the scaling symmetry of the quartic equation."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import ConfigError
from .evolution import EvolutionConfig, _energy_parts, evolve
from .spectral import Field, make_grid, sobolev_norm

__all__ = [
    "ConservedReport",
    "mass",
    "hamiltonian",
    "scale_transform",
    "check_scaling_covariance",
]


@dataclass
class ConservedReport:
    mass: float
    hamiltonian: float
    kinetic: float  # (1/2) int |u_xx|^2
    quartic: float  # int |u|^4


def mass(f: Field) -> float:
    """int |u|^2 dx by grid quadrature."""
    return float(f.grid.dx * np.sum(np.abs(f.values) ** 2))


def hamiltonian(f: Field, kappa: int = 1) -> ConservedReport:
    """Energy of i u_t = u_xxxx + kappa |u|^2 u.

    H = (1/2) int |u_xx|^2 + (kappa/4) int |u|^4.  The quartic coefficient
    +kappa/4 is forced by requiring dH/dt = 0 along the flow; the
    conservation test in the suite adjudicates the sign.
    """
    if kappa not in (1, -1):
        raise ConfigError("kappa must be +1 or -1")
    kinetic, quartic = (float(v) for v in _energy_parts(f, 2))
    return ConservedReport(
        mass=mass(f),
        hamiltonian=kinetic + kappa / 4 * quartic,
        kinetic=kinetic,
        quartic=quartic,
    )


class ScaledField(NamedTuple):
    field: Field
    time_factor: float  # evolve the scaled data for t, the original for time_factor*t


def scale_transform(f: Field, lam: float) -> ScaledField:
    """The map u -> lam^2 u(lam x) realized exactly on the frequency lattice.

    The returned field lives on a grid of length L/lam with the same mode
    count and carrier index; samples are lam^2 times the original samples
    and frequencies stretch to lam*xi_k, so homogeneous Sobolev norms scale
    exactly by lam^(s + 3/2).  Time rescales by the returned factor lam^4.
    """
    if not (np.isfinite(lam) and lam > 0):
        raise ConfigError("scaling factor must be positive")
    new_grid = make_grid(f.grid.L / lam, f.grid.M, f.grid.k0)
    return ScaledField(Field(new_grid, lam**2 * f.values), lam**4)


def check_scaling_covariance(
    f0: Field, lam: float, cfg: EvolutionConfig, t: float, dt_scaled: float | None = None
) -> float:
    """L^2 defect between scaling and evolving in either order.

    Run A evolves ``f0`` to time lam^4 t and then applies the scaling map;
    run B evolves the scaled data to time t (with its own step, by default
    the same dt as run A so the comparison probes genuine discretization
    error; passing ``dt_scaled = cfg.dt / lam^4`` makes the two runs
    commute to round-off).
    """
    if cfg.equation != "quartic":
        raise ConfigError("scaling covariance is a quartic-equation property")
    cfg_a = replace(cfg, t_end=lam**4 * t, record_fields=True)
    rec_a = evolve(f0, cfg_a)
    u_a = scale_transform(rec_a.final_field(), lam).field

    scaled0 = scale_transform(f0, lam).field
    cfg_b = replace(cfg, t_end=t, dt=dt_scaled or cfg.dt, record_fields=True)
    rec_b = evolve(scaled0, cfg_b)
    u_b = rec_b.final_field()

    diff = Field(u_a.grid, u_a.values - u_b.values)
    return sobolev_norm(diff, 0.0)
