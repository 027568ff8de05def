"""The scaling symmetry of the quartic equation.

The mass is ``spectral.mass`` and the energy ``evolution.conserved_energy``.
"""

from __future__ import annotations

from dataclasses import replace

from .errors import ConfigError, check_real
from .evolution import EvolutionConfig, evolve_many
from .spectral import Field, make_grid, sobolev_norm

__all__ = ["scale_transform", "check_scaling_covariance"]


def scale_transform(f: Field, lam: float) -> Field:
    """The map u -> lam^2 u(lam x) realized exactly on the frequency lattice.

    The returned field lives on a grid of length L/lam with the same mode
    count and carrier index; samples are lam^2 times the original samples
    and frequencies stretch to lam*xi_k, so homogeneous Sobolev norms scale
    exactly by lam^(s + 3/2).  Time rescales by lam^4: u -> lam^2 u(lam^4 t,
    lam x) maps solutions to solutions, so the scaled data evolved for t
    matches the original evolved for lam^4 t.
    """
    check_real("scaling factor", lam, positive=True)
    new_grid = make_grid(f.grid.L / lam, f.grid.M, f.grid.k0)
    return Field(new_grid, lam**2 * f.values)


def check_scaling_covariance(
    f0: Field, lam: float, cfg: EvolutionConfig, t: float, dt_scaled: float | None = None
) -> float:
    """L^2 defect between scaling and evolving in either order.

    Run A evolves ``f0`` to time lam^4 t and then applies the scaling map;
    run B evolves the scaled data to time t with its own step ``dt_scaled``:
    None, the default, takes the same dt as run A, so the comparison probes
    genuine discretization error; ``dt_scaled = cfg.dt / lam^4`` makes the
    two runs commute to round-off.

    The two runs are one ``evolve_many`` call: one stack when they take equal
    numbers of steps (lam = 1, or the commuting choice of ``dt_scaled``), two
    otherwise, with records equal to those of the two runs made alone.
    """
    if cfg.equation != "quartic":
        raise ConfigError("scaling covariance is a quartic-equation property")
    scaled0 = scale_transform(f0, lam)
    cfg_a = replace(cfg, t_end=lam**4 * t, record_fields=True)
    dt_b = cfg.dt if dt_scaled is None else dt_scaled
    cfg_b = replace(cfg, t_end=t, dt=dt_b, record_fields=True)
    rec_a, rec_b = evolve_many([f0, scaled0], [cfg_a, cfg_b])
    u_a = scale_transform(rec_a.final_field(), lam)
    u_b = rec_b.final_field()

    diff = Field(u_a.grid, u_a.values - u_b.values)
    return sobolev_norm(diff, 0.0)
