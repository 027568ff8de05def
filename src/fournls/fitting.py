"""Log-log power-law fitting, the universal output of exponent experiments."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

__all__ = ["FitResult", "fit_loglog"]


@dataclass
class FitResult:
    """Least-squares line through (log x, log y)."""

    slope: float
    intercept: float
    residual_rms: float
    slope_stderr: float
    points: list


def fit_loglog(points) -> FitResult:
    """Fit ``log y = slope * log x + intercept`` by least squares.

    Requires at least 4 finite, strictly positive points with a
    non-degenerate x-range; the residual RMS is reported in log units.
    """
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 4:
        raise ConfigError(f"need at least 4 points for a fit, got {len(pts)}")
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise ConfigError("log-log fit requires finite values")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ConfigError("log-log fit requires strictly positive values")
    lx, ly = np.log(xs), np.log(ys)
    if np.ptp(lx) == 0:
        raise ConfigError("degenerate x-range")
    A = np.vstack([lx, np.ones_like(lx)]).T
    (slope, intercept), res, _, _ = np.linalg.lstsq(A, ly, rcond=None)
    fitted = A @ np.array([slope, intercept])
    resid = ly - fitted
    rms = float(np.sqrt(np.mean(resid**2)))
    sxx = np.sum((lx - lx.mean()) ** 2)
    stderr = float(np.sqrt(np.sum(resid**2) / (len(pts) - 2) / sxx))
    return FitResult(
        slope=float(slope),
        intercept=float(intercept),
        residual_rms=rms,
        slope_stderr=stderr,
        points=[(float(a), float(b)) for a, b in zip(lx, ly)],
    )
