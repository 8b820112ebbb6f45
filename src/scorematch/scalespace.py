"""Heat smoothing of grid densities and divergence curves over the scale factor.

The scale-space family p_t is the convolution of p with a zero-mean Gaussian
of variance t.  Along t, the KL divergence of a smoothed pair decays at a rate
set by their Fisher divergence, and the entropy of a smoothed density grows at
half its Fisher information; the residual functions below measure how well the
grid computations reproduce those identities.

Smoothing sums each output point directly over the kernel taps (one BLAS dot
product per point).  Every summand is nonnegative, so each smoothed value keeps
full relative precision, down to tails 1e-30 and more below the peak.  An FFT
convolution is not used: its absolute error (~1e-17 of the peak) would turn
those tails negative or zero, so `kl_exact` would see q vanish where p is
positive and the log-scores in the tails would be noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import GridDensity, grid_density, log_values, quad, support_mask
from .models import write_text
from .objectives import fisher_exact, kl_exact
from .operators import grid_gradient, grid_laplacian

# Gaussian kernels are truncated at this many standard deviations.
KERNEL_RADIUS_SIGMAS = 8.0
# Default t-grid for divergence curves.
DEFAULT_T_GRID = np.round(np.arange(0.02, 1.0 + 1e-9, 0.02), 10)


@dataclass(frozen=True)
class DivergenceCurve:
    """Sampled (t, KL, Fisher, dKL/dt) records; dkl_dt is NaN at endpoints."""

    t: np.ndarray
    kl: np.ndarray
    fisher: np.ndarray
    dkl_dt: np.ndarray

    def interior(self) -> np.ndarray:
        return ~np.isnan(self.dkl_dt)

    def to_csv(self, path) -> None:
        lines = ["t,kl,fisher,dkl_dt"]
        for i in range(self.t.size):
            dk = "" if np.isnan(self.dkl_dt[i]) else f"{self.dkl_dt[i]:.17g}"
            lines.append(f"{self.t[i]:.17g},{self.kl[i]:.17g},{self.fisher[i]:.17g},{dk}")
        write_text(path, "\n".join(lines) + "\n")


def _kernel(t: float, h: float, half_extent: float) -> np.ndarray:
    sigma = np.sqrt(t)
    radius = int(np.ceil(KERNEL_RADIUS_SIGMAS * sigma / h))
    if radius * h > half_extent:
        raise ValueError(
            f"smoothing kernel (radius {radius * h:.3g}) wider than half the box"
        )
    offsets = np.arange(-radius, radius + 1) * h
    k = np.exp(-(offsets**2) / (2.0 * t))
    return k / k.sum()


def smooth(p: GridDensity, t: float) -> GridDensity:
    """Convolve with a sampled Gaussian of variance t (per axis), renormalize."""
    if t < 0:
        raise ValueError("scale factor must be nonnegative")
    if t == 0.0:
        return p
    values = p.values
    for ax, (h, (lo, hi)) in enumerate(zip(p.spacing, p.box)):
        # _kernel's width check keeps k no longer than the axis, so "same"
        # returns the n outputs centred on the grid points (zero padding).
        k = _kernel(t, h, (hi - lo) / 2.0)
        values = np.apply_along_axis(np.convolve, ax, values, k, mode="same")
    return grid_density(p.axes, values, require_decay=False)


def entropy(p: GridDensity) -> float:
    lp = log_values(p)
    return quad(p, np.where(p.values > 0, -p.values * lp, 0.0))


def fisher_information(p: GridDensity) -> float:
    mask = support_mask(p)
    score = grid_gradient(log_values(p), p.spacing)
    sq = np.zeros_like(p.values)
    for comp in score:
        sq += comp**2
    return quad(p, np.where(mask, p.values * sq, 0.0))


def heat_pde_residual(p: GridDensity, t: float, dt: float) -> float:
    """Max-norm mismatch between d/dt of the smoothed density and half its
    grid Laplacian; shrinks as O(h^2 + dt^2) under refinement."""
    if not t > dt > 0:
        raise ValueError("need t > dt > 0")
    ddt = (smooth(p, t + dt).values - smooth(p, t - dt).values) / (2.0 * dt)
    lap = grid_laplacian(smooth(p, t).values, p.spacing)
    return float(np.abs(ddt - 0.5 * lap).max())


def lemma1_residual(f: GridDensity, support_frac: float = 1e-2) -> float:
    """Max-norm residual of lap(f)/f = lap(log f) + |grad log f|^2 on the grid.

    Measured only where f >= support_frac * max(f): in the far tails the
    relative stencil error of lap(f)/f grows like the fourth log-derivative
    and would swamp the O(h^2) interior behavior.
    """
    vals = f.values
    if np.any(vals[support_mask(f)] <= 0):
        raise ValueError("density must be positive on its support")
    mask = vals >= support_frac * vals.max()
    lf = log_values(f)
    lhs = grid_laplacian(vals, f.spacing) / np.maximum(vals, 1e-300)
    score = grid_gradient(lf, f.spacing)
    sq = np.zeros_like(vals)
    for comp in score:
        sq += comp**2
    rhs = grid_laplacian(lf, f.spacing) + sq
    return float(np.abs(lhs - rhs)[mask].max())


def divergence_curve(p: GridDensity, q: GridDensity, t_grid=None) -> DivergenceCurve:
    """KL and Fisher divergences of the smoothed pair along a grid of scale
    factors, with centrally differenced dKL/dt (absent at the endpoints)."""
    t = DEFAULT_T_GRID.copy() if t_grid is None else np.asarray(t_grid, dtype=float)
    if t.size < 1 or np.any(np.diff(t) <= 0):
        raise ValueError("t grid must be strictly increasing")
    kl = np.empty(t.size)
    fisher = np.empty(t.size)
    for i, ti in enumerate(t):
        pt, qt = smooth(p, ti), smooth(q, ti)
        kl[i] = kl_exact(pt, qt)
        fisher[i] = fisher_exact(pt, qt)
    dkl = np.full(t.size, np.nan)
    if t.size >= 3:
        dkl[1:-1] = (kl[2:] - kl[:-2]) / (t[2:] - t[:-2])
    return DivergenceCurve(t=t, kl=kl, fisher=fisher, dkl_dt=dkl)


def theorem1_residual(curve: DivergenceCurve) -> float:
    """Relative mismatch of dKL/dt against -Fisher/2 over the interior points."""
    interior = curve.interior()
    if interior.sum() < 3:
        raise ValueError("curve needs at least 3 interior points")
    num = np.abs(curve.dkl_dt[interior] + 0.5 * curve.fisher[interior])
    den = np.maximum(curve.fisher[interior], 1e-12)
    return float((num / den).max())


def debruijn_residual(p: GridDensity, t_grid) -> float:
    """Relative mismatch of dH/dt against J/2 for the smoothed density."""
    t = np.asarray(t_grid, dtype=float)
    if t.size < 3 or np.any(np.diff(t) <= 0):
        raise ValueError("t grid must be strictly increasing with >= 3 points")
    H = np.empty(t.size)
    J = np.empty(t.size)
    for i, ti in enumerate(t):
        pt = smooth(p, ti)
        H[i] = entropy(pt)
        J[i] = fisher_information(pt)
    dh = (H[2:] - H[:-2]) / (t[2:] - t[:-2])
    return float(np.max(np.abs(dh - 0.5 * J[1:-1]) / np.maximum(J[1:-1], 1e-12)))
