"""Heat smoothing of grid densities and divergence curves over the scale factor.

The scale-space family p_t is the convolution of p with a zero-mean Gaussian
of variance t.  Along t, the KL divergence of a smoothed pair decays at half
their Fisher divergence (Theorem 1).  De Bruijn's identity, entropy growing at
half the Fisher information, is Theorem 1 against the flat reference, which
the flow leaves flat: its KL is -H(p_t) and its Fisher divergence J(p_t).  The
residual functions below measure how well the grids reproduce both.

Smoothing sums each output point directly over the taps of a sampled Gaussian
cut at 8 standard deviations (one BLAS dot product per point).  Every summand
is nonnegative, so rounding leaves each smoothed value within a few ulps of its
sum over the cut kernel, down to tails 1e-30 and more below the peak.  An FFT
convolution is not used: its absolute error (~1e-17 of the peak) would turn
those tails negative or zero, so `kl_exact` would see q vanish where p is
positive and the log-scores in the tails would be noise.

The cut itself is not negligible in the tails, where most of a smoothed value
comes from mass more than 8 sigma away.  Against the untruncated sampled
convolution, `smooth` of a unit-variance Gaussian on a 4096-point grid over
[-12, 12] is off by up to 4.9e-5 relative where the result exceeds 1e-12 of
its peak (t <= 1), and by up to 8.1e-3 down to 1e-30 of the peak; a 2-D grid
measured up to 8e-4 on the first region.  Divergence curves and de Bruijn
sweeps step along the heat semigroup instead (`_heat_flow`), whose composed
kernel is not cut at 8 sigma of the total t: on the same densities they stay
within 5.2e-12 and 1.8e-10 relative of that convolution.

A sweep does each piece of work once per scale.  A flow builds its kernel
once per run of bitwise-equal steps, and a 1-D step allocates one state-sized
array, the convolution's own result.  Each smoothed pair takes one log ratio
for both its KL and Fisher divergences, and each de Bruijn point, paired with
the flat reference, one log of p.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .grids import GridDensity, grid_density, log_values, quad
from .objectives import _grid_divergences
from .operators import grid_gradient, grid_laplacian, squared_norm

# Gaussian kernels are truncated at this many standard deviations.
KERNEL_RADIUS_SIGMAS = 8.0
# Sampled Gaussians compose only up to an aliasing error of about
# exp(-pi^2 sigma^2 / (2 h^2)) (Lindeberg 1990), so the heat flow takes no
# step whose sigma is below this many grid spacings h.
ALIAS_FREE_STEPS = 5.0
# OpenBLAS runs a dot product of more than this many terms on several
# threads, so `_convolve_same` takes no dot product longer than this.
BLAS_DOT_TAPS = 10_000
# Relative density floor of the region `lemma1_residual` measures.
LEMMA1_SUPPORT = 1e-2


@dataclass(frozen=True)
class DivergenceCurve:
    """Sampled (t, KL, Fisher, dKL/dt) records; dkl_dt is NaN at endpoints."""

    t: np.ndarray
    kl: np.ndarray
    fisher: np.ndarray
    dkl_dt: np.ndarray

    def interior(self) -> np.ndarray:
        return ~np.isnan(self.dkl_dt)

    def to_csv(self) -> str:
        lines = ["t,kl,fisher,dkl_dt"]
        for i in range(self.t.size):
            dk = "" if np.isnan(self.dkl_dt[i]) else f"{self.dkl_dt[i]:.17g}"
            lines.append(f"{self.t[i]:.17g},{self.kl[i]:.17g},{self.fisher[i]:.17g},{dk}")
        return "\n".join(lines) + "\n"


def _radius(t: float, h: float, half_extent: float) -> int:
    """Taps on each side of the kernel of variance t; it may span at most
    half the box."""
    radius = int(np.ceil(KERNEL_RADIUS_SIGMAS * np.sqrt(t) / h))
    if radius * h > half_extent:
        raise ValueError(
            f"smoothing kernel (radius {radius * h:.3g}) wider than half the box"
        )
    return radius


def _kernel(t: float, h: float, half_extent: float) -> np.ndarray:
    radius = _radius(t, h, half_extent)
    offsets = np.arange(-radius, radius + 1) * h
    k = np.exp(-(offsets**2) / (2.0 * t))
    return k / k.sum()


def _kernels(t: float, p: GridDensity) -> list[np.ndarray]:
    """The sampled Gaussian of variance t for each axis of p's grid."""
    return [_kernel(t, h, (hi - lo) / 2.0) for h, (lo, hi) in zip(p.spacing, p.box)]


def _convolve(values: np.ndarray, kernels: list[np.ndarray]) -> np.ndarray:
    """Convolve values, laid out on a grid or on that grid zero-padded, along
    each axis with that axis's kernel.

    _kernel's width check keeps each kernel no longer than its axis, so
    "same" returns one output centred on each input point (zero padding).  On
    a 1-D grid the result is `_convolve_same`'s own array.
    """
    if values.ndim == 1:
        return _convolve_same(values, kernels[0])
    for ax, k in enumerate(kernels):
        values = np.apply_along_axis(_convolve_same, ax, values, k)
    return values


def _convolve_same(values: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """np.convolve(values, kernel, "same") for a kernel no longer than values.

    np.convolve takes one BLAS dot product per output point over the kernel's
    taps, and OpenBLAS splits a ddot of more than BLAS_DOT_TAPS terms across
    its threads, which changes the rounding with the thread count.  A longer
    kernel is therefore convolved in chunks of at most that many taps, each
    chunk's full convolution added at its offset, so the bytes do not depend
    on the thread count; a shorter one keeps np.convolve's single call.
    """
    if kernel.size <= BLAS_DOT_TAPS:
        return np.convolve(values, kernel, mode="same")
    # Output i of "same" is the full convolution at i + half.
    half, n = (kernel.size - 1) // 2, values.size
    out = np.zeros(n)
    for start in range(0, kernel.size, BLAS_DOT_TAPS):
        part = np.convolve(values, kernel[start:start + BLAS_DOT_TAPS])
        # part[j] is the whole convolution's term at j + start.
        lo, hi = max(0, start - half), min(n, part.size + start - half)
        out[lo:hi] += part[lo + half - start:hi + half - start]
    return out


def smooth(p: GridDensity, t: float) -> GridDensity:
    """Convolve with a sampled Gaussian of variance t (per axis), renormalize."""
    if t < 0:
        raise ValueError("scale factor must be nonnegative")
    if t == 0.0:
        return p
    return grid_density(p.axes, _convolve(p.values, _kernels(t, p)), require_decay=False)


def _heat_flow(p: GridDensity, t_grid) -> Iterator[GridDensity]:
    """Yield p smoothed by each t of an increasing grid of scale factors.

    Since p_(t+dt) = p_t * G_dt, each output takes one step of variance dt
    from the one before instead of smoothing p by t again: a K-point sweep
    to T then costs kernel taps in proportion to sqrt(T K) per grid point
    rather than K^(3/2).  The state is p zero-padded on each axis by the
    radius of the widest kernel, so the mass a step carries out of the box
    comes back in on later steps as it does in the untruncated convolution.
    The composed kernel is therefore not cut at 8 sigma of the total t, and
    the outputs are closer than `smooth`'s to that convolution.

    A step whose sigma is below ALIAS_FREE_STEPS grid spacings is not taken:
    that output is `smooth(p, t)` (p itself at t = 0), and the state stays
    put.

    The kernels are built again only when a step's size differs bitwise
    from the last step's, so a run of equal steps shares one build and every
    output has the bytes a fresh build would give.  A 1-D step allocates one
    state-sized array, the convolution's result, which becomes the state and
    is normalized in place.  Each output is a view into a state that is
    never written again, so it stays valid after the flow moves on.
    """
    if t_grid[0] < 0:
        raise ValueError("scale factor must be nonnegative")
    radii = [_radius(t_grid[-1], h, (hi - lo) / 2.0) for h, (lo, hi) in zip(p.spacing, p.box)]
    crop = tuple(slice(r, r + n) for r, n in zip(radii, p.shape))
    min_step = (ALIAS_FREE_STEPS * max(p.spacing)) ** 2
    state, t_state = np.pad(p.values, [(r, r) for r in radii]), 0.0
    step = kernels = None
    for t in t_grid:
        if t - t_state < min_step:
            yield smooth(p, t)
            continue
        if t - t_state != step:
            step = t - t_state
            kernels = _kernels(step, p)
        state, t_state = _convolve(state, kernels), t
        state /= quad(p, state[crop])
        yield GridDensity(axes=p.axes, values=state[crop])


def entropy(p: GridDensity) -> float:
    """H(p), minus p's KL from the flat reference (see `_grid_divergences`)."""
    return -_grid_divergences(p, None, with_fisher=False)[0]


def fisher_information(p: GridDensity) -> float:
    """J(p), p's Fisher divergence from the flat reference."""
    return _grid_divergences(p, None, with_kl=False)[1]


def heat_pde_residual(p: GridDensity, t: float, dt: float) -> float:
    """Max-norm mismatch between d/dt of the smoothed density and half its
    grid Laplacian; shrinks as O(h^2 + dt^2) under refinement."""
    if not t > dt > 0:
        raise ValueError("need t > dt > 0")
    ddt = (smooth(p, t + dt).values - smooth(p, t - dt).values) / (2.0 * dt)
    lap = grid_laplacian(smooth(p, t).values, p.spacing)
    return float(np.abs(ddt - 0.5 * lap).max())


def lemma1_residual(f: GridDensity) -> float:
    """Max-norm residual of lap(f)/f = lap(log f) + |grad log f|^2 on the grid.

    Measured only where f >= LEMMA1_SUPPORT * max(f): in the far tails the
    relative stencil error of lap(f)/f grows like the fourth log-derivative
    and would swamp the O(h^2) interior behavior.
    """
    vals = f.values
    mask = vals >= LEMMA1_SUPPORT * vals.max()
    lf = log_values(f)
    lhs = grid_laplacian(vals, f.spacing) / np.maximum(vals, 1e-300)
    rhs = grid_laplacian(lf, f.spacing) + squared_norm(grid_gradient(lf, f.spacing))
    return float(np.abs(lhs - rhs)[mask].max())


def divergence_curve(p: GridDensity, q: GridDensity | None, t_grid) -> DivergenceCurve:
    """KL and Fisher divergences of the smoothed pair along a grid of scale
    factors, with centrally differenced dKL/dt (absent at the endpoints).

    q = None is the flat reference: kl is then -H(p_t) and fisher J(p_t)."""
    t = np.asarray(t_grid, dtype=float)
    if t.size < 1 or np.any(np.diff(t) <= 0):
        raise ValueError("t grid must be strictly increasing")
    kl = np.empty(t.size)
    fisher = np.empty(t.size)
    # Each output is a view that keeps its flow's padded state alive, so both
    # are dropped before the flows step again.
    p_flow = _heat_flow(p, t)
    q_flow = repeat(None) if q is None else _heat_flow(q, t)
    for i in range(t.size):
        pt, qt = next(p_flow), next(q_flow)
        kl[i], fisher[i] = _grid_divergences(pt, qt)
        del pt, qt
    dkl = np.full(t.size, np.nan)
    if t.size >= 3:
        dkl[1:-1] = (kl[2:] - kl[:-2]) / (t[2:] - t[:-2])
    return DivergenceCurve(t=t, kl=kl, fisher=fisher, dkl_dt=dkl)


def _rate_residual(curve: DivergenceCurve) -> float:
    """max |dKL/dt + Fisher/2| / max(Fisher, 1e-12) over the interior points."""
    interior = curve.interior()
    num = np.abs(curve.dkl_dt[interior] + 0.5 * curve.fisher[interior])
    den = np.maximum(curve.fisher[interior], 1e-12)
    return float((num / den).max())


def theorem1_residual(curve: DivergenceCurve) -> float:
    """Relative mismatch of dKL/dt against -Fisher/2 over the interior points."""
    if curve.interior().sum() < 3:
        raise ValueError("curve needs at least 3 interior points")
    return _rate_residual(curve)


def debruijn_residual(p: GridDensity, t_grid) -> float:
    """Relative mismatch of dH/dt against J/2 for the smoothed density: the
    rate residual of p's curve against the flat reference, on >= 1 interior point."""
    t = np.asarray(t_grid, dtype=float)
    if t.size < 3 or np.any(np.diff(t) <= 0):
        raise ValueError("t grid must be strictly increasing with >= 3 points")
    return _rate_residual(divergence_curve(p, None, t))
