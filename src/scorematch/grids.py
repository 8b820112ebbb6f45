"""Densities discretized on regular 1-D/2-D grids, with trapezoid quadrature."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

# Floor applied before taking logs of density values.
LOG_FLOOR = 1e-300
# Score-based quadratures only see nodes where the density exceeds this
# fraction of its peak; far tails carry no mass but destroy log stencils.
SUPPORT_FRAC = 1e-12
# Hard cap on boundary values relative to the peak; boxes should be chosen so
# the density decays to ~1e-12 of its peak, enforced loosely here.
BOUNDARY_FRAC = 1e-9


class BoundaryError(ValueError):
    """A density that does not decay at its box's boundary."""


@dataclass(frozen=True)
class GridDensity:
    """A normalized density sampled on a uniform rectangular grid.

    ``axes`` holds one or two strictly increasing, uniformly spaced coordinate
    arrays; ``values`` has the matching shape and integrates to one under
    trapezoid quadrature.
    """

    axes: tuple[np.ndarray, ...]
    values: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.axes)

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(float(a[1] - a[0]) for a in self.axes)

    @property
    def box(self) -> tuple[tuple[float, float], ...]:
        return tuple((float(a[0]), float(a[-1])) for a in self.axes)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape


def uniform_axis(lo: float, hi: float, n: int) -> np.ndarray:
    if not hi > lo:
        raise ValueError(f"empty axis [{lo}, {hi}]")
    if n < 4:
        raise ValueError("need at least 4 grid points per axis")
    return np.linspace(lo, hi, n)


def quad_weights(axes: tuple[np.ndarray, ...]) -> np.ndarray:
    """Tensor-product trapezoid weights for the given axes, read-only.

    They depend only on each axis's point count and spacing, so every grid of
    one geometry shares one array: a divergence curve takes hundreds of
    quadratures on a single grid."""
    return _trapezoid_weights(tuple((len(a), float(a[1] - a[0])) for a in axes))


@lru_cache(maxsize=8)
def _trapezoid_weights(geometry: tuple[tuple[int, float], ...]) -> np.ndarray:
    w = reduce(np.multiply.outer, [np.r_[h / 2, np.full(n - 2, h), h / 2] for n, h in geometry])
    w.flags.writeable = False
    return w


def grid_density(
    axes: tuple[np.ndarray, ...] | list[np.ndarray],
    values: np.ndarray,
    require_decay: bool = True,
) -> GridDensity:
    """Build a GridDensity, renormalizing ``values`` to unit mass."""
    axes = tuple(np.asarray(a, dtype=float) for a in axes)
    if len(axes) not in (1, 2):
        raise ValueError("only 1-D and 2-D grids are supported")
    values = np.asarray(values, dtype=float)
    if values.shape != tuple(len(a) for a in axes):
        raise ValueError("values shape does not match axes")
    for a in axes:
        steps = np.diff(a)
        if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
            raise ValueError("axes must be uniformly spaced")
    if np.any(values < 0) or not np.all(np.isfinite(values)):
        raise ValueError("density values must be finite and nonnegative")
    mass = float(np.sum(quad_weights(axes) * values))
    if mass <= 0:
        raise ValueError("density has no mass")
    values = values / mass
    if require_decay:
        peak = values.max()
        edge = _boundary_max(values)
        if edge > BOUNDARY_FRAC * peak:
            raise BoundaryError(
                f"density does not decay at the box boundary "
                f"(edge/peak = {edge / peak:.3g})"
            )
    return GridDensity(axes=axes, values=values)


def _boundary_max(values: np.ndarray) -> float:
    return float(max(np.take(values, [0, -1], axis=k).max() for k in range(values.ndim)))


def same_geometry(p: GridDensity, q: GridDensity) -> bool:
    return p.dim == q.dim and all(
        a.shape == b.shape and np.array_equal(a, b) for a, b in zip(p.axes, q.axes)
    )


def require_same_geometry(p: GridDensity, q: GridDensity) -> None:
    if not same_geometry(p, q):
        raise ValueError("grid geometries do not match")


def quad(g: GridDensity, integrand: np.ndarray, overwrite: bool = False) -> float:
    """Trapezoid integral over g's grid; with overwrite the weighted integrand
    is formed in integrand's own buffer instead of a new array."""
    if overwrite:
        integrand *= quad_weights(g.axes)
        return float(np.sum(integrand))
    return float(np.sum(quad_weights(g.axes) * integrand))


def support_mask(g: GridDensity) -> np.ndarray:
    return g.values > SUPPORT_FRAC * g.values.max()


def log_values(g: GridDensity) -> np.ndarray:
    """log of the values floored at LOG_FLOOR, taken in the floor's buffer."""
    out = np.maximum(g.values, LOG_FLOOR)
    return np.log(out, out=out)


def from_function(fn, box, n) -> GridDensity:
    """Sample an unnormalized nonnegative function on a box and normalize.

    ``box`` holds one (lo, hi) per axis and ``n`` is the point count of every
    axis; ``fn`` takes one coordinate array per axis, each shaped like the
    grid (``np.meshgrid(*axes, indexing="ij")``), and returns the values.
    """
    axes = tuple(uniform_axis(lo, hi, int(n)) for lo, hi in box)
    return grid_density(axes, fn(*np.meshgrid(*axes, indexing="ij")))


def gaussian_1d(mu: float, var: float, box=(-12.0, 12.0), n: int = 4096) -> GridDensity:
    if var <= 0:
        raise ValueError("variance must be positive")
    return from_function(lambda x: np.exp(-((x - mu) ** 2) / (2.0 * var)), (box,), n)


def mixture_1d(components, box=(-12.0, 12.0), n: int = 4096) -> GridDensity:
    """Gaussian mixture from (weight, mu, var) triples."""
    components = list(components)
    if not components:
        raise ValueError("mixture needs at least one component")

    def fn(x):
        out = np.zeros_like(x)
        for w, mu, var in components:
            if w < 0 or var <= 0:
                raise ValueError("weights must be >= 0 and variances > 0")
            out += w / np.sqrt(2 * np.pi * var) * np.exp(-((x - mu) ** 2) / (2 * var))
        return out

    return from_function(fn, (box,), n)
