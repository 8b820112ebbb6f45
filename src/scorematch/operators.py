"""Linear operators on densities: grid gradient and discrete marginalization.

Each operator has an adjoint residual check: `gradient_adjoint_residual`
against the negative divergence under trapezoid quadrature, and
`marginalization_adjoint_residual` against the summed per-coordinate
marginalization.  The telescoping joint-ratio reconstruction from singleton
conditionals (`brook_ratio`, `reconstruct_joint`) makes the marginalization
operator information-complete.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import quad_weights


@dataclass(frozen=True)
class DiscreteJoint:
    """Dense joint distribution over {0..m-1}^d, stored as an (m,)*d table.

    Row-major state indexing, coordinate 0 slowest:
    idx = sum_i x_i * m**(d-1-i), i.e. plain C-order flattening.
    """

    m: int
    d: int
    probs: np.ndarray


def discrete_joint(probs: np.ndarray) -> DiscreteJoint:
    """A joint from an (m,)*d table of nonnegative finite weights, not all 0,
    divided by their sum unless it is already 1 within 1e-12."""
    probs = np.asarray(probs, dtype=float)
    m = probs.shape[0]
    if any(s != m for s in probs.shape):
        raise ValueError("joint table must be an (m,)*d cube")
    if np.any(probs < 0):
        raise ValueError("joint probabilities must be nonnegative")
    total = probs.sum()
    if not np.isfinite(total):  # a NaN entry passes the sign test, but not this one
        raise ValueError("joint probabilities must be finite")
    if total == 0:
        raise ValueError("joint probabilities must not all be 0")
    if abs(total - 1.0) > 1e-12:
        probs = probs / total
    return DiscreteJoint(m=m, d=probs.ndim, probs=probs)


# ---------------------------------------------------------------------------
# Grid stencils (second-order central in the interior, one-sided at the edges)

def grid_gradient(values: np.ndarray, spacing: tuple[float, ...]) -> list[np.ndarray]:
    """One component per axis, equal bit for bit to np.gradient(values, h,
    axis=ax, edge_order=1) but written straight into its output: no
    temporary the size of the grid."""
    values = np.asarray(values, dtype=float)
    components = []
    for ax in range(values.ndim):
        h = spacing[ax]
        # Any view with axis ax first serves: the stencil is elementwise.
        f = values.swapaxes(ax, 0)
        out = np.empty_like(values)
        g = out.swapaxes(ax, 0)
        np.subtract(f[2:], f[:-2], out=g[1:-1])
        g[1:-1] /= 2.0 * h
        g[0] = (f[1] - f[0]) / h
        g[-1] = (f[-1] - f[-2]) / h
        components.append(out)
    return components


def squared_norm(components: list[np.ndarray]) -> np.ndarray:
    """Pointwise sum of squares of a vector field's components, in order.

    Consumes the list: each component is squared in place and dropped once
    it is added, so at most two component arrays are alive at a time.
    """
    out = components.pop(0)
    np.square(out, out=out)
    while components:
        comp = components.pop(0)
        out += np.square(comp, out=comp)
    return out


def _second_diff(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    f = np.moveaxis(values, axis, 0)
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - 2.0 * f[1:-1] + f[:-2]) / h**2
    # second-order one-sided stencils at the two boundary layers
    out[0] = (2 * f[0] - 5 * f[1] + 4 * f[2] - f[3]) / h**2
    out[-1] = (2 * f[-1] - 5 * f[-2] + 4 * f[-3] - f[-4]) / h**2
    return np.moveaxis(out, 0, axis)


def grid_laplacian(values: np.ndarray, spacing: tuple[float, ...]) -> np.ndarray:
    out = np.zeros_like(values, dtype=float)
    for ax in range(values.ndim):
        out += _second_diff(values, spacing[ax], ax)
    return out


def grid_divergence(components: list[np.ndarray], spacing: tuple[float, ...]) -> np.ndarray:
    out = np.zeros_like(components[0], dtype=float)
    for ax, g in enumerate(components):
        out += np.gradient(g, spacing[ax], axis=ax, edge_order=1)
    return out


# ---------------------------------------------------------------------------
# Marginalization operator on dense joint tables

def marginalize(table: np.ndarray) -> np.ndarray:
    """Apply the marginalization operator; component i sums out coordinate i.

    Returns shape (d,) + table.shape; component i is constant along axis i.
    """
    d = table.ndim
    out = np.empty((d,) + table.shape, dtype=float)
    for i in range(d):
        out[i] = np.broadcast_to(table.sum(axis=i, keepdims=True), table.shape)
    return out


def marginalization_adjoint_residual(f: np.ndarray, g: np.ndarray) -> float:
    """|<Mf, g> - <f, sum_i M_i g_i>| on a finite discrete space (exact identity)."""
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    if g.shape != (f.ndim,) + f.shape:
        raise ValueError("g must have shape (d,) + f.shape")
    mf = marginalize(f)
    lhs = float(np.sum(mf * g))
    adj = np.zeros_like(f)
    for i in range(f.ndim):
        adj += np.broadcast_to(g[i].sum(axis=i, keepdims=True), f.shape)
    rhs = float(np.sum(f * adj))
    return abs(lhs - rhs)


def gradient_adjoint_residual(f: np.ndarray, g: list[np.ndarray], axes) -> float:
    """|<grad f, g> - <f, -div g>| under trapezoid quadrature on a grid.

    Exact only up to boundary terms; meaningful for compactly supported g.
    """
    f = np.asarray(f, dtype=float)
    spacing = tuple(float(a[1] - a[0]) for a in axes)
    w = quad_weights(tuple(np.asarray(a, dtype=float) for a in axes))
    grads = grid_gradient(f, spacing)
    lhs = float(sum(np.sum(w * gf * gi) for gf, gi in zip(grads, g)))
    rhs = float(np.sum(w * f * (-grid_divergence(list(g), spacing))))
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# Brook reconstruction: singleton conditionals -> joint

class ZeroConditionalError(ValueError):
    def __init__(self, coordinate: int):
        super().__init__(
            f"zero singleton conditional encountered at coordinate {coordinate}"
        )
        self.coordinate = coordinate


def brook_ratio(conds, xi, xi_tilde) -> float:
    """Joint probability ratio p(xi)/p(xi_tilde) from singleton conditionals.

    ``conds(i, x)`` must return the length-m conditional distribution of
    coordinate i given the other coordinates of x.  The telescoping product
    walks the coordinates 0..d-1, swapping one coordinate at a time from xi
    to xi_tilde.
    """
    xi = [int(v) for v in xi]
    xi_tilde = [int(v) for v in xi_tilde]
    d = len(xi)
    if len(xi_tilde) != d:
        raise ValueError("state dimensions differ")
    x = list(xi)
    ratio = 1.0
    for k in range(d):
        c = np.asarray(conds(k, x), dtype=float)
        num, den = c[xi[k]], c[xi_tilde[k]]
        if num <= 0.0 or den <= 0.0:
            raise ZeroConditionalError(k)
        ratio *= num / den
        x[k] = xi_tilde[k]
    return ratio


def joint_conditionals(joint: DiscreteJoint):
    """Singleton-conditional accessor backed by a dense joint table."""

    def conds(i, x):
        idx = tuple(slice(None) if j == i else int(x[j]) for j in range(joint.d))
        col = joint.probs[idx]
        total = col.sum()
        if total <= 0.0:
            raise ZeroConditionalError(i)
        return col / total

    return conds


def reconstruct_joint(conds, m: int, d: int) -> DiscreteJoint:
    """Rebuild the full joint from singleton conditionals (Brook telescoping).

    Anchors every state against the all-zeros reference state and renormalizes.
    """
    shape = (m,) * d
    ratios = np.empty(shape, dtype=float)
    ref = [0] * d
    for flat in range(m**d):
        state = np.unravel_index(flat, shape)
        ratios[state] = brook_ratio(conds, state, ref)
    return discrete_joint(ratios)
