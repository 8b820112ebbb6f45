"""Divergences and estimation objectives, all under a minimization convention.

Exact KL and Fisher divergences serve as oracles on grids and enumerable
discrete spaces; the empirical objectives (score matching, the discrete
ratio-form objective, ratio matching, pseudo-likelihood, exact MLE) are the
quantities the estimators minimize.  Every objective except exact MLE is
partition-free: it only sees log q~ through derivatives or conditional ratios.

Every empirical objective returns its exact parameter gradient, built from the
intermediates its value already computes, and every one that `estimation.fit`
iterates on also returns the product v -> Hv with its exact Hessian: for the
discrete mle that is N Cov_q[T].  One builder, `empirical_objective`,
checks the data against the model and builds the objective's theta-free
design once; each evaluation at a theta reuses it, through the one per-theta
evaluation that `_EVALUATE` names for the (model kind, objective) pair.  The
Gaussian sm and mle are closed forms in the precision and the sample scatter,
and Gaussian sm is also exactly quadratic in its natural parameters, whose
normal equations `gaussian_sm_normal_equations` builds from the same moments.
Generalized-Gaussian sm differentiates its own score and Laplacian terms in
alpha.  The discrete objectives see Ising and Potts only through a linear
design over sets of alternatives (`_discrete_design`): for mle the whole state
cube, whose rows are T of the cube, and for pl, gsm and rm the m symbols of
one site in one configuration of its neighbours, whose rows are filled from
the site pattern (`models.site_pattern`) in the site's field block and
incident edge columns alone.  mle's D is T of two half cubes plus a low-rank
term for the edges between them (`_FactoredCubeStatistics`), with no
(m^d, P) array, where those halves' statistics are smaller than one cube
table; a smaller cube keeps T dense, filled on its open axes by the walk that
`models.sufficient_statistics` takes at points.  Each evaluation is one
product z = D theta, a softmax q over each set, and one product back for the
gradient.
Every discrete objective is a proper scoring rule (`_RULES`): pl, gsm and rm
the log, Brier and binary ratio scores of those singleton conditionals, and
mle the log score of the joint, over the one set of the cube.  Each rule
gives its value, u = q dl/dq and v = q^2 d2l/dq2, which one evaluator
(`_scored`) takes through the softmax; the Hessian product is one product
with D and one with D', centred on each set, and forms no P x P matrix.
Discrete data is a Dataset or a DiscreteJoint, which stands for its state
cube weighted by its probabilities.  The data enter pl, gsm and rm only
through each site's blanket: a joint's marginals on the blankets, which a
Dataset that fits its cube becomes by one count, or a larger Dataset's
counted blanket rows.
Gaussian data is a Dataset or GaussianMoments, which may stand for a Gaussian
population.  The exact-MLE oracle takes log Z as the table's maximum plus the
log-sum of exp of the table less it, as `models.exact_normalize` normalizes.
The population objectives are value-only: they are the enumeration oracles the
estimators are checked against, so they read log q~ on the cube from
`models.log_table`, not from a design.  The gsm and pl oracles read q's
singleton conditionals from one per-site helper, `_log_conditionals`, and rm
keeps its leave-one-out ratios, so gsm and rm remain two routes to one
divergence; both sum it over the support of p (`_squared_gap_sum`), where a
fibre x^{\\i} with no mass adds 0.  A population fit minimizes the
joint-weighted form, which differs from its oracle by a theta-independent
constant, and calls the oracle once, at its estimate (`estimation.fit`).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache, partial

import numpy as np

from .grids import GridDensity, log_values, quad, require_same_geometry, support_mask
from .operators import DiscreteJoint, grid_gradient, squared_norm
from .models import (
    DISCRETE_KINDS,
    GENGAUSS_EPS,
    Dataset,
    Model,
    ModelKind,
    _cube_axes,
    _site_pattern_statistics,
    gaussian_parts,
    grad_x_log,
    laplacian_x_log,
    log_table,
    site_pattern,
)


class ObjectiveKind(Enum):
    SM_CONTINUOUS = "sm"
    GSM_DISCRETE = "gsm"
    RATIO_MATCHING = "rm"
    PSEUDO_LIKELIHOOD = "pl"
    EXACT_MLE = "mle"


@dataclass(frozen=True)
class ObjectiveValue:
    """An objective's value at theta, its exact gradient and, for the
    objectives that `estimation.fit` iterates on, the product v -> Hv with a
    symmetric curvature H (None for the Gaussian closed forms)."""

    value: float
    grad_theta: np.ndarray
    curvature: Callable[[np.ndarray], np.ndarray] | None = None


@dataclass(frozen=True)
class GaussianMoments:
    """A mean and the scatter about it, all that the Gaussian objectives see
    of their data: a dataset's sample mean and 1/N scatter, or a Gaussian's
    own mean and covariance, which stand for its population."""

    mean: np.ndarray
    scatter: np.ndarray


# ---------------------------------------------------------------------------
# Exact divergences

class SupportError(ValueError):
    """q vanishes where p has mass, so the divergence of p from q is not
    finite: a fault of the density pair."""


def kl_exact(p, q) -> float:
    """KL divergence between two normalized densities on a shared support."""
    if isinstance(p, GridDensity) and isinstance(q, GridDensity):
        return _grid_divergences(p, q, with_fisher=False)[0]
    if isinstance(p, DiscreteJoint) and isinstance(q, DiscreteJoint):
        if p.m != q.m or p.d != q.d:
            raise ValueError("joint shapes do not match")
        mask = p.probs > 0
        if np.any(q.probs[mask] <= 0):
            raise SupportError("q vanishes where p is positive")
        return float(np.sum(p.probs[mask] * np.log(p.probs[mask] / q.probs[mask])))
    raise TypeError("p and q must both be GridDensity or both DiscreteJoint")


def fisher_exact(p: GridDensity, q: GridDensity) -> float:
    """Density-weighted squared distance between the two score fields."""
    return _grid_divergences(p, q, with_kl=False)[1]


def _grid_divergences(
    p: GridDensity, q: GridDensity, with_kl: bool = True, with_fisher: bool = True
) -> tuple[float | None, float | None]:
    """`kl_exact` and `fisher_exact` of a grid pair from one log ratio; a
    value not asked for is None.

    KL needs q positive wherever p is, which covers Fisher's need of q
    positive on p's support.  The log floor keeps log p - log q finite, so
    nodes where p is 0 contribute 0 to the KL integrand.
    """
    require_same_geometry(p, q)
    mask = support_mask(p) if with_fisher else None
    if with_kl:
        if np.any(q.values[p.values > 0] <= 0):
            raise SupportError("q vanishes where p is positive")
    elif np.any(q.values[mask] <= 0):
        raise SupportError("q vanishes on the support of p")
    log_ratio = log_values(p)
    log_ratio -= log_values(q)
    fisher = kl = None
    if with_fisher:
        sq_dist = squared_norm(grid_gradient(log_ratio, p.spacing))
        sq_dist *= p.values
        sq_dist[~mask] = 0.0
        fisher = quad(p, sq_dist, overwrite=True)
        del sq_dist
    if with_kl:
        log_ratio *= p.values
        kl = quad(p, log_ratio, overwrite=True)
    return kl, fisher


# ---------------------------------------------------------------------------
# Shared helpers

def _check_data(model: Model, data) -> None:
    """data has the model's dimension and alphabet size (None for continuous
    data): a Dataset or, for a discrete model, a DiscreteJoint or, for a
    Gaussian model, GaussianMoments."""
    if isinstance(data, DiscreteJoint):
        got = (data.d, data.m)
    elif isinstance(data, GaussianMoments) and model.kind is ModelKind.GAUSSIAN:
        got = (data.mean.size, None)
    elif isinstance(data, Dataset):
        got = (data.dim, data.alphabet_size)
    else:
        got = type(data).__name__
    want = (model.dim, model.alphabet_size)
    if got != want:
        raise ValueError(f"the {model.kind.value} model needs data of shape "
                         f"(dimension, alphabet size) = {want}, got {got}")


def _log_conditionals(log_f: np.ndarray):
    """log f(xi|x^{\\i}) on the state cube for each site i in turn: log f
    minus its log-sum over site i's symbols."""
    for i in range(log_f.ndim):
        yield log_f - np.logaddexp.reduce(log_f, axis=i, keepdims=True)


# ---------------------------------------------------------------------------
# Empirical objectives: one builder, one theta-free design per fit

def empirical_objective(model: Model, objective: ObjectiveKind, data):
    """An empirical objective as a function of theta alone, returning its
    ObjectiveValue.

    data is a Dataset of the model's kind and shape or, for a discrete model,
    a DiscreteJoint that stands for its state cube weighted by its
    probabilities or, for a Gaussian model, GaussianMoments, which may stand
    for a Gaussian population.  The design, everything that does not depend
    on theta, is built here once, and every call evaluates it at one theta:
    `empirical_objective(model, kind, data)(theta)` is the one way to
    evaluate an empirical objective.
    """
    _check_data(model, data)
    evaluate = _EVALUATE.get((model.kind, objective))
    if evaluate is None:
        raise ValueError(f"{objective.value} does not apply to the {model.kind.value} model; "
                         "sm takes continuous models, gsm, rm and pl discrete ones, "
                         "and mle discrete and Gaussian ones")
    if model.kind is ModelKind.GAUSSIAN:
        moments = gaussian_moments(model, data)
        design = moments.mean, moments.scatter
    elif model.kind is ModelKind.GEN_GAUSS_1D:
        design = (data.values,)
    else:
        design = _discrete_design(model, objective, data)
    return lambda theta: evaluate(model.with_params(theta), *design)


def gaussian_moments(model: Model, data) -> GaussianMoments:
    """data checked against the Gaussian model, as its GaussianMoments: a
    Dataset's sample mean and 1/N scatter about it, or GaussianMoments
    themselves.

    The mean is one pass down the rows (`einsum`), which on C-ordered data
    reads memory in order; for d >= 2 it equals `mean(axis=0)` to the bit,
    and for d = 1 or other layouts it may differ in the last place."""
    if model.kind is not ModelKind.GAUSSIAN:
        raise ValueError(f"moments stand for data of a Gaussian model, not {model.kind.value}")
    _check_data(model, data)
    if isinstance(data, GaussianMoments):
        return data
    xbar = np.einsum("ij->j", data.values) / data.n
    centered = data.values - xbar
    return GaussianMoments(xbar, centered.T @ centered / data.n)


def gaussian_sm_normal_equations(model: Model, data) -> tuple[np.ndarray, np.ndarray]:
    """The Gaussian sm objective as J(eta) = eta' A eta + 2 b' eta in the
    natural parameters eta = (vech P, h = P mu), tril order, so its minimizer
    solves A eta = -b.

    log q~ = eta' T(x) with T = (-x' E_k x / 2, x), E_k = dP/d(vech P)_k, so
    A = mean sum_i d_iT d_iT' and b = mean laplacian T.  Both follow from the
    mean xbar and the second moment C = E[x x'] of the data, with no
    per-sample rows: A has blocks tr(E_k E_l C), -E_k xbar and the identity,
    and b is -tr E_k over vech P and 0 over h.  A is singular exactly when
    the scatter about the mean is.  The E_k depend on d alone
    (`_vech_basis`); A and b are new arrays on every call.
    """
    moments = gaussian_moments(model, data)
    xbar = moments.mean
    d = model.dim
    E, neg_trace, _ = _vech_basis(d)
    p = len(E)
    A = np.empty((p + d, p + d))
    np.matmul((E @ (moments.scatter + np.outer(xbar, xbar))).reshape(p, -1),
              E.reshape(p, -1).T, out=A[:p, :p])
    A_Ph = A[:p, p:]
    np.matmul(E, xbar, out=A_Ph)
    np.negative(A_Ph, out=A_Ph)
    A[p:, :p] = A_Ph.T
    A[p:, p:] = np.eye(d)
    return A, np.concatenate([neg_trace, np.zeros(d)])


@lru_cache(maxsize=8)
def _vech_basis(d: int) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """The symmetric d x d matrices E_k = dP/d(vech P)_k, stacked in tril
    order, their negated traces, and the tril indices (rows, cols) that order
    vech; all read-only, and shared by every Gaussian of dimension d."""
    rows, cols = np.tril_indices(d)
    p = rows.size
    E = np.zeros((p, d, d))
    E[np.arange(p), rows, cols] = 1.0
    E[np.arange(p), cols, rows] = 1.0
    neg_trace = -np.trace(E, axis1=1, axis2=2)
    for a in (E, neg_trace, rows, cols):
        a.flags.writeable = False
    return E, neg_trace, (rows, cols)


def _discrete_design(model: Model, objective: ObjectiveKind, data) -> tuple[np.ndarray, np.ndarray]:
    """The objective's linear design (D, c) over weighted alternatives.

    Each row r of c holds the data's weight on a set of alternatives, and the
    matching rows of D their sufficient statistics, so the logits z = D theta
    (reshaped like c) are log q~ of the alternatives up to a per-row constant.
    For mle there is one row, the state cube: D is T of the cube and c the
    data's weight on each cube state.  With s = d // 2, D is the operator
    `_FactoredCubeStatistics` split at s when its half cubes' statistics,
    (m**s + m**(d-s)) * P numbers, are fewer than the m**d of one cube table,
    and otherwise the dense T, filled on the cube's open axes and stored by
    column.  For gsm, rm and pl there is one
    row per site i and per configuration of i's neighbours that occurs in the
    data (Besag 1975): D[r, y] = T(x with x_i := y) - T(x with x_i := 0), and
    c[r, y] is the data's weight on the configuration with symbol y at i.
    That difference is S[:, y] - S[:, 0] in i's field block, (S'S)[y, u] -
    (S'S)[0, u] in each incident edge's column, with S the site pattern and u
    the neighbour's symbol, and 0 elsewhere: D is allocated once, zeroed, and
    each site's rows are filled with those entries alone.  Each is a
    difference of small integers, so D equals T of the alternatives minus T
    of the symbol-0 one, bit for bit.

    A Dataset is read as its empirical joint, one bincount of its base-m
    state codes, when its cube is counted anyway: for mle, or when it has no
    more states than samples.  A joint gives site i's weights as its marginal
    on i's blanket (the sorted neighbours, then i); a Dataset with more states
    than samples gives them as its counted blanket rows (`_blanket_cells`).
    """
    if objective is ObjectiveKind.RATIO_MATCHING and model.alphabet_size != 2:
        raise ValueError(
            f"ratio matching needs binary data, got alphabet size "
            f"{model.alphabet_size}; use gsm"
        )
    m, d = model.alphabet_size, model.dim
    if objective is ObjectiveKind.EXACT_MLE:
        axes = _cube_axes(model)  # refuses too large a cube before anything is counted
    if isinstance(data, Dataset) and (objective is ObjectiveKind.EXACT_MLE or m**d <= data.n):
        data = DiscreteJoint(m, d, (_state_counts(data.values, m) / data.n).reshape((m,) * d))
    if objective is ObjectiveKind.EXACT_MLE:
        # T is built after the count, so the N state codes are gone by then.
        s = d // 2
        if (m**s + m**(d - s)) * model.n_params < m**d:
            D = _FactoredCubeStatistics(model, s)
        else:
            D = _site_pattern_statistics(model, axes).reshape(m**d, -1)
        return D, data.probs.reshape(1, -1)
    # One pass over the edges gives each site's neighbours and incident edge
    # columns, in edge order; a repeated edge is its own column.
    neighbours, incident = [[] for _ in range(d)], [[] for _ in range(d)]
    for e, (a, b) in enumerate(model.edges):
        neighbours[a].append(b)
        incident[a].append(e)
        neighbours[b].append(a)
        incident[b].append(e)
    far_symbols, weights = [], []
    for i in range(d):
        blanket = sorted(set(neighbours[i])) + [i]
        where = {j: p for p, j in enumerate(blanket)}
        u, c_i = _blanket_cells(data, blanket, [where[j] for j in neighbours[i]], m)
        # Held until D is allocated, so in the narrowest dtype that holds a symbol.
        far_symbols.append(u.astype(np.min_scalar_type(m - 1)))
        weights.append(c_i)
    c = np.concatenate(weights)
    # field[y] = S[:, y] - S[:, 0] and edge[u, y] = (S'S)[y, u] - (S'S)[0, u].
    S = site_pattern(model)
    k, n_fields = S.shape[0], model.n_params - len(model.edges)
    pair = S.T @ S
    field, edge = S.T - S.T[0], (pair - pair[0]).T
    D = np.zeros((c.size, model.n_params))
    start = 0
    for i, u in enumerate(far_symbols):
        stop = start + u.shape[0] * m
        rows = D[start:stop].reshape(-1, m, model.n_params)
        rows[:, :, i * k:(i + 1) * k] = field
        # Written through the (cell, column, symbol) view, whose order edge[u] has.
        rows.transpose(0, 2, 1)[:, [n_fields + e for e in incident[i]]] = edge[u]
        start = stop
    return D, c


class _FactoredCubeStatistics:
    """T of an Ising or Potts model's state cube as the mle design's operator
    D, with no (m**d, P) array (Van Loan 2000, "The ubiquitous Kronecker
    product").

    The sites split at s into A = 0..s-1 and B = s..d-1, so the C-ordered
    cube is A's cube by B's, and at a state (a, b)

        T(a, b) x = T_A(a) x_A + T_B(b) x_B + sum_e x_e (S'S)[x_i(a), x_j(b)]

    with T_A and T_B T of each half's cube over its own fields and the edges
    within it, and the sum over the cross edges e = (i, j), i in A and j in B.
    With S the site pattern of k rows, that sum is U diag(x_cross (x) 1_k) V',
    where U[a, (e, r)] = S[r, x_i(a)] and V[b, (e, r)] = S[r, x_j(b)].  D
    serves the two products `_scored` takes: D @ x, one small GEMM of
    [T_A x_A | 1 | U diag(x_cross (x) 1_k)] by [1 | T_B x_B | V]', and y @ D,
    from the row and column sums of y on the (m**s, m**(d-s)) grid and the
    k-summed diagonal of U'YV.  Every summand of D @ e_j is a product of
    small integers, so D's columns equal T of the cube bit for bit.
    """

    # ndarray @ D then defers to __rmatmul__.
    __array_ufunc__ = None

    def __init__(self, model: Model, s: int):
        m, d = model.alphabet_size, model.dim
        S = site_pattern(model)
        self._k, n_fields = S.shape[0], model.n_params - len(model.edges)
        inner, cross = ([], []), []
        for e, (i, j) in enumerate(model.edges):
            if (i < s) == (j < s):
                inner[j >= s].append(e)
            else:
                cross.append(e)
        self._cross = n_fields + np.array(cross, dtype=np.intp)
        self._cols, self._t = [], []
        for half, (lo, hi) in enumerate(((0, s), (s, d))):
            edges = tuple((i - lo, j - lo) for i, j in (model.edges[e] for e in inner[half]))
            self._cols.append(np.concatenate([np.arange(lo * self._k, hi * self._k),
                                              n_fields + np.array(inner[half], dtype=np.intp)]))
            sub = replace(model, dim=hi - lo, params=np.zeros(self._cols[-1].size), edges=edges)
            T = _site_pattern_statistics(sub, np.indices((m,) * (hi - lo), sparse=True))
            self._t.append(T.reshape(m ** (hi - lo), -1))
        # Each cross edge's symbol columns: site i's over A's cube, site j's over B's.
        ends = np.array([model.edges[e] for e in cross], dtype=np.intp).reshape(-1, 2)
        symbols_a = np.arange(m**s)[:, None] // m ** (s - 1 - ends[:, 0]) % m
        symbols_b = np.arange(m ** (d - s))[:, None] // m ** (d - 1 - ends[:, 1]) % m
        self._u = S.T[symbols_a].reshape(m**s, -1)
        self._v = S.T[symbols_b].reshape(m ** (d - s), -1)
        self._cross_taps = np.repeat(self._cross, self._k)
        self.shape = (m**d, model.n_params)

    def __matmul__(self, x):
        (t_a, t_b), u, v = self._t, self._u, self._v
        left = np.empty((u.shape[0], 2 + u.shape[1]))
        np.matmul(t_a, x[self._cols[0]], out=left[:, 0])
        left[:, 1] = 1.0
        np.multiply(u, x[self._cross_taps], out=left[:, 2:])
        right = np.empty((v.shape[0], 2 + v.shape[1]))
        right[:, 0] = 1.0
        np.matmul(t_b, x[self._cols[1]], out=right[:, 1])
        right[:, 2:] = v
        return (left @ right.T).ravel()

    def __rmatmul__(self, y):
        (t_a, t_b), u, v = self._t, self._u, self._v
        Y = y.reshape(u.shape[0], v.shape[0])
        out = np.empty(self.shape[1])
        out[self._cols[0]] = Y.sum(axis=1) @ t_a
        out[self._cols[1]] = Y.sum(axis=0) @ t_b
        out[self._cross] = np.einsum("aer,aer->e", u.reshape(u.shape[0], -1, self._k),
                                     (Y @ v).reshape(u.shape[0], -1, self._k))
        return out


def _blanket_cells(data, blanket: list[int], far: list[int], m: int) -> tuple[np.ndarray, np.ndarray]:
    """The cells of site i = blanket[-1], the configurations of its sorted
    neighbours blanket[:-1] that occur in the data, in lexicographic order:
    each cell's symbols at the blanket positions far, and c_i, the data's
    weight on each cell with each symbol y at i.

    A joint gives c_i as the rows with weight of its marginal on the blanket,
    i's axis last, and each cell's symbols as the digits of its row index in
    base m; a Dataset gives both from its counted blanket rows
    (`_blanket_rows`)."""
    if isinstance(data, DiscreteJoint):
        axes = sorted(blanket)  # the marginal's
        marginal = data.probs.sum(axis=tuple(a for a in range(data.d) if a not in blanket))
        table = marginal.transpose([axes.index(j) for j in blanket]).reshape(-1, m)
        kept = table.any(axis=1).nonzero()[0]
        place = np.array([m ** (len(blanket) - 2 - p) for p in far], dtype=np.int64)
        return kept[:, None] // place % m, table[kept]
    rows, w = _blanket_rows(data.values, blanket, m)
    # The rows are sorted, so each cell's rows are adjacent.
    new_cell = np.concatenate(([True], np.any(rows[1:, :-1] != rows[:-1, :-1], axis=1)))
    cell = np.cumsum(new_cell) - 1
    c_i = np.zeros((cell[-1] + 1, m))
    c_i[cell, rows[:, -1]] = w
    return rows[new_cell][:, far], c_i


def _blanket_rows(values: np.ndarray, blanket: list[int], m: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of values[:, blanket] in lexicographic order and the
    fraction of the rows equal to each, found by sorting the rows' base-m
    codes in place, or the rows themselves where those codes would overflow
    int64."""
    n, k = len(values), len(blanket)
    if m**k > np.iinfo(np.int64).max:
        rows, counts = np.unique(values[:, blanket], axis=0, return_counts=True)
        return rows, counts / n
    codes = np.ravel_multi_index([values[:, j] for j in blanket], (m,) * k)
    codes.sort()
    first = np.empty(n, dtype=bool)
    first[0] = True
    np.not_equal(codes[1:], codes[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    return np.column_stack(np.unravel_index(codes[starts], (m,) * k)), np.diff(starts, append=n) / n


def _state_counts(states: np.ndarray, m: int) -> np.ndarray:
    """How often each of the m**d cube states occurs among the rows, indexed
    by the state's base-m code, first coordinate most significant: its index
    in the C-ordered cube, a DiscreteJoint's flat index.  The cube
    is counted only when it has at most N or MAX_ENUM_STATES states, so the
    codes fit in int64."""
    codes = states @ (m ** np.arange(states.shape[1] - 1, -1, -1, dtype=np.int64))
    return np.bincount(codes, minlength=m ** states.shape[1])


# ---------------------------------------------------------------------------
# Per-theta evaluations of the designs

def _gaussian_sm(mod: Model, xbar: np.ndarray, S: np.ndarray) -> ObjectiveValue:
    # sm: mean |grad_x log q~|^2 + 2 laplacian_x log q~ over the samples, here
    # tr(P^2 M) - 2 tr P with P the precision and M the 1/N scatter about mu.
    P, r, M = _gaussian_scatter(mod, xbar, S)
    PP = P @ P
    B = PP @ M @ P
    grad = np.concatenate([-2.0 * PP @ r, _tril_grad(2.0 * PP - B - B.T)])
    return ObjectiveValue(float(np.sum(PP * M) - 2.0 * np.trace(P)), grad)


def _gaussian_mle(mod: Model, xbar: np.ndarray, S: np.ndarray) -> ObjectiveValue:
    # (tr(P M) + d log 2 pi + log det Sigma) / 2, with gradients
    # -P (xbar - mu) in mu and (P - P M P) / 2 in Sigma.
    P, r, M = _gaussian_scatter(mod, xbar, S)
    logdet = np.linalg.slogdet(gaussian_parts(mod)[1])[1]
    value = 0.5 * (np.sum(P * M) + mod.dim * np.log(2.0 * np.pi) + logdet)
    grad = np.concatenate([-P @ r, _tril_grad(0.5 * (P - P @ M @ P))])
    return ObjectiveValue(float(value), grad)


def _gaussian_scatter(model: Model, xbar: np.ndarray, S: np.ndarray):
    """The precision P, r = xbar - mu and the 1/N scatter about mu,
    M = S + r r', from the sample mean and the scatter S about it."""
    mu, cov = gaussian_parts(model)
    r = xbar - mu
    return np.linalg.inv(cov), r, S + np.outer(r, r)


def _tril_grad(A: np.ndarray) -> np.ndarray:
    """The gradient in the tril covariance layout from the symmetric dl/dSigma
    = A: each off-diagonal parameter sets two entries of Sigma."""
    rows, cols = _vech_basis(A.shape[0])[2]
    return np.where(rows == cols, A[rows, cols], 2.0 * A[rows, cols])


def _gen_gauss_sm(mod: Model, X: np.ndarray) -> ObjectiveValue:
    # sm as a sample mean, as for the Gaussian.  The per-sample Laplacian term
    # has finite variance only for alpha > 1.5; below that a few samples near
    # the cusp can decide the fit (alpha = 1.5, seed 1, N = 5e3 converges to
    # 0.142), and at alpha <= 1 the eps-smoothed cusp biases it (true 0.5 ->
    # 1.00, 0.8 -> 1.16 at N = 5e3).
    x = X[:, 0]
    g = grad_x_log(mod, X)[:, 0]
    lap = laplacian_x_log(mod, X)
    value = float(np.mean(g * g + 2.0 * lap))
    # g and lap both carry the factor alpha * u^(alpha/2), u = x^2 + eps^2,
    # whose log-derivative in alpha is 1/alpha + log(u)/2; lap also has the
    # term -alpha x^2 u^(alpha/2 - 2) = g x / u.
    # Differentiating once more, with dlog' = -1/alpha^2 and (g x / u)' =
    # (g x / u) dlog, gives the second derivative.
    alpha = mod.params[0]
    u = x * x + GENGAUSS_EPS**2
    dlog = 1.0 / alpha + 0.5 * np.log(u)
    g2 = g * g
    gxu = g * x / u
    grad = np.array([np.mean(2.0 * (g2 + lap) * dlog + 2.0 * gxu)])
    curvature = np.mean(2.0 * dlog**2 * (2.0 * g2 + lap) + 4.0 * gxu * dlog
                        - 2.0 * (g2 + lap) / alpha**2)
    return ObjectiveValue(value, grad, lambda x: curvature * x)


def _row_softmax(mod: Model, D: np.ndarray, c: np.ndarray):
    """The logits z = D theta, shaped like c and shifted so that each row's
    maximum is 0, their row sums s = sum_y exp(z), and the row softmax q."""
    z = (D @ mod.params).reshape(c.shape)
    z -= z.max(axis=1, keepdims=True)
    q = np.exp(z)
    s = q.sum(axis=1, keepdims=True)
    q /= s
    return z, s, q


def _scored(rule, mod: Model, D: np.ndarray, c: np.ndarray) -> ObjectiveValue:
    """sum_ry l(q_ry) of a scoring rule l of the row softmax q, from the rule's
    value, u = q dl/dq and v = q^2 d2l/dq2: the gradient is dz' D with
    dz = u - q sum_y u, and the Hessian sum_ry w_ry D~_ry D~_ry', w = v + dz,
    over the rows centred on each set, D~_ry = D_ry - sum_y' q_ry' D_ry': its
    product is D' of w D~x, centred again by the transposed centring.  dz
    and then w are built in one array, to hold few of the design's length."""
    z, s, q = _row_softmax(mod, D, c)
    value, u, v = rule(c, z, s, q)
    dz = q * -u.sum(axis=1, keepdims=True)
    dz += u
    grad = dz.ravel() @ D
    w = dz  # dz is spent: w = v + dz takes its place
    w += v

    def curvature(x):
        y = (D @ x).reshape(q.shape)
        y -= (q * y).sum(axis=1, keepdims=True)
        y *= w
        y -= q * y.sum(axis=1, keepdims=True)
        return y.ravel() @ D

    return ObjectiveValue(float(value), grad, curvature)


def _log_score(c, z, s, q):
    # pl: sum c (log s - z), the weighted -log q of each alternative, with
    # log q = z - log s and no 1/q, so a conditional that underflows still
    # scores finitely; l = -c log q gives u = -c and v = c.  mle is the same
    # rule on the one set of the state cube: n log Z - c z, with n = sum c.
    loss = np.log(s) - z
    loss *= c
    return loss.sum(), -c, c


def _brier_score(c, z, s, q):
    # gsm: sum_r n_r sum_y q^2 - 2 c q, the Brier score of each cell's
    # conditional.  Expanding gsm_discrete_population, its p-weighted cross
    # term sum_y p(y|x^{\i}) q(y|x^{\i}) averages to q at the observed symbol,
    # so the two differ by sum_x p(x) sum_i sum_y p(y|x^{\i})^2, which does not
    # depend on theta; that constant needs p and is not added here.
    nq = q * c.sum(axis=1, keepdims=True)
    return np.sum((nq - 2.0 * c) * q), 2.0 * q * (nq - c), 2.0 * nq * q


def _ratio_score(c, z, s, q):
    # rm: Hyvarinen's binary ratio matching, sum c (1 - q)^2.  For binary data
    # it is (gsm + d) / 2, so under p its expectation is half of
    # ratio_matching_population plus a theta-independent constant.  For m > 2
    # the observed-symbol form is no longer a constant away from that
    # divergence, so `_discrete_design` rejects such models.
    miss = 1.0 - q
    return np.sum(c * miss**2), -2.0 * c * miss * q, 2.0 * c * q * q


# Each discrete objective's proper scoring rule: of the singleton conditionals
# on the blanket designs, and for mle the log score of the joint on the cube.
_RULES = {
    ObjectiveKind.EXACT_MLE: _log_score,
    ObjectiveKind.PSEUDO_LIKELIHOOD: _log_score,
    ObjectiveKind.GSM_DISCRETE: _brier_score,
    ObjectiveKind.RATIO_MATCHING: _ratio_score,
}


# Each model kind's per-theta evaluation of each objective that applies to it;
# each discrete one is `_scored` with its rule.
_EVALUATE = {
    (ModelKind.GAUSSIAN, ObjectiveKind.SM_CONTINUOUS): _gaussian_sm,
    (ModelKind.GAUSSIAN, ObjectiveKind.EXACT_MLE): _gaussian_mle,
    (ModelKind.GEN_GAUSS_1D, ObjectiveKind.SM_CONTINUOUS): _gen_gauss_sm,
    **{(kind, objective): partial(_scored, rule)
       for kind in DISCRETE_KINDS for objective, rule in _RULES.items()},
}


# ---------------------------------------------------------------------------
# Discrete population objectives (enumeration oracles)

def gsm_discrete_population(p: DiscreteJoint, model: Model, theta) -> float:
    """Exact squared-conditional-difference divergence over the support of p:
    sum_x p(x) sum_i sum_xi (p(xi|x^{\\i}) - q(xi|x^{\\i}))^2."""
    return _squared_gap_sum(p, model, theta,
                            lambda f: (f / f.sum(axis=i, keepdims=True) for i in range(f.ndim)),
                            lambda log_q: map(np.exp, _log_conditionals(log_q)))


def ratio_matching_population(p: DiscreteJoint, model: Model, theta) -> float:
    """Population ratio-matching divergence via phi(u) = 1/(1+u) applied to
    leave-one-out joint ratios; independent route to the same divergence as
    gsm_discrete_population.  The ratios are taken in log space, from log p
    and log q~, so no table is exponentiated and an extreme theta, whose
    conditionals underflow, still gives a finite value."""
    return _squared_gap_sum(p, model, theta, lambda f: _phi_of_ratios(np.log(f)), _phi_of_ratios)


def _phi_of_ratios(log_f: np.ndarray):
    """phi(f(xi,x)/f(~xi,x)) per coordinate, with phi(u) = 1/(1+u) and
    f(~xi,x) the sum of f over site i's other symbols, from log f."""
    for i in range(log_f.ndim):
        # Taking symbol y - k at each y, for k = 1..m-1, visits every other
        # symbol once.
        symbols = np.arange(log_f.shape[i])
        log_rest = np.take(log_f, symbols - 1, axis=i)
        for k in range(2, symbols.size):
            log_rest = np.logaddexp(log_rest, np.take(log_f, symbols - k, axis=i))
        yield np.exp(-np.logaddexp(0.0, log_f - log_rest))


def _squared_gap_sum(p: DiscreteJoint, model: Model, theta, p_tables, q_tables) -> float:
    """sum_x p(x) sum_i sum_y (a_i - b_i)^2 at (y, x^{\\i}) over the support of p,
    with a_i and b_i site i's tables from p_tables(p.probs) and q_tables(log q~):
    a fibre x^{\\i} with no mass adds 0, whatever a_i holds there (0/0, log 0 - log 0)."""
    _check_data(model, p)
    log_q = log_table(model.with_params(theta))  # before p's tables, so their peaks do not add
    support, total = p.probs > 0, 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        for i, (a, b) in enumerate(zip(p_tables(p.probs), q_tables(log_q))):
            inner = ((a - b) ** 2).sum(axis=i, keepdims=True)
            total += float((p.probs * inner)[support].sum())
    return total


def pseudo_likelihood_population(p: DiscreteJoint, model: Model, theta) -> float:
    """-sum_x p(x) sum_i log q(xi|x^{\\i}), with each log conditional taken in
    log space (`_log_conditionals`)."""
    _check_data(model, p)
    return float(-np.sum(p.probs * sum(_log_conditionals(log_table(model.with_params(theta))))))


def exact_mle_population(p: DiscreteJoint, model: Model, theta) -> float:
    """Cross entropy of p against the exactly normalized model."""
    _check_data(model, p)
    table = log_table(model.with_params(theta))
    top = table.max()
    log_z = top + np.log(np.exp(table - top).sum())
    return float(-np.sum(p.probs * (table - log_z)))
