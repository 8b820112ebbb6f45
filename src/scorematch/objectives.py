"""Divergences and estimation objectives, all under a minimization convention.

Exact KL and Fisher divergences serve as oracles on grids and enumerable
discrete spaces; the empirical objectives (score matching, the discrete
ratio-form objective, ratio matching, pseudo-likelihood, exact MLE) are the
quantities the estimators minimize.  Every objective except exact MLE is
partition-free: it only sees log q~ through derivatives or conditional ratios.

The empirical discrete objectives (gsm, rm, pl, mle) return exact parameter
gradients, taken through the pairwise one-hot form of Ising and Potts
(`models.pairwise_form`); so do Gaussian score matching and Gaussian exact
MLE.  The population objectives are value-only: they are the enumeration
oracles the estimators are checked against, so they keep their own
independent route through `log_unnorm`.  Population fits take their exact
gradients from the empirical forms weighted by the joint over the full state
cube (`estimation.objective_functions`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np
# Besides logsumexp, importing scipy keeps glibc from trimming and re-faulting
# the heap between the sm fit's evaluations.  With no scipy module loaded, a
# 20 s gauss-sm benchmark run took 1.1M minor page faults instead of 34k and
# 25% more solve time.  Cut the fit's per-evaluation allocations before
# removing this import.
from scipy.special import logsumexp

from .grids import GridDensity, log_values, quad, require_same_geometry, support_mask
from .operators import DiscreteJoint, grid_gradient, marginalize
from .models import (
    Dataset,
    Model,
    ModelKind,
    ParameterDomainError,
    gaussian_parts,
    grad_x_log,
    laplacian_x_log,
    log_unnorm,
    one_hot,
    pairwise_adjoint,
    pairwise_conditionals,
)


class ObjectiveKind(Enum):
    SM_CONTINUOUS = "sm"
    GSM_DISCRETE = "gsm"
    RATIO_MATCHING = "rm"
    PSEUDO_LIKELIHOOD = "pl"
    EXACT_MLE = "mle"


@dataclass(frozen=True)
class ObjectiveValue:
    value: float
    grad_theta: np.ndarray | None = None


# ---------------------------------------------------------------------------
# Exact divergences

def kl_exact(p, q) -> float:
    """KL divergence between two normalized densities on a shared support."""
    if isinstance(p, GridDensity) and isinstance(q, GridDensity):
        require_same_geometry(p, q)
        if np.any(q.values[p.values > 0] <= 0):
            raise ValueError("q vanishes where p is positive")
        lp, lq = log_values(p), log_values(q)
        integrand = np.where(p.values > 0, p.values * (lp - lq), 0.0)
        return quad(p, integrand)
    if isinstance(p, DiscreteJoint) and isinstance(q, DiscreteJoint):
        if p.m != q.m or p.d != q.d:
            raise ValueError("joint shapes do not match")
        mask = p.probs > 0
        if np.any(q.probs[mask] <= 0):
            raise ValueError("q vanishes where p is positive")
        return float(np.sum(p.probs[mask] * np.log(p.probs[mask] / q.probs[mask])))
    raise TypeError("p and q must both be GridDensity or both DiscreteJoint")


def fisher_exact(p: GridDensity, q: GridDensity) -> float:
    """Density-weighted squared distance between the two score fields."""
    require_same_geometry(p, q)
    mask = support_mask(p)
    if np.any(q.values[mask] <= 0):
        raise ValueError("q vanishes on the support of p")
    sp = grid_gradient(log_values(p), p.spacing)
    sq = grid_gradient(log_values(q), q.spacing)
    sq_dist = np.zeros_like(p.values)
    for a, b in zip(sp, sq):
        sq_dist += (a - b) ** 2
    return quad(p, np.where(mask, p.values * sq_dist, 0.0))


# ---------------------------------------------------------------------------
# Shared helpers

def _check_continuous_pair(model: Model, data: Dataset) -> None:
    if model.kind not in (ModelKind.GAUSSIAN, ModelKind.GEN_GAUSS_1D):
        raise ValueError("objective requires a continuous model")
    if data.kind != "continuous" or data.dim != model.dim:
        raise ValueError("dataset is not continuous data of matching dimension")


def _check_discrete_pair(model: Model, data: Dataset) -> None:
    if model.alphabet_size is None:
        raise ValueError("objective requires a discrete model")
    if (
        data.kind != "discrete"
        or data.dim != model.dim
        or data.alphabet_size != model.alphabet_size
    ):
        raise ValueError("dataset is not discrete data of matching shape")


def _log_table(model: Model, theta) -> np.ndarray:
    """log q~ on the full state cube, shape (m,)*d."""
    mod = model.with_params(theta)
    m, d = mod.alphabet_size, mod.dim
    states = np.indices((m,) * d).reshape(d, -1).T
    return np.asarray(log_unnorm(mod, states)).reshape((m,) * d)


def _conditionals_from_table(table: np.ndarray, log_space: bool) -> np.ndarray:
    """Per-axis singleton conditionals on the state cube, shape (d,)+cube."""
    d = table.ndim
    out = np.empty((d,) + table.shape)
    for i in range(d):
        if log_space:
            t = table - table.max(axis=i, keepdims=True)
            e = np.exp(t)
        else:
            e = table
        out[i] = e / e.sum(axis=i, keepdims=True)
    return out


# ---------------------------------------------------------------------------
# Continuous score matching (empirical)

def sm_objective(model: Model, theta, data: Dataset) -> ObjectiveValue:
    """Mean of |grad_x log q~|^2 + 2 * laplacian_x log q~ over the samples.

    On the generalized Gaussian this is consistent only for alpha > 1: at
    alpha <= 1 the eps-smoothed cusp at 0 breaks Hyvarinen's regularity
    condition, and the fit is biased (true 0.5 -> 1.00, 0.8 -> 1.16 at
    N = 5e3).
    """
    _check_continuous_pair(model, data)
    mod = model.with_params(theta)
    g = grad_x_log(mod, data.values)
    lap = laplacian_x_log(mod, data.values)
    value = float(np.mean(np.sum(g * g, axis=1) + 2.0 * lap))
    grad = None
    if mod.kind is ModelKind.GAUSSIAN:
        grad = _gaussian_sm_grad(mod, data.values)
    return ObjectiveValue(value, grad)


def _gaussian_sm_grad(model: Model, X: np.ndarray) -> np.ndarray:
    mu, cov = gaussian_parts(model)
    P = np.linalg.inv(cov)
    xbar = X.mean(axis=0)
    centered = X - mu
    M = centered.T @ centered / X.shape[0]
    grad_mu = -2.0 * P @ P @ (xbar - mu)
    A = -(P @ P @ M @ P + P @ M @ P @ P) + 2.0 * P @ P
    return np.concatenate([grad_mu, _tril_grad(A)])


def _tril_grad(A: np.ndarray) -> np.ndarray:
    """The gradient in the tril covariance layout from the symmetric dl/dSigma
    = A: each off-diagonal parameter sets two entries of Sigma."""
    rows, cols = np.tril_indices(A.shape[0])
    return np.where(rows == cols, A[rows, cols], 2.0 * A[rows, cols])


# ---------------------------------------------------------------------------
# Discrete empirical objectives

def collapse_states(data: Dataset) -> tuple[Dataset, np.ndarray]:
    """A discrete dataset collapsed to its distinct states, with their
    empirical weights.

    Averaging is linear in the samples, so the weighted objectives agree with
    the file-order mean up to roundoff while repeated states cost nothing.
    """
    values = data.values
    m, d = int(data.alphabet_size), data.dim
    if m**d - 1 <= np.iinfo(np.int64).max:
        # Base-m codes with the first coordinate most significant sort like the
        # rows, so the states come out in np.unique(axis=0)'s order.
        codes = values @ (m ** np.arange(d - 1, -1, -1, dtype=np.int64))
        _, first, counts = np.unique(codes, return_index=True, return_counts=True)
        states = values[first]
    else:
        states, counts = np.unique(values, axis=0, return_counts=True)
    return replace(data, values=states), counts / counts.sum()


def _weighted_states(data: Dataset, weights) -> tuple[np.ndarray, np.ndarray]:
    if weights is None:
        data, w = collapse_states(data)
        return data.values, w
    w = np.asarray(weights, dtype=float)
    if w.shape != (data.n,):
        raise ValueError("weights length does not match dataset")
    return data.values, w / w.sum()


def _pairwise_design(model: Model, theta, data: Dataset, weights):
    """The model at theta, the weighted states, their one-hot rows x1 and the
    singleton conditionals q."""
    _check_discrete_pair(model, data)
    states, w = _weighted_states(data, weights)
    mod = model.with_params(theta)
    x1 = one_hot(mod, states)
    return mod, states, w, x1, pairwise_conditionals(mod, x1)


def _observed(table: np.ndarray, states: np.ndarray) -> np.ndarray:
    """q(xi|x^{\\i}) at each sample's own symbol, shape (N, d)."""
    return np.take_along_axis(table, states[:, :, None], axis=2)[:, :, 0]


def _softmax_backward(q: np.ndarray, g: np.ndarray) -> np.ndarray:
    """dl/dZ = q * (g - <q, g>) from g = dl/dq through q = softmax(Z) over the
    last axis; overwrites g."""
    g -= (q * g).sum(axis=2, keepdims=True)
    g *= q
    return g


def _conditional_grad(model: Model, x1: np.ndarray, w: np.ndarray, dz: np.ndarray) -> np.ndarray:
    """Gradient in theta of sum_n w_n l_n from dz = dl_n/dZ, shape (N, d, m).

    Z = F + x1 C', so dF = sum_n w_n dz_n and dC = (w dz)' x1, which the
    adjoint of the pairwise form maps back to theta.  Overwrites dz.
    """
    g = dz.reshape(x1.shape)
    g *= w[:, None]
    return pairwise_adjoint(model, g.sum(axis=0), g.T @ x1)


def gsm_discrete_objective(
    model: Model, theta, data: Dataset, weights=None
) -> ObjectiveValue:
    """Sample form of the squared-conditional-difference divergence: mean of
    sum_i [sum_y q(y|x^{\\i})^2 - 2 q(xi|x^{\\i})] over the samples.

    Expanding gsm_discrete_population, the p-weighted cross term
    sum_y p(y|x^{\\i}) q(y|x^{\\i}) averages to q at the observed symbol, so
    the two differ by sum_x p(x) sum_i sum_y p(y|x^{\\i})^2, which does not
    depend on theta.  That constant needs p and is not added: the value is the
    plain sample form (the Brier score of the singleton conditionals).
    """
    mod, states, w, x1, q = _pairwise_design(model, theta, data, weights)
    per_sample = ((q**2).sum(axis=2) - 2.0 * _observed(q, states)).sum(axis=1)
    dz = _softmax_backward(q, 2.0 * (q - x1.reshape(q.shape)))
    return ObjectiveValue(float(w @ per_sample), _conditional_grad(mod, x1, w, dz))


def ratio_matching_objective(
    model: Model, theta, data: Dataset, weights=None
) -> ObjectiveValue:
    """Hyvarinen's binary ratio matching: mean of sum_i (1 - q(xi|x^{\\i}))^2
    over the samples.

    For binary data this is (gsm_discrete_objective + d) / 2, so under p its
    expectation is half of ratio_matching_population plus a theta-independent
    constant, and both share a minimizer.  For m > 2 the observed-symbol form
    is no longer a constant away from that divergence, so such models are
    rejected; use gsm instead.
    """
    _check_discrete_pair(model, data)
    if model.alphabet_size != 2:
        raise ValueError(
            f"ratio matching needs binary data, got alphabet size "
            f"{model.alphabet_size}; use gsm"
        )
    mod, states, w, x1, q = _pairwise_design(model, theta, data, weights)
    miss = 1.0 - _observed(q, states)
    per_sample = (miss**2).sum(axis=1)
    dz = _softmax_backward(q, -2.0 * miss[:, :, None] * x1.reshape(q.shape))
    return ObjectiveValue(float(w @ per_sample), _conditional_grad(mod, x1, w, dz))


def pseudo_likelihood_objective(
    model: Model, theta, data: Dataset, weights=None
) -> ObjectiveValue:
    """Negative mean log product of singleton conditionals."""
    mod, states, w, x1, q = _pairwise_design(model, theta, data, weights)
    per_sample = -np.log(np.maximum(_observed(q, states), 1e-300)).sum(axis=1)
    q -= x1.reshape(q.shape)  # dl/dZ of -log softmax at the observed symbol
    return ObjectiveValue(float(w @ per_sample), _conditional_grad(mod, x1, w, q))


def _pair_moments(model: Model, x1: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The w-weighted sum of T(x) = dlog q~/dtheta over the one-hot rows x1:
    log q~ = F . x1 + x1' C x1 / 2, so T is the adjoint of the pairwise form
    applied to (x1, x1 x1' / 2)."""
    return pairwise_adjoint(model, w @ x1, 0.5 * ((x1.T * w) @ x1))


def exact_mle_objective(
    model: Model, theta, data: Dataset, weights=None
) -> ObjectiveValue:
    """Negative mean log *normalized* likelihood (brute-force partition).

    For discrete models the gradient is E_q[T] - E_data[T] of the sufficient
    statistic T = dlog q~/dtheta, with E_q taken over the enumerated cube.
    """
    mod = model.with_params(theta)
    if mod.kind is ModelKind.GAUSSIAN:
        _check_continuous_pair(model, data)
        mu, cov = gaussian_parts(mod)
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise ParameterDomainError("covariance is not positive definite") from None
        logdet = 2.0 * np.log(np.diag(chol)).sum()
        logq = np.asarray(log_unnorm(mod, data.values))
        const = 0.5 * (mod.dim * np.log(2.0 * np.pi) + logdet)
        # With S the 1/N scatter about mu: d/dmu = -P (xbar - mu) and
        # d/dSigma = (P - P S P) / 2, P the precision.
        P = np.linalg.inv(cov)
        centered = data.values - mu
        S = centered.T @ centered / data.n
        grad_mu = -P @ centered.mean(axis=0)
        grad = np.concatenate([grad_mu, _tril_grad(0.5 * (P - P @ S @ P))])
        return ObjectiveValue(float(-np.mean(logq) + const), grad)
    _check_discrete_pair(model, data)
    states, w = _weighted_states(data, weights)
    m, d = mod.alphabet_size, mod.dim
    cube = np.indices((m,) * d).reshape(d, -1).T
    log_cube = np.asarray(log_unnorm(mod, cube))
    log_z = float(logsumexp(log_cube))
    logq = np.asarray(log_unnorm(mod, states))
    grad = _pair_moments(mod, one_hot(mod, cube), np.exp(log_cube - log_z))
    grad -= _pair_moments(mod, one_hot(mod, states), w)
    return ObjectiveValue(float(-(w @ logq) + log_z), grad)


# ---------------------------------------------------------------------------
# Discrete population objectives (enumeration oracles)

def gsm_discrete_population(p: DiscreteJoint, model: Model, theta) -> float:
    """Exact squared-conditional-difference divergence:
    sum_x p(x) sum_i sum_xi (p(xi|x^{\\i}) - q(xi|x^{\\i}))^2.
    """
    _check_population(p, model)
    pc = _conditionals_from_table(p.probs, log_space=False)
    qc = _conditionals_from_table(_log_table(model, theta), log_space=True)
    total = 0.0
    for i in range(p.d):
        inner = ((pc[i] - qc[i]) ** 2).sum(axis=i, keepdims=True)
        total += float(np.sum(p.probs * inner))
    return total


def ratio_matching_population(p: DiscreteJoint, model: Model, theta) -> float:
    """Population ratio-matching divergence via phi(u) = 1/(1+u) applied to
    leave-one-out joint ratios; independent route to the same divergence as
    gsm_discrete_population.
    """
    _check_population(p, model)
    log_q = _log_table(model, theta)
    q_table = np.exp(log_q - log_q.max())
    total = 0.0
    for i, (fp, fq) in enumerate(zip(_phi_of_ratios(p.probs), _phi_of_ratios(q_table))):
        inner = ((fp - fq) ** 2).sum(axis=i, keepdims=True)
        total += float(np.sum(p.probs * inner))
    return total


def _phi_of_ratios(table: np.ndarray):
    """phi(f(xi,x)/f(~xi,x)) per coordinate, with phi(u) = 1/(1+u)."""
    marg = marginalize(table)
    for i in range(table.ndim):
        rest = marg[i] - table  # f(~xi, x^{\i})
        yield rest / marg[i]


def pseudo_likelihood_population(p: DiscreteJoint, model: Model, theta) -> float:
    _check_population(p, model)
    qc = _conditionals_from_table(_log_table(model, theta), log_space=True)
    logs = np.log(np.maximum(qc, 1e-300)).sum(axis=0)
    return float(-np.sum(p.probs * logs))


def exact_mle_population(p: DiscreteJoint, model: Model, theta) -> float:
    """Cross entropy of p against the exactly normalized model."""
    _check_population(p, model)
    table = _log_table(model, theta)
    return float(-np.sum(p.probs * (table - logsumexp(table))))


def _check_population(p: DiscreteJoint, model: Model) -> None:
    if model.alphabet_size is None:
        raise ValueError("population objective requires a discrete model")
    if p.m != model.alphabet_size or p.d != model.dim:
        raise ValueError("joint shape does not match the model")
