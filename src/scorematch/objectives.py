"""Divergences and estimation objectives, all under a minimization convention.

Exact KL and Fisher divergences serve as oracles on grids and enumerable
discrete spaces; the empirical objectives (score matching, the discrete
ratio-form objective, ratio matching, pseudo-likelihood, exact MLE) are the
quantities the estimators minimize.  Every objective except exact MLE is
partition-free: it only sees log q~ through derivatives or conditional ratios.

Every empirical objective returns its exact parameter gradient, built from the
intermediates its value already computes.  The discrete ones (gsm, rm, pl,
mle) go through the pairwise one-hot form of Ising and Potts
(`models.pairwise_form`), in two parts (`discrete_objective`): a theta-free
design of the weighted states, their one-hot rows and, for mle, the state
cube's one-hot rows and the data moment, built once per fit; and a per-theta
evaluation that reuses it.  The public discrete objectives build the design
and evaluate it once.  Their data is a discrete Dataset or a DiscreteJoint,
which stands for its state cube weighted by its probabilities: on a joint
they give the expectation of the sample form under it.  The exact-MLE
partition uses a NumPy port of SciPy's `logsumexp`, so importing the package
loads no SciPy module.  The Gaussian sm and mle see the data only through the
sample mean and the scatter about mu, so both are closed forms in the
precision and that scatter.  Generalized-Gaussian sm differentiates its own score and Laplacian terms in
alpha.  The population objectives are value-only: they are the enumeration
oracles the estimators are checked against, so they keep their own
independent route through `log_unnorm`.  A population fit evaluates only the
joint-weighted form, which differs from its oracle by a theta-independent
constant, and adds that constant once (`estimation.objective_functions`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .grids import GridDensity, log_values, quad, require_same_geometry, support_mask
from .operators import DiscreteJoint, grid_gradient, marginalize
from .models import (
    GENGAUSS_EPS,
    Dataset,
    Model,
    ModelKind,
    fold_alphabet,
    gaussian_parts,
    grad_x_log,
    laplacian_x_log,
    log_unnorm,
    one_hot,
    pairwise_adjoint,
    pairwise_conditionals,
    pairwise_form,
    state_cube,
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
    grad_theta: np.ndarray


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

def logsumexp(a) -> float:
    """log(sum(exp(a))) over all entries of a finite array, computed as SciPy
    1.17's `scipy.special.logsumexp` computes it, and equal to it bit for bit.

    The maxima are taken out of the sum: with M the maximum and k the number of
    entries equal to it, the result is log1p(s / k) + log k + M, where s sums
    exp(a - M) over the other entries.
    """
    a = np.asarray(a, dtype=float)
    top = a.max()
    tied = a == top
    k = float(np.count_nonzero(tied))
    s = np.exp(np.where(tied, -np.inf, a) - top).sum()
    return float(np.log1p(s / k) + np.log(k) + top)


def _check_continuous_pair(model: Model, data) -> None:
    if model.kind not in (ModelKind.GAUSSIAN, ModelKind.GEN_GAUSS_1D):
        raise ValueError("objective requires a continuous model")
    if not isinstance(data, Dataset) or data.kind != "continuous" or data.dim != model.dim:
        raise ValueError("dataset is not continuous data of matching dimension")


def _check_discrete_pair(model: Model, data) -> None:
    """data is a discrete Dataset or a DiscreteJoint of the model's shape."""
    if model.alphabet_size is None:
        raise ValueError("objective requires a discrete model")
    if isinstance(data, DiscreteJoint):
        shape = (data.d, data.m)
    elif data.kind == "discrete":
        shape = (data.dim, data.alphabet_size)
    else:
        shape = None
    if shape != (model.dim, model.alphabet_size):
        raise ValueError("data is not discrete data of matching shape")


def _log_table(model: Model, theta) -> np.ndarray:
    """log q~ on the full state cube, shape (m,)*d."""
    mod = model.with_params(theta)
    m, d = mod.alphabet_size, mod.dim
    return np.asarray(log_unnorm(mod, state_cube(m, d))).reshape((m,) * d)


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

    For the Gaussian this is tr(P^2 M) - 2 tr P, with P the precision and M
    the 1/N scatter about mu.  On the generalized Gaussian it is consistent
    only for alpha > 1: at alpha <= 1 the eps-smoothed cusp at 0 breaks
    Hyvarinen's regularity condition, and the fit is biased (true 0.5 -> 1.00,
    0.8 -> 1.16 at N = 5e3).
    """
    _check_continuous_pair(model, data)
    mod = model.with_params(theta)
    if mod.kind is ModelKind.GAUSSIAN:
        P, r, M = _gaussian_scatter(mod, data.values)
        PP = P @ P
        B = PP @ M @ P
        grad = np.concatenate([-2.0 * PP @ r, _tril_grad(2.0 * PP - B - B.T)])
        return ObjectiveValue(float(np.sum(PP * M) - 2.0 * np.trace(P)), grad)
    x = data.values[:, 0]
    g = grad_x_log(mod, data.values)[:, 0]
    lap = laplacian_x_log(mod, data.values)
    value = float(np.mean(g * g + 2.0 * lap))
    # g and lap both carry the factor alpha * u^(alpha/2), u = x^2 + eps^2,
    # whose log-derivative in alpha is 1/alpha + log(u)/2; lap also has the
    # term -alpha x^2 u^(alpha/2 - 2) = g x / u.
    u = x * x + GENGAUSS_EPS**2
    dlog = 1.0 / mod.params[0] + 0.5 * np.log(u)
    grad = np.array([np.mean(2.0 * (g * g + lap) * dlog + 2.0 * g * x / u)])
    return ObjectiveValue(value, grad)


def _gaussian_scatter(model: Model, X: np.ndarray):
    """The precision P, xbar - mu and the 1/N scatter M about mu: all that the
    Gaussian sm and mle objectives see of the data."""
    mu, cov = gaussian_parts(model)
    centered = X - mu
    return np.linalg.inv(cov), centered.mean(axis=0), centered.T @ centered / X.shape[0]


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


def _weighted_states(data) -> tuple[np.ndarray, np.ndarray]:
    """The states and their weights: a Dataset's distinct states with their
    empirical frequencies, or a DiscreteJoint's state cube with its
    probabilities."""
    if isinstance(data, DiscreteJoint):
        return state_cube(data.m, data.d), data.probs.ravel()
    data, w = collapse_states(data)
    return data.values, w


def discrete_objective(model: Model, objective: ObjectiveKind, data):
    """A discrete empirical objective (gsm, rm, pl or mle) as a function of
    theta alone, returning its ObjectiveValue.

    data is a discrete Dataset, or a DiscreteJoint that stands for its state
    cube weighted by its probabilities.  Everything that does not depend on
    theta is built here once: the weighted states, their one-hot rows, and
    for mle the state cube's one-hot rows and the data moment.  A fit builds
    it once and evaluates it at every trial point; the public objectives
    build it per call and evaluate it once.
    """
    _check_discrete_pair(model, data)
    if objective is ObjectiveKind.RATIO_MATCHING and model.alphabet_size != 2:
        raise ValueError(
            f"ratio matching needs binary data, got alphabet size "
            f"{model.alphabet_size}; use gsm"
        )
    evaluate = _DISCRETE[objective]
    states, w = _weighted_states(data)
    if objective is ObjectiveKind.EXACT_MLE:
        # The data moment comes first, so that the states' one-hot rows are
        # freed before the cube's are built.
        data_moment = _pair_moments(model, one_hot(model, states), w)
        cube_x1 = one_hot(model, state_cube(model.alphabet_size, model.dim))
        return lambda theta: evaluate(model.with_params(theta), cube_x1, data_moment)
    x1 = one_hot(model, states)
    return lambda theta: evaluate(model.with_params(theta), x1, w)


def _observed(q: np.ndarray, x1: np.ndarray) -> np.ndarray:
    """q(xi|x^{\\i}) at each sample's own symbol, shape (N, d): the one-hot
    rows pick it out exactly."""
    return fold_alphabet(np.add, q * x1.reshape(q.shape))


def _softmax_backward(q: np.ndarray, g: np.ndarray) -> np.ndarray:
    """dl/dZ = q * (g - <q, g>) from g = dl/dq through q = softmax(Z) over the
    last axis; overwrites g."""
    g -= fold_alphabet(np.add, q * g)[:, :, None]
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


def _gsm(mod: Model, x1: np.ndarray, w: np.ndarray) -> ObjectiveValue:
    q = pairwise_conditionals(mod, x1)
    per_sample = (fold_alphabet(np.add, q**2) - 2.0 * _observed(q, x1)).sum(axis=1)
    dz = _softmax_backward(q, 2.0 * (q - x1.reshape(q.shape)))
    return ObjectiveValue(float(w @ per_sample), _conditional_grad(mod, x1, w, dz))


def _rm(mod: Model, x1: np.ndarray, w: np.ndarray) -> ObjectiveValue:
    q = pairwise_conditionals(mod, x1)
    miss = 1.0 - _observed(q, x1)
    per_sample = (miss**2).sum(axis=1)
    dz = _softmax_backward(q, -2.0 * miss[:, :, None] * x1.reshape(q.shape))
    return ObjectiveValue(float(w @ per_sample), _conditional_grad(mod, x1, w, dz))


def _pl(mod: Model, x1: np.ndarray, w: np.ndarray) -> ObjectiveValue:
    q = pairwise_conditionals(mod, x1)
    per_sample = -np.log(np.maximum(_observed(q, x1), 1e-300)).sum(axis=1)
    q -= x1.reshape(q.shape)  # dl/dZ of -log softmax at the observed symbol
    return ObjectiveValue(float(w @ per_sample), _conditional_grad(mod, x1, w, q))


def _mle(mod: Model, cube_x1: np.ndarray, data_moment: np.ndarray) -> ObjectiveValue:
    # log q~ = T(x) . theta = F . x1 + x1' C x1 / 2 on the cube, and the data
    # term is E_data[T] . theta; log_shift cancels against log Z.
    F, C = pairwise_form(mod)
    log_cube = cube_x1 @ F + 0.5 * ((cube_x1 @ C) * cube_x1).sum(axis=1)
    log_z = logsumexp(log_cube)
    grad = _pair_moments(mod, cube_x1, np.exp(log_cube - log_z))
    grad -= data_moment
    return ObjectiveValue(float(log_z - data_moment @ mod.params), grad)


_DISCRETE = {
    ObjectiveKind.GSM_DISCRETE: _gsm,
    ObjectiveKind.RATIO_MATCHING: _rm,
    ObjectiveKind.PSEUDO_LIKELIHOOD: _pl,
    ObjectiveKind.EXACT_MLE: _mle,
}


def gsm_discrete_objective(model: Model, theta, data) -> ObjectiveValue:
    """Sample form of the squared-conditional-difference divergence: mean of
    sum_i [sum_y q(y|x^{\\i})^2 - 2 q(xi|x^{\\i})] over the samples.

    Expanding gsm_discrete_population, the p-weighted cross term
    sum_y p(y|x^{\\i}) q(y|x^{\\i}) averages to q at the observed symbol, so
    the two differ by sum_x p(x) sum_i sum_y p(y|x^{\\i})^2, which does not
    depend on theta.  That constant needs p and is not added: the value is the
    plain sample form (the Brier score of the singleton conditionals), and on
    a DiscreteJoint p its p-weighted mean.
    """
    return discrete_objective(model, ObjectiveKind.GSM_DISCRETE, data)(theta)


def ratio_matching_objective(model: Model, theta, data) -> ObjectiveValue:
    """Hyvarinen's binary ratio matching: mean of sum_i (1 - q(xi|x^{\\i}))^2
    over the samples.

    For binary data this is (gsm_discrete_objective + d) / 2, so under p its
    expectation is half of ratio_matching_population plus a theta-independent
    constant, and both share a minimizer.  For m > 2 the observed-symbol form
    is no longer a constant away from that divergence, so such models are
    rejected; use gsm instead.
    """
    return discrete_objective(model, ObjectiveKind.RATIO_MATCHING, data)(theta)


def pseudo_likelihood_objective(model: Model, theta, data) -> ObjectiveValue:
    """Negative mean log product of singleton conditionals."""
    return discrete_objective(model, ObjectiveKind.PSEUDO_LIKELIHOOD, data)(theta)


def _pair_moments(model: Model, x1: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The w-weighted sum of T(x) = dlog q~/dtheta over the one-hot rows x1:
    log q~ = F . x1 + x1' C x1 / 2, so T is the adjoint of the pairwise form
    applied to (x1, x1 x1' / 2)."""
    return pairwise_adjoint(model, w @ x1, 0.5 * ((x1.T * w) @ x1))


def exact_mle_objective(model: Model, theta, data) -> ObjectiveValue:
    """Negative mean log *normalized* likelihood (brute-force partition).

    For discrete models the gradient is E_q[T] - E_data[T] of the sufficient
    statistic T = dlog q~/dtheta, with E_q taken over the enumerated cube.
    """
    if model.kind is not ModelKind.GAUSSIAN:
        return discrete_objective(model, ObjectiveKind.EXACT_MLE, data)(theta)
    # (tr(P M) + d log 2 pi + log det Sigma) / 2, with gradients
    # -P (xbar - mu) in mu and (P - P M P) / 2 in Sigma.
    mod = model.with_params(theta)
    _check_continuous_pair(model, data)
    P, r, M = _gaussian_scatter(mod, data.values)
    logdet = np.linalg.slogdet(gaussian_parts(mod)[1])[1]
    value = 0.5 * (np.sum(P * M) + mod.dim * np.log(2.0 * np.pi) + logdet)
    grad = np.concatenate([-P @ r, _tril_grad(0.5 * (P - P @ M @ P))])
    return ObjectiveValue(float(value), grad)


# ---------------------------------------------------------------------------
# Discrete population objectives (enumeration oracles)

def gsm_discrete_population(p: DiscreteJoint, model: Model, theta) -> float:
    """Exact squared-conditional-difference divergence:
    sum_x p(x) sum_i sum_xi (p(xi|x^{\\i}) - q(xi|x^{\\i}))^2.
    """
    _check_discrete_pair(model, p)
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
    _check_discrete_pair(model, p)
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
    _check_discrete_pair(model, p)
    qc = _conditionals_from_table(_log_table(model, theta), log_space=True)
    logs = np.log(np.maximum(qc, 1e-300)).sum(axis=0)
    return float(-np.sum(p.probs * logs))


def exact_mle_population(p: DiscreteJoint, model: Model, theta) -> float:
    """Cross entropy of p against the exactly normalized model."""
    _check_discrete_pair(model, p)
    table = _log_table(model, theta)
    return float(-np.sum(p.probs * (table - logsumexp(table))))
