"""Deterministic estimators: an L-BFGS fit over any objective, an exact
linear solve for Gaussian score matching, closed forms for the Gaussian
score-matching and maximum-likelihood estimates, a central-difference
gradient check, and a multi-estimator comparison harness.

Gaussian sm is quadratic in the natural parameters (vech P, P mu), so `fit`
minimizes it with one solve of its normal equations
(`objectives.gaussian_sm_normal_equations`) and maps the solution back to the
(mu, tril Sigma) layout: no iterations, no objective evaluation, and neither
`MAX_ITERS` nor the start point applies.
`closed_form_gaussian_sm` is the independent moment formula that solve is
checked against, and no fit calls it.  Gaussian mle is the data's mean and
1/N scatter (`objectives.gaussian_moments`), again with no iterations, and
is judged by the mle objective's gradient there.  Each of the two reads the
data in one moments pass and writes its estimate straight into the
(mu, tril Sigma) layout, where one Cholesky factorization of the estimate's
covariance checks that it is positive definite.

Every other fit is L-BFGS (Nocedal 1980; Liu & Nocedal 1989) with a
fixed line search: a unit trial step along the L-BFGS direction (along the
negative gradient scaled to max-norm at most 1 while no curvature pair is
stored), halved until the Armijo condition with constant 1e-4 holds.
Every fit starts at `default_init` and stops at the module's `MAX_ITERS`
and `GRAD_TOL`, read at call time.  Every objective is one callable
theta -> (value, exact gradient), so each trial point costs one evaluation:
`objectives.empirical_objective` builds its theta-free design once per fit.
A population fit, on a DiscreteJoint, minimizes the objective's empirical
form on the joint, which differs from the enumeration oracle by a
theta-independent constant and so has the same minimizer; it calls the
oracle once, at the estimate, for the value it reports.  `fd_gradient` is
the reference the verification suites and tests check those gradients
against; no fit calls it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .models import (
    Dataset,
    Model,
    ModelKind,
    ParameterDomainError,
    exact_normalize,
    gaussian_model,
    gaussian_parts,
    sample,
    zero_sum_gauge,
)
from .objectives import (
    GaussianMoments,
    ObjectiveKind,
    _vech_basis,
    empirical_objective,
    exact_mle_population,
    gaussian_moments,
    gaussian_sm_normal_equations,
    gsm_discrete_population,
    pseudo_likelihood_population,
    ratio_matching_population,
)
from .operators import DiscreteJoint

# Finite-difference step of the gradient checks.
FD_CHECK_STEP = 1e-5

# The iteration cap of a fit and the gradient max-norm at which it stops.
MAX_ITERS = 2000
GRAD_TOL = 1e-7


@dataclass(frozen=True)
class FitResult:
    theta_hat: np.ndarray
    objective_value: float
    grad_norm: float
    iters: int
    converged: bool


def default_init(model: Model) -> np.ndarray:
    """Neutral starting point: zero fields/couplings; unit-variance Gaussian.

    (All-zero parameters would be a singular covariance for the Gaussian
    layout, so that kind starts at mu = 0, sigma = identity instead.)
    """
    if model.kind is ModelKind.GAUSSIAN:
        return gaussian_model(np.zeros(model.dim), np.eye(model.dim)).params
    if model.kind is ModelKind.GEN_GAUSS_1D:
        return np.ones(1)
    return np.zeros(model.n_params)


def fd_gradient(fun, theta) -> np.ndarray:
    """Central-difference gradient of a scalar function of the parameters
    with step FD_CHECK_STEP, the reference for checking exact gradients; every
    probe must be finite."""
    theta = np.asarray(theta, dtype=float)
    out = np.empty(theta.size)
    for k in range(theta.size):
        hi, lo = theta.copy(), theta.copy()
        hi[k] += FD_CHECK_STEP
        lo[k] -= FD_CHECK_STEP
        fp, fm = fun(hi), fun(lo)
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ValueError(f"non-finite objective near coordinate {k}")
        out[k] = (fp - fm) / (2.0 * FD_CHECK_STEP)
    return out


# Each population objective's enumeration oracle, and the empirical form that
# a population fit builds (`objectives.empirical_objective`) on the joint and
# minimizes instead.  Each form differs from its oracle by a theta-independent
# constant, so the two share their minimizer: zero for pl and mle, which are
# the oracles' own sums; the p-only term of the expanded square for gsm; and
# for rm, whose divergence equals gsm's at every alphabet size while the
# empirical rm is binary-only, gsm's form and that same term.
_POPULATION = {
    ObjectiveKind.GSM_DISCRETE: (gsm_discrete_population, ObjectiveKind.GSM_DISCRETE),
    ObjectiveKind.RATIO_MATCHING: (ratio_matching_population, ObjectiveKind.GSM_DISCRETE),
    ObjectiveKind.PSEUDO_LIKELIHOOD: (pseudo_likelihood_population, ObjectiveKind.PSEUDO_LIKELIHOOD),
    ObjectiveKind.EXACT_MLE: (exact_mle_population, ObjectiveKind.EXACT_MLE),
}


def fit(model: Model, objective: ObjectiveKind, data) -> FitResult:
    """L-BFGS over the last 10 curvature pairs with a backtracking Armijo line
    search; deterministic.  A trial point whose value or gradient is not
    finite fails the Armijo test, and one outside the model's domain (a
    non-positive generalized-Gaussian exponent) evaluates to +inf.  The fit
    stops at |g|_inf <= GRAD_TOL, after MAX_ITERS steps, or when the line
    search stalls below a step of 1e-20.

    Gaussian sm and mle are instead solved exactly (`_solve_gaussian_sm`,
    `_solve_gaussian_mle`), with 0 iterations.  A fit on a DiscreteJoint
    minimizes the population objective's empirical form on the joint
    (`_POPULATION`) and reports the enumeration oracle's divergence at the
    estimate.
    """
    if model.kind is ModelKind.GAUSSIAN and objective is ObjectiveKind.SM_CONTINUOUS:
        return _solve_gaussian_sm(model, data)
    if model.kind is ModelKind.GAUSSIAN and objective is ObjectiveKind.EXACT_MLE:
        return _solve_gaussian_mle(model, data)
    oracle, form = None, objective
    if isinstance(data, DiscreteJoint):
        if objective not in _POPULATION:
            raise ValueError(
                f"{objective.value} has no population form over an enumerated joint"
            )
        oracle, form = _POPULATION[objective]
    objective_at = empirical_objective(model, form, data)

    def value_and_grad(theta):
        try:
            out = objective_at(theta)
        except ParameterDomainError:
            return np.inf, None
        return out.value, out.grad_theta

    theta = default_init(model)
    # Trial points may overflow on the way to a non-finite value, which the
    # line search rejects; the warning would say nothing more.
    with np.errstate(over="ignore", invalid="ignore"):
        v, g = value_and_grad(theta)
        if not np.isfinite(v):
            raise ValueError(f"objective is not finite at the initial point {theta}")
        pairs = deque(maxlen=10)  # curvature pairs (s, y, 1 / s'y), oldest first
        iters = 0
        while iters < MAX_ITERS:
            gnorm = float(np.abs(g).max())
            if gnorm <= GRAD_TOL:
                break
            direction = -_two_loop(g, pairs)
            slope = float(g @ direction)
            if not (pairs and slope < 0):
                # With no curvature yet (or no descent direction), step along
                # the gradient scaled to max-norm at most 1: a unit step along
                # a large early gradient can jump into a flat far-field valley
                # that the Armijo test still accepts.  Scaling the direction
                # rather than the step keeps the slope free of overflow.
                direction = -g * (1.0 / max(1.0, gnorm))
                slope = float(g @ direction)
            step = 1.0
            while step >= 1e-20:
                cand = theta + step * direction
                v_new, g_new = value_and_grad(cand)
                armijo = np.isfinite(v_new) and v_new <= v + 1e-4 * step * slope
                if armijo and np.all(np.isfinite(g_new)):
                    break
                step *= 0.5
            else:
                break  # the line search stalled at roundoff
            s, y = cand - theta, g_new - g
            sy = float(s @ y)
            if sy > 1e-10 * float(y @ y):
                pairs.append((s, y, 1.0 / sy))
            theta, v, g = cand, v_new, g_new
            iters += 1
    gnorm = float(np.abs(g).max())
    return FitResult(
        theta_hat=theta,
        objective_value=float(v) if oracle is None else oracle(data, model, theta),
        grad_norm=gnorm,
        iters=iters,
        converged=gnorm <= GRAD_TOL,
    )


def _solve_gaussian_sm(model: Model, data) -> FitResult:
    """The exact minimizer of the Gaussian sm objective J(eta) = eta' A eta +
    2 b' eta: one solve of its normal equations in the natural parameters
    eta = (vech P, h = P mu), mapped back by Sigma = P^-1 and mu = Sigma h and
    written straight into the (mu, tril Sigma) layout.  The fit is judged in
    eta, where J is quadratic: its gradient is 2 (A eta + b), whose max-norm
    must pass GRAD_TOL, and its value there is b' eta.  A singular design (a
    singular scatter, as from N <= d samples), a precision that is not
    positive definite or that `inv` finds singular, or a returned covariance
    that is not positive definite, raises ValueError.
    """
    A, b = gaussian_sm_normal_equations(model, data)
    if np.linalg.matrix_rank(A) < A.shape[0]:
        raise ValueError("the sm normal equations are singular: "
                         "the data's scatter about its mean is singular")
    eta = np.linalg.solve(A, -b)
    d = model.dim
    rows, cols = _vech_basis(d)[2]
    P = np.zeros((d, d))
    P[rows, cols] = P[cols, rows] = eta[:-d]
    try:
        np.linalg.cholesky(P)
    except np.linalg.LinAlgError:
        raise ValueError("the sm solution's precision is not positive definite") from None
    try:
        cov = np.linalg.inv(P)
    except np.linalg.LinAlgError:
        raise ValueError("the sm solution's precision is singular") from None
    mu = cov @ eta[-d:]
    cov = (cov + cov.T) / 2
    try:
        np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise ValueError("the sm solution's covariance is not positive definite") from None
    gnorm = float(np.abs(2.0 * (A @ eta + b)).max())
    return FitResult(theta_hat=np.concatenate([mu, cov[rows, cols]]),
                     objective_value=float(b @ eta), grad_norm=gnorm, iters=0,
                     converged=gnorm <= GRAD_TOL)


def _solve_gaussian_mle(model: Model, data) -> FitResult:
    """The exact Gaussian mle: the data's mean and 1/N scatter about it
    (`objectives.gaussian_moments`), written straight into the (mu, tril
    Sigma) layout and judged by the mle objective's gradient there.  The
    objective's domain check, one Cholesky of the scatter, is the singularity
    check: a singular scatter raises ValueError."""
    moments = gaussian_moments(model, data)
    rows, cols = _vech_basis(model.dim)[2]
    theta = np.concatenate([moments.mean, moments.scatter[rows, cols]])
    try:
        out = empirical_objective(model, ObjectiveKind.EXACT_MLE, moments)(theta)
    except ParameterDomainError:
        raise ValueError("the data's scatter about its mean is singular") from None
    gnorm = float(np.abs(out.grad_theta).max())
    return FitResult(theta_hat=theta, objective_value=out.value, grad_norm=gnorm, iters=0,
                     converged=gnorm <= GRAD_TOL)


def _two_loop(g: np.ndarray, pairs) -> np.ndarray:
    """The L-BFGS inverse-Hessian approximation applied to g (Nocedal 1980),
    with the initial matrix scaled by s'y / y'y of the newest pair."""
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * float(s @ q)
        q -= a * y
        alphas.append(a)
    if pairs:
        s, y, rho = pairs[-1]
        q *= 1.0 / (rho * float(y @ y))
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        q += (a - rho * float(y @ q)) * s
    return q


def closed_form_gaussian_sm(data: Dataset) -> np.ndarray:
    """Sample mean and 1/N covariance in the Gaussian parameter layout."""
    if data.alphabet_size is not None:
        raise ValueError("Gaussian closed form needs continuous data")
    X = data.values
    mu = X.mean(axis=0)
    centered = X - mu
    cov = centered.T @ centered / X.shape[0]
    try:
        np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise ValueError("sample covariance is singular") from None
    return gaussian_model(mu, cov).params


def compare_estimators(model: Model, n_list, seeds, objectives) -> list[dict]:
    """Sample/fit grid over (objective, N, seed), plus population rows.

    The model's own params are the truth: every dataset is sampled from it,
    and every row's error is measured against them.  Population rows fit
    against the true distribution and are marked n = "inf" with an empty
    seed field: a discrete model's exactly enumerated joint, or a
    Gaussian's own mean and covariance as its GaussianMoments,
    the design its sample objectives build from data.  Other continuous
    models get no population rows.  Errors compare estimate and truth in the
    zero-sum gauge (`models.zero_sum_gauge`), since a Potts distribution
    fixes its fields only up to a constant per site.
    """
    if model.alphabet_size:
        population = exact_normalize(model)
    elif model.kind is ModelKind.GAUSSIAN:
        population = GaussianMoments(*gaussian_parts(model))
    else:
        population = None
    rows = []
    if population is not None:
        for objective in objectives:
            res = fit(model, objective, population)
            rows.append(_row(model, objective, "inf", "", res))
    for objective in objectives:
        for n in n_list:
            for seed in seeds:
                data = sample(model, n, seed)
                res = fit(model, objective, data)
                rows.append(_row(model, objective, n, seed, res))
    return rows


def _row(model: Model, objective, n, seed, res: FitResult) -> dict:
    error = zero_sum_gauge(model, res.theta_hat) - zero_sum_gauge(model, model.params)
    return {
        "objective": objective.value,
        "n": n,
        "seed": seed,
        "converged": res.converged,
        "iters": res.iters,
        "linf_error": float(np.abs(error).max()),
        "objective_value": res.objective_value,
        "grad_norm": res.grad_norm,
    }


COMPARISON_HEADER = "objective,n,seed,converged,iters,linf_error,objective_value,grad_norm"


def comparison_to_csv(rows) -> str:
    lines = [COMPARISON_HEADER]
    for r in rows:
        lines.append(
            f"{r['objective']},{r['n']},{r['seed']},{str(r['converged']).lower()},"
            f"{r['iters']},{r['linf_error']:.17g},{r['objective_value']:.17g},"
            f"{r['grad_norm']:.17g}"
        )
    return "\n".join(lines) + "\n"
