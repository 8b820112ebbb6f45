"""Deterministic estimators: a trust-region Newton fit over any objective, an
exact linear solve for Gaussian score matching, closed forms for the Gaussian
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

Every other fit is a trust-region Newton iteration (Nocedal & Wright 2006,
ch. 4 and 7) on the product v -> Hv with its exact Hessian that each
objective returns beside its value and gradient, so no step forms or
factorizes a P x P matrix; for the discrete mle each product is two passes
over the state cube.  It starts at `default_init`, stops at `MAX_ITERS` or
`GRAD_TOL`, read at call time, and reports its exit
(`FitResult.stop_reason`).  Each trial costs one evaluation of the design
built once per fit.
A population fit, on a DiscreteJoint, minimizes the objective's empirical
form on the joint, which differs from the enumeration oracle by a
theta-independent constant and so has the same minimizer; it calls the
oracle once, at the estimate, for the value it reports.  `fd_gradient` is
the reference the verification suites and tests check those gradients
against; no fit calls it.
"""

from __future__ import annotations

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

# The ratio test credits a trial step with this many ulps of |J|: near the
# minimum a Newton step changes J by less than J's own roundoff, and refusing
# it would stall the fit short of GRAD_TOL.
ARMIJO_ULPS = 64


@dataclass(frozen=True)
class FitResult:
    """A fit's estimate, the objective and its gradient's max-norm there, the
    Newton steps taken, and why the fit stopped: `grad_tol`, `max_iters`,
    `trust_region` (steps that failed the ratio test shrank the trust region
    below radius 1e-20) or `solved` (a closed form)."""

    theta_hat: np.ndarray
    objective_value: float
    grad_norm: float
    iters: int
    converged: bool
    stop_reason: str


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
    """Trust-region Newton steps, each Steihaug-Toint CG on the objective's
    curvature products (`_steihaug`); deterministic.  CG stops at the
    boundary along a direction of negative curvature, so gsm, rm and sm need
    no other safeguard, and the radius, which starts at 1, caps every step.
    A step is taken when the objective falls by over 1e-4 of the decrease
    its quadratic model predicts, up to `ARMIJO_ULPS` ulps of the value; the
    radius shrinks to a quarter of a step that gains under a quarter of that
    and grows to twice one that gains over three quarters.  A trial point
    outside the model's domain, whose value or gradient is not finite, or
    that rounds back to theta itself, is refused.  The fit stops at
    |g|_inf <= GRAD_TOL, after MAX_ITERS steps or when the radius falls below
    1e-20, and names that exit in `stop_reason`.

    Gaussian sm and mle are closed forms with 0 iterations.  A fit on a
    DiscreteJoint minimizes the population objective's empirical form on the
    joint (`_POPULATION`) and reports the oracle's divergence at the estimate.
    """
    if model.kind is ModelKind.GAUSSIAN and objective is ObjectiveKind.SM_CONTINUOUS:
        return _solve_gaussian_sm(model, data)
    if model.kind is ModelKind.GAUSSIAN and objective is ObjectiveKind.EXACT_MLE:
        return _solve_gaussian_mle(model, data)
    oracle, form = None, objective
    if isinstance(data, DiscreteJoint):
        if objective not in _POPULATION:
            raise ValueError(f"{objective.value} has no population form over an enumerated joint")
        oracle, form = _POPULATION[objective]
    objective_at = empirical_objective(model, form, data)

    def evaluate(theta):
        """The objective at theta, or None where the trial fails."""
        try:
            out = objective_at(theta)
        except ParameterDomainError:
            return None
        return out if np.isfinite(out.value) and np.isfinite(out.grad_theta).all() else None

    theta, radius, iters = default_init(model), 1.0, 0
    # Trial points may overflow on the way to a non-finite value, which the
    # ratio test refuses; the warning would say nothing more.
    with np.errstate(over="ignore", invalid="ignore"):
        at = evaluate(theta)
        if at is None:
            raise ValueError(f"objective is not finite at the initial point {theta}")
        while np.abs(at.grad_theta).max() > GRAD_TOL and iters < MAX_ITERS and radius >= 1e-20:
            step, predicted = _steihaug(model, at.grad_theta, at.curvature, radius)
            candidate = theta + step
            trial = evaluate(candidate)
            gain = -np.inf if trial is None else (
                at.value - trial.value + ARMIJO_ULPS * np.spacing(abs(at.value)))
            accepted = gain > 1e-4 * predicted and np.any(candidate != theta)
            if not (accepted and gain >= 0.25 * predicted):
                radius = 0.25 * np.sqrt(step @ step)
            elif gain > 0.75 * predicted:
                radius = max(radius, 2.0 * np.sqrt(step @ step))
            if accepted:
                theta, at, iters = candidate, trial, iters + 1
    gnorm = float(np.abs(at.grad_theta).max())
    stop = "grad_tol" if gnorm <= GRAD_TOL else "max_iters" if iters >= MAX_ITERS else "trust_region"
    value = float(at.value) if oracle is None else oracle(data, model, theta)
    return FitResult(theta_hat=theta, objective_value=value, grad_norm=gnorm, iters=iters,
                     converged=gnorm <= GRAD_TOL, stop_reason=stop)


def _steihaug(model: Model, g: np.ndarray, hess, radius: float) -> tuple[np.ndarray, float]:
    """A step p, |p| <= radius, and the decrease of the model g'p + p'Hp/2
    there: CG on Hp = -g from 0 until the residual is at most
    min(0.01, |g|_inf) |g|, or to the boundary along non-positive curvature
    or past it (Steihaug 1983), in units of |g|_inf so that no dot product
    overflows, with g and each product hess(v) projected off the gauge."""
    scale = float(np.abs(g).max())
    g = zero_sum_gauge(model, g / scale)
    r, d, p = g, -g, np.zeros(g.size)
    rr = float(r @ r)
    tol = min(0.01, scale) ** 2 * rr
    for _ in range(g.size):
        hd = zero_sum_gauge(model, hess(d))
        dhd = float(d @ hd)
        if dhd > 0:
            alpha = rr / dhd
            nxt = p + (scale * alpha) * d
            if nxt @ nxt < radius * radius:
                p, r = nxt, r + alpha * hd
                rr, last = float(r @ r), rr
                if rr <= tol:
                    break
                d = (rr / last) * d - r
                continue
        # To the boundary along d: the root t >= 0 of |p + t d| = radius.
        dd, pd = float(d @ d), float(p @ d)
        t = (np.sqrt(pd * pd + dd * (radius * radius - float(p @ p))) - pd) / dd
        p, r = p + t * d, r + (t / scale) * hd
        break
    return p, -0.5 * scale * float(p @ (g + r))


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
                     converged=gnorm <= GRAD_TOL, stop_reason="solved")


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
                     converged=gnorm <= GRAD_TOL, stop_reason="solved")


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


# The comparison CSV's columns, in order: the keys of each row.
COMPARISON_COLUMNS = ("objective", "n", "seed", "converged", "iters", "stop_reason",
                      "linf_error", "objective_value", "grad_norm")
COMPARISON_HEADER = ",".join(COMPARISON_COLUMNS)


def _row(model: Model, objective, n, seed, res: FitResult) -> dict:
    """A comparison row: the fit's own fields by name, and its error in the
    zero-sum gauge."""
    error = zero_sum_gauge(model, res.theta_hat) - zero_sum_gauge(model, model.params)
    own = {"objective": objective.value, "n": n, "seed": seed, "linf_error": float(np.abs(error).max())}
    return {k: own[k] if k in own else getattr(res, k) for k in COMPARISON_COLUMNS}


def _csv_field(v) -> str:
    return str(v).lower() if isinstance(v, bool) else f"{v:.17g}" if isinstance(v, float) else str(v)


def comparison_to_csv(rows) -> str:
    lines = [COMPARISON_HEADER] + [",".join(_csv_field(r[k]) for k in COMPARISON_COLUMNS) for r in rows]
    return "\n".join(lines) + "\n"
