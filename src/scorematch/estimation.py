"""Deterministic estimators: a damped Newton fit over any objective, an
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

Every other fit is a damped Newton iteration on the curvature matrix that
each objective returns beside its value and gradient (Nocedal & Wright 2006,
ch. 3).  The direction is -sum v v'g / |lambda| over the eigenpairs of that
matrix whose |lambda| lies above a floor of machine precision
(`_newton_direction`), projected off each Potts site's gauge, and for the
objectives that are not convex (gsm, rm and sm) scaled to max-norm at most 1.
A unit trial step is halved until the Armijo condition with constant 1e-4
holds, up to `ARMIJO_ULPS` ulps of the value.  Every fit starts at
`default_init`, stops at the module's `MAX_ITERS` and `GRAD_TOL`, read at
call time, and reports which exit it took (`FitResult.stop_reason`).  Every
objective is one callable theta -> (value, exact gradient, curvature), so
each trial point costs one evaluation: `objectives.empirical_objective`
builds its theta-free design once per fit.
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

# The Armijo test accepts a trial value up to this many ulps of |J| above its
# bound: near the minimum a Newton step changes J by less than J's own
# roundoff, and refusing it would stall the fit short of GRAD_TOL.
ARMIJO_ULPS = 64


@dataclass(frozen=True)
class FitResult:
    """A fit's estimate, the objective and its gradient's max-norm there, the
    Newton iterations taken, and why the fit stopped: `grad_tol`,
    `max_iters`, `line_search` (no trial step of at least 1e-20 along the
    Newton direction passed the Armijo test) or `solved` (a closed form)."""

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


# The objectives that are convex in theta: negative log-likelihoods of an
# exponential family, whose stationary points are their minima.  gsm, rm and
# sm are not, and their surfaces have plateaus where conditionals saturate
# at 0 or 1 and the gradient vanishes far above the minimum; a long Newton
# step can land on one and pass the Armijo test, so their steps are scaled
# to max-norm at most 1.
_CONVEX = (ObjectiveKind.PSEUDO_LIKELIHOOD, ObjectiveKind.EXACT_MLE)


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
    """Damped Newton steps on the objective's curvature (`_newton_direction`),
    capped at max-norm 1 for the objectives that are not convex (`_CONVEX`),
    with a backtracking Armijo line search; deterministic.  A trial point that
    is not finite, lies outside the model's domain (a non-positive
    generalized-Gaussian exponent), or has a value, gradient or curvature that
    is not finite fails the Armijo test.  The fit stops at |g|_inf <=
    GRAD_TOL, after MAX_ITERS steps, or when the line search finds no step of
    at least 1e-20, and names that exit in `stop_reason`.

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

    def evaluate(theta):
        """The objective at theta, or None where the trial fails."""
        if not np.isfinite(theta).all():
            return None
        try:
            out = objective_at(theta)
        except ParameterDomainError:
            return None
        finite = (np.isfinite(out.value) and np.isfinite(out.grad_theta).all()
                  and np.isfinite(out.curvature).all())
        return out if finite else None

    theta = default_init(model)
    # Trial points may overflow on the way to a non-finite value, which the
    # line search rejects; the warning would say nothing more.
    with np.errstate(over="ignore", invalid="ignore"):
        at = evaluate(theta)
        if at is None:
            raise ValueError(f"objective is not finite at the initial point {theta}")
        iters = 0
        while True:
            if float(np.abs(at.grad_theta).max()) <= GRAD_TOL:
                stop_reason = "grad_tol"
                break
            if iters >= MAX_ITERS:
                stop_reason = "max_iters"
                break
            # Eigenvectors of small kept eigenvalues can carry roundoff along
            # a Potts site's gauge, so the step is also projected off it.
            direction = zero_sum_gauge(model, _newton_direction(at.grad_theta, at.curvature))
            if form not in _CONVEX:
                direction *= 1.0 / max(1.0, float(np.abs(direction).max()))
            slope = float(at.grad_theta @ direction)
            bound = at.value + ARMIJO_ULPS * np.spacing(abs(at.value))
            step = 1.0
            # A direction that is not downhill (the gradient lies wholly in
            # the dropped eigenspace) has no step to search for.
            while slope < 0 and step >= 1e-20:
                cand = theta + step * direction
                trial = evaluate(cand)
                if trial is not None and trial.value <= bound + 1e-4 * step * slope:
                    break
                step *= 0.5
            else:
                stop_reason = "line_search"
                break
            theta, at = cand, trial
            iters += 1
    gnorm = float(np.abs(at.grad_theta).max())
    return FitResult(
        theta_hat=theta,
        objective_value=float(at.value) if oracle is None else oracle(data, model, theta),
        grad_norm=gnorm,
        iters=iters,
        converged=gnorm <= GRAD_TOL,
        stop_reason=stop_reason,
    )


def _newton_direction(g: np.ndarray, H: np.ndarray) -> np.ndarray:
    """-sum v v'g / |lambda| over the eigenpairs (lambda, v) of the symmetric
    H whose |lambda| exceeds its order times machine epsilon times the largest
    |lambda|.  Taking |lambda| keeps the step downhill where H is indefinite
    (gsm, rm and generalized-Gaussian sm need not be convex), and the floor
    drops the directions along which H vanishes up to roundoff, such as each
    Potts site's gauge, so no step moves along them."""
    lam, V = np.linalg.eigh(H)
    size = np.abs(lam)
    size[size <= H.shape[0] * np.finfo(float).eps * size.max()] = np.inf
    return -V @ ((g @ V) / size)


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
