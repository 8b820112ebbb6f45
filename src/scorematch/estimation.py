"""Deterministic estimators: an L-BFGS fit over any objective, the
closed-form Gaussian score-matching solution, a central-difference gradient
check, and a multi-estimator comparison harness.

`OptimizerConfig` sets only the iteration cap, the gradient tolerance and the
start point.  The fit is L-BFGS (Nocedal 1980; Liu & Nocedal 1989) with a
fixed line search: a unit trial step, scaled down by the gradient max-norm
while no curvature pair is stored, halved until the Armijo condition with
constant 1e-4 holds.  Every objective is one callable theta -> (value, exact
gradient), so each trial point costs one evaluation.  `fd_gradient` is the
reference the verification suites and tests check those gradients against;
no fit calls it.
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
    discrete_dataset,
    exact_normalize,
    gaussian_model,
    sample,
    write_text,
)
from .objectives import (
    ObjectiveKind,
    ObjectiveValue,
    discrete_objective,
    exact_mle_objective,
    exact_mle_population,
    gsm_discrete_objective,
    gsm_discrete_population,
    pseudo_likelihood_objective,
    pseudo_likelihood_population,
    ratio_matching_objective,
    ratio_matching_population,
    sm_objective,
)
from .operators import DiscreteJoint

# Finite-difference step of the gradient checks.
FD_CHECK_STEP = 1e-5


@dataclass(frozen=True)
class OptimizerConfig:
    max_iters: int = 2000
    grad_tol: float = 1e-7
    init_theta: np.ndarray | None = None

    def __post_init__(self):
        if not (self.max_iters > 0 and self.grad_tol > 0):
            raise ValueError("max_iters and grad_tol must be positive")


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


def fd_gradient(fun, theta, step: float = FD_CHECK_STEP) -> np.ndarray:
    """Central-difference gradient of a scalar function of the parameters,
    the reference for checking exact gradients; every probe must be finite."""
    if step <= 0:
        raise ValueError("step must be positive")
    theta = np.asarray(theta, dtype=float)
    out = np.empty(theta.size)
    for k in range(theta.size):
        hi, lo = theta.copy(), theta.copy()
        hi[k] += step
        lo[k] -= step
        fp, fm = fun(hi), fun(lo)
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ValueError(f"non-finite objective near coordinate {k}")
        out[k] = (fp - fm) / (2.0 * step)
    return out


_EMPIRICAL = {
    ObjectiveKind.SM_CONTINUOUS: sm_objective,
    ObjectiveKind.GSM_DISCRETE: gsm_discrete_objective,
    ObjectiveKind.RATIO_MATCHING: ratio_matching_objective,
    ObjectiveKind.PSEUDO_LIKELIHOOD: pseudo_likelihood_objective,
    ObjectiveKind.EXACT_MLE: exact_mle_objective,
}

# Each population objective's value oracle, and the empirical form whose
# gradient on the joint-weighted state cube is the oracle's gradient.  pl and
# mle are the oracles' own sums; gsm differs from its divergence by a
# theta-independent constant; rm's divergence equals gsm's for every alphabet
# size, while the empirical rm is binary-only, so rm takes gsm's form.
_POPULATION = {
    ObjectiveKind.GSM_DISCRETE: (gsm_discrete_population, ObjectiveKind.GSM_DISCRETE),
    ObjectiveKind.RATIO_MATCHING: (ratio_matching_population, ObjectiveKind.GSM_DISCRETE),
    ObjectiveKind.PSEUDO_LIKELIHOOD: (pseudo_likelihood_population, ObjectiveKind.PSEUDO_LIKELIHOOD),
    ObjectiveKind.EXACT_MLE: (exact_mle_population, ObjectiveKind.EXACT_MLE),
}


def objective_functions(model: Model, objective: ObjectiveKind, data):
    """The objective as one callable theta -> (value, exact gradient).

    ``data`` is a Dataset (empirical objective) or a DiscreteJoint (population
    objective).  A discrete empirical objective builds its theta-free design
    once, here (`objectives.discrete_objective`).  A population objective's
    value is its enumeration oracle; its gradient is that of the matching
    empirical form on the full state cube, weighted by the joint.  Parameters
    outside the model's domain (a non-PD Gaussian covariance, a non-positive
    generalized-Gaussian exponent) evaluate to (+inf, None).
    """
    if isinstance(data, DiscreteJoint):
        if objective not in _POPULATION:
            raise ValueError(
                f"{objective.value} has no population form over an enumerated joint"
            )
        oracle, form = _POPULATION[objective]
        m, d = data.m, data.d
        cube = discrete_dataset(np.indices((m,) * d).reshape(d, -1).T, m)
        form_at = discrete_objective(model, form, cube, weights=data.probs.ravel())

        def objective_at(theta):
            return ObjectiveValue(oracle(data, model, theta), form_at(theta).grad_theta)

    elif data.kind == "discrete" and objective is not ObjectiveKind.SM_CONTINUOUS:
        objective_at = discrete_objective(model, objective, data)
    else:
        fn = _EMPIRICAL[objective]

        def objective_at(theta):
            return fn(model, theta, data)

    def value_and_grad(theta):
        try:
            out = objective_at(theta)
        except (np.linalg.LinAlgError, ParameterDomainError):
            return np.inf, None
        return out.value, out.grad_theta

    return value_and_grad


def fit(model: Model, objective: ObjectiveKind, data, cfg: OptimizerConfig | None = None) -> FitResult:
    """L-BFGS over the last 10 curvature pairs with a backtracking Armijo line
    search; deterministic.  A trial point whose value or gradient is not
    finite fails the Armijo test.  The fit stops at |g|_inf <= grad_tol, after
    max_iters steps, or when the line search stalls below a step of 1e-20.
    """
    cfg = cfg or OptimizerConfig()
    value_and_grad = objective_functions(model, objective, data)
    theta = default_init(model) if cfg.init_theta is None else np.asarray(cfg.init_theta, float)
    # Trial points may overflow on the way to a non-finite value, which the
    # line search rejects; the warning would say nothing more.
    with np.errstate(over="ignore", invalid="ignore"):
        v, g = value_and_grad(theta)
        if not np.isfinite(v):
            raise ValueError(f"objective is not finite at the initial point {theta}")
        pairs = deque(maxlen=10)  # curvature pairs (s, y, 1 / s'y), oldest first
        iters = 0
        while iters < cfg.max_iters:
            gnorm = float(np.abs(g).max())
            if gnorm <= cfg.grad_tol:
                break
            direction = -_two_loop(g, pairs)
            slope = float(g @ direction)
            if not slope < 0:
                direction, slope = -g, -float(g @ g)
            # With no curvature yet, the unit step is clipped by the gradient
            # max-norm: a raw unit step along a large early gradient can jump
            # into a flat far-field valley that the Armijo test still accepts.
            step = 1.0 if pairs else 1.0 / max(1.0, gnorm)
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
        objective_value=float(v),
        grad_norm=gnorm,
        iters=iters,
        converged=gnorm <= cfg.grad_tol,
    )


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
    if data.kind != "continuous":
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


def compare_estimators(
    model: Model,
    theta_star,
    n_list,
    seeds,
    objectives,
    cfg: OptimizerConfig | None = None,
) -> list[dict]:
    """Sample/fit grid over (objective, N, seed), plus population rows.

    Population rows fit against the exactly enumerated joint of the true
    parameters and are marked n = "inf" with an empty seed field.
    """
    theta_star = np.asarray(theta_star, dtype=float)
    truth = model.with_params(theta_star)
    joint = exact_normalize(truth)
    rows = []
    for objective in objectives:
        res = fit(model, objective, joint, cfg)
        rows.append(_row(objective, "inf", "", res, theta_star))
    for objective in objectives:
        for n in n_list:
            for seed in seeds:
                data = sample(truth, n, seed)
                res = fit(model, objective, data, cfg)
                rows.append(_row(objective, n, seed, res, theta_star))
    return rows


def _row(objective, n, seed, res: FitResult, theta_star) -> dict:
    return {
        "objective": objective.value,
        "n": n,
        "seed": seed,
        "converged": res.converged,
        "iters": res.iters,
        "linf_error": float(np.abs(res.theta_hat - theta_star).max()),
        "objective_value": res.objective_value,
        "grad_norm": res.grad_norm,
    }


COMPARISON_HEADER = "objective,n,seed,converged,iters,linf_error,objective_value,grad_norm"


def write_comparison_csv(path, rows) -> None:
    lines = [COMPARISON_HEADER]
    for r in rows:
        lines.append(
            f"{r['objective']},{r['n']},{r['seed']},{str(r['converged']).lower()},"
            f"{r['iters']},{r['linf_error']:.17g},{r['objective_value']:.17g},"
            f"{r['grad_norm']:.17g}"
        )
    write_text(path, "\n".join(lines) + "\n")
