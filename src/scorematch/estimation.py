"""Deterministic estimators: gradient descent with a backtracking line search
over any objective, the closed-form Gaussian score-matching solution, a
central-difference gradient check, and a multi-estimator comparison harness.

`OptimizerConfig` sets only the iteration cap, the gradient tolerance and the
start point.  The line search is fixed: a unit trial step scaled down by the
gradient max-norm, halved until the Armijo condition with constant 1e-4 holds.

Every fit uses an exact parameter gradient: each empirical objective returns
one with its value.  Population fits against an enumerated joint keep the
value-only oracle as their objective and take its gradient from the empirical
form weighted by the joint over the full state cube.  `fd_gradient` is the
reference the verification suites and tests check those gradients against;
no fit calls it.
"""

from __future__ import annotations

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
    collapse_states,
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
    objective: ObjectiveKind


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
    """Value and exact-gradient callables of theta for the given objective.

    ``data`` is a Dataset (empirical objective) or a DiscreteJoint (population
    objective).  An empirical objective returns its value and gradient from
    one evaluation.  A discrete one builds its theta-free design once, here:
    the dataset collapsed to its distinct states and their weights, their
    one-hot rows and, for mle, the state cube and the data moment
    (`objectives.discrete_objective`); every evaluation reuses it.  A
    population objective's value is its enumeration oracle; its exact
    gradient is that of the matching empirical form on the full state cube,
    weighted by the joint's probabilities, over a design built once in the
    same way.  Parameters outside the model's domain (a non-PD Gaussian
    covariance, a non-positive generalized-Gaussian exponent) evaluate to +inf
    so line searches back off.
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

        def value(theta):
            return oracle(data, model, theta)

        def grad(theta):
            return form_at(theta).grad_theta

        return value, grad
    if data.kind == "discrete" and objective is not ObjectiveKind.SM_CONTINUOUS:
        # Collapse to unique states and build their one-hot rows once;
        # redoing them on every objective evaluation inside the optimizer
        # dominates the runtime at large N.
        data, w = collapse_states(data)
        objective_at = discrete_objective(model, objective, data, weights=w)
    else:
        fn = _EMPIRICAL[objective]

        def objective_at(theta):
            return fn(model, theta, data)

    # One evaluation gives both the value and the gradient; the optimizer asks
    # for the gradient at the point whose value it has just accepted.
    last = {}

    def evaluate(theta):
        key = np.asarray(theta, dtype=float).tobytes()
        if last.get("key") != key:
            last.update(key=key, result=objective_at(theta))
        return last["result"]

    def value(theta):
        try:
            return evaluate(theta).value
        except (np.linalg.LinAlgError, ParameterDomainError):
            return np.inf

    def grad(theta):
        return evaluate(theta).grad_theta

    return value, grad


def fit(model: Model, objective: ObjectiveKind, data, cfg: OptimizerConfig | None = None) -> FitResult:
    """Gradient descent with a backtracking Armijo line search; deterministic."""
    cfg = cfg or OptimizerConfig()
    value, grad = objective_functions(model, objective, data)
    theta = (
        np.asarray(cfg.init_theta, dtype=float)
        if cfg.init_theta is not None
        else default_init(model)
    )
    v = value(theta)
    if not np.isfinite(v):
        raise ValueError(f"objective is not finite at the initial point {theta}")
    iters = 0
    g = grad(theta)
    for _ in range(cfg.max_iters):
        gnorm = float(np.abs(g).max())
        if gnorm <= cfg.grad_tol:
            break
        descent = -float(g @ g)
        # Unit trial step clipped by the gradient max-norm: a raw unit step
        # along a large early gradient can jump into a flat far-field valley
        # that the Armijo test still accepts, stranding the iterate.
        step = 1.0 / max(1.0, gnorm)
        while True:
            cand = theta - step * g
            v_new = value(cand)
            if np.isfinite(v_new) and v_new <= v + 1e-4 * step * descent:
                break
            step *= 0.5
            if step < 1e-20:
                cand, v_new = theta, v  # line search stalled at roundoff
                break
        if cand is theta:
            break
        theta, v = cand, v_new
        g = grad(theta)
        iters += 1
    gnorm = float(np.abs(g).max())
    return FitResult(
        theta_hat=theta,
        objective_value=float(v),
        grad_norm=gnorm,
        iters=iters,
        converged=gnorm <= cfg.grad_tol,
        objective=objective,
    )


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
