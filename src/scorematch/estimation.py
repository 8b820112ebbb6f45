"""Deterministic estimators: backtracking gradient descent over any objective,
the closed-form Gaussian score-matching solution, finite-difference gradient
oracles, and a multi-estimator comparison harness.

Fits use the objectives' exact parameter gradients: Gaussian score matching
and every empirical discrete objective (gsm, rm, pl, mle) provide them.
Central finite differences remain only for score matching on the
generalized Gaussian, exact MLE on the Gaussian, and population fits against
an enumerated joint.
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
    sample,
    write_text,
)
from .objectives import (
    ObjectiveKind,
    collapse_states,
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

# Finite-difference steps: one for gradient checks, one for optimizer fallbacks.
FD_CHECK_STEP = 1e-5
FD_OPT_STEP = 1e-6


@dataclass(frozen=True)
class OptimizerConfig:
    max_iters: int = 2000
    grad_tol: float = 1e-7
    initial_step: float = 1.0
    backtrack: float = 0.5
    armijo: float = 1e-4
    init_theta: np.ndarray | None = None
    fd_step: float = FD_OPT_STEP

    def __post_init__(self):
        if min(self.max_iters, self.grad_tol, self.initial_step, self.fd_step) <= 0:
            raise ValueError("optimizer config entries must be positive")
        if not 0 < self.backtrack < 1 or not 0 < self.armijo < 1:
            raise ValueError("backtrack and armijo constants must lie in (0, 1)")


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
    """Central-difference gradient of a scalar function of the parameters.

    A coordinate whose probe on one side leaves the domain (a non-finite
    value) takes the one-sided difference on the other side, so a point
    within one step of the domain's edge still has a gradient.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    theta = np.asarray(theta, dtype=float)
    out = np.empty(theta.size)
    f0 = None
    for k in range(theta.size):
        hi, lo = theta.copy(), theta.copy()
        hi[k] += step
        lo[k] -= step
        fp, fm = fun(hi), fun(lo)
        if np.isfinite(fp) and np.isfinite(fm):
            out[k] = (fp - fm) / (2.0 * step)
            continue
        if f0 is None:
            f0 = fun(theta)
        if not np.isfinite(f0) or not (np.isfinite(fp) or np.isfinite(fm)):
            raise ValueError(f"non-finite objective near coordinate {k}")
        out[k] = (fp - f0) / step if np.isfinite(fp) else (f0 - fm) / step
    return out


_EMPIRICAL = {
    ObjectiveKind.SM_CONTINUOUS: sm_objective,
    ObjectiveKind.GSM_DISCRETE: gsm_discrete_objective,
    ObjectiveKind.RATIO_MATCHING: ratio_matching_objective,
    ObjectiveKind.PSEUDO_LIKELIHOOD: pseudo_likelihood_objective,
    ObjectiveKind.EXACT_MLE: exact_mle_objective,
}

_POPULATION = {
    ObjectiveKind.GSM_DISCRETE: gsm_discrete_population,
    ObjectiveKind.RATIO_MATCHING: ratio_matching_population,
    ObjectiveKind.PSEUDO_LIKELIHOOD: pseudo_likelihood_population,
    ObjectiveKind.EXACT_MLE: exact_mle_population,
}


def objective_functions(model: Model, objective: ObjectiveKind, data):
    """Value and gradient callables of theta for the given objective.

    ``data`` is a Dataset (empirical objective) or a DiscreteJoint (population
    objective).  Empirical objectives give exact gradients, except score
    matching on the generalized Gaussian and exact MLE on the Gaussian;
    there, and for every population objective, the gradient callable is None and the caller falls back to
    central finite differences.  Parameters outside the model's domain (a
    non-PD Gaussian covariance, a non-positive generalized-Gaussian exponent)
    evaluate to +inf so line searches back off.
    """
    if isinstance(data, DiscreteJoint):
        if objective not in _POPULATION:
            raise ValueError(
                f"{objective.value} has no population form over an enumerated joint"
            )
        pop = _POPULATION[objective]

        def value(theta):
            return pop(data, model, theta)

        return value, None
    fn = _EMPIRICAL[objective]
    kwargs = {}
    if data.kind == "discrete" and objective is not ObjectiveKind.SM_CONTINUOUS:
        # Collapse to unique states once; re-deduplicating on every objective
        # evaluation inside the optimizer dominates the runtime at large N.
        data, w = collapse_states(data)
        kwargs = {"weights": w}
    # One evaluation gives both the value and the gradient; the optimizer asks
    # for the gradient at the point whose value it has just accepted.
    last = {}

    def evaluate(theta):
        key = np.asarray(theta, dtype=float).tobytes()
        if last.get("key") != key:
            last.update(key=key, result=fn(model, theta, data, **kwargs))
        return last["result"]

    def value(theta):
        try:
            return evaluate(theta).value
        except (np.linalg.LinAlgError, ParameterDomainError):
            return np.inf

    def grad(theta):
        return evaluate(theta).grad_theta

    probe = evaluate(default_init(model))
    return value, (grad if probe.grad_theta is not None else None)


def fit(model: Model, objective: ObjectiveKind, data, cfg: OptimizerConfig | None = None) -> FitResult:
    """Gradient descent with backtracking line search; deterministic."""
    cfg = cfg or OptimizerConfig()
    value, analytic_grad = objective_functions(model, objective, data)

    def grad(theta):
        if analytic_grad is not None:
            return analytic_grad(theta)
        return fd_gradient(value, theta, cfg.fd_step)

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
        # Trial step clipped by the gradient max-norm: a raw unit step along a
        # large early gradient can jump into a flat far-field valley that the
        # Armijo test still accepts, stranding the iterate.
        step = cfg.initial_step / max(1.0, gnorm)
        while True:
            cand = theta - step * g
            v_new = value(cand)
            if np.isfinite(v_new) and v_new <= v + cfg.armijo * step * descent:
                break
            step *= cfg.backtrack
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
