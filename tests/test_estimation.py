"""Optimizer, closed-form Gaussian estimator, and the comparison harness."""

import io

import numpy as np
import pytest

from scorematch import estimation
from scorematch.estimation import (
    COMPARISON_HEADER,
    FitResult,
    OptimizerConfig,
    closed_form_gaussian_sm,
    compare_estimators,
    default_init,
    fd_gradient,
    fit,
    objective_functions,
    write_comparison_csv,
)
from scorematch.models import (
    continuous_dataset,
    discrete_dataset,
    exact_normalize,
    gaussian_model,
    gen_gauss_model,
    ising_model,
    potts_model,
    sample,
)
from scorematch.objectives import ObjectiveKind


# ---------------------------------------------------------------------------
# fd_gradient

def test_fd_gradient_quadratic_exact():
    g = fd_gradient(lambda t: float(t @ t), np.array([1.0, 2.0]), 1e-5)
    assert np.abs(g - [2.0, 4.0]).max() < 1e-8


def test_fd_gradient_rejects_bad_step_and_nonfinite():
    with pytest.raises(ValueError):
        fd_gradient(lambda t: 0.0, np.zeros(2), 0.0)
    with pytest.raises(ValueError, match="non-finite"):
        fd_gradient(lambda t: np.inf, np.zeros(2), 1e-5)


# ---------------------------------------------------------------------------
# Closed-form Gaussian estimator

def test_closed_form_hand_moments():
    theta = closed_form_gaussian_sm(continuous_dataset([[0.0], [2.0]]))
    assert theta == pytest.approx([1.0, 1.0])  # mean 1, 1/N variance 1


def test_closed_form_affine_equivariance():
    data = sample(gaussian_model([0.5, -1.0], [[1.0, 0.3], [0.3, 2.0]]), 200, seed=4)
    base = closed_form_gaussian_sm(data)
    scaled = closed_form_gaussian_sm(continuous_dataset(3.0 * data.values))
    assert np.allclose(scaled[:2], 3.0 * base[:2])
    assert np.allclose(scaled[2:], 9.0 * base[2:])


def test_closed_form_rejects_singular_covariance():
    with pytest.raises(ValueError, match="singular"):
        closed_form_gaussian_sm(continuous_dataset([[1.0], [1.0], [1.0]]))


# ---------------------------------------------------------------------------
# fit

def test_fit_gaussian_sm_matches_closed_form():
    truth = gaussian_model([0.7, -0.3], [[1.5, 0.4], [0.4, 0.9]])
    data = sample(truth, 300, seed=2)
    ref = closed_form_gaussian_sm(data)
    res = fit(gaussian_model(np.zeros(2), np.eye(2)), ObjectiveKind.SM_CONTINUOUS, data)
    assert res.converged
    assert np.abs(res.theta_hat - ref).max() < 1e-6


def test_fit_population_gsm_recovers_truth():
    truth = ising_model([0.0, 0.0], [0.5])
    joint = exact_normalize(truth)
    res = fit(ising_model(np.zeros(2), np.zeros(1)), ObjectiveKind.GSM_DISCRETE, joint)
    assert np.abs(res.theta_hat - truth.params).max() < 1e-5


def test_fit_deterministic():
    data = sample(ising_model([0.1, -0.2, 0.3], [0.5, 0.5]), 500, seed=9)
    model = ising_model(np.zeros(3), np.zeros(2))
    a = fit(model, ObjectiveKind.PSEUDO_LIKELIHOOD, data)
    b = fit(model, ObjectiveKind.PSEUDO_LIKELIHOOD, data)
    assert np.array_equal(a.theta_hat, b.theta_hat)
    assert a.objective_value == b.objective_value
    assert a.iters == b.iters


def test_fit_never_increases_objective():
    data = sample(ising_model([0.3, -0.1], [0.4]), 400, seed=13)
    model = ising_model(np.zeros(2), np.zeros(1))
    value, _ = objective_functions(model, ObjectiveKind.EXACT_MLE, data)
    res = fit(model, ObjectiveKind.EXACT_MLE, data)
    assert res.objective_value <= value(default_init(model)) + 1e-15


def test_fit_respects_init_theta_override():
    truth = gaussian_model([0.0], [[1.0]])
    data = sample(truth, 100, seed=1)
    ref = closed_form_gaussian_sm(data)
    cfg = OptimizerConfig(init_theta=np.array([0.5, 2.0]))
    res = fit(gaussian_model([0.0], [[1.0]]), ObjectiveKind.SM_CONTINUOUS, data, cfg)
    assert np.abs(res.theta_hat - ref).max() < 1e-6


def test_fit_incompatible_kind_raises():
    model = gaussian_model([0.0], [[1.0]])
    data = discrete_dataset([[0, 1]], m=2)
    with pytest.raises(ValueError):
        fit(model, ObjectiveKind.GSM_DISCRETE, data)


def test_fit_gen_gauss_alpha_recovery():
    truth = gen_gauss_model(1.5)
    data = sample(truth, 20_000, seed=21)
    res = fit(gen_gauss_model(1.0), ObjectiveKind.SM_CONTINUOUS, data)
    assert abs(res.theta_hat[0] - 1.5) < 0.1


def test_fit_gen_gauss_stays_in_alpha_domain():
    # From alpha = 0.05 the smoothed-cusp SM objective falls towards alpha = 0
    # (it left the domain, to alpha < 0, before with_params rejected it).
    data = sample(gen_gauss_model(1.5), 2000, seed=1)
    cfg = OptimizerConfig(init_theta=np.array([0.05]))
    res = fit(gen_gauss_model(1.0), ObjectiveKind.SM_CONTINUOUS, data, cfg)
    assert res.theta_hat[0] > 0
    assert not res.converged


# Known limit, not a target: the eps-smoothed cusp breaks Hyvarinen's
# regularity condition for alpha <= 1, so sm converges to a biased alpha.
# These are the estimates measured when the limit was documented.
@pytest.mark.parametrize(
    "alpha, seed, alpha_hat",
    [(0.5, 2, 1.001649906778908), (0.5, 3, 0.9924012388088379),
     (0.8, 2, 1.1590960615383827), (0.8, 3, 1.0857974087573181)],
)
def test_fit_gen_gauss_sm_is_biased_for_alpha_at_most_one(alpha, seed, alpha_hat):
    data = sample(gen_gauss_model(alpha), 5000, seed=seed)
    res = fit(gen_gauss_model(1.0), ObjectiveKind.SM_CONTINUOUS, data)
    assert res.converged
    assert res.theta_hat[0] == pytest.approx(alpha_hat, abs=1e-9)
    assert res.theta_hat[0] - alpha > 0.25


def _no_fd(*args, **kwargs):
    raise AssertionError("fit fell back to finite differences")


def test_fit_gaussian_mle_takes_exact_gradient(monkeypatch):
    monkeypatch.setattr(estimation, "fd_gradient", _no_fd)
    data = sample(gaussian_model([0.7, -0.3], [[1.5, 0.4], [0.4, 0.9]]), 300, seed=2)
    res = fit(gaussian_model(np.zeros(2), np.eye(2)), ObjectiveKind.EXACT_MLE, data)
    assert res.converged
    assert np.abs(res.theta_hat - closed_form_gaussian_sm(data)).max() < 1e-6


def test_fit_gen_gauss_sm_takes_exact_gradient(monkeypatch):
    monkeypatch.setattr(estimation, "fd_gradient", _no_fd)
    data = sample(gen_gauss_model(1.5), 2000, seed=21)
    res = fit(gen_gauss_model(1.0), ObjectiveKind.SM_CONTINUOUS, data)
    assert res.converged
    assert abs(res.theta_hat[0] - 1.5) < 0.2


def test_fit_from_indefinite_covariance_raises():
    data = sample(gaussian_model([0.0, 0.0], np.eye(2)), 50, seed=1)
    cfg = OptimizerConfig(init_theta=np.array([0.0, 0.0, 1.0, 0.0, -1.0]))  # diag(1, -1)
    with pytest.raises(ValueError, match="not finite at the initial point"):
        fit(gaussian_model(np.zeros(2), np.eye(2)), ObjectiveKind.SM_CONTINUOUS, data, cfg)


@pytest.mark.parametrize("objective", [
    ObjectiveKind.GSM_DISCRETE, ObjectiveKind.RATIO_MATCHING,
    ObjectiveKind.PSEUDO_LIKELIHOOD, ObjectiveKind.EXACT_MLE,
])
def test_population_fit_takes_no_finite_differences(monkeypatch, objective):
    monkeypatch.setattr(estimation, "fd_gradient", _no_fd)
    truth = ising_model([0.2, -0.1, 0.3], [0.5, -0.4])
    res = fit(ising_model(np.zeros(3), np.zeros(2)), objective, exact_normalize(truth))
    assert res.converged
    assert np.abs(res.theta_hat - truth.params).max() < 1e-5


def test_population_rm_fit_converges_on_potts():
    truth = potts_model([[0.3, -0.2, 0.0], [0.0, 0.4, -0.1], [-0.3, 0.0, 0.2]], [0.6, -0.5])
    joint = exact_normalize(truth)
    model = potts_model(np.zeros((3, 3)), np.zeros(2))
    res = fit(model, ObjectiveKind.RATIO_MATCHING, joint)
    assert res.converged
    assert res.objective_value < 1e-12
    # Each site's fields are identified only up to a constant, so compare the
    # fitted joint with the truth rather than the parameters.
    fitted = exact_normalize(model.with_params(res.theta_hat))
    assert np.abs(fitted.probs - joint.probs).max() < 1e-7


def test_fit_result_converged_implies_grad_tol():
    data = sample(ising_model([0.0, 0.0], [0.3]), 200, seed=3)
    res = fit(ising_model(np.zeros(2), np.zeros(1)), ObjectiveKind.PSEUDO_LIKELIHOOD, data)
    assert isinstance(res, FitResult)
    if res.converged:
        assert res.grad_norm <= OptimizerConfig().grad_tol


def test_population_fit_rejects_objective_without_population_form():
    joint = exact_normalize(ising_model([0.0, 0.0], [0.5]))
    with pytest.raises(ValueError, match="population"):
        fit(gaussian_model([0.0], [[1.0]]), ObjectiveKind.SM_CONTINUOUS, joint)


def test_optimizer_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(max_iters=0)


# ---------------------------------------------------------------------------
# Comparison harness

def test_compare_estimators_row_count_and_csv():
    model = ising_model([0.0, 0.0], [0.5])
    objs = [ObjectiveKind.PSEUDO_LIKELIHOOD, ObjectiveKind.EXACT_MLE]
    rows = compare_estimators(model, model.params, [200], [1, 2], objs)
    # 2 population rows + 2 objectives x 1 n x 2 seeds
    assert len(rows) == 2 + 4
    pop = [r for r in rows if r["seed"] == ""]
    assert all(r["n"] == "inf" for r in pop)
    assert all(r["linf_error"] < 1e-5 for r in pop)
    buf = io.StringIO()
    write_comparison_csv(buf, rows)
    lines = buf.getvalue().splitlines()
    assert lines[0] == COMPARISON_HEADER
    assert len(lines) == 1 + len(rows)


def test_compare_estimators_errors_shrink_with_n():
    model = ising_model([0.0, 0.0], [0.5])
    rows = compare_estimators(
        model, model.params, [100, 5000], [1, 2, 3], [ObjectiveKind.EXACT_MLE]
    )
    errs = {n: [] for n in (100, 5000)}
    for r in rows:
        if r["seed"] != "":
            errs[r["n"]].append(r["linf_error"])
    assert np.median(errs[5000]) < np.median(errs[100])
