"""Optimizer, closed-form Gaussian estimator, and the comparison harness."""

import io

import numpy as np
import pytest

from scorematch import estimation, objectives
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
    value_and_grad = objective_functions(model, ObjectiveKind.EXACT_MLE, data)
    res = fit(model, ObjectiveKind.EXACT_MLE, data)
    assert res.objective_value <= value_and_grad(default_init(model))[0] + 1e-15


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fit_rejects_overflowing_trials_without_warning():
    # From alpha = 60 the objective is ~1e246 and the trial points overflow;
    # the line search rejects them without a warning.
    data = sample(gen_gauss_model(0.5), 2000, seed=1)
    cfg = OptimizerConfig(init_theta=np.array([60.0]))
    res = fit(gen_gauss_model(1.0), ObjectiveKind.SM_CONTINUOUS, data, cfg)
    assert res.theta_hat[0] > 0 and not res.converged


# Known limit, not a target: the eps-smoothed cusp breaks Hyvarinen's
# regularity condition for alpha <= 1, so sm converges to a biased alpha.
# Each pin is the root of the exact alpha-gradient, found by bisection.
@pytest.mark.parametrize(
    "alpha, seed, alpha_hat",
    [(0.5, 2, 1.001649907942177), (0.5, 3, 0.9924012413398351),
     (0.8, 2, 1.159096065932557), (0.8, 3, 1.085797409040171)],
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


@pytest.mark.parametrize("objective, population, builds", [
    (ObjectiveKind.PSEUDO_LIKELIHOOD, False, 1),  # the states' one-hot rows
    (ObjectiveKind.EXACT_MLE, False, 2),  # the states' and the cube's
    (ObjectiveKind.GSM_DISCRETE, True, 1),  # the cube's
])
def test_fit_builds_one_hot_rows_once(monkeypatch, objective, population, builds):
    calls = []

    def counted_one_hot(*args):
        calls.append(1)
        return one_hot(*args)

    one_hot = objectives.one_hot
    monkeypatch.setattr(objectives, "one_hot", counted_one_hot)
    truth = ising_model([0.2, -0.1, 0.3], [0.5, -0.4])
    data = exact_normalize(truth) if population else sample(truth, 500, seed=4)
    value_and_grad = objective_functions(ising_model(np.zeros(3), np.zeros(2)), objective, data)
    rng = np.random.default_rng(0)
    for _ in range(5):
        value_and_grad(rng.standard_normal(truth.n_params))
    assert len(calls) == builds
    res = fit(ising_model(np.zeros(3), np.zeros(2)), objective, data)
    assert res.converged and res.iters > 1
    assert len(calls) == 2 * builds


@pytest.mark.parametrize("population", [False, True])
def test_fit_never_evaluates_the_same_theta_twice(monkeypatch, population):
    seen = []

    def recording_objective_functions(*args):
        value_and_grad = objective_functions(*args)

        def recorded(theta):
            seen.append(np.asarray(theta, dtype=float).tobytes())
            return value_and_grad(theta)

        return recorded

    monkeypatch.setattr(estimation, "objective_functions", recording_objective_functions)
    truth = ising_model([0.2, -0.1, 0.3], [0.5, -0.4])
    data = exact_normalize(truth) if population else sample(truth, 500, seed=4)
    objective = ObjectiveKind.GSM_DISCRETE if population else ObjectiveKind.PSEUDO_LIKELIHOOD
    res = fit(ising_model(np.zeros(3), np.zeros(2)), objective, data)
    assert res.converged and res.iters > 1
    assert len(seen) > res.iters
    assert len(set(seen)) == len(seen)


@pytest.mark.parametrize("objective", list(ObjectiveKind))
def test_fit_matches_scipy_lbfgsb(objective):
    minimize = pytest.importorskip("scipy.optimize").minimize
    if objective is ObjectiveKind.SM_CONTINUOUS:
        data = sample(gaussian_model([0.7, -0.3], [[1.5, 0.4], [0.4, 0.9]]), 300, seed=2)
        model = gaussian_model(np.zeros(2), np.eye(2))
    else:
        data = sample(ising_model([0.2, -0.1, 0.3, 0.0], [0.5, -0.4, 0.3]), 10_000, seed=1)
        model = ising_model(np.zeros(4), np.zeros(3))
    res = fit(model, objective, data)
    ref = minimize(objective_functions(model, objective, data), default_init(model), jac=True,
                   method="L-BFGS-B", options={"gtol": 1e-10, "ftol": 1e-15, "maxiter": 1000})
    assert res.converged and ref.success
    assert np.abs(res.theta_hat - ref.x).max() < 1e-6


def test_consecutive_fits_match_fits_run_alone():
    truth = potts_model([[0.3, -0.2, 0.0], [0.0, 0.4, -0.1], [-0.3, 0.0, 0.2]], [0.6, -0.5])
    model = potts_model(np.zeros((3, 3)), np.zeros(2))
    datasets = [sample(truth, 400, seed=5), sample(truth, 900, seed=6)]
    for objective in (ObjectiveKind.PSEUDO_LIKELIHOOD, ObjectiveKind.EXACT_MLE):
        alone = [fit(model, objective, d).theta_hat.tobytes() for d in datasets]
        assert alone[0] != alone[1]
        backwards = [fit(model, objective, d).theta_hat.tobytes() for d in datasets[::-1]]
        assert backwards[::-1] == alone


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
