"""Optimizer, closed-form Gaussian estimator, and the comparison harness."""

import numpy as np
import pytest

from scorematch import estimation, models, objectives
from scorematch.estimation import (
    COMPARISON_HEADER,
    FitResult,
    closed_form_gaussian_sm,
    compare_estimators,
    comparison_to_csv,
    default_init,
    fd_gradient,
    fit,
)
from scorematch.models import (
    continuous_dataset,
    discrete_dataset,
    exact_normalize,
    gaussian_model,
    gaussian_parts,
    gen_gauss_model,
    ising_model,
    potts_model,
    sample,
    zero_sum_gauge,
)
from scorematch.objectives import (
    GaussianMoments,
    ObjectiveKind,
    exact_mle_population,
    gsm_discrete_population,
    pseudo_likelihood_population,
    ratio_matching_population,
)
from scorematch.operators import discrete_joint


# ---------------------------------------------------------------------------
# fd_gradient

def test_fd_gradient_quadratic_exact():
    g = fd_gradient(lambda t: float(t @ t), np.array([1.0, 2.0]))
    assert np.abs(g - [2.0, 4.0]).max() < 1e-8


def test_fd_gradient_rejects_nonfinite():
    with pytest.raises(ValueError, match="non-finite"):
        fd_gradient(lambda t: np.inf, np.zeros(2))


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


def _gaussian_sm_gap(res, data):
    """The fit's max-norm distance from the closed form, relative to
    max(1, |theta|)."""
    ref = closed_form_gaussian_sm(data)
    return np.abs(res.theta_hat - ref).max() / max(1.0, np.abs(ref).max())


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fit_gaussian_sm_with_covariance_scales_100_apart(seed):
    # The solve is exact whatever the scales.
    d = 3
    data = sample(gaussian_model(np.zeros(d), np.diag([0.01, 1.0, 100.0])), 200, seed=seed)
    res = fit(gaussian_model(np.zeros(d), np.eye(d)), ObjectiveKind.SM_CONTINUOUS, data)
    assert res.converged and res.iters == 0 and res.stop_reason == "solved"
    assert _gaussian_sm_gap(res, data) <= 1e-10


@pytest.mark.parametrize("seed", [1, 2])
def test_fit_gaussian_sm_at_condition_number_5(seed):
    # A random rotation of the spectrum geomspace(1, 5, 4), where an iterative
    # fit that stops at |g| <= 1e-7 can still be 1.8e-6 from the closed form.
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    cov = (q * np.geomspace(1.0, 5.0, 4)) @ q.T
    data = sample(gaussian_model(rng.standard_normal(4), (cov + cov.T) / 2), 2000, seed=seed)
    res = fit(gaussian_model(np.zeros(4), np.eye(4)), ObjectiveKind.SM_CONTINUOUS, data)
    assert res.converged
    assert _gaussian_sm_gap(res, data) <= 1e-10


def test_fit_gaussian_sm_is_one_evaluation_and_ignores_the_start(monkeypatch):
    # The one evaluation is the solve of the normal equations: the fit builds
    # no objective, reads no start point, and does not call the moment
    # formula, which is the oracle the solve is checked against.
    def forbidden(name):
        def call(*args):
            raise AssertionError(f"fit called {name}")
        return call

    for name in ("empirical_objective", "default_init", "closed_form_gaussian_sm"):
        monkeypatch.setattr(estimation, name, forbidden(name))
    data = sample(gaussian_model([0.7, -0.3], [[1.5, 0.4], [0.4, 0.9]]), 300, seed=2)
    model = gaussian_model(np.zeros(2), np.eye(2))
    res = fit(model, ObjectiveKind.SM_CONTINUOUS, data)
    assert res.iters == 0 and res.converged
    # The value is b' eta, the objective at the solution.
    want = objectives.empirical_objective(model, ObjectiveKind.SM_CONTINUOUS, data)(res.theta_hat)
    assert res.objective_value == pytest.approx(want.value, rel=1e-12)
    # Neither the model's params nor the iteration cap applies to the solve.
    other = gaussian_model([5.0, 5.0], [[9.0, 0.0], [0.0, 9.0]])
    monkeypatch.setattr(estimation, "MAX_ITERS", 1)
    again = fit(other, ObjectiveKind.SM_CONTINUOUS, data)
    assert np.array_equal(again.theta_hat, res.theta_hat) and again.converged
    # converged is the normal-equation residual against GRAD_TOL.
    monkeypatch.setattr(estimation, "GRAD_TOL", 1e-30)
    strict = fit(model, ObjectiveKind.SM_CONTINUOUS, data)
    assert np.array_equal(strict.theta_hat, res.theta_hat)
    assert strict.grad_norm == res.grad_norm > 1e-30 and not strict.converged


@pytest.mark.parametrize("d, n", [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (4, 4)])
def test_fit_gaussian_sm_on_at_most_d_samples_raises(d, n):
    data = sample(gaussian_model(np.full(d, 3.0), np.eye(d)), n, seed=d + n)
    with pytest.raises(ValueError, match="normal equations are singular"):
        fit(gaussian_model(np.zeros(d), np.eye(d)), ObjectiveKind.SM_CONTINUOUS, data)


def test_fit_gaussian_sm_rejects_an_indefinite_solution(monkeypatch):
    # Normal equations whose solution is the precision diag(1, -1).
    A, b = np.eye(5), -np.array([1.0, 0.0, -1.0, 0.0, 0.0])
    monkeypatch.setattr(estimation, "gaussian_sm_normal_equations", lambda *args: (A, b))
    data = sample(gaussian_model(np.zeros(2), np.eye(2)), 50, seed=1)
    with pytest.raises(ValueError, match="not positive definite"):
        fit(gaussian_model(np.zeros(2), np.eye(2)), ObjectiveKind.SM_CONTINUOUS, data)


def test_fit_gaussian_sm_names_a_precision_that_inv_finds_singular(monkeypatch):
    # A precision with an eigenvalue near roundoff can pass its Cholesky and
    # still fail `inv`; which ones do depends on the LAPACK build, so `inv`
    # is made to fail here.
    def singular(_):
        raise np.linalg.LinAlgError("Singular matrix")

    data = sample(gaussian_model(np.zeros(2), np.eye(2)), 50, seed=1)
    monkeypatch.setattr(np.linalg, "inv", singular)
    with pytest.raises(ValueError, match="the sm solution's precision is singular"):
        fit(gaussian_model(np.zeros(2), np.eye(2)), ObjectiveKind.SM_CONTINUOUS, data)


@pytest.mark.parametrize("objective", [ObjectiveKind.SM_CONTINUOUS, ObjectiveKind.EXACT_MLE])
def test_gaussian_population_fit_recovers_truth(objective):
    # A Gaussian's own mean and covariance stand for its population: they are
    # the design both objectives build from a dataset's sample moments.
    truth = gaussian_model([0.5, -1.0, 0.2],
                           [[1.0, 0.3, 0.0], [0.3, 2.0, -0.4], [0.0, -0.4, 0.7]])
    population = GaussianMoments(*gaussian_parts(truth))
    res = fit(gaussian_model(np.zeros(3), np.eye(3)), objective, population)
    assert res.converged
    assert np.abs(res.theta_hat - truth.params).max() <= 1e-6


def test_gaussian_moments_reject_a_mismatched_model():
    population = GaussianMoments(np.zeros(3), np.eye(3))
    for model, objective in ((gaussian_model(np.zeros(2), np.eye(2)), ObjectiveKind.SM_CONTINUOUS),
                             (gaussian_model(np.zeros(2), np.eye(2)), ObjectiveKind.EXACT_MLE),
                             (gen_gauss_model(1.0), ObjectiveKind.SM_CONTINUOUS),
                             (ising_model(np.zeros(3), np.zeros(2)), ObjectiveKind.EXACT_MLE)):
        with pytest.raises(ValueError, match="needs data of shape"):
            fit(model, objective, population)


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
    objective_at = objectives.empirical_objective(model, ObjectiveKind.EXACT_MLE, data)
    res = fit(model, ObjectiveKind.EXACT_MLE, data)
    assert res.objective_value <= objective_at(default_init(model)).value + 1e-15


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


def test_fit_gen_gauss_stays_in_alpha_domain(monkeypatch):
    # From alpha = 0.05 the smoothed-cusp SM objective falls towards alpha = 0.
    # Trial points at or below 0, or not finite, are refused, and the trust
    # region shrinks until no step is left that decreases the objective.
    data = sample(gen_gauss_model(1.5), 2000, seed=1)
    monkeypatch.setattr(estimation, "default_init", lambda model: np.array([0.05]))
    res = fit(gen_gauss_model(1.0), ObjectiveKind.SM_CONTINUOUS, data)
    assert res.theta_hat[0] > 0
    assert not res.converged and res.stop_reason == "trust_region"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fit_rejects_overflowing_trials_without_warning(monkeypatch):
    # From alpha = 60 the objective is ~1e246 and its gradient ~2.8e247; the
    # fit neither stalls at the start nor warns on the overflowing trial
    # points it rejects.
    data = sample(gen_gauss_model(0.5), 2000, seed=1)
    ref = fit(gen_gauss_model(1.0), ObjectiveKind.SM_CONTINUOUS, data)
    monkeypatch.setattr(estimation, "default_init", lambda model: np.array([60.0]))
    res = fit(gen_gauss_model(1.0), ObjectiveKind.SM_CONTINUOUS, data)
    assert res.converged and ref.converged
    assert res.theta_hat[0] == pytest.approx(ref.theta_hat[0], abs=1e-6)


def _fit_parabola_cut_at_1_5(monkeypatch, broken):
    """A fit on (theta - 3)^2 up to theta = 1.5 and, past it, a value of -inf
    or a NaN gradient beside a value below the minimum."""
    def objective_at(theta):
        t = float(theta[0])
        if t <= 1.5:
            return objectives.ObjectiveValue((t - 3.0) ** 2, np.array([2.0 * (t - 3.0)]), lambda v: 2.0 * v)
        if broken == "value":
            return objectives.ObjectiveValue(-np.inf, np.array([2.0 * (t - 3.0)]), lambda v: 2.0 * v)
        return objectives.ObjectiveValue(-1.0, np.array([np.nan]), lambda v: 2.0 * v)

    monkeypatch.setattr(estimation, "empirical_objective", lambda model, kind, data: objective_at)
    data = sample(gen_gauss_model(1.0), 10, seed=1)
    return fit(gen_gauss_model(1.0), ObjectiveKind.SM_CONTINUOUS, data)


@pytest.mark.parametrize("broken", ["value", "gradient"])
def test_fit_refuses_trial_points_where_the_objective_is_not_finite(monkeypatch, broken):
    # The parabola cut at 1.5: the first step from 1 runs past 1.5; every
    # such trial is refused, so the fit closes in on 1.5 from below and never
    # converges.
    res = _fit_parabola_cut_at_1_5(monkeypatch, broken)
    assert 1.4 < res.theta_hat[0] <= 1.5
    assert res.objective_value == (res.theta_hat[0] - 3.0) ** 2
    assert not res.converged


def test_fit_refuses_steps_that_round_back_to_theta(monkeypatch):
    # On the parabola cut at 1.5 the fit reaches 1.5, where each step either
    # crosses the cut or is below half an ulp of theta: theta + p == theta,
    # whose gain is the ARMIJO_ULPS credit alone.  Such steps are refused, so
    # the radius shrinks and the fit ends at `trust_region` within a few dozen
    # trials; taking them would count null steps up to MAX_ITERS.
    res = _fit_parabola_cut_at_1_5(monkeypatch, "value")
    assert res.theta_hat[0] == 1.5
    assert res.stop_reason == "trust_region" and res.iters < 100


def test_fit_credits_armijo_ulps_of_the_value(monkeypatch):
    # gen-gauss sm on alpha* = 1.2, N = 3000, ends near alpha = 0.145 (the
    # smoothed cusp's wrong minimizer), where the last Newton steps change J
    # by less than its roundoff.  With the ARMIJO_ULPS credit the fit reaches
    # GRAD_TOL in 7 steps; without it those steps are refused and the trust
    # region collapses at |g|_inf ~ 7e-7.
    data = sample(gen_gauss_model(1.2), 3000, seed=0)
    res = fit(gen_gauss_model(1.0), ObjectiveKind.SM_CONTINUOUS, data)
    assert res.stop_reason == "grad_tol" and res.iters == 7
    monkeypatch.setattr(estimation, "ARMIJO_ULPS", 0)
    res = fit(gen_gauss_model(1.0), ObjectiveKind.SM_CONTINUOUS, data)
    assert res.stop_reason == "trust_region" and res.grad_norm > estimation.GRAD_TOL


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


@pytest.mark.parametrize("alpha, seed", [(1.5, 1), (3.0, 1)])
def test_fit_gen_gauss_takes_the_last_newton_step_below_the_value_roundoff(alpha, seed):
    # Both fits end near alpha = 0.14 (the known wrong minimizer of sm on the
    # smoothed cusp), where J is about -31 and, a mean over 5e3 samples,
    # carries a roundoff of tens of ulps.  At alpha = 1.5 a Newton step from
    # |g| = 4.9e-6 changes J by 1.7e-14, below that roundoff.  Refusing such
    # steps would leave the fit taking ever smaller ones until MAX_ITERS.
    data = sample(gen_gauss_model(alpha), 5000, seed=seed)
    res = fit(gen_gauss_model(1.0), ObjectiveKind.SM_CONTINUOUS, data)
    assert res.converged and res.stop_reason == "grad_tol"
    assert res.iters <= 12


def _no_fd(*args, **kwargs):
    raise AssertionError("fit fell back to finite differences")


def test_fit_gaussian_mle_takes_exact_gradient(monkeypatch):
    monkeypatch.setattr(estimation, "fd_gradient", _no_fd)
    data = sample(gaussian_model([0.7, -0.3], [[1.5, 0.4], [0.4, 0.9]]), 300, seed=2)
    res = fit(gaussian_model(np.zeros(2), np.eye(2)), ObjectiveKind.EXACT_MLE, data)
    assert res.converged
    assert np.abs(res.theta_hat - closed_form_gaussian_sm(data)).max() < 1e-6


def test_fit_gaussian_mle_is_the_sample_moments():
    # The Gaussian mle is the sample mean and 1/N covariance, which are also
    # the sm estimate's closed form; the fit returns them with no iterations
    # and is judged by the mle gradient there.
    rng = np.random.default_rng(1)
    a = rng.standard_normal((4, 4))
    data = sample(gaussian_model(rng.standard_normal(4), a @ a.T + 0.5 * np.eye(4)), 5000, seed=1)
    res = fit(gaussian_model(np.zeros(4), np.eye(4)), ObjectiveKind.EXACT_MLE, data)
    assert res.iters == 0 and res.converged and res.grad_norm <= 1e-12
    assert res.stop_reason == "solved"
    assert np.abs(res.theta_hat - closed_form_gaussian_sm(data)).max() <= 1e-12
    with pytest.raises(ValueError, match="scatter about its mean is singular"):
        fit(gaussian_model(np.zeros(2), np.eye(2)), ObjectiveKind.EXACT_MLE,
            continuous_dataset([[0.0, 1.0], [1.0, 2.0]]))


def test_fit_gen_gauss_sm_takes_exact_gradient(monkeypatch):
    monkeypatch.setattr(estimation, "fd_gradient", _no_fd)
    data = sample(gen_gauss_model(1.5), 2000, seed=21)
    res = fit(gen_gauss_model(1.0), ObjectiveKind.SM_CONTINUOUS, data)
    assert res.converged
    assert abs(res.theta_hat[0] - 1.5) < 0.2


def test_fit_on_data_not_finite_at_the_start_raises():
    # 1e200 squares to inf, so at the start alpha = 1 the Laplacian term
    # (alpha - 1) x^2 is 0 * inf and the objective is NaN.
    data = continuous_dataset([[0.3], [1e200], [-0.5]])
    with pytest.raises(ValueError, match="not finite at the initial point"):
        fit(gen_gauss_model(1.0), ObjectiveKind.SM_CONTINUOUS, data)


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


POTTS_TRUTH = potts_model(
    [[0.3, -0.2, 0.0], [0.0, 0.4, -0.1], [-0.3, 0.0, 0.2]], [0.6, -0.5]
)
DESK_ISING4_TRUTH = ising_model(np.zeros(4), np.full(3, 0.5))
POPULATION_ORACLES = {
    ObjectiveKind.GSM_DISCRETE: gsm_discrete_population,
    ObjectiveKind.RATIO_MATCHING: ratio_matching_population,
    ObjectiveKind.PSEUDO_LIKELIHOOD: pseudo_likelihood_population,
    ObjectiveKind.EXACT_MLE: exact_mle_population,
}


@pytest.mark.parametrize("objective", list(POPULATION_ORACLES))
@pytest.mark.parametrize("truth", [DESK_ISING4_TRUTH, POTTS_TRUTH], ids=["ising4", "potts"])
def test_population_fit_calls_the_oracle_once(monkeypatch, objective, truth):
    # The oracle enumerates log q~ once, at the estimate, for the reported
    # value; every trial point evaluates the joint-weighted form, which never
    # calls it.
    joint = exact_normalize(truth)
    calls = []

    def counted_log_table(*args):
        calls.append(1)
        return log_table(*args)

    log_table = objectives.log_table
    monkeypatch.setattr(objectives, "log_table", counted_log_table)
    model = truth.with_params(np.zeros(truth.n_params))
    res = fit(model, objective, joint)
    assert res.iters > 1
    assert len(calls) == 1
    # The reported value is the divergence at the estimate, exactly, and so
    # never below 0 (the oracles are sums of squares and cross entropies).
    want = POPULATION_ORACLES[objective](joint, model, res.theta_hat)
    assert res.objective_value == want
    assert res.objective_value >= 0.0


@pytest.mark.parametrize("objective", list(POPULATION_ORACLES))
def test_population_fits_on_the_desk_chain_take_few_newton_steps(objective):
    # Newton steps on each objective's own curvature reach GRAD_TOL in 4 or 5
    # iterations here.  A wrong curvature still converges, only in more.
    model = DESK_ISING4_TRUTH.with_params(np.zeros(DESK_ISING4_TRUTH.n_params))
    res = fit(model, objective, exact_normalize(DESK_ISING4_TRUTH))
    assert res.converged and res.stop_reason == "grad_tol"
    assert res.iters <= 6
    assert np.abs(res.theta_hat - DESK_ISING4_TRUTH.params).max() < 1e-5


def test_fit_stops_at_max_iters():
    data = sample(ising_model([0.1, -0.2, 0.3], [0.5, 0.5]), 500, seed=9)
    model = ising_model(np.zeros(3), np.zeros(2))
    full = fit(model, ObjectiveKind.PSEUDO_LIKELIHOOD, data)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(estimation, "MAX_ITERS", 2)
        capped = fit(model, ObjectiveKind.PSEUDO_LIKELIHOOD, data)
    assert full.converged and full.stop_reason == "grad_tol" and full.iters > 2
    assert capped.iters == 2 and not capped.converged and capped.stop_reason == "max_iters"


# A four-site Potts model (a triangle on sites 0, 1 and 3) with fields and
# couplings up to 0.97, whose conditionals are far from uniform.
SATURATING_POTTS = potts_model(
    [[-0.6509443677119431, 0.7432705483753128, 0.08788280152699635, 0.8044301594319767],
     [-0.04569295232158743, -0.13900744454117375, 0.5778934350886589, 0.9683059998622427],
     [-0.26054841469514245, 0.9378657386324698, 0.8580527755308389, -0.6446148284760378],
     [0.21770323368909517, 0.4097294911294851, 0.8856073582583344, 0.33131483393150685]],
    [-0.7332084890966137, -0.004264802429251091, -0.012760332087770276],
    [(0, 1), (0, 3), (1, 3)],
)


@pytest.mark.parametrize("objective", [ObjectiveKind.PSEUDO_LIKELIHOOD,
                                       ObjectiveKind.GSM_DISCRETE, ObjectiveKind.EXACT_MLE])
@pytest.mark.parametrize("truth", [POTTS_TRUTH, SATURATING_POTTS], ids=["potts", "saturating"])
@pytest.mark.parametrize("population", [False, True])
def test_potts_fits_stay_on_the_zero_sum_slice(objective, truth, population):
    # Each site's fields are identified only up to a constant; the curvature
    # vanishes along that gauge, and a fit from the neutral start, whose
    # gradient and curvature products are projected off it, never moves
    # along it.
    data = exact_normalize(truth) if population else sample(truth, 2000, seed=3)
    model = truth.with_params(np.zeros(truth.n_params))
    res = fit(model, objective, data)
    assert res.converged
    assert np.abs(zero_sum_gauge(model, res.theta_hat) - res.theta_hat).max() <= 1e-12


def test_mle_fit_refuses_a_cube_past_the_enumeration_cap(monkeypatch):
    # The mle design enumerates the state cube, which past MAX_ENUM_STATES is
    # refused before it is allocated; pl's blanket cells enumerate nothing.
    monkeypatch.setattr(models, "MAX_ENUM_STATES", 2**4)
    chain = ising_model(np.zeros(5), np.zeros(4))
    data = discrete_dataset(np.random.default_rng(0).integers(0, 2, (50, 5)), 2)
    with pytest.raises(ValueError, match=r"state space 2\*\*5 too large to enumerate"):
        fit(chain, ObjectiveKind.EXACT_MLE, data)
    assert fit(chain, ObjectiveKind.PSEUDO_LIKELIHOOD, data).converged
    # The refusal also comes before the data's counts over the cube, of
    # which there would be 2**40.
    monkeypatch.undo()
    chain = ising_model(np.zeros(40), np.zeros(39))
    data = discrete_dataset(np.random.default_rng(0).integers(0, 2, (50, 40)), 2)
    with pytest.raises(ValueError, match=r"state space 2\*\*40 too large to enumerate"):
        fit(chain, ObjectiveKind.EXACT_MLE, data)


@pytest.mark.parametrize("objective", [ObjectiveKind.GSM_DISCRETE, ObjectiveKind.RATIO_MATCHING])
def test_population_fit_does_not_stop_on_a_saturated_plateau(objective):
    # From the neutral start the full Newton step here has max-norm 85 and
    # lands where the conditionals saturate: the gradient vanishes there with
    # the divergence about 0.21, far above its minimum 0 at the truth.
    truth = potts_model([[-0.86201, 0.40560, -0.36208, -0.09981],
                         [0.96123, -0.87114, -0.63264, -0.78336]], [0.69722])
    joint = exact_normalize(truth)
    model = truth.with_params(np.zeros(truth.n_params))
    res = fit(model, objective, joint)
    assert res.converged and res.objective_value < 1e-12
    error = zero_sum_gauge(model, res.theta_hat) - zero_sum_gauge(model, truth.params)
    assert np.abs(error).max() < 1e-5


def test_population_rm_fit_converges_on_potts():
    joint = exact_normalize(POTTS_TRUTH)
    model = potts_model(np.zeros((3, 3)), np.zeros(2))
    res = fit(model, ObjectiveKind.RATIO_MATCHING, joint)
    assert res.converged
    assert res.objective_value < 1e-12
    # Each site's fields are identified only up to a constant, so compare the
    # fitted joint with the truth rather than the parameters.
    fitted = exact_normalize(model.with_params(res.theta_hat))
    assert np.abs(fitted.probs - joint.probs).max() < 1e-7


def _count_calls(monkeypatch, name):
    """The argument tuples of every call of objectives.<name> from here on."""
    calls, build = [], getattr(objectives, name)
    monkeypatch.setattr(objectives, name, lambda *args: calls.append(args) or build(*args))
    return calls


@pytest.mark.parametrize("objective, population", [
    (ObjectiveKind.PSEUDO_LIKELIHOOD, False),
    (ObjectiveKind.GSM_DISCRETE, False),
    (ObjectiveKind.RATIO_MATCHING, False),
    (ObjectiveKind.EXACT_MLE, False),
    (ObjectiveKind.GSM_DISCRETE, True),
    (ObjectiveKind.EXACT_MLE, True),
])
def test_fit_builds_its_design_once(monkeypatch, objective, population):
    # Each objective and each fit builds its design (D, c) once and evaluates
    # every trial point on it.  Only mle's build fills T, on the cube's open
    # axes; a blanket design is filled from each site's fields and incident
    # edges.
    designs = _count_calls(monkeypatch, "_discrete_design")
    statistics = _count_calls(monkeypatch, "_site_pattern_statistics")
    statistics_per_design = 1 if objective is ObjectiveKind.EXACT_MLE else 0
    truth = ising_model([0.2, -0.1, 0.3], [0.5, -0.4])
    data = exact_normalize(truth) if population else sample(truth, 500, seed=4)
    # gsm and mle are their own population forms.
    objective_at = objectives.empirical_objective(ising_model(np.zeros(3), np.zeros(2)),
                                                  objective, data)
    rng = np.random.default_rng(0)
    for _ in range(5):
        objective_at(rng.standard_normal(truth.n_params))
    assert (len(designs), len(statistics)) == (1, statistics_per_design)
    res = fit(ising_model(np.zeros(3), np.zeros(2)), objective, data)
    assert res.converged and res.iters > 1
    assert (len(designs), len(statistics)) == (2, 2 * statistics_per_design)


def test_population_mle_design_equals_the_dataset_route():
    # A dataset that holds every state of the cube puts its frequencies on the
    # cube at its states' codes; a joint with the same weights is already in
    # cube order, and the two must evaluate bit for bit alike.
    model = ising_model(np.zeros(3), np.zeros(2))
    counts = np.arange(1, 9)
    data = discrete_dataset(np.repeat(np.indices((2,) * 3).reshape(3, -1).T, counts, axis=0), 2)
    joint = discrete_joint((counts / counts.sum()).reshape((2,) * 3))
    from_data = objectives.empirical_objective(model, ObjectiveKind.EXACT_MLE, data)
    from_joint = objectives.empirical_objective(model, ObjectiveKind.EXACT_MLE, joint)
    rng = np.random.default_rng(2)
    for _ in range(5):
        theta = rng.standard_normal(model.n_params)
        a, b = from_data(theta), from_joint(theta)
        assert a.value == b.value
        assert np.array_equal(a.grad_theta, b.grad_theta)


@pytest.mark.parametrize("population", [False, True])
def test_fit_never_evaluates_the_same_theta_twice(monkeypatch, population):
    seen = []

    def recording_empirical_objective(*args):
        objective_at = objectives.empirical_objective(*args)

        def recorded(theta):
            seen.append(np.asarray(theta, dtype=float).tobytes())
            return objective_at(theta)

        return recorded

    monkeypatch.setattr(estimation, "empirical_objective", recording_empirical_objective)
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
    objective_at = objectives.empirical_objective(model, objective, data)

    def value_and_grad(theta):
        out = objective_at(theta)
        return out.value, out.grad_theta

    ref = minimize(value_and_grad, default_init(model), jac=True,
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
        assert res.grad_norm <= estimation.GRAD_TOL and res.stop_reason == "grad_tol"


def test_population_fit_rejects_objective_without_population_form():
    joint = exact_normalize(ising_model([0.0, 0.0], [0.5]))
    with pytest.raises(ValueError, match="has no population form"):
        fit(ising_model([0.0, 0.0], [0.5]), ObjectiveKind.SM_CONTINUOUS, joint)
    with pytest.raises(ValueError, match="the gaussian model needs data of shape"):
        fit(gaussian_model([0.0], [[1.0]]), ObjectiveKind.SM_CONTINUOUS, joint)


# ---------------------------------------------------------------------------
# Comparison harness

def test_compare_estimators_row_count_and_csv():
    model = ising_model([0.0, 0.0], [0.5])
    objs = [ObjectiveKind.PSEUDO_LIKELIHOOD, ObjectiveKind.EXACT_MLE]
    rows = compare_estimators(model, [200], [1, 2], objs)
    # 2 population rows + 2 objectives x 1 n x 2 seeds
    assert len(rows) == 2 + 4
    pop = [r for r in rows if r["seed"] == ""]
    assert all(r["n"] == "inf" for r in pop)
    assert all(r["linf_error"] < 1e-5 for r in pop)
    assert all(r["stop_reason"] == "grad_tol" for r in rows)
    lines = comparison_to_csv(rows).splitlines()
    assert lines[0] == COMPARISON_HEADER == (
        "objective,n,seed,converged,iters,stop_reason,linf_error,objective_value,grad_norm")
    assert len(lines) == 1 + len(rows)
    # Each row's fields sit under their header names.
    for line, r in zip(lines[1:], rows):
        fields = dict(zip(lines[0].split(","), line.split(",")))
        assert fields["stop_reason"] == r["stop_reason"] and fields["converged"] == "true"
        assert float(fields["linf_error"]) == r["linf_error"] and int(fields["iters"]) == r["iters"]


def test_compare_estimators_errors_shrink_with_n():
    model = ising_model([0.0, 0.0], [0.5])
    rows = compare_estimators(model, [100, 5000], [1, 2, 3], [ObjectiveKind.EXACT_MLE])
    errs = {n: [] for n in (100, 5000)}
    for r in rows:
        if r["seed"] != "":
            errs[r["n"]].append(r["linf_error"])
    assert np.median(errs[5000]) < np.median(errs[100])
