"""Divergence oracles and estimation objectives, including the hand-derived
closed-form values and the population/empirical relationships."""

import numpy as np
import pytest

from scorematch.grids import gaussian_1d
from scorematch.models import (
    ParameterDomainError,
    discrete_dataset,
    continuous_dataset,
    exact_normalize,
    gaussian_model,
    gaussian_parts,
    grad_x_log,
    ising_model,
    laplacian_x_log,
    log_unnorm,
    potts_model,
    sample,
)
from scorematch.objectives import (
    ObjectiveKind,
    collapse_states,
    exact_mle_objective,
    exact_mle_population,
    fisher_exact,
    gsm_discrete_objective,
    gsm_discrete_population,
    kl_exact,
    pseudo_likelihood_objective,
    pseudo_likelihood_population,
    ratio_matching_objective,
    ratio_matching_population,
    sm_objective,
)
from scorematch.operators import discrete_joint

E = np.e
SIGMOID1 = 1.0 / (1.0 + np.exp(-1.0))  # conditional q(+|+) of the 0.5-coupled pair


# ---------------------------------------------------------------------------
# KL

def test_kl_identical_grids_is_zero():
    p = gaussian_1d(0.0, 1.0)
    assert kl_exact(p, p) == pytest.approx(0.0, abs=1e-14)


def test_kl_gaussian_closed_form():
    p = gaussian_1d(0.0, 1.0, box=(-10.0, 10.0), n=8192)
    q = gaussian_1d(0.0, 2.0, box=(-10.0, 10.0), n=8192)
    want = 0.5 * (np.log(2.0) + 0.5 - 1.0)
    assert kl_exact(p, q) == pytest.approx(want, abs=1e-6)


def test_kl_discrete_uniform_vs_coupled_ising():
    p = discrete_joint(np.full((2, 2), 0.25))
    q = exact_normalize(ising_model([0.0, 0.0], [0.5]))
    want = sum(0.25 * np.log(0.25 / q.probs[s]) for s in np.ndindex(2, 2))
    got = kl_exact(p, q)
    assert got == pytest.approx(want, abs=1e-14)
    assert got == pytest.approx(0.1201, abs=1e-4)


def test_kl_rejects_vanishing_q():
    p = discrete_joint(np.array([0.5, 0.5]))
    q = discrete_joint(np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="vanishes"):
        kl_exact(p, q)
    with pytest.raises(TypeError):
        kl_exact(p, gaussian_1d(0.0, 1.0))


def test_kl_nonnegative_random_joints():
    rng = np.random.default_rng(4)
    for _ in range(20):
        p = discrete_joint(rng.random((2, 2, 2)) + 0.01)
        q = discrete_joint(rng.random((2, 2, 2)) + 0.01)
        assert kl_exact(p, q) >= 0.0


# ---------------------------------------------------------------------------
# Fisher divergence

def test_fisher_identical_is_zero():
    p = gaussian_1d(0.0, 1.0)
    assert fisher_exact(p, p) == 0.0


def test_fisher_mean_shift_closed_form():
    p = gaussian_1d(0.0, 1.0, box=(-12.0, 12.0), n=4096)
    q = gaussian_1d(1.0, 1.0, box=(-12.0, 12.0), n=4096)
    assert fisher_exact(p, q) == pytest.approx(1.0, abs=1e-4)


def test_fisher_variance_pair_closed_form():
    p = gaussian_1d(0.0, 1.0, box=(-12.0, 12.0), n=4096)
    q = gaussian_1d(0.0, 2.0, box=(-12.0, 12.0), n=4096)
    assert fisher_exact(p, q) == pytest.approx(0.25, abs=1e-4)


# ---------------------------------------------------------------------------
# Continuous score matching

def test_sm_objective_hand_values():
    model = gaussian_model([0.0], [[1.0]])
    theta = model.params
    assert sm_objective(model, theta, continuous_dataset([[0.0]])).value == pytest.approx(-2.0)
    data = continuous_dataset([[1.0], [-1.0]])
    assert sm_objective(model, theta, data).value == pytest.approx(-1.0)


def test_sm_objective_normalization_invariant():
    model = gaussian_model([0.3], [[1.5]])
    data = sample(model, 50, seed=0)
    base = sm_objective(model, model.params, data).value
    shifted = sm_objective(model.shifted(7.0), model.params, data).value
    assert shifted == pytest.approx(base, abs=1e-12)


def test_sm_objective_rejects_indefinite_covariance():
    model = gaussian_model([0.0, 0.0], np.eye(2))
    data = sample(model, 10, seed=1)
    with pytest.raises(ParameterDomainError, match="positive definite"):
        sm_objective(model, [0.0, 0.0, 1.0, 0.0, -1.0], data)  # diag(1, -1)


def test_gaussian_closed_forms_match_generic_definitions():
    # sm: mean |grad_x log q~|^2 + 2 laplacian; mle: -mean log q~ + log Z
    rng = np.random.default_rng(5)
    for d in (1, 2, 4):
        model = gaussian_model(np.zeros(d), np.eye(d))
        data = sample(gaussian_model(rng.standard_normal(d), 1.3 * np.eye(d)), 200, seed=d)
        for _ in range(3):
            a = rng.standard_normal((d, d)) * 0.4
            mod = gaussian_model(rng.standard_normal(d), a @ a.T + 0.5 * np.eye(d))
            g = grad_x_log(mod, data.values)
            sm = np.mean(np.sum(g * g, axis=1) + 2.0 * laplacian_x_log(mod, data.values))
            log_z = 0.5 * (d * np.log(2.0 * np.pi) + np.linalg.slogdet(gaussian_parts(mod)[1])[1])
            mle = -np.mean(log_unnorm(mod, data.values)) + log_z
            assert sm_objective(model, mod.params, data).value == pytest.approx(sm, rel=1e-12)
            assert exact_mle_objective(model, mod.params, data).value == pytest.approx(mle, rel=1e-12)


def test_sm_objective_rejects_discrete_model():
    model = ising_model([0.0, 0.0], [0.5])
    data = discrete_dataset([[0, 1]], m=2)
    with pytest.raises(ValueError, match="continuous"):
        sm_objective(model, model.params, data)


def test_sm_gaussian_gradient_matches_fd():
    from scorematch.estimation import FD_CHECK_STEP, fd_gradient

    rng = np.random.default_rng(8)
    model = gaussian_model(np.zeros(2), np.eye(2))
    data = sample(gaussian_model([0.5, -0.5], [[1.0, 0.2], [0.2, 0.8]]), 100, seed=1)
    for _ in range(5):
        a = rng.standard_normal((2, 2)) * 0.3
        theta = gaussian_model(rng.standard_normal(2), a @ a.T + np.eye(2)).params
        analytic = sm_objective(model, theta, data).grad_theta
        numeric = fd_gradient(lambda t: sm_objective(model, t, data).value, theta, FD_CHECK_STEP)
        scale = max(1.0, np.abs(numeric).max())
        assert np.abs(analytic - numeric).max() / scale < 1e-5


# ---------------------------------------------------------------------------
# Discrete ratio-form objective

def test_gsm_binary_uniform_is_zero():
    # The name dates from a convention that subtracted m*d so that uniform
    # conditionals scored zero; the sample form adds no constant.  Uniform
    # conditionals give each coordinate sum_y q(y)^2 - 2 q(xi) = 1/4 + 1/4 - 2/2
    # = -1/2 whatever the sample, so d = 2 coordinates give -d/m = -1.
    model = ising_model([0.0, 0.0], [0.0])
    data = discrete_dataset([[0, 1], [1, 1]], m=2)
    assert gsm_discrete_objective(model, model.params, data).value == pytest.approx(-1.0, abs=1e-12)


def test_gsm_ternary_uniform_closed_form():
    model = potts_model(np.zeros((2, 3)), [0.0])
    data = discrete_dataset([[0, 2]], m=3)
    # each coordinate: 3 * (1/3)^2 - 2 * (1/3) = 1/3 - 2/3 = -1/3; two coords
    assert gsm_discrete_objective(model, model.params, data).value == pytest.approx(-2.0 / 3.0, abs=1e-10)


def test_gsm_coupled_ising_single_state_closed_form():
    model = ising_model([0.0, 0.0], [0.5])
    data = discrete_dataset([[1, 1]], m=2)
    # per coordinate, with s = q(1|1) = SIGMOID1 at the observed symbol:
    # s^2 + (1-s)^2 - 2s = 2s^2 - 4s + 1; two coordinates give 4s^2 - 8s + 2,
    # and s = 0.7310586 gives 2.1377866 - 5.8484686 + 2 = -1.7106820
    s = SIGMOID1
    want = 4.0 * s**2 - 8.0 * s + 2.0
    got = gsm_discrete_objective(model, model.params, data).value
    assert got == pytest.approx(want, abs=1e-10)
    assert got == pytest.approx(-1.710682, abs=1e-6)


def test_gsm_normalization_invariant():
    model = ising_model([0.2, -0.4], [0.5])
    data = sample(model, 100, seed=3)
    base = gsm_discrete_objective(model, model.params, data).value
    shifted = gsm_discrete_objective(model.shifted(-4.2), model.params, data).value
    assert shifted == pytest.approx(base, abs=1e-12)


def test_gsm_weighted_equals_duplicated_dataset():
    model = ising_model([0.1, 0.3], [0.5])
    states = np.array([[0, 1], [1, 1], [0, 0]])
    dup = discrete_dataset(np.repeat(states, [2, 1, 3], axis=0), m=2)
    weighted = gsm_discrete_objective(
        model, model.params, discrete_dataset(states, m=2), weights=[2.0, 1.0, 3.0]
    )
    plain = gsm_discrete_objective(model, model.params, dup)
    assert weighted.value == pytest.approx(plain.value, abs=1e-12)


@pytest.mark.parametrize("d", [63, 64])
def test_collapse_states_at_the_int64_code_limit(d):
    # 2**63 - 1 is the largest packed base-2 code that fits in int64; at d=64
    # the rows are collapsed directly.
    ones, zeros = np.ones(d, dtype=int), np.zeros(d, dtype=int)
    mixed = np.arange(d) % 2
    data = discrete_dataset([ones, mixed, zeros, ones, mixed, ones], 2)
    collapsed, w = collapse_states(data)
    assert np.array_equal(collapsed.values, np.array([zeros, mixed, ones]))
    assert np.array_equal(w, np.array([1, 2, 3]) / 6)


# ---------------------------------------------------------------------------
# Population squared-conditional-difference divergence

def test_gsm_population_zero_at_truth():
    model = ising_model([0.3, -0.2], [0.5])
    p = exact_normalize(model)
    assert gsm_discrete_population(p, model, model.params) == pytest.approx(0.0, abs=1e-14)


def test_gsm_population_uniform_vs_coupled_ising_closed_form():
    p = discrete_joint(np.full((2, 2), 0.25))
    model = ising_model([0.0, 0.0], [0.5])
    # every (state, coordinate) contributes (0.5 - s)^2 + (0.5 - (1-s))^2 with
    # s = 1/(1+e^{-1}); the p-average leaves 4 * (0.5 - s)^2
    want = 4.0 * (0.5 - SIGMOID1) ** 2
    assert gsm_discrete_population(p, model, model.params) == pytest.approx(want, abs=1e-12)


def test_gsm_population_nonnegative():
    rng = np.random.default_rng(6)
    model = ising_model(np.zeros(3), np.zeros(2))
    for _ in range(20):
        p = discrete_joint(rng.random((2, 2, 2)) + 0.01)
        theta = rng.uniform(-1, 1, model.n_params)
        assert gsm_discrete_population(p, model, theta) >= 0.0


# ---------------------------------------------------------------------------
# Ratio matching

def test_rm_binary_uniform_closed_form():
    model = ising_model([0.0, 0.0], [0.0])
    data = discrete_dataset([[1, 0]], m=2)
    # each coordinate: (1 - q(xi|x^{\i}))^2 = (1 - 1/2)^2 = 1/4; two coordinates
    assert ratio_matching_objective(model, model.params, data).value == pytest.approx(0.5, abs=1e-12)


def test_rm_ternary_uniform_closed_form():
    model = potts_model(np.zeros((2, 3)), [0.0])
    data = discrete_dataset([[1, 1]], m=3)
    # ratio matching is binary only: at m = 3 the observed-symbol form is not
    # a theta-independent constant away from its population divergence
    with pytest.raises(ValueError, match="binary"):
        ratio_matching_objective(model, model.params, data)


def test_rm_deterministic_conditional_limit():
    # strong fields concentrate every conditional on symbol 1, so q(1|.) -> 1
    # and q(0|.) -> 0.  Observing [1, 1] gives 2 * (1 - 1)^2 -> 0; observing
    # [0, 0] gives 2 * (1 - 0)^2 -> 2.  The value depends on the observed symbol.
    model = ising_model([20.0, 20.0], [0.0])
    ones = discrete_dataset([[1, 1]], m=2)
    zeros = discrete_dataset([[0, 0]], m=2)
    assert ratio_matching_objective(model, model.params, ones).value == pytest.approx(0.0, abs=1e-6)
    assert ratio_matching_objective(model, model.params, zeros).value == pytest.approx(2.0, abs=1e-6)


def test_rm_normalization_invariant():
    model = ising_model([0.2, -0.4], [0.5])
    data = sample(model, 100, seed=5)
    base = ratio_matching_objective(model, model.params, data).value
    shifted = ratio_matching_objective(model.shifted(2.5), model.params, data).value
    assert shifted == pytest.approx(base, abs=1e-12)


def test_rm_population_zero_at_truth_and_matches_gsm_population():
    rng = np.random.default_rng(5)
    model = ising_model(np.zeros(3), np.zeros(2))
    truth = ising_model([0.3, -0.2, 0.1], [0.5, -0.4])
    p_true = exact_normalize(truth)
    assert ratio_matching_population(p_true, truth, truth.params) == pytest.approx(0.0, abs=1e-14)
    for _ in range(50):
        p = discrete_joint(rng.random((2, 2, 2)) + 0.05)
        theta = rng.uniform(-1, 1, model.n_params)
        a = gsm_discrete_population(p, model, theta)
        b = ratio_matching_population(p, model, theta)
        assert abs(a - b) <= 1e-12


def test_rm_population_uniform_vs_coupled_ising_same_as_gsm():
    p = discrete_joint(np.full((2, 2), 0.25))
    model = ising_model([0.0, 0.0], [0.5])
    want = 4.0 * (0.5 - SIGMOID1) ** 2
    assert ratio_matching_population(p, model, model.params) == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------------
# Pseudo-likelihood

def test_pl_binary_uniform_closed_form():
    model = ising_model([0.0, 0.0], [0.0])
    data = discrete_dataset([[0, 0]], m=2)
    assert pseudo_likelihood_objective(model, model.params, data).value == pytest.approx(
        2.0 * np.log(2.0), abs=1e-12
    )


def test_pl_coupled_ising_single_state_closed_form():
    model = ising_model([0.0, 0.0], [0.5])
    data = discrete_dataset([[1, 1]], m=2)
    want = -2.0 * np.log(SIGMOID1)
    got = pseudo_likelihood_objective(model, model.params, data).value
    assert got == pytest.approx(want, abs=1e-12)
    assert got == pytest.approx(0.626523, abs=1e-6)


def test_pl_deterministic_conditionals_approach_zero():
    model = ising_model([30.0, 30.0], [0.0])
    data = discrete_dataset([[1, 1]], m=2)
    assert pseudo_likelihood_objective(model, model.params, data).value == pytest.approx(0.0, abs=1e-10)


def test_pl_normalization_invariant():
    model = ising_model([0.2, -0.4], [0.5])
    data = sample(model, 100, seed=6)
    base = pseudo_likelihood_objective(model, model.params, data).value
    shifted = pseudo_likelihood_objective(model.shifted(-1.1), model.params, data).value
    assert shifted == pytest.approx(base, abs=1e-12)


# ---------------------------------------------------------------------------
# Exact MLE

def test_mle_binary_uniform_closed_form():
    model = ising_model([0.0, 0.0], [0.0])
    data = discrete_dataset([[1, 0]], m=2)
    assert exact_mle_objective(model, model.params, data).value == pytest.approx(
        np.log(4.0), abs=1e-12
    )


def test_mle_gaussian_minimized_at_sample_moments():
    from scorematch.estimation import FD_CHECK_STEP, fd_gradient, closed_form_gaussian_sm

    data = sample(gaussian_model([0.5], [[2.0]]), 500, seed=7)
    theta_ml = closed_form_gaussian_sm(data)
    model = gaussian_model([0.0], [[1.0]])
    g = fd_gradient(
        lambda t: exact_mle_objective(model, t, data).value, theta_ml, FD_CHECK_STEP
    )
    assert np.abs(g).max() < 1e-8
    assert np.abs(exact_mle_objective(model, theta_ml, data).grad_theta).max() < 1e-12


def test_mle_gaussian_gradient_matches_fd():
    from scorematch.estimation import FD_CHECK_STEP, fd_gradient

    rng = np.random.default_rng(8)
    model = gaussian_model(np.zeros(3), np.eye(3))
    data = sample(gaussian_model([0.5, -0.5, 0.0], np.diag([1.0, 0.8, 1.5])), 100, seed=1)
    for _ in range(5):
        a = rng.standard_normal((3, 3)) * 0.3
        theta = gaussian_model(rng.standard_normal(3), a @ a.T + np.eye(3)).params
        exact = exact_mle_objective(model, theta, data).grad_theta
        numeric = fd_gradient(
            lambda t: exact_mle_objective(model, t, data).value, theta, FD_CHECK_STEP
        )
        assert np.abs(exact - numeric).max() / max(1.0, np.abs(numeric).max()) < 1e-6


def test_mle_gaussian_rejects_non_pd_covariance_as_domain_error():
    model = gaussian_model([0.0, 0.0], np.eye(2))
    data = sample(model, 10, seed=1)
    # indefinite, and negative definite with a positive determinant
    for cov_tril in ([1.0, 2.0, 1.0], [-1.0, 0.0, -1.0]):
        with pytest.raises(ParameterDomainError, match="positive definite"):
            exact_mle_objective(model, [0.0, 0.0] + cov_tril, data)


def test_mle_population_is_cross_entropy():
    model = ising_model([0.2, -0.1], [0.5])
    p = exact_normalize(model)
    # at truth the cross entropy equals the entropy of p
    want = float(-(p.probs * np.log(p.probs)).sum())
    assert exact_mle_population(p, model, model.params) == pytest.approx(want, abs=1e-12)


def test_pl_population_minimized_at_truth():
    from scorematch.estimation import FD_CHECK_STEP, fd_gradient

    model = ising_model([0.2, -0.1, 0.3], [0.5, -0.4])
    p = exact_normalize(model)
    g = fd_gradient(
        lambda t: pseudo_likelihood_population(p, model, t), model.params, FD_CHECK_STEP
    )
    assert np.abs(g).max() < 1e-8


# ---------------------------------------------------------------------------
# Misc contracts

def test_objective_kind_tags():
    assert {k.value for k in ObjectiveKind} == {"sm", "gsm", "rm", "pl", "mle"}


def test_discrete_objectives_reject_mismatched_data():
    model = ising_model([0.0, 0.0], [0.5])
    bad = discrete_dataset([[0, 1, 0]], m=2)
    for fn in (gsm_discrete_objective, ratio_matching_objective,
               pseudo_likelihood_objective, exact_mle_objective):
        with pytest.raises(ValueError):
            fn(model, model.params, bad)


def test_population_objectives_reject_shape_mismatch():
    model = ising_model([0.0, 0.0], [0.5])
    p = discrete_joint(np.full((2, 2, 2), 0.125))
    for fn in (gsm_discrete_population, ratio_matching_population,
               pseudo_likelihood_population, exact_mle_population):
        with pytest.raises(ValueError, match="shape"):
            fn(p, model, model.params)
