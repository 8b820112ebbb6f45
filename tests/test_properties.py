"""Property-based tests for the numerical identities that must hold for
arbitrary inputs, not just the hand-picked fixtures."""

import numpy as np
from hypothesis import given, settings, strategies as st

from scorematch.grids import gaussian_1d, mixture_1d
from scorematch.estimation import FD_CHECK_STEP, fd_gradient
from scorematch.models import (
    discrete_dataset,
    exact_normalize,
    gaussian_model,
    grad_x_log,
    ising_model,
    laplacian_x_log,
    log_unnorm,
    potts_model,
    sample,
)
from scorematch.objectives import (
    collapse_states,
    exact_mle_objective,
    gsm_discrete_objective,
    gsm_discrete_population,
    kl_exact,
    pseudo_likelihood_objective,
    ratio_matching_objective,
    ratio_matching_population,
    sm_objective,
)
from scorematch.operators import (
    brook_ratio,
    discrete_joint,
    joint_conditionals,
    marginalization_adjoint_residual,
    reconstruct_joint,
)
from scorematch.scalespace import smooth

SETTINGS = dict(deadline=None, max_examples=25)


def _random_joint(seed, m=2, d=3):
    rng = np.random.default_rng(seed)
    return discrete_joint(rng.random((m,) * d) + 0.05)


@given(seed=st.integers(0, 10_000))
@settings(**SETTINGS)
def test_marginalization_adjoint_exact(seed):
    rng = np.random.default_rng(seed)
    m, d = int(rng.integers(2, 4)), int(rng.integers(2, 5))
    f = rng.random((m,) * d)
    g = rng.standard_normal((d,) + (m,) * d)
    assert marginalization_adjoint_residual(f, g) <= 1e-12


@given(seed=st.integers(0, 10_000))
@settings(**SETTINGS)
def test_brook_ratio_order_invariant(seed):
    rng = np.random.default_rng(seed)
    joint = _random_joint(seed)
    conds = joint_conditionals(joint)
    a = tuple(rng.integers(0, 2, 3))
    b = tuple(rng.integers(0, 2, 3))
    base = brook_ratio(conds, a, b)
    perm = list(rng.permutation(3))
    assert abs(brook_ratio(conds, a, b, order=perm) - base) <= 1e-10 * max(1.0, base)


@given(seed=st.integers(0, 10_000))
@settings(**SETTINGS)
def test_reconstruction_round_trip(seed):
    joint = _random_joint(seed)
    rebuilt = reconstruct_joint(joint_conditionals(joint), joint.m, joint.d)
    assert np.abs(rebuilt.probs - joint.probs).max() <= 1e-10


@given(seed=st.integers(0, 10_000), c=st.floats(-5.0, 5.0))
@settings(**SETTINGS)
def test_discrete_objectives_normalization_invariant(seed, c):
    rng = np.random.default_rng(seed)
    model = ising_model(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 2))
    data = discrete_dataset(rng.integers(0, 2, (20, 3)), m=2)
    shifted = model.shifted(c)
    for fn in (gsm_discrete_objective, ratio_matching_objective,
               pseudo_likelihood_objective):
        base = fn(model, model.params, data).value
        moved = fn(shifted, model.params, data).value
        assert abs(moved - base) <= 1e-12 * max(1.0, abs(base))


@given(seed=st.integers(0, 10_000), c=st.floats(-5.0, 5.0))
@settings(**SETTINGS)
def test_discrete_objective_gradients_match_fd_and_ignore_shift(seed, c):
    rng = np.random.default_rng(seed)
    d, m = int(rng.integers(2, 5)), int(rng.integers(2, 4))
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    edges = [e for e in pairs if rng.random() < 0.5] or pairs[:1]
    if m == 2 and rng.random() < 0.5:
        model = ising_model(np.zeros(d), np.zeros(len(edges)), edges)
    else:
        model = potts_model(np.zeros((d, m)), np.zeros(len(edges)), edges)
    theta = rng.uniform(-1, 1, model.n_params)
    data = discrete_dataset(rng.integers(0, m, (30, d)), m=m)
    objectives = [gsm_discrete_objective, pseudo_likelihood_objective, exact_mle_objective]
    if m == 2:
        objectives.append(ratio_matching_objective)
    for fn in objectives:
        exact = fn(model, theta, data).grad_theta
        numeric = fd_gradient(lambda t: fn(model, t, data).value, theta, FD_CHECK_STEP)
        assert np.abs(exact - numeric).max() <= 1e-6 * max(1.0, np.abs(numeric).max())
        moved = fn(model.shifted(c), theta, data).grad_theta
        assert np.abs(moved - exact).max() <= 1e-12 * max(1.0, np.abs(exact).max())


@given(seed=st.integers(0, 10_000), c=st.floats(-5.0, 5.0))
@settings(**SETTINGS)
def test_sm_objective_normalization_invariant(seed, c):
    rng = np.random.default_rng(seed)
    model = gaussian_model(rng.uniform(-1, 1, 2), np.eye(2) * rng.uniform(0.5, 2.0))
    data = sample(model, 20, seed=seed)
    base = sm_objective(model, model.params, data).value
    moved = sm_objective(model.shifted(c), model.params, data).value
    assert abs(moved - base) <= 1e-12 * max(1.0, abs(base))


@given(seed=st.integers(0, 10_000), c=st.floats(-5.0, 5.0))
@settings(**SETTINGS)
def test_mle_objective_shift_cancels_in_partition(seed, c):
    # the brute-force partition absorbs the constant, so even exact MLE is
    # shift-stable under this implementation
    rng = np.random.default_rng(seed)
    model = ising_model(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 1))
    data = discrete_dataset(rng.integers(0, 2, (10, 2)), m=2)
    base = exact_mle_objective(model, model.params, data).value
    moved = exact_mle_objective(model.shifted(c), model.params, data).value
    assert abs(moved - base) <= 1e-10 * max(1.0, abs(base))


@given(seed=st.integers(0, 10_000))
@settings(**SETTINGS)
def test_population_identity_ratio_matching(seed):
    rng = np.random.default_rng(seed)
    p = _random_joint(seed)
    model = ising_model(np.zeros(3), np.zeros(2))
    theta = rng.uniform(-1, 1, 5)
    a = gsm_discrete_population(p, model, theta)
    b = ratio_matching_population(p, model, theta)
    assert abs(a - b) <= 1e-12 * max(1.0, a)


@given(seed=st.integers(0, 10_000))
@settings(**SETTINGS)
def test_population_divergences_nonnegative_and_zero_at_self(seed):
    rng = np.random.default_rng(seed)
    model = ising_model(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 1))
    p = exact_normalize(model)
    assert gsm_discrete_population(p, model, model.params) <= 1e-13
    other = rng.uniform(-1, 1, 3)
    assert gsm_discrete_population(p, model, other) >= 0.0


@given(seed=st.integers(0, 10_000), m=st.sampled_from([2, 3]), d=st.integers(1, 8))
@settings(**SETTINGS)
def test_collapse_states_equals_row_unique(seed, m, d):
    rng = np.random.default_rng(seed)
    edges = [(i, i + 1) for i in range(d - 1)]
    if m == 2:
        model = ising_model(rng.uniform(-1, 1, d), rng.uniform(-1, 1, len(edges)))
    else:
        model = potts_model(rng.uniform(-1, 1, (d, m)), rng.uniform(-1, 1, len(edges)))
    data = sample(model, int(rng.integers(1, 400)), seed=seed)
    collapsed, w = collapse_states(data)
    states, counts = np.unique(data.values, axis=0, return_counts=True)
    assert np.array_equal(collapsed.values, states)
    assert np.array_equal(w, counts / counts.sum())


@given(seed=st.integers(0, 10_000))
@settings(**SETTINGS)
def test_kl_nonnegative_and_zero_at_self(seed):
    p = _random_joint(seed)
    q = _random_joint(seed + 1)
    assert kl_exact(p, q) >= 0.0
    assert kl_exact(p, p) <= 1e-14


@given(s=st.floats(0.05, 0.5), t=st.floats(0.05, 0.5))
@settings(deadline=None, max_examples=10)
def test_smooth_semigroup(s, t):
    p = mixture_1d([(0.5, -1.5, 0.8), (0.5, 1.5, 0.8)], box=(-12.0, 12.0), n=2048)
    a = smooth(smooth(p, s), t)
    b = smooth(p, s + t)
    assert np.abs(a.values - b.values).max() <= 1e-8


@given(seed=st.integers(0, 10_000))
@settings(**SETTINGS)
def test_gaussian_derivatives_consistent(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 4))
    a = rng.standard_normal((d, d)) * 0.3
    model = gaussian_model(rng.standard_normal(d), a @ a.T + np.eye(d))
    x = rng.standard_normal(d)
    h = 1e-4
    for k in range(d):
        hi, lo = x.copy(), x.copy()
        hi[k] += h
        lo[k] -= h
        fd = (log_unnorm(model, hi) - log_unnorm(model, lo)) / (2 * h)
        assert abs(grad_x_log(model, x)[k] - fd) < 1e-6 * max(1.0, abs(fd))
    lap_fd = sum(
        (log_unnorm(model, np.eye(d)[k] * h + x) - 2 * log_unnorm(model, x)
         + log_unnorm(model, x - np.eye(d)[k] * h)) / h**2
        for k in range(d)
    )
    lap = laplacian_x_log(model, x)
    assert abs(lap - lap_fd) < 1e-5 * max(1.0, abs(lap))


@given(seed=st.integers(0, 10_000))
@settings(deadline=None, max_examples=10)
def test_sampling_reproducible(seed):
    model = ising_model([0.2, -0.3], [0.5])
    a = sample(model, 50, seed=seed)
    b = sample(model, 50, seed=seed)
    assert np.array_equal(a.values, b.values)
