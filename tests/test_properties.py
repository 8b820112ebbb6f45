"""Property-based tests for the numerical identities that must hold for
arbitrary inputs, not just the hand-picked fixtures."""

import numpy as np
from hypothesis import given, settings, strategies as st

from scorematch.grids import gaussian_1d, mixture_1d
from scorematch.estimation import (
    FD_CHECK_STEP,
    OptimizerConfig,
    fd_gradient,
    fit,
    objective_functions,
)
from scorematch.models import (
    discrete_dataset,
    exact_normalize,
    gaussian_model,
    gen_gauss_model,
    grad_x_log,
    ising_model,
    laplacian_x_log,
    log_unnorm,
    model_from_json,
    model_to_json,
    potts_model,
    sample,
)
from scorematch.objectives import (
    ObjectiveKind,
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


def _random_pairwise(rng):
    """An Ising or Potts model over a random d, m and edge set, with a random
    theta in its parameter layout."""
    d, m = int(rng.integers(2, 5)), int(rng.integers(2, 4))
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    edges = [e for e in pairs if rng.random() < 0.5] or pairs[:1]
    if m == 2 and rng.random() < 0.5:
        model = ising_model(np.zeros(d), np.zeros(len(edges)), edges)
    else:
        model = potts_model(np.zeros((d, m)), np.zeros(len(edges)), edges)
    return model, d, m, rng.uniform(-1, 1, model.n_params)


@given(seed=st.integers(0, 10_000), c=st.floats(-5.0, 5.0))
@settings(**SETTINGS)
def test_discrete_objective_gradients_match_fd_and_ignore_shift(seed, c):
    rng = np.random.default_rng(seed)
    model, d, m, theta = _random_pairwise(rng)
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


@given(seed=st.integers(0, 10_000))
@settings(**SETTINGS)
def test_population_gradients_match_fd_of_the_oracle(seed):
    # rm included at every m: its gradient comes from the gsm form
    rng = np.random.default_rng(seed)
    model, d, m, theta = _random_pairwise(rng)
    joint = discrete_joint(rng.random((m,) * d) + 0.05)
    for kind in (ObjectiveKind.GSM_DISCRETE, ObjectiveKind.RATIO_MATCHING,
                 ObjectiveKind.PSEUDO_LIKELIHOOD, ObjectiveKind.EXACT_MLE):
        value_and_grad = objective_functions(model, kind, joint)
        numeric = fd_gradient(lambda t: value_and_grad(t)[0], theta, FD_CHECK_STEP)
        exact = value_and_grad(theta)[1]
        assert np.abs(exact - numeric).max() <= 1e-6 * max(1.0, np.abs(numeric).max())


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
    # the brute-force partition absorbs the constant, and the Gaussian's
    # closed form never sees it, so exact MLE is shift-stable
    rng = np.random.default_rng(seed)
    ising = ising_model(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 1))
    gauss = gaussian_model(rng.uniform(-1, 1, 2), np.eye(2) * rng.uniform(0.5, 2.0))
    for model, data in [
        (ising, discrete_dataset(rng.integers(0, 2, (10, 2)), m=2)),
        (gauss, sample(gauss, 10, seed=seed)),
    ]:
        base = exact_mle_objective(model, model.params, data).value
        moved = exact_mle_objective(model.shifted(c), model.params, data).value
        assert abs(moved - base) <= 1e-10 * max(1.0, abs(base))


def _fit_case(family, rng):
    """A model of the family and the objectives that can fit it."""
    K = ObjectiveKind
    if family == "gaussian":
        a = rng.standard_normal((2, 2))
        model = gaussian_model(rng.uniform(-1, 1, 2), a @ a.T + 0.1 * np.eye(2))
        return model, (K.SM_CONTINUOUS, K.EXACT_MLE)
    if family == "gengauss":
        return gen_gauss_model(rng.uniform(1.2, 3.0)), (K.SM_CONTINUOUS,)
    if family == "ising":
        model = ising_model(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 2))
        return model, (K.GSM_DISCRETE, K.RATIO_MATCHING, K.PSEUDO_LIKELIHOOD, K.EXACT_MLE)
    model = potts_model(rng.uniform(-1, 1, (3, 3)), rng.uniform(-1, 1, 2))
    return model, (K.GSM_DISCRETE, K.PSEUDO_LIKELIHOOD, K.EXACT_MLE)


@given(seed=st.integers(0, 10_000),
       family=st.sampled_from(["gaussian", "gengauss", "ising", "potts"]))
@settings(**SETTINGS)
def test_fit_never_leaves_parameter_domain(seed, family):
    rng = np.random.default_rng(seed)
    model, objectives = _fit_case(family, rng)
    data = sample(model, 30, seed=seed)
    for objective in objectives:
        res = fit(model, objective, data, OptimizerConfig(max_iters=20))
        model.with_params(res.theta_hat)  # raises outside the domain


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


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _any_model(draw):
    """A model of any kind with arbitrary finite parameters; discrete kinds
    get a random edge multiset, or the default chain."""
    kind = draw(st.sampled_from(["gaussian", "gen_gauss", "ising", "potts"]))
    if kind == "gen_gauss":
        return gen_gauss_model(draw(st.floats(0.0, exclude_min=True, allow_infinity=False)))
    d = draw(st.integers(1, 5))
    if kind == "gaussian":
        mu = draw(st.lists(FINITE, min_size=d, max_size=d))
        a = np.reshape(draw(st.lists(st.floats(-10.0, 10.0), min_size=d * d, max_size=d * d)), (d, d))
        return gaussian_model(mu, a @ a.T + np.eye(d))
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    edges = None
    if pairs and draw(st.booleans()):
        edges = draw(st.lists(st.sampled_from(pairs), max_size=8))
    n_edges = d - 1 if edges is None else len(edges)
    couplings = draw(st.lists(FINITE, min_size=n_edges, max_size=n_edges))
    if kind == "ising":
        return ising_model(draw(st.lists(FINITE, min_size=d, max_size=d)), couplings, edges)
    m = draw(st.integers(2, 4))
    fields = draw(st.lists(FINITE, min_size=d * m, max_size=d * m))
    return potts_model(np.reshape(fields, (d, m)), couplings, edges)


@given(model=_any_model())
@settings(deadline=None, max_examples=100)
def test_model_json_round_trip_is_bit_exact(model):
    text = model_to_json(model)
    back = model_from_json(text)
    assert back.kind is model.kind
    assert (back.dim, back.alphabet_size, back.edges) == (model.dim, model.alphabet_size, model.edges)
    assert np.array_equal(back.params, model.params)
    assert back.params.tobytes() == model.params.tobytes()  # also keeps the sign of -0.0
    assert model_to_json(back) == text
