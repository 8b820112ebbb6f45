"""Property-based tests for the numerical identities that must hold for
arbitrary inputs, not just the hand-picked fixtures."""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from scorematch import estimation
from scorematch.grids import mixture_1d
from scorematch.estimation import (
    closed_form_gaussian_sm,
    fd_gradient,
    fit,
)
from scorematch.models import (
    Dataset,
    ModelKind,
    continuous_dataset,
    discrete_dataset,
    exact_normalize,
    gaussian_model,
    gen_gauss_model,
    grad_x_log,
    ising_model,
    laplacian_x_log,
    log_table,
    log_unnorm,
    model_from_json,
    model_to_json,
    potts_model,
    sample,
    sufficient_statistics,
    zero_sum_gauge,
)
from scorematch.objectives import (
    ObjectiveKind,
    _discrete_design,
    empirical_objective,
    exact_mle_population,
    gaussian_sm_normal_equations,
    gsm_discrete_population,
    kl_exact,
    pseudo_likelihood_population,
    ratio_matching_population,
)
from scorematch.operators import (
    DiscreteJoint,
    brook_ratio,
    discrete_joint,
    joint_conditionals,
    marginalization_adjoint_residual,
    reconstruct_joint,
)
from scorematch.scalespace import smooth

from cube_helpers import state_cube

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
    # Permuting the joint's axes and both states walks the coordinates in the
    # permuted order.
    rng = np.random.default_rng(seed)
    joint = _random_joint(seed)
    a = tuple(rng.integers(0, 2, 3))
    b = tuple(rng.integers(0, 2, 3))
    base = brook_ratio(joint_conditionals(joint), a, b)
    perm = list(rng.permutation(3))
    conds = joint_conditionals(discrete_joint(np.transpose(joint.probs, perm)))
    walked = brook_ratio(conds, [a[k] for k in perm], [b[k] for k in perm])
    assert abs(walked - base) <= 1e-10 * max(1.0, base)


@given(seed=st.integers(0, 10_000))
@settings(**SETTINGS)
def test_reconstruction_round_trip(seed):
    joint = _random_joint(seed)
    rebuilt = reconstruct_joint(joint_conditionals(joint), joint.m, joint.d)
    assert np.abs(rebuilt.probs - joint.probs).max() <= 1e-10


@given(seed=st.integers(0, 10_000))
@settings(**SETTINGS)
def test_a_built_objective_is_theta_free(seed):
    # Built once and evaluated at theta1, theta2 and theta1 again, an objective
    # gives the same theta1 result bit for bit: no evaluation may update the
    # design it was built with.
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 4))

    def gaussian_theta():
        a = rng.standard_normal((d, d)) * 0.4
        return gaussian_model(rng.standard_normal(d), a @ a.T + np.eye(d)).params

    gauss = gaussian_model(np.zeros(d), np.eye(d))
    gauss_data = continuous_dataset(rng.standard_normal((40, d)) + 0.5)
    cases = [(gauss, kind, gauss_data, gaussian_theta)
             for kind in (ObjectiveKind.SM_CONTINUOUS, ObjectiveKind.EXACT_MLE)]
    cases.append((gen_gauss_model(1.0), ObjectiveKind.SM_CONTINUOUS,
                  continuous_dataset(rng.standard_normal((40, 1))),
                  lambda: rng.uniform(0.5, 3.0, 1)))
    k = d + 1
    for model in (ising_model(np.zeros(k), np.zeros(k - 1)),
                  potts_model(np.zeros((k, 3)), np.zeros(k - 1))):
        truth = model.with_params(rng.uniform(-1, 1, model.n_params))
        kinds = [ObjectiveKind.GSM_DISCRETE, ObjectiveKind.PSEUDO_LIKELIHOOD, ObjectiveKind.EXACT_MLE]
        if model.alphabet_size == 2:
            kinds.append(ObjectiveKind.RATIO_MATCHING)
        for data in (sample(truth, 40, seed), exact_normalize(truth)):
            cases += [(model, kind, data, lambda n=model.n_params: rng.uniform(-1, 1, n))
                      for kind in kinds]
    for model, kind, data, random_theta in cases:
        evaluate = empirical_objective(model, kind, data)
        theta1 = random_theta()
        first = evaluate(theta1)
        evaluate(random_theta())
        again = evaluate(theta1)
        assert again.value == first.value
        assert np.array_equal(again.grad_theta, first.grad_theta)


def _random_pairwise(rng, d=None, m=None):
    """An Ising or Potts model over a random edge set and, unless given, a
    random d and m, with a random theta in its parameter layout."""
    d = int(rng.integers(2, 5)) if d is None else d
    m = int(rng.integers(2, 4)) if m is None else m
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    edges = [e for e in pairs if rng.random() < 0.5] or pairs[:1]
    if m == 2 and rng.random() < 0.5:
        model = ising_model(np.zeros(d), np.zeros(len(edges)), edges)
    else:
        model = potts_model(np.zeros((d, m)), np.zeros(len(edges)), edges)
    return model, d, m, rng.uniform(-1, 1, model.n_params)


def _fd_curvature(objective, theta):
    """Central differences of the exact gradient, one column per parameter,
    with the gradient check's step."""
    step = estimation.FD_CHECK_STEP * np.eye(theta.size)
    return np.column_stack([(objective(theta + h).grad_theta - objective(theta - h).grad_theta)
                            / (2.0 * estimation.FD_CHECK_STEP) for h in step])


def _curvature_matrix(out):
    """An evaluation's curvature as a matrix: its products with the columns
    of the identity."""
    return np.column_stack([out.curvature(e) for e in np.eye(out.grad_theta.size)])


@given(seed=st.integers(0, 10_000))
@settings(**SETTINGS)
@example(seed=2)  # an Ising model
@example(seed=0)  # a Potts model
def test_discrete_objective_gradients_match_fd(seed):
    # The exact gradient against central differences of the value, and the
    # exact Hessian of each objective against central differences of that
    # gradient.
    rng = np.random.default_rng(seed)
    model, d, m, theta = _random_pairwise(rng)
    data = discrete_dataset(rng.integers(0, m, (30, d)), m=m)
    kinds = [ObjectiveKind.GSM_DISCRETE, ObjectiveKind.PSEUDO_LIKELIHOOD, ObjectiveKind.EXACT_MLE]
    if m == 2:
        kinds.append(ObjectiveKind.RATIO_MATCHING)
    for kind in kinds:
        objective = empirical_objective(model, kind, data)
        out = objective(theta)
        numeric = fd_gradient(lambda t: objective(t).value, theta)
        assert np.abs(out.grad_theta - numeric).max() <= 1e-6 * max(1.0, np.abs(numeric).max())
        numeric = _fd_curvature(objective, theta)
        assert np.abs(_curvature_matrix(out) - numeric).max() <= 1e-8 * max(1.0, np.abs(numeric).max())


@given(seed=st.integers(0, 10_000))
@settings(**SETTINGS)
def test_each_discrete_objective_is_strictly_proper_on_the_models_own_joint(seed):
    # pl, gsm and rm are proper scoring rules of the singleton conditionals,
    # and mle is the log score of the joint, so on the model's own joint each
    # form is stationary at theta*; they are strictly proper, so there its
    # curvature is positive definite off the Potts gauge and a population fit
    # recovers theta* (the benchmark's population tolerance, 1e-5).  rm's own
    # form is binary-only; its population fit takes gsm's form at every m.
    rng = np.random.default_rng(seed)
    model, d, m, theta = _random_pairwise(rng)
    joint = exact_normalize(model.with_params(theta))
    # An orthonormal basis of the zero-sum slice: the eigenvectors of the
    # gauge projection with eigenvalue 1.
    w, V = np.linalg.eigh(np.column_stack([zero_sum_gauge(model, e) for e in np.eye(model.n_params)]))
    Q = V[:, w > 0.5]
    kinds = [ObjectiveKind.PSEUDO_LIKELIHOOD, ObjectiveKind.GSM_DISCRETE, ObjectiveKind.EXACT_MLE]
    for kind in kinds + [ObjectiveKind.RATIO_MATCHING] * (m == 2):
        at = empirical_objective(model, kind, joint)(theta)
        H = _curvature_matrix(at)
        assert np.abs(at.grad_theta).max() <= 1e-12 * max(1.0, np.abs(H).max())
        lam = np.linalg.eigvalsh(Q.T @ H @ Q)
        assert lam[0] >= 1e-4 * lam[-1]
    for kind in kinds + [ObjectiveKind.RATIO_MATCHING]:
        res = fit(model, kind, joint)
        assert np.abs(zero_sum_gauge(model, res.theta_hat) - zero_sum_gauge(model, theta)).max() <= 1e-5


@given(seed=st.integers(0, 10_000))
@settings(**SETTINGS)
def test_rm_is_half_of_gsm_plus_d_on_binary_data(seed):
    # On binary data each cell's ratio score c0 q1^2 + c1 q0^2 is half of its
    # Brier score n (q0^2 + q1^2) - 2 (c0 q0 + c1 q1) plus its weight n, and
    # each site's cells weigh 1 in all, so rm = (gsm + d) / 2 with half of
    # gsm's gradient and curvature.  N below and above 2**d reads a Dataset
    # through its counted blanket rows and through its empirical joint.
    rng = np.random.default_rng(seed)
    model, d, m, theta = _random_pairwise(rng, d=int(rng.integers(2, 6)), m=2)
    for data in (discrete_dataset(rng.integers(0, 2, (int(rng.integers(1, 60)), d)), m=2),
                 discrete_joint(rng.random((2,) * d) + 0.05)):
        rm = empirical_objective(model, ObjectiveKind.RATIO_MATCHING, data)(theta)
        gsm = empirical_objective(model, ObjectiveKind.GSM_DISCRETE, data)(theta)
        assert abs(rm.value - (gsm.value + d) / 2) <= 1e-12 * max(1.0, abs(rm.value))
        for a, b in ((rm.grad_theta, gsm.grad_theta), (_curvature_matrix(rm), _curvature_matrix(gsm))):
            assert np.abs(a - b / 2).max() <= 1e-12 * max(1.0, np.abs(a).max())


@pytest.mark.parametrize("alpha", [0.7, 1.3, 2.2])
def test_gen_gauss_sm_curvature_matches_fd_of_the_gradient(alpha):
    data = sample(gen_gauss_model(1.5), 2000, seed=3)
    objective = empirical_objective(gen_gauss_model(1.0), ObjectiveKind.SM_CONTINUOUS, data)
    theta = np.array([alpha])
    numeric = _fd_curvature(objective, theta)[0, 0]
    assert abs(_curvature_matrix(objective(theta))[0, 0] - numeric) <= 1e-8 * max(1.0, abs(numeric))


@given(seed=st.integers(0, 10_000))
@settings(**SETTINGS)
def test_mle_curvature_is_the_covariance_of_t_at_a_population_optimum(seed):
    # mle is the log score of the joint, so its curvature is the exact
    # Hessian N Cov_q[T] at every theta, whatever the data (N = 1 for a
    # joint or an empirical one): at a population optimum, on the model's own
    # joint, and at a random theta on a dataset.  It is positive
    # semidefinite, and zero along each Potts site's gauge (all of its fields
    # moved by one constant).
    rng = np.random.default_rng(seed)
    model, d, m, theta_star = _random_pairwise(rng)
    T = sufficient_statistics(model, state_cube(m, d))
    for data, theta in ((exact_normalize(model.with_params(theta_star)), theta_star),
                        (discrete_dataset(rng.integers(0, m, (30, d)), m=m),
                         rng.uniform(-1, 1, model.n_params))):
        log_q = T @ theta
        q = np.exp(log_q - log_q.max())
        q /= q.sum()
        centred = T - q @ T
        want = centred.T @ (q[:, None] * centred)
        H = _curvature_matrix(empirical_objective(model, ObjectiveKind.EXACT_MLE, data)(theta))
        scale = np.abs(want).max()
        assert np.abs(H - want).max() <= 1e-12 * max(1.0, scale)
        assert np.linalg.eigvalsh(H).min() >= -1e-12 * scale
        if model.kind is ModelKind.POTTS:
            for i in range(d):
                gauge = np.zeros(model.n_params)
                gauge[i * m:(i + 1) * m] = 1.0
                assert np.abs(H @ gauge).max() <= 1e-12 * scale


GRAPHS = {
    "chain": [(0, 1), (1, 2), (2, 3)],
    "star": [(0, 1), (0, 2), (0, 3)],
    "4-cycle": [(0, 1), (1, 2), (2, 3), (0, 3)],
}


@given(seed=st.integers(0, 10_000), kind=st.sampled_from(["ising", "potts"]),
       m=st.sampled_from([2, 3]), graph=st.sampled_from(sorted(GRAPHS)), cube=st.booleans())
@settings(**SETTINGS)
def test_sufficient_statistics_reproduce_log_unnorm(seed, kind, m, graph, cube):
    # The cube's rows come as an F-ordered view; T must be C-ordered anyway.
    rng = np.random.default_rng(seed)
    edges = GRAPHS[graph]
    if kind == "ising":
        model = ising_model(rng.uniform(-2, 2, 4), rng.uniform(-2, 2, len(edges)), edges)
    else:
        model = potts_model(rng.uniform(-2, 2, (4, m)), rng.uniform(-2, 2, len(edges)), edges)
    m = model.alphabet_size
    X = state_cube(m, 4) if cube else rng.integers(0, m, (int(rng.integers(1, 60)), 4))
    T = sufficient_statistics(model, X)
    assert T.shape == (X.shape[0], model.n_params) and T.flags.c_contiguous
    want = log_unnorm(model, X)
    assert np.all(np.abs(T @ model.params - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


def _reference_log_q(model, X):
    """log q~ written out from each kind's own formula, with no site pattern:
    Ising spins s = 2x - 1 give s . h + sum_e J_e s_a s_b, and Potts gives
    sum_i fields[i, x_i] + sum_e J_e [x_a = x_b]."""
    d, X = model.dim, np.asarray(X, dtype=np.int64)
    couplings = model.params[model.n_params - len(model.edges):]
    if model.kind is ModelKind.ISING:
        s = 2.0 * X - 1.0
        out = s @ model.params[:d]
        terms = [s[:, a] * s[:, b] for a, b in model.edges]
    else:
        fields = model.params[:d * model.alphabet_size].reshape(d, -1)
        out = fields[np.arange(d), X].sum(axis=1)
        terms = [X[:, a] == X[:, b] for a, b in model.edges]
    for J, term in zip(couplings, terms):
        out = out + J * term
    return out


@given(seed=st.integers(0, 10_000), kind=st.sampled_from(["ising", "potts"]),
       m=st.sampled_from([2, 3, 4]), graph=st.sampled_from(sorted(GRAPHS) + ["repeated edge"]))
@settings(**SETTINGS)
def test_log_q_is_the_spin_and_equality_formula(seed, kind, m, graph):
    # log_unnorm at random points and log_table on the whole cube both sum
    # log q~ from the site pattern; the reference does not.  An Ising model
    # has m = 2 whatever m is drawn.
    rng = np.random.default_rng(seed)
    edges = GRAPHS.get(graph, [(0, 1), (1, 2), (0, 1), (2, 3)])
    if kind == "ising":
        model = ising_model(rng.uniform(-2, 2, 4), rng.uniform(-2, 2, len(edges)), edges)
    else:
        model = potts_model(rng.uniform(-2, 2, (4, m)), rng.uniform(-2, 2, len(edges)), edges)
    m = model.alphabet_size
    X = rng.integers(0, m, (int(rng.integers(1, 60)), 4))
    table = log_table(model)
    assert table.shape == (m,) * 4
    for got, want in ((log_unnorm(model, X), _reference_log_q(model, X)),
                      (table.ravel(), _reference_log_q(model, state_cube(m, 4)))):
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


POPULATION_ORACLES = {
    ObjectiveKind.GSM_DISCRETE: gsm_discrete_population,
    ObjectiveKind.RATIO_MATCHING: ratio_matching_population,
    ObjectiveKind.PSEUDO_LIKELIHOOD: pseudo_likelihood_population,
    ObjectiveKind.EXACT_MLE: exact_mle_population,
}
# The empirical form a population fit minimizes on the joint: its own kind's,
# except rm's, whose divergence equals gsm's while the empirical rm is
# binary-only.
POPULATION_FORMS = {**{kind: kind for kind in POPULATION_ORACLES},
                    ObjectiveKind.RATIO_MATCHING: ObjectiveKind.GSM_DISCRETE}


@given(seed=st.integers(0, 10_000))
@settings(**SETTINGS)
def test_population_gradients_match_fd_of_the_oracle(seed):
    # rm included at every m: its gradient comes from the gsm form
    rng = np.random.default_rng(seed)
    model, d, m, theta = _random_pairwise(rng)
    joint = discrete_joint(rng.random((m,) * d) + 0.05)
    for kind, oracle in POPULATION_ORACLES.items():
        numeric = fd_gradient(lambda t: oracle(joint, model, t), theta)
        exact = empirical_objective(model, POPULATION_FORMS[kind], joint)(theta).grad_theta
        assert np.abs(exact - numeric).max() <= 1e-6 * max(1.0, np.abs(numeric).max())


@given(seed=st.integers(0, 10_000))
@settings(**SETTINGS)
def test_population_value_is_the_oracle_at_every_theta(seed):
    # A population fit minimizes the joint-weighted form and reports the
    # oracle at its estimate; the two share a minimizer only if they differ
    # by a theta-independent constant, here taken at the start point.  The
    # graphs are random, since the forms' blanket cells follow each site's
    # neighbours.
    rng = np.random.default_rng(seed)
    model, d, m, _ = _random_pairwise(rng)
    _assert_forms_track_their_oracles(rng, model, discrete_joint(rng.random((m,) * d) + 0.05))


@given(seed=st.integers(0, 10_000))
@settings(**SETTINGS)
def test_population_value_is_the_oracle_on_a_joint_with_empty_fibres(seed):
    # Where a fibre x^{\i} has no mass, p's conditional is 0/0; the fibre adds
    # nothing to any divergence, so every oracle stays finite.
    rng = np.random.default_rng(seed)
    model, d, m, _ = _random_pairwise(rng)
    probs = rng.random((m,) * d) + 0.05
    probs[rng.random(probs.shape) < rng.random()] = 0.0
    # Empty one whole fibre of a random site i, and keep one state outside it.
    i, state = int(rng.integers(d)), rng.integers(0, m, d)
    probs[tuple(slice(None) if k == i else state[k] for k in range(d))] = 0.0
    state[(i + 1) % d] = (state[(i + 1) % d] + 1) % m
    probs[tuple(state)] = 1.0
    _assert_forms_track_their_oracles(rng, model, discrete_joint(probs))


def _assert_forms_track_their_oracles(rng, model, joint):
    """At three random thetas each population form plus its offset at the
    start point is its oracle, every oracle is finite, and the gsm and rm
    oracles, two routes to one divergence, agree; no RuntimeWarning."""
    theta0 = estimation.default_init(model)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        forms = {kind: empirical_objective(model, POPULATION_FORMS[kind], joint)
                 for kind in POPULATION_ORACLES}
        offsets = {kind: oracle(joint, model, theta0) - forms[kind](theta0).value
                   for kind, oracle in POPULATION_ORACLES.items()}
        for _ in range(3):
            theta = rng.uniform(-2, 2, model.n_params)
            want = {kind: oracle(joint, model, theta) for kind, oracle in POPULATION_ORACLES.items()}
            assert all(np.isfinite(v) for v in want.values())
            for kind, form in forms.items():
                value = form(theta).value + offsets[kind]
                assert abs(value - want[kind]) <= 1e-12 * max(1.0, abs(want[kind]))
            gsm, rm = want[ObjectiveKind.GSM_DISCRETE], want[ObjectiveKind.RATIO_MATCHING]
            assert gsm >= 0 and rm >= 0 and abs(gsm - rm) <= 1e-12


@given(seed=st.integers(0, 10_000), shortfall=st.none() | st.sampled_from([0, 1]))
@example(seed=3, shortfall=0)  # Ising, d = 4: N = 16 and 15
@example(seed=3, shortfall=1)
@example(seed=0, shortfall=0)  # Potts star, m = 3, d = 4: N = 81 and 80
@example(seed=0, shortfall=1)
@settings(**SETTINGS)
def test_a_dataset_and_its_empirical_joint_evaluate_alike(seed, shortfall):
    # A Dataset with no more cube states than samples is read as its
    # empirical joint, and one with more through its counted blanket rows; a
    # joint of the same frequencies gives each site's cells as its blanket
    # marginals.  The examples put N on both sides of the switch: m**d
    # (counted) and m**d - 1 (blanket rows); shortfall None draws N < 40.
    rng = np.random.default_rng(seed)
    model, d, m, theta = _random_pairwise(rng)
    n = int(rng.integers(1, 40)) if shortfall is None else m**d - shortfall
    data = discrete_dataset(rng.integers(0, m, (n, d)), m=m)
    counts = np.bincount(data.values @ (m ** np.arange(d - 1, -1, -1)), minlength=m**d)
    joint = discrete_joint(counts.reshape((m,) * d) / data.n)
    kinds = [ObjectiveKind.GSM_DISCRETE, ObjectiveKind.PSEUDO_LIKELIHOOD, ObjectiveKind.EXACT_MLE]
    if m == 2:
        kinds.append(ObjectiveKind.RATIO_MATCHING)
    for kind in kinds:
        a = empirical_objective(model, kind, data)(theta)
        b = empirical_objective(model, kind, joint)(theta)
        assert abs(a.value - b.value) <= 1e-12 * max(1.0, abs(a.value))
        assert np.abs(a.grad_theta - b.grad_theta).max() <= 1e-12 * max(1.0, np.abs(a.grad_theta).max())


def _reference_blanket_design(model, data):
    """The gsm/rm/pl design (D, c) built from T: for each site i and each
    configuration of its neighbours that has weight, in lexicographic order,
    T of the m alternatives minus T of the one with symbol 0 at i, and the
    data's weight on each alternative.  A Dataset with no more cube states
    than samples is read as its empirical joint."""
    m, d = model.alphabet_size, model.dim
    if isinstance(data, Dataset) and m**d <= data.n:
        counts = np.bincount(data.values @ (m ** np.arange(d - 1, -1, -1)), minlength=m**d)
        data = DiscreteJoint(m, d, (counts / data.n).reshape((m,) * d))
    D, c = [], []
    for i in range(d):
        neighbours = sorted({j for e in model.edges if i in e for j in e} - {i})
        blanket = neighbours + [i]
        weights = {}  # in insertion order, which is lexicographic
        if isinstance(data, DiscreteJoint):
            marginal = data.probs.sum(axis=tuple(a for a in range(d) if a not in blanket))
            marginal = np.moveaxis(marginal, sorted(blanket).index(i), -1)
            for config in itertools.product(range(m), repeat=len(neighbours)):
                if marginal[config].any():
                    weights[config] = marginal[config]
        else:
            rows, counts = np.unique(data.values[:, blanket], axis=0, return_counts=True)
            for row, count in zip(rows, counts):
                weights.setdefault(tuple(row[:-1]), np.zeros(m))[row[-1]] = count / data.n
        for config, w in weights.items():
            alternatives = np.zeros((m, d), dtype=int)
            alternatives[:, neighbours] = config
            alternatives[:, i] = np.arange(m)
            T = sufficient_statistics(model, alternatives)
            D.append(T - T[0])
            c.append(w)
    return np.concatenate(D), np.array(c)


def _assert_blanket_designs_are_the_reference(model, data):
    want = _reference_blanket_design(model, data)
    kinds = [ObjectiveKind.PSEUDO_LIKELIHOOD, ObjectiveKind.GSM_DISCRETE]
    if model.alphabet_size == 2:
        kinds.append(ObjectiveKind.RATIO_MATCHING)
    for kind in kinds:
        for got, ref in zip(_discrete_design(model, kind, data), want, strict=True):
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


BLANKET_GRAPHS = {
    **GRAPHS,
    "potts, repeated edge": [(0, 1), (1, 2), (0, 1), (2, 3)],
    "complete d=6": [(i, j) for i in range(6) for j in range(i + 1, 6)],
    "random": None,
}


@given(seed=st.integers(0, 10_000), graph=st.sampled_from(sorted(BLANKET_GRAPHS)),
       m=st.sampled_from([2, 3]), route=st.sampled_from(["joint", "counted", "blanket rows"]))
@example(seed=0, graph="potts, repeated edge", m=2, route="counted")
@example(seed=1, graph="complete d=6", m=3, route="joint")
@settings(**SETTINGS)
def test_blanket_design_is_the_sufficient_statistic_build_byte_for_byte(seed, graph, m, route):
    # Each blanket row is filled from its site's fields and incident edges; D
    # and c must equal, byte for byte, T of each cell's alternatives minus the
    # symbol-0 row and the data's weights, on each route the weights take: a
    # joint with empty cells, a Dataset that is counted into its empirical
    # joint, and one read through its blanket rows.  m = 2 is Ising except
    # where the graph says Potts; the random graph draws its own m and kind.
    rng = np.random.default_rng(seed)
    edges = BLANKET_GRAPHS[graph]
    if edges is None:
        model, d, m, _ = _random_pairwise(rng)
    else:
        d = max(max(e) for e in edges) + 1
        if m == 2 and "potts" not in graph:
            model = ising_model(rng.uniform(-1, 1, d), rng.uniform(-1, 1, len(edges)), edges)
        else:
            model = potts_model(rng.uniform(-1, 1, (d, m)), rng.uniform(-1, 1, len(edges)), edges)
    if route == "joint":
        probs = rng.random((m,) * d) + 0.05
        probs[rng.random(probs.shape) < 0.5] = 0.0
        probs.flat[rng.integers(probs.size)] = 1.0
        data = discrete_joint(probs)
    else:
        n = m**d + int(rng.integers(0, 20)) if route == "counted" else int(rng.integers(1, m**d))
        data = discrete_dataset(rng.integers(0, m, (n, d)), m=m)
    _assert_blanket_designs_are_the_reference(model, data)


def test_blanket_design_of_the_64_leaf_star_is_the_reference():
    # The hub's blanket codes would overflow int64, so its rows are sorted
    # themselves; each leaf's blanket is (hub, leaf).
    rng = np.random.default_rng(8)
    hub = rng.integers(0, 2, (300, 1))
    leaves = np.where(rng.random((300, 64)) < 0.8, hub, 1 - hub)
    edges = [(0, k) for k in range(1, 65)]
    model = ising_model(rng.uniform(-1, 1, 65), rng.uniform(-1, 1, 64), edges)
    _assert_blanket_designs_are_the_reference(model, discrete_dataset(np.hstack([hub, leaves]), 2))


@given(seed=st.integers(0, 10_000), m=st.sampled_from([2, 3]), d=st.integers(2, 3),
       c=st.floats(-5.0, 5.0))
@settings(**SETTINGS)
def test_discrete_objectives_normalization_invariant(seed, m, d, c):
    # Adding c to all of one Potts site's fields adds c to log q~ at every
    # state, which reaches every evaluation.  A partition-free objective must
    # not move, on either route of a fit and in every population oracle, and
    # its gradient must have no component along any site's gauge direction:
    # each field row of the gradient sums to zero.
    rng = np.random.default_rng(seed)
    model = potts_model(np.zeros((d, m)), np.zeros(d - 1))
    theta = rng.uniform(-1, 1, model.n_params)
    site = int(rng.integers(d))
    moved = theta.copy()
    moved[site * m:(site + 1) * m] += c
    gauge_points = (moved, zero_sum_gauge(model, theta))
    truth = model.with_params(theta)
    joint = exact_normalize(truth)

    def assert_same(base, value):
        assert abs(value - base) <= 1e-12 * max(1.0, abs(base))

    kinds = [ObjectiveKind.GSM_DISCRETE, ObjectiveKind.PSEUDO_LIKELIHOOD, ObjectiveKind.EXACT_MLE]
    if m == 2:
        kinds.append(ObjectiveKind.RATIO_MATCHING)
    for data, forms in ((sample(truth, 30, seed), {}), (joint, POPULATION_FORMS)):
        for kind in kinds:
            objective_at = empirical_objective(model, forms.get(kind, kind), data)
            base = objective_at(theta).value
            for point in (theta, *gauge_points):
                out = objective_at(point)
                assert_same(base, out.value)
                grad = out.grad_theta
                row_sums = grad[: d * m].reshape(d, m).sum(axis=1)
                assert np.abs(row_sums).max() <= 1e-12 * max(1.0, np.abs(grad).max())
    for oracle in POPULATION_ORACLES.values():
        base = oracle(joint, model, theta)
        for point in gauge_points:
            assert_same(base, oracle(joint, model, point))


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
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(estimation, "MAX_ITERS", 20)
        for objective in objectives:
            res = fit(model, objective, data)
            model.with_params(res.theta_hat)  # raises outside the domain


@given(seed=st.integers(0, 10_000), d=st.integers(1, 4))
@example(seed=583, d=3)
@example(seed=230, d=3)
@example(seed=471, d=1)
@example(seed=43, d=4)
@settings(**SETTINGS)
def test_gaussian_sm_solve_equals_the_closed_form(seed, d):
    # The normal-equation solve and the moment formula are independent routes
    # to the sm minimizer; scales and offsets vary over two decades.  Most
    # designs drawn here have cond(A) below 1e5 and must agree within 1e-10;
    # a solve is accurate to about cond(A) eps, which bounds the rest (as few
    # as d + 1 samples can make the scatter nearly singular).  At the
    # examples' minimizers the gradient in the (mu, tril Sigma) layout
    # exceeds GRAD_TOL (up to 357 at seed 583) while the normal-equation
    # residual does not, so converged must be judged in eta.
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d)) * 10.0 ** rng.uniform(-1, 1, d)
    mu = rng.standard_normal(d) * 10.0 ** rng.uniform(-1, 1)
    truth = gaussian_model(mu, a @ a.T + 0.01 * np.eye(d))
    data = sample(truth, int(rng.integers(d + 1, 400)), seed)
    model = gaussian_model(np.zeros(d), np.eye(d))
    res = fit(model, ObjectiveKind.SM_CONTINUOUS, data)
    assert res.converged
    ref = closed_form_gaussian_sm(data)
    cond = np.linalg.cond(gaussian_sm_normal_equations(model, data)[0])
    bound = max(1e-10, 10.0 * cond * np.finfo(float).eps)
    assert np.abs(res.theta_hat - ref).max() <= bound * max(1.0, np.abs(ref).max())


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
