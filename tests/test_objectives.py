"""Divergence oracles and estimation objectives, including the hand-derived
closed-form values and the population/empirical relationships."""

import tracemalloc

import numpy as np
import pytest

from scorematch import models, objectives, verify
from scorematch.grids import gaussian_1d, grid_density
from scorematch.models import (
    ParameterDomainError,
    chain_edges,
    discrete_dataset,
    continuous_dataset,
    exact_normalize,
    gaussian_model,
    gaussian_parts,
    gen_gauss_model,
    grad_x_log,
    ising_model,
    laplacian_x_log,
    log_unnorm,
    potts_model,
    sample,
    sufficient_statistics,
)
from scorematch.objectives import (
    GaussianMoments,
    ObjectiveKind,
    SupportError,
    _FactoredCubeStatistics,
    _discrete_design,
    empirical_objective,
    exact_mle_population,
    fisher_exact,
    gaussian_sm_normal_equations,
    gsm_discrete_population,
    kl_exact,
    pseudo_likelihood_population,
    ratio_matching_population,
)
from scorematch.operators import discrete_joint

from cube_helpers import state_cube

SM, GSM, RM, PL, MLE = (ObjectiveKind.SM_CONTINUOUS, ObjectiveKind.GSM_DISCRETE,
                        ObjectiveKind.RATIO_MATCHING, ObjectiveKind.PSEUDO_LIKELIHOOD,
                        ObjectiveKind.EXACT_MLE)

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
    with pytest.raises(ValueError, match="joint shapes do not match"):
        kl_exact(p, discrete_joint(np.full((2, 2), 0.25)))


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


def test_fisher_rejects_q_vanishing_on_the_support_of_p():
    p = gaussian_1d(0.0, 1.0, n=1024)
    q = grid_density(p.axes, np.where(p.axes[0] > 1.0, 0.0, p.values))
    with pytest.raises(SupportError, match="q vanishes on the support of p"):
        fisher_exact(p, q)


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
    at_origin = empirical_objective(model, SM, continuous_dataset([[0.0]]))
    assert at_origin(model.params).value == pytest.approx(-2.0)
    data = continuous_dataset([[1.0], [-1.0]])
    assert empirical_objective(model, SM, data)(model.params).value == pytest.approx(-1.0)


def test_sm_objective_rejects_indefinite_covariance():
    model = gaussian_model([0.0, 0.0], np.eye(2))
    data = sample(model, 10, seed=1)
    with pytest.raises(ParameterDomainError, match="positive definite"):
        empirical_objective(model, SM, data)([0.0, 0.0, 1.0, 0.0, -1.0])  # diag(1, -1)


def test_gaussian_closed_forms_match_generic_definitions():
    # sm: mean |grad_x log q~|^2 + 2 laplacian; mle: -mean log q~ + log Z
    rng = np.random.default_rng(5)
    for d in (1, 2, 4):
        model = gaussian_model(np.zeros(d), np.eye(d))
        data = sample(gaussian_model(rng.standard_normal(d), 1.3 * np.eye(d)), 200, seed=d)
        sm_at, mle_at = (empirical_objective(model, kind, data) for kind in (SM, MLE))
        for _ in range(3):
            a = rng.standard_normal((d, d)) * 0.4
            mod = gaussian_model(rng.standard_normal(d), a @ a.T + 0.5 * np.eye(d))
            g = grad_x_log(mod, data.values)
            sm = np.mean(np.sum(g * g, axis=1) + 2.0 * laplacian_x_log(mod, data.values))
            log_z = 0.5 * (d * np.log(2.0 * np.pi) + np.linalg.slogdet(gaussian_parts(mod)[1])[1])
            mle = -np.mean(log_unnorm(mod, data.values)) + log_z
            assert sm_at(mod.params).value == pytest.approx(sm, rel=1e-12)
            assert mle_at(mod.params).value == pytest.approx(mle, rel=1e-12)


def test_gaussian_sm_normal_equations_reproduce_the_objective():
    # J(eta) = eta' A eta + 2 b' eta at eta = (vech P, P mu) is the sm value at
    # (mu, Sigma = P^-1), on samples and on a Gaussian population's moments.
    rng = np.random.default_rng(11)
    for d in (1, 2, 4):
        model = gaussian_model(np.zeros(d), np.eye(d))
        a = rng.standard_normal((d, d))
        truth = gaussian_model(rng.standard_normal(d), a @ a.T + 0.3 * np.eye(d))
        for data in (sample(truth, 60, seed=d), GaussianMoments(*gaussian_parts(truth))):
            A, b = gaussian_sm_normal_equations(model, data)
            sm_at = empirical_objective(model, SM, data)
            assert A.shape == (d * (d + 3) // 2,) * 2 and np.allclose(A, A.T, rtol=0, atol=1e-12)
            for _ in range(3):
                c = rng.standard_normal((d, d)) * 0.5
                mod = gaussian_model(rng.standard_normal(d), c @ c.T + np.eye(d))
                mu, cov = gaussian_parts(mod)
                P = np.linalg.inv(cov)
                eta = np.concatenate([P[np.tril_indices(d)], P @ mu])
                want = sm_at(mod.params).value
                assert eta @ A @ eta + 2.0 * b @ eta == pytest.approx(want, rel=1e-10, abs=1e-10)


def test_gaussian_sm_normal_equations_share_a_read_only_basis_and_return_fresh_arrays():
    # The E_k of one dimension are built once and cannot be written through;
    # every call still hands back its own A and b, which the caller may write.
    E, neg_trace, (rows, cols) = objectives._vech_basis(3)
    assert objectives._vech_basis(3)[0] is E
    for a in (E, neg_trace, rows, cols):
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = 1
    model = gaussian_model(np.zeros(3), np.eye(3))
    data = sample(gaussian_model([0.5, -1.0, 0.2], np.diag([1.0, 2.0, 0.7])), 80, seed=4)
    A1, b1 = gaussian_sm_normal_equations(model, data)
    A2, b2 = gaussian_sm_normal_equations(model, data)
    assert np.array_equal(A1, A2) and np.array_equal(b1, b2)
    assert A1.flags.writeable and b1.flags.writeable
    assert not np.shares_memory(A1, A2) and not np.shares_memory(b1, b2)
    A1[:] = 0.0
    b1[:] = 0.0
    A3, b3 = gaussian_sm_normal_equations(model, data)
    assert np.array_equal(A3, A2) and np.array_equal(b3, b2)


def test_gaussian_moments_mean_equals_the_axis_mean_on_c_ordered_data():
    # One pass down the rows sums in the order mean(axis=0) does for d >= 2.
    rng = np.random.default_rng(3)
    for d in (2, 3, 4, 7):
        for n in (1, 2, 5, 300, 5000):
            values = rng.standard_normal((n, d)) * rng.uniform(0.1, 10.0, d)
            values += rng.standard_normal(d)
            moments = objectives.gaussian_moments(gaussian_model(np.zeros(d), np.eye(d)),
                                                  continuous_dataset(values))
            assert np.array_equal(moments.mean, values.mean(axis=0))


def test_gaussian_sm_normal_equations_reject_other_models():
    with pytest.raises(ValueError, match="Gaussian"):
        gaussian_sm_normal_equations(gen_gauss_model(1.0), continuous_dataset([[0.0], [1.0]]))
    with pytest.raises(ValueError, match="needs data of shape"):
        gaussian_sm_normal_equations(gaussian_model([0.0], [[1.0]]),
                                     discrete_dataset([[0], [1]], m=2))


def test_sm_objective_rejects_discrete_model():
    model = ising_model([0.0, 0.0], [0.5])
    data = discrete_dataset([[0, 1]], m=2)
    with pytest.raises(ValueError, match="continuous"):
        empirical_objective(model, SM, data)(model.params)


def test_sm_gaussian_gradient_matches_fd():
    from scorematch.estimation import fd_gradient

    rng = np.random.default_rng(8)
    model = gaussian_model(np.zeros(2), np.eye(2))
    data = sample(gaussian_model([0.5, -0.5], [[1.0, 0.2], [0.2, 0.8]]), 100, seed=1)
    sm_at = empirical_objective(model, SM, data)
    for _ in range(5):
        a = rng.standard_normal((2, 2)) * 0.3
        theta = gaussian_model(rng.standard_normal(2), a @ a.T + np.eye(2)).params
        analytic = sm_at(theta).grad_theta
        numeric = fd_gradient(lambda t: sm_at(t).value, theta)
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
    assert empirical_objective(model, GSM, data)(model.params).value == pytest.approx(-1.0, abs=1e-12)


def test_gsm_ternary_uniform_closed_form():
    model = potts_model(np.zeros((2, 3)), [0.0])
    data = discrete_dataset([[0, 2]], m=3)
    # each coordinate: 3 * (1/3)^2 - 2 * (1/3) = 1/3 - 2/3 = -1/3; two coords
    assert empirical_objective(model, GSM, data)(model.params).value == pytest.approx(-2.0 / 3.0, abs=1e-10)


def test_gsm_coupled_ising_single_state_closed_form():
    model = ising_model([0.0, 0.0], [0.5])
    data = discrete_dataset([[1, 1]], m=2)
    # per coordinate, with s = q(1|1) = SIGMOID1 at the observed symbol:
    # s^2 + (1-s)^2 - 2s = 2s^2 - 4s + 1; two coordinates give 4s^2 - 8s + 2,
    # and s = 0.7310586 gives 2.1377866 - 5.8484686 + 2 = -1.7106820
    s = SIGMOID1
    want = 4.0 * s**2 - 8.0 * s + 2.0
    got = empirical_objective(model, GSM, data)(model.params).value
    assert got == pytest.approx(want, abs=1e-10)
    assert got == pytest.approx(-1.710682, abs=1e-6)


def _binary_potts_and_gauge_shift(c):
    """A binary Potts chain and the parameter step that adds c to all of site
    0's fields, which adds c to log q~ at every state."""
    model = potts_model([[0.2, -0.4], [0.1, 0.3]], [0.5])
    return model, np.array([c, c, 0.0, 0.0, 0.0])


def test_gsm_normalization_invariant():
    model, shift = _binary_potts_and_gauge_shift(-4.2)
    data = sample(model, 100, seed=3)
    gsm_at = empirical_objective(model, GSM, data)
    base = gsm_at(model.params).value
    shifted = gsm_at(model.params + shift).value
    assert shifted == pytest.approx(base, abs=1e-12)


def test_gsm_weighted_equals_duplicated_dataset():
    # A joint on the 2x2 cube stands for its states weighted by their
    # probabilities: 3/6, 2/6, 0 and 1/6 on 00, 01, 10 and 11.
    model = ising_model([0.1, 0.3], [0.5])
    joint = discrete_joint(np.array([[3.0, 2.0], [0.0, 1.0]]) / 6.0)
    dup = discrete_dataset([[0, 0]] * 3 + [[0, 1]] * 2 + [[1, 1]], m=2)
    for kind in (GSM, RM, PL, MLE):
        weighted = empirical_objective(model, kind, joint)(model.params)
        plain = empirical_objective(model, kind, dup)(model.params)
        assert weighted.value == pytest.approx(plain.value, abs=1e-12)
        assert np.abs(weighted.grad_theta - plain.grad_theta).max() <= 1e-12


def _per_sample_reference(model, X):
    """pl, gsm and rm as sample means over every sample's singleton
    conditionals, each a softmax of log q~ of the sample with x_i set to each
    symbol: no design, cells or counts."""
    n, d = X.shape
    m = model.alphabet_size
    alternatives = np.repeat(X[:, None, None, :], d * m, axis=1).reshape(n, d, m, d)
    for i in range(d):
        alternatives[:, i, :, i] = np.arange(m)
    logits = log_unnorm(model, alternatives.reshape(-1, d)).reshape(n, d, m)
    q = np.exp(logits - logits.max(axis=2, keepdims=True))
    q /= q.sum(axis=2, keepdims=True)
    observed = np.take_along_axis(q, X[:, :, None], axis=2)[:, :, 0]
    return {PL: np.mean(-np.log(observed).sum(axis=1)),
            GSM: np.mean(((q**2).sum(axis=2) - 2.0 * observed).sum(axis=1)),
            RM: np.mean(((1.0 - observed) ** 2).sum(axis=1))}


@pytest.mark.parametrize("edges", [chain_edges(64), [(0, k) for k in range(1, 65)]],
                         ids=["chain64", "star64"])
def test_pl_gsm_rm_equal_a_per_sample_reference_past_the_cube(edges):
    # 300 samples of 2**64 or 2**65 states: every site's cells come from its
    # counted blanket rows.  The hub of the 64-leaf star has 64 neighbours, so
    # its blanket codes would overflow int64 and its rows are sorted instead.
    rng = np.random.default_rng(len(edges))
    d = max(max(e) for e in edges) + 1
    model = ising_model(rng.uniform(-1, 1, d), rng.uniform(-1, 1, len(edges)), edges)
    X = rng.integers(0, 2, (300, d))
    want = _per_sample_reference(model, X)
    for kind in (PL, GSM, RM):
        got = empirical_objective(model, kind, discrete_dataset(X, 2))(model.params).value
        assert got == pytest.approx(want[kind], rel=1e-12)


@pytest.mark.parametrize("kind, m, d, edges", [
    ("ising", 2, 4, chain_edges(4)),
    ("potts", 3, 4, [(0, 1), (0, 2), (0, 3)]),
    ("ising", 2, 4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    ("potts", 2, 4, [(0, 1), (1, 2), (0, 1), (2, 3)]),
    ("potts", 3, 6, [(i, j) for i in range(6) for j in range(i + 1, 6)]),
    ("potts", 17, 2, chain_edges(2)),
    ("potts", 257, 1, chain_edges(1)),
], ids=["chain", "star", "4-cycle", "potts, repeated edge", "complete d=6", "m=17", "m=257"])
def test_mle_design_is_the_statistics_of_the_state_cube(kind, m, d, edges):
    # The mle design is T of the state cube, dense or factored at a split of
    # the sites; at every split point the operator's columns must equal T of
    # the cube's rows bit for bit, and its two products the dense ones.  The
    # rows are uint8 up to m = 256 and uint16 at m = 257.
    rng = np.random.default_rng(m * d)
    if kind == "ising":
        model = ising_model(rng.uniform(-1, 1, d), rng.uniform(-1, 1, len(edges)), edges)
    else:
        model = potts_model(rng.uniform(-1, 1, (d, m)), rng.uniform(-1, 1, len(edges)), edges)
    want = sufficient_statistics(model, state_cube(m, d))
    x, y = rng.standard_normal(model.n_params), rng.standard_normal(m**d)
    for s in range(d + 1):
        D = _FactoredCubeStatistics(model, s)
        columns = np.column_stack([D @ e for e in np.eye(model.n_params)])
        assert columns.tobytes() == want.tobytes(), s
        for got, ref in ((D @ x, want @ x), (y @ D, y @ want)):
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max(), s
    # Whichever route the data's weights take, the design's D is T and its c
    # the weights on the cube.
    joint = exact_normalize(model)
    data = sample(model, 500, seed=m)
    counts = np.bincount(np.ravel_multi_index(data.values.T, (m,) * d), minlength=m**d)
    for source, weights in ((joint, joint.probs.ravel()), (data, counts / data.n)):
        D, c = _discrete_design(model, MLE, source)
        assert np.column_stack([D @ e for e in np.eye(model.n_params)]).tobytes() == want.tobytes()
        assert np.array_equal(c, weights[None, :])


def test_mle_design_factors_where_its_halves_are_smaller_than_the_cube():
    # The d = 4 chain's half cubes hold (4 + 4) * 7 > 16 numbers, so it keeps
    # the dense T; the d = 12 chain's hold (64 + 64) * 23 < 4096.
    for d, factored in ((4, False), (12, True)):
        model = ising_model(np.zeros(d), np.zeros(d - 1))
        D, _ = _discrete_design(model, MLE, exact_normalize(model))
        assert isinstance(D, _FactoredCubeStatistics) is factored, d


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("d", [4, 20])
def test_pl_design_holds_the_codes_and_little_else(d):
    # 5e4 binary rows: at d = 4 their 16 states are counted into the empirical
    # joint, at d = 20 each site's blanket codes are sorted in place.  Either
    # holds the N int64 codes and the design, nothing else the size of the
    # data; a copy of the codes or of the rows would add N * 8 bytes or more.
    n = 50_000
    model = ising_model(np.zeros(d), np.zeros(d - 1))
    data = discrete_dataset(np.random.default_rng(5).integers(0, 2, (n, d)), 2)
    (D, c), peak = _peak_bytes(_discrete_design, model, PL, data)
    assert peak <= 1.25 * n * 8 + D.nbytes + c.nbytes


def test_dense_graph_pl_design_is_filled_in_place():
    # On a complete d = 10 graph each blanket row has 10 non-zero columns of
    # 55.  Its design is allocated once and filled site by site; T rows of the
    # alternatives would add a second D-sized array.  At J = 0 all 512
    # configurations of each site's 9 neighbours occur in 2e4 samples.
    n, d = 20_000, 10
    edges = [(i, j) for i in range(d) for j in range(i + 1, d)]
    model = ising_model(np.zeros(d), np.zeros(len(edges)), edges)
    data = sample(model, n, seed=6)
    (D, c), peak = _peak_bytes(_discrete_design, model, PL, data)
    assert D.shape == (d * 2**(d - 1) * 2, d + len(edges))
    assert peak <= D.nbytes + 2 * c.nbytes + 1.25 * n * 8


def test_mle_design_holds_little_beside_the_cube_statistics():
    # The d = 12 chain on 5e4 samples holds the N int64 state codes while it
    # counts them and then T of two 64-state half cubes: a dense T of the
    # 4096-state cube (0.72 MiB) would not fit beside the codes.  On the
    # d = 16 chain's joint the design holds nothing the size of the cube.
    n = 50_000
    model = ising_model(np.full(12, 0.1), np.full(11, 0.5))
    _, peak = _peak_bytes(_discrete_design, model, MLE, sample(model, n, seed=5))
    assert peak <= n * 8 + 0.25 * 2**20
    model = ising_model(np.full(16, 0.1), np.full(15, 0.5))
    _, peak = _peak_bytes(_discrete_design, model, MLE, exact_normalize(model))
    assert peak <= 2 * 2**16 * 8 + 0.25 * 2**20


def test_mle_evaluation_holds_a_few_cube_tables():
    # On the d = 18 chain one (2,)*18 float64 table is 2 MiB, and a dense T of
    # the cube 70 MiB.  Building the objective, one evaluation and one
    # curvature product hold a few tables: the logits, the softmax, the
    # gradient's weights and the product's.
    model = ising_model(np.full(18, 0.1), np.full(17, 0.5))
    joint = exact_normalize(model)

    def evaluate_and_multiply():
        value = empirical_objective(model, MLE, joint)(model.params)
        return value.curvature(np.ones(model.n_params))

    _, peak = _peak_bytes(evaluate_and_multiply)
    assert peak <= 8 * 2**18 * 8


def test_enumerations_hold_a_few_cube_tables():
    # On the d = 18 chain one (2,)*18 float64 table is 2 MiB.  log q~ is summed
    # into one table on the cube's open axes; the cube's states (4.5 MiB) and a
    # float spin matrix of them (36 MiB) would take many tables more.
    model = ising_model(np.full(18, 0.1), np.full(17, 0.5))
    table = 2**18 * 8
    joint, peak = _peak_bytes(exact_normalize, model)
    assert peak <= 2 * table
    for oracle in (pseudo_likelihood_population, exact_mle_population):
        _, peak = _peak_bytes(oracle, joint, model, model.params)
        assert peak <= 4 * table, oracle.__name__


def test_enumerations_build_no_state_cube(monkeypatch):
    # exact_normalize, sample and the oracles read log q~ on the cube's open
    # axes: no dense array of indices, and no T of the cube.
    def dense_indices(shape, dtype=int, sparse=False):
        if not sparse:
            raise AssertionError(f"built the dense {shape} indices")
        return indices(shape, dtype, sparse)

    def refuse(*args):
        raise AssertionError("built T of the state cube")

    indices = np.indices
    monkeypatch.setattr(np, "indices", dense_indices)
    monkeypatch.setattr(models, "_site_pattern_statistics", refuse)
    monkeypatch.setattr(objectives, "_site_pattern_statistics", refuse)
    star = [(0, 1), (0, 2), (0, 3)]
    for model in (ising_model([0.2, -0.1, 0.0, 0.3], [0.5, 0.5, -0.4]),
                  potts_model(np.linspace(-0.5, 0.5, 12).reshape(4, 3), [0.6, -0.4, 0.5], star)):
        joint = exact_normalize(model)
        sample(model, 10, seed=1)
        for oracle in (gsm_discrete_population, ratio_matching_population,
                       pseudo_likelihood_population, exact_mle_population):
            oracle(joint, model, model.params)


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
    assert empirical_objective(model, RM, data)(model.params).value == pytest.approx(0.5, abs=1e-12)


def test_rm_ternary_uniform_closed_form():
    model = potts_model(np.zeros((2, 3)), [0.0])
    data = discrete_dataset([[1, 1]], m=3)
    # ratio matching is binary only: at m = 3 the observed-symbol form is not
    # a theta-independent constant away from its population divergence
    with pytest.raises(ValueError, match="binary"):
        empirical_objective(model, RM, data)(model.params)


def test_rm_deterministic_conditional_limit():
    # strong fields concentrate every conditional on symbol 1, so q(1|.) -> 1
    # and q(0|.) -> 0.  Observing [1, 1] gives 2 * (1 - 1)^2 -> 0; observing
    # [0, 0] gives 2 * (1 - 0)^2 -> 2.  The value depends on the observed symbol.
    model = ising_model([20.0, 20.0], [0.0])
    ones = discrete_dataset([[1, 1]], m=2)
    zeros = discrete_dataset([[0, 0]], m=2)
    assert empirical_objective(model, RM, ones)(model.params).value == pytest.approx(0.0, abs=1e-6)
    assert empirical_objective(model, RM, zeros)(model.params).value == pytest.approx(2.0, abs=1e-6)


def test_rm_normalization_invariant():
    model, shift = _binary_potts_and_gauge_shift(2.5)
    data = sample(model, 100, seed=5)
    rm_at = empirical_objective(model, RM, data)
    base = rm_at(model.params).value
    shifted = rm_at(model.params + shift).value
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
    assert empirical_objective(model, PL, data)(model.params).value == pytest.approx(
        2.0 * np.log(2.0), abs=1e-12
    )


def test_pl_coupled_ising_single_state_closed_form():
    model = ising_model([0.0, 0.0], [0.5])
    data = discrete_dataset([[1, 1]], m=2)
    want = -2.0 * np.log(SIGMOID1)
    got = empirical_objective(model, PL, data)(model.params).value
    assert got == pytest.approx(want, abs=1e-12)
    assert got == pytest.approx(0.626523, abs=1e-6)


def test_pl_deterministic_conditionals_approach_zero():
    model = ising_model([30.0, 30.0], [0.0])
    data = discrete_dataset([[1, 1]], m=2)
    assert empirical_objective(model, PL, data)(model.params).value == pytest.approx(0.0, abs=1e-10)


def test_pl_normalization_invariant():
    model, shift = _binary_potts_and_gauge_shift(-1.1)
    data = sample(model, 100, seed=6)
    pl_at = empirical_objective(model, PL, data)
    base = pl_at(model.params).value
    shifted = pl_at(model.params + shift).value
    assert shifted == pytest.approx(base, abs=1e-12)


# ---------------------------------------------------------------------------
# Exact MLE

def test_mle_binary_uniform_closed_form():
    model = ising_model([0.0, 0.0], [0.0])
    data = discrete_dataset([[1, 0]], m=2)
    assert empirical_objective(model, MLE, data)(model.params).value == pytest.approx(
        np.log(4.0), abs=1e-12
    )


def test_mle_on_a_loopy_ising_model_matches_the_oracle_and_fd():
    # On a 6-cycle the cube's statistics must carry the closing edge too. A
    # dataset is compared with the oracle on its empirical joint.
    from scorematch.estimation import fd_gradient

    rng = np.random.default_rng(12)
    edges = [(i, i + 1) for i in range(5)] + [(0, 5)]
    truth = ising_model(rng.uniform(-0.5, 0.5, 6), rng.uniform(-1.0, 1.0, 6), edges)
    data = sample(truth, 400, seed=3)
    counts = np.zeros((2,) * 6)
    np.add.at(counts, tuple(data.values.T), 1.0)
    for observed, joint in ((data, discrete_joint(counts / counts.sum())),
                            (exact_normalize(truth),) * 2):
        mle_at = empirical_objective(truth, MLE, observed)
        for _ in range(3):
            theta = rng.uniform(-1.0, 1.0, truth.n_params)
            got = mle_at(theta)
            want = exact_mle_population(joint, truth, theta)
            assert got.value == pytest.approx(want, rel=1e-12)
            numeric = fd_gradient(lambda t: exact_mle_population(joint, truth, t), theta)
            assert np.abs(got.grad_theta - numeric).max() <= 1e-6 * max(1.0, np.abs(numeric).max())


def test_mle_gaussian_minimized_at_sample_moments():
    from scorematch.estimation import fd_gradient, closed_form_gaussian_sm

    data = sample(gaussian_model([0.5], [[2.0]]), 500, seed=7)
    theta_ml = closed_form_gaussian_sm(data)
    model = gaussian_model([0.0], [[1.0]])
    mle_at = empirical_objective(model, MLE, data)
    g = fd_gradient(lambda t: mle_at(t).value, theta_ml)
    assert np.abs(g).max() < 1e-8
    assert np.abs(mle_at(theta_ml).grad_theta).max() < 1e-12


def test_mle_gaussian_gradient_matches_fd():
    from scorematch.estimation import fd_gradient

    rng = np.random.default_rng(8)
    model = gaussian_model(np.zeros(3), np.eye(3))
    data = sample(gaussian_model([0.5, -0.5, 0.0], np.diag([1.0, 0.8, 1.5])), 100, seed=1)
    mle_at = empirical_objective(model, MLE, data)
    for _ in range(5):
        a = rng.standard_normal((3, 3)) * 0.3
        theta = gaussian_model(rng.standard_normal(3), a @ a.T + np.eye(3)).params
        exact = mle_at(theta).grad_theta
        numeric = fd_gradient(lambda t: mle_at(t).value, theta)
        assert np.abs(exact - numeric).max() / max(1.0, np.abs(numeric).max()) < 1e-6


def test_mle_gaussian_rejects_non_pd_covariance_as_domain_error():
    model = gaussian_model([0.0, 0.0], np.eye(2))
    data = sample(model, 10, seed=1)
    # indefinite, and negative definite with a positive determinant
    for cov_tril in ([1.0, 2.0, 1.0], [-1.0, 0.0, -1.0]):
        with pytest.raises(ParameterDomainError, match="positive definite"):
            empirical_objective(model, MLE, data)([0.0, 0.0] + cov_tril)


def test_mle_population_is_cross_entropy():
    model = ising_model([0.2, -0.1], [0.5])
    p = exact_normalize(model)
    # at truth the cross entropy equals the entropy of p
    want = float(-(p.probs * np.log(p.probs)).sum())
    assert exact_mle_population(p, model, model.params) == pytest.approx(want, abs=1e-12)


def test_pl_population_minimized_at_truth():
    from scorematch.estimation import fd_gradient

    model = ising_model([0.2, -0.1, 0.3], [0.5, -0.4])
    p = exact_normalize(model)
    g = fd_gradient(lambda t: pseudo_likelihood_population(p, model, t), model.params)
    assert np.abs(g).max() < 1e-8


# ---------------------------------------------------------------------------
# Extreme logits: conditionals that underflow or nearly do

# A d=4 chain at couplings of 400, where the smallest conditionals underflow
# to 0, and near 10, where the smallest lies between 1e-300 and 1e-12.  The
# data are desk-ising4's joint (couplings 0.5).
EXTREME_THETAS = {
    "couplings 400": np.array([0.0, 0.0, 0.0, 0.0, 400.0, -400.0, 400.0]),
    "couplings near 10": np.array([0.3, -0.2, 0.1, 0.0, 10.0, -9.5, 10.5]),
}


@pytest.mark.parametrize("theta", list(EXTREME_THETAS.values()), ids=list(EXTREME_THETAS))
def test_discrete_objectives_are_exact_at_extreme_logits(theta):
    from scorematch.estimation import fd_gradient

    model = ising_model(np.zeros(4), np.zeros(3))
    p = exact_normalize(ising_model(np.zeros(4), np.full(3, 0.5)))
    if theta[4] < 100:
        q = exact_normalize(model.with_params(theta)).probs
        smallest = min((q / q.sum(axis=i, keepdims=True)).min() for i in range(4))
        assert 1e-300 < smallest < 1e-12
    forms = {kind: empirical_objective(model, kind, p) for kind in (PL, GSM, RM, MLE)}
    for kind, form in forms.items():
        out = form(theta)
        assert np.isfinite(out.value) and np.all(np.isfinite(out.grad_theta)), kind
        numeric = fd_gradient(lambda t: form(t).value, theta)
        scale = max(1.0, np.abs(numeric).max())
        assert np.abs(out.grad_theta - numeric).max() <= 1e-6 * scale, kind
    # pl and mle are their oracles' own sums; rm's divergence is gsm's.
    assert pseudo_likelihood_population(p, model, theta) == pytest.approx(
        forms[PL](theta).value, rel=1e-12, abs=0)
    assert exact_mle_population(p, model, theta) == pytest.approx(
        forms[MLE](theta).value, rel=1e-12, abs=0)
    assert ratio_matching_population(p, model, theta) == pytest.approx(
        gsm_discrete_population(p, model, theta), rel=1e-12, abs=0)


# ---------------------------------------------------------------------------
# Misc contracts

def test_objective_kind_tags():
    assert {k.value for k in ObjectiveKind} == {"sm", "gsm", "rm", "pl", "mle"}


def test_discrete_objectives_reject_mismatched_data():
    model = ising_model([0.0, 0.0], [0.5])
    gauss = gaussian_model([0.0, 0.0], np.eye(2))
    bad = discrete_dataset([[0, 1, 0]], m=2)
    wide_joint = discrete_joint(np.full((2, 2, 2), 0.125))
    ternary_joint = discrete_joint(np.full((3, 3), 1.0 / 9.0))
    square_joint = discrete_joint(np.full((2, 2), 0.25))
    for kind in (GSM, RM, PL, MLE):
        for data in (bad, wide_joint, ternary_joint):
            with pytest.raises(ValueError):
                empirical_objective(model, kind, data)(model.params)
        # a joint with a continuous model is a ValueError, not an AttributeError
        with pytest.raises(ValueError):
            empirical_objective(gauss, kind, square_joint)(gauss.params)


def test_population_objectives_reject_shape_mismatch():
    model = ising_model([0.0, 0.0], [0.5])
    p = discrete_joint(np.full((2, 2, 2), 0.125))
    for fn in (gsm_discrete_population, ratio_matching_population,
               pseudo_likelihood_population, exact_mle_population):
        with pytest.raises(ValueError, match="shape"):
            fn(p, model, model.params)


def test_gradcheck_suite_passes():
    # Exact gradients of every empirical objective and every population form
    # against central differences of the value, or of the enumeration oracle,
    # and the curvature products, mle's among them, against central
    # differences of the gradient.
    checks = verify.run_suite("gradcheck")
    assert len(checks) == 34
    assert all(c.passed for c in checks), [f"{c.name}: {c.residual:.3e}"
                                           for c in checks if not c.passed]
