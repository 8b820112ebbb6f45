"""Model families: log densities, analytic derivatives, conditionals, exact
normalizers, samplers, and the file formats."""

import re
import warnings

import numpy as np
import pytest

from scorematch.models import (
    Dataset,
    ModelKind,
    ParameterDomainError,
    continuous_dataset,
    dataset_to_csv,
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
    read_dataset_csv,
    sample,
    sufficient_statistics,
    zero_sum_gauge,
)
from scorematch.objectives import ObjectiveKind, _discrete_design, _row_softmax

from cube_helpers import state_cube

E = np.e


# ---------------------------------------------------------------------------
# log_unnorm

def test_log_unnorm_gaussian_at_origin():
    model = gaussian_model([0.0], [[1.0]])
    assert log_unnorm(model, [0.0]) == 0.0


def test_log_unnorm_ising_hand_values():
    model = ising_model([0.0, 0.0], [0.5])
    assert log_unnorm(model, [1, 1]) == pytest.approx(0.5)  # spins (+1, +1)
    assert log_unnorm(model, [1, 0]) == pytest.approx(-0.5)  # spins (+1, -1)
    assert log_unnorm(model, [0, 0]) == pytest.approx(0.5)  # spins (-1, -1)


def test_log_unnorm_batch_matches_pointwise():
    model = ising_model([0.3, -0.2, 0.1], [0.5, -0.4])
    states = np.array([[0, 1, 0], [1, 1, 1], [0, 0, 1]])
    batch = log_unnorm(model, states)
    for row, val in zip(states, batch):
        assert log_unnorm(model, row) == pytest.approx(val)


def test_log_unnorm_rejects_bad_symbols_and_dimension():
    model = ising_model([0.0, 0.0], [0.5])
    for check in (log_unnorm, sufficient_statistics):
        for bad in ([0, 2], [-1, 0], np.array([0, 2], dtype=np.uint8), [1.0, 2.0]):
            with pytest.raises(ValueError, match=r"symbols must lie in 0\.\.1"):
                check(model, bad)
        with pytest.raises(ValueError, match="must be integer symbols"):
            check(model, [0.5, 0.0])
        with pytest.raises(ValueError, match="dimension"):
            check(model, [0, 0, 0])


def test_integer_points_of_any_dtype_give_the_same_statistics():
    # Integer points are used as they are, not converted to int64.
    model = potts_model([[0.5, -0.25, 0.0], [0.75, 0.0, -1.5], [0.0, 0.125, 0.25]],
                        [0.75, -0.5, 0.25], [(0, 1), (1, 2), (0, 2)])
    X = state_cube(3, 3).astype(np.int64)
    for dtype in (np.int32, np.uint8, float):
        assert np.array_equal(sufficient_statistics(model, X.astype(dtype)),
                              sufficient_statistics(model, X))
        assert np.array_equal(log_unnorm(model, X.astype(dtype)), log_unnorm(model, X))


def _gauge_moved(model, site, c):
    """The Potts model with c added to all of one site's fields."""
    theta = model.params.copy()
    m = model.alphabet_size
    theta[site * m:(site + 1) * m] += c
    return model.with_params(theta)


def test_potts_gauge_shift_adds_constant():
    # Dyadic parameters keep every sum exact, so the move is c bit for bit.
    model = potts_model([[0.5, -0.25, 0.0], [0.75, 0.0, -1.5], [0.0, 0.125, 0.25]], [0.75, -0.5])
    states = state_cube(3, 3)
    moved = log_unnorm(_gauge_moved(model, 1, 3.0), states) - log_unnorm(model, states)
    assert np.all(moved == 3.0)


# ---------------------------------------------------------------------------
# Analytic derivatives

def test_gaussian_derivatives_hand_values():
    model = gaussian_model([0.0], [[1.0]])
    assert grad_x_log(model, [2.0])[0] == pytest.approx(-2.0)
    assert laplacian_x_log(model, [2.0]) == pytest.approx(-1.0)


def test_gaussian_gradient_vanishes_at_mode():
    model = gaussian_model([1.0], [[1.0]])
    assert grad_x_log(model, [1.0])[0] == pytest.approx(0.0)


def test_gen_gauss_gradient_vanishes_at_origin():
    model = gen_gauss_model(1.0)
    assert grad_x_log(model, [0.0])[0] == pytest.approx(0.0)


def test_derivatives_reject_discrete_models():
    model = ising_model([0.0, 0.0], [0.5])
    with pytest.raises(ValueError, match="not a continuous"):
        grad_x_log(model, [0, 0])
    with pytest.raises(ValueError, match="not a continuous"):
        laplacian_x_log(model, [0, 0])


def _fd_grad(model, x, h=1e-4):
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    for k in range(x.size):
        hi, lo = x.copy(), x.copy()
        hi[k] += h
        lo[k] -= h
        out[k] = (log_unnorm(model, hi) - log_unnorm(model, lo)) / (2 * h)
    return out


def _fd_lap(model, x, h=1e-4):
    x = np.asarray(x, dtype=float)
    f0 = log_unnorm(model, x)
    total = 0.0
    for k in range(x.size):
        hi, lo = x.copy(), x.copy()
        hi[k] += h
        lo[k] -= h
        total += (log_unnorm(model, hi) - 2 * f0 + log_unnorm(model, lo)) / h**2
    return total


def test_derivative_consistency_gaussian():
    rng = np.random.default_rng(17)
    for _ in range(100):
        d = int(rng.integers(1, 4))
        a = rng.standard_normal((d, d)) * 0.4
        model = gaussian_model(rng.standard_normal(d), a @ a.T + np.eye(d))
        # unit-scale draws: the second-difference at step 1e-4 loses ~1e-8 of
        # |log q~| to roundoff, so large quadratic values would swamp 1e-6
        x = rng.standard_normal(d)
        g = grad_x_log(model, x)
        lap = laplacian_x_log(model, x)
        scale = max(1.0, np.abs(g).max())
        assert np.abs(g - _fd_grad(model, x)).max() / scale < 1e-6
        assert abs(lap - _fd_lap(model, x)) / max(1.0, abs(lap)) < 1e-6


def test_derivative_consistency_gen_gauss():
    rng = np.random.default_rng(19)
    for _ in range(100):
        model = gen_gauss_model(float(rng.uniform(1.0, 3.0)))
        # away from the smoothed kink at the origin, where the finite
        # difference at step 1e-4 is itself accurate
        x = np.array([float(rng.uniform(0.2, 3.0) * rng.choice([-1, 1]))])
        g = grad_x_log(model, x)[0]
        lap = laplacian_x_log(model, x)
        assert abs(g - _fd_grad(model, x)[0]) / max(1.0, abs(g)) < 1e-6
        assert abs(lap - _fd_lap(model, x)) / max(1.0, abs(lap)) < 1e-6


# ---------------------------------------------------------------------------
# Singleton conditionals

def _conditional(model, x, i):
    """q(. | x^{\\i}) for one state: the row softmax of site i's cell in the
    pl design of a dataset that holds only x, one cell per site in site
    order."""
    D, c = _discrete_design(model, ObjectiveKind.PSEUDO_LIKELIHOOD,
                            discrete_dataset([x], model.alphabet_size))
    return _row_softmax(model, D, c)[2][i]


def test_singleton_conditional_uniform_ising():
    model = ising_model([0.0, 0.0], [0.0])
    assert np.allclose(_conditional(model, [0, 1], 0), [0.5, 0.5])


def test_singleton_conditional_coupled_ising_hand_value():
    model = ising_model([0.0, 0.0], [0.5])
    cond = _conditional(model, [0, 1], 0)  # neighbor spin +1
    assert cond[1] == pytest.approx(1.0 / (1.0 + np.exp(-1.0)), abs=1e-12)
    assert cond.sum() == pytest.approx(1.0)


def test_singleton_conditional_uniform_potts():
    model = potts_model(np.zeros((2, 3)), [0.0])
    assert np.allclose(_conditional(model, [0, 2], 1), 1.0 / 3.0)


def test_singleton_conditional_matches_enumeration_marginal_ratio():
    rng = np.random.default_rng(23)
    star = [(0, 1), (0, 2), (0, 3)]
    models = [ising_model(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 2)) for _ in range(10)]
    models += [ising_model(rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 3), star) for _ in range(5)]
    models += [potts_model(rng.uniform(-1, 1, (3, 3)), rng.uniform(-1, 1, 2)) for _ in range(5)]
    models += [
        potts_model(rng.uniform(-1, 1, (4, 3)), rng.uniform(-1, 1, 3), star) for _ in range(5)
    ]
    for model in models:
        d = model.dim
        joint = exact_normalize(model)
        x = rng.integers(0, model.alphabet_size, d)
        for i in range(d):
            idx = tuple(slice(None) if j == i else int(x[j]) for j in range(d))
            col = joint.probs[idx]
            want = col / col.sum()
            got = _conditional(model, x, i)
            assert np.abs(got - want).max() < 1e-12


# ---------------------------------------------------------------------------
# Exact normalization

def test_exact_normalize_uniform_ising():
    joint = exact_normalize(ising_model([0.0, 0.0], [0.0]))
    assert np.allclose(joint.probs, 0.25)


def test_exact_normalize_coupled_ising_hand_values():
    joint = exact_normalize(ising_model([0.0, 0.0], [0.5]))
    z = 2 * np.exp(0.5) + 2 * np.exp(-0.5)
    assert joint.probs[1, 1] == pytest.approx(np.exp(0.5) / z, abs=1e-12)
    assert joint.probs[1, 1] == pytest.approx(0.365529, abs=1e-6)
    assert joint.probs[0, 1] == pytest.approx(np.exp(-0.5) / z, abs=1e-12)
    assert joint.probs.sum() == pytest.approx(1.0, abs=1e-10)


def test_exact_normalize_gaussian_grid_matches_pdf():
    grid = exact_normalize(gaussian_model([0.0], [[1.0]]), n=4096)  # default_box: -8..8
    x = grid.axes[0]
    ref = np.exp(-(x**2) / 2.0) / np.sqrt(2 * np.pi)
    assert np.abs(grid.values - ref).max() < 1e-6
    # 4096 points is the 1-D default.
    assert np.array_equal(exact_normalize(gaussian_model([0.0], [[1.0]])).values, grid.values)


def test_exact_normalize_2d_gaussian_grid_matches_pdf():
    # The 2-D quadrature route: n points per axis of the shared default_box,
    # sampled through grids.from_function's meshgrid and normalized.
    mu, cov = np.array([0.5, -1.0]), np.array([[1.0, 0.3], [0.3, 2.0]])
    grid = exact_normalize(gaussian_model(mu, cov), n=256)
    lo, hi = -1.0 - 8.0 * np.sqrt(2.0), 0.5 + 8.0 * np.sqrt(2.0)
    assert grid.box == ((lo, hi), (lo, hi)) and grid.shape == (256, 256)
    xx, yy = np.meshgrid(*grid.axes, indexing="ij")
    r = np.stack([xx - mu[0], yy - mu[1]], axis=-1)
    quad_form = np.einsum("...i,ij,...j->...", r, np.linalg.inv(cov), r)
    ref = np.exp(-quad_form / 2.0) / (2.0 * np.pi * np.sqrt(np.linalg.det(cov)))
    assert np.abs(grid.values - ref).max() <= 1e-12 * ref.max()
    # 256 points per axis is the 2-D default.
    assert np.array_equal(exact_normalize(gaussian_model(mu, cov)).values, grid.values)


def test_exact_normalize_rejects_huge_state_space():
    with pytest.raises(ValueError, match="too large"):
        exact_normalize(potts_model(np.zeros((20, 8)), np.zeros(19)))


def test_exact_normalize_shift_invariant():
    model = potts_model([[0.2, -0.1, 0.4], [0.0, 0.3, -0.2]], [0.5])
    a = exact_normalize(model)
    b = exact_normalize(_gauge_moved(model, 0, 3.0))
    assert np.abs(a.probs - b.probs).max() < 1e-14


def test_zero_sum_gauge_centres_potts_fields_and_keeps_others():
    potts = potts_model([[0.5, 0.0, -0.2], [0.3, 0.3, 0.0]], [0.4])
    gauged = zero_sum_gauge(potts, potts.params)
    assert np.abs(gauged[:6].reshape(2, 3).sum(axis=1)).max() <= 1e-15
    assert gauged[6] == 0.4
    assert np.abs(exact_normalize(potts.with_params(gauged)).probs
                  - exact_normalize(potts).probs).max() <= 1e-15
    assert potts.params[0] == 0.5  # the input is not modified
    ising = ising_model([0.1, -0.3], [0.5])
    assert zero_sum_gauge(ising, ising.params) is ising.params


# ---------------------------------------------------------------------------
# Sampling

def test_sample_uniform_ising_frequencies():
    model = ising_model([0.0, 0.0], [0.0])
    data = sample(model, 400_000, seed=42)
    for state in range(4):
        flat = data.values[:, 0] * 2 + data.values[:, 1]
        freq = np.mean(flat == state)
        assert abs(freq - 0.25) < 0.005


def test_sample_discrete_chi_square_sanity():
    model = ising_model([0.3, -0.2], [0.5])
    joint = exact_normalize(model)
    n = 100_000
    data = sample(model, n, seed=7)
    flat = data.values[:, 0] * 2 + data.values[:, 1]
    counts = np.bincount(flat, minlength=4)
    expected = joint.probs.ravel() * n
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    # 3 degrees of freedom; 16.3 is the 0.1% tail
    assert chi2 < 16.3


def test_sample_gaussian_moments():
    data = sample(gaussian_model([0.0], [[1.0]]), 100_000, seed=3)
    assert abs(data.values.mean()) < 0.02
    assert abs(data.values.var() - 1.0) < 0.02


def test_sample_single_point_deterministic():
    model = gaussian_model([0.0, 0.0], np.eye(2))
    a = sample(model, 1, seed=5)
    b = sample(model, 1, seed=5)
    assert a.n == 1
    assert np.array_equal(a.values, b.values)


def test_sample_reproducible_per_seed():
    model = ising_model([0.0, 0.0, 0.0], [0.5, 0.5])
    a = sample(model, 500, seed=11)
    b = sample(model, 500, seed=11)
    c = sample(model, 500, seed=12)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_sample_gen_gauss_alpha2_matches_gaussian_moments():
    # alpha = 2 is (up to the eps smoothing) a N(0, 1/2) density.
    data = sample(gen_gauss_model(2.0), 100_000, seed=9)
    assert abs(data.values.var() - 0.5) < 0.01


# ---------------------------------------------------------------------------
# Constructors and validation

def test_gaussian_model_rejects_non_pd():
    with pytest.raises(np.linalg.LinAlgError):
        gaussian_model([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(ValueError, match="symmetric"):
        gaussian_model([0.0, 0.0], [[1.0, 0.5], [0.2, 1.0]])


def test_ising_model_validates_edges_and_couplings():
    with pytest.raises(ValueError, match="one coupling per edge"):
        ising_model([0.0, 0.0], [0.5, 0.5])
    with pytest.raises(ValueError, match="bad edge"):
        ising_model([0.0, 0.0], [0.5], edges=[(1, 0)])


def test_potts_model_validates_edges():
    with pytest.raises(ValueError, match="bad edge"):
        potts_model(np.zeros((3, 2)), [0.5], edges=[(1, 1)])
    with pytest.raises(ValueError, match="bad edge"):
        potts_model(np.zeros((3, 2)), [0.5], edges=[(0, 3)])


def test_gen_gauss_model_rejects_nonpositive_alpha():
    with pytest.raises(ValueError):
        gen_gauss_model(0.0)
    for alpha in (0.0, -0.3):
        with pytest.raises(ParameterDomainError):
            gen_gauss_model(1.0).with_params([alpha])


def test_with_params_validates_shape_and_finiteness():
    model = ising_model([0.0, 0.0], [0.5])
    with pytest.raises(ValueError, match="length"):
        model.with_params([1.0, 2.0])
    with pytest.raises(ValueError, match="finite"):
        model.with_params([np.nan, 0.0, 0.0])


def test_dataset_validation():
    with pytest.raises(ValueError):
        discrete_dataset([[0, 3]], m=2)
    data = continuous_dataset([[1.0, 2.0]])
    assert isinstance(data, Dataset)
    assert data.n == 1 and data.dim == 2


def test_discrete_dataset_rejects_a_symbol_beyond_the_integer_range_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for value in (1e20, -1e20):
            with pytest.raises(ValueError, match="discrete entries must lie in 0..1"):
                discrete_dataset([[0.0, 1.0], [1.0, value]], m=2)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_datasets_reject_values_that_are_not_finite(value):
    # A NaN symbol would otherwise reach the integer cast (a RuntimeWarning)
    # and be reported as out of range.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for build in (continuous_dataset, lambda v: discrete_dataset(v, m=2)):
            with pytest.raises(ValueError, match="dataset values must be finite numbers"):
                build([[0.0, 1.0], [1.0, value]])


# ---------------------------------------------------------------------------
# File formats

def test_dataset_csv_round_trip_continuous(tmp_path):
    data = sample(gaussian_model([0.5], [[2.0]]), 50, seed=1)
    text = dataset_to_csv(data)
    assert text.splitlines()[0] == "x0"
    path = tmp_path / "c.csv"
    path.write_text(text)
    back = read_dataset_csv(str(path))
    assert np.array_equal(back.values, data.values)  # 17 significant digits


def test_dataset_csv_round_trip_discrete(tmp_path):
    data = sample(ising_model([0.0, 0.0, 0.0], [0.3, 0.3]), 40, seed=2)
    path = tmp_path / "d.csv"
    path.write_text(dataset_to_csv(data))
    assert path.read_text().splitlines()[0] == "x0,x1,x2"
    back = read_dataset_csv(str(path), alphabet_size=2)
    assert np.array_equal(back.values, data.values)


def test_dataset_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n0,1\n")
    with pytest.raises(ValueError, match="header"):
        read_dataset_csv(str(path), alphabet_size=2)


def test_dataset_csv_with_a_header_and_no_rows_is_an_empty_dataset(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("x0,x1\n")
    for m in (2, None):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="dataset needs at least one sample"):
                read_dataset_csv(str(path), alphabet_size=m)
        assert caught == []


@pytest.mark.parametrize("rows, line, width", [
    ("0,1\n1\n", 3, 1),  # a short row
    ("0,1,1\n", 2, 3),  # a long one, on every row
    ("\n# a comment\n0,1\n1,0,0 # a trailing comment\n", 5, 3),
])
def test_dataset_csv_names_the_line_whose_width_differs_from_the_header(tmp_path, rows, line,
                                                                      width):
    path = tmp_path / "ragged.csv"
    path.write_text("x0,x1\n" + rows)
    for m in (2, None):
        with pytest.raises(ValueError) as caught:
            read_dataset_csv(str(path), alphabet_size=m)
        assert str(caught.value) == (f"line {line} has {width} values, "
                                     "but the header names 2 columns")


@pytest.mark.parametrize("rows, line, column, value", [
    ("0,1\n0,a\n", 3, "x1", "a"),
    ("\n# a comment\n1,0\n x ,1 # trailing\n", 5, "x0", "x"),
    ("0,1\n1,\n", 3, "x1", ""),
])
def test_dataset_csv_names_the_line_and_column_of_a_value_that_is_not_a_number(
        tmp_path, rows, line, column, value):
    path = tmp_path / "text.csv"
    path.write_text("x0,x1\n" + rows)
    for m in (2, None):
        with pytest.raises(ValueError) as caught:
            read_dataset_csv(str(path), alphabet_size=m)
        assert str(caught.value) == f"line {line}, column {column}: {value!r} is not a number"


@pytest.mark.parametrize("rows, line, column, value", [
    ("0,1\nnan,1\n", 3, "x0", "nan"),
    ("\n# a comment\n1,0\n0, inf # trailing\n", 5, "x1", "inf"),
    ("0,-inf\n", 2, "x1", "-inf"),
])
def test_dataset_csv_names_the_line_and_column_of_a_value_that_is_not_finite(
        tmp_path, rows, line, column, value):
    path = tmp_path / "nonfinite.csv"
    path.write_text("x0,x1\n" + rows)
    for m in (2, None):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as caught:
                read_dataset_csv(str(path), alphabet_size=m)
        assert str(caught.value) == f"line {line}, column {column}: {value!r} is not a finite number"


def test_dataset_csv_skips_blank_lines_and_comments(tmp_path):
    path = tmp_path / "commented.csv"
    path.write_text("x0,x1\r\n0,1\r\n\r\n# a comment\r\n1,0 # a trailing one\r\n")
    assert read_dataset_csv(str(path), alphabet_size=2).values.tolist() == [[0, 1], [1, 0]]


def test_model_json_round_trip():
    for model in [
        gaussian_model([0.5, -0.5], [[2.0, 0.3], [0.3, 1.0]]),
        ising_model([0.1, 0.2, 0.3], [0.5, -0.5]),
        potts_model(np.arange(6.0).reshape(2, 3), [0.7]),
        gen_gauss_model(1.5),
        ising_model([0.1, 0.2, 0.3], [0.5, -0.5], edges=[(0, 1), (0, 2)]),
        potts_model(np.arange(9.0).reshape(3, 3), [0.7, -0.2], edges=[(0, 1), (0, 2)]),
    ]:
        back = model_from_json(model_to_json(model))
        assert back.kind is model.kind
        assert back.dim == model.dim
        assert back.alphabet_size == model.alphabet_size
        assert np.allclose(back.params, model.params)
        assert back.edges == model.edges


def test_model_json_edges_default_to_chain_and_are_validated():
    import json

    obj = json.loads(model_to_json(ising_model([0.0] * 3, [0.5, 0.5], edges=[(0, 1), (0, 2)])))
    del obj["edges"]
    assert model_from_json(json.dumps(obj)).edges == ((0, 1), (1, 2))
    for bad in ([[0, 1], [2, 2]], [[0, 1, 2], [0, 2]], [[0, 1], [0.0, 2]], "01"):
        obj["edges"] = bad
        with pytest.raises(ValueError, match="edge"):
            model_from_json(json.dumps(obj))
    gauss = json.loads(model_to_json(gaussian_model([0.0], [[1.0]])))
    gauss["edges"] = []
    with pytest.raises(ValueError, match="edges"):
        model_from_json(json.dumps(gauss))


def test_model_json_rejects_unknown_keys_and_bad_layout():
    text = model_to_json(ising_model([0.0, 0.0], [0.5]))
    import json

    obj = json.loads(text)
    obj["extra"] = 1
    with pytest.raises(ValueError, match="unknown keys"):
        model_from_json(json.dumps(obj))
    del obj["extra"]
    obj["layout"] = "mu,tril(sigma)"
    with pytest.raises(ValueError, match="layout"):
        model_from_json(json.dumps(obj))


@pytest.mark.parametrize("text", ["5", "null", "[1, 2]", '"ising"', "true"])
def test_model_json_must_be_an_object(text):
    # These used to raise TypeError from set(obj), or for a list, to be
    # reported as unknown keys.
    message = f"a model file holds a JSON object, got {text}"
    with pytest.raises(ValueError, match=re.escape(message)):
        model_from_json(text)


@pytest.mark.parametrize("key", ["kind", "dim", "params", "alphabet_size", "layout"])
def test_model_json_names_a_missing_required_key(key):
    import json

    obj = json.loads(model_to_json(potts_model(np.zeros((2, 3)), [0.7])))
    del obj[key]
    with pytest.raises(ValueError, match=f"^model file lacks required key '{key}'$"):
        model_from_json(json.dumps(obj))


def test_model_json_rejects_bad_param_lengths():
    import json

    obj = {"kind": "ising", "dim": 2, "alphabet_size": 2,
           "params": [0.0, 0.0], "layout": "h,edge_couplings"}
    with pytest.raises(ValueError, match="parameter length"):
        model_from_json(json.dumps(obj))


@pytest.mark.parametrize("params", [[[0.1, 0.2, 0.5]], [0.1, [0.2], 0.5], [0.1, "0.2", 0.5],
                                    [0.1, True, 0.5], "0.1"],
                         ids=["nested", "inner-list", "string", "bool", "not-a-list"])
def test_model_json_rejects_params_that_are_not_a_flat_list_of_numbers(params):
    # A nested list used to load as a 2-D parameter array, which round-tripped
    # nested and failed only inside sampling or fitting.
    import json

    obj = {"kind": "ising", "dim": 2, "alphabet_size": 2, "params": params,
           "layout": "h,edge_couplings"}
    with pytest.raises(ValueError, match="params must be a flat list of numbers"):
        model_from_json(json.dumps(obj))


def test_model_json_rejects_non_pd_gaussian():
    import json

    obj = {"kind": "gaussian", "dim": 1, "params": [0.0, -1.0],
           "layout": "mu,tril(sigma)"}
    with pytest.raises(ParameterDomainError, match="positive definite"):
        model_from_json(json.dumps(obj))


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
@pytest.mark.parametrize("model", [
    gaussian_model([0.5, -0.5], [[2.0, 0.3], [0.3, 1.0]]),
    ising_model([0.1, 0.2, 0.3], [0.5, -0.5]),
    potts_model(np.arange(6.0).reshape(2, 3), [0.7]),
    gen_gauss_model(1.5),
], ids=lambda m: m.kind.value)
def test_model_json_rejects_non_finite_params(model, bad):
    import json

    obj = json.loads(model_to_json(model))
    obj["params"][0] = bad
    text = json.dumps(obj)
    assert "NaN" in text or "Infinity" in text
    with pytest.raises(ValueError, match="finite"):
        model_from_json(text)


def test_model_kind_enum_values():
    assert {k.value for k in ModelKind} == {"gaussian", "ising", "potts", "gengauss1d"}
