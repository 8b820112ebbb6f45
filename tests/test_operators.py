"""Linear operators: marginalization, grid stencils, adjoints, and the
telescoping joint reconstruction from singleton conditionals."""

import numpy as np
import pytest

from scorematch.grids import gaussian_1d, quad, support_mask, uniform_axis
from scorematch.models import exact_normalize, ising_model
from scorematch.objectives import fisher_exact
from scorematch.operators import (
    ZeroConditionalError,
    brook_ratio,
    discrete_joint,
    gradient_adjoint_residual,
    grid_gradient,
    grid_laplacian,
    joint_conditionals,
    marginalization_adjoint_residual,
    marginalize,
    reconstruct_joint,
    squared_norm,
)


# ---------------------------------------------------------------------------
# Marginalization

def test_marginalize_uniform_joint_gives_half_everywhere():
    out = marginalize(np.full((2, 2), 0.25))
    assert np.allclose(out, 0.5)


def test_marginalize_product_bernoulli():
    # Independent Bernoulli(0.75) pair: summing out coordinate 0 leaves the
    # marginal of coordinate 1 at the queried symbol.
    bern = np.array([0.25, 0.75])
    table = np.multiply.outer(bern, bern)
    out = marginalize(table)
    assert np.allclose(out[0][:, 0], 0.25)
    assert np.allclose(out[0][:, 1], 0.75)
    assert np.allclose(out[1][0, :], 0.25)
    assert np.allclose(out[1][1, :], 0.75)


def test_marginalize_components_constant_along_own_axis():
    rng = np.random.default_rng(0)
    table = rng.random((3, 3, 3))
    out = marginalize(table)
    for i in range(3):
        assert np.allclose(np.diff(out[i], axis=i), 0.0)


# ---------------------------------------------------------------------------
# Grid stencils

def test_grid_gradient_even_function_vanishes_at_center():
    ax = uniform_axis(-8.0, 8.0, 1025)
    g = grid_gradient(np.exp(-(ax**2) / 2.0), (ax[1] - ax[0],))[0]
    assert abs(g[512]) < 1e-12  # exact zero by symmetry of the central stencil


def test_grid_gradient_equals_numpy_gradient_bit_for_bit():
    rng = np.random.default_rng(3)
    for shape in [(4,), (257,), (6, 5), (64, 33)]:
        values = np.exp(4.0 * rng.standard_normal(shape))
        spacing = tuple(rng.uniform(1e-3, 2.0, len(shape)))
        for ax, g in enumerate(grid_gradient(values, spacing)):
            assert np.array_equal(g, np.gradient(values, spacing[ax], axis=ax, edge_order=1))


def test_grid_gradient_second_order_on_cubic():
    # Central differences are exact for quadratics; cubic error is h^2 f'''/6.
    ax = uniform_axis(0.0, 1.0, 101)
    h = ax[1] - ax[0]
    g = grid_gradient(ax**3, (h,))[0]
    interior = slice(1, -1)
    assert np.abs(g[interior] - 3 * ax[interior] ** 2).max() < 1.1 * h**2


def test_grid_laplacian_exact_for_quadratics_including_boundary():
    ax = uniform_axis(-3.0, 5.0, 65)
    lap = grid_laplacian(2.0 * ax**2 - ax + 7.0, (ax[1] - ax[0],))
    assert np.abs(lap - 4.0).max() < 1e-8


def test_grid_laplacian_2d_additivity():
    ax = uniform_axis(-2.0, 2.0, 33)
    xx, yy = np.meshgrid(ax, ax, indexing="ij")
    lap = grid_laplacian(xx**2 + 3.0 * yy**2, (ax[1] - ax[0],) * 2)
    assert np.abs(lap - 8.0).max() < 1e-7


def test_squared_norm_sums_squares_in_order_and_consumes_the_list():
    rng = np.random.default_rng(0)
    comps = [rng.normal(size=(5, 4)) for _ in range(3)]
    want = np.zeros((5, 4))
    for c in comps:
        want += c**2
    given = [c.copy() for c in comps]
    assert np.array_equal(squared_norm(given), want)
    assert given == []


# ---------------------------------------------------------------------------
# Adjoints

def test_marginalization_adjoint_exact_on_random_pairs():
    rng = np.random.default_rng(7)
    for m in (2, 3):
        for d in (2, 3, 4):
            for _ in range(100):
                f = rng.random((m,) * d)
                g = rng.standard_normal((d,) + (m,) * d)
                res = marginalization_adjoint_residual(f, g)
                assert res <= 1e-12


def test_marginalization_adjoint_zero_table():
    g = np.random.default_rng(1).standard_normal((2, 3, 3))
    assert marginalization_adjoint_residual(np.zeros((3, 3)), g) == 0.0


def test_gradient_adjoint_small_for_compact_bumps():
    ax = uniform_axis(-8.0, 8.0, 1024)
    f = np.exp(-(ax**2) / 2.0)
    g = [ax * np.exp(-((ax - 1.0) ** 2) / 2.0)]
    res = gradient_adjoint_residual(f, g, (ax,))
    assert res <= 1e-6


def test_adjoint_shape_mismatch_rejected():
    with pytest.raises(ValueError, match="shape"):
        marginalization_adjoint_residual(np.ones((2, 2)), np.ones((3, 2, 2)))


# ---------------------------------------------------------------------------
# Brook reconstruction

def test_brook_ratio_uniform_joint_is_one():
    joint = discrete_joint(np.full((2, 2, 2), 1 / 8))
    conds = joint_conditionals(joint)
    assert brook_ratio(conds, (1, 0, 1), (0, 1, 0)) == pytest.approx(1.0, abs=1e-12)


def test_brook_ratio_product_bernoulli_hand_value():
    bern = np.array([0.25, 0.75])
    joint = discrete_joint(np.multiply.outer(bern, bern))
    conds = joint_conditionals(joint)
    assert brook_ratio(conds, (1, 1), (0, 0)) == pytest.approx(9.0, abs=1e-12)


def test_brook_ratio_matches_enumeration_oracle():
    rng = np.random.default_rng(3)
    joint = discrete_joint(rng.random((2, 2, 2)) + 0.05)
    conds = joint_conditionals(joint)
    for _ in range(20):
        a = tuple(rng.integers(0, 2, 3))
        b = tuple(rng.integers(0, 2, 3))
        want = joint.probs[a] / joint.probs[b]
        assert brook_ratio(conds, a, b) == pytest.approx(want, abs=1e-10)


def test_brook_ratio_order_invariance():
    # Permuting the joint's axes and both states by `order` makes the product
    # walk the original coordinates in that order.
    rng = np.random.default_rng(5)
    probs = rng.random((3, 3, 3)) + 0.1
    a, b = (2, 0, 1), (0, 2, 2)
    base = brook_ratio(joint_conditionals(discrete_joint(probs)), a, b)
    for order in ([0, 1, 2], [2, 1, 0], [1, 0, 2], [1, 2, 0]):
        conds = joint_conditionals(discrete_joint(np.transpose(probs, order)))
        walked = brook_ratio(conds, [a[k] for k in order], [b[k] for k in order])
        assert walked == pytest.approx(base, rel=1e-10)


def test_brook_ratio_zero_conditional_reports_coordinate():
    probs = np.array([[0.5, 0.5], [0.0, 0.0]])  # coordinate 0 = 1 impossible
    joint = discrete_joint(probs)
    conds = joint_conditionals(joint)
    with pytest.raises(ZeroConditionalError) as exc:
        brook_ratio(conds, (1, 0), (0, 0))
    assert exc.value.coordinate == 0
    # The fibre of coordinate 1 at x0 = 1 has no mass at all.
    with pytest.raises(ZeroConditionalError) as exc:
        conds(1, (1, 0))
    assert exc.value.coordinate == 1
    with pytest.raises(ValueError, match="state dimensions differ"):
        brook_ratio(conds, (1, 0), (0, 0, 0))


def test_reconstruct_uniform_joint():
    joint = discrete_joint(np.full((2, 2), 0.25))
    rebuilt = reconstruct_joint(joint_conditionals(joint), 2, 2)
    assert np.abs(rebuilt.probs - 0.25).max() < 1e-12


def test_reconstruct_random_positive_joints():
    rng = np.random.default_rng(11)
    for m, d in [(2, 2), (2, 4), (3, 3)]:
        joint = discrete_joint(rng.random((m,) * d) + 0.05)
        rebuilt = reconstruct_joint(joint_conditionals(joint), m, d)
        assert np.abs(rebuilt.probs - joint.probs).max() < 1e-10


def test_reconstruct_ising_matches_exact_normalizer():
    truth = exact_normalize(ising_model([0.0, 0.0], [0.5]))
    rebuilt = reconstruct_joint(joint_conditionals(truth), 2, 2)
    assert np.abs(rebuilt.probs - truth.probs).max() < 1e-10


# ---------------------------------------------------------------------------
# DiscreteJoint

def test_discrete_joint_rejects_non_cube_and_negative():
    with pytest.raises(ValueError, match="cube"):
        discrete_joint(np.ones((2, 3)))
    with pytest.raises(ValueError, match="nonnegative"):
        discrete_joint(np.array([[0.5, 0.5], [0.5, -0.5]]))


@pytest.mark.parametrize("entry", [np.nan, np.inf])
def test_discrete_joint_rejects_entries_that_are_not_finite(entry):
    # NaN passes the sign test, and a table that already sums to 1 elsewhere
    # would skip the renormalization.
    with pytest.raises(ValueError, match="finite"):
        discrete_joint(np.array([[0.5, 0.5], [0.0, entry]]))


def test_discrete_joint_rejects_an_all_zero_table():
    with np.errstate(all="raise"):
        for zeros in (np.zeros((2, 2)), np.zeros((3, 3, 3), dtype=int)):
            with pytest.raises(ValueError, match="must not all be 0"):
                discrete_joint(zeros)


def test_discrete_joint_flat_index_convention():
    # idx = sum_i x_i * m**(d-1-i): coordinate 0 slowest, C-order flattening.
    probs = np.arange(8, dtype=float).reshape(2, 2, 2)
    joint = discrete_joint(probs)
    flat = joint.probs.ravel()
    for x in np.ndindex(2, 2, 2):
        idx = x[0] * 4 + x[1] * 2 + x[2]
        assert joint.probs[x] == flat[idx]


# ---------------------------------------------------------------------------
# Generalized divergence

def test_generalized_divergence_reduces_to_fisher():
    # D computed from the operator form (grad p / p vs grad q / q) must agree
    # with the direct score-difference quadrature.
    # n = 8192: the two routes differ by an O(h^2) stencil term (grad(p)/p vs
    # grad(log p)), which needs the finer grid to sit below 1e-6.
    p = gaussian_1d(0.0, 1.0, box=(-12.0, 12.0), n=8192)
    q = gaussian_1d(0.0, 2.0, box=(-12.0, 12.0), n=8192)
    mask = support_mask(p)
    gp = grid_gradient(p.values, p.spacing)[0] / np.maximum(p.values, 1e-300)
    gq = grid_gradient(q.values, q.spacing)[0] / np.maximum(q.values, 1e-300)
    d_op = quad(p, np.where(mask, p.values * (gp - gq) ** 2, 0.0))
    assert abs(d_op - fisher_exact(p, q)) < 1e-6
