"""Grid density construction, quadrature, and geometry checks."""

import numpy as np
import pytest

from scorematch.grids import (
    BoundaryError,
    GridDensity,
    from_function,
    gaussian_1d,
    grid_density,
    mixture_1d,
    quad,
    quad_weights,
    require_same_geometry,
    same_geometry,
    support_mask,
    uniform_axis,
)
from scorematch.objectives import kl_exact


def test_uniform_axis_endpoints_and_spacing():
    ax = uniform_axis(-2.0, 2.0, 5)
    assert np.allclose(ax, [-2, -1, 0, 1, 2])


def test_uniform_axis_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        uniform_axis(1.0, 1.0, 16)
    with pytest.raises(ValueError):
        uniform_axis(0.0, 1.0, 3)


def test_quad_weights_integrate_constant_exactly():
    ax = uniform_axis(0.0, 1.0, 5)
    assert np.isclose(quad_weights((ax,)).sum(), 1.0)
    ay = uniform_axis(0.0, 2.0, 9)
    assert np.isclose(quad_weights((ax, ay)).sum(), 2.0)


def test_quad_weights_are_shared_per_point_count_and_spacing():
    # Weights do not depend on where an axis starts; dyadic steps keep the
    # spacing of the shifted axis exact.
    ax = uniform_axis(0.0, 1.0, 9)
    w = quad_weights((ax,))
    assert w is quad_weights((ax + 4.0,))
    assert not w.flags.writeable
    assert np.array_equal(w, np.r_[0.0625, np.full(7, 0.125), 0.0625])
    assert quad_weights((ax, ax)).shape == (9, 9)


def test_quad_overwrite_gives_the_same_bits_in_the_integrand_buffer():
    rng = np.random.default_rng(3)
    for axes in ((uniform_axis(-3.0, 3.0, 257),), (uniform_axis(-3.0, 3.0, 65), uniform_axis(0.0, 2.0, 33))):
        g = grid_density(axes, rng.random(tuple(len(a) for a in axes)), require_decay=False)
        integrand = rng.standard_normal(g.shape)
        buffer = integrand.copy()
        assert quad(g, buffer, overwrite=True) == quad(g, integrand)
        assert np.array_equal(buffer, quad_weights(axes) * integrand)


def test_grid_density_renormalizes_to_unit_mass():
    ax = uniform_axis(-6.0, 6.0, 512)
    g = grid_density((ax,), 3.7 * np.exp(-(ax**2)))
    assert abs(quad(g, g.values) - 1.0) < 1e-10


def test_grid_density_rejects_nonuniform_axis():
    ax = np.array([0.0, 1.0, 2.5, 3.0, 4.0, 5.0])
    with pytest.raises(ValueError, match="uniformly spaced"):
        grid_density((ax,), np.ones(6), require_decay=False)


def test_grid_density_rejects_negative_and_nonfinite_values():
    ax = uniform_axis(0.0, 1.0, 8)
    vals = np.ones(8)
    vals[3] = -0.1
    with pytest.raises(ValueError, match="finite and nonnegative"):
        grid_density((ax,), vals)
    vals[3] = np.nan
    with pytest.raises(ValueError, match="finite and nonnegative"):
        grid_density((ax,), vals)


def test_grid_density_rejects_an_empty_table_a_shape_mismatch_and_three_axes():
    ax = uniform_axis(0.0, 1.0, 8)
    with pytest.raises(ValueError, match="no mass"):
        grid_density((ax,), np.zeros(8))
    with pytest.raises(ValueError, match="shape does not match"):
        grid_density((ax, ax), np.ones(8), require_decay=False)
    with pytest.raises(ValueError, match="only 1-D and 2-D"):
        grid_density((ax, ax, ax), np.ones((8, 8, 8)), require_decay=False)


def test_grid_density_rejects_nondecaying_boundary():
    ax = uniform_axis(-1.0, 1.0, 64)
    with pytest.raises(BoundaryError, match="decay"):
        grid_density((ax,), np.exp(-(ax**2)))
    # In 2-D each of the four edges counts: a bump centred on one edge of a
    # wide box is refused, and decays at the other three.
    wide = uniform_axis(-10.0, 10.0, 64)
    xx, yy = np.meshgrid(wide, wide, indexing="ij")
    for centre in ((-10.0, 0.0), (10.0, 0.0), (0.0, -10.0), (0.0, 10.0)):
        bump = np.exp(-((xx - centre[0]) ** 2 + (yy - centre[1]) ** 2))
        with pytest.raises(BoundaryError, match="decay"):
            grid_density((wide, wide), bump)


def test_gaussian_1d_matches_closed_form_pdf():
    g = gaussian_1d(0.0, 1.0, box=(-8.0, 8.0), n=4096)
    x = g.axes[0]
    ref = np.exp(-(x**2) / 2.0) / np.sqrt(2.0 * np.pi)
    assert np.abs(g.values - ref).max() < 1e-6


def test_mixture_1d_is_normalized_and_bimodal():
    g = mixture_1d([(0.5, -2.0, 1.0), (0.5, 2.0, 1.0)])
    assert abs(quad(g, g.values) - 1.0) < 1e-10
    x = g.axes[0]
    center = g.values[np.argmin(np.abs(x))]
    mode = g.values[np.argmin(np.abs(x + 2.0))]
    assert mode > center


def test_mixture_1d_validates_components():
    with pytest.raises(ValueError):
        mixture_1d([])
    with pytest.raises(ValueError):
        mixture_1d([(1.0, 0.0, -1.0)])


def test_same_geometry_discriminates_boxes():
    a = gaussian_1d(0.0, 1.0, n=256)
    b = gaussian_1d(0.5, 2.0, n=256)
    c = gaussian_1d(0.0, 1.0, n=512)
    assert same_geometry(a, b)
    assert not same_geometry(a, c)
    require_same_geometry(a, b)
    with pytest.raises(ValueError, match="geometries do not match"):
        require_same_geometry(a, c)
    with pytest.raises(ValueError, match="geometries do not match"):
        kl_exact(a, c)


def test_support_mask_excludes_far_tails():
    g = gaussian_1d(0.0, 1.0, box=(-12.0, 12.0), n=4096)
    mask = support_mask(g)
    assert mask.any() and not mask.all()
    assert mask[np.argmax(g.values)]


def test_grid_density_properties():
    g = gaussian_1d(0.0, 1.0, box=(-8.0, 8.0), n=1024)
    assert isinstance(g, GridDensity)
    assert g.dim == 1
    assert g.shape == (1024,)
    assert g.box == ((-8.0, 8.0),)
    assert np.isclose(g.spacing[0], 16.0 / 1023)


def test_2d_grid_density():
    ax = uniform_axis(-7.0, 7.0, 128)
    xx, yy = np.meshgrid(ax, ax, indexing="ij")
    g = grid_density((ax, ax), np.exp(-(xx**2 + yy**2) / 2.0))
    assert g.dim == 2
    assert abs(quad(g, g.values) - 1.0) < 1e-10
    # from_function takes one (lo, hi) per axis and hands fn one coordinate
    # array per axis in "ij" order.
    f = from_function(lambda x, y: np.exp(-(x**2 + y**2) / 2.0), ((-7.0, 7.0),) * 2, 128)
    assert np.array_equal(f.values, g.values)
    h = from_function(lambda x, y: np.exp(-(x**2) / 2.0 - y**2), ((-8.0, 8.0), (-6.0, 6.0)), 64)
    assert h.box == ((-8.0, 8.0), (-6.0, 6.0)) and h.shape == (64, 64)
    x, y = h.axes
    ref = np.exp(-(x[:, None] ** 2) / 2.0 - y[None, :] ** 2)
    assert np.allclose(h.values, ref / quad(h, ref), rtol=1e-12, atol=0.0)
