"""Heat smoothing, entropy/Fisher-information quadrature, and the divergence
curves over the scale factor."""

import io

import numpy as np
import pytest
from scipy.ndimage import convolve1d

from scorematch.grids import gaussian_1d, grid_density, mixture_1d, uniform_axis
from scorematch.scalespace import (
    DivergenceCurve,
    _kernel,
    debruijn_residual,
    divergence_curve,
    entropy,
    fisher_information,
    heat_pde_residual,
    lemma1_residual,
    smooth,
    theorem1_residual,
)

BOX = (-12.0, 12.0)


def _gauss(mu, var, n=4096):
    return gaussian_1d(mu, var, box=BOX, n=n)


# ---------------------------------------------------------------------------
# Smoothing

def test_smooth_t_zero_is_identity():
    p = _gauss(0.0, 1.0)
    assert smooth(p, 0.0) is p


def test_smooth_gaussian_variance_adds():
    p = gaussian_1d(0.0, 1.0, box=(-10.0, 10.0), n=4096)
    got = smooth(p, 1.0)
    ref = gaussian_1d(0.0, 2.0, box=(-10.0, 10.0), n=4096)
    assert np.abs(got.values - ref.values).max() < 1e-6


def test_smooth_narrow_bump_approaches_heat_kernel():
    ax = uniform_axis(-10.0, 10.0, 4096)
    narrow = grid_density((ax,), np.exp(-(ax**2) / (2 * 1e-4)), require_decay=False)
    got = smooth(narrow, 0.25)
    ref = gaussian_1d(0.0, 0.25 + 1e-4, box=(-10.0, 10.0), n=4096)
    assert np.abs(got.values - ref.values).max() < 1e-4


def test_smooth_semigroup_property():
    p = mixture_1d([(0.6, -1.0, 0.5), (0.4, 2.0, 1.0)], box=BOX, n=4096)
    a = smooth(smooth(p, 0.3), 0.5)
    b = smooth(p, 0.8)
    assert np.abs(a.values - b.values).max() < 1e-8


def _reference_smooth(p, t):
    """scipy's direct zero-padded convolution with the same kernel, normalized
    like `smooth`."""
    values = p.values
    for ax, (h, (lo, hi)) in enumerate(zip(p.spacing, p.box)):
        k = _kernel(t, h, (hi - lo) / 2.0)
        values = convolve1d(values, k, axis=ax, mode="constant", cval=0.0)
    return grid_density(p.axes, values, require_decay=False).values


def _assert_tail_precision(p, t_values):
    deep_tail = False
    for t in t_values:
        got, ref = smooth(p, t).values, _reference_smooth(p, t)
        # Relative at every point: an FFT convolution's ~1e-17-of-peak
        # absolute error would fail this in the tails.
        assert np.all(np.abs(got - ref) <= 1e-13 * ref), t
        deep_tail |= bool(np.any(ref < 1e-30 * ref.max()))
    assert deep_tail


def test_smooth_keeps_relative_precision_in_1d_tails():
    for p in (_gauss(0.0, 0.5), mixture_1d([(0.5, -2.0, 0.5), (0.5, 2.0, 1.0)], box=BOX, n=4096)):
        _assert_tail_precision(p, (0.02, 0.3, 1.0))


def test_smooth_keeps_relative_precision_in_2d_tails():
    x, y = uniform_axis(-12.0, 12.0, 257), uniform_axis(-10.0, 10.0, 193)
    xx, yy = np.meshgrid(x, y, indexing="ij")
    vals = np.exp(-((xx - 1.0) ** 2) / 0.8 - (yy + 0.5) ** 2 / 0.6)
    p = grid_density((x, y), vals, require_decay=False)
    _assert_tail_precision(p, (0.02, 0.5, 1.5))


def test_smooth_rejects_negative_t_and_wide_kernel():
    ax = uniform_axis(-4.0, 4.0, 512)
    p = grid_density((ax,), np.exp(-(ax**2) * 2.0), require_decay=False)
    with pytest.raises(ValueError):
        smooth(p, -0.1)
    with pytest.raises(ValueError, match="kernel"):
        smooth(p, 4.0)  # 8 sigma = 16 > half-box


# ---------------------------------------------------------------------------
# Entropy and Fisher information

def test_entropy_standard_normal():
    want = 0.5 * np.log(2.0 * np.pi * np.e)
    assert entropy(_gauss(0.0, 1.0)) == pytest.approx(want, abs=1e-5)


def test_entropy_scale_shift():
    # H(N(0, s^2)) = H(N(0,1)) + log(s)
    base = entropy(_gauss(0.0, 1.0))
    assert entropy(_gauss(0.0, 2.25)) == pytest.approx(base + np.log(1.5), abs=1e-5)


def test_fisher_information_gaussians():
    assert fisher_information(_gauss(0.0, 1.0)) == pytest.approx(1.0, abs=1e-4)
    assert fisher_information(_gauss(0.0, 2.0)) == pytest.approx(0.5, abs=1e-4)


def test_entropy_increases_under_smoothing():
    p = mixture_1d([(0.5, -2.0, 1.0), (0.5, 2.0, 1.0)], box=BOX, n=4096)
    hs = [entropy(smooth(p, t)) for t in (0.1, 0.3, 0.6, 1.0)]
    assert all(b > a for a, b in zip(hs, hs[1:]))


# ---------------------------------------------------------------------------
# PDE and log-identity residuals

def test_heat_pde_residual_small_and_second_order():
    fine = heat_pde_residual(_gauss(0.0, 1.0, n=4096), 0.5, 1e-3)
    coarse = heat_pde_residual(_gauss(0.0, 1.0, n=2048), 0.5, 1e-3)
    assert fine < 1e-4
    assert abs(coarse / fine - 4.0) < 1.2  # within +-30%


def test_heat_pde_residual_validates_t_dt():
    p = _gauss(0.0, 1.0, n=512)
    with pytest.raises(ValueError):
        heat_pde_residual(p, 0.001, 0.01)


def test_lemma1_residual_small_and_second_order():
    fine = lemma1_residual(gaussian_1d(0.0, 1.0, box=(-8.0, 8.0), n=4096))
    coarse = lemma1_residual(gaussian_1d(0.0, 1.0, box=(-8.0, 8.0), n=2048))
    assert fine < 1e-4
    assert abs(coarse / fine - 4.0) < 1.2


# ---------------------------------------------------------------------------
# Divergence curves

def test_divergence_curve_identical_densities():
    p = _gauss(0.0, 1.0, n=1024)
    t = np.array([0.1, 0.2, 0.3, 0.4])
    curve = divergence_curve(p, p, t)
    assert np.abs(curve.kl).max() < 1e-12
    assert np.abs(curve.fisher).max() < 1e-12


def test_divergence_curve_mean_pair_fisher_decay():
    # scores -y/(1+t) vs -(y-1)/(1+t): fisher(t) = 1/(1+t)^2
    p, q = _gauss(0.0, 1.0), _gauss(1.0, 1.0)
    curve = divergence_curve(p, q, np.array([0.9, 1.0, 1.1]))
    assert curve.fisher[1] == pytest.approx(0.25, abs=1e-3)


def test_divergence_curve_kl_nonincreasing():
    p, q = _gauss(0.0, 1.0), _gauss(0.5, 2.0)
    t = np.round(np.arange(0.05, 1.0, 0.05), 10)
    curve = divergence_curve(p, q, t)
    assert np.all(np.diff(curve.kl) <= 1e-8)


def test_divergence_curve_endpoints_nan_interior_filled():
    p, q = _gauss(0.0, 1.0, n=1024), _gauss(0.3, 1.0, n=1024)
    curve = divergence_curve(p, q, np.array([0.1, 0.2, 0.3, 0.4]))
    assert np.isnan(curve.dkl_dt[0]) and np.isnan(curve.dkl_dt[-1])
    assert curve.interior().sum() == 2


def test_theorem1_matches_closed_form_gaussian_kl_derivative():
    # KL(t) = 0.5*(ln((2+t)/(1+t)) + (1+t)/(2+t) - 1) for the variance pair;
    # the numeric dkl_dt at t=0.02 must track its derivative within 2%.
    p, q = _gauss(0.0, 1.0), _gauss(0.0, 2.0)
    t = np.array([0.01, 0.02, 0.03])
    curve = divergence_curve(p, q, t)

    def dkl(tv):
        return 0.5 * (1.0 / (2 + tv) - 1.0 / (1 + tv) + 1.0 / (2 + tv) ** 2)

    assert curve.dkl_dt[1] == pytest.approx(dkl(0.02), rel=0.02)


def test_theorem1_residual_requires_interior_points():
    curve = DivergenceCurve(
        t=np.array([0.1, 0.2]),
        kl=np.zeros(2),
        fisher=np.zeros(2),
        dkl_dt=np.full(2, np.nan),
    )
    with pytest.raises(ValueError, match="interior"):
        theorem1_residual(curve)


def test_debruijn_residual_standard_normal():
    t = np.round(np.arange(0.1, 1.0 + 1e-9, 0.1), 10)
    assert debruijn_residual(_gauss(0.0, 1.0), t) < 0.01


def test_curve_csv_format():
    curve = DivergenceCurve(
        t=np.array([0.1, 0.2, 0.3]),
        kl=np.array([1.0, 0.5, 0.25]),
        fisher=np.array([2.0, 1.0, 0.5]),
        dkl_dt=np.array([np.nan, -1.0, np.nan]),
    )
    buf = io.StringIO()
    curve.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t,kl,fisher,dkl_dt"
    assert lines[1].endswith(",")  # empty dkl_dt field at the first endpoint
    assert lines[2].split(",")[3] == "-1"
