"""Heat smoothing, entropy/Fisher-information quadrature, and the divergence
curves over the scale factor."""

import numpy as np
import pytest
from scipy.ndimage import convolve1d

from scorematch import scalespace
from scorematch.grids import (
    LOG_FLOOR,
    SUPPORT_FRAC,
    gaussian_1d,
    grid_density,
    mixture_1d,
    quad,
    uniform_axis,
)
from scorematch.objectives import fisher_exact, kl_exact
from scorematch.scalespace import (
    ALIAS_FREE_STEPS,
    BLAS_DOT_TAPS,
    DivergenceCurve,
    _convolve_same,
    _heat_flow,
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


def _anisotropic_2d():
    x, y = uniform_axis(-12.0, 12.0, 257), uniform_axis(-10.0, 10.0, 193)
    xx, yy = np.meshgrid(x, y, indexing="ij")
    vals = np.exp(-((xx - 1.0) ** 2) / 0.8 - (yy + 0.5) ** 2 / 0.6)
    return grid_density((x, y), vals, require_decay=False)


def test_smooth_keeps_relative_precision_in_2d_tails():
    _assert_tail_precision(_anisotropic_2d(), (0.02, 0.5, 1.5))


def test_smooth_convolves_each_row_as_apply_along_axis_does():
    # The row loop calls the same np.convolve on the same rows, so the result
    # is np.apply_along_axis's bit for bit, along either axis of a 2-D grid.
    p, t = _anisotropic_2d(), 0.5
    values = p.values
    for ax, (h, (lo, hi)) in enumerate(zip(p.spacing, p.box)):
        k = _kernel(t, h, (hi - lo) / 2.0)
        values = np.apply_along_axis(np.convolve, ax, values, k, mode="same")
    ref = grid_density(p.axes, values, require_decay=False).values
    assert np.array_equal(smooth(p, t).values, ref)


def test_long_kernels_are_convolved_in_chunks_of_blas_dot_taps():
    # A kernel of more than BLAS_DOT_TAPS taps is convolved chunk by chunk, so
    # no dot product is long enough for OpenBLAS to thread; every summand is
    # nonnegative, so the chunked sums stay within a few ulps of the single
    # call's at every point.  A kernel of at most BLAS_DOT_TAPS taps keeps
    # that single call, bit for bit.
    rng = np.random.default_rng(3)
    n = BLAS_DOT_TAPS + 500
    values = rng.random(n) * np.exp(-np.linspace(-12.0, 12.0, n) ** 2)
    kernel = rng.random(BLAS_DOT_TAPS)
    assert np.array_equal(_convolve_same(values, kernel), np.convolve(values, kernel, "same"))
    # An odd kernel with a one-tap last chunk, and an even one as long as values.
    for taps in (BLAS_DOT_TAPS + 1, n):
        kernel = rng.random(taps)
        got, ref = _convolve_same(values, kernel), np.convolve(values, kernel, "same")
        assert got.shape == ref.shape
        np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0)


def test_smooth_rejects_negative_t_and_wide_kernel():
    ax = uniform_axis(-4.0, 4.0, 512)
    p = grid_density((ax,), np.exp(-(ax**2) * 2.0), require_decay=False)
    with pytest.raises(ValueError):
        smooth(p, -0.1)
    with pytest.raises(ValueError, match="kernel"):
        smooth(p, 4.0)  # 8 sigma = 16 > half-box


# ---------------------------------------------------------------------------
# Heat flow

def _untruncated_smooth(p, t):
    """Direct zero-padded convolution with the sampled Gaussian cut only where
    its taps underflow to 0 (or at the grid's width), normalized like `smooth`."""
    values = p.values
    for ax, h in enumerate(p.spacing):
        n = values.shape[ax]
        r = min(n - 1, int(np.ceil(np.sqrt(2.0 * 746.0 * t) / h)))
        offsets = np.arange(-r, r + 1) * h
        k = np.exp(-(offsets**2) / (2.0 * t))
        k /= k.sum()
        values = np.apply_along_axis(
            lambda v: np.convolve(v, k, mode="full")[r : r + n], ax, values
        )
    return grid_density(p.axes, values, require_decay=False).values


def _workload_densities():
    return (
        _gauss(0.0, 1.0),
        _gauss(0.0, 2.0),
        _gauss(0.5, 1.0),
        mixture_1d([(0.5, -2.0, 1.0), (0.5, 2.0, 1.0)], box=BOX, n=4096),
    )


def _max_rel_err(got, ref, frac):
    region = ref > frac * ref.max()
    return float((np.abs(got - ref) / ref)[region].max())


def test_heat_flow_matches_the_untruncated_convolution():
    t_grid = np.round(np.arange(0.02, 1.0 + 1e-9, 0.02), 12)
    for p in _workload_densities():
        for t, pt in zip(t_grid, _heat_flow(p, t_grid)):
            ref = _untruncated_smooth(p, t)
            assert _max_rel_err(pt.values, ref, 1e-12) <= 1e-10, t
            assert _max_rel_err(pt.values, ref, 1e-30) <= 1e-9, t


def test_heat_flow_is_never_further_than_smooth_in_2d():
    # Spacings ~0.1: steps below 0.27 restart from p, so this grid mixes
    # restarts, single steps and composed steps.
    p = _anisotropic_2d()
    t_grid = np.round(np.arange(0.1, 1.5 + 1e-9, 0.1), 12)
    for t, pt in zip(t_grid, _heat_flow(p, t_grid)):
        ref, direct = _untruncated_smooth(p, t), smooth(p, t).values
        for frac in (1e-12, 1e-30):
            # 1e-13: rounding slack where flow and smooth take the same taps.
            assert _max_rel_err(pt.values, ref, frac) <= _max_rel_err(direct, ref, frac) + 1e-13, t


def test_heat_flow_restarts_narrow_steps_from_p():
    p = _workload_densities()[-1]
    t_grid = [0.1, 0.10001, 0.10002, 0.3]
    outs = [pt.values.copy() for pt in _heat_flow(p, t_grid)]
    for t, got in zip(t_grid[:3], outs):
        want = smooth(p, t).values
        assert np.all(np.abs(got - want) <= 1e-14 * want), t
    # The restarts left the state at t = 0.1, so the last output is one step.
    last = list(_heat_flow(p, [0.1, 0.3]))[-1].values
    assert np.array_equal(outs[-1], last)


def test_heat_flow_falls_back_below_alias_free_steps():
    # A step of sigma 3.4 h lies between 2 h and ALIAS_FREE_STEPS h, so the
    # flow does not take it: that output is smooth's, bit for bit, and the
    # next step starts from the state the grid without it would hold.
    p = _workload_densities()[-1]
    h = p.spacing[0]
    t_grid = [0.1, 0.1004, 0.3]
    assert 2.0 * h < np.sqrt(t_grid[1] - t_grid[0]) < ALIAS_FREE_STEPS * h
    outs = [pt.values.copy() for pt in _heat_flow(p, t_grid)]
    assert np.array_equal(outs[1], smooth(p, t_grid[1]).values)
    assert np.array_equal(outs[2], list(_heat_flow(p, [0.1, 0.3]))[-1].values)


def test_heat_flow_builds_kernels_once_per_run_of_equal_steps(monkeypatch):
    p = _gauss(0.0, 1.0, n=1024)
    t_grid = np.round(np.arange(0.02, 1.0 + 1e-9, 0.02), 12)
    want = [pt.values.copy() for pt in _heat_flow(p, t_grid)]
    steps = np.diff(t_grid, prepend=0.0)
    built = []
    real = scalespace._kernels

    def counted(t, g):
        built.append(t)
        return real(t, g)

    monkeypatch.setattr(scalespace, "_kernels", counted)
    got = [pt.values.copy() for pt in _heat_flow(p, t_grid)]
    assert built == [s for i, s in enumerate(steps) if i == 0 or s != steps[i - 1]]
    assert len(built) == 25  # of 50 steps
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_heat_flow_yields_p_at_t_zero():
    p = _gauss(0.0, 1.0)
    assert next(_heat_flow(p, [0.0, 0.5])) is p


@pytest.mark.parametrize("t, match", [
    ([-0.1, 0.1, 0.2], "scale factor must be nonnegative"),
    ([0.5, 1.0, 4.0], r"smoothing kernel \(radius [0-9.]+\) wider than half the box"),
])
def test_heat_flow_errors_reach_both_sweeps(t, match):
    ax = uniform_axis(-4.0, 4.0, 512)
    p = grid_density((ax,), np.exp(-(ax**2) * 2.0), require_decay=False)
    with pytest.raises(ValueError, match=match):
        divergence_curve(p, p, t)
    with pytest.raises(ValueError, match=match):
        debruijn_residual(p, t)


def _second_2d():
    p = _anisotropic_2d()
    xx, yy = np.meshgrid(*p.axes, indexing="ij")
    vals = np.exp(-((xx + 0.5) ** 2) / 1.2 - (yy - 0.3) ** 2 / 0.9)
    return grid_density(p.axes, vals, require_decay=False)


def _oracle_sweeps():
    """The benchmark's density pairs at n = 1024 and a 2-D pair, each with a
    t grid for its divergence curve and one for its de Bruijn sweep."""
    curve_t = np.round(np.arange(0.02, 1.0 + 1e-9, 0.02), 12)
    debruijn_t = np.round(np.arange(0.1, 1.0 + 1e-9, 0.02), 10)
    base = _gauss(0.0, 1.0, n=1024)
    mixture = mixture_1d([(0.5, -2.0, 1.0), (0.5, 2.0, 1.0)], box=BOX, n=1024)
    t_2d = np.round(np.arange(0.1, 1.5 + 1e-9, 0.1), 12)
    return [
        (base, _gauss(0.0, 2.0, n=1024), curve_t, debruijn_t),
        (base, _gauss(0.5, 1.0, n=1024), curve_t, debruijn_t),
        (base, mixture, curve_t, debruijn_t),
        (mixture, base, curve_t, debruijn_t),
        (_anisotropic_2d(), _second_2d(), t_2d, t_2d),
    ]


def _log(g):
    return np.log(np.maximum(g.values, LOG_FLOOR))


def _weighted_score_gap(g, log_ratio):
    """Plain-NumPy Fisher integrand: the squared gradient of log_ratio,
    weighted by g and cut to g's support, integrated."""
    sq = sum(np.gradient(log_ratio, h, axis=ax, edge_order=1) ** 2 for ax, h in enumerate(g.spacing))
    return quad(g, np.where(g.values > SUPPORT_FRAC * g.values.max(), sq * g.values, 0.0))


@pytest.mark.parametrize("p, q, curve_t, debruijn_t", _oracle_sweeps())
def test_sweeps_equal_the_public_oracles_on_the_flow(p, q, curve_t, debruijn_t):
    # The sweeps share one log ratio (one log) per scale between their two
    # integrals; the public functions take their own, and both must agree to
    # the bit with the formulas written out in plain NumPy.
    curve = divergence_curve(p, q, curve_t)
    pairs = list(zip(_heat_flow(p, curve_t), _heat_flow(q, curve_t)))
    for got, oracle, reference in (
        (curve.kl, kl_exact, lambda a, b: quad(a, (_log(a) - _log(b)) * a.values)),
        (curve.fisher, fisher_exact, lambda a, b: _weighted_score_gap(a, _log(a) - _log(b))),
    ):
        assert np.array_equal(got, [oracle(pt, qt) for pt, qt in pairs])
        assert np.array_equal(got, [reference(pt, qt) for pt, qt in pairs])

    H, J = [], []
    for pt in _heat_flow(p, debruijn_t):
        H.append(entropy(pt))
        J.append(fisher_information(pt))
        assert H[-1] == quad(pt, np.where(pt.values > 0, -pt.values * _log(pt), 0.0))
        assert J[-1] == _weighted_score_gap(pt, _log(pt))
    H, J = np.array(H), np.array(J)
    # Against the flat reference the curve's KL is -H and its Fisher J.
    flat = divergence_curve(p, None, debruijn_t)
    assert np.array_equal(flat.kl, -H) and np.array_equal(flat.fisher, J)
    dh = (H[2:] - H[:-2]) / (debruijn_t[2:] - debruijn_t[:-2])
    want = float(np.max(np.abs(dh - 0.5 * J[1:-1]) / np.maximum(J[1:-1], 1e-12)))
    assert debruijn_residual(p, debruijn_t) == want


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


def test_debruijn_residual_takes_one_interior_point():
    # Unlike theorem1_residual, de Bruijn needs only 3 scales: the residual is
    # the hand formula at the one interior point, and 2 scales are refused.
    p, t = _gauss(0.0, 1.0, n=1024), np.array([0.1, 0.2, 0.3])
    pts = list(_heat_flow(p, t))
    H, J = [entropy(pt) for pt in pts], fisher_information(pts[1])
    want = abs((H[2] - H[0]) / (t[2] - t[0]) - 0.5 * J) / max(J, 1e-12)
    assert debruijn_residual(p, t) == want
    with pytest.raises(ValueError, match=r"strictly increasing with >= 3 points"):
        debruijn_residual(p, t[:2])


def test_curve_csv_format():
    curve = DivergenceCurve(
        t=np.array([0.1, 0.2, 0.3]),
        kl=np.array([1.0, 0.5, 0.25]),
        fisher=np.array([2.0, 1.0, 0.5]),
        dkl_dt=np.array([np.nan, -1.0, np.nan]),
    )
    lines = curve.to_csv().splitlines()
    assert lines[0] == "t,kl,fisher,dkl_dt"
    assert lines[1].endswith(",")  # empty dkl_dt field at the first endpoint
    assert lines[2].split(",")[3] == "-1"
