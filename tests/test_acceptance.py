"""Acceptance suite: one test per release criterion, each printing a single
PASS/FAIL line with the measured quantity before asserting.
"""

import collections

import numpy as np
import pytest

from scorematch import verify
from scorematch.estimation import (
    closed_form_gaussian_sm,
    compare_estimators,
    fd_gradient,
    fit,
)
from scorematch.models import (
    exact_normalize,
    gaussian_model,
    ising_model,
    model_to_json,
    sample,
)
from scorematch.objectives import (
    ObjectiveKind,
    gsm_discrete_population,
    ratio_matching_population,
)


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d} [{name}]: {'PASS' if ok else 'FAIL'} — {detail}")


def _suite_criterion(num: int, name: str, suite: str) -> None:
    checks = verify.run_suite(suite)
    ok = all(c.passed for c in checks)
    worst = max(checks, key=lambda c: c.residual / c.tolerance)
    _report(num, name, ok,
            f"worst residual {worst.residual:.3e} (tol {worst.tolerance:.0e}, "
            f"{worst.name})")
    assert ok, [f"{c.name}: {c.residual:.3e} > {c.tolerance:.0e}"
                for c in checks if not c.passed]


def test_criterion_01_kl_decay_rate_identity():
    """d/dt KL of a smoothed pair equals -Fisher/2, within 2% numerically and
    exactly on the closed-form anchors at t = 0."""
    _suite_criterion(1, "kl/fisher decay rate", "theorem1")


def test_criterion_02_entropy_rate_identity():
    """dH/dt equals J/2 within 1% (Gaussian) and 2% (bimodal mixture)."""
    _suite_criterion(2, "entropy rate", "debruijn")


def test_criterion_03_gaussian_sm_equals_ml():
    """Gaussian score-matching fits, one solve of the normal equations in the
    natural parameters, land on the closed-form sample moments within 1e-6 on
    20 seeded datasets, d in {1, 2, 3}."""
    rng = np.random.default_rng(0)
    worst = 0.0
    for k in range(20):
        d = [1, 2, 3][k % 3]
        mu = rng.standard_normal(d)
        a = rng.standard_normal((d, d)) * 0.4
        truth = gaussian_model(mu, a @ a.T + np.eye(d))
        data = sample(truth, 200, seed=k)
        ref = closed_form_gaussian_sm(data)
        res = fit(gaussian_model(np.zeros(d), np.eye(d)),
                  ObjectiveKind.SM_CONTINUOUS, data)
        worst = max(worst, float(np.abs(res.theta_hat - ref).max()))
    ok = worst <= 1e-6
    _report(3, "gaussian sm = ml", ok, f"worst max-norm gap {worst:.3e} (tol 1e-06)")
    assert ok


def test_criterion_04_ratio_form_constant_offset():
    """Population divergence minus the enumeration-weighted ratio-form
    objective is constant in theta to 1e-10."""
    checks = verify.run_suite("eq16eq17")
    ok = all(c.passed for c in checks)
    _report(4, "ratio-form offset", ok,
            f"offset spread over theta {checks[0].residual:.3e} (tol 1e-10)")
    assert ok, (
        "the ratio-form objective differs from the population divergence by a "
        f"theta-dependent amount (spread {checks[0].residual:.3e})"
    )


def test_criterion_05_ratio_matching_identity():
    """The phi-route population objective equals the squared-conditional-
    difference form to 1e-12 on 50 seeded (p, theta) pairs."""
    _suite_criterion(5, "ratio-matching identity", "rm-identity")


def test_criterion_06_population_optimum_agreement():
    """Both population objectives have vanishing finite-difference gradients
    at the true parameters under well-specification (Ising d in {2,3,4})."""
    worst = 0.0
    for d in (2, 3, 4):
        model = ising_model(np.full(d, 0.1), np.full(d - 1, 0.5))
        p = exact_normalize(model)
        for pop in (gsm_discrete_population, ratio_matching_population):
            g = fd_gradient(lambda t: pop(p, model, t), model.params)
            worst = max(worst, float(np.abs(g).max()))
    ok = worst < 1e-8
    _report(6, "population optimum", ok, f"worst grad max-norm {worst:.3e} (tol 1e-08)")
    assert ok


def test_criterion_07_reconstruction_and_adjoint():
    """Telescoping reconstruction recovers positive joints to 1e-10 and the
    marginalization adjoint identity is exact on finite spaces."""
    checks = verify.run_suite("brook") + verify.run_suite("adjoint")
    ok = all(c.passed for c in checks)
    worst = max(checks, key=lambda c: c.residual / c.tolerance)
    _report(7, "reconstruction/adjoint", ok,
            f"worst residual {worst.residual:.3e} ({worst.name})")
    assert ok


def test_criterion_08_grid_identity_residuals():
    """Log-identity and heat-kernel residuals are below 1e-4 at n=4096 and
    shrink by ~4x (within +-30%) when the spacing halves."""
    checks = verify.run_suite("lemma1") + verify.run_suite("heatpde")
    ok = all(c.passed for c in checks)
    worst = max(checks, key=lambda c: c.residual / c.tolerance)
    _report(8, "grid stencil residuals", ok,
            f"worst residual {worst.residual:.3e} ({worst.name})")
    assert ok


def test_criterion_09_consistency_at_desk_scale():
    """On a d=4 chain with couplings 0.5, each estimator's median max-norm
    error over 5 seeds is <= 0.05 at N=50000 and monotone across N."""
    model = ising_model(np.zeros(4), np.full(3, 0.5))
    objectives = [ObjectiveKind.GSM_DISCRETE, ObjectiveKind.RATIO_MATCHING,
                  ObjectiveKind.PSEUDO_LIKELIHOOD, ObjectiveKind.EXACT_MLE]
    n_list = [1000, 10000, 50000]
    rows = compare_estimators(model, n_list, [1, 2, 3, 4, 5], objectives)
    errs = collections.defaultdict(list)
    for r in rows:
        if r["seed"] != "":
            errs[(r["objective"], r["n"])].append(r["linf_error"])
    medians = {k: float(np.median(v)) for k, v in errs.items()}
    failures = []
    for obj in objectives:
        tag = obj.value
        med = [medians[(tag, n)] for n in n_list]
        if med[-1] > 0.05:
            failures.append(f"{tag}: median error {med[-1]:.3f} at N=50000")
        if not (med[0] >= med[1] >= med[2]):
            failures.append(f"{tag}: medians not monotone {med}")
    ok = not failures
    detail = "; ".join(
        f"{obj.value}@50000={medians[(obj.value, 50000)]:.4f}" for obj in objectives
    )
    _report(9, "consistency", ok, detail)
    assert ok, failures


def test_criterion_10_byte_reproducibility(tmp_path):
    """Every command is byte-identical under a repeated (config, seed)."""
    from scorematch.cli import main

    model_path = tmp_path / "m.json"
    model_path.write_text(model_to_json(ising_model([0.0, 0.0], [0.5])))
    commands = [
        ["generate", "--model", str(model_path), "--n", "200", "--seed", "5"],
        ["fit", "--model", str(model_path), "--objective", "pl",
         "--data", "enumerate", "--p-model", str(model_path)],
        ["scalespace", "--p", "gauss:0:1", "--q", "gauss:0.5:2",
         "--t", "0.1:0.3:0.1", "--grid-n", "1024"],
        ["compare", "--model", str(model_path), "--objectives", "pl,mle",
         "--n", "100", "--seeds", "1..2"],
    ]
    ok = True
    for i, cmd in enumerate(commands):
        a, b = tmp_path / f"a{i}", tmp_path / f"b{i}"
        assert main(cmd + ["--out", str(a)]) == 0
        assert main(cmd + ["--out", str(b)]) == 0
        ok &= a.read_bytes() == b.read_bytes()
    _report(10, "byte reproducibility", ok, f"{len(commands)} commands re-run")
    assert ok
