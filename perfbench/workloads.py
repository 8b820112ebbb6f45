"""The benchmark's workloads, run through the public `scorematch` API.

A workload runs in rounds. Round r builds its inputs from (workload seed, r)
(`setup`, timed as set-up), runs the timed operations (`solve`, timed as the
time to a checked estimate) and checks every output against a reference
(`check`, untimed). `extra` runs checked operations that stay outside the
timing, such as fits of estimators with a known defect.

Only the default optimizer configuration is used, and only the `FitResult`
fields `theta_hat`, `converged` and `iters` are read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Parameter errors are scaled to this sample size, as criterion 9's bound is:
# a fit on N samples passes when its max-norm error is <= 0.05 * sqrt(REF_N / N).
REF_N = 50_000
CONSISTENCY_TOL = 0.05
POPULATION_TOL = 1e-5
CLOSED_FORM_TOL = 1e-6


@dataclass(frozen=True)
class Op:
    """One checked operation. It fails unless its estimate is accurate (meets
    its reference) and its fit converged; `err` feeds theta_err."""

    name: str
    timed: bool
    accurate: bool
    converged: bool
    err: float | None
    note: str

    @property
    def ok(self) -> bool:
        return self.accurate and self.converged


def derive_seed(seed: int, *path: int) -> int:
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def attempt(fn, *args):
    """Call fn; an operation that raises is returned as its exception, so the
    run records it as a failure and goes on."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - any error is a failed operation
        return exc


def linf(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def fit_op(name, res, theta_star, n, timed, tol=None) -> Op:
    """Check a fit: it must converge and land within tol of theta_star
    (default: criterion 9's bound scaled to n samples)."""
    if isinstance(res, Exception):
        return Op(name, timed, False, False, None, f"raised {res!r}")
    err = linf(res.theta_hat, theta_star)
    bound = CONSISTENCY_TOL * math.sqrt(REF_N / n) if tol is None else tol
    note = f"converged={bool(res.converged)} iters={res.iters} err={err:.3e} bound={bound:.1e}"
    scaled = None if tol is not None else err * math.sqrt(n / REF_N)
    return Op(name, timed, err <= bound, bool(res.converged), scaled, note)


# Why: criterion 9's setting is the optimizer-bound case; 16 distinct states make tables nearly free.
class DeskIsing4:
    name = "desk-ising4"
    round_s = 0.95
    n_list = (1_000, 10_000, 50_000)

    def __init__(self, sm):
        self.sm = sm
        self.kind = sm.objectives.ObjectiveKind

    def setup(self, seed, r):
        models = self.sm.models
        truth = models.ising_model(np.zeros(4), np.full(3, 0.5))
        joint = models.exact_normalize(truth)
        data = [
            models.sample(truth, n, derive_seed(seed, 1, r, k)) for k, n in enumerate(self.n_list)
        ]
        return truth, joint, data

    def solve(self, inputs):
        truth, joint, data = inputs
        fit, K = self.sm.estimation.fit, self.kind
        empirical = [attempt(fit, truth, K.PSEUDO_LIKELIHOOD, d) for d in data]
        population = {
            k: attempt(fit, truth, k, joint)
            for k in (K.GSM_DISCRETE, K.RATIO_MATCHING, K.PSEUDO_LIKELIHOOD, K.EXACT_MLE)
        }
        return empirical, population

    def check(self, inputs, outputs):
        truth, _joint, _data = inputs
        empirical, population = outputs
        ops = [
            fit_op(f"pl N={n}", res, truth.params, n, True)
            for n, res in zip(self.n_list, empirical)
        ]
        ops += [
            fit_op(f"population {k.value}", res, truth.params, None, True, POPULATION_TOL)
            for k, res in population.items()
        ]
        return ops

    def extra(self, seed, inputs, r):
        # Empirical gsm and rm fits stop at the uniform-conditional point today
        # (ROADMAP item 2) and must show as failures. Their time joins solve_s
        # once they are fixed, so that the fix does not read as a slowdown.
        # Empirical mle takes 19 to 2000 iterations depending on the dataset,
        # which spreads solve_s by about a quarter across seeds, so it is
        # checked on the first round only and stays outside the timing.
        truth, _joint, data = inputs
        fit, K = self.sm.estimation.fit, self.kind
        kinds = [K.GSM_DISCRETE, K.RATIO_MATCHING] + ([K.EXACT_MLE] if r == 0 else [])
        return [
            fit_op(f"{k.value} N={n}", attempt(fit, truth, k, d), truth.params, n, False)
            for k in kinds
            for n, d in zip(self.n_list, data)
        ]


# Why: the model-layer-bound case; ~3.1k of 4096 states are distinct (stand-in for d=16).
class WideIsing12:
    name = "wide-ising12"
    round_s = 13.5
    n = 50_000

    def __init__(self, sm):
        self.sm = sm
        self.kind = sm.objectives.ObjectiveKind

    def setup(self, seed, r):
        # The dataset does not depend on the workload seed. One round costs
        # about 13 s, so a run holds one or two datasets, and the parameter
        # error of so few datasets spreads by half across seeds; a fixed
        # dataset keeps theta_err a deterministic guard on the estimator.
        # The fit time hardly depends on the dataset (20 pl iterations).
        models = self.sm.models
        truth = models.ising_model(np.full(12, 0.1), np.full(11, 0.5))
        return truth, models.sample(truth, self.n, derive_seed(0, 2, r))

    def solve(self, inputs):
        truth, data = inputs
        fit, K = self.sm.estimation.fit, self.kind
        return [attempt(fit, truth, k, data) for k in (K.PSEUDO_LIKELIHOOD, K.EXACT_MLE)]

    def check(self, inputs, outputs):
        truth, _data = inputs
        return [
            fit_op(f"{name} N={self.n}", res, truth.params, self.n, True)
            for name, res in zip(("pl", "mle"), outputs)
        ]

    def extra(self, seed, inputs, r):
        return []


# Why: the paper's main estimator, on continuous models; analytic gradients, no finite differences.
class GaussSM:
    name = "gauss-sm"
    round_s = 0.3
    n = 5_000
    # Covariance spectra: the timed fits use condition number 2; the untimed
    # probe uses condition number 5, where the fit stops 3e-6 to 6e-6 away from
    # the closed form, beyond criterion 3's 1e-6.
    spectrum = np.geomspace(1.0, 2.0, 4)
    probe_spectrum = np.geomspace(1.0, 5.0, 4)
    probe_n = 2_000

    def __init__(self, sm):
        self.sm = sm

    def _truth(self, seed, spectrum):
        rng = np.random.default_rng(seed)
        q, r = np.linalg.qr(rng.standard_normal((4, 4)))
        q = q * np.sign(np.diag(r))
        cov = (q * spectrum) @ q.T
        return self.sm.models.gaussian_model(rng.standard_normal(4), (cov + cov.T) / 2)

    def setup(self, seed, r):
        models = self.sm.models
        truth = self._truth(derive_seed(seed, 3, r), self.spectrum)
        template = models.gaussian_model(np.zeros(4), np.eye(4))
        return truth, template, models.sample(truth, self.n, derive_seed(seed, 3, r, 1))

    def solve(self, inputs):
        _truth, template, data = inputs
        return attempt(self._fit, template, data)

    def _fit(self, template, data):
        return self.sm.estimation.fit(template, self.sm.objectives.ObjectiveKind.SM_CONTINUOUS, data)

    def _op(self, name, truth, data, res, timed):
        if isinstance(res, Exception):
            return Op(name, timed, False, False, None, f"raised {res!r}")
        gap = linf(res.theta_hat, self.sm.estimation.closed_form_gaussian_sm(data))
        err = linf(res.theta_hat, truth.params) * math.sqrt(data.n / REF_N)
        note = f"converged={bool(res.converged)} iters={res.iters} closed-form gap={gap:.2e}"
        return Op(name, timed, gap <= CLOSED_FORM_TOL, bool(res.converged), err if timed else None, note)

    def check(self, inputs, outputs):
        truth, _template, data = inputs
        return [self._op(f"sm N={self.n}", truth, data, outputs, True)]

    def extra(self, seed, inputs, r):
        if r != 0:
            return []
        truth = self._truth(derive_seed(seed, 4), self.probe_spectrum)
        template = inputs[1]
        data = self.sm.models.sample(truth, self.probe_n, derive_seed(seed, 4, 1))
        res = attempt(self._fit, template, data)
        return [self._op(f"sm condition 5 N={self.probe_n}", truth, data, res, False)]


# Why: the only workload for scalespace, grids and operators; it bypasses models and estimation.
class ScaleSpace:
    # The inputs are the fixed density pairs of scripts/run_divergence_curves.py.
    # The functions are called directly rather than through verify suites, so
    # that suites added later do not change this workload.
    name = "scalespace"
    round_s = 1.7
    box = (-12.0, 12.0)
    grid_n = 4096
    curve_t = np.round(np.arange(0.02, 1.0 + 1e-9, 0.02), 12)
    debruijn_t = np.round(np.arange(0.1, 1.0 + 1e-9, 0.02), 10)
    theorem1_tol = 0.02
    debruijn_tols = {"N(0,1)": 0.01, "mixture": 0.02}

    def __init__(self, sm):
        self.sm = sm

    def setup(self, seed, r):
        grids = self.sm.grids
        g = lambda mu, var: grids.gaussian_1d(mu, var, box=self.box, n=self.grid_n)  # noqa: E731
        mixture = grids.mixture_1d(
            [(0.5, -2.0, 1.0), (0.5, 2.0, 1.0)], box=self.box, n=self.grid_n
        )
        base = g(0.0, 1.0)
        pairs = {
            "var_pair": (base, g(0.0, 2.0)),
            "mean_pair": (base, g(0.5, 1.0)),
            "mixture_pair": (base, mixture),
        }
        return pairs, {"N(0,1)": base, "mixture": mixture}

    def solve(self, inputs):
        pairs, singles = inputs
        ss = self.sm.scalespace
        curves = {
            name: attempt(ss.divergence_curve, p, q, self.curve_t) for name, (p, q) in pairs.items()
        }
        debruijn = {
            name: attempt(ss.debruijn_residual, p, self.debruijn_t) for name, p in singles.items()
        }
        return curves, debruijn

    def check(self, inputs, outputs):
        curves, debruijn = outputs
        ops = []
        for name, curve in curves.items():
            if not isinstance(curve, Exception):
                curve = attempt(self.sm.scalespace.theorem1_residual, curve)
            ops.append(self._op(f"theorem1 {name}", curve, self.theorem1_tol))
        for name, res in debruijn.items():
            ops.append(self._op(f"debruijn {name}", res, self.debruijn_tols[name]))
        return ops

    @staticmethod
    def _op(name, residual, tol):
        if isinstance(residual, Exception):
            return Op(name, True, False, False, None, f"raised {residual!r}")
        note = f"residual={residual:.3e} tol={tol}"
        return Op(name, True, bool(residual <= tol), True, float(residual), note)

    def extra(self, seed, inputs, r):
        return []


WORKLOADS = {w.name: w for w in (DeskIsing4, WideIsing12, GaussSM, ScaleSpace)}
