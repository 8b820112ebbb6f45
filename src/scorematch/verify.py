"""Self-contained numerical verification suites behind `scorematch verify`.

Each suite returns a list of Check records with the measured residual and the
tolerance it was held to.  The suites use the documented default grid
settings, so they double as the acceptance fixtures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import grids, operators, scalespace
from .models import (
    exact_normalize, gaussian_model, gen_gauss_model, ising_model, potts_model, sample,
)
from .objectives import (
    ObjectiveKind,
    empirical_objective,
    gsm_discrete_population,
    ratio_matching_population,
)
from .estimation import _POPULATION, fd_gradient
from .operators import discrete_joint, joint_conditionals, reconstruct_joint

DEFAULT_BOX = (-12.0, 12.0)
DEFAULT_N = 4096
T_STEP = 0.02


@dataclass(frozen=True)
class Check:
    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


def _gauss(mu, var, n=DEFAULT_N, box=DEFAULT_BOX):
    return grids.gaussian_1d(mu, var, box=box, n=n)


def _t_grid(lo=T_STEP):
    return np.round(np.arange(lo, 1.0 + 1e-9, T_STEP), 10)


def suite_theorem1() -> list[Check]:
    checks = []
    for label, q in [("var pair N(0,1)/N(0,2)", _gauss(0, 2)),
                     ("mean pair N(0,1)/N(0.5,1)", _gauss(0.5, 1))]:
        curve = scalespace.divergence_curve(_gauss(0, 1), q, _t_grid())
        checks.append(Check(f"theorem1 residual, {label}", scalespace.theorem1_residual(curve), 0.02))
    # closed-form anchor at t = 0: dKL/dt = -0.125 must equal -fisher/2 with
    # fisher computed on the unsmoothed grids.
    from .objectives import fisher_exact

    fisher0 = fisher_exact(_gauss(0, 1), _gauss(0, 2))
    checks.append(Check("theorem1 t=0 anchor |fisher - 0.25|", abs(fisher0 - 0.25), 1e-4))
    checks.append(
        Check("theorem1 t=0 anchor |dKL/dt + fisher/2|", abs(-0.125 + 0.5 * fisher0), 5e-5)
    )
    return checks


def suite_debruijn() -> list[Check]:
    t = _t_grid(0.1)
    gauss = scalespace.debruijn_residual(_gauss(0, 1), t)
    mix = scalespace.debruijn_residual(
        grids.mixture_1d([(0.5, -2.0, 1.0), (0.5, 2.0, 1.0)], box=DEFAULT_BOX, n=DEFAULT_N), t
    )
    return [
        Check("debruijn residual, N(0,1)", gauss, 0.01),
        Check("debruijn residual, two-bump mixture", mix, 0.02),
    ]


def suite_lemma1() -> list[Check]:
    box = (-8.0, 8.0)
    r_fine = scalespace.lemma1_residual(_gauss(0, 1, n=4096, box=box))
    r_coarse = scalespace.lemma1_residual(_gauss(0, 1, n=2048, box=box))
    ratio = r_coarse / r_fine
    return [
        Check("lemma1 residual at n=4096", r_fine, 1e-4),
        Check("lemma1 halving ratio deviation |ratio - 4|", abs(ratio - 4.0), 1.2),
    ]


def suite_heatpde() -> list[Check]:
    r_fine = scalespace.heat_pde_residual(_gauss(0, 1, n=4096), 0.5, 1e-3)
    r_coarse = scalespace.heat_pde_residual(_gauss(0, 1, n=2048), 0.5, 1e-3)
    ratio = r_coarse / r_fine
    return [
        Check("heat-kernel residual at n=4096", r_fine, 1e-4),
        Check("heat-kernel halving ratio deviation |ratio - 4|", abs(ratio - 4.0), 1.2),
    ]


def suite_adjoint() -> list[Check]:
    rng = np.random.default_rng(7)
    worst = 0.0
    for m in (2, 3):
        for d in (2, 3, 4):
            for _ in range(100):
                f = rng.random((m,) * d)
                g = rng.standard_normal((d,) + (m,) * d)
                worst = max(worst, operators.marginalization_adjoint_residual(f, g))
    checks = [Check("marginalization adjoint residual (finite spaces)", worst, 1e-12)]
    ax = grids.uniform_axis(-8.0, 8.0, 1024)
    f = np.exp(-(ax**2) / 2.0)
    g = [ax * np.exp(-((ax - 1.0) ** 2) / 2.0)]
    checks.append(
        Check("gradient adjoint residual (compact bumps)",
              operators.gradient_adjoint_residual(f, g, (ax,)), 1e-6)
    )
    return checks


def suite_brook() -> list[Check]:
    rng = np.random.default_rng(11)
    checks = []
    # hand case: independent Bernoulli(0.75) pair
    bern = np.array([0.25, 0.75])
    joint = discrete_joint(np.multiply.outer(bern, bern))
    ratio = operators.brook_ratio(joint_conditionals(joint), (1, 1), (0, 0))
    checks.append(Check("brook ratio Bernoulli(0.75)^2 |ratio - 9|", abs(ratio - 9.0), 1e-12))
    worst = 0.0
    for m in (2, 3):
        for d in (2, 3, 4):
            probs = rng.random((m,) * d) + 0.05
            joint = discrete_joint(probs)
            rebuilt = reconstruct_joint(joint_conditionals(joint), m, d)
            worst = max(worst, float(np.abs(rebuilt.probs - joint.probs).max()))
    checks.append(Check("brook reconstruction of random positive joints", worst, 1e-10))
    ising = ising_model([0.0, 0.0], [0.5])
    truth = exact_normalize(ising)
    rebuilt = reconstruct_joint(joint_conditionals(truth), 2, 2)
    checks.append(
        Check("brook reconstruction of Ising(theta=0.5)",
              float(np.abs(rebuilt.probs - truth.probs).max()), 1e-10)
    )
    return checks


def suite_eq16eq17() -> list[Check]:
    """Offset between the population divergence and the ratio-form objective
    weighted by the same joint, across random parameters.

    The claim under test is that the offset is independent of the model
    parameters; the measured residual is the spread of the offset.
    """
    rng = np.random.default_rng(3)
    worst = 0.0
    for d in range(2, 7):
        model = ising_model(np.zeros(d), np.zeros(d - 1))
        p = discrete_joint(rng.random((2,) * d) + 0.1)
        form = empirical_objective(model, ObjectiveKind.GSM_DISCRETE, p)
        offsets = []
        for _ in range(20):
            theta = rng.uniform(-1.0, 1.0, model.n_params)
            pop = gsm_discrete_population(p, model, theta)
            emp = form(theta).value
            offsets.append(pop - emp)
        worst = max(worst, float(np.ptp(offsets)))
    return [Check("eq16/eq17 offset spread over theta", worst, 1e-10)]


def suite_rm_identity() -> list[Check]:
    rng = np.random.default_rng(5)
    worst = 0.0
    model = ising_model(np.zeros(3), np.zeros(2))
    for _ in range(50):
        p = discrete_joint(rng.random((2, 2, 2)) + 0.05)
        theta = rng.uniform(-1.0, 1.0, model.n_params)
        a = gsm_discrete_population(p, model, theta)
        b = ratio_matching_population(p, model, theta)
        worst = max(worst, abs(a - b))
    return [Check("ratio-matching identity |D_phi - D_sq|", worst, 1e-12)]


def suite_gradcheck() -> list[Check]:
    rng = np.random.default_rng(13)
    worst = 0.0
    for d in (1, 2, 3):
        model = gaussian_model(np.zeros(d), np.eye(d))
        sm = empirical_objective(model, ObjectiveKind.SM_CONTINUOUS, sample(model, 50, seed=d))
        for _ in range(5):
            mu = rng.standard_normal(d)
            a = rng.standard_normal((d, d)) * 0.3
            cov = a @ a.T + np.eye(d)
            theta = gaussian_model(mu, cov).params
            worst = max(worst, _rel_gap(sm(theta).grad_theta, lambda th: sm(th).value, theta))
    checks = [Check("gaussian SM analytic vs FD gradient (rel)", worst, 1e-5)]
    worst = 0.0
    mle_rng = np.random.default_rng(19)
    for d in (1, 2, 3):
        model = gaussian_model(np.zeros(d), np.eye(d))
        data = sample(gaussian_model(mle_rng.standard_normal(d), np.eye(d) * 1.5), 50, seed=d)
        a = mle_rng.standard_normal((d, d)) * 0.3
        theta = gaussian_model(mle_rng.standard_normal(d), a @ a.T + np.eye(d)).params
        mle = empirical_objective(model, ObjectiveKind.EXACT_MLE, data)
        worst = max(worst, _rel_gap(mle(theta).grad_theta, lambda th: mle(th).value, theta))
    checks.append(Check("gaussian mle exact vs FD gradient (rel)", worst, 1e-6))
    sm = empirical_objective(gen_gauss_model(1.0), ObjectiveKind.SM_CONTINUOUS,
                             sample(gen_gauss_model(1.5), 200, seed=23))
    alphas = [np.array([alpha]) for alpha in np.linspace(0.05, 4.0, 8)]
    worst = max(_rel_gap(sm(a).grad_theta, lambda th: sm(th).value, a) for a in alphas)
    checks.append(Check("gen-gauss SM exact vs FD gradient (rel)", worst, 1e-6))
    worst = max(_product_gap(sm, a, np.ones(1)) for a in alphas)
    checks.append(Check("gen-gauss SM curvature product vs FD gradient (rel)", worst, 1e-6))
    star = [(0, 1), (0, 2), (0, 3)]
    directions = np.random.default_rng(29)  # the products' v, apart from rng's draws
    families = {
        "Ising star": ising_model(rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 3), star),
        "Potts m=3": potts_model(rng.uniform(-1, 1, (3, 3)), rng.uniform(-1, 1, 2)),
    }
    for family, model in families.items():
        data = sample(model, 200, seed=17)
        theta = model.params + rng.uniform(-0.5, 0.5, model.n_params)
        for kind in (ObjectiveKind.GSM_DISCRETE, ObjectiveKind.RATIO_MATCHING,
                     ObjectiveKind.PSEUDO_LIKELIHOOD, ObjectiveKind.EXACT_MLE):
            if kind is ObjectiveKind.RATIO_MATCHING and model.alphabet_size != 2:
                continue  # ratio matching rejects alphabets larger than 2
            objective = empirical_objective(model, kind, data)
            gap = _rel_gap(objective(theta).grad_theta, lambda th: objective(th).value, theta)
            checks.append(Check(f"{kind.value} exact vs FD gradient, {family} (rel)", gap, 1e-6))
            gap = _product_gap(objective, theta, directions.standard_normal(model.n_params))
            checks.append(Check(f"{kind.value} curvature product vs FD gradient, {family} (rel)",
                                gap, 1e-6))
        # Population fits: central differences of the enumeration oracle
        # against the gradient the optimizer takes, and of that gradient
        # against the curvature's product at the optimum, the model's own
        # params, which each population fit must reach; rm's come from the
        # gsm form, so Potts has them.
        joint = exact_normalize(model)
        for kind, (oracle, form) in _POPULATION.items():
            objective = empirical_objective(model, form, joint)
            gap = _rel_gap(objective(theta).grad_theta, lambda th: oracle(joint, model, th), theta)
            checks.append(Check(f"population {kind.value} exact vs FD gradient, {family} (rel)",
                                gap, 1e-6))
            gap = _product_gap(objective, model.params, directions.standard_normal(model.n_params))
            checks.append(Check(f"population {kind.value} curvature product vs FD gradient at the "
                                f"optimum, {family} (rel)", gap, 1e-6))
    return checks


def _rel_gap(exact, fun, theta) -> float:
    """Max-norm gap between an exact gradient and central differences of fun,
    relative to the larger of 1 and the numeric gradient's max-norm."""
    numeric = fd_gradient(fun, theta)
    return float(np.abs(exact - numeric).max()) / max(1.0, float(np.abs(numeric).max()))


def _product_gap(objective, theta, v) -> float:
    """`_rel_gap` of the curvature's product with v, the gradient of the
    exact gradient's component along v."""
    return _rel_gap(objective(theta).curvature(v), lambda th: objective(th).grad_theta @ v, theta)


SUITES = {
    "theorem1": suite_theorem1,
    "debruijn": suite_debruijn,
    "lemma1": suite_lemma1,
    "heatpde": suite_heatpde,
    "adjoint": suite_adjoint,
    "brook": suite_brook,
    "eq16eq17": suite_eq16eq17,
    "rm-identity": suite_rm_identity,
    "gradcheck": suite_gradcheck,
}


def run_suite(name: str) -> list[Check]:
    if name == "all":
        checks = []
        for key in SUITES:
            checks.extend(SUITES[key]())
        return checks
    if name not in SUITES:
        raise KeyError(name)
    return SUITES[name]()
