"""Partition-free parameter estimation and scale-space divergence diagnostics."""

from .grids import GridDensity, gaussian_1d, grid_density, mixture_1d, uniform_axis
from .models import (
    Dataset,
    Model,
    ModelKind,
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
    zero_sum_gauge,
)
from .objectives import (
    GaussianMoments,
    ObjectiveKind,
    ObjectiveValue,
    SupportError,
    empirical_objective,
    fisher_exact,
    gsm_discrete_population,
    kl_exact,
    ratio_matching_population,
)
from .operators import (
    DiscreteJoint,
    brook_ratio,
    discrete_joint,
    joint_conditionals,
    reconstruct_joint,
)
from .scalespace import (
    DivergenceCurve,
    debruijn_residual,
    divergence_curve,
    entropy,
    fisher_information,
    heat_pde_residual,
    lemma1_residual,
    smooth,
    theorem1_residual,
)
from .estimation import (
    FitResult,
    closed_form_gaussian_sm,
    compare_estimators,
    fd_gradient,
    fit,
)

__all__ = [name for name in dir() if not name.startswith("_")]
