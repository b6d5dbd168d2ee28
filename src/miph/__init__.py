"""Multivariate inhomogeneous phase-type modelling of joint lifetimes.

Joint survival models in which coupled lifetimes (for instance the two
members of an insured couple) share the start state of otherwise independent
Markov jump processes, each observed through a Gompertz-type time transform.
The package covers exact joint density/survival/CDF evaluation, conditioning,
closed-form and quadrature dependence measures, EM estimation from
right-censored data with covariate-driven initial vectors, a kernel
conditional Kaplan-Meier estimator for validation, and CSV/JSON interchange.
"""

from .dataio import (
    TIME_SCALE,
    beran_cdf,
    generate_synthetic,
    load_csv,
    load_model,
    save_model,
    standard_design,
    write_csv,
)
from .estimation import (
    FitConfig,
    FitReport,
    ObservationSet,
    SufficientStats,
    e_step,
    fit,
    i_step,
    m_step,
    observed_loglik,
    r_step,
    transform_data,
)
from .exceptions import DataValidationError, NumericalError, SingularMatrixError
from .model import (
    Margin,
    MIPHModel,
    condition_on_survival,
    condition_on_value,
    conditional_expectation,
    cross_ratio,
    joint_cdf,
    joint_density,
    joint_survival,
    kendall_tau,
    marginal_density,
    marginal_survival,
    psi1,
    psi2,
    sample_joint,
    sample_joint_rows,
    spearman_rho,
)
from .phasetype import (
    GompertzTransform,
    SubIntensity,
    iph_density,
    iph_survival,
    ph_density,
    ph_survival,
    random_sub_intensity,
    sample_absorption_times,
    transition_mask,
    validate_initial_vector,
)

__version__ = "0.1.0"

__all__ = [
    "TIME_SCALE",
    "beran_cdf",
    "generate_synthetic",
    "load_csv",
    "load_model",
    "save_model",
    "standard_design",
    "write_csv",
    "FitConfig",
    "FitReport",
    "ObservationSet",
    "SufficientStats",
    "e_step",
    "fit",
    "i_step",
    "m_step",
    "observed_loglik",
    "r_step",
    "transform_data",
    "DataValidationError",
    "NumericalError",
    "SingularMatrixError",
    "Margin",
    "MIPHModel",
    "condition_on_survival",
    "condition_on_value",
    "conditional_expectation",
    "cross_ratio",
    "joint_cdf",
    "joint_density",
    "joint_survival",
    "kendall_tau",
    "marginal_density",
    "marginal_survival",
    "psi1",
    "psi2",
    "sample_joint",
    "sample_joint_rows",
    "spearman_rho",
    "GompertzTransform",
    "SubIntensity",
    "iph_density",
    "iph_survival",
    "ph_density",
    "ph_survival",
    "random_sub_intensity",
    "sample_absorption_times",
    "transition_mask",
    "validate_initial_vector",
    "__version__",
]
