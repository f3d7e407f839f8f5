"""Adaptive polynomial chaos surrogates for vector-valued model responses.

Core workflow: describe the inputs with a DistributionSpec, fit with
fit_mvsa (adaptive) or fit_fixed (total-degree baseline), then post-process
the model for moments and sensitivity indices.
"""

from .benchmark import (
    BeamConfig,
    ExperimentPlan,
    beam_deflection_rows,
    run_beam_experiment,
    sample_inputs,
    write_experiment_report,
)
from .errors import ConfigError, DataError, DomainError, MvsaError
from .multi_index import MultiIndexSet, total_degree_set
from .mvsa_engine import (
    MvsaConfig,
    PceModel,
    expand_basis,
    fit_fixed,
    fit_mvsa,
    load_model,
    predict,
    prune_basis,
    save_model,
    sensitivity_indicators,
)
from .polynomial_basis import DistributionSpec, Marginal
from .regression import TrainingData, rmse
from .uq import (
    MomentReport,
    SensitivityReport,
    generalized_sobol,
    moments,
    monte_carlo_reference,
    sensitivity_report,
    sobol_indices,
)

__version__ = "0.1.0"

__all__ = [
    "BeamConfig",
    "ConfigError",
    "DataError",
    "DistributionSpec",
    "DomainError",
    "ExperimentPlan",
    "Marginal",
    "MomentReport",
    "MultiIndexSet",
    "MvsaConfig",
    "MvsaError",
    "PceModel",
    "SensitivityReport",
    "TrainingData",
    "beam_deflection_rows",
    "expand_basis",
    "fit_fixed",
    "fit_mvsa",
    "generalized_sobol",
    "load_model",
    "moments",
    "monte_carlo_reference",
    "predict",
    "prune_basis",
    "rmse",
    "run_beam_experiment",
    "sample_inputs",
    "save_model",
    "sensitivity_indicators",
    "sensitivity_report",
    "sobol_indices",
    "total_degree_set",
    "write_experiment_report",
]
