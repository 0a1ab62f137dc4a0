"""Minimum divergence estimation and testing for moment condition models.

The package estimates parameters defined by moment constraints by
minimizing a power-type divergence between the model set and the data,
computed through its concave dual form.  On top of the estimator it offers
hypothesis tests with chi-square calibration, confidence regions, an
analytic power approximation, sample-size planning, and a reproducible
Monte Carlo harness.
"""

__version__ = "1.0.0"

from .distributions import chi2_cdf, chi2_quantile, normal_cdf, normal_quantile
from .dual import DualSolution, chi2_closed_form, solve_inner
from .errors import (DataError, DomainError, EstimationError,
                     NotApplicableError, ParameterSpaceError, PhidivError,
                     RankDeficiencyError)
from .estimate import (EstimateOptions, EstimationResult, estimate,
                       profile_objective, variance_blocks)
from .families import (CHI2, CHI2M, HELLINGER, KL, KLM, DivergenceFamily,
                       family, power_family)
from .inference import (TestReport, confidence_region, power_approx,
                        sample_size, sample_size_real, test_model,
                        test_theta_composite, test_theta_simple)
from .models import (MomentModel, WeightedSample, builtin_model, get_model,
                     load_csv, register_model)
from .simulate import (SimulationPlan, approx_power_curve, generate, mc_power,
                       reproduce_figure1, write_power_csv)

__all__ = [
    "__version__",
    "DivergenceFamily", "family", "power_family",
    "KLM", "KL", "CHI2", "CHI2M", "HELLINGER",
    "MomentModel", "WeightedSample", "builtin_model", "register_model",
    "get_model", "load_csv",
    "DualSolution", "solve_inner", "chi2_closed_form",
    "EstimateOptions", "EstimationResult", "estimate",
    "profile_objective", "variance_blocks",
    "TestReport", "test_model", "test_theta_simple", "test_theta_composite",
    "confidence_region", "power_approx", "sample_size", "sample_size_real",
    "chi2_cdf", "chi2_quantile", "normal_cdf", "normal_quantile",
    "SimulationPlan", "generate", "mc_power", "approx_power_curve",
    "reproduce_figure1", "write_power_csv",
    "PhidivError", "DomainError", "ParameterSpaceError", "RankDeficiencyError",
    "EstimationError", "NotApplicableError", "DataError",
]
