"""Robust phase retrieval via median-truncated gradient descent.

Recovers a real signal x from squared inner products y_i = (a_i . x)^2
that may carry dense bounded noise and a constant fraction of arbitrary
outliers.  Median-based truncation screens corrupted samples out of both
the spectral initialization and the gradient updates; mean-statistic and
untruncated baselines are included for comparison, along with a seeded,
thread-schedule-independent experiment harness that writes CSV.
"""

from .errors import (
    DegenerateMeasurements,
    InvalidInputError,
    NumericalFailure,
    RobustPhaseError,
)
from .metrics import is_success, relative_error, sign_flip_fraction
from .model import (
    TAG_CORRUPTION,
    TAG_ENSEMBLE,
    TAG_INIT,
    TAG_SIGNAL,
    CorruptionSpec,
    MeasurementSet,
    OutlierModel,
    ProblemInstance,
    SensingEnsemble,
    apply_corruption,
    clean_measurements,
    derive_seed,
    generate_problem,
    sample_ensemble,
    sample_signal,
)
from .quantile import (
    chi_square_quantile,
    product_gaussian_cdf,
    product_gaussian_density,
    product_gaussian_median,
    sample_median,
    sample_quantile,
)
from .solvers import (
    Algorithm,
    IterateTrace,
    SolverConfig,
    mrwf_gradient,
    mtwf_gradient,
    run_solver,
    rwf_gradient,
    trimean_twf_gradient,
    twf_gradient,
    validate_twf_params,
)
from .spectral import (
    MEDIAN_INTENSITY_CALIBRATION,
    InitResult,
    leading_eigenvector,
    mean_spectral_init,
    median_spectral_init,
    scale_estimate,
)

__version__ = "0.1.0"
