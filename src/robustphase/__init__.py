"""Robust phase retrieval via median-truncated gradient descent.

Recovers a real signal x from squared inner products y_i = (a_i . x)^2
that may carry dense bounded noise and a constant fraction of arbitrary
outliers.  Median-based truncation screens corrupted samples out of both
the spectral initialization and the gradient updates; mean-statistic and
untruncated baselines are included for comparison, along with a seeded,
thread-schedule-independent experiment harness that writes CSV.

Each module's ``__all__`` is the one list of its public names; every one
but the harness's is republished here.
"""

from .errors import *  # noqa: F403
from .metrics import *  # noqa: F403
from .model import *  # noqa: F403
from .quantile import *  # noqa: F403
from .solvers import *  # noqa: F403
from .spectral import *  # noqa: F403

__version__ = "0.1.0"
