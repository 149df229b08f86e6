"""Order statistics and the distributions behind median-based truncation.

Empirical side: the generalized quantile of a finite sample is the
``ceil(p * m)``-th order statistic, i.e. the smallest sample value whose
empirical CDF reaches ``p``.  With this convention the median of an
even-length sample is the lower of the two central values, never their
average, and sample quantiles commute with permutations of the data.

Analytic side: the magnitude of a product of two jointly Gaussian unit
variables with correlation ``rho`` has density

    psi_rho(x) = [exp(rho*x/(1-rho^2)) + exp(-rho*x/(1-rho^2))]
                 * K0(x/(1-rho^2)) / (pi * sqrt(1-rho^2)),   x > 0,

degenerating to the chi-square density with one degree of freedom,
``exp(-x/2) / sqrt(2*pi*x)``, when ``|rho| = 1``.  Its median and the
chi-square quantiles calibrate the truncation thresholds used elsewhere
in the package.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidInputError, NumericalFailure, _vector

__all__ = [
    "sample_quantile",
    "sample_median",
    "product_gaussian_density",
    "product_gaussian_cdf",
    "product_gaussian_median",
    "chi_square_quantile",
]

# Lower quadrature endpoint: psi_rho has an integrable log singularity at 0.
# The mass of (0, eps] grows with |rho| to erf(sqrt(eps/2)) ~ sqrt(2 eps/pi),
# about 8e-16 at eps = 1e-30, far inside the 1e-8 budget for every rho.
_CDF_EPS = 1e-30

# Upper endpoint: every psi_rho tail is dominated by the |rho| = 1 chi-square
# tail, and erfc(sqrt(40/2)) < 3e-10, inside the 1e-9 truncation budget.
_CDF_XMAX = 40.0


def _rank(p: float, m: int) -> int:
    # ceil(p * m), treating p*m within one part in 1e12 of an integer as that
    # integer, so float noise cannot bump the rank (p = 0.51, m = 100 -> 51).
    pm = p * m
    return math.ceil(pm - 1e-12 * max(1.0, pm))


def _order_statistic(xs: np.ndarray, p: float) -> float:
    # The ceil(p * m)-th smallest entry of a checked sample, by one partition.
    k = min(max(_rank(p, xs.size), 1), xs.size)
    return float(np.partition(xs, k - 1)[k - 1])


def sample_quantile(values, p: float) -> float:
    """Generalized quantile: the ``ceil(p * m)``-th order statistic.

    Args:
        values: nonempty 1-D collection of finite reals.
        p: quantile level, strictly between 0 and 1.

    Returns:
        The smallest sample value x with empirical CDF(x) >= p.  Selection
        runs in linear time via introselect (``numpy.partition``), which is
        deterministic for a fixed input; no RNG is involved.

    Raises:
        InvalidInputError: empty input, non-finite entries, or p outside (0, 1).
    """
    xs = _vector(values, "sample", finite=True)
    if not 0.0 < p < 1.0:
        raise InvalidInputError(f"quantile level must lie in (0, 1), got {p}")
    return _order_statistic(xs, p)


def sample_median(values) -> float:
    """Median under the generalized-quantile convention (p = 1/2).

    For even m this is the ``(m // 2)``-th order statistic, the lower of the
    two central values; for odd m it is the usual middle value.  The rank
    ``ceil(m / 2)`` comes from the same rule and selection that
    ``sample_quantile`` uses.
    """
    return _order_statistic(_vector(values, "sample", finite=True), 0.5)


def product_gaussian_density(x, rho: float):
    """Density psi_rho of |u * v| for unit Gaussians with correlation rho.

    K0 is evaluated through ``scipy.special.k0e`` (Cephes), whose relative
    error is below 1e-13 across [1e-6, 50], well inside the 1e-8 budget this
    module requires.  The exponentially scaled form folds the exp factors
    into exp(-x/(1+rho)) + exp(-x/(1-rho)), which avoids overflow as
    |rho| -> 1.  At |rho| = 1 the chi-square(1) branch applies.

    Args:
        x: evaluation point(s), strictly positive.
        rho: correlation in [-1, 1].

    Returns:
        Density value, a float for scalar x and an ndarray otherwise.

    Raises:
        InvalidInputError: x <= 0 anywhere, or rho outside [-1, 1].
    """
    if not -1.0 <= rho <= 1.0:
        raise InvalidInputError(f"correlation must lie in [-1, 1], got {rho}")
    arr = np.asarray(x, dtype=float)
    if not np.all(arr > 0.0):
        raise InvalidInputError("density is defined for x > 0 only")
    if abs(rho) == 1.0:
        out = np.exp(-arr / 2.0) / np.sqrt(2.0 * math.pi * arr)
    else:
        from scipy.special import k0e  # scipy stays off the solver path

        q = 1.0 - rho * rho
        out = (
            (np.exp(-arr / (1.0 + rho)) + np.exp(-arr / (1.0 - rho)))
            * k0e(arr / q)
            / (math.pi * math.sqrt(q))
        )
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def product_gaussian_cdf(theta: float, rho: float) -> float:
    """CDF of psi_rho at theta, by adaptive quadrature from 0+.

    The |rho| = 1 branch uses the closed chi-square form erf(sqrt(theta/2));
    otherwise the density is integrated on (1e-30, min(theta, 40)] with
    Gauss-Kronrod adaptive quadrature after the substitution x = exp(u),
    which turns the log singularity at 0 into a smooth, exponentially
    decaying integrand.

    Raises:
        InvalidInputError: theta <= 0 or rho outside [-1, 1].
        NumericalFailure: the quadrature cannot certify 1e-8 accuracy.
    """
    if not -1.0 <= rho <= 1.0:
        raise InvalidInputError(f"correlation must lie in [-1, 1], got {rho}")
    if not theta > 0.0:
        raise InvalidInputError(f"CDF argument must be positive, got {theta}")
    # scipy is imported inside the oracles: it costs most of the package's
    # import time and memory, and no solver or experiment uses it.
    if abs(rho) == 1.0:
        from scipy.special import erf

        return float(erf(math.sqrt(theta / 2.0)))
    if theta <= _CDF_EPS:
        return 0.0
    from scipy.integrate import quad

    def integrand(u: float) -> float:
        x = math.exp(u)
        return product_gaussian_density(x, rho) * x

    val, abserr = quad(
        integrand,
        math.log(_CDF_EPS),
        math.log(min(theta, _CDF_XMAX)),
        epsabs=1e-12,
        epsrel=1e-10,
        limit=200,
    )
    if abserr > 1e-8:
        raise NumericalFailure(
            f"CDF quadrature error estimate {abserr:.2e} exceeds 1e-8"
        )
    return float(val)


def product_gaussian_median(rho: float) -> float:
    """Median of psi_rho: the root of CDF(theta) - 1/2, by Brent's method.

    ``scipy.optimize.brentq`` searches the bracket [1e-4, 2.0] to
    ``xtol=1e-12``.  The bracket contains the median for every rho: the CDF
    at 1e-4 is below 1e-3 and at 2.0 is above erf(1) = 0.84 even in the
    heaviest-tailed |rho| = 1 case.

    Raises:
        InvalidInputError: rho outside [-1, 1].
        NumericalFailure: the CDF does not change sign on the bracket, or
            the search does not converge.
    """
    if not -1.0 <= rho <= 1.0:
        raise InvalidInputError(f"correlation must lie in [-1, 1], got {rho}")
    from scipy.optimize import brentq  # scipy stays off the solver path

    try:
        return float(brentq(lambda t: product_gaussian_cdf(t, rho) - 0.5, 1e-4, 2.0, xtol=1e-12))
    except (ValueError, RuntimeError) as exc:
        raise NumericalFailure(f"median search on [1e-4, 2.0] failed: {exc}") from exc


def chi_square_quantile(p: float) -> float:
    """Quantile of the chi-square distribution with one degree of freedom.

    The CDF is erf(sqrt(x/2)), so the quantile is 2 * erfinv(p)^2 in
    closed form.

    Raises:
        InvalidInputError: p outside (0, 1).
    """
    if not 0.0 < p < 1.0:
        raise InvalidInputError(f"quantile level must lie in (0, 1), got {p}")
    from scipy.special import erfinv  # scipy stays off the solver path

    return float(2.0 * erfinv(p) ** 2)
