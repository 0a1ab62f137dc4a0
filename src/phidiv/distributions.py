"""Chi-square and standard normal distribution functions.

Self-contained implementations (no external statistical tables): the
chi-square CDF goes through the regularized lower incomplete gamma function
computed by power series or continued fraction, the normal CDF through the
complementary error function, and both quantiles by bracketing plus Newton
refinement.  Absolute accuracy is better than 1e-10 over the usable range.
"""

from __future__ import annotations

import math
from functools import lru_cache

_EPS = 1e-15
_MAX_ITER = 500


def _gamma_series(a, x):
    """Regularized lower incomplete gamma P(a, x) by series; x < a + 1."""
    if x <= 0.0:
        return 0.0
    ap = a
    summ = term = 1.0 / a
    for _ in range(_MAX_ITER):
        ap += 1.0
        term *= x / ap
        summ += term
        if abs(term) < abs(summ) * _EPS:
            break
    return summ * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _gamma_cf(a, x):
    """Regularized upper incomplete gamma Q(a, x) by Lentz continued fraction."""
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def gamma_p(a, x):
    """Regularized lower incomplete gamma P(a, x)."""
    if a <= 0.0:
        raise ValueError("shape parameter must be positive")
    if x < 0.0:
        raise ValueError("x must be nonnegative")
    if x == 0.0:
        return 0.0
    if x < a + 1.0:
        return min(_gamma_series(a, x), 1.0)
    return max(1.0 - _gamma_cf(a, x), 0.0)


def chi2_cdf(x, k):
    """CDF of the chi-square distribution with k degrees of freedom."""
    if k < 1:
        raise ValueError("degrees of freedom must be >= 1")
    if x < 0.0:
        raise ValueError("x must be nonnegative")
    return gamma_p(0.5 * k, 0.5 * x)


def chi2_pdf(x, k):
    if x <= 0.0:
        return 0.0
    a = 0.5 * k
    return math.exp((a - 1.0) * math.log(x) - 0.5 * x - a * math.log(2.0)
                    - math.lgamma(a))


def _solve_cdf(cdf, pdf, p, x, lo, hi, rtol):
    """x with cdf(x) = p, from x inside the bracket (lo, hi): Newton steps,
    bisection where Newton leaves the bracket or the density vanishes."""
    for _ in range(200):
        f = cdf(x) - p
        if f > 0.0:
            hi = x
        else:
            lo = x
        dens = pdf(x)
        xn = x - f / dens if dens > 0.0 else math.nan  # nan fails the test below
        if not lo < xn < hi:
            xn = 0.5 * (lo + hi)
        if abs(xn - x) <= rtol * (1.0 + abs(x)):
            return xn
        x = xn
    return x


@lru_cache(maxsize=256)
def chi2_quantile(p, k):
    """Quantile of the chi-square distribution with k degrees of freedom.

    Memoized: tests and power calculations ask for the same few (p, k).
    The search calls gamma_p, not chi2_cdf, so that chi2_cdf's call count
    does not depend on what the cache already holds.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("probability must lie in (0, 1)")
    if k < 1:
        raise ValueError("degrees of freedom must be >= 1")
    a = 0.5 * k  # chi2_cdf(x, k) = gamma_p(a, x / 2)
    lo, hi = 0.0, max(4.0 * k, 8.0)
    while gamma_p(a, 0.5 * hi) < p:
        hi *= 2.0
        if hi > 1e12:
            break
    return _solve_cdf(lambda x: gamma_p(a, 0.5 * x), lambda x: chi2_pdf(x, k), p,
                      0.5 * (lo + hi), lo, hi, 1e-13)


def normal_cdf(x):
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def normal_pdf(x):
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def normal_quantile(p):
    """Standard normal quantile by bracketing plus Newton refinement."""
    if not 0.0 < p < 1.0:
        raise ValueError("probability must lie in (0, 1)")
    if p == 0.5:
        return 0.0
    return _solve_cdf(normal_cdf, normal_pdf, p, 0.0, -40.0, 40.0, 1e-14)
