"""Hypothesis tests, confidence regions, power approximation, sample size.

Three tests are provided, all based on twice the sample size times an
estimated divergence:

  * model test (over-identified models only): chi-square limit with
    l - d degrees of freedom;
  * simple parameter test at a fixed theta: chi-square limit with l degrees;
  * ratio test (fixed theta against the unrestricted fit): chi-square limit
    with d degrees.

An unbounded inner solve at the tested theta means the constraint set is
empty in the direction of the data (for the empirical-likelihood family:
theta outside the convex hull); this is overwhelming evidence against the
null, so it is reported as a rejection carrying an explanatory flag rather
than as an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .distributions import chi2_cdf, chi2_quantile, normal_cdf, normal_quantile
from .dual import criterion_variance, solve_inner, solve_inner_many
from .errors import EstimationError, NotApplicableError, PhidivError
from .estimate import EstimateOptions, estimate, estimate_many

INF = float("inf")


@dataclass
class TestReport:
    kind: str
    statistic: float
    df: int
    p_value: float
    critical_value: float
    alpha: float
    decision: str          # "reject" | "accept"
    variance_sigma2: float | None = None
    flag: str | None = None

    def to_dict(self):
        out = {
            "kind": self.kind,
            "statistic": self.statistic,
            "df": self.df,
            "p_value": self.p_value,
            "critical_value": self.critical_value,
            "alpha": self.alpha,
            "decision": self.decision,
        }
        if self.variance_sigma2 is not None:
            out["variance_sigma2"] = self.variance_sigma2
        if self.flag is not None:
            out["flag"] = self.flag
        return out


def _report(kind, stat, df, alpha, sigma2=None, flag=None):
    if math.isnan(stat):
        raise EstimationError(f"{kind}: the statistic is NaN")
    crit = chi2_quantile(1.0 - alpha, df)
    if math.isfinite(stat):
        p = 1.0 - chi2_cdf(max(stat, 0.0), df)
    else:
        p = 0.0
    decision = "reject" if stat > crit else "accept"
    return TestReport(kind, stat, df, p, crit, alpha, decision, sigma2, flag)


def _check_overidentified(model):
    if model.l <= model.d:
        raise NotApplicableError(
            "model test needs over-identification (more moment functions than "
            "parameters); the statistic degenerates to zero otherwise")


def test_model(fam, model, sample, alpha=0.05, options=None):
    """Test whether any parameter value satisfies all moment constraints."""
    _check_overidentified(model)
    est = estimate(fam, model, sample, options=options)
    return _model_report(model, sample, est, alpha), est


def _model_report(model, sample, est, alpha):
    stat = 2.0 * sample.n * est.divergence_hat
    return _report("model-test", stat, model.l - model.d, alpha, est.sigma2_hat)


def test_models(fam, model, samples, alpha=0.05, options=None):
    """test_model on every sample of an iterable, yielded in order: its
    (report, fit), or the PhidivError test_model raises; each bit for bit.
    The fits run in lockstep batches (estimate.estimate_many)."""
    try:
        _check_overidentified(model)
    except NotApplicableError as exc:
        yield from (exc for _ in samples)
        return
    for est in estimate_many(fam, model, samples, options):
        if not isinstance(est, PhidivError):
            try:
                est = _model_report(model, est.problem[2], est, alpha), est
            except PhidivError as exc:
                est = exc
        yield est


def test_theta_simple(fam, model, sample, theta, alpha=0.05):
    """Test the fixed-theta constraint set against everything else."""
    sol = solve_inner(fam, model, sample, theta)
    if sol.status != "converged":
        return _report("simple-theta-test", INF, model.l, alpha,
                       flag=f"inner solve {sol.status}; treated as rejection")
    n = sample.n
    stat = 2.0 * n * sol.objective
    # variance of the criterion integrand, for power work
    sigma2 = criterion_variance(fam, sample.weights, sol.u, sol.t[0])
    return _report("simple-theta-test", stat, model.l, alpha, sigma2)


def _refit_if_missed(fam, model, sample, est, theta, value, options):
    """The fit, redone with theta as an extra start when value, the criterion
    at theta, lies below divergence_hat by more than the fit's own tolerance
    (outer_tol, relative): the fit then missed the minimum.  A rounding-level
    gap, as a cold solve at theta_hat gives, keeps the fit.  Returns
    (fit, refitted)."""
    options = options or EstimateOptions()
    slack = options.outer_tol * (1.0 + abs(est.divergence_hat))
    if value >= est.divergence_hat - slack:
        return est, False
    start = tuple(float(v) for v in np.atleast_1d(np.asarray(theta, dtype=float)))
    return estimate(fam, model, sample, options=replace(options, theta0=start)), True


def test_theta_composite(fam, model, sample, theta, alpha=0.05, options=None):
    """Ratio test of a fixed theta against the unrestricted minimum.

    When the criterion at theta is below the fitted minimum by more than
    the fit's tolerance, the fit is redone with theta as an extra start and
    the report says so in its flag.
    """
    est = estimate(fam, model, sample, options=options)
    sol = solve_inner(fam, model, sample, theta)
    if sol.status != "converged":
        return _report("composite-theta-test", INF, model.d, alpha,
                       flag=f"inner solve {sol.status}; treated as rejection")
    est, refitted = _refit_if_missed(fam, model, sample, est, theta, sol.objective, options)
    flag = "fit missed the minimum; refitted from the tested theta" if refitted else None
    stat = 2.0 * sample.n * (sol.objective - est.divergence_hat)
    return _report("composite-theta-test", stat, model.d, alpha, est.sigma2_hat, flag)


def confidence_region(fam, model, sample, alpha, grid, options=None):
    """Grid points whose ratio statistic stays below the chi-square quantile.

    grid: array of parameter values, shape (npts,) for d = 1 or (npts, d).
    The grid is solved by one solve_inner_many call, warm-started at the
    fit, which raises the first grid point's set-up error; when a
    converged grid point lies below the fitted minimum by more than the
    fit's tolerance, the fit is redone from the best such point before the
    statistics are formed.  A grid solve stops once its criterion rejects
    the point, with every output kept bit for bit (see the README).
    Returns (accepted_points, empty_flag).
    """
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    if grid.shape[0] == 1 and grid.shape[1] != model.d:
        grid = grid.T
    est = estimate(fam, model, sample, options=options)
    crit = chi2_quantile(1.0 - alpha, model.d)
    stop = est.divergence_hat + crit / (2.0 * sample.n)
    stop += 1e-9 * (1.0 + abs(stop))  # past the statistic's rounding: stopped is rejected
    problems = [(sample, theta, est.t_hat) for theta in grid]
    objective = np.array([sol.objective if sol.converged else np.nan for sol in
                          solve_inner_many(fam, model, problems, hold_errors=False,
                                           stop=stop)])
    converged = ~np.isnan(objective)
    if converged.any():
        best = np.nanargmin(objective)
        est, _ = _refit_if_missed(fam, model, sample, est, grid[best], objective[best],
                                  options)
    stat = 2.0 * sample.n * (objective[converged] - est.divergence_hat)
    pts = grid[converged][stat <= crit].reshape(-1, model.d)
    return pts, pts.shape[0] == 0


def power_approx(n, alpha, df, div, sigma):
    """Normal approximation to the power of a divergence test at level alpha.

    div is the population divergence of the alternative, sigma the standard
    deviation of the criterion integrand at the pseudo-true optimum.
    """
    if not 0.0 < sigma < INF:  # nan fails too
        raise ValueError("sigma must be positive and finite")
    if not 0.0 <= div < INF:
        raise ValueError("divergence must be nonnegative and finite")
    if n < 1:
        raise ValueError("n must be at least 1")
    q = chi2_quantile(1.0 - alpha, df)
    return 1.0 - normal_cdf(math.sqrt(n) / sigma * (q / (2.0 * n) - div))


def sample_size_real(beta, alpha, df, div, sigma):
    """Positive root n0 of the power equation (before integer rounding)."""
    if not 0.0 < div < INF:  # nan fails too
        raise ValueError("divergence must be positive and finite to plan a sample size")
    if not 0.0 < sigma < INF:
        raise ValueError("sigma must be positive and finite")
    if not 0.0 < beta < 1.0:
        raise ValueError("target power must lie in (0, 1)")
    q = chi2_quantile(1.0 - alpha, df)
    z = normal_quantile(1.0 - beta)
    if z == 0.0:
        return q / (2.0 * div)  # beta = 1/2: closed-form collapse
    a = sigma ** 2 * z ** 2
    b = q * div
    root = math.sqrt(a * (a + 2.0 * b))
    # the positive root of the power equation switches branch at beta = 1/2
    if z > 0.0:
        return ((a + b) - root) / (2.0 * div ** 2)
    return ((a + b) + root) / (2.0 * div ** 2)


def sample_size(beta, alpha, df, div, sigma):
    """Smallest integer sample size achieving power beta (approximately)."""
    return int(math.floor(sample_size_real(beta, alpha, df, div, sigma))) + 1
