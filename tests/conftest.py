"""Shared fixtures and independent oracles used across the test suite.

The oracles deliberately avoid the library's dual solver: the quadratic
primal is solved as a linearly-constrained least-squares problem via
Lagrange multipliers, the general primal by brute-force grid search over
the affine set of feasible weight vectors, the empirical-likelihood dual in
its reduced form by a Newton ascent of its own, and the conjugate by grid
maximization.  The fit reference, estimate_one_at_a_time, does use the
library's pieces, one call at a time, to check the lockstep fit driver, and
confidence_region_unstopped runs every grid solve to its end, to check the
stop bound of confidence_region.
"""

from dataclasses import dataclass

import math

import numpy as np
import pytest

from phidiv import (DomainError, EstimateOptions, EstimationError, MomentModel,
                    RankDeficiencyError, WeightedSample, chi2_closed_form, chi2_quantile,
                    estimate, get_model)
from phidiv.dual import solve_inner_many
from phidiv.estimate import _fit, _start_design
from phidiv.inference import _refit_if_missed


def primal_quadratic(model, sample, theta):
    """Exact value of min 0.5 * sum w_i (r_i - 1)^2 s.t. sum w r gbar = e0.

    r_i = Q_i / w_i; stationarity gives r = 1 + B lam with B the augmented
    moment matrix, so the multipliers solve (B' W B) lam = e0 - B' w.
    """
    g = model.g_values(sample.points, np.atleast_1d(theta))
    B = np.hstack([np.ones((g.shape[0], 1)), g])
    w = sample.weights
    gram = (B * w[:, None]).T @ B
    rhs = -(B.T @ w)
    rhs[0] += 1.0
    lam = np.linalg.solve(gram, rhs)
    r = 1.0 + B @ lam
    return float(0.5 * w @ (r - 1.0) ** 2), w * r


def primal_grid(fam, model, sample, theta, box=30.0, rounds=12):
    """Brute-force primal divergence over the affine feasible set (n <= 4).

    Parametrizes every weight vector satisfying the constraints as a
    particular solution plus the constraint null space, then zooms a dense
    coefficient grid around the running minimum.
    """
    g = model.g_values(sample.points, np.atleast_1d(theta))
    n = g.shape[0]
    B = np.hstack([np.ones((n, 1)), g])
    w = sample.weights
    # constraints on q: B.T q = e0
    e0 = np.zeros(B.shape[1])
    e0[0] = 1.0
    q_p, *_ = np.linalg.lstsq(B.T, e0, rcond=None)
    _, s, vt = np.linalg.svd(B.T)
    null = vt[B.shape[1]:].T          # (n, k) basis of the null space
    k = null.shape[1]
    if k == 0:
        return float(np.sum(w * np.atleast_1d(fam.phi(q_p / w))))
    npts = 301 if k == 1 else 61
    lo = np.full(k, -box)
    hi = np.full(k, box)
    best_c = np.zeros(k)
    best = np.inf
    for _ in range(rounds):
        axes = [np.linspace(lo[j], hi[j], npts) for j in range(k)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, k)
        q = q_p[None, :] + mesh @ null.T
        ratios = q / w[None, :]
        vals = np.sum(w[None, :] * fam.phi(ratios), axis=1)
        vals = np.where(np.isfinite(vals), vals, np.inf)
        j = int(np.argmin(vals))
        if vals[j] < best:
            best = float(vals[j])
            best_c = mesh[j]
        half = (hi - lo) / npts * 2.0
        lo, hi = best_c - half, best_c + half
    return best


@dataclass
class ReducedELSolution:
    t: np.ndarray          # full-solver convention (0, -lam)
    objective: float
    converged: bool
    weights: np.ndarray | None
    diagnostics: dict      # "reduced_t": lam


def el_reduced_solve(model, sample, theta, tol=1e-9, max_iter=200):
    """Reduced dual of empirical likelihood (Owen, Empirical Likelihood,
    2001, ch. 3): maximize sum_i w_i log(1 + lam . g_i) over the lam that
    keep every 1 + lam . g_i positive.

    Damped Newton with Armijo backtracking, numpy only; it stops once the
    gradient is within tol * (1 + |f|) (at 1e-10 it stalls on rounding).
    The projection weights are w_i / (1 + lam . g_i).  The full dual vector
    is t = (0, -lam): its constant coordinate vanishes for this family.
    """
    g = model.g_values(sample.points, np.atleast_1d(np.asarray(theta, dtype=float)))
    w = sample.weights
    lam = np.zeros(g.shape[1])
    f = 0.0
    converged = False
    for _ in range(max_iter):
        z = 1.0 + g @ lam
        grad = g.T @ (w / z)
        if abs(grad).max() <= tol * (1.0 + abs(f)):
            converged = True
            break
        info = (g * (w / z ** 2)[:, None]).T @ g  # minus the Hessian
        step = np.linalg.solve(info, grad)
        slope = float(grad @ step)
        alpha = 1.0
        for _ in range(60):
            cand = lam + alpha * step
            zc = 1.0 + g @ cand
            if zc.min() > 0.0:
                fc = float(w @ np.log(zc))
                if fc >= f + 1e-4 * alpha * slope:
                    break
            alpha *= 0.5
        else:
            break  # no ascent step left
        lam, f = cand, fc
    weights = w / (1.0 + g @ lam) if converged else None
    return ReducedELSolution(np.concatenate([[0.0], -lam]), f, converged,
                             weights, {"reduced_t": lam})


def numeric_conjugate(fam, t, lo, hi, num=1001, refine=10):
    """Grid maximization of x -> t*x - phi(x) over [lo, hi].

    Independent oracle for the closed-form conjugate: repeatedly zooms a
    uniform grid around the running argmax.  The caller must supply a bracket
    [lo, hi] containing the maximizer.
    """
    lo, hi = float(lo), float(hi)
    best_x = None
    for _ in range(refine):
        xs = np.linspace(lo, hi, num)
        vals = t * xs - fam.phi(xs)
        k = int(np.nanargmax(vals))
        best_x = xs[k]
        half = (hi - lo) / num * 2.0
        lo, hi = best_x - half, best_x + half
    return float(t * best_x - fam.phi(best_x))


def phi_derivs(fam, x):
    """(phi'(x), phi''(x)) for x in the open interior of dom phi."""
    x = float(x)
    g = fam.gamma
    if g != 2.0 and x <= 0.0:
        raise DomainError(f"{fam.name}: x={x} not interior to dom phi")
    if g == 2.0:
        return x - 1.0, 1.0
    if g == 0.0:
        return 1.0 - 1.0 / x, 1.0 / (x * x)
    if g == 1.0:
        return math.log(x), 1.0 / x
    return (x ** (g - 1.0) - 1.0) / (g - 1.0), x ** (g - 2.0)


def psi_derivs(fam, t):
    """(psi'(t), psi''(t)) for t in the open interior of dom psi."""
    t = float(t)
    if not (fam.a_star < t < fam.b_star):
        raise DomainError(f"{fam.name}: t={t} not interior to dom psi")
    return float(fam.psi_d1(t)), float(fam.psi_d2(t))


def random_feasible_instance(rng, model_name="mean", n=4):
    """Sample plus a theta strictly inside the hull of the moment values."""
    model = get_model(model_name)
    x = rng.normal(0.0, 1.0, size=n)
    sample = WeightedSample.from_points(x)
    if model_name == "mean":
        lo, hi = x.min(), x.max()
        theta = np.array([lo + (0.25 + 0.5 * rng.random()) * (hi - lo)])
    else:
        x2 = x ** 2
        lo, hi = x2.min(), x2.max()
        theta = np.array([lo + (0.25 + 0.5 * rng.random()) * (hi - lo)])
    return model, sample, theta


def _symmetric_g(x, theta):
    r = x[:, 0] - theta[0]
    return np.column_stack([r, r * r - theta[1], r ** 3])


def _symmetric_jac(x, theta):
    r = x[:, 0] - theta[0]
    jac = np.zeros((x.shape[0], 3, 2))
    jac[:, :, 0] = np.column_stack([-np.ones_like(r), -2.0 * r, -3.0 * r * r])
    jac[:, 1, 1] = -1.0
    return jac


# mean mu and variance v of a symmetric law, theta = (mu, v): l = 3, d = 2,
# and a Jacobian that moves with theta, unlike the built-in models
SYMMETRIC = MomentModel("symmetric-mean-variance", 1, 2, 3, _symmetric_g, _symmetric_jac,
                        (-5.0, 1e-3), (5.0, 10.0))


def estimate_one_at_a_time(fam, model, sample, options=None):
    """estimate with nothing batched: the start pool scored theta by theta
    by chi2_closed_form (a singular Gram matrix scores inf, any other error
    is raised), then the fit generator's inner solves answered one by one
    by solve_inner_many on one problem, its set-up errors raised.  estimate
    and estimate_many must equal it bit for bit, also for a model that
    declares its jacobian, whose lead they pick without scoring the pool."""
    options = options or EstimateOptions()
    if sample.n <= model.l:
        raise EstimationError(
            f"need more observations ({sample.n}) than moment functions ({model.l})")
    pool, extra = _start_design(model, options)
    scores = []
    for theta in pool:
        try:
            scores.append(chi2_closed_form(model, sample, theta).objective)
        except RankDeficiencyError:
            scores.append(math.inf)
    fit = _fit(fam, model, sample, options, pool[np.argsort(scores, kind="stable")[0]],
               extra)
    reply = None
    try:
        while True:
            f, theta, init = fit.send(reply)
            reply = next(solve_inner_many(f, model, [(sample, theta, init)],
                                          options.inner_tol, hold_errors=False))
    except StopIteration as stop:
        return stop.value


def confidence_region_unstopped(fam, model, sample, alpha, grid, options=None):
    """confidence_region with no stop bound: every grid solve runs to its
    end.  confidence_region must equal it bit for bit, errors included."""
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    if grid.shape[0] == 1 and grid.shape[1] != model.d:
        grid = grid.T
    est = estimate(fam, model, sample, options=options)
    crit = chi2_quantile(1.0 - alpha, model.d)
    problems = [(sample, theta, est.t_hat) for theta in grid]
    objective = np.array([sol.objective if sol.converged else np.nan for sol in
                          solve_inner_many(fam, model, problems, hold_errors=False)])
    converged = ~np.isnan(objective)
    if converged.any():
        best = np.nanargmin(objective)
        est, _ = _refit_if_missed(fam, model, sample, est, grid[best], objective[best],
                                  options)
    stat = 2.0 * sample.n * (objective[converged] - est.divergence_hat)
    pts = grid[converged][stat <= crit].reshape(-1, model.d)
    return pts, pts.shape[0] == 0


def mixed_samples(rng, sizes):
    """Runs of one to three samples per size in sizes, so that samples of
    one size share a lockstep batch: tied atoms make singular Gram matrices,
    n <= 2 too few observations for two moment functions, and non-uniform
    weights a batch of their own."""
    samples = []
    for n in sizes:
        for _ in range(rng.integers(1, 4)):
            kind = rng.integers(4)
            x = rng.choice(rng.uniform(-1.0, 1.0, 2), n) if kind == 0 else \
                rng.uniform(-1.0, 1.0 + rng.random(), n)
            w = rng.dirichlet(np.ones(n)) if kind == 1 else np.full(n, 1.0 / n)
            samples.append(WeightedSample(x, w))
    return samples


def overflowing_sample(rng, n):
    """n points of magnitude up to 1e160, so that x^2 overflows to inf."""
    return WeightedSample.from_points(rng.uniform(-1.0, 1.01, n) * 1e160)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
