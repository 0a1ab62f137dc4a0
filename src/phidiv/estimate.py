"""Outer minimization over the parameter of the profiled dual criterion.

The profile value at theta is the inner dual maximum; its theta-gradient is
available in closed form because the inner first-order condition wipes out
the dependence of the inner maximizer on theta (envelope argument).  The
outer search is a projected BFGS descent inside the parameter box, run from
several starts, with the quadratic-family closed form used to pick the
leading start.

Estimation also fills the asymptotic variance objects: the efficient
parameter covariance under the model, the scalar variance of the divergence
estimate, and the joint sandwich covariance of the dual vector and the
parameter that remains valid under misspecification.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .dual import (TOL, DualSolution, _augmented, _check_tol, _chunks, _dot_rows,
                   _solve_many, _Workspace, chi2_closed_form, solve_inner)
from .errors import EstimationError, PhidivError, RankDeficiencyError
from .families import CHI2


@dataclass(frozen=True)
class EstimateOptions:
    """Starts, the outer BFGS stop rule and cap, and the inner gradient
    tolerance; the inner iteration cap and feasibility margin are the fixed
    dual.MAX_ITER and dual.MARGIN."""

    n_starts: int = 5
    seed: int = 0
    outer_tol: float = 1e-8
    outer_max_iter: int = 100
    inner_tol: float = TOL
    theta0: tuple | None = None  # explicit extra start, overrides nothing else

    def __post_init__(self):
        for name, lo in (("n_starts", 1), ("seed", 0), ("outer_max_iter", 0)):
            if not _int_at_least(getattr(self, name), lo):
                raise ValueError(f"{name} must be an integer >= {lo}, "
                                 f"not {getattr(self, name)!r}")
        for name in ("outer_tol", "inner_tol"):
            # nan ended in "all starts failed" and -1 in a search run to its cap
            _check_tol(name, getattr(self, name))
        if self.theta0 is not None:  # its dimension is checked against the model
            try:  # nan failed the whole fit; a start outside the box is clipped into it
                start = np.asarray(self.theta0)
                real = start.dtype.kind in "iuf" and start.ndim <= 1 and not np.isnan(start).any()
            except ValueError:  # a ragged sequence
                real = False
            if not real:
                raise ValueError(f"theta0 must be a vector of real numbers without nan, "
                                 f"not {self.theta0!r}")


def _int_at_least(value, lo):
    """Whether value is an integer (a numpy one too) of at least lo."""
    try:
        return operator.index(value) >= lo
    except TypeError:
        return False


@dataclass(eq=False)  # == is identity: the fields are arrays
class EstimationResult:
    """Fit result, read from its inner solve; sigma2_hat and the variance blocks
    V_hat, S_hat, M_hat and W_hat (see variance_blocks) are cached on first access."""

    inner: DualSolution
    diagnostics: dict = field(default_factory=dict)
    theta_hat = property(lambda self: self.inner.theta)
    t_hat = property(lambda self: self.inner.t)
    divergence_hat = property(lambda self: self.inner.value)
    sigma2_hat = cached_property(lambda self: self.inner.sigma2)
    _blocks = cached_property(lambda self: variance_blocks(self.inner))
    V_hat = property(lambda self: self._blocks[0])
    S_hat = property(lambda self: self._blocks[1])
    M_hat = property(lambda self: self._blocks[2])
    W_hat = property(lambda self: self._blocks[3])

    def stderr(self):
        """Per-coordinate standard errors sqrt(V_ii / n), n the size of the
        fitted sample."""
        return np.sqrt(np.clip(np.diag(self.V_hat), 0.0, None) / self.inner.sample.n)

    def to_dict(self):
        """JSON-ready fields, with the standard errors."""
        return {
            "theta_hat": [float(v) for v in self.theta_hat],
            "t_hat": [float(v) for v in self.t_hat],
            "divergence_hat": float(self.divergence_hat),
            "sigma2_hat": float(self.sigma2_hat),
            "V_hat": self.V_hat.tolist(),
            "diagnostics": self.diagnostics,
            "stderr": [float(v) for v in self.stderr()],
        }


def profile_objective(fam, model, sample, theta):
    """Inner dual maximum at theta, with the inner solution of solve_inner.

    An inner solve that did not converge (stopped at the domain boundary,
    unbounded or stalled) yields +inf (DualSolution.value); the solution
    object carries the status, so the outer search can steer away without
    aborting.
    """
    sol = solve_inner(fam, model, sample, theta)
    return sol.value, sol


def _latin_hypercube(rng, n, lo, hi):
    d = lo.shape[0]
    pts = np.empty((n, d))
    for k in range(d):
        strata = (np.arange(n) + rng.random(n)) / n
        pts[:, k] = lo[k] + rng.permutation(strata) * (hi[k] - lo[k])
    return pts


def _start_design(model, options):
    """The start pool and the extra random starts, Latin hypercubes in the
    parameter box drawn from PCG64(options.seed): the same for every
    sample."""
    rng = np.random.Generator(np.random.PCG64(options.seed))
    lo, hi = model.theta_lo, model.theta_hi
    pool = _latin_hypercube(rng, max(8, 2 * options.n_starts), lo, hi)
    return pool, _latin_hypercube(rng, max(options.n_starts - 1, 0), lo, hi)


@np.errstate(over="ignore", invalid="ignore")  # as in chi2_closed_form
def _affine_lead(model, sample, pool):
    """First argmin over pool of the chi2 profile 1/2 gbar' S^-1 gbar, exact for the
    model's jacobian J: gbar = gbar(pool[0]) + J (theta - pool[0]), S the w-centred
    covariance of g; scoring the pool picks another only on profiles equal to rounding
    (default pools: 1.2 apart).  None (score the pool) if g raises or a Gram matrix
    [1, gbar'; gbar, S + gbar gbar'] is not finite or not 1e4 clear of _singular."""
    try:
        g = model.g_values(sample.points, pool[0])
    except Exception:  # scoring the pool gives the sample this error
        return None
    gbar = sample.weights @ g
    g = g - gbar  # not in place: g may be the caller's
    sigma = (g * sample.weights[:, None]).T @ g
    gbar = gbar + (pool - pool[0]) @ model.jacobian.T
    a = np.hstack((np.ones((len(pool), 1)), gbar))
    gram = a[:, :, None] * a[:, None, :] + np.pad(sigma, (1, 0))
    evals = np.linalg.eigvalsh(gram) if np.isfinite(gram).all() else np.zeros(2)
    if not (evals[..., 0] > 1e-8 * np.maximum(evals[..., -1], 1.0)).all():
        return None
    return int(np.argmin(_dot_rows(gbar, np.linalg.solve(sigma, gbar.T).T)))


def _lead(model, sample, pool):
    """Index of the pool point of least quadratic profile: _affine_lead's pick
    for a model that declares its jacobian, or else the first of least
    chi2_closed_form objective (a singular Gram matrix scores inf, any other
    error is raised)."""
    lead = _affine_lead(model, sample, pool) if model.jacobian is not None else None
    if lead is not None:
        return lead
    scores = []
    for theta in pool:
        try:
            scores.append(chi2_closed_form(model, sample, theta).objective)
        except RankDeficiencyError:
            scores.append(np.inf)
    return np.argsort(scores, kind="stable")[0]


def _outer_minimize(fam, model, theta0, options):
    """Projected BFGS descent of the profile from one start; each inner
    solve is asked for by yielding (fam, theta, init) and answered with
    its DualSolution, solved from init at options.inner_tol.  Returns
    ((sol, iterations) at the end, or None at an infeasible start; diagnostics)."""
    lo, hi = model.theta_lo, model.theta_hi
    d = model.d
    theta = np.clip(np.asarray(theta0, dtype=float), lo, hi)
    sol = yield fam, theta, None
    if not np.isfinite(sol.value):
        return None, {"start": theta.tolist(), "reason": f"infeasible start ({sol.status})"}
    grad = sol.envelope_grad()
    hinv = np.eye(d)
    iters = 0
    for iters in range(1, options.outer_max_iter + 1):
        held = ((theta <= lo) & (grad > 0)) | ((theta >= hi) & (grad < 0))  # on a face
        pg = np.where(held, 0.0, grad)  # d = 1: a held theta ends the search
        if abs(pg).max() <= options.outer_tol * (1.0 + abs(sol.value)):
            break
        p = -(hinv @ pg)
        p[held] = 0.0
        if p @ grad >= 0.0:
            p = -pg
        alpha, csol = 1.0, None
        for _ in range(40):
            cand = np.clip(theta + alpha * p, lo, hi)
            s = cand - theta
            if abs(s).max() < 1e-14 * (1.0 + abs(theta).max()):
                break
            csol = yield fam, cand, sol.t
            if csol.value <= sol.value + 1e-4 * float(grad @ s):
                break
            csol = None  # rejected: its u must not live through the next solve
            alpha *= 0.5
        if csol is None:  # no step accepted
            break
        grad_new = csol.envelope_grad()  # s is this accepted step
        y = grad_new - grad
        sy = float(s @ y)
        if sy > 1e-12 * np.linalg.norm(s) * np.linalg.norm(y):
            rho = 1.0 / sy
            eye = np.eye(d)
            left = eye - rho * np.outer(s, y)
            hinv = left @ hinv @ left.T + rho * np.outer(s, s)
        else:
            hinv = np.eye(d)
        theta, sol, grad = cand, csol, grad_new
    return (sol, iters), {"start": np.asarray(theta0).tolist(),
                          "iterations": iters, "value": sol.value}


def variance_blocks(sol):
    """Empirical variance objects at the (theta, t) of the DualSolution sol.

    Returns (V, S, M, W): the efficient parameter covariance, the joint
    second-derivative matrix, the outer-product matrix of first derivatives,
    and the sandwich S^-1 M S^-1.  The scalar variance of the divergence
    estimate is the fit's sigma2_hat.
    """
    model, x, w, theta, t = sol.model, sol.sample.points, sol.sample.weights, sol.theta, sol.t
    A = _augmented(model, sol.sample, theta)
    g = A[:, 1:]
    jac = model.jac_values(x, theta)
    s1 = sol.fam.psi_d1(sol.u)
    s2 = sol.fam.psi_d2(sol.u)

    ghat = np.einsum("i,ild->ld", w, jac)
    omega = (g * w[:, None]).T @ g
    try:
        v = np.linalg.inv(ghat.T @ np.linalg.solve(omega, ghat))
    except np.linalg.LinAlgError:
        raise RankDeficiencyError("singular moment covariance matrix")

    jt = np.einsum("ild,l->id", jac, t[1:])
    dm_dt = -(A * s1[:, None])
    dm_dt[:, 0] += 1.0
    dm_dth = -(s1[:, None] * jt)

    a_s2 = (A * (w * s2)[:, None]).T  # one weighted design for S11 and S12
    s11, s12 = -(a_s2 @ A), -(a_s2 @ jt)
    del a_s2  # its n x (1 + l) block serves the arrays below: fewer page faults
    s12[1:, :] -= np.einsum("i,ild->ld", w * s1, jac)

    def grad_at(th):  # the envelope gradient at th, no box check; its u is
        # t[0] + g t[1:], not A t: S22's bits depend on that rounding
        return sol._envelope_at(th, t[0] + model.g_values(x, th) @ t[1:])

    d = model.d
    s22 = np.empty((d, d))
    h = 1e-5 * (1.0 + np.abs(theta))
    for k in range(d):
        tp = theta.copy(); tp[k] += h[k]
        tm = theta.copy(); tm[k] -= h[k]
        s22[:, k] = (grad_at(tp) - grad_at(tm)) / (2.0 * h[k])
    s22 = 0.5 * (s22 + s22.T)

    s_mat = np.block([[s11, s12], [s12.T, s22]])
    vmat = np.hstack([dm_dt, dm_dth])
    m_mat = (vmat * w[:, None]).T @ vmat
    try:
        x = np.linalg.solve(s_mat, m_mat)
        w_mat = np.linalg.solve(s_mat, x.T).T
        w_mat = 0.5 * (w_mat + w_mat.T)
    except np.linalg.LinAlgError:
        w_mat = np.full_like(s_mat, np.nan)
    return v, s_mat, m_mat, w_mat


def _fit(fam, model, options, lead, extra):
    """estimate's work from the leading start-pool candidate lead and the
    extra random starts, as a generator that asks for every inner solve as
    _outer_minimize does and returns the EstimationResult."""
    # refine the leading candidate against the quadratic profile, whose inner
    # problem is a closed-form linear solve; this lands every family's search
    # near the moment-type estimate, where the dual stays bounded
    outcome, _ = yield from _outer_minimize(CHI2, model, lead, options)
    if outcome is not None:
        lead = outcome[0].theta
    del outcome  # each kept solution holds an n-vector: keep only the best
    starts = []
    if options.theta0 is not None:
        starts.append(np.atleast_1d(np.asarray(options.theta0, dtype=float)))
    starts.append(lead)
    starts.extend(extra)
    best = None
    per_start = []
    for idx, start in enumerate(starts):
        outcome, diag = yield from _outer_minimize(fam, model, start, options)
        diag["index"] = idx
        per_start.append(diag)
        if outcome is not None and (best is None or outcome[0].value < best[0].value):
            best = outcome
        del outcome
    if best is None:
        raise EstimationError("all starts failed", per_start)
    sol, iters = best
    diagnostics = {"outer_iterations": iters, "starts": per_start,
                   "inner_status": sol.status}
    return EstimationResult(sol, diagnostics)


def estimate(fam, model, sample, options=None):
    """Full minimum-divergence estimation: parameter, divergence, variances.
    The one-sample lockstep fit (see _lockstep)."""
    [est] = _lockstep(fam, model, [sample], options or EstimateOptions())
    if isinstance(est, PhidivError):
        raise est
    return est


def estimate_many(fam, model, samples, options=None):
    """estimate on every sample of an iterable, yielded in order: its
    EstimationResult, or the PhidivError estimate raises.  The samples are
    fitted in lockstep (see _lockstep), in the chunks of dual._chunks; each
    result is bit for bit that of the sample fitted alone, one inner solve
    at a time.
    """
    options = options or EstimateOptions()
    for batch in _chunks(model, ((s,) for s in samples)):
        yield from _lockstep(fam, model, [s for s, in batch], options)


def _lockstep(fam, model, samples, options):
    """Fit samples together; returns, in order, each one's
    EstimationResult or the PhidivError its fit raised.

    Each sample with more observations than moment functions starts from the
    _start_design pool's point that _lead picks; a PhidivError raised there
    is the sample's result.  Then one _fit generator per sample asks for
    its inner solves, and each round answers every pending request of one
    family with one dual._solve_many call at options.inner_tol, in one
    workspace for all the rounds.  The quadratic search, which every _fit
    runs first, is answered while any fit waits on it, which keeps the fits
    in step.  An error in answering one fit is thrown into its generator.
    """
    out = [None] * len(samples)
    pool, extra = _start_design(model, options)
    fits, waiting = {}, {CHI2: [], fam: []}  # (i, theta, init) per family

    def advance(i, reply=None):
        try:
            f, theta, init = (fits[i].throw(reply) if isinstance(reply, Exception)
                              else fits[i].send(reply))
        except StopIteration as stop:
            out[i] = stop.value
        except PhidivError as exc:
            out[i] = exc
        else:
            waiting[f].append((i, theta, init))

    for i, sample in enumerate(samples):
        try:
            if sample.n <= model.l:
                raise EstimationError(f"need more observations ({sample.n}) than "
                                      f"moment functions ({model.l})")
            lead = _lead(model, sample, pool)
        except PhidivError as exc:
            out[i] = exc
            continue
        fits[i] = _fit(fam, model, options, pool[lead], extra)
        advance(i)
    ws = _Workspace()  # one workspace for every round's lone solves
    while True:  # one round: the first family with waiting fits, CHI2 first
        for f, queue in waiting.items():
            if queue:
                break
        else:
            return out
        batch = queue.copy()
        queue.clear()
        sols = _solve_many(f, model, [(samples[i], theta, init) for i, theta, init in batch],
                           options.inner_tol, True, math.inf, ws)
        for (i, _, _), sol in zip(batch, sols):
            advance(i, sol)
        del sol  # else the last solution's u stays alive through the next round
