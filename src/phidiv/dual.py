"""Inner concave maximization of the dual criterion for a fixed parameter.

For fixed theta the criterion is

    f(t) = t_0 - sum_i w_i * psi(t . (1, g(X_i, theta)))

maximized over the vectors t keeping every argument of psi strictly inside
the conjugate domain.  The maximizer yields the estimated divergence between
the constrained measure set and the sample, together with the projection
weights Q_i = w_i * psi'(t . gbar_i) (a signed measure in general).

The quadratic family makes the first-order system linear, giving a closed
form used both on its own and as a warm start for every other family.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .errors import RankDeficiencyError
from .families import CHI2, _psi_arr

OBJ_BOUND = 1e12        # objective beyond this: declare unbounded
T_BOUND = 1e8           # dual vector beyond this: declare unbounded
T_SOFT = 1e6            # gradient convergence beyond this norm: escape to infinity
STEP_GROWTH_RUNS = 5    # consecutive 10x step growths before unbounded
TOL = 1e-9              # default gradient tolerance of solve_inner
MAX_ITER = 200          # Newton iteration cap
MARGIN = 1e-10          # strict-feasibility margin of the Newton line search


@dataclass
class DualSolution:
    t: np.ndarray
    u: np.ndarray = field(repr=False)  # A @ t: the psi arguments at t
    objective: float
    status: str            # converged | converged-boundary | unbounded | max-iterations
    iterations: int
    grad_norm: float
    diagnostics: dict = field(default_factory=dict)
    weights_of: Callable | None = field(default=None, repr=False)  # u -> weights

    @property
    def converged(self):
        return self.status == "converged"

    @property
    def weights(self):
        """Projection weights Q_i, None unless the solve reached an optimum;
        computed from u on each access, so a kept solution holds one n-vector."""
        return None if self.weights_of is None else self.weights_of(self.u)

    def to_dict(self):
        return {
            "t": [float(v) for v in np.atleast_1d(self.t)],
            "objective": float(self.objective),
            "status": self.status,
            "iterations": self.iterations,
            "grad_norm": float(self.grad_norm),
            **{k: v for k, v in self.diagnostics.items() if np.isscalar(v)},
        }


def _projection_weights(fam, w, u):
    """Q_i = w_i psi'(u_i), the weights of the projected measure."""
    return w * fam.psi_d1(u)


def _augmented(model, sample, theta):
    """Design matrix A with rows (1, g(X_i, theta)); theta already checked."""
    g = model.g_values(sample.points, theta)
    A = np.ones((g.shape[0], g.shape[1] + 1))
    A[:, 1:] = g
    return A


# The private evaluators take u = A @ t, computed once per trial point by the
# caller and shared by the feasibility test, value, derivatives and weights.

def _objective(fam, w, u, t):
    vals = _psi_arr(fam.gamma, u)
    if not np.isfinite(vals).all():
        return -np.inf
    return float(t[0] - w @ vals)


def _grad_hess(fam, A, w, u):
    s1 = w * fam.psi_d1(u)
    s2 = w * fam.psi_d2(u)
    grad = -(A.T @ s1)
    grad[0] += 1.0
    hess = -((A * s2[:, None]).T @ A)
    return grad, hess


def _newton_ascent(fam, A, w, t0, tol):
    """Damped Newton with backtracking kept strictly feasible, from t0 or,
    when the criterion is not finite there, from t = 0.

    Returns (t, A @ t, objective, status, iterations, grad_norm, diagnostics).
    """
    t = np.array(t0, dtype=float)
    u = A @ t
    f = _objective(fam, w, u, t)
    if not np.isfinite(f):  # t = 0 is feasible whenever the data are finite
        t = np.zeros_like(t)
        u = A @ t
        f = _objective(fam, w, u, t)
    diag = {"ridge_used": False, "backtracks": 0}
    if not np.isfinite(f):
        return t, u, f, "max-iterations", 0, np.inf, diag
    grad = np.zeros_like(t)
    gnorm = np.inf
    prev_step = None
    growth_run = 0
    status = "max-iterations"
    it = 0
    for it in range(1, MAX_ITER + 1):
        grad, hess = _grad_hess(fam, A, w, u)
        gnorm = float(abs(grad).max())
        if gnorm <= tol * (1.0 + abs(f)):
            # a vanishing gradient at an enormous iterate is the slow escape
            # of a log-type criterion toward its boundary, not an optimum
            status = "unbounded" if abs(t).max() > T_SOFT else "converged"
            break
        step = _solve_psd(-hess, grad, diag)
        gts = float(grad @ step)
        if not np.isfinite(step).all() or gts <= 0.0:
            step = grad / max(1.0, gnorm)  # steepest-ascent fallback
            gts = float(grad @ step)
        alpha = 1.0
        accepted = False
        blocked_by_domain = False
        cand, ucand, fc = t, u, f
        for halvings in range(60):
            cand = t + alpha * step
            ucand = A @ cand
            if fam.strictly_feasible(ucand, margin=MARGIN):
                fc = _objective(fam, w, ucand, cand)
                if np.isfinite(fc) and fc >= f + 1e-4 * alpha * gts:
                    accepted = True
                    break
            else:
                blocked_by_domain = True
            diag["backtracks"] += 1
            alpha *= 0.5
        if not accepted:
            if gnorm <= 1e-6 * (1.0 + abs(f)):
                status = "unbounded" if abs(t).max() > T_SOFT else "converged"
            elif blocked_by_domain:
                status = "converged-boundary"
            else:
                status = "max-iterations"
            break
        snorm = float(abs(alpha * step).max())
        if prev_step is not None and snorm >= 10.0 * prev_step > 0.0:
            growth_run += 1
        else:
            growth_run = 0
        prev_step = snorm
        # fc == f first: a step that makes progress pays one compare
        stalled = fc == f and (cand.view(np.uint64) == t.view(np.uint64)).all()
        t, u, f = cand, ucand, fc
        if f > OBJ_BOUND or abs(t).max() > T_BOUND or growth_run >= STEP_GROWTH_RUNS:
            status = "unbounded"
            break
        if stalled:
            # the accepted step left t bitwise unchanged, below the rounding
            # floor of f: every later iteration would replay this one exactly
            diag["backtracks"] += (MAX_ITER - it) * halvings
            it = MAX_ITER
            break
    return t, u, f, status, it, gnorm, diag


_STATUSES = ("converged", "converged-boundary", "unbounded", "max-iterations")
_CONV, _BOUNDARY, _UNBOUNDED, _MAXIT = range(4)


def _matvec(A, t):
    """A_k @ t_k for every k: a stacked matmul is one gemv per slice."""
    return np.matmul(A, t[:, :, None])[:, :, 0]


def _dot_rows(a, b):
    """a_k @ b_k for every k: a stacked matmul is one ddot per slice."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _objective_rows(fam, w, U, T):
    """_objective of every row of U and T."""
    vals = _psi_arr(fam.gamma, U)
    ok = np.isfinite(vals).all(axis=1)
    if ok.all():
        return T[:, 0] - np.matmul(vals[:, None, :], w[:, None])[:, 0, 0]
    f = np.full(U.shape[0], -np.inf)
    if ok.any():
        f[ok] = T[ok, 0] - np.matmul(vals[ok][:, None, :], w[:, None])[:, 0, 0]
    return f


def _newton_ascent_stack(fam, A, w, t0):
    """_newton_ascent at the default TOL on K independent problems at once.

    A has shape (K, n, p) and t0 shape (K, p).  Every problem keeps its own
    active flag, Armijo step and backtracks, step-growth run, stall
    fast-forward, ridge flag and status, and each of its operations is the
    BLAS or LAPACK call _newton_ascent makes on one slice (stacked matmul,
    stacked solve, _solve_psd where the stacked solve fails), so every
    result equals the scalar one bit for bit.  Returns one tuple
    (t, u, objective, status, iterations, grad_norm, diagnostics) per problem.
    """
    K = A.shape[0]
    lo, hi = fam.interior(MARGIN)
    t = np.array(t0, dtype=float)
    u = _matvec(A, t)
    f = _objective_rows(fam, w, u, t)
    bad = ~np.isfinite(f)
    if bad.any():  # t = 0 is feasible whenever the data are finite
        t[bad] = 0.0
        u[bad] = _matvec(A[bad], t[bad])
        f[bad] = _objective_rows(fam, w, u[bad], t[bad])
    status = np.full(K, _MAXIT)
    iters = np.zeros(K, dtype=int)
    gnorm = np.full(K, np.inf)
    backtracks = np.zeros(K, dtype=int)
    ridge = np.zeros(K, dtype=bool)
    prev_step = np.full(K, np.nan)  # nan: no step yet
    growth_run = np.zeros(K, dtype=int)
    live = np.flatnonzero(np.isfinite(f))
    A_live, u_live = (A, u) if live.size == K else (A[live], u[live])

    def finish(done, codes, it):
        # done: mask over live; the finished rows leave the stack
        nonlocal live, A_live, u_live
        idx = live[done]
        status[idx], iters[idx], u[idx] = codes, it, u_live[done]
        keep = ~done
        live, A_live, u_live = live[keep], A_live[keep], u_live[keep]

    it = 0
    for it in range(1, MAX_ITER + 1):
        if not live.size:
            break
        t_l, f_l = t[live], f[live]
        s1 = w * fam.psi_d1(u_live)
        s2 = w * fam.psi_d2(u_live)
        grad = -np.matmul(A_live.transpose(0, 2, 1), s1[:, :, None])[:, :, 0]
        grad[:, 0] += 1.0
        hess = -np.matmul((A_live * s2[:, :, None]).transpose(0, 2, 1), A_live)
        del s1, s2
        g_l = abs(grad).max(axis=1)
        gnorm[live] = g_l
        big = abs(t_l).max(axis=1) > T_SOFT
        done = g_l <= TOL * (1.0 + abs(f_l))
        if done.any():
            # a vanishing gradient at an enormous iterate is the slow escape
            # of a log-type criterion toward its boundary, not an optimum
            finish(done, np.where(big[done], _UNBOUNDED, _CONV), it)
            keep = ~done
            t_l, f_l, g_l, big = t_l[keep], f_l[keep], g_l[keep], big[keep]
            grad, hess = grad[keep], hess[keep]
            if not live.size:
                break
        neg_h = -hess
        try:  # _solve_psd's first attempt: + 0 * I turns -0.0 into 0.0 too
            step = np.linalg.solve(neg_h + 0.0 * np.eye(neg_h.shape[1]),
                                   grad[:, :, None])[:, :, 0]
            redo = np.flatnonzero(~np.isfinite(step).all(axis=1))
        except np.linalg.LinAlgError:  # some slice is singular
            step = np.empty_like(grad)
            redo = range(live.size)
        for j in redo:  # _solve_psd repeats the plain solve, then adds a ridge
            diag = {"ridge_used": False}
            step[j] = _solve_psd(neg_h[j], grad[j], diag)
            ridge[live[j]] |= diag["ridge_used"]
        gts = _dot_rows(grad, step)
        steep = ~np.isfinite(step).all(axis=1) | (gts <= 0.0)
        if steep.any():  # steepest-ascent fallback, max(1, gnorm) as in Python
            step[steep] = grad[steep] / np.where(g_l[steep] > 1.0, g_l[steep], 1.0)[:, None]
            gts[steep] = _dot_rows(grad[steep], step[steep])
        # backtracking: every problem still searching tries the same alpha
        halvings = np.full(live.size, -1)
        blocked = np.zeros(live.size, dtype=bool)
        search = np.arange(live.size)
        alpha = 1.0
        for h in range(60):
            cand = t_l[search] + alpha * step[search]
            ucand = _matvec(A_live if h == 0 else A_live[search], cand)
            feas = (ucand.min(axis=1) > lo) & (ucand.max(axis=1) < hi)
            if feas.all():
                fc = _objective_rows(fam, w, ucand, cand)
            else:
                fc = np.full(search.size, -np.inf)
                if feas.any():
                    fc[feas] = _objective_rows(fam, w, ucand[feas], cand[feas])
            ok = np.isfinite(fc) & (fc >= f_l[search] + 1e-4 * alpha * gts[search])
            if h == 0:
                t_new, u_new, f_new = cand, ucand, fc
            else:
                acc = search[ok]
                t_new[acc], u_new[acc], f_new[acc] = cand[ok], ucand[ok], fc[ok]
            blocked[search[~feas]] = True
            halvings[search[ok]] = h
            search = search[~ok]
            if not search.size:
                break
            alpha *= 0.5
        del cand, ucand
        rejected = halvings < 0
        backtracks[live] += np.where(rejected, 60, halvings)
        if rejected.any():
            flat = g_l[rejected] <= 1e-6 * (1.0 + abs(f_l[rejected]))
            codes = np.where(flat, np.where(big[rejected], _UNBOUNDED, _CONV),
                             np.where(blocked[rejected], _BOUNDARY, _MAXIT))
            finish(rejected, codes, it)
            keep = ~rejected
            t_l, f_l, step, halvings = t_l[keep], f_l[keep], step[keep], halvings[keep]
            t_new, u_new, f_new = t_new[keep], u_new[keep], f_new[keep]
            if not live.size:
                break
        alphas = np.ldexp(1.0, -halvings)  # 0.5 ** halvings, exactly
        snorm = abs(alphas[:, None] * step).max(axis=1)
        prev = prev_step[live]
        grows = (snorm >= 10.0 * prev) & (10.0 * prev > 0.0)
        growth_run[live] = np.where(grows, growth_run[live] + 1, 0)
        prev_step[live] = snorm
        # f_new == f_l first: a step that makes progress pays one compare
        stalled = (f_new == f_l) & (t_new.view(np.uint64) == t_l.view(np.uint64)).all(axis=1)
        t[live], f[live], u_live = t_new, f_new, u_new
        unb = ((f_new > OBJ_BOUND) | (abs(t_new).max(axis=1) > T_BOUND)
               | (growth_run[live] >= STEP_GROWTH_RUNS))
        stalled &= ~unb
        if stalled.any():
            # the accepted step left t bitwise unchanged, below the rounding
            # floor of f: every later iteration would replay this one exactly
            backtracks[live[stalled]] += (MAX_ITER - it) * halvings[stalled]
        ended = unb | stalled
        if ended.any():
            finish(ended, np.where(unb, _UNBOUNDED, _MAXIT)[ended],
                   np.where(unb, it, MAX_ITER)[ended])
    if live.size:
        u[live] = u_live
        iters[live] = it
    return [(t[k], u[k], float(f[k]), _STATUSES[status[k]], int(iters[k]),
             float(gnorm[k]), {"ridge_used": bool(ridge[k]), "backtracks": int(backtracks[k])})
            for k in range(K)]


def _solve_psd(neg_h, grad, diag):
    ridge = 0.0
    for attempt in range(3):
        try:
            step = np.linalg.solve(neg_h + ridge * np.eye(neg_h.shape[0]), grad)
            if np.isfinite(step).all():
                return step
        except np.linalg.LinAlgError:
            pass
        ridge = max(1e-12 * np.trace(neg_h), 1e-300) * 10.0 ** attempt
        diag["ridge_used"] = True
    return np.full_like(grad, np.nan)


def chi2_closed_form(model, sample, theta, A=None):
    """Exact dual solution for the quadratic family via one linear solve;
    A, when given, is the design matrix at an already checked theta."""
    if A is None:
        A = _augmented(model, sample, model.check_theta(theta))
    w = sample.weights
    gram = (A * w[:, None]).T @ A
    rhs = -(A.T @ w)
    rhs[0] += 1.0
    evals, evecs = np.linalg.eigh(gram)
    if evals[0] <= 1e-12 * max(evals[-1], 1.0):
        combo = np.round(evecs[:, 0], 6)
        raise RankDeficiencyError(
            f"singular Gram matrix: constraint combination {combo.tolist()} "
            "is degenerate on this sample")
    t = np.linalg.solve(gram, rhs)
    u = A @ t
    obj = float(t[0] - w @ _psi_arr(2.0, u))
    grad = rhs - gram @ t
    return DualSolution(t, u, obj, "converged", 1, float(abs(grad).max()),
                        {"closed_form": True}, partial(_projection_weights, CHI2, w))


def _shrink_feasible(fam, A, t):
    """Pull a candidate dual vector toward zero until strictly feasible, with
    a wider margin (1e-8) than the line search's MARGIN."""
    t = np.array(t, dtype=float)
    for _ in range(80):
        if fam.strictly_feasible(A @ t, margin=1e-8):
            return t
        t *= 0.5
    return np.zeros_like(t)


def _separated(A):
    """True when some moment column j of A = (1, g) keeps one strict sign c
    over every point: 0 is then outside the convex hull of the g(X_i, theta).

    For gamma <= 1, psi is finite and increasing on (-inf, 0], so t_0 = s,
    t_j = -s c / min_i |g_ij| keeps every u_i <= 0 while f >= s: the dual is
    unbounded.  The sums of signs are integers, exact in doubles.
    """
    s = np.sign(A)
    sums = (s[:, 0] @ s).tolist()  # column 0 is all ones: sums[0] = n
    return any(abs(v) == sums[0] for v in sums[1:])


def _prepare(fam, model, sample, theta, init):
    """Per-theta set-up of solve_inner: (A, t0, None), or (None, None, sol)
    when the answer is known before Newton (a separated theta)."""
    theta = model.check_theta(theta)
    A = _augmented(model, sample, theta)
    dim = A.shape[1]
    if fam.gamma <= 1.0 and _separated(A):
        return None, None, DualSolution(
            np.zeros(dim), np.zeros(A.shape[0]), np.inf, "unbounded", 0, np.inf,
            {"ridge_used": False, "backtracks": 0})
    if init is not None:
        t0 = _shrink_feasible(fam, A, np.asarray(init, dtype=float))
    else:
        try:
            ws = chi2_closed_form(model, sample, theta, A).t
            t0 = _shrink_feasible(fam, A, ws)
        except RankDeficiencyError:
            t0 = np.zeros(dim)
    return A, t0, None


def _solution(fam, w, t, u, f, status, iters, gnorm, diag):
    weights_of = None
    if status in ("converged", "converged-boundary"):
        weights_of = partial(_projection_weights, fam, w)
    return DualSolution(t, u, f, status, iters, gnorm, diag, weights_of)


def solve_inner(fam, model, sample, theta, init=None, tol=TOL):
    """Maximize the dual criterion at fixed theta.

    Damped Newton from init (shrunk into the feasible region) or, by
    default, from the quadratic closed form shrunk likewise, falling back to
    t = 0 (always feasible).  It stops once the gradient is within
    tol * (1 + |f|), or after MAX_ITER iterations; every trial point keeps
    its psi arguments MARGIN inside dom psi.  For gamma <= 1 a moment column
    of one strict sign (see _separated) returns "unbounded" at once: t = 0,
    objective +inf, no Newton iteration.  Empirical likelihood is the
    gamma = 0 (KLm) case.
    """
    A, t0, sol = _prepare(fam, model, sample, theta, init)
    if sol is not None:
        return sol
    return _solution(fam, sample.weights, *_newton_ascent(
        fam, A, sample.weights, t0, tol))


# Byte budget of the design tensor of one chunk of solve_inner_grid; the
# other stacked arrays are a fixed multiple of it.  At n = 200 and l = 2 a
# chunk holds 13 problems: twice that ran no faster per problem and raised
# the peak resident memory of a confidence scan by 2 % instead of 1 %.
STACK_BYTES = 1 << 16


def solve_inner_grid(fam, model, sample, thetas, init=None):
    """solve_inner at every theta of a grid, yielded in order.

    The problems are independent, so they are set up one by one as in
    solve_inner (the same errors in the same order) and solved in chunks of
    at most STACK_BYTES of design tensor by one stacked Newton; a problem
    larger than the budget, or alone in its chunk, runs the scalar Newton,
    which is faster for a single problem.  Each yielded solution equals
    solve_inner(fam, model, sample, theta, init) bit for bit; the solutions
    of a chunk share one array for their u.
    """
    w = sample.weights
    size = max(1, STACK_BYTES // (8 * sample.n * (model.l + 1)))
    for start in range(0, len(thetas), size):
        prep = [_prepare(fam, model, sample, theta, init)
                for theta in thetas[start:start + size]]
        sols = [sol for _, _, sol in prep]
        todo = [i for i, sol in enumerate(sols) if sol is None]
        A, t0 = [prep[i][0] for i in todo], [prep[i][1] for i in todo]
        del prep
        if len(todo) == 1:
            sols[todo[0]] = _solution(fam, w, *_newton_ascent(fam, A[0], w, t0[0], TOL))
        elif todo:
            A, t0 = np.stack(A), np.stack(t0)
            for i, res in zip(todo, _newton_ascent_stack(fam, A, w, t0)):
                sols[i] = _solution(fam, w, *res)
        del A
        yield from sols


def criterion_variance(fam, w, u, t0):
    """Variance under the weights w of the criterion integrand t0 - psi(u)."""
    m_vals = t0 - _psi_arr(fam.gamma, u)
    mbar = float(w @ m_vals)
    return float(w @ (m_vals ** 2) - mbar ** 2)
