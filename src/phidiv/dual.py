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

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, RankDeficiencyError
from .families import CHI2, DivergenceFamily, _psi_arr, _psi_d1, _psi_d2
from .models import MomentModel, WeightedSample

OBJ_BOUND = 1e12        # objective beyond this: declare unbounded
T_BOUND = 1e8           # dual vector beyond this: declare unbounded
T_SOFT = 1e6            # gradient convergence beyond this norm: escape to infinity
STEP_GROWTH_RUNS = 5    # consecutive 10x step growths before unbounded
TOL = 1e-9              # default gradient tolerance of the inner solve
MAX_ITER = 200          # Newton iteration cap
MARGIN = 1e-10          # strict-feasibility margin of the Newton line search


@dataclass(eq=False)  # == is identity: the fields are arrays
class DualSolution:
    t: np.ndarray
    u: np.ndarray = field(repr=False)  # A @ t: the psi arguments at t
    objective: float
    # converged | converged-boundary | unbounded | max-iterations | above-stop
    status: str            # (above-stop: f passed the caller's stop, see _newton)
    iterations: int
    grad_norm: float
    diagnostics: dict
    fam: DivergenceFamily = field(repr=False)   # the problem solved: its weights
    model: MomentModel = field(repr=False)      # w are sample.weights, its theta
    sample: WeightedSample = field(repr=False)  # what model.check_theta returns
    theta: np.ndarray

    @property
    def converged(self):
        return self.status == "converged"

    @property
    def value(self):
        """The profile value: the objective of a converged solve, else +inf."""
        return self.objective if self.converged else math.inf

    @property
    def sigma2(self):
        """Variance under the weights w of the criterion integrand t_0 - psi(u)."""
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            m_vals = _psi_arr(self.fam.gamma, self.u, np.empty_like(self.u))
        np.subtract(self.t[0], m_vals, out=m_vals)  # in place: one n-vector
        mbar = float(self.sample.weights @ m_vals)
        m_vals **= 2
        return float(self.sample.weights @ m_vals - mbar ** 2)

    @property
    def weights(self):
        """Projection weights Q_i = w_i psi'(u_i), None unless the solve
        reached an optimum; computed from u on each access, so a kept
        solution holds one n-vector."""
        if self.status in ("converged", "converged-boundary"):
            return self.sample.weights * self.fam.psi_d1(self.u)
        return None

    def envelope_grad(self):
        """Theta-gradient of the profile, t held fixed: -sum_i Q_i J(X_i, theta)' t[1:]."""
        jac = self.model.jac_values(self.sample.points, self.theta)
        return -(self.weights @ np.einsum("ild,l->id", jac, self.t[1:]))

    def to_dict(self):
        return {
            "t": [float(v) for v in np.atleast_1d(self.t)],
            "objective": float(self.objective),
            "status": self.status,
            "iterations": self.iterations,
            "grad_norm": float(self.grad_norm),
            **{k: v for k, v in self.diagnostics.items() if np.isscalar(v)},
        }


class _Workspace:
    """The n-sized arrays one run of lone inner solves reuses at every theta
    and every Newton request, so that its solves make no fresh n x p array:
    a fresh array of that size is paged in anew each time.

    A is the design, which _augmented writes in place; S an n x p scratch,
    shared by the sign matrix of _separated and the weighted designs of
    _hess and of the quadratic Gram matrix; v an n-vector for A t in
    _shrink_feasible and for psi, psi' and psi'' in turn.  What a solve
    returns never points into them.  Sized at first use, and anew when n
    or p changes."""

    shape = None

    def arrays(self, n, p):
        if self.shape != (n, p):
            self.A, self.S, self.v = np.empty((n, p)), np.empty((n, p)), np.empty(n)
            self.shape = (n, p)
        return self.A, self.S, self.v


def _augmented(model, sample, theta, ws=None):
    """Design matrix A with rows (1, g(X_i, theta)); theta already checked.
    Written into ws.A when a workspace is given."""
    g = model.g_values(sample.points, theta)
    shape = (g.shape[0], g.shape[1] + 1)
    A = ws.arrays(*shape)[0] if ws else np.empty(shape)
    A[:, 0] = 1.0
    A[:, 1:] = g
    return A


# The private evaluators take u = A @ t, computed once per trial point by the
# caller and shared by the feasibility test, value, derivatives and weights.
# v and S, when given, are a workspace's arrays (the values do not change).
# They run under the caller's error state, as families' private ones do.

def _objective(fam, w, u, t, v=None):
    # w > 0 and finite: the sum is finite exactly when every psi value is
    s = w @ _psi_arr(fam.gamma, u, v)
    return float(t[0] - s) if math.isfinite(s) else -math.inf


def _grad(fam, A, w, u, v=None):
    s1 = _psi_d1(fam.gamma, u, v)
    grad = -(A.T @ np.multiply(w, s1, out=s1))
    grad[0] += 1.0
    return grad


def _hess(fam, A, w, u, S=None, v=None):
    s2 = _psi_d2(fam.gamma, u, v)
    return -(np.multiply(A, np.multiply(w, s2, out=s2)[:, None], out=S).T @ A)


# The requests _newton yields, each answered with numbers that depend on A, w
# and the family; see _newton's docstring for what each sends and receives.
# The stacked driver answers the lowest pending kind first, which keeps its
# problems in the lockstep of one Newton iteration: every backtracking trial
# is answered before the next gradient.
_EVAL, _TRIAL, _SOLVE, _GRAD = range(4)


def _amax(v):
    """max |v_i| of a short vector, without a numpy reduction.  _newton uses
    the result only where v is finite (the step and iterate of an accepted
    trial), and there it equals abs(v).max() exactly."""
    return max(map(abs, v.tolist()))


def _newton(t, tol, stop):
    """The damped Newton's rules, as a generator that never sees A, w or
    the family.

    Newton with backtracking kept strictly feasible, from t or, when the
    criterion f is not finite there, from t = 0.  It ends "above-stop" as
    soon as f exceeds stop, at the start or after an accepted step: an
    accepted step never lowers f, so the maximum lies above stop too (or
    the solve would not have converged).  Every number that depends
    on the problem is asked for by yielding (request, argument) and comes
    back through send():

      _EVAL   t                 -> (u = A t, f(t)); at the start, with no
                                   feasibility test
      _GRAD   u                 -> (grad, max |grad|) at u = A t
      _SOLVE  (u, grad)         -> (step solving -hess step = grad, hess the
                                   Hessian at u, ridge used, grad . step,
                                   step finite)
      _TRIAL  (t, alpha, step)  -> (cand = t + alpha step, A cand, f(cand) or
                                   None when A cand is not MARGIN inside
                                   dom psi)

    Returns (t, A @ t, objective, status, iterations, grad_norm, diagnostics).
    """
    u, f = yield _EVAL, t
    if not math.isfinite(f):  # t = 0 is feasible whenever the data are finite
        t = np.zeros_like(t)
        u, f = yield _EVAL, t
    diag = {"ridge_used": False, "backtracks": 0}
    if not math.isfinite(f):
        return t, u, f, "max-iterations", 0, np.inf, diag
    if f > stop:
        return t, u, f, "above-stop", 0, np.inf, diag
    gnorm = np.inf
    prev_step = 0.0  # no step yet: no growth
    growth_run = 0
    status = "max-iterations"
    it = 0
    for it in range(1, MAX_ITER + 1):
        grad, gnorm = yield _GRAD, u
        if gnorm <= tol * (1.0 + abs(f)):
            # a vanishing gradient at an enormous iterate is the slow escape
            # of a log-type criterion toward its boundary, not an optimum
            status = "unbounded" if abs(t).max() > T_SOFT else "converged"
            break
        step, ridge, gts, finite = yield _SOLVE, (u, grad)
        diag["ridge_used"] |= ridge
        if not finite or gts <= 0.0:
            step = grad / max(1.0, gnorm)  # steepest-ascent fallback
            gts = float(grad @ step)
        smax = _amax(step)
        alpha = 1.0
        blocked_by_domain = False
        for halvings in range(60):
            cand, ucand, fc = yield _TRIAL, (t, alpha, step)
            if fc is None:
                blocked_by_domain = True
            elif math.isfinite(fc) and fc >= f + 1e-4 * alpha * gts:
                break
            del cand, ucand  # free the rejected A cand before the next trial
            diag["backtracks"] += 1
            alpha *= 0.5
        else:  # no trial accepted
            if gnorm <= 1e-6 * (1.0 + abs(f)):
                status = "unbounded" if abs(t).max() > T_SOFT else "converged"
            elif blocked_by_domain:
                status = "converged-boundary"
            break
        snorm = alpha * smax  # max |alpha step|, as alpha is a power of 2
        growth_run = growth_run + 1 if snorm >= 10.0 * prev_step > 0.0 else 0
        prev_step = snorm
        # fc == f first: a step that makes progress pays one compare
        stalled = fc == f and (cand.view(np.uint64) == t.view(np.uint64)).all()
        t, u, f = cand, ucand, fc
        if f > stop:
            status = "above-stop"
            break
        if f > OBJ_BOUND or _amax(t) > T_BOUND or growth_run >= STEP_GROWTH_RUNS:
            status = "unbounded"
            break
        if stalled:
            # the accepted step left t bitwise unchanged, below the rounding
            # floor of f: every later iteration would replay this one exactly
            diag["backtracks"] += (MAX_ITER - it) * halvings
            it = MAX_ITER
            break
    return t, u, f, status, it, gnorm, diag


def _newton_ascent(fam, A, w, t0, tol, stop, ws):
    """_newton on one problem, each request answered as it comes; the
    workspace ws gives the S and v that serve every request (A is ws.A
    unless it was set up in a stacked chunk)."""
    _, S, v = ws.arrays(*A.shape)
    lo, hi = fam.interior(MARGIN)
    gen = _newton(np.array(t0, dtype=float), tol, stop)
    request = next(gen)
    try:
        while True:
            request = gen.send(_answer(fam, A, w, *request, S, v, lo, hi))
    except StopIteration as end:
        return end.value


def _answer(fam, A, w, kind, x, S, v, lo, hi):
    """The reply to one request of _newton, a trial point feasible when
    every entry of its A cand lies in (lo, hi).  A function of its own, so
    that no n-vector it makes stays bound while the next request is
    answered: held in the driver's loop, they raised a solve's peak by one
    n-vector.  With the workspace's S and v, the only n-sized arrays it
    makes are the u = A t of EVAL and TRIAL, which _newton keeps."""
    if kind == _TRIAL:
        t, alpha, step = x
        cand = t + alpha * step
        ucand = A @ cand
        if ucand.min() > lo and ucand.max() < hi:
            return cand, ucand, _objective(fam, w, ucand, cand, v)
        return cand, ucand, None
    if kind == _GRAD:
        grad = _grad(fam, A, w, x, v)
        return grad, float(abs(grad).max())
    if kind == _SOLVE:
        u, grad = x
        step, ridge, finite = _solve_psd(-_hess(fam, A, w, u, S, v), grad)
        return step, ridge, float(grad @ step), finite
    u = A @ x
    return u, _objective(fam, w, u, x, v)


def _matvec(A, t):
    """A_k @ t_k for every k: a stacked matmul is one gemv per slice."""
    return np.matmul(A, t[:, :, None])[:, :, 0]


def _dot_rows(a, b):
    """a_k @ b_k for every k: a stacked matmul is one ddot per slice."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _objective_rows(fam, w, U, T):
    """_objective of every row of U and T."""
    s = np.matmul(_psi_arr(fam.gamma, U)[:, None, :], w[:, None])[:, 0, 0]
    return np.where(np.isfinite(s), T[:, 0] - s, -np.inf)


def _newton_ascent_stack(fam, A, w, t0, tol, stop):
    """_newton on K independent problems at once.

    A has shape (K, n, p) and t0 shape (K, p).  Each round answers, with one
    stacked call, every pending request of the lowest kind: the BLAS or
    LAPACK call _newton_ascent makes on one slice (stacked matmul, stacked
    solve, _solve_psd where the stacked solve fails), so every result equals
    _newton_ascent's bit for bit.  Returns one _newton result per problem,
    each with a u of its own.
    """
    K = A.shape[0]
    lo, hi = fam.interior(MARGIN)

    def evaluate(Ak, ts):
        T = np.array(ts)
        U = _matvec(Ak, T)
        return zip(U, _objective_rows(fam, w, U, T).tolist())

    def gradient(Ak, us):
        s1 = w * fam.psi_d1(np.array(us))
        grad = -np.matmul(Ak.transpose(0, 2, 1), s1[:, :, None])[:, :, 0]
        grad[:, 0] += 1.0
        return zip(grad, abs(grad).max(axis=1).tolist())

    def solve(Ak, pairs):
        s2 = w * fam.psi_d2(np.array([u for u, _ in pairs]))
        # -_hess of each slice: negating twice is exact
        neg_h = np.matmul((Ak * s2[:, :, None]).transpose(0, 2, 1), Ak)
        grad = np.array([g for _, g in pairs])
        ridge, finite = [False] * len(pairs), [True] * len(pairs)
        try:  # _solve_psd's first attempt: + 0.0 turns -0.0 into 0.0 too
            step = np.linalg.solve(neg_h + 0.0, grad[:, :, None])[:, :, 0]
            redo = np.flatnonzero(~np.isfinite(step).all(axis=1))
        except np.linalg.LinAlgError:  # some slice is singular
            step = np.empty_like(grad)
            redo = range(len(pairs))
        for j in redo:  # _solve_psd repeats the plain solve, then adds a ridge
            step[j], ridge[j], finite[j] = _solve_psd(neg_h[j], grad[j])
        return zip(step, ridge, _dot_rows(grad, step).tolist(), finite)

    def trial(Ak, reqs):
        alpha = np.array([a for _, a, _ in reqs])[:, None]
        cand = np.array([t for t, _, _ in reqs]) + alpha * np.array([s for _, _, s in reqs])
        ucand = _matvec(Ak, cand)
        feas = (ucand.min(axis=1) > lo) & (ucand.max(axis=1) < hi)
        fc = np.full(len(reqs), -np.inf)
        if feas.any():
            fc[feas] = _objective_rows(fam, w, ucand[feas], cand[feas])
        fc = [v if ok else None for v, ok in zip(fc.tolist(), feas.tolist())]
        return zip(cand, ucand, fc)

    answer = (evaluate, trial, solve, gradient)  # indexed by request kind
    gens = [_newton(t, tol, stop) for t in np.array(t0, dtype=float)]
    requests = [next(gen) for gen in gens]
    results = [None] * K
    live, A_live = list(range(K)), A
    while live:
        kind = min(requests[k][0] for k in live)
        ks = [k for k in live if requests[k][0] == kind]
        replies = answer[kind](A_live if len(ks) == len(live) else A[ks],
                               [requests[k][1] for k in ks])
        finished = False
        for k, reply in zip(ks, replies):
            try:
                requests[k] = gens[k].send(reply)
            except StopIteration as end:
                results[k], finished = end.value, True
        if finished:
            live = [k for k in live if results[k] is None]
            A_live = A[live]
    # a copy: an accepted u is a row of its trial's stacked array, which a
    # kept solution would otherwise hold whole
    return [(t, np.array(u), *rest) for t, u, *rest in results]


def _solve_psd(neg_h, grad):
    """Solve neg_h step = grad, adding a growing ridge when the plain solve
    fails; returns (step, ridge used, step finite), step all nan when every
    try failed.  The plain try adds 0.0, the bits of a zero ridge: it turns
    -0.0 entries into 0.0."""
    lhs = neg_h + 0.0
    for attempt in range(3):
        if attempt:
            ridge = max(1e-12 * np.trace(neg_h), 1e-300) * 10.0 ** (attempt - 1)
            lhs = neg_h + ridge * np.eye(neg_h.shape[0])
        try:
            step = np.linalg.solve(lhs, grad)
            if np.isfinite(step).all():
                return step, attempt > 0, True
        except np.linalg.LinAlgError:
            pass
    return np.full_like(grad, np.nan), True, False


def _singular(evals):
    """Whether a Gram matrix with ascending eigenvalues evals counts as
    singular: the smallest is not above 1e-12 of the largest, or of 1 (so
    nan eigenvalues count as singular)."""
    return not evals[0] > 1e-12 * max(evals[-1], 1.0)


@np.errstate(over="ignore", invalid="ignore")  # as in solve_inner_many
def chi2_closed_form(model, sample, theta):
    """Exact dual solution for the quadratic family via one linear solve.
    Raises DomainError when the Gram matrix is not finite or eigh fails on
    it (the moment functions overflow), RankDeficiencyError when it is
    singular."""
    checked = model.check_theta(theta)
    A = _augmented(model, sample, checked)
    w = sample.weights
    t, gram, rhs = _chi2_system(A, w, theta)
    u = A @ t
    obj = float(t[0] - w @ _psi_arr(2.0, u))
    grad = rhs - gram @ t
    return DualSolution(t, u, obj, "converged", 1, float(abs(grad).max()),
                        {"closed_form": True}, CHI2, model, sample, checked)


def _chi2_system(A, w, theta, S=None):
    """(t, gram, rhs): the quadratic family's dual vector t solving gram t =
    rhs at the design A, with the errors of chi2_closed_form; S, when
    given, holds the weighted design."""
    gram = np.multiply(A, w[:, None], out=S).T @ A
    rhs = -(w @ A)
    rhs[0] += 1.0
    try:
        evals, evecs = np.linalg.eigh(gram)
    except np.linalg.LinAlgError:  # as it does on most matrices holding nan
        evals = None
    if evals is None or (_singular(evals) and not np.isfinite(gram).all()):
        raise DomainError(
            f"the Gram matrix at theta = {np.asarray(theta, dtype=float).tolist()} is "
            "not finite: the moment functions overflow on this sample")
    if _singular(evals):
        combo = np.round(evecs[:, 0], 6)
        raise RankDeficiencyError(
            f"singular Gram matrix: constraint combination {combo.tolist()} "
            "is degenerate on this sample")
    return np.linalg.solve(gram, rhs), gram, rhs


def _shrink_feasible(fam, A, t, v=None):
    """Pull a candidate dual vector toward zero until strictly feasible, with
    a wider margin (1e-8) than the line search's MARGIN; A t goes to v when
    given."""
    t = np.array(t, dtype=float)
    for _ in range(80):
        if fam.strictly_feasible(np.matmul(A, t, out=v), margin=1e-8):
            return t
        t *= 0.5
    return np.zeros_like(t)


def _separated(A, S=None):
    """True when some moment column j of A = (1, g) keeps one strict sign c
    over every point: 0 is then outside the convex hull of the g(X_i, theta),
    which admits no nonnegative measure.

    For every family but chi2, psi is finite and nondecreasing on (-inf, 0]
    with psi(0) = 0, so t_0 = s, t_j = -s c / min_i |g_ij| keeps every
    u_i <= 0 while f >= s: the dual is unbounded.  The sums of signs are
    integers, exact in doubles.  S, when given, holds the sign matrix.
    """
    s = np.sign(A, out=S)
    sums = (s[:, 0] @ s).tolist()  # column 0 is all ones: sums[0] = n
    return any(abs(v) == sums[0] for v in sums[1:])


def _prepare(fam, model, sample, theta, init, ws):
    """Per-theta set-up of the inner solve: (theta, A, t0, None), theta as
    check_theta gives it, or (theta, None, None, sol) when the answer is known
    before Newton (a separated theta).  A and the scratch are the workspace
    ws's, or fresh when ws is None (a stacked chunk's problems)."""
    theta = model.check_theta(theta)
    A = _augmented(model, sample, theta, ws)
    S, v = (ws.S, ws.v) if ws else (None, None)
    dim = A.shape[1]
    if fam.gamma != 2.0 and _separated(A, S):
        return theta, None, None, DualSolution(
            np.zeros(dim), np.zeros(A.shape[0]), np.inf, "unbounded", 0, np.inf,
            {"ridge_used": False, "backtracks": 0}, fam, model, sample, theta)
    if init is None:
        try:
            init = _chi2_system(A, sample.weights, theta, S)[0]
        except RankDeficiencyError:
            return theta, A, np.zeros(dim), None
    return theta, A, _shrink_feasible(fam, A, np.asarray(init, dtype=float), v), None


# Byte budget of the design tensor of one stacked solve_inner_many call and
# of one lockstep batch of fits; the other stacked arrays are a fixed
# multiple of it.  At n = 200 and l = 2 a stack holds 13 problems: twice
# that ran no faster per problem and raised the peak resident memory of a
# confidence scan by 2 % instead of 1 %.
STACK_BYTES = 1 << 16


def _chunks(model, items):
    """The (sample, ...) tuples of an iterable, read lazily, in consecutive
    chunks that may share a stack: a chunk ends at max(1, STACK_BYTES //
    (8 n (l + 1))) items, n its first sample's size, or before a sample
    whose weights are not bitwise its first one's."""
    chunk = []
    for item in items:
        w = item[0].weights
        if chunk and (len(chunk) == size or not (
                w is w0 or (w.shape == w0.shape and w.tobytes() == w0.tobytes()))):
            yield chunk
            chunk = []
        if not chunk:
            w0, size = w, max(1, STACK_BYTES // (8 * item[0].n * (model.l + 1)))
        chunk.append(item)
    if chunk:
        yield chunk


def _check_tol(name, value):
    """Refuse, with ValueError, a tolerance that is not a finite real > 0:
    nan, 0 or below never ends a search before its iteration cap."""
    if not (isinstance(value, numbers.Real) and 0.0 < value < math.inf):
        raise ValueError(f"{name} must be a finite number > 0, not {value!r}")


def solve_inner_many(fam, model, problems, tol=TOL, hold_errors=True, stop=math.inf):
    """Maximize the dual criterion at every (sample, theta, init) of
    problems, yielding the DualSolutions in order.  A problem's set-up
    error is yielded in its place, so that it stops no other; without
    hold_errors it is raised at once, before the rest of its chunk is
    solved.  A tol that is not a finite number > 0, or a nan stop, is
    refused with ValueError at the call.

    Damped Newton from init, or by default from the quadratic closed form,
    shrunk into the feasible region, falling back to t = 0 (always
    feasible).  It stops once the gradient is within tol * (1 + |f|), or
    after MAX_ITER iterations, or ("above-stop") once f, a lower bound on
    the maximum, exceeds stop; every trial point keeps its psi arguments
    MARGIN inside dom psi.  For every family but chi2, a moment column of
    one strict sign (see _separated) returns "unbounded" at once: t = 0,
    objective +inf, no Newton iteration.  Empirical likelihood is KLm.
    """
    _check_tol("tol", tol)
    if math.isnan(stop):  # f > nan is never true: the stop would never act
        raise ValueError("stop must not be nan")
    return _solve_many(fam, model, problems, tol, hold_errors, stop, _Workspace())


def _solve_many(fam, model, problems, tol, hold_errors, stop, ws):
    """solve_inner_many, its arguments unchecked, in the workspace ws of
    its owner: one solve_inner_many call, or estimate._lockstep for all the
    rounds of its fits.

    The problems are set up one by one by _prepare and solved in the chunks
    of _chunks by _newton_ascent_stack, which gives each _newton_ascent's
    result bit for bit; a problem alone in its chunk, or left alone by the
    separated thetas of its chunk, goes to _newton_ascent, which is faster
    for one problem.  Every lone problem is solved, and every lone chunk
    set up, in ws, so that its solves make no fresh n x p array.
    """
    for chunk in _chunks(model, problems):
        lone = ws if len(chunk) == 1 else None
        # overflowing moment functions end in a typed error or status, not
        # a numpy warning, and so do the conjugates of every request, which
        # set no state of their own; the state is not held across the yield
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            w = chunk[0][0].weights
            sols, todo, A, t0 = [], [], [], []
            for sample, theta, init in chunk:
                try:
                    theta, a, t, sol = _prepare(fam, model, sample, theta, init, lone)
                except Exception as exc:  # handed to the caller in place of the solution
                    if not hold_errors:
                        raise
                    a, t, sol = None, None, exc
                if sol is None:
                    todo.append((len(sols), sample, theta))
                    A.append(a)
                    t0.append(t)
                sols.append(sol)
            del a
            if len(todo) == 1:
                [(i, sample, theta)] = todo
                sols[i] = DualSolution(*_newton_ascent(fam, A[0], w, t0[0], tol, stop, ws),
                                       fam, model, sample, theta)
            elif todo:
                A, t0 = np.stack(A), np.stack(t0)
                for (i, sample, theta), res in zip(
                        todo, _newton_ascent_stack(fam, A, w, t0, tol, stop)):
                    sols[i] = DualSolution(*res, fam, model, sample, theta)
            del A
        yield from sols


def solve_inner(fam, model, sample, theta):
    """The inner solve at one theta, cold (from the quadratic closed form)
    and at the default tolerance TOL: solve_inner_many of one problem, its
    set-up errors raised."""
    return next(solve_inner_many(fam, model, [(sample, theta, None)], hold_errors=False))

