import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phidiv import (CHI2, CHI2M, HELLINGER, KL, KLM, DomainError, ParameterSpaceError,
                    RankDeficiencyError, WeightedSample, chi2_closed_form,
                    family, get_model, power_family, solve_inner)
from phidiv import EstimateOptions, dual
from phidiv.dual import _augmented, _grad, _hess, _objective, solve_inner_many
from phidiv.estimate import estimate_many

from conftest import (el_reduced_solve, overflowing_sample, primal_grid,
                      primal_quadratic, random_feasible_instance)

MEAN = get_model("mean")
MV = get_model("mean-variance")
S01 = WeightedSample.from_points(np.array([0.0, 1.0]))
S02 = WeightedSample.from_points(np.array([0.0, 2.0]))
S012 = WeightedSample.from_points(np.array([0.0, 1.0, 2.0]))


# the error state the dual solver holds around every request: its private
# evaluators set none of their own
QUIET = dict(divide="ignore", over="ignore", invalid="ignore")


def objective_at(fam, model, sample, theta, t):
    A = _augmented(model, sample, np.atleast_1d(theta))
    with np.errstate(**QUIET):
        return _objective(fam, sample.weights, A @ t, t)


def grad_hess_at(fam, model, sample, theta, t):
    A = _augmented(model, sample, np.atleast_1d(theta))
    u = A @ t
    return _grad(fam, A, sample.weights, u), _hess(fam, A, sample.weights, u)


def solve_one(fam, model, sample, theta, init):
    """solve_inner_many on one problem from init, its set-up errors raised:
    solve_inner from a warm start."""
    return next(solve_inner_many(fam, model, [(sample, theta, init)], hold_errors=False))


def test_dual_objective_values():
    for fam in (KLM, KL, CHI2, HELLINGER):
        assert objective_at(fam, MEAN, S01, [1.0], np.zeros(2)) == 0.0
    assert objective_at(CHI2, MEAN, S01, [1.0], np.array([1.0, 2.0])) \
        == pytest.approx(0.5, abs=1e-12)
    assert objective_at(KLM, MEAN, S01, [1.0], np.array([2.0, 0.0])) == -np.inf


# psi arguments inside dom psi, holding nan, at KLm's edge u = 1, past it,
# and whose weighted conjugate sum overflows to +inf (chi2 at 1.5e154, KL at
# 709.7, twice each under unit weights) while every value is finite
RULE_CASES = [[-0.5, 0.2, 0.7], [-0.5, np.nan, 0.7], [0.2, 1.0, -0.3],
              [0.2, 1.5, 40.0], [1.5e154, 1.5e154, 0.1], [709.7, 709.7, 0.1]]
RULE_FAMILIES = [KLM, KL, CHI2, CHI2M, HELLINGER, power_family(1.5), power_family(3.0)]


def old_objective(fam, w, u, t):
    """_objective as it was: every psi value scanned for finiteness."""
    vals = fam.psi(u)
    if not np.isfinite(vals).all():
        return -np.inf
    return float(t[0] - w @ vals)


@pytest.mark.parametrize("fam", RULE_FAMILIES, ids=lambda f: f.name)
def test_objective_reads_finiteness_from_the_sum_bit_for_bit(fam):
    # w > 0 is finite, so w @ psi is finite exactly when every psi value
    # is, and a sum that overflows to +inf gives -inf as before
    t, U = np.array([0.25, -1.0, 2.0]), np.array(RULE_CASES)
    for w in (np.array([0.2, 0.3, 0.5]), np.ones(3)):
        with np.errstate(**QUIET):
            want = [old_objective(fam, w, u, t).hex() for u in U]
            got = [_objective(fam, w, u.copy(), t).hex() for u in U]
            rows = dual._objective_rows(fam, w, U, np.tile(t, (len(U), 1)))
            sums = [w @ fam.psi(u) for u in U]
        assert got == want
        assert [float(f).hex() for f in rows] == want
    if fam in (CHI2, KL):  # finite values whose unit-weight sum overflows
        k = 4 if fam is CHI2 else 5
        assert np.isfinite(fam.psi(U[k])).all() and sums[k] == np.inf


def old_solve_psd(neg_h, grad):
    """_solve_psd as it was: a zero ridge added as 0 * I."""
    ridge = 0.0
    for attempt in range(3):
        try:
            step = np.linalg.solve(neg_h + ridge * np.eye(neg_h.shape[0]), grad)
            if np.isfinite(step).all():
                return step, attempt > 0
        except np.linalg.LinAlgError:
            pass
        ridge = max(1e-12 * np.trace(neg_h), 1e-300) * 10.0 ** attempt
    return np.full_like(grad, np.nan), True


@pytest.mark.parametrize("neg_h", [
    [[2.0, -0.0, 0.5], [-0.0, 3.0, -0.0], [0.5, -0.0, 1.0]],  # -0.0 entries
    [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 2.0]],      # singular: a ridge
    [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],      # ridge of 1e-300
    [[1.0, np.nan, 0.0], [np.nan, 1.0, 0.0], [0.0, 0.0, 1.0]],  # every try fails
], ids=["negative-zeros", "singular", "zero", "nan"])
def test_solve_psd_adds_a_zero_ridge_as_zero_bit_for_bit(neg_h):
    neg_h, grad = np.array(neg_h), np.array([1.0, -2.0, 0.5])
    want_step, want_ridge = old_solve_psd(neg_h, grad)
    with np.errstate(**QUIET):
        step, ridge, finite = dual._solve_psd(neg_h, grad)
    assert (step.tobytes(), ridge) == (want_step.tobytes(), want_ridge)
    assert finite == np.isfinite(step).all()


def test_solves_whose_conjugates_overflow_raise_no_warning():
    # a large warm start overflows KL's conjugate at the start: the solver's
    # one error state per chunk covers every request, lone and stacked
    fam, model, sample, grid, init = grid_case(1.0, "mean-variance", 40, 4, False, "large", 12)
    assert np.isinf(fam.psi(_augmented(model, sample, grid[0]) @ init)).any()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        lone = list(solve_inner_many(fam, model, [(sample, grid[0], init)]))
        stacked = list(solve_inner_many(fam, model, [(sample, th, init) for th in grid]))
    assert solution_bits(lone[0]) == solution_bits(stacked[0])


def test_dual_grad_hess_at_zero():
    grad, hess = grad_hess_at(KL, MV, S012, [0.5], np.zeros(3))
    g = MV.g_values(S012.points, np.array([0.5]))
    A = np.hstack([np.ones((3, 1)), g])
    assert np.allclose(grad, -S012.weights @ A + np.eye(3)[0])
    assert np.allclose(hess, -(A * S012.weights[:, None]).T @ A)
    evals = np.linalg.eigvalsh(hess)
    assert np.all(evals <= 1e-8)


def test_grad_matches_finite_differences(rng):
    theta = np.array([0.5])
    t = np.array([0.1, -0.2, 0.05])
    grad, hess = grad_hess_at(HELLINGER, MV, S012, theta, t)
    h = 1e-6
    for k in range(3):
        tp = t.copy(); tp[k] += h
        tm = t.copy(); tm[k] -= h
        fd = (objective_at(HELLINGER, MV, S012, theta, tp)
              - objective_at(HELLINGER, MV, S012, theta, tm)) / (2.0 * h)
        assert grad[k] == pytest.approx(fd, abs=1e-6)


@pytest.mark.parametrize("fam", [KLM, KL, CHI2, CHI2M, HELLINGER],
                         ids=lambda f: f.name)
def test_solution_u_is_design_matrix_times_t(fam, rng):
    x = rng.uniform(-1.0, 1.2, size=40)
    sample = WeightedSample.from_points(x)
    theta = np.array([0.4])
    A = _augmented(MV, sample, theta)
    cold = solve_inner(fam, MV, sample, theta)
    warm = solve_one(fam, MV, sample, theta, 0.5 * cold.t)
    closed = chi2_closed_form(MV, sample, theta)
    for sol in (cold, warm, closed):
        assert (A @ sol.t).tobytes() == sol.u.tobytes()
    # a stacked chunk, fits in lockstep and a large lone solve in its
    # workspace: variance_blocks reads u in place of A @ t
    samples = [WeightedSample.from_points(rng.uniform(-1.0, 1.2, size=40)) for _ in range(4)]
    stacked = list(solve_inner_many(fam, MV, [(s, [th], None)
                                              for s, th in zip(samples, (0.3, 0.4, 0.5, 0.6))]))
    fits = [est.inner for est in estimate_many(fam, MV, samples, EstimateOptions(n_starts=2))]
    large = solve_inner(fam, MV, WeightedSample.from_points(rng.uniform(-1.0, 1.2, 20_000)), theta)
    for sol in stacked + fits + [large]:
        A = _augmented(sol.model, sol.sample, sol.theta)
        assert (A @ sol.t).tobytes() == sol.u.tobytes()


def test_chi2_closed_form_worked_example():
    sol = chi2_closed_form(MEAN, S01, [1.0])
    assert np.allclose(sol.t, [1.0, 2.0], atol=1e-10)
    assert sol.objective == pytest.approx(0.5, abs=1e-10)
    assert np.allclose(sol.weights, [0.0, 1.0], atol=1e-10)


def test_chi2_closed_form_zero_case():
    sol = chi2_closed_form(MEAN, S02, [1.0])
    assert np.allclose(sol.t, [0.0, 0.0], atol=1e-12)
    assert sol.objective == pytest.approx(0.0, abs=1e-12)


def test_chi2_closed_form_mean_variance():
    s = WeightedSample.from_points(np.array([-1.0, 0.0, 1.0]))
    sol = chi2_closed_form(MV, s, [2.0 / 3.0])
    q = sol.weights
    g = MV.g_values(s.points, np.array([2.0 / 3.0]))
    assert abs(q.sum() - 1.0) <= 1e-12
    assert np.max(np.abs(q @ g)) <= 1e-12
    direct = solve_inner(CHI2, MV, s, [2.0 / 3.0])
    assert np.allclose(sol.t, direct.t, atol=1e-8)


def test_chi2_closed_form_singular():
    s = WeightedSample.from_points(np.array([1.0, 1.0, 1.0]))
    with pytest.raises(RankDeficiencyError):
        chi2_closed_form(MEAN, s, [1.0])


def test_chi2_closed_form_overflow_is_domain_error_without_warning():
    # x^2 overflows: the Gram matrix is not finite, and numpy stays quiet
    # (a RuntimeWarning fails the suite)
    s = overflowing_sample(np.random.default_rng(4), 30)
    with pytest.raises(DomainError, match="the moment functions overflow"):
        chi2_closed_form(MV, s, [0.3])


def test_solve_inner_exact_fit():
    for fam in (KLM, KL, CHI2, HELLINGER):
        sol = solve_inner(fam, MEAN, S02, [1.0])
        assert sol.converged
        assert np.allclose(sol.t, 0.0, atol=1e-8)
        assert abs(sol.objective) <= 1e-12
        assert np.allclose(sol.weights, 0.5, atol=1e-8)


def test_solve_inner_chi2_worked_example():
    sol = solve_inner(CHI2, MEAN, S01, [1.0])
    assert sol.converged
    assert np.allclose(sol.t, [1.0, 2.0], atol=1e-10)
    assert sol.objective == pytest.approx(0.5, abs=1e-10)
    assert np.allclose(sol.weights, [0.0, 1.0], atol=1e-10)


def test_el_unbounded_on_hull_boundary():
    sol = solve_inner(KLM, MEAN, S01, [1.0])
    assert sol.status == "unbounded"
    assert sol.weights is None


# x in [-1, 1.01]: x^2 - theta keeps one sign at theta = -2 and at theta = 5
SEPARATED = WeightedSample.from_points(np.random.default_rng(3).uniform(-1.0, 1.01, 200))


@pytest.mark.parametrize("spec", ["KLm", "KL", "hellinger", "chi2m",
                                  "power:0.75", "power:-0.5", "power:1.5", "power:4"])
@pytest.mark.parametrize("theta", [-2.0, 5.0])
def test_separated_theta_is_unbounded_without_newton(spec, theta, monkeypatch):
    calls = []
    for name in ("_grad", "_hess", "chi2_closed_form"):
        monkeypatch.setattr(dual, name, lambda *a: calls.append(a))
    sol = solve_inner(family(spec), MV, SEPARATED, [theta])
    assert (sol.status, sol.iterations, sol.objective) == ("unbounded", 0, np.inf)
    assert not sol.t.any() and not sol.u.any()
    assert sol.weights is None
    assert calls == []


@pytest.mark.parametrize("spec", ["chi2", "power:3"])
def test_separated_theta_is_solved_for_gamma_above_one(spec):
    sol = solve_inner(family(spec), MV, SEPARATED, [-2.0])
    if spec == "power:3":
        # psi is flat at -1/3 below a_star, so the empty hull, which admits no
        # nonnegative measure (primal_grid is +inf), makes the dual unbounded
        assert (sol.status, sol.iterations, sol.objective) == ("unbounded", 0, np.inf)
        return
    # chi2 weights may be negative: the dual is bounded and Newton runs
    assert sol.status != "unbounded" and sol.iterations > 0
    assert np.isfinite(sol.objective) and sol.objective > 0.0


def test_gamma_above_one_settles_a_projection_with_zero_weights():
    # at theta = 0.2 the power:3 projection puts zero weight on some points:
    # psi' vanishes below a_star, so Newton settles it
    sol = solve_inner(family("power:3"), MV, SEPARATED, [0.2])
    assert sol.converged and sol.iterations < 20
    q = sol.weights
    assert (q >= 0.0).all() and (q == 0.0).any()
    assert q.sum() == pytest.approx(1.0, abs=1e-9)


def test_newton_stall_fast_forward_matches_full_run(monkeypatch):
    # Below the rounding floor of f the accepted steps stop moving t from
    # iteration 17 on (t_0 still moves in its last bits after u stops at
    # iteration 11); t, f and the counts are those of all 200 iterations.
    calls = {"_grad": 0, "_hess": 0}
    for name in calls:
        real = getattr(dual, name)
        monkeypatch.setattr(dual, name, lambda *a, name=name, real=real:
                            calls.__setitem__(name, calls[name] + 1) or real(*a))
    sample = WeightedSample.from_points(
        np.random.default_rng(20240817).uniform(-1.0, 2.0, 300))
    sol = solve_inner(KLM, MV, sample, [0.5135235126042885])
    assert [v.hex() for v in sol.t] == [
        "0x1.618b78a000001p-28", "-0x1.3cb349d28be89p-1", "-0x1.67fa9580a7a4cp-1"]
    assert sol.objective.hex() == "0x1.071131e15ba8bp-2"
    assert (sol.status, sol.iterations, sol.diagnostics["backtracks"]) == \
        ("max-iterations", 200, 10294)
    assert 0 < calls["_hess"] <= calls["_grad"] <= 18


def test_el_reduced_value():
    # scalar first-order condition sum g_i / (1 + t g_i) = 0, g = {-.5,.5,1.5}
    sol = el_reduced_solve(MEAN, S012, [0.5])
    assert sol.converged
    assert sol.diagnostics["reduced_t"][0] == pytest.approx(0.954, abs=1e-3)
    assert sol.t[0] == 0.0


def test_el_reduced_trivial():
    sol = el_reduced_solve(MEAN, S02, [1.0])
    assert sol.converged
    assert np.allclose(sol.t, 0.0, atol=1e-10)
    assert abs(sol.objective) <= 1e-12


def test_el_full_and_reduced_agree(rng):
    hits = 0
    for _ in range(40):
        model, sample, theta = random_feasible_instance(rng, "mean", n=6)
        full = solve_inner(KLM, model, sample, theta)
        red = el_reduced_solve(model, sample, theta)
        if not (full.converged and red.converged):
            continue
        hits += 1
        assert full.objective == pytest.approx(red.objective, abs=1e-8)
        assert abs(full.t[0]) <= 1e-8
        assert np.allclose(full.t, red.t, atol=1e-6)
        assert np.allclose(full.weights, red.weights, atol=1e-6)
    assert hits >= 20


def test_projection_constraints(rng):
    for fam in (KLM, KL, CHI2, HELLINGER):
        for _ in range(10):
            model, sample, theta = random_feasible_instance(rng, "mean", n=8)
            sol = solve_inner(fam, model, sample, theta)
            if not sol.converged:
                continue
            q = sol.weights
            g = model.g_values(sample.points, theta)
            assert abs(q.sum() - 1.0) <= 1e-8
            assert np.max(np.abs(q @ g)) <= 1e-8
            u = np.hstack([np.ones((sample.n, 1)), g]) @ sol.t
            assert fam.strictly_feasible(u, margin=0.0)
            assert sol.objective >= -1e-10


def test_warm_start_equivalence(rng):
    for fam in (KLM, KL, HELLINGER):
        for _ in range(10):
            model, sample, theta = random_feasible_instance(rng, "mean", n=6)
            a = solve_inner(fam, model, sample, theta)
            b = solve_one(fam, model, sample, theta, np.zeros(2))
            if a.converged and b.converged:
                assert np.allclose(a.t, b.t, atol=1e-8)


def test_dual_equals_primal_quadratic(rng):
    for _ in range(30):
        model, sample, theta = random_feasible_instance(rng, "mean", n=5)
        sol = chi2_closed_form(model, sample, theta)
        val, q = primal_quadratic(model, sample, theta)
        assert sol.objective == pytest.approx(val, abs=1e-8)
        assert np.allclose(sol.weights, q, atol=1e-8)


# statuses test_dual_equals_primal_grid_across_gamma skips, each counted:
# a Newton stalled at the rounding floor of f ends "max-iterations"
SKIPPED_STATUSES = ("max-iterations",)


def test_dual_equals_primal_grid_across_gamma(rng):
    skipped, checked = {status: 0 for status in SKIPPED_STATUSES}, 0
    for gamma in rng.uniform(-3.0, 4.0, 40):
        fam = power_family(gamma)
        for _ in range(3):
            model, sample, theta = random_feasible_instance(rng, "mean", n=4)
            sol = solve_inner(fam, model, sample, theta)
            if sol.status in skipped:
                skipped[sol.status] += 1
                continue
            assert sol.status == "converged", (gamma, sol.status)
            oracle = primal_grid(fam, model, sample, theta)
            assert sol.objective == pytest.approx(oracle, abs=1e-4), gamma
            checked += 1
    assert sum(skipped.values()) <= 6 and checked + sum(skipped.values()) == 120


def test_dual_equals_primal_grid(rng):
    checked = 0
    for fam in (KLM, KL, HELLINGER):
        for _ in range(8):
            model, sample, theta = random_feasible_instance(rng, "mean", n=4)
            sol = solve_inner(fam, model, sample, theta)
            if not sol.converged:
                continue
            oracle = primal_grid(fam, model, sample, theta)
            assert sol.objective == pytest.approx(oracle, abs=1e-4)
            checked += 1
    assert checked >= 12


def test_hessian_negative_semidefinite_along_path(rng):
    model, sample, theta = random_feasible_instance(rng, "mean", n=6)
    sol = solve_inner(KL, model, sample, theta)
    assert sol.converged
    for frac in np.linspace(0.0, 1.0, 11):
        _, hess = grad_hess_at(KL, model, sample, theta, frac * sol.t)
        assert np.max(np.linalg.eigvalsh(hess)) <= 1e-8


def solution_bits(sol):
    """Everything solve_inner returns, as bytes: equal keys are bit for bit."""
    return (sol.t.tobytes(), sol.u.tobytes(), float(sol.objective).hex(), sol.status,
            sol.iterations, float(sol.grad_norm).hex(), sol.diagnostics["backtracks"],
            sol.diagnostics["ridge_used"], sol.weights is None)


def grid_case(gamma, model_name, n, seed, ties, warm, npts):
    """A sample and a grid mixing theta inside the hull of the moment values,
    theta that separate them (unbounded before Newton for gamma <= 1) and
    theta in the box outside the data range; ties make singular Hessians
    (ridge steps) and a "large" warm start overflows KL's conjugate."""
    fam, model = power_family(gamma), get_model(model_name)
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0 + rng.random(), n)
    if ties:
        x = rng.choice(x[:2], n)
    inside = x ** 2 if model_name == "mean-variance" else x
    grid = np.concatenate([rng.uniform(inside.min(), inside.max(), npts),
                           rng.uniform(-10.0, 10.0, npts // 2 + 1)])[:, None]
    rng.shuffle(grid)
    init = {"zero": np.zeros(model.l + 1), "random": rng.normal(0.0, 0.5, model.l + 1),
            "large": rng.normal(0.0, 1e3, model.l + 1), "closed-form": None}[warm]
    return fam, model, WeightedSample.from_points(x), grid, init


@given(gamma=st.one_of(st.sampled_from([0.0, 1.0, 2.0, -1.0, 0.5]),
                       st.floats(-3.0, 4.0, allow_nan=False)),
       model_name=st.sampled_from(["mean", "mean-variance"]),
       n=st.integers(3, 300), seed=st.integers(0, 2 ** 32 - 1), ties=st.booleans(),
       warm=st.sampled_from(["zero", "random", "large", "closed-form"]),
       npts=st.integers(1, 24), stack_bytes=st.sampled_from([1 << 12, 1 << 17]))
@example(1.5, "mean-variance", 40, 0, False, "random", 12, 1 << 17)  # boundary stops
@example(1.5, "mean-variance", 40, 8, True, "random", 12, 1 << 17)   # ridge steps
@example(1.0, "mean-variance", 40, 4, False, "large", 12, 1 << 17)   # KL overflows
@settings(max_examples=50, deadline=None)
def test_grid_solve_equals_solve_inner_bit_for_bit(gamma, model_name, n, seed, ties,
                                                   warm, npts, stack_bytes):
    fam, model, sample, grid, init = grid_case(gamma, model_name, n, seed, ties, warm, npts)
    with pytest.MonkeyPatch.context() as mp:  # small budgets: several chunks
        mp.setattr(dual, "STACK_BYTES", stack_bytes)
        got = [solution_bits(sol) for sol in solve_inner_many(
            fam, model, [(sample, theta, init) for theta in grid], hold_errors=False)]
    want = [solution_bits(solve_one(fam, model, sample, theta, init)) for theta in grid]
    assert got == want


def test_stacked_calls_take_any_samples():
    # a stack holds one weight vector, so every problem is its lone solve,
    # bit for bit, whatever its neighbours' weights and sizes: two weight
    # vectors on one set of 50 points and a sample of 40 points, interleaved
    # in runs of two to four
    rng = np.random.default_rng(21)
    x = rng.uniform(-1.0, 1.2, 50)
    a, b = WeightedSample.from_points(x), WeightedSample(x, rng.dirichlet(np.ones(50)))
    c = WeightedSample.from_points(rng.uniform(-1.0, 1.2, 40))
    problems = [(s, [theta]) for s in (a, b, b, a, c, c, a) for theta in (0.3, 0.45)]
    got = solve_inner_many(KLM, MV, [(s, theta, None) for s, theta in problems])
    assert [solution_bits(sol) for sol in got] == \
        [solution_bits(solve_inner(KLM, MV, s, theta)) for s, theta in problems]


def separated_chunk(theta):
    """solve_inner_many of a chunk whose other thetas are separated, so that
    theta is the lone solve they leave behind; its solution."""
    problems = [(SEPARATED, [-2.0], None), (SEPARATED, theta, None),
                (SEPARATED, [5.0], None)]
    return list(solve_inner_many(KLM, MV, problems, hold_errors=False))[1]


# every path that builds a DualSolution, as theta -> the solution at theta
CONSTRUCTION_PATHS = {
    "lone newton": lambda theta: solve_inner(KLM, MV, SEPARATED, theta),
    "stacked chunk": lambda theta: list(solve_inner_many(
        KLM, MV, [(SEPARATED, th, None) for th in ([0.3], theta, [0.45])]))[1],
    "lone in a stacked chunk": separated_chunk,
    "separated": lambda theta: solve_inner(KLM, MV, SEPARATED, -2.0 * np.asarray(theta)),
    "chi2 closed form": lambda theta: chi2_closed_form(MV, SEPARATED, theta),
}


@pytest.mark.parametrize("path", CONSTRUCTION_PATHS)
@pytest.mark.parametrize("theta", [[0.4], 0.4], ids=["list", "scalar"])
def test_every_solution_records_the_problem_it_solved(path, theta):
    sol = CONSTRUCTION_PATHS[path](theta)
    want = MV.check_theta(-2.0 * np.asarray(theta) if path == "separated" else theta)
    fam = CHI2 if path == "chi2 closed form" else KLM
    assert sol.fam is fam and sol.model is MV and sol.sample is SEPARATED
    assert sol.theta.dtype == want.dtype and np.array_equal(sol.theta, want)
    assert sol.status == ("unbounded" if path == "separated" else "converged")


def test_a_solution_keeps_its_theta_when_the_callers_array_changes():
    theta = np.array([0.4])
    sol = solve_inner(KLM, MV, SEPARATED, theta)
    theta[0] = 0.9
    assert sol.theta.tolist() == [0.4]
    assert sol.objective == solve_inner(KLM, MV, SEPARATED, [0.4]).objective


def test_stacked_envelope_gradients_equal_lone_ones_bit_for_bit():
    grid = np.linspace(0.05, 0.95, 19)
    stacked = solve_inner_many(KLM, MV, [(SEPARATED, [theta], None) for theta in grid])
    got = [sol.envelope_grad().tobytes() for sol in stacked]
    assert got == [solve_inner(KLM, MV, SEPARATED, [theta]).envelope_grad().tobytes()
                   for theta in grid]


def test_chunks_cut_at_the_budget_and_at_new_weights_lazily(monkeypatch):
    s = WeightedSample.from_points(np.linspace(-1.0, 1.0, 50))
    same = WeightedSample(s.points, s.weights.copy())  # equal bytes, another array
    other = WeightedSample(s.points, np.linspace(1.0, 2.0, 50) / 75.0)
    monkeypatch.setattr(dual, "STACK_BYTES", 3 * 8 * 50 * 3)  # three a chunk
    pulled = []

    def stream():
        for k, sample in enumerate([s, same, s, s, other, s]):
            pulled.append(k)
            yield sample, k

    cuts = [([k for _, k in chunk], len(pulled)) for chunk in dual._chunks(MV, stream())]
    assert [keys for keys, _ in cuts] == [[0, 1, 2], [3], [4], [5]]
    assert all(seen <= keys[-1] + 2 for keys, seen in cuts)  # one item beyond at most


def test_grid_raises_a_set_up_error_before_solving_its_chunk(monkeypatch):
    calls = []
    for name in ("_newton_ascent", "_newton_ascent_stack"):
        monkeypatch.setattr(dual, name, lambda *args, _name=name: calls.append(_name))
    sample = WeightedSample.from_points(np.random.default_rng(0).uniform(-1.0, 1.0, 50))
    with pytest.raises(ParameterSpaceError, match="outside the parameter box"):
        next(solve_inner_many(KLM, MV, [(sample, theta, None) for theta in
                                        [0.3, 0.4, 99.0, 0.5]], hold_errors=False))
    assert calls == []


@pytest.mark.parametrize("bad", [{"tol": v} for v in (np.nan, np.inf, -np.inf, 0.0, -1.0,
                                                       "1e-8", None)] + [{"stop": np.nan}])
def test_solve_inner_many_rejects_a_bad_tolerance_or_stop_at_the_call(bad):
    # before the problems are read: a bad tolerance ran every solve to
    # MAX_ITER, and a nan stop never stopped one
    def problems():
        raise AssertionError("the problems were read")
        yield

    match = "tol must be a finite number > 0" if "tol" in bad else "stop must not be nan"
    with pytest.raises(ValueError, match=match):
        solve_inner_many(KLM, MV, problems(), **bad)
    sample = WeightedSample.from_points(np.linspace(-1.0, 1.2, 50))
    kept = {"tol": np.float32(1e-6)} if "tol" in bad else {"stop": -np.inf}
    assert next(solve_inner_many(KLM, MV, [(sample, [0.1], None)], **kept)).status == \
        ("converged" if "tol" in bad else "above-stop")


@pytest.mark.parametrize("spec", ["KLm", "KL", "hellinger", "chi2", "power:1.5"])
@pytest.mark.parametrize("n", [50, 200])
def test_stop_bound_ends_only_solves_whose_maximum_lies_above_it(spec, n):
    # a solve stopped at the bound is above it, and its full run ended at or
    # above the stopped criterion, or did not converge; every other solve,
    # lone or stacked, is the full run bit for bit
    fam = family(spec)
    s = WeightedSample.from_points(np.random.default_rng(n).uniform(-1.0, 1.2, n))
    init = solve_inner(fam, MV, s, [0.35]).t
    problems = [(s, [theta], init) for theta in np.linspace(0.05, 0.95, 19)]
    full = list(solve_inner_many(fam, MV, problems))
    stop = float(np.median([sol.objective for sol in full if sol.converged]))
    lone = [next(solve_inner_many(fam, MV, [p], stop=stop)) for p in problems]
    stacked = list(solve_inner_many(fam, MV, problems, stop=stop))
    for got in (lone, stacked):
        stopped = 0
        for sol, want in zip(got, full):
            if sol.status == "above-stop":
                stopped += 1
                assert sol.objective > stop and sol.weights is None
                assert not want.converged or want.objective >= sol.objective
            else:
                assert solution_bits(sol) == solution_bits(want)
        assert 0 < stopped < len(problems)
    assert all(sol.status != "above-stop" for sol in full)


def scripted_newton(t, f, gnorm, trial_value):
    """dual._newton from t on scripted replies: the criterion f at t, a
    gradient of max norm gnorm, a Newton step along it, and trial_value for
    every trial point (None: outside the domain).  Returns _newton's result
    and the number of trials asked for."""
    gen = dual._newton(np.array(t, dtype=float), dual.TOL, np.inf)
    grad = np.array([gnorm, 0.0])
    replies = {dual._EVAL: lambda x: (np.zeros(3), f),
               dual._GRAD: lambda u: (grad, gnorm),
               dual._SOLVE: lambda x: (grad, False, float(grad @ grad), True),
               dual._TRIAL: lambda x: (x[0] + x[1] * x[2], np.zeros(3), trial_value)}
    kinds = []
    request = next(gen)
    try:
        while True:
            kinds.append(request[0])
            request = gen.send(replies[request[0]](request[1]))
    except StopIteration as end:
        return end.value, kinds.count(dual._TRIAL)


@pytest.mark.parametrize("t, f, gnorm, trial_value, status", [
    ([0.5, 1.0], 2.0, 1.0, None, "converged-boundary"),  # every trial outside dom psi
    ([0.5, 1.0], 2.0, 2e-6, 1.0, "converged"),           # no ascent left: gradient tiny
    ([0.5, 2e6], 2.0, 2e-6, 1.0, "unbounded"),           # ... at |t| > T_SOFT
    ([0.5, 1.0], 2.0, 1.0, 1.0, "max-iterations"),       # no ascent, gradient not small
    ([0.5, 1.0], 2.0, 1.0, -np.inf, "max-iterations"),
])
def test_newton_ends_when_no_trial_is_accepted(t, f, gnorm, trial_value, status):
    (t_end, _, f_end, got, iterations, g_end, diag), trials = \
        scripted_newton(t, f, gnorm, trial_value)
    assert (got, iterations, diag["backtracks"], trials) == (status, 1, 60, 60)
    assert t_end.tolist() == t and (f_end, g_end) == (f, gnorm)
