import importlib
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phidiv import (CHI2, KL, KLM, DomainError, EstimateOptions, EstimationError,
                    MomentModel, PhidivError, WeightedSample, builtin_model, dual,
                    estimate, family, get_model, profile_objective)
from phidiv.estimate import _lockstep, estimate_many, variance_blocks
from phidiv.inference import test_models as model_tests
from phidiv.simulate import MC_OPTIONS

from conftest import (estimate_one_at_a_time, mixed_samples, overflowing_sample,
                      random_feasible_instance)

MEAN = get_model("mean")
MV = get_model("mean-variance")

FAST = EstimateOptions(n_starts=2)


def test_profile_objective_values():
    s = WeightedSample.from_points(np.array([0.0, 2.0]))
    for fam in (KLM, KL, CHI2):
        val, sol = profile_objective(fam, MEAN, s, [1.0])
        assert val == pytest.approx(0.0, abs=1e-12)
        assert sol.converged
    s01 = WeightedSample.from_points(np.array([0.0, 1.0]))
    val, _ = profile_objective(CHI2, MEAN, s01, [1.0])
    assert val == pytest.approx(0.5, abs=1e-10)


def test_profile_objective_infeasible_theta():
    s01 = WeightedSample.from_points(np.array([0.0, 1.0]))
    val, sol = profile_objective(KLM, MEAN, s01, [1.0])
    assert val == np.inf
    assert sol.status == "unbounded"


def test_profile_minimized_at_sample_mean(rng):
    x = rng.normal(0.4, 1.0, size=40)
    s = WeightedSample.from_points(x)
    grid = np.linspace(x.mean() - 1.0, x.mean() + 1.0, 41)
    vals = [profile_objective(CHI2, MEAN, s, [th])[0] for th in grid]
    best = grid[int(np.argmin(vals))]
    assert best == pytest.approx(x.mean(), abs=0.05)


def test_profile_gradient_matches_finite_differences(rng):
    checked = 0
    for _ in range(50):
        x = rng.normal(0.0, 1.0, size=25)
        s = WeightedSample.from_points(x)
        theta = np.array([float(np.mean(x ** 2)) + 0.1 * rng.normal()])
        fam = (KLM, KL, CHI2)[checked % 3]
        val, sol = profile_objective(fam, MV, s, theta)
        if not sol.converged:
            continue
        grad = sol.envelope_grad()
        h = 1e-6
        up, _ = profile_objective(fam, MV, s, theta + h)
        dn, _ = profile_objective(fam, MV, s, theta - h)
        assert grad[0] == pytest.approx((up - dn) / (2.0 * h), abs=1e-5)
        checked += 1
    assert checked >= 30


def test_profile_gradient_zero_when_constraints_hold():
    s = WeightedSample.from_points(np.array([0.0, 2.0]))
    val, sol = profile_objective(KL, MEAN, s, [1.0])
    grad = sol.envelope_grad()
    assert np.allclose(grad, 0.0, atol=1e-8)


S200 = WeightedSample.from_points(np.random.default_rng(0).uniform(-1.0, 1.2, 200))


def test_profile_gradient_requires_convergence():
    # the profile gradient is envelope_grad() of a converged solve; any
    # other is refused with EstimationError, not with a numpy error
    s01 = WeightedSample.from_points(np.array([0.0, 1.0]))
    unbounded = dual.solve_inner(KLM, MEAN, s01, [1.0])
    [above] = dual.solve_inner_many(KLM, MV, [(S200, [0.4], None)], stop=-1.0)
    for sol, status in ((unbounded, "unbounded"), (above, "above-stop")):
        assert sol.status == status
        with pytest.raises(EstimationError, match=f"status={status}"):
            sol.envelope_grad()


def test_solutions_and_fits_compare_by_identity():
    # the fields are arrays: == is identity, a bool, and each hashes
    fit, other = estimate(KLM, MV, S200, FAST), estimate(KLM, MV, S200, FAST)
    for x, y in ((fit.inner, other.inner), (fit, other)):
        assert (x == x) is True and (x == y) is False and (x != y) is True
        assert len({x, y, x}) == 2


def test_fit_reads_every_fact_of_its_inner_solve(rng):
    s = WeightedSample.from_points(rng.uniform(-1.0, 1.2, 60))
    est = estimate(KLM, MV, s, options=FAST)
    assert [f.name for f in fields(est)] == ["inner", "diagnostics"]
    assert est.theta_hat is est.inner.theta and est.t_hat is est.inner.t
    assert est.inner.fam is KLM and est.inner.model is MV and est.inner.sample is s
    assert est.divergence_hat == est.inner.objective
    assert est.sigma2_hat == est.inner.sigma2


@pytest.mark.parametrize("fam", [KLM, KL, CHI2], ids=lambda f: f.name)
def test_exactly_identified_collapse(fam, rng):
    x = rng.normal(0.3, 1.0, size=30)
    s = WeightedSample.from_points(x)
    est = estimate(fam, MEAN, s, options=FAST)
    assert est.theta_hat[0] == pytest.approx(x.mean(), abs=1e-6)
    assert est.divergence_hat == pytest.approx(0.0, abs=1e-10)
    assert np.allclose(est.t_hat, 0.0, atol=1e-6)


def test_estimate_requires_enough_data():
    s = WeightedSample.from_points(np.array([0.5, 0.7]))
    with pytest.raises(EstimationError):
        estimate(KLM, MV, s)


def test_estimate_mean_variance_consistency(rng):
    x = rng.uniform(-1.0, 1.0, size=2000)
    s = WeightedSample.from_points(x)
    est = estimate(CHI2, MV, s, options=FAST)
    se = est.stderr()[0]
    assert abs(est.theta_hat[0] - 1.0 / 3.0) <= 3.0 * se
    assert est.divergence_hat >= -1e-10
    assert est.sigma2_hat >= 0.0
    assert np.allclose(est.V_hat, est.V_hat.T)
    assert np.all(np.linalg.eigvalsh(est.V_hat) > 0.0)
    assert np.allclose(est.W_hat, est.W_hat.T, atol=1e-8)


def test_estimate_is_inf_over_theta(rng):
    x = rng.uniform(-1.0, 1.4, size=120)
    s = WeightedSample.from_points(x)
    est = estimate(KLM, MV, s, options=FAST)
    for th in np.linspace(0.2, 0.9, 8):
        val, sol = profile_objective(KLM, MV, s, [th])
        if sol.converged:
            assert est.divergence_hat <= val + 1e-8


def test_equivariance_affine_mean(rng):
    x = rng.normal(1.0, 0.5, size=60)
    s = WeightedSample.from_points(x)
    est = estimate(KL, MEAN, s, options=FAST)

    a, c = 2.5, -0.75

    def g(xp, theta):
        return a * xp + c - theta[None, :]

    def g_jac(xp, theta):
        return np.broadcast_to(-np.eye(1), (xp.shape[0], 1, 1))

    scaled = MomentModel("affine-mean", 1, 1, 1, g, g_jac)
    est2 = estimate(KL, scaled, s, options=FAST)
    assert est2.theta_hat[0] == pytest.approx(a * est.theta_hat[0] + c, abs=1e-6)
    assert est2.divergence_hat == pytest.approx(est.divergence_hat, abs=1e-8)


def test_variance_blocks_shapes(rng):
    x = rng.uniform(-1.0, 1.2, size=200)
    s = WeightedSample.from_points(x)
    est = estimate(KLM, MV, s, options=FAST)
    v, s_mat, m_mat, w_mat = variance_blocks(est.inner)
    dim = 1 + MV.l + MV.d
    assert v.shape == (1, 1)
    assert s_mat.shape == (dim, dim)
    assert m_mat.shape == (dim, dim)
    assert w_mat.shape == (dim, dim)
    assert est.sigma2_hat >= 0.0
    assert np.allclose(s_mat, s_mat.T, atol=1e-8)
    assert np.allclose(m_mat, m_mat.T, atol=1e-10)
    assert np.all(np.linalg.eigvalsh(m_mat) >= -1e-10)


def test_population_estimate_on_model():
    # fine discretization of uniform[-1, 1]: model holds, theta* = 1/3
    from phidiv.simulate import discretize_uniform
    p0 = discretize_uniform(-1.0, 1.0, 4000)
    est = estimate(CHI2, MV, p0, options=FAST)
    assert est.divergence_hat == pytest.approx(0.0, abs=1e-6)
    assert est.theta_hat[0] == pytest.approx(1.0 / 3.0, abs=1e-3)


def test_population_estimate_misspecified():
    from phidiv.simulate import discretize_uniform
    p0 = discretize_uniform(-1.0, 1.5, 4000)
    est = estimate(CHI2, MV, p0, options=FAST)
    assert est.divergence_hat > 1e-3
    coarse = estimate(
        CHI2, MV, discretize_uniform(-1.0, 1.5, 1000), options=FAST)
    assert abs(coarse.divergence_hat - est.divergence_hat) < 1e-3


def test_theta0_start_is_used(rng):
    x = rng.uniform(-1.0, 1.0, size=150)
    s = WeightedSample.from_points(x)
    opts = EstimateOptions(n_starts=1, theta0=(0.33,))
    est = estimate(KLM, MV, s, options=opts)
    assert est.divergence_hat >= -1e-10
    assert 0.0 < est.theta_hat[0] < 1.0


def fit_bits(result):
    """Everything estimate returns, or the type and message of what it
    raises: equal values are bit for bit."""
    if isinstance(result, Exception):
        return type(result).__name__, str(result)
    return (result.theta_hat.tobytes(), result.t_hat.tobytes(),
            float(result.divergence_hat).hex(), float(result.sigma2_hat).hex(),
            result.inner.u.tobytes(), result.inner.status, result.inner.iterations,
            result.inner.diagnostics["backtracks"], repr(result.diagnostics))


def outcome(fit, *args):
    try:
        return fit(*args)
    except PhidivError as exc:
        return exc


@given(spec=st.sampled_from(["KLm", "KL", "chi2", "hellinger", "power:-0.5",
                             "power:0.75", "power:3"]),
       sizes=st.lists(st.one_of(st.integers(1, 12), st.integers(1, 500)),
                      min_size=1, max_size=4),
       seed=st.integers(0, 2 ** 32 - 1), n_starts=st.sampled_from([1, 3]),
       mc=st.booleans(), stack_bytes=st.sampled_from([1 << 11, 1 << 16]))
@example("KLm", [2, 40], 1, 3, False, 1 << 16)
@settings(max_examples=30, deadline=None)
def test_estimates_equal_one_at_a_time_reference(spec, sizes, seed, n_starts, mc,
                                                 stack_bytes):
    samples = mixed_samples(np.random.default_rng(seed), sizes)
    fam = family(spec)
    options = replace(MC_OPTIONS if mc else EstimateOptions(), n_starts=n_starts)
    want = [fit_bits(outcome(estimate_one_at_a_time, fam, MV, s, options))
            for s in samples]
    with pytest.MonkeyPatch.context() as mp:  # small budgets: several batches
        mp.setattr(dual, "STACK_BYTES", stack_bytes)
        assert [fit_bits(r) for r in estimate_many(fam, MV, samples, options)] == want
        assert [fit_bits(outcome(estimate, fam, MV, s, options)) for s in samples] == want


@given(name=st.sampled_from(["mean", "mean-variance", "mean:2"]),
       spec=st.sampled_from(["KLm", "KL", "chi2", "hellinger"]),
       n=st.integers(4, 300), dirichlet=st.booleans(), mc=st.booleans(),
       pool_seed=st.integers(0, 3), seed=st.integers(0, 2 ** 32 - 1))
@example("mean:2", "KLm", 4, False, False, 0, 1)
@settings(max_examples=25, deadline=None)
def test_declared_jacobian_fits_equal_one_at_a_time_reference(name, spec, n, dirichlet,
                                                              mc, pool_seed, seed):
    # the lead start of a model that declares its jacobian comes from the
    # quadratic in closed form; the reference scores the pool by solves.
    # mean:2 (l = d = 2) is the only two-parameter affine model
    model = builtin_model("mean", m=2) if name == "mean:2" else get_model(name)
    assert model.jacobian is not None
    rng = np.random.default_rng(seed)
    w = rng.dirichlet(np.ones(n)) if dirichlet else np.full(n, 1.0 / n)
    samples = [WeightedSample(rng.uniform(-1.0, 1.0 + rng.random(), (n, model.m)), w)
               for _ in range(2)]
    fam = family(spec)
    options = replace(MC_OPTIONS if mc else EstimateOptions(), seed=pool_seed)
    want = [fit_bits(outcome(estimate_one_at_a_time, fam, model, s, options))
            for s in samples]
    assert [fit_bits(r) for r in estimate_many(fam, model, samples, options)] == want
    assert [fit_bits(outcome(estimate, fam, model, s, options)) for s in samples] == want


def test_declared_jacobian_scores_only_the_fallback_samples(monkeypatch):
    # tied atoms (a singular Sigma: every pool score inf, lead pool[0]) and
    # overflowing moment functions (DomainError) are scored by solves, with
    # the reference's result and message; the other samples by no solve
    rng = np.random.default_rng(21)
    tied = WeightedSample.from_points(rng.choice(rng.uniform(-1.0, 1.0, 2), 40))
    big = overflowing_sample(rng, 40)
    good = [WeightedSample.from_points(rng.uniform(-1.0, 1.3, 40)) for _ in range(2)]
    batch = [good[0], tied, big, good[1]]
    want = [fit_bits(outcome(estimate_one_at_a_time, KLM, MV, s)) for s in batch]
    assert want[2][0] == "DomainError" and "not finite" in want[2][1]
    module = importlib.import_module("phidiv.estimate")
    real, scored = module.chi2_closed_form, []  # the sample of every scored problem

    def counted(model, sample, theta):
        scored.append(sample)
        return real(model, sample, theta)

    monkeypatch.setattr(module, "chi2_closed_form", counted)
    assert [fit_bits(r) for r in estimate_many(KLM, MV, batch)] == want
    assert {id(s) for s in scored} == {id(tied), id(big)}
    scored.clear()
    assert [fit_bits(outcome(estimate, KLM, MV, s)) for s in good] == [want[0], want[3]]
    assert scored == []
    # mixed samples: tied atoms, too few observations and Dirichlet weights
    samples = mixed_samples(np.random.default_rng(4), [2, 12, 40, 12, 3])
    want = [fit_bits(outcome(estimate_one_at_a_time, KL, MV, s)) for s in samples]
    scored.clear()
    assert [fit_bits(r) for r in estimate_many(KL, MV, samples)] == want
    assert {id(s) for s in scored} == {
        id(s) for s in samples if s.n > MV.l and np.unique(s.points).size <= 2} != set()


def test_estimate_many_takes_any_samples():
    # [a, b, c, a]: two weight vectors on 50 points, then 40 points, then a
    rng = np.random.default_rng(13)
    x = rng.uniform(-1.0, 1.2, 50)
    a, b = WeightedSample.from_points(x), WeightedSample(x, rng.dirichlet(np.ones(50)))
    c = WeightedSample.from_points(rng.uniform(-1.0, 1.2, 40))
    stream = [a, b, c, a]
    assert [fit_bits(r) for r in estimate_many(KLM, MV, iter(stream))] == \
        [fit_bits(outcome(estimate, KLM, MV, s)) for s in stream]


def test_estimate_many_cuts_equal_weights_at_the_budget(monkeypatch):
    module = importlib.import_module("phidiv.estimate")
    batches = []

    def counted(fam, model, samples, options):
        batches.append(len(samples))
        return _lockstep(fam, model, samples, options)

    monkeypatch.setattr(module, "_lockstep", counted)
    monkeypatch.setattr(dual, "STACK_BYTES", 3 * 8 * 40 * 3)  # three samples of 40
    rng = np.random.default_rng(14)
    samples = [WeightedSample.from_points(rng.uniform(-1.0, 1.2, 40)) for _ in range(8)]
    assert len(list(estimate_many(KLM, MV, samples, FAST))) == 8
    assert batches == [3, 3, 2]


@pytest.mark.parametrize("seed", [-1, 1.5, np.float64(2.0), "0", None])
def test_options_reject_a_seed_that_is_not_a_nonnegative_integer(seed):
    # the counts n_starts (at least 1) and outer_max_iter are checked alike
    for name, lo in (("seed", 0), ("n_starts", 1), ("outer_max_iter", 0)):
        with pytest.raises(ValueError, match=f"{name} must be an integer >= {lo}"):
            EstimateOptions(**{name: seed})
    with pytest.raises(ValueError, match="n_starts must be an integer >= 1, not 0"):
        EstimateOptions(n_starts=0)
    assert EstimateOptions(seed=np.uint32(7)).seed == 7
    assert EstimateOptions(n_starts=np.int64(1), outer_max_iter=0).n_starts == 1


@pytest.mark.parametrize("name", ["outer_tol", "inner_tol"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 0.0, -1.0, "1e-8", None])
def test_options_reject_a_tolerance_that_is_not_finite_and_positive(name, value):
    with pytest.raises(ValueError, match=f"{name} must be a finite number > 0"):
        EstimateOptions(**{name: value})
    assert getattr(EstimateOptions(**{name: np.float32(1e-6)}), name) == np.float32(1e-6)


@pytest.mark.parametrize("theta0", [(np.nan,), np.array([0.3, np.nan]), "abc", ("0.3",),
                                    [[0.3]], [0.3, [0.4]], (1j,), (True,), [None]],
                         ids=["nan", "nan-in-array", "str", "str-entry", "matrix", "ragged",
                              "complex", "bool", "none-entry"])
def test_options_reject_a_start_that_is_not_a_vector_of_reals(theta0):
    # nan failed the whole fit after its quadratic search, "abc" raised
    # numpy's conversion error from inside it
    with pytest.raises(ValueError, match="theta0 must be a vector of real numbers without nan"):
        EstimateOptions(theta0=theta0)


@pytest.mark.parametrize("theta0", [(50.0,), (np.inf,), (-np.inf,), 0.3, (1,)])
def test_options_take_a_real_start_and_clip_it_into_the_box(theta0):
    # the first start is theta0 clipped into the box; the fit does not fail
    est = estimate(KLM, MV, S200, EstimateOptions(n_starts=1, theta0=theta0))
    first = est.diagnostics["starts"][0]
    if "reason" in first:  # a face, +-10, lies beyond every x^2: infeasible
        assert first["start"] == np.clip(np.atleast_1d(theta0), -10.0, 10.0).tolist()
        assert first["reason"] == "infeasible start (unbounded)"
    assert est.inner.converged and MV.theta_lo[0] <= est.theta_hat[0] <= MV.theta_hi[0]


def test_overflowing_sample_fails_alone_in_its_batch():
    # x^2 overflows on the middle sample: its start pool has no finite Gram
    # matrix, so it gets a DomainError and the good fits around it stand
    rng = np.random.default_rng(5)
    ok = [WeightedSample.from_points(rng.uniform(-1.0, 1.0, 30)) for _ in range(2)]
    batch = [ok[0], overflowing_sample(rng, 30), ok[1]]
    with pytest.raises(DomainError, match=r"the Gram matrix at theta = \[[-.e\d]+\] "
                                          "is not finite: the moment functions overflow") as err:
        estimate(KLM, MV, batch[1])
    want = [fit_bits(estimate(KLM, MV, ok[0])), fit_bits(err.value),
            fit_bits(estimate(KLM, MV, ok[1]))]
    assert [fit_bits(r) for r in estimate_many(KLM, MV, batch)] == want
    tests = list(model_tests(KLM, MV, batch))
    assert [fit_bits(r if isinstance(r, Exception) else r[1]) for r in tests] == want


@pytest.mark.parametrize("fam", [KLM, KL, CHI2], ids=lambda f: f.name)
def test_lockstep_answers_the_quadratic_search_first(fam, monkeypatch):
    # each round answers every waiting fit of one family, the quadratic
    # search's first: with two families every chi2 round comes before the
    # first fit-family round, and each family takes as many rounds as its
    # slowest fit alone; with chi2 fits both searches share the rounds
    rng = np.random.default_rng(8)
    samples = [WeightedSample.from_points(rng.uniform(-1.0, 1.0 + 0.3 * k, 40))
               for k in range(5)]

    def rounds(batch):
        calls = []

        def recorded(f, *args):
            calls.append(f)
            return dual._solve_many(f, *args)

        monkeypatch.setattr(importlib.import_module("phidiv.estimate"),
                            "_solve_many", recorded)
        _lockstep(fam, MV, batch, FAST)
        return calls

    calls = rounds(samples)
    alone = [rounds([s]) for s in samples]
    quadratic = calls.count(CHI2)
    assert calls == [CHI2] * quadratic + [fam] * (len(calls) - quadratic)
    if fam == CHI2:
        assert len(calls) == max(len(a) for a in alone)
    else:
        assert quadratic == max(a.count(CHI2) for a in alone) > 0
        assert len(calls) - quadratic == max(a.count(fam) for a in alone) > 0


def test_lockstep_setup_error_stays_with_its_sample(monkeypatch):
    # a set-up error of the fit family's inner solve (the start pools and
    # the quadratic search pass) ends that sample's fit alone; an error
    # that is not a PhidivError propagates, as a pool-scoring one does
    rng = np.random.default_rng(11)
    batch = [WeightedSample.from_points(rng.uniform(-1.0, 1.2, 40)) for _ in range(3)]
    want = [fit_bits(estimate(KLM, MV, s)) for s in batch]
    prepare = dual._prepare

    def failing(error):
        def patched(fam, model, sample, *args):
            if fam is KLM and sample is batch[1]:
                raise error
            return prepare(fam, model, sample, *args)
        return patched

    monkeypatch.setattr(dual, "_prepare", failing(DomainError("injected set-up error")))
    got = [fit_bits(r) for r in estimate_many(KLM, MV, batch)]
    assert got == [want[0], ("DomainError", "injected set-up error"), want[2]]
    with pytest.raises(DomainError, match="injected set-up error"):
        estimate(KLM, MV, batch[1])
    monkeypatch.setattr(dual, "_prepare", failing(TypeError("injected type error")))
    with pytest.raises(TypeError, match="injected type error"):
        list(estimate_many(KLM, MV, batch))
