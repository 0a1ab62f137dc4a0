import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phidiv import (CHI2, KLM, EstimateOptions, EstimationError,
                    NotApplicableError, ParameterSpaceError, PhidivError,
                    WeightedSample, chi2_quantile, confidence_region, estimate,
                    family, get_model, power_approx, sample_size,
                    sample_size_real, solve_inner)
from phidiv import test_model as model_test
from phidiv.inference import test_models as model_tests
from phidiv.simulate import MC_OPTIONS
from phidiv import test_theta_composite as composite_test
from phidiv import test_theta_simple as simple_test
from phidiv import dual, inference

from conftest import confidence_region_unstopped, el_reduced_solve, mixed_samples

MEAN = get_model("mean")
MV = get_model("mean-variance")
FAST = EstimateOptions(n_starts=2)


def test_model_test_requires_overidentification(rng):
    s = WeightedSample.from_points(rng.normal(size=20))
    with pytest.raises(NotApplicableError):
        model_test(KLM, MEAN, s)


def test_model_test_exact_fit_accepts(rng):
    x = np.concatenate([rng.uniform(-1.0, 1.0, size=100)])
    s = WeightedSample.from_points(x)
    rep, est = model_test(KLM, MV, s, 0.05, options=FAST)
    assert rep.kind == "model-test"
    assert rep.df == 1
    assert rep.statistic == pytest.approx(2.0 * s.n * est.divergence_hat)
    assert (rep.decision == "reject") == (rep.statistic > rep.critical_value)


def test_model_test_rejects_misspecified(rng):
    x = rng.uniform(-1.0, 2.0, size=300)
    s = WeightedSample.from_points(x)
    rep, _ = model_test(KLM, MV, s, 0.05, options=FAST)
    assert rep.decision == "reject"
    assert rep.p_value < 0.01


def model_test_bits(result):
    """Everything test_model returns, or the type and message of what it
    raises: equal values are bit for bit."""
    if isinstance(result, Exception):
        return type(result).__name__, str(result)
    rep, est = result
    return (repr(rep.to_dict()), est.theta_hat.tobytes(), est.t_hat.tobytes(),
            float(est.divergence_hat).hex(), float(est.sigma2_hat).hex(),
            est.inner.u.tobytes(), est.inner.status, est.inner.iterations,
            est.inner.diagnostics["backtracks"], repr(est.diagnostics))


@given(spec=st.sampled_from(["KLm", "KL", "chi2", "hellinger", "power:-0.5", "power:0.75"]),
       sizes=st.lists(st.one_of(st.integers(1, 12), st.integers(1, 500)),
                      min_size=1, max_size=4),
       seed=st.integers(0, 2 ** 32 - 1), n_starts=st.sampled_from([1, 3]),
       mc=st.booleans(), stack_bytes=st.sampled_from([1 << 11, 1 << 16]))
@settings(max_examples=30, deadline=None)
def test_lockstep_model_tests_equal_test_model(spec, sizes, seed, n_starts, mc,
                                               stack_bytes):
    samples = mixed_samples(np.random.default_rng(seed), sizes)
    fam = family(spec)
    options = replace(MC_OPTIONS if mc else EstimateOptions(), n_starts=n_starts)
    with pytest.MonkeyPatch.context() as mp:  # small budgets: several batches
        mp.setattr(dual, "STACK_BYTES", stack_bytes)
        got = [model_test_bits(r) for r in model_tests(fam, MV, samples, 0.05, options)]
    want = []
    for sample in samples:
        try:
            want.append(model_test_bits(model_test(fam, MV, sample, 0.05, options)))
        except PhidivError as exc:
            want.append(model_test_bits(exc))
    assert got == want


def test_lockstep_model_tests_need_overidentification(rng):
    samples = [WeightedSample.from_points(rng.normal(size=20)) for _ in range(2)]
    got = [(type(r), str(r)) for r in model_tests(KLM, MEAN, samples)]
    with pytest.raises(NotApplicableError) as want:
        model_test(KLM, MEAN, samples[0])
    assert got == [(NotApplicableError, str(want.value))] * 2


def test_simple_theta_worked_example():
    s = WeightedSample.from_points(np.array([0.0, 1.0]))
    rep = simple_test(CHI2, MEAN, s, [1.0], 0.05)
    assert rep.statistic == pytest.approx(2.0, abs=1e-9)
    assert rep.df == 1
    assert rep.variance_sigma2 is not None


def test_simple_theta_exact_match():
    s = WeightedSample.from_points(np.array([0.0, 2.0]))
    rep = simple_test(KLM, MEAN, s, [1.0], 0.05)
    assert rep.statistic == pytest.approx(0.0, abs=1e-10)
    assert rep.decision == "accept"


@pytest.mark.parametrize("fam", [KLM, family("KL"), CHI2, family("hellinger")],
                         ids=lambda f: f.name)
def test_simple_theta_at_the_mean_is_never_negative(fam):
    # every solve here lands at or just below 0 (down to -8.9e-16 for
    # hellinger): a rounding-level divergence, reported as 0
    x = np.random.default_rng(1).uniform(-1.0, 1.0, 50)
    rep = simple_test(fam, MEAN, WeightedSample.from_points(x), [x.mean()], 0.05)
    assert (rep.statistic, rep.p_value, rep.decision) == (0.0, 1.0, "accept")


def test_simple_theta_unbounded_is_rejection():
    s = WeightedSample.from_points(np.array([0.0, 1.0]))
    rep = simple_test(KLM, MEAN, s, [1.0], 0.05)
    assert rep.decision == "reject"
    assert rep.flag is not None
    assert rep.p_value == 0.0


def test_simple_theta_separated_is_rejection():
    # x^2 + 2 > 0 at every point: 0 is outside the hull of the moment vectors
    s = WeightedSample.from_points(np.linspace(-1.0, 1.0, 41))
    rep = simple_test(KLM, MV, s, [-2.0], 0.05)
    assert rep.flag == "inner solve unbounded; treated as rejection"
    assert (rep.statistic, rep.decision, rep.p_value) == (np.inf, "reject", 0.0)


def test_composite_theta_zero_at_thetahat(rng):
    x = rng.uniform(-1.0, 1.1, size=150)
    s = WeightedSample.from_points(x)
    est = estimate(KLM, MV, s, options=FAST)
    rep = composite_test(KLM, MV, s, est.theta_hat, 0.05, options=FAST)
    assert rep.df == 1
    assert abs(rep.statistic) <= 1e-6
    assert rep.decision == "accept"


def test_composite_statistic_minimized_at_thetahat(rng):
    x = rng.uniform(-1.0, 1.1, size=150)
    s = WeightedSample.from_points(x)
    est = estimate(KLM, MV, s, options=FAST)
    base = composite_test(KLM, MV, s, est.theta_hat, 0.05,
                                options=FAST).statistic
    for th in np.linspace(0.25, 0.55, 5):
        rep = composite_test(KLM, MV, s, [th], 0.05, options=FAST)
        assert rep.statistic >= base - 1e-6


# invariance holds up to rounding: the sums run in another order
@pytest.mark.parametrize("spec", ["KLm", "KL", "chi2", "hellinger"])
def test_statistics_permutation_invariant(spec, rng):
    fam = family(spec)
    x = rng.uniform(-1.0, 1.2, size=80)
    s1 = WeightedSample.from_points(x)
    s2 = WeightedSample.from_points(x[rng.permutation(80)])
    r1, _ = model_test(fam, MV, s1, 0.05, options=FAST)
    r2, _ = model_test(fam, MV, s2, 0.05, options=FAST)
    assert r1.statistic == pytest.approx(r2.statistic, abs=1e-8)
    t1 = simple_test(fam, MV, s1, [0.4], 0.05)
    t2 = simple_test(fam, MV, s2, [0.4], 0.05)
    assert t1.statistic == pytest.approx(t2.statistic, abs=1e-8)
    c1 = composite_test(fam, MV, s1, [0.4], 0.05, options=FAST)
    c2 = composite_test(fam, MV, s2, [0.4], 0.05, options=FAST)
    assert c1.statistic == pytest.approx(c2.statistic, abs=1e-8)


@pytest.mark.parametrize("spec", ["KLm", "KL", "chi2", "hellinger"])
@pytest.mark.parametrize("shift", [-3.5, 0.75, 6.0])
def test_mean_model_statistics_shift_invariant(spec, shift, rng):
    # the mean model's moment x - theta is unchanged when the data and theta
    # move by one c; theta + c stays inside the box [-10, 10]
    fam = family(spec)
    x = rng.uniform(-1.0, 1.2, size=80)
    theta = np.array([0.3])
    s1 = WeightedSample.from_points(x)
    s2 = WeightedSample.from_points(x + shift)
    t1 = simple_test(fam, MEAN, s1, theta, 0.05)
    t2 = simple_test(fam, MEAN, s2, theta + shift, 0.05)
    assert t1.statistic == pytest.approx(t2.statistic, abs=1e-8)
    c1 = composite_test(fam, MEAN, s1, theta, 0.05, options=FAST)
    c2 = composite_test(fam, MEAN, s2, theta + shift, 0.05, options=FAST)
    assert c1.statistic == pytest.approx(c2.statistic, abs=1e-8)


def test_el_ratio_agrees_with_reduced_formulation(rng):
    # the model-test statistic for the EL family equals the likelihood ratio
    # statistic computed from the reduced formulation at theta_hat
    x = rng.uniform(-1.0, 1.15, size=120)
    s = WeightedSample.from_points(x)
    rep, est = model_test(KLM, MV, s, 0.05, options=FAST)
    red = el_reduced_solve(MV, s, est.theta_hat)
    assert red.converged
    assert rep.statistic == pytest.approx(2.0 * s.n * red.objective, abs=1e-6)


def test_confidence_region_contains_thetahat(rng):
    x = rng.uniform(-1.0, 1.1, size=150)
    s = WeightedSample.from_points(x)
    est = estimate(KLM, MV, s, options=FAST)
    grid = np.linspace(0.1, 0.9, 81)
    pts, empty = confidence_region(KLM, MV, s, 0.05, grid, options=FAST)
    assert not empty
    lo, hi = pts.min(), pts.max()
    assert lo <= est.theta_hat[0] <= hi


def test_confidence_region_nested_in_alpha(rng):
    x = rng.uniform(-1.0, 1.1, size=150)
    s = WeightedSample.from_points(x)
    grid = np.linspace(0.1, 0.9, 81)
    tight, _ = confidence_region(KLM, MV, s, 0.10, grid, options=FAST)
    wide, _ = confidence_region(KLM, MV, s, 0.01, grid, options=FAST)
    tight_set = set(np.round(tight.ravel(), 12))
    wide_set = set(np.round(wide.ravel(), 12))
    assert tight_set <= wide_set


def test_confidence_region_one_point_grid(rng):
    s = WeightedSample.from_points(rng.uniform(-1.0, 1.1, size=150))
    est = estimate(KLM, MV, s, options=FAST)
    pts, empty = confidence_region(KLM, MV, s, 0.05, est.theta_hat, options=FAST)
    assert not empty and pts.tolist() == [est.theta_hat.tolist()]
    pts, empty = confidence_region(KLM, MV, s, 0.05, [-2.0], options=FAST)
    assert empty and pts.shape == (0, 1)


@pytest.mark.parametrize("grid", [[], np.empty((0, 1))])
def test_confidence_region_refuses_an_empty_grid_before_the_fit(rng, monkeypatch, grid):
    # no point tested says nothing about the region: not "empty", an error
    s = WeightedSample.from_points(rng.uniform(-1.0, 1.1, size=150))
    monkeypatch.setattr(inference, "estimate", lambda *args, **kw: pytest.fail("fitted"))
    with pytest.raises(ValueError, match="grid has no points"):
        confidence_region(KLM, MV, s, 0.05, grid, options=FAST)


def test_confidence_region_out_of_box_theta_is_parameter_error(rng):
    s = WeightedSample.from_points(rng.uniform(-1.0, 1.1, size=150))
    with pytest.raises(ParameterSpaceError) as want:
        solve_inner(KLM, MV, s, [11.0])
    with pytest.raises(ParameterSpaceError) as got:
        confidence_region(KLM, MV, s, 0.05, [0.3, 0.4, 11.0, 0.5], options=FAST)
    assert str(got.value) == str(want.value) == "theta=[11.] outside the parameter box"


def grid_peak_bytes(n):
    """Peak traced allocation of an 81-point confidence_region at n points."""
    s = WeightedSample.from_points(np.random.default_rng(0).uniform(-1.0, 1.0, n))
    tracemalloc.start()
    try:
        confidence_region(KLM, MV, s, 0.05, np.linspace(0.05, 0.95, 81))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_confidence_region_memory_is_one_chunk():
    # the grid is solved in chunks of at most dual.STACK_BYTES of design
    # tensor: stacking all 81 problems at once would hold 243 n-vectors;
    # here a chunk holds one problem, which runs the scalar Newton
    n = 10 ** 5
    assert grid_peak_bytes(n) <= dual.STACK_BYTES + 20 * 8 * n


def test_confidence_region_memory_of_stacked_chunks(monkeypatch):
    # with 21 problems a chunk the stacked Newton holds a fixed multiple of
    # the budget (4.4 at this size); the whole grid at once peaks at 17 MB
    monkeypatch.setattr(dual, "STACK_BYTES", 1 << 20)
    n = 2000
    assert grid_peak_bytes(n) <= 6 * dual.STACK_BYTES + 20 * 8 * n


# KLm with one start and one outer step misses the minimum on this sample:
# the ratio statistic at the default fit's theta_hat was -0.968
MISSED = WeightedSample.from_points(np.random.default_rng(1).uniform(-1.0, 1.2, 100))
ONE_STEP = EstimateOptions(n_starts=1, outer_max_iter=1)


def test_composite_refits_when_fit_missed_the_minimum():
    theta = estimate(KLM, MV, MISSED).theta_hat
    rep = composite_test(KLM, MV, MISSED, theta, 0.05, options=ONE_STEP)
    assert 0.0 <= rep.statistic <= 1e-8
    assert rep.flag == "fit missed the minimum; refitted from the tested theta"
    assert rep.decision == "accept"
    assert composite_test(KLM, MV, MISSED, theta, 0.05).flag is None


# a cold solve at the default fit's own theta_hat lands one ulp below its
# divergence_hat on this sample: rounding, not a missed minimum
ROUNDED = WeightedSample.from_points(np.random.default_rng(0).uniform(-1.0, 1.1, 100))


def test_no_refit_on_a_rounding_gap(monkeypatch):
    est = estimate(KLM, MV, ROUNDED)
    assert solve_inner(KLM, MV, ROUNDED, est.theta_hat).objective < est.divergence_hat
    fits = []
    monkeypatch.setattr(inference, "estimate", lambda *a, **k: fits.append(1) or est)
    rep = composite_test(KLM, MV, ROUNDED, est.theta_hat, 0.05)
    assert rep.flag is None and rep.statistic == 0.0
    pts, _ = confidence_region(KLM, MV, ROUNDED, 0.05, est.theta_hat)
    assert pts.tolist() == [est.theta_hat.tolist()] and len(fits) == 2


def test_confidence_region_refits_when_fit_missed_the_minimum():
    grid = np.linspace(0.05, 0.95, 81)
    missed, _ = confidence_region(KLM, MV, MISSED, 0.05, grid, options=ONE_STEP)
    full, _ = confidence_region(KLM, MV, MISSED, 0.05, grid)
    assert missed.tolist() == full.tolist() and full.size == 12


def region_bits(fam, model, sample, alpha, grid, options, region):
    """What region (confidence_region or its reference) returns, or the type
    and message of what it raises: equal values are bit for bit."""
    try:
        pts, empty = region(fam, model, sample, alpha, grid, options)
    except PhidivError as exc:
        return type(exc).__name__, str(exc)
    return pts.tobytes(), pts.shape, empty


GRIDS = {"mean": np.linspace(-1.2, 1.4, 53), "mean-variance": np.linspace(0.02, 1.5, 53)}


@pytest.mark.parametrize("spec", ["KLm", "KL", "hellinger", "chi2", "power:1.5",
                                  "chi2m", "power:3"])
@pytest.mark.parametrize("model_name", ["mean", "mean-variance"])
def test_confidence_region_equals_unstopped_solves(spec, model_name):
    # the grid solves stop once a point is certainly rejected: the accepted
    # points, the empty flag, the refit and the errors stay bit for bit
    fam, model, grid = family(spec), get_model(model_name), GRIDS[model_name]
    rng = np.random.default_rng(7)
    nonempty = 0
    for n in (6, 50, 200):
        spread = rng.uniform(-1.0, 1.2, n)
        for x in (spread, rng.choice(spread[:3], n)):  # and tied atoms
            sample = WeightedSample.from_points(x)
            for alpha in (0.05, 0.5):
                got = region_bits(fam, model, sample, alpha, grid, FAST, confidence_region)
                assert got == region_bits(fam, model, sample, alpha, grid, FAST,
                                          confidence_region_unstopped)
                nonempty += len(got) == 3 and not got[2]
    assert nonempty >= 4


def test_confidence_region_with_refit_equals_unstopped_solves(monkeypatch):
    grid = np.linspace(0.05, 0.95, 81)
    fits, statuses = [], []
    fit, solve = inference.estimate, inference.solve_inner_many
    monkeypatch.setattr(inference, "estimate", lambda *a, **k: fits.append(1) or fit(*a, **k))
    monkeypatch.setattr(inference, "solve_inner_many", lambda *a, **k: [
        statuses.append(sol.status) or sol for sol in solve(*a, **k)])
    got = region_bits(KLM, MV, MISSED, 0.05, grid, ONE_STEP, confidence_region)
    assert len(fits) == 2  # the refit fired
    assert 0 < statuses.count("above-stop") < len(grid) - 12  # 12 points accepted
    assert got == region_bits(KLM, MV, MISSED, 0.05, grid, ONE_STEP,
                              confidence_region_unstopped)


def test_power_approx_values():
    q = chi2_quantile(0.95, 1)
    n = 100
    assert power_approx(n, 0.05, 1, q / (2.0 * n), 1.0) == pytest.approx(0.5)
    assert 0.0 < power_approx(500, 0.05, 1, 1e-9, 1.0) < 1.0
    with pytest.raises(ValueError):
        power_approx(100, 0.05, 1, 0.1, 0.0)
    with pytest.raises(ValueError):
        power_approx(100, 0.05, 1, -0.1, 1.0)


def test_power_monotone_in_n():
    prev = 0.0
    for n in (50, 100, 200, 500, 1000):
        p = power_approx(n, 0.05, 1, 0.05, 0.5)
        assert p >= prev
        prev = p


def test_sample_size_collapse_at_half():
    # target power 0.5 collapses to n0 = q / (2 D) exactly
    q = chi2_quantile(0.95, 1)
    n0 = sample_size_real(0.5, 0.05, 1, 0.1, 1.0)
    assert n0 == q / (2.0 * 0.1)
    assert sample_size(0.5, 0.05, 1, 0.1, 1.0) == 20


def test_sample_size_round_trip():
    for beta in (0.3, 0.5, 0.8, 0.95):
        for div in (0.02, 0.1):
            for sigma in (0.3, 1.0):
                n = sample_size(beta, 0.05, 1, div, sigma)
                assert power_approx(n, 0.05, 1, div, sigma) >= beta - 0.01


def test_sample_size_monotone_in_beta():
    prev = 0
    for beta in (0.2, 0.4, 0.6, 0.8, 0.95):
        n = sample_size(beta, 0.05, 1, 0.05, 0.8)
        assert n >= prev
        prev = n
    with pytest.raises(ValueError):
        sample_size(0.8, 0.05, 1, 0.0, 1.0)


NONFINITE = [float("nan"), float("inf"), float("-inf")]


@pytest.mark.parametrize("bad", NONFINITE)
def test_nonfinite_div_or_sigma_is_value_error(bad):
    # nan passed every sign check, and inf gave a power of 0.5 or 1.0
    for div, sigma in ((bad, 1.0), (0.1, bad)):
        with pytest.raises(ValueError, match="finite"):
            power_approx(100, 0.05, 1, div, sigma)
        with pytest.raises(ValueError, match="finite"):
            sample_size_real(0.8, 0.05, 1, div, sigma)
        with pytest.raises(ValueError, match="finite"):
            sample_size(0.8, 0.05, 1, div, sigma)


def test_nan_statistic_is_estimation_error():
    # a NaN statistic must not come out as "accept" with p = 0
    from phidiv.inference import _report
    with pytest.raises(EstimationError, match="NaN"):
        _report("model-test", float("nan"), 1, 0.05)
    rep = _report("simple-theta-test", float("inf"), 1, 0.05)
    assert (rep.decision, rep.p_value) == ("reject", 0.0)


def test_report_serialization(rng):
    s = WeightedSample.from_points(rng.uniform(-1.0, 1.0, size=80))
    rep, _ = model_test(CHI2, MV, s, 0.05, options=FAST)
    d = rep.to_dict()
    assert d["kind"] == "model-test"
    assert set(d) >= {"statistic", "df", "p_value", "critical_value", "decision"}
