"""Acceptance gate: one test per release criterion.

Each test prints a single PASS line with the measured quantity so the suite
doubles as a checkable report.  The Monte Carlo criteria are scaled exactly
as stated (1000 replicates); expect a few minutes of total runtime.
"""

import math
import time

import numpy as np
import pytest

from phidiv import (CHI2, HELLINGER, KL, KLM, EstimateOptions, WeightedSample,
                    chi2_closed_form, chi2_quantile, estimate, get_model,
                    power_approx, sample_size, sample_size_real, solve_inner)
from phidiv import test_theta_composite as composite_test
from phidiv import test_theta_simple as simple_test
from phidiv.estimate import profile_gradient, profile_objective
from phidiv.families import power_family
from phidiv.estimate import estimate_many
from phidiv.simulate import (MC_OPTIONS, SimulationPlan, discretize_uniform, generate,
                             mc_power, reproduce_figure1)

from conftest import (el_reduced_solve, numeric_conjugate, primal_grid,
                      primal_quadratic, psi_derivs, random_feasible_instance)

MEAN = get_model("mean")
MV = get_model("mean-variance")
FAMILIES = {"KLm": KLM, "KL": KL, "chi2": CHI2, "hellinger": HELLINGER}


def _interior(fam, num, span=3.0):
    lo = fam.a_star if math.isfinite(fam.a_star) else -span
    hi = fam.b_star if math.isfinite(fam.b_star) else span
    pad = 0.05 * (hi - lo)
    return np.linspace(lo + pad, hi - pad, num)


def test_criterion_01_conjugate_suite():
    start = time.time()
    worst = 0.0
    from phidiv.families import CHI2M
    fams = [KLM, KL, CHI2, CHI2M, HELLINGER]
    for fam in fams:
        for t in _interior(fam, 200):
            lo = -1e4 if fam.a == -math.inf else 1e-9
            hi = max(10.0, 4.0 * abs(float(fam.psi_d1(t))))
            err = abs(fam.psi(t) - numeric_conjugate(fam, t, lo, hi,
                                                     num=501, refine=6))
            worst = max(worst, err)
        d1, d2 = psi_derivs(fam, 0.0)
        assert abs(d1 - 1.0) <= 1e-10 and abs(d2 - 1.0) <= 1e-10
    assert worst <= 1e-6
    xs = np.linspace(0.05, 6.0, 60)
    for gamma, named in [(0.0, KLM), (1.0, KL), (2.0, CHI2), (-1.0, CHI2M),
                         (0.5, HELLINGER)]:
        gen = power_family(gamma)
        assert np.max(np.abs(gen.phi(xs) - named.phi(xs))) <= 1e-12
        ts = _interior(named, 60)
        assert np.max(np.abs(gen.psi(ts) - named.psi(ts))) <= 1e-12
    elapsed = time.time() - start
    assert elapsed < 1.0
    print(f"\nPASS criterion 1: conjugate suite, max |psi - oracle| = "
          f"{worst:.2e}, runtime {elapsed:.2f}s")


def test_criterion_02_primal_dual_oracle():
    start = time.time()
    rng = np.random.default_rng(42)
    worst_quad = 0.0
    for i in range(100):
        name = "mean" if i % 2 == 0 else "mean-variance"
        n = int(rng.integers(4, 7))
        model, sample, theta = random_feasible_instance(rng, name, n=n)
        try:
            sol = chi2_closed_form(model, sample, theta)
        except Exception:
            continue
        val, _ = primal_quadratic(model, sample, theta)
        worst_quad = max(worst_quad, abs(sol.objective - val))
    assert worst_quad <= 1e-8
    worst_grid = 0.0
    checked = 0
    for fam in (KLM, KL, HELLINGER):
        for _ in range(10):
            model, sample, theta = random_feasible_instance(rng, "mean", n=4)
            sol = solve_inner(fam, model, sample, theta)
            if not sol.converged:
                continue
            oracle = primal_grid(fam, model, sample, theta)
            worst_grid = max(worst_grid, abs(sol.objective - oracle))
            checked += 1
    assert checked >= 15
    assert worst_grid <= 1e-4
    elapsed = time.time() - start
    assert elapsed < 30.0
    print(f"\nPASS criterion 2: primal-dual oracle, quadratic gap "
          f"{worst_quad:.2e}, grid gap {worst_grid:.2e} over {checked} cases, "
          f"runtime {elapsed:.1f}s")


def test_criterion_03_worked_example():
    s = WeightedSample.from_points(np.array([0.0, 1.0]))
    sol = solve_inner(CHI2, MEAN, s, [1.0])
    assert np.max(np.abs(sol.t - np.array([1.0, 2.0]))) <= 1e-10
    assert abs(sol.objective - 0.5) <= 1e-10
    assert np.max(np.abs(sol.weights - np.array([0.0, 1.0]))) <= 1e-10
    rep = simple_test(CHI2, MEAN, s, [1.0], 0.05)
    assert abs(rep.statistic - 2.0) <= 1e-10
    print("\nPASS criterion 3: worked example t=(1,2), D=0.5, Q=(0,1), "
          "statistic 2.0 exact to 1e-10")


def test_criterion_04_el_structure():
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(40):
        model, sample, theta = random_feasible_instance(rng, "mean", n=6)
        full = solve_inner(KLM, model, sample, theta)
        if not full.converged:
            continue
        red = el_reduced_solve(model, sample, theta)
        assert abs(full.t[0]) <= 1e-8
        assert abs(full.objective - red.objective) <= 1e-8
        checked += 1
    assert checked >= 20
    boundary = solve_inner(KLM, MEAN,
                           WeightedSample.from_points(np.array([0.0, 1.0])),
                           [1.0])
    assert boundary.status == "unbounded"
    print(f"\nPASS criterion 4: EL structure on {checked} instances; "
          "hull-boundary case reported unbounded")


def test_criterion_05_envelope_gradient():
    rng = np.random.default_rng(11)
    fams = [KLM, KL, CHI2, HELLINGER]
    checked = 0
    worst = 0.0
    while checked < 50:
        x = rng.normal(0.0, 1.0, size=25)
        s = WeightedSample.from_points(x)
        theta = np.array([float(np.mean(x ** 2)) + 0.1 * rng.normal()])
        fam = fams[checked % 4]
        _, sol = profile_objective(fam, MV, s, theta)
        if not sol.converged:
            continue
        grad = profile_gradient(fam, MV, s, theta, sol)
        h = 1e-6
        up, _ = profile_objective(fam, MV, s, theta + h)
        dn, _ = profile_objective(fam, MV, s, theta - h)
        if not (np.isfinite(up) and np.isfinite(dn)):
            continue
        worst = max(worst, abs(grad[0] - (up - dn) / (2.0 * h)))
        checked += 1
    assert worst <= 1e-5
    print(f"\nPASS criterion 5: envelope gradient vs finite differences, "
          f"max gap {worst:.2e} over 50 instances")


def _null_rejection_rates(seed, alpha=0.05):
    """1000 samples of n=200 from U[-1,1]; all three tests plus coverage."""
    plan = SimulationPlan(model="mean-variance", family="KLm", n_list=(200,),
                          runs=1000, alpha=alpha, epsilon_grid=(0.0,), seed=seed)
    counts = {"model_klm": 0, "model_chi2": 0, "simple": 0, "composite": 0}
    theta0 = np.array([1.0 / 3.0])
    for rep in range(plan.runs):
        sample = generate(plan, 0, rep)
        for key, fam in (("model_klm", KLM), ("model_chi2", CHI2)):
            try:
                from phidiv import test_model as model_test
                report, _ = model_test(fam, MV, sample, alpha,
                                       options=MC_OPTIONS)
                rejected = report.decision == "reject"
            except Exception:
                rejected = True
            counts[key] += rejected
        counts["simple"] += simple_test(KLM, MV, sample, theta0,
                                        alpha).decision == "reject"
        try:
            rep_c = composite_test(KLM, MV, sample, theta0, alpha,
                                   options=MC_OPTIONS)
            counts["composite"] += rep_c.decision == "reject"
        except Exception:
            counts["composite"] += 1
    return {k: v / plan.runs for k, v in counts.items()}


@pytest.fixture(scope="module")
def null_rates():
    return _null_rejection_rates(seed=2024)


def test_criterion_06_model_test_calibration(null_rates):
    for key in ("model_klm", "model_chi2"):
        assert 0.03 <= null_rates[key] <= 0.09, (key, null_rates[key])
    print(f"\nPASS criterion 6: model-test null rejection rates "
          f"KLm={null_rates['model_klm']:.3f}, "
          f"chi2={null_rates['model_chi2']:.3f} in [0.03, 0.09]")


def test_criterion_07_theta_tests_and_coverage(null_rates):
    assert 0.03 <= null_rates["simple"] <= 0.09
    assert 0.03 <= null_rates["composite"] <= 0.09
    coverage = 1.0 - null_rates["composite"]
    assert 0.91 <= coverage <= 0.98
    print(f"\nPASS criterion 7: theta-test rejection rates "
          f"simple={null_rates['simple']:.3f}, "
          f"composite={null_rates['composite']:.3f}; coverage of 1/3 = "
          f"{coverage:.3f}")


def test_criterion_08_asymptotic_variance():
    theta0 = np.array([1.0 / 3.0])
    big = np.random.Generator(np.random.PCG64(99)).uniform(-1, 1, size=1_000_000)
    ref = WeightedSample.from_points(big)
    from phidiv.estimate import variance_blocks
    v_hat = variance_blocks(CHI2, MV, ref, theta0, np.zeros(3))[0][0, 0]
    plan = SimulationPlan(model="mean-variance", family="chi2", n_list=(500,),
                          runs=1000, alpha=0.05, epsilon_grid=(0.0,), seed=4)
    draws = []
    for rep in range(plan.runs):
        sample = generate(plan, 0, rep)
        est = estimate(CHI2, MV, sample, options=MC_OPTIONS)
        draws.append(math.sqrt(sample.n) * (est.theta_hat[0] - theta0[0]))
    mc_var = float(np.var(draws))
    rel = abs(mc_var - v_hat) / v_hat
    assert rel <= 0.25
    print(f"\nPASS criterion 8: MC variance {mc_var:.4f} vs reference "
          f"V={v_hat:.4f} (4/45={4/45:.4f}), relative error {rel:.1%} <= 25%")


@pytest.mark.parametrize("fam", [KLM, HELLINGER], ids=lambda f: f.name)
def test_criterion_12_misspecified_limits(fam):
    # the model is false at epsilon = 1: the limit laws at the pseudo-true
    # theta* are the sandwich W_thetatheta for theta-hat and sigma^2 for the
    # divergence, not the null's V; the bound was fixed before the test ran
    bound = 0.15
    pop = estimate(fam, MV, discretize_uniform(-1.0, 2.0, 20_000))
    plan = SimulationPlan(model="mean-variance", family=fam.name, n_list=(500,),
                          runs=1000, epsilon_grid=(1.0,), seed=5)
    samples = [generate(plan, 0, rep) for rep in range(plan.runs)]
    fits = list(estimate_many(fam, MV, samples, MC_OPTIONS))
    assert not [f for f in fits if isinstance(f, Exception)]
    n = plan.n_list[0]
    var_theta = n * float(np.var([f.theta_hat[0] - pop.theta_hat[0] for f in fits]))
    var_div = n * float(np.var([f.divergence_hat for f in fits]))
    w_rel = var_theta / pop.W_hat[-1, -1] - 1.0
    s_rel = var_div / pop.sigma2_hat - 1.0
    v_rel = var_theta / pop.V_hat[0, 0] - 1.0
    assert abs(w_rel) <= bound and abs(s_rel) <= bound
    assert abs(v_rel) > bound
    print(f"\nPASS criterion 12 ({fam.name}): n Var(theta-hat) {var_theta:.4f} vs "
          f"W {pop.W_hat[-1, -1]:.4f} ({w_rel:+.1%}), n Var(D-hat) {var_div:.4f} vs "
          f"sigma^2 {pop.sigma2_hat:.4f} ({s_rel:+.1%}), both within {bound:.0%}; "
          f"V {pop.V_hat[0, 0]:.4f} ({v_rel:+.1%}) refused")


@pytest.fixture(scope="module")
def figure1_rows(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig1") / "figure1.csv"
    rows = reproduce_figure1(12345, out_path=out)
    return rows


def test_criterion_09_figure1(figure1_rows):
    rows = figure1_rows
    assert len(rows) == 40
    worst = 0.0
    for r in rows:
        assert 0.0 <= r["mc_power"] <= 1.0
        assert 0.0 <= r["approx_power"] <= 1.0
        if r["n"] in (100, 200, 500):
            worst = max(worst, abs(r["mc_power"] - r["approx_power"]))
    assert worst <= 0.15
    for n in (50, 100, 200, 500):
        sub = sorted((r for r in rows if r["n"] == n),
                     key=lambda r: r["epsilon"])
        for a, b in zip(sub, sub[1:]):
            slack = 3.0 * (a["mc_stderr"] + b["mc_stderr"])
            assert b["mc_power"] >= a["mc_power"] - slack
            assert b["approx_power"] >= a["approx_power"] - 1e-12
    print(f"\nPASS criterion 9: power-curve reproduction, max "
          f"|mc - approx| = {worst:.3f} <= 0.15 for n in (100, 200, 500); "
          "both curves monotone in epsilon")


def test_criterion_10_sample_size_round_trip():
    q = chi2_quantile(0.95, 1)
    assert sample_size_real(0.5, 0.05, 1, 0.1, 1.0) == q / (2.0 * 0.1)
    worst = 0.0
    for beta in (0.2, 0.5, 0.8, 0.9, 0.99):
        for div in (0.01, 0.05, 0.2):
            for sigma in (0.25, 1.0, 2.0):
                for alpha in (0.01, 0.05, 0.10):
                    n = sample_size(beta, alpha, 1, div, sigma)
                    p = power_approx(n, alpha, 1, div, sigma)
                    assert p >= beta - 0.01
                    worst = max(worst, beta - p)
    print(f"\nPASS criterion 10: sample-size round trip, max power deficit "
          f"{max(worst, 0.0):.4f} < 0.01; beta=1/2 collapse exact")


def test_criterion_11_determinism(tmp_path):
    plan_args = dict(n_list=(50, 100), epsilon_grid=(0.3, 0.8), runs=50)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    reproduce_figure1(777, out_path=a, threads=1, **plan_args)
    reproduce_figure1(777, out_path=b, threads=2, **plan_args)
    assert a.read_bytes() == b.read_bytes()
    print("\nPASS criterion 11: CSV byte-identical across thread counts")
