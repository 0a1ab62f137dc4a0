import numpy as np
import pytest

from phidiv import (CHI2, KL, KLM, EstimateOptions, EstimationError,
                    MomentModel, WeightedSample, estimate, get_model,
                    profile_gradient, profile_objective)
from phidiv.estimate import variance_blocks

from conftest import random_feasible_instance

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
        grad = profile_gradient(fam, MV, s, theta, sol)
        h = 1e-6
        up, _ = profile_objective(fam, MV, s, theta + h)
        dn, _ = profile_objective(fam, MV, s, theta - h)
        assert grad[0] == pytest.approx((up - dn) / (2.0 * h), abs=1e-5)
        checked += 1
    assert checked >= 30


def test_profile_gradient_zero_when_constraints_hold():
    s = WeightedSample.from_points(np.array([0.0, 2.0]))
    val, sol = profile_objective(KL, MEAN, s, [1.0])
    grad = profile_gradient(KL, MEAN, s, [1.0], sol)
    assert np.allclose(grad, 0.0, atol=1e-8)


def test_profile_gradient_requires_convergence():
    s01 = WeightedSample.from_points(np.array([0.0, 1.0]))
    _, sol = profile_objective(KLM, MEAN, s01, [1.0])
    with pytest.raises(EstimationError):
        profile_gradient(KLM, MEAN, s01, [1.0], sol)


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
    se = est.stderr(s.n)[0]
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
    v, sigma2, s_mat, m_mat, w_mat = variance_blocks(
        KLM, MV, s, est.theta_hat, est.t_hat)
    dim = 1 + MV.l + MV.d
    assert v.shape == (1, 1)
    assert s_mat.shape == (dim, dim)
    assert m_mat.shape == (dim, dim)
    assert w_mat.shape == (dim, dim)
    assert sigma2 >= 0.0
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
