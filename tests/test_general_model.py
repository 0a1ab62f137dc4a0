"""The general model path, on a nonlinear two-parameter model.

Both built-in models have d = 1 and a Jacobian that depends on neither x
nor theta.  conftest.SYMMETRIC has l = 3, d = 2 and a Jacobian that moves
with theta, so these tests reach what the built-ins never do: the
theta-dependent Jacobian of the envelope gradient, the finite differences
of the S22 block, the projected BFGS in two dimensions with a box face,
and a confidence region on a 2-d grid.
"""

import numpy as np
import pytest

from phidiv import (CHI2, HELLINGER, KL, KLM, EstimateOptions, PhidivError, WeightedSample,
                    confidence_region, dual, estimate, profile_gradient, profile_objective,
                    variance_blocks)
from phidiv.estimate import estimate_many
from phidiv.inference import test_models as model_tests
from phidiv.simulate import MC_OPTIONS

from conftest import SYMMETRIC, confidence_region_unstopped, estimate_one_at_a_time
from test_estimate import fit_bits, outcome

FAMILIES = [KLM, KL, HELLINGER, CHI2]
NORMAL = WeightedSample.from_points(np.random.default_rng(5).normal(size=400))


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.name)
def test_envelope_gradient_matches_central_differences(fam):
    # off the fit, where both coordinates of the gradient are far from 0
    theta = estimate(fam, SYMMETRIC, NORMAL).theta_hat + np.array([0.05, 0.1])
    _, sol = profile_objective(fam, SYMMETRIC, NORMAL, theta)
    assert sol.converged
    grad = profile_gradient(fam, SYMMETRIC, NORMAL, theta, sol)
    h = 1e-5
    for k in range(2):
        step = np.eye(2)[k] * h
        up, _ = profile_objective(fam, SYMMETRIC, NORMAL, theta + step)
        dn, _ = profile_objective(fam, SYMMETRIC, NORMAL, theta - step)
        assert grad[k] == pytest.approx((up - dn) / (2.0 * h), abs=1e-7)
    assert abs(grad).min() > 1e-3


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.name)
def test_estimate_many_equals_one_at_a_time(fam, monkeypatch):
    rng = np.random.default_rng(8)
    # n = 3: too few observations; at STACK_BYTES = 2000 a batch holds at most
    # 5 samples of n = 12, 3 of n = 20 and 1 of n = 60
    samples = [WeightedSample.from_points(rng.normal(size=n))
               for n in (3,) + (12,) * 7 + (20,) * 4 + (60, 60)]
    options = EstimateOptions(n_starts=2)
    want = [fit_bits(outcome(estimate_one_at_a_time, fam, SYMMETRIC, s, options))
            for s in samples]
    monkeypatch.setattr(dual, "STACK_BYTES", 2000)
    assert [fit_bits(r) for r in estimate_many(fam, SYMMETRIC, samples, options)] == want


def test_confidence_region_2d_equals_unstopped():
    mu, v = np.meshgrid(np.linspace(-0.3, 0.2, 9), np.linspace(0.7, 1.3, 9), indexing="ij")
    grid = np.column_stack([mu.ravel(), v.ravel()])
    pts, empty = confidence_region(KLM, SYMMETRIC, NORMAL, 0.05, grid)
    want, want_empty = confidence_region_unstopped(KLM, SYMMETRIC, NORMAL, 0.05, grid)
    assert (pts.tobytes(), pts.shape, empty) == (want.tobytes(), want.shape, want_empty)
    assert 0 < pts.shape[0] < 81 and pts.shape[1] == 2


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.name)
def test_s22_block_matches_its_analytic_form(fam):
    # off the fit, where t and so both terms below are far from 0
    theta = estimate(fam, SYMMETRIC, NORMAL).theta_hat + np.array([0.05, 0.1])
    t = profile_objective(fam, SYMMETRIC, NORMAL, theta)[1].t
    x = NORMAL.points[:, 0]
    w = NORMAL.weights
    u = t[0] + SYMMETRIC.g_values(NORMAL.points, theta) @ t[1:]
    jt = np.einsum("ild,l->id", SYMMETRIC.jac_values(NORMAL.points, theta), t[1:])
    # d/dtheta of -sum_i w_i psi'(u_i) J_i' t, with d2g/dmu2 = (0, 2, 6 (x - mu))
    s22 = -(jt * (w * fam.psi_d2(u))[:, None]).T @ jt
    s22[0, 0] -= w @ (fam.psi_d1(u) * (2.0 * t[2] + 6.0 * (x - theta[0]) * t[3]))
    got = variance_blocks(fam, SYMMETRIC, NORMAL, theta, t)[1][4:, 4:]
    # central differences with h = 1e-5 (1 + |theta_k|) <= 2.1e-5: truncation
    # h^2 / 6 |third derivative| < 1e-7 for derivatives up to 1e3 on these
    # points, rounding eps sum|terms| / h < 1e-9
    assert np.allclose(got, s22, rtol=0.0, atol=1e-6 * (1.0 + abs(s22).max()))


def test_fit_lands_on_the_variance_face():
    # sample variance 9.1e-4, below the box's 1e-3: the minimum is on the face
    x = 0.03 * np.random.default_rng(6).normal(size=200)
    sample = WeightedSample.from_points(x)
    for fam in (KLM, KL, CHI2):
        est = estimate(fam, SYMMETRIC, sample, EstimateOptions(theta0=(0.0, 0.004)))
        assert est.theta_hat[1] == 1e-3 and est.inner.converged, fam.name
        assert abs(est.theta_hat[0] - x.mean()) < 1e-3, fam.name
        # the profile still falls toward smaller v: the face holds the fit
        assert profile_gradient(fam, SYMMETRIC, sample, est.theta_hat, est.inner)[1] > 0.0
        # the search moves mu along the face: a direction that kept moving v
        # was cut by the box (KL ended at 0.0107, chi2 at 1.79)
        face, _ = profile_objective(fam, SYMMETRIC, sample, [x.mean(), 1e-3])
        assert est.divergence_hat <= face + 1e-4, (fam.name, est.divergence_hat, face)


def test_model_test_null_calibration_at_n_1000():
    runs = 400
    rng = np.random.default_rng(2024)
    samples = (WeightedSample.from_points(rng.normal(size=1000)) for _ in range(runs))
    rejected = sum(isinstance(r, PhidivError) or r[0].decision == "reject"
                   for r in model_tests(KLM, SYMMETRIC, samples, 0.05, MC_OPTIONS))
    assert 0.03 <= rejected / runs <= 0.09, rejected / runs  # criterion 6's band
