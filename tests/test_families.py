import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phidiv import (CHI2, CHI2M, HELLINGER, KL, KLM, DomainError, family,
                    power_family)

from conftest import numeric_conjugate, phi_derivs, psi_derivs

ALL = [KLM, KL, CHI2, CHI2M, HELLINGER]


def interior_grid(fam, num=41, span=3.0):
    lo = fam.a_star if math.isfinite(fam.a_star) else -span
    hi = fam.b_star if math.isfinite(fam.b_star) else span
    pad = 0.05 * (hi - lo)
    return np.linspace(lo + pad, hi - pad, num)


def test_generator_values():
    assert KL.phi(1.0) == 0.0
    assert CHI2.phi(3.0) == pytest.approx(2.0, abs=1e-12)
    assert KLM.phi(0.0) == math.inf
    assert HELLINGER.phi(4.0) == pytest.approx(2.0, abs=1e-12)
    assert CHI2.phi(-1.0) == pytest.approx(2.0, abs=1e-12)
    assert KLM.phi(-0.5) == math.inf


def test_generator_derivatives():
    assert phi_derivs(CHI2, 1.0) == (0.0, 1.0)
    d1, d2 = phi_derivs(KL, math.e)
    assert d1 == pytest.approx(1.0, abs=1e-12)
    assert d2 == pytest.approx(1.0 / math.e, abs=1e-12)
    d1, d2 = phi_derivs(KLM, 2.0)
    assert d1 == pytest.approx(0.5, abs=1e-12)
    assert d2 == pytest.approx(0.25, abs=1e-12)
    with pytest.raises(DomainError):
        phi_derivs(KLM, 0.0)


def test_conjugate_values():
    assert KL.psi(0.0) == 0.0
    assert CHI2M.psi(0.5) == pytest.approx(1.0, abs=1e-12)  # closure endpoint
    assert KLM.psi(2.0) == math.inf
    assert CHI2.psi(-1.0) == pytest.approx(-0.5, abs=1e-12)
    assert HELLINGER.psi(1.0) == pytest.approx(2.0, abs=1e-12)


def test_conjugate_derivatives():
    for fam in ALL:
        d1, d2 = psi_derivs(fam, 0.0)
        assert d1 == pytest.approx(1.0, abs=1e-10)
        assert d2 == pytest.approx(1.0, abs=1e-10)
    assert psi_derivs(CHI2, 3.0) == (4.0, 1.0)
    d1, d2 = psi_derivs(KLM, 0.5)
    assert d1 == pytest.approx(2.0, abs=1e-12)
    assert d2 == pytest.approx(4.0, abs=1e-12)
    with pytest.raises(DomainError):
        psi_derivs(KLM, 1.0)


def test_domains():
    assert (KLM.a_star, KLM.b_star) == (-math.inf, 1.0)
    assert (KL.a_star, KL.b_star) == (-math.inf, math.inf)
    assert (CHI2.a_star, CHI2.b_star) == (-math.inf, math.inf)
    assert (CHI2M.a_star, CHI2M.b_star) == (-math.inf, 0.5)
    assert (HELLINGER.a_star, HELLINGER.b_star) == (-math.inf, 2.0)
    for fam in ALL:
        assert fam.a < 1.0 < fam.b
        assert fam.a_star < 0.0 < fam.b_star


def oracle_bracket(fam, t):
    """[lo, hi] interval containing the conjugate maximizer phi'^-1(t)."""
    lo = -1e4 if fam.a == -math.inf else 1e-9
    x_star = fam.psi_d1(t)
    hi = max(10.0, 4.0 * abs(float(x_star)))
    return lo, hi


@pytest.mark.parametrize("fam", ALL, ids=lambda f: f.name)
def test_conjugacy_against_grid_oracle(fam):
    for t in interior_grid(fam, num=25):
        val = numeric_conjugate(fam, t, *oracle_bracket(fam, t))
        assert fam.psi(t) == pytest.approx(val, abs=1e-6)


@pytest.mark.parametrize("fam", ALL, ids=lambda f: f.name)
def test_derivatives_match_finite_differences(fam):
    h1, h2 = 1e-6, 1e-4
    for t in interior_grid(fam):
        d1, d2 = psi_derivs(fam, t)
        fd1 = (fam.psi(t + h1) - fam.psi(t - h1)) / (2.0 * h1)
        fd2 = (fam.psi(t + h2) - 2.0 * fam.psi(t) + fam.psi(t - h2)) / h2 ** 2
        assert d1 == pytest.approx(fd1, rel=1e-6, abs=1e-6)
        assert d2 == pytest.approx(fd2, rel=1e-4, abs=1e-4)


@pytest.mark.parametrize("fam", ALL, ids=lambda f: f.name)
def test_inverse_relation(fam):
    for t in interior_grid(fam):
        x = psi_derivs(fam, t)[0]
        assert phi_derivs(fam, x)[0] == pytest.approx(t, abs=1e-10)


def test_power_family_coherence():
    pairs = [(0.0, KLM), (1.0, KL), (2.0, CHI2), (-1.0, CHI2M), (0.5, HELLINGER)]
    xs = np.linspace(0.05, 6.0, 50)
    for gamma, named in pairs:
        generic = power_family(gamma)
        assert np.allclose(generic.phi(xs), named.phi(xs), atol=1e-12)
        ts = interior_grid(named, num=50)
        assert np.allclose(generic.psi(ts), named.psi(ts), atol=1e-12)
        assert generic.a_star == named.a_star
        assert generic.b_star == named.b_star


@given(st.floats(min_value=1e-3, max_value=50.0))
@settings(max_examples=80, deadline=None)
def test_generator_nonnegative(x):
    for fam in ALL:
        v = fam.phi(x)
        assert v >= 0.0
        if abs(x - 1.0) > 1e-6:
            assert v > 0.0
    assert all(f.phi(1.0) == 0.0 for f in ALL)


@given(st.floats(min_value=-3.0, max_value=0.45))
@settings(max_examples=80, deadline=None)
def test_conjugate_convex_increasing_slope(t):
    for fam in ALL:
        d1, d2 = psi_derivs(fam, t)
        assert d2 > 0.0
        if fam.a == 0.0:
            assert d1 > 0.0  # psi' maps into dom phi, the positive axis
        else:
            assert d1 == pytest.approx(1.0 + t, abs=1e-12)  # quadratic case


def test_family_parser():
    assert family("KLm") is KLM
    assert family("klm") is KLM
    assert family("CHI2") is CHI2
    assert family("power:0.5").gamma == 0.5
    assert family(CHI2) is CHI2
    assert family("power:3").name == "power:3"
    with pytest.raises(ValueError):
        family("nope")


@pytest.mark.parametrize("spec", ["power:nan", "power:inf", "power:-inf"])
def test_nonfinite_power_index_is_rejected(spec):
    with pytest.raises(ValueError, match="finite"):
        power_family(float(spec.split(":")[1]))
    with pytest.raises(ValueError, match="unknown divergence family"):
        family(spec)


def test_generic_power_index():
    fam = power_family(3.0)
    # phi(2) = (8 - 6 + 2) / 6
    assert fam.phi(2.0) == pytest.approx(4.0 / 6.0, abs=1e-12)
    assert fam.phi(-1.0) == math.inf
    assert fam.a_star == -0.5
    for t in np.linspace(-0.45, 3.0, 20):
        assert fam.psi(t) == pytest.approx(numeric_conjugate(fam, t, 1e-9, 60.0),
                                           abs=1e-6)


@pytest.mark.parametrize("gamma", [1.5, 3.0, 4.0])
def test_conjugate_is_flat_below_a_star(gamma):
    # phi(0) = 1/gamma is finite, so at and below a_star the sup over x >= 0
    # is reached at x = 0: psi = -1/gamma, and its derivatives vanish
    fam = power_family(gamma)
    ts = fam.a_star - np.array([0.0, 1e-3, 0.5, 3.0, 50.0])
    for t in ts:
        assert fam.psi(t) == pytest.approx(numeric_conjugate(fam, t, 0.0, 10.0), abs=1e-9)
    assert (fam.psi(ts) == -1.0 / gamma).all()
    assert not fam.psi_d1(ts).any() and not fam.psi_d2(ts).any()
    assert fam.interior()[0] == -math.inf
