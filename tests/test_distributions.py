import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phidiv import chi2_cdf, chi2_quantile, normal_cdf, normal_quantile
from phidiv.distributions import chi2_pdf, gamma_p, normal_pdf


def test_reference_quantiles():
    assert chi2_quantile(0.95, 1) == pytest.approx(3.841459, abs=1e-5)
    assert chi2_quantile(0.95, 2) == pytest.approx(5.991465, abs=1e-5)
    assert chi2_quantile(0.99, 1) == pytest.approx(6.634897, abs=1e-5)
    assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-5)
    assert normal_quantile(0.5) == 0.0
    assert normal_quantile(0.8) == pytest.approx(0.8416212, abs=1e-6)


def test_cdf_basics():
    assert normal_cdf(0.0) == 0.5
    assert normal_cdf(-1.0) + normal_cdf(1.0) == pytest.approx(1.0, abs=1e-14)
    assert chi2_cdf(0.0, 3) == 0.0
    # chi2(2) is exponential with mean 2
    assert chi2_cdf(2.0, 2) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)
    # chi2(1) CDF from the normal CDF
    x = 1.7
    assert chi2_cdf(x, 1) == pytest.approx(2.0 * normal_cdf(math.sqrt(x)) - 1.0,
                                           abs=1e-12)


@given(st.floats(min_value=1e-4, max_value=0.9999),
       st.integers(min_value=1, max_value=30))
@settings(max_examples=120, deadline=None)
def test_chi2_quantile_roundtrip(p, k):
    assert chi2_cdf(chi2_quantile(p, k), k) == pytest.approx(p, abs=1e-9)


@given(st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
@settings(max_examples=120, deadline=None)
def test_normal_quantile_roundtrip(p):
    assert normal_cdf(normal_quantile(p)) == pytest.approx(p, abs=1e-11)


def test_pdf_consistency():
    h = 1e-6
    for x in (0.5, 1.0, 3.7):
        for k in (1, 2, 5):
            fd = (chi2_cdf(x + h, k) - chi2_cdf(x - h, k)) / (2.0 * h)
            assert chi2_pdf(x, k) == pytest.approx(fd, rel=1e-6)
    fd = (normal_cdf(0.3 + h) - normal_cdf(0.3 - h)) / (2.0 * h)
    assert normal_pdf(0.3) == pytest.approx(fd, rel=1e-6)


def test_gamma_p_monotone_and_bounded():
    prev = 0.0
    for x in [0.1 * i for i in range(1, 80)]:
        v = gamma_p(2.5, x)
        assert 0.0 <= v <= 1.0
        assert v >= prev
        prev = v


def test_argument_validation():
    with pytest.raises(ValueError):
        chi2_quantile(0.0, 1)
    with pytest.raises(ValueError):
        chi2_quantile(1.0, 1)
    with pytest.raises(ValueError):
        chi2_cdf(-1.0, 1)
    with pytest.raises(ValueError):
        normal_quantile(1.5)
    with pytest.raises(ValueError):
        gamma_p(-1.0, 1.0)
