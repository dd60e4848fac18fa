import numpy as np
import pytest

from hiercert import numerics
from hiercert.errors import ValidationError

from helpers import quantile_oracle


def test_quantile_median_is_exact_zero():
    assert numerics.normal_quantile(0.5) == 0.0


def test_quantile_known_points():
    # expected values frozen from the bisection oracle
    assert numerics.normal_quantile(0.975) == pytest.approx(1.959963984540054, abs=1e-9)
    assert numerics.normal_quantile(0.841345) == pytest.approx(1.0, abs=1e-5)


def test_quantile_matches_oracle_across_domain():
    qs = np.concatenate([
        np.geomspace(1e-12, 0.5, 500),
        1.0 - np.geomspace(1e-12, 0.4999, 500),
        np.linspace(1e-6, 1.0 - 1e-6, 500),
    ])
    vals = numerics.normal_quantile(qs)
    worst = max(abs(v - quantile_oracle(float(q))) for q, v in zip(qs, vals))
    assert worst <= 1e-9


def test_quantile_scalar_and_vector_paths_agree():
    qs = np.linspace(1e-9, 1.0 - 1e-9, 4001)
    vec = numerics.normal_quantile(qs)
    sc = np.array([numerics.normal_quantile(float(q)) for q in qs])
    assert np.max(np.abs(vec - sc)) < 1e-14


def test_quantile_monotone():
    qs = np.linspace(1e-9, 1.0 - 1e-9, 200001)
    vals = numerics.normal_quantile(qs)
    assert np.all(np.diff(vals) >= 0.0)


def test_quantile_domain_errors():
    for bad in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValidationError):
            numerics.normal_quantile(bad)
    with pytest.raises(ValidationError):
        numerics.normal_quantile(np.array([0.5, 1.0]))


def test_quantile_symmetry_within_precision():
    # the achievable tolerance is set by how well 1 - q represents the
    # complement: spacing 1.1e-16 near 1, amplified by 1/pdf at the quantile
    for q, tol in ((0.2, 1e-13), (0.31, 1e-13), (0.49, 1e-13),
                   (0.0007, 1e-12), (1e-5, 1e-10), (1e-9, 3e-8)):
        assert numerics.normal_quantile(1.0 - q) == pytest.approx(
            -numerics.normal_quantile(q), abs=tol)


def test_cdf_known_values():
    assert numerics.normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
    assert numerics.normal_cdf(1.0) == pytest.approx(0.8413447460685429, abs=1e-12)
    assert numerics.normal_cdf(2.0) == pytest.approx(0.9772498680518208, abs=1e-12)
    assert numerics.normal_cdf(3.0) == pytest.approx(0.9986501019683699, abs=1e-12)


def test_cdf_quantile_roundtrip():
    # the erfc-based CDF keeps full relative precision in the lower tail,
    # so the deep-negative roundtrip is tight; above +5 the CDF value's
    # distance to 1 is no longer representable to the same precision
    xs = np.linspace(-8.0, 5.0, 1001)
    back = numerics.normal_quantile(np.array([numerics.normal_cdf(x) for x in xs]))
    assert np.max(np.abs(back - xs)) < 1e-9
