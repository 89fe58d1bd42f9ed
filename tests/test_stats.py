import math
import random
import re

import numpy as np
import pytest

from cubefold import stats
from cubefold.stats import chi2_cdf, chi2_threshold, chi_squared
from helpers import chi_squared_contingency, kolmogorov_cdf, ks_statistic, ks_threshold


def test_chi_squared_zero_when_exact():
    stat, dof = chi_squared([25, 25, 25, 25], [25.0] * 4)
    assert stat == 0.0 and dof == 3


def test_chi_squared_hand_value():
    stat, dof = chi_squared([60, 40], [50.0, 50.0])
    assert stat == 4.0 and dof == 1


def test_chi_squared_binned_counts():
    stat, _ = chi_squared((60, 40), [50.0, 50.0])
    assert stat == 4.0


def test_chi_squared_rejects_zero_expected():
    with pytest.raises(ValueError):
        chi_squared([1, 1], [2.0, 0.0])


def test_chi_squared_rejects_total_mismatch():
    with pytest.raises(ValueError):
        chi_squared([60, 40], [30.0, 30.0])


def test_chi_squared_invariant_under_bin_permutation():
    rng = random.Random(1)
    obs = [rng.randint(0, 50) for _ in range(10)]
    exp = [rng.uniform(1, 50) for _ in range(10)]
    exp = [e * sum(obs) / sum(exp) for e in exp]
    stat, _ = chi_squared(obs, exp)
    perm = rng.sample(range(10), 10)
    stat2, _ = chi_squared([obs[i] for i in perm], [exp[i] for i in perm])
    assert math.isclose(stat, stat2)


def test_contingency_independent_table_is_zero():
    stat, dof = chi_squared_contingency([[10, 20], [30, 60]])
    assert stat == 0.0 and dof == 1


def test_ks_single_sample_at_median():
    assert ks_statistic([0.5], lambda x: x) == 0.5


def test_ks_near_quantile_samples_is_small():
    n = 999
    samples = [(k + 1) / (n + 1) for k in range(n)]
    d = ks_statistic(samples, lambda x: x)
    assert d <= 1 / (n + 1) + 1e-12


def test_ks_constant_samples_degenerate():
    d = ks_statistic([0.001] * 100, lambda x: x)
    assert d > 0.99


def test_ks_in_unit_interval_and_reparameterization_invariant():
    rng = random.Random(3)
    samples = [rng.random() for _ in range(200)]
    d = ks_statistic(samples, lambda x: x)
    assert 0.0 <= d <= 1.0
    # strictly increasing map applied to both sides leaves D unchanged
    d2 = ks_statistic([s ** 3 for s in samples], lambda x: x ** (1 / 3))
    assert math.isclose(d, d2, abs_tol=1e-12)


# tabulated chi-squared quantiles (standard tables)
@pytest.mark.parametrize("dof,conf,expect", [
    (1, 0.95, 3.841),
    (1, 0.99, 6.635),
    (1, 0.999, 10.828),
    (5, 0.95, 11.070),
    (9, 0.999, 27.877),
    (255, 0.999, 330.52),
])
def test_chi2_threshold_against_tables(dof, conf, expect):
    assert chi2_threshold(dof, conf) == pytest.approx(expect, rel=5e-3)


def test_chi2_threshold_limits_and_monotonicity():
    assert chi2_threshold(3, 1e-9) < 1e-2
    prev = 0.0
    for conf in (0.5, 0.9, 0.99, 0.999):
        cur = chi2_threshold(7, conf)
        assert cur > prev
        prev = cur
    for dof in (1, 2, 5, 20, 100):
        assert chi2_threshold(dof + 1, 0.95) > chi2_threshold(dof, 0.95)


def test_chi2_threshold_bisects_once_per_dof_and_confidence(monkeypatch):
    # the public name stays a plain function, so a tracer can wrap it
    assert not hasattr(chi2_threshold, "cache_info")
    first = chi2_threshold(1023, 0.999)
    def bisect(*args):
        raise AssertionError("the threshold was bisected again")
    monkeypatch.setattr(stats, "chi2_cdf", bisect)
    assert chi2_threshold(1023, 0.999) == first


def test_chi2_cdf_is_zero_at_zero():
    assert chi2_cdf(0.0, 3) == 0.0


def test_chi2_cdf_threshold_roundtrip():
    for dof in (1, 4, 30):
        for conf in (0.9, 0.999):
            assert chi2_cdf(chi2_threshold(dof, conf), dof) == pytest.approx(conf, abs=1e-9)


def test_kolmogorov_threshold():
    # K(1.358) ~ 0.95; classical critical value 1.358/sqrt(n)
    assert kolmogorov_cdf(1.358) == pytest.approx(0.95, abs=5e-3)
    assert ks_threshold(10_000, 0.95) == pytest.approx(1.358 / 100, rel=5e-3)


def test_threshold_argument_validation():
    with pytest.raises(ValueError):
        chi2_threshold(0, 0.95)
    with pytest.raises(ValueError):
        chi2_threshold(3, 1.0)
    with pytest.raises(ValueError):
        ks_threshold(0, 0.95)


@pytest.mark.parametrize("call,message", [
    (lambda: chi_squared([1, 2], [1.0, 1.0, 1.0]),
     "observed and expected must have equal length"),
    (lambda: chi_squared_contingency([1, 2]),
     "contingency table must be 2-dimensional"),
    (lambda: chi_squared_contingency([[0, 0], [0, 0]]), "empty table"),
    (lambda: chi_squared_contingency([[1, 0], [2, 0]]),
     "a margin is empty; expected count would be zero"),
    (lambda: chi2_threshold(0, 0.95), "dof must be >= 1"),
], ids=["lengths", "1-d", "all-zero", "zero-margin", "dof0"])
def test_stats_guards_raise_their_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
