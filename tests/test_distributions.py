import math

import pytest

import summitwx.distributions

scipy_special = pytest.importorskip("scipy.special")
scipy_stats = pytest.importorskip("scipy.stats")
scipy_integrate = pytest.importorskip("scipy.integrate")

from summitwx.distributions import (
    betainc_regularized,
    f_sf,
    t_cdf,
    t_ppf,
    t_two_sided_p,
)

AB_GRID = (0.5, 1.0, 2.5, 5.0, 17.5, 30.0)
X_GRID = (0.0, 1e-9, 0.01, 0.2, 0.5, 0.8, 0.95, 1.0 - 1e-9, 1.0)


def test_betainc_matches_scipy_on_grid():
    for a in AB_GRID:
        for b in AB_GRID:
            for x in X_GRID:
                ours = betainc_regularized(a, b, x)
                ref = float(scipy_special.betainc(a, b, x))
                assert ours == pytest.approx(ref, abs=1e-10), (a, b, x)


def test_betainc_matches_direct_quadrature():
    # Independent of the continued fraction: integrate the density itself.
    for a, b, x in ((2.0, 3.0, 0.3), (0.5, 0.5, 0.7), (6.0, 1.5, 0.9)):
        integral, _ = scipy_integrate.quad(
            lambda t: t ** (a - 1) * (1 - t) ** (b - 1), 0.0, x
        )
        ref = integral / math.exp(
            math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
        )
        assert betainc_regularized(a, b, x) == pytest.approx(ref, abs=1e-10)


def test_betainc_edges_and_errors():
    assert betainc_regularized(2, 3, 0.0) == 0.0
    assert betainc_regularized(2, 3, 1.0) == 1.0
    with pytest.raises(ValueError):
        betainc_regularized(0, 3, 0.5)
    with pytest.raises(ValueError):
        betainc_regularized(2, -1, 0.5)
    with pytest.raises(ValueError):
        betainc_regularized(2, 3, 1.5)
    with pytest.raises(ValueError):
        betainc_regularized(2, 3, -0.1)


def test_t_cdf_matches_scipy():
    for df in (1, 2, 5, 24, 124, 500):
        for t in (-8.0, -3.151, -1.0, 0.0, 0.5, 1.96, 2.5, 7.0):
            assert t_cdf(t, df) == pytest.approx(
                float(scipy_stats.t.cdf(t, df)), abs=1e-10
            ), (t, df)


def test_t_cdf_keeps_its_digits_near_the_median():
    # df / (df + t*t) rounds to 1 for these; the complement keeps the digits.
    for df in (3, 500, 3000, 100000):
        for t in (1e-9, 1e-6, 1e-3, 0.1, 1.0):
            for signed in (t, -t):
                assert t_cdf(signed, df) == pytest.approx(
                    float(scipy_stats.t.cdf(signed, df)), abs=1e-11
                ), (signed, df)


def test_t_sf_and_symmetry():
    for df in (3, 30):
        for t in (-2.0, 0.0, 1.7):
            assert t_cdf(-t, df) == pytest.approx(1.0 - t_cdf(t, df), abs=1e-12)


def test_two_sided_p_matches_scipy():
    for df in (1, 4, 26, 124):
        for t in (0.0, 0.7, 2.056, 4.9):
            ref = float(2 * scipy_stats.t.sf(abs(t), df))
            assert t_two_sided_p(t, df) == pytest.approx(ref, abs=1e-10), (t, df)
            assert t_two_sided_p(-t, df) == t_two_sided_p(t, df)


def test_f_sf_matches_scipy():
    for d1, d2 in ((1, 1), (3, 124), (2, 6), (5, 40)):
        for f in (0.0, 0.4, 1.0, 3.151, 10.0):
            ref = float(scipy_stats.f.sf(f, d1, d2))
            assert f_sf(f, d1, d2) == pytest.approx(ref, abs=1e-10), (f, d1, d2)


def test_f_sf_nonpositive_statistic_is_one():
    assert f_sf(0.0, 3, 10) == 1.0
    assert f_sf(-2.0, 3, 10) == 1.0


def test_t_ppf_matches_scipy():
    for df in (1, 2, 10, 29, 124):
        for p in (0.6, 0.9, 0.95, 0.975, 0.995):
            ref = float(scipy_stats.t.ppf(p, df))
            assert t_ppf(p, df) == pytest.approx(ref, abs=1e-8), (p, df)


def test_t_ppf_round_trips_through_cdf():
    for df in (3, 17):
        for p in (0.51, 0.8, 0.99):
            assert t_cdf(t_ppf(p, df), df) == pytest.approx(p, abs=1e-10)


def test_t_ppf_textbook_anchor():
    assert t_ppf(0.975, 2) == pytest.approx(4.302652729911275, abs=1e-8)


def bisection_t_ppf(p, df):
    """The plain bisection ``t_ppf`` replays: a verbatim copy, as the oracle."""
    if df <= 0:
        raise ValueError("degrees of freedom must be positive")
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    if p == 0.5:
        return 0.0
    if p < 0.5:
        return -bisection_t_ppf(1.0 - p, df)
    hi = 1.0
    while t_cdf(hi, df) < p:
        hi *= 2.0
        if hi > 1e308:
            raise ArithmeticError("quantile bracket expansion failed")
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if t_cdf(mid, df) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * max(1.0, abs(hi)):
            break
    return 0.5 * (lo + hi)


LOG_SPACED_DF = tuple(sorted({round(10 ** (k / 8)) for k in range(17, 41)}))  # 133 .. 1e5
SPOT_DF = (1, 2, 3, 4, 5, 7, 10, 15, 20, 31, 50, 80, 124, 200, 500, 1000, 3000, 10000,
           30000, 100000)


def test_t_ppf_equals_the_bisection_at_the_95_percent_quantile():
    for df in (*range(1, 301), *LOG_SPACED_DF, 0.5, 1.5, 2.5, 1e5 + 0.5):
        assert t_ppf(0.975, df) == bisection_t_ppf(0.975, df), df
        assert t_ppf(0.025, df) == bisection_t_ppf(0.025, df), df


def test_t_ppf_equals_the_bisection_in_the_upper_tail():
    ps = [0.9 + 0.0999 * k / 24 for k in range(25)] + [0.99999, 1.0 - 1e-9]
    for df in SPOT_DF:
        for p in ps:
            assert t_ppf(p, df) == bisection_t_ppf(p, df), (p, df)


def test_t_ppf_calls_t_cdf_at_most_20_times_for_a_paper_group(monkeypatch):
    calls = []
    t_cdf_plain = summitwx.distributions.t_cdf

    def counting(t, df):
        calls.append(t)
        return t_cdf_plain(t, df)

    monkeypatch.setattr(summitwx.distributions, "t_cdf", counting)
    assert t_ppf(0.975, 31) == bisection_t_ppf(0.975, 31)
    assert 0 < len(calls) <= 20


def test_t_ppf_near_the_median_with_large_df_matches_scipy():
    # Only the scipy tolerance of the other quantile tests is asserted here,
    # not the bisection's bits.
    for df in (500, 3000, 30000, 100000):
        for p in (0.501, 0.51, 0.55):
            ref = float(scipy_stats.t.ppf(p, df))
            assert t_ppf(p, df) == pytest.approx(ref, abs=1e-8), (p, df)


def test_t_ppf_just_above_the_median_with_large_df_matches_scipy():
    ref = float(scipy_stats.t.ppf(0.5000001, 3000))
    assert t_ppf(0.5000001, 3000) == pytest.approx(ref, abs=1e-8)


def test_argument_validation():
    with pytest.raises(ValueError):
        t_cdf(1.0, 0)
    with pytest.raises(ValueError):
        f_sf(1.0, 0, 5)
    with pytest.raises(ValueError):
        t_ppf(0.0, 5)
    with pytest.raises(ValueError):
        t_ppf(1.0, 5)
    for df in (0, -0.5):
        for fn, x in ((t_ppf, 0.9), (t_two_sided_p, 1.0)):
            with pytest.raises(ValueError, match="degrees of freedom must be positive"):
                fn(x, df)


def test_t_ppf_of_the_median_is_zero():
    for df in (0.5, 1, 7, 3000):
        assert t_ppf(0.5, df) == 0.0
