"""Degree aggregates, price moments, VWAP, rolling evaluation."""

import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

import naive_ref
import tickvol.moments as moments_mod
from tickvol import (
    ConfigError,
    DegreeOutOfRangeError,
    EmptyWindowError,
    NonFiniteError,
    ReturnsSet,
    SimConfig,
    WindowSpec,
    aggregate_degree,
    collect_price_moments,
    dispersion_stats,
    price_moment,
    price_volatility_direct,
    price_volatility_report,
    returns_dispersion_stats,
    returns_moment,
    returns_volatility_direct,
    returns_volatility_report,
    returns_volatility_rform,
    select_window,
    simple_average_price,
    simulate_trades,
    validate_series,
    vwap,
    window_centers,
)
from tickvol.moments import moment_sums


def _view(rows, center=None, width=None):
    series = validate_series(rows)
    if center is None:
        t0, t1 = series.span()
        center = (t0 + t1) / 2
        width = (t1 - t0) + 1.0
    return select_window(series, WindowSpec(center, width))


def _rolling(series, width, stride, degrees):
    """Centers, trade counts and moment_sums rows of the rolling window grid."""
    centers = window_centers(series, width, stride)
    return (centers, *moment_sums(series, centers, width, degrees))


class TestAggregateDegree:
    def test_two_trade_sums(self, two_trade_view):
        assert aggregate_degree(two_trade_view, 1) == (16.0, 5.0)
        assert aggregate_degree(two_trade_view, 2) == (136.0, 13.0)

    def test_single_trade_powers(self):
        view = _view([(0.0, 3.0, 2.0)])
        for n in range(1, 9):
            assert aggregate_degree(view, n) == (3.0 ** n, 2.0 ** n)

    def test_empty_window_raises(self, two_trade_series):
        empty = select_window(two_trade_series, WindowSpec(100.0, 1.0))
        with pytest.raises(EmptyWindowError):
            aggregate_degree(empty, 1)

    def test_degree_out_of_range(self, two_trade_view):
        with pytest.raises(DegreeOutOfRangeError):
            aggregate_degree(two_trade_view, 0)
        with pytest.raises(DegreeOutOfRangeError):
            aggregate_degree(two_trade_view, 9)  # the cap is 8

    def test_non_integer_degree_rejected(self, two_trade_view):
        with pytest.raises(DegreeOutOfRangeError):
            aggregate_degree(two_trade_view, 1.5)


class TestPriceMoment:
    def test_two_trade_values(self, two_trade_view):
        assert price_moment(two_trade_view, 1) == pytest.approx(3.2, rel=1e-15)
        assert price_moment(two_trade_view, 2) == pytest.approx(136 / 13, rel=1e-15)

    def test_single_trade_is_price_power(self):
        view = _view([(0.0, 10.0, 4.0)])
        for n in range(1, 9):
            assert price_moment(view, n) == (10.0 / 4.0) ** n

    def test_vwap_equals_first_moment_bitwise(self, two_trade_view):
        assert vwap(two_trade_view) == price_moment(two_trade_view, 1)

    def test_vwap_two_trades(self, two_trade_view):
        assert vwap(two_trade_view) == pytest.approx(3.2, rel=1e-15)

    def test_vwap_constant_price(self):
        view = _view([(0.0, 5.0, 1.0), (1.0, 10.0, 2.0), (2.0, 20.0, 4.0)])
        assert vwap(view) == pytest.approx(5.0, rel=1e-15)

    def test_vwap_one_trade(self):
        view = _view([(0.0, 7.0, 2.0)])
        assert vwap(view) == 3.5


class TestSimpleAverage:
    def test_arithmetic_mean_of_prices(self, two_trade_view):
        assert simple_average_price(two_trade_view) == pytest.approx(3.5, rel=1e-15)

    def test_equal_volumes_degenerate_to_vwap(self):
        view = _view([(0.0, 4.0, 2.0), (1.0, 10.0, 2.0), (2.0, 7.0, 2.0)])
        assert simple_average_price(view) == pytest.approx(vwap(view), rel=1e-14)

    def test_one_trade(self):
        view = _view([(0.0, 9.0, 2.0)])
        assert simple_average_price(view) == 4.5

    def test_empty_raises(self, two_trade_series):
        empty = select_window(two_trade_series, WindowSpec(100.0, 1.0))
        with pytest.raises(EmptyWindowError):
            simple_average_price(empty)


class TestRollingMoments:
    """The rolling window grid: window_centers, then moment_sums."""

    def test_three_trades_width2_stride1(self):
        series = validate_series([(0.0, 1.0, 1.0), (1.0, 2.0, 1.0), (2.0, 3.0, 1.0)])
        centers, counts, sums = _rolling(series, 2.0, 1.0, [1])
        assert centers.tolist() == [1.0, 2.0, 3.0]
        assert counts.tolist() == [3, 2, 1]
        # first window covers everything: p1 = 6/3
        assert sums[0, 0] / sums[0, 1] == pytest.approx(2.0)

    def test_stride_larger_than_span_single_record(self):
        series = validate_series([(0.0, 1.0, 1.0), (3.0, 2.0, 1.0)])
        centers, counts, _ = _rolling(series, 10.0, 100.0, [1])
        assert len(centers) == 1
        assert counts.tolist() == [2]

    def test_single_trade_series(self):
        series = validate_series([(5.0, 8.0, 2.0)])
        _, counts, sums = _rolling(series, 2.0, 1.0, [1, 2, 3])
        assert counts.tolist() == [1]
        for i, n in enumerate((1, 2, 3)):
            assert sums[0, i] / sums[0, 3 + i] == 4.0 ** n

    def test_empty_windows_flagged(self):
        # gap between trades leaves interior windows empty
        series = validate_series([(0.0, 1.0, 1.0), (10.0, 2.0, 1.0)])
        _, counts, sums = _rolling(series, 1.0, 1.0, [1])
        assert (counts == 0).any()
        # the sums have a row for each non-empty window only
        assert sums.shape == (np.count_nonzero(counts), 2)

    def test_matches_the_per_window_path(self):
        series = simulate_trades(SimConfig(n_trades=400, seed=3))
        degrees = [1, 2, 3, 8]
        centers, counts, sums = _rolling(series, 30.0, 7.0, degrees)
        rows = iter(sums.tolist())
        for center, count in zip(centers.tolist(), counts.tolist()):
            entries = collect_price_moments(select_window(series, WindowSpec(center, 30.0)), degrees)
            row = next(rows) if count else []
            assert entries == {n: (c, v, c / v) for n, c, v in zip(degrees, row, row[4:])}
        assert next(rows, None) is None

    def test_centers_anchor_to_first_trade(self):
        series = validate_series([(7.0, 1.0, 1.0), (9.0, 2.0, 1.0)])
        centers = window_centers(series, width=1.0, stride=0.5)
        assert centers[0] == 7.5
        assert centers[-1] == pytest.approx(9.5)
        np.testing.assert_allclose(np.diff(centers), 0.5)

    @given(st.floats(0.0, 100.0), st.floats(0.01, 50.0),
           st.floats(0.01, 20.0), st.floats(0.01, 20.0))
    def test_centers_cover_span(self, t0, span, width, stride):
        series = validate_series([(t0, 1.0, 1.0), (t0 + span, 1.0, 1.0)])
        centers = window_centers(series, width, stride)
        assert len(centers) >= 1
        assert centers[0] == t0 + width / 2
        # last window's left edge still touches the data; one more step
        # would not (up to float fuzz of the step arithmetic)
        last_k = len(centers) - 1
        assert last_k * stride <= span * (1 + 1e-12)
        assert (last_k + 1) * stride > span * (1 - 1e-12)


class TestWindowGridCap:
    def test_tiny_stride_rejected_before_allocation(self):
        series = validate_series([(0.0, 1.0, 1.0), (2e5, 2.0, 1.0)])
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="windows"):
                window_centers(series, width=10.0, stride=1e-12)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_subnormal_stride_rejected(self):
        series = validate_series([(0.0, 1.0, 1.0), (1.0, 2.0, 1.0)])
        with pytest.raises(ConfigError):
            window_centers(series, width=1.0, stride=5e-324)

    def test_cap_is_the_largest_grid_allowed(self, monkeypatch):
        monkeypatch.setattr(moments_mod, "MAX_WINDOWS", 10)
        series = validate_series([(0.0, 1.0, 1.0), (9.0, 1.0, 1.0)])
        assert len(window_centers(series, width=1.0, stride=1.0)) == 10
        series = validate_series([(0.0, 1.0, 1.0), (10.0, 1.0, 1.0)])
        with pytest.raises(ConfigError):
            window_centers(series, width=1.0, stride=1.0)


class TestScaleProperties:
    @given(st.lists(st.tuples(st.floats(0.1, 10.0), st.floats(0.1, 10.0)),
                    min_size=1, max_size=40),
           st.sampled_from([1e-3, 0.25, 3.0, 1e3]))
    def test_volume_scale_invariance(self, price_vol_pairs, lam):
        rows = [(float(i), p * v, v) for i, (p, v) in enumerate(price_vol_pairs)]
        scaled = [(t, c * lam, v * lam) for t, c, v in rows]
        view = _view(rows)
        view_s = _view(scaled)
        for n in range(1, 5):
            a = price_moment(view, n)
            b = price_moment(view_s, n)
            assert b == pytest.approx(a, rel=1e-12)

    @given(st.lists(st.tuples(st.floats(0.1, 10.0), st.floats(0.1, 10.0)),
                    min_size=1, max_size=40),
           st.sampled_from([1e-3, 0.25, 3.0, 1e3]))
    def test_currency_covariance(self, price_vol_pairs, lam):
        rows = [(float(i), p * v, v) for i, (p, v) in enumerate(price_vol_pairs)]
        scaled = [(t, c * lam, v) for t, c, v in rows]
        view = _view(rows)
        view_s = _view(scaled)
        for n in range(1, 5):
            assert price_moment(view_s, n) == pytest.approx(
                lam ** n * price_moment(view, n), rel=1e-12)

    @given(st.floats(0.1, 50.0),
           st.lists(st.floats(0.1, 10.0), min_size=1, max_size=40))
    def test_constant_price_window(self, price, volumes):
        rows = [(float(i), price * v, v) for i, v in enumerate(volumes)]
        view = _view(rows)
        for n in range(1, 9):
            assert price_moment(view, n) == pytest.approx(price ** n, rel=1e-12)


class TestOracleEquivalence:
    def test_random_windows_match_naive(self):
        rng = random.Random(1234)
        for _ in range(60):
            n = rng.randint(1, 100)
            trades = naive_ref.lognormal_trades(rng, n)
            view = _view(trades)
            for deg in (1, 2, 3, 4):
                assert price_moment(view, deg) == pytest.approx(
                    naive_ref.price_moment(trades, deg), rel=1e-12)
            assert vwap(view) == pytest.approx(naive_ref.vwap(trades), rel=1e-12)
            assert simple_average_price(view) == pytest.approx(
                naive_ref.simple_average_price(trades), rel=1e-12)

    def test_rolling_matches_naive_window_scan(self):
        rng = random.Random(99)
        trades = naive_ref.lognormal_trades(rng, 200, dt=0.35)
        series = validate_series(trades)
        centers, counts, sums = _rolling(series, 5.0, 2.0, [1, 2])
        assert len(centers) > 10
        rows = iter(sums.tolist())
        for center, count in zip(centers.tolist(), counts.tolist()):
            members = naive_ref.window_members(trades, center, 5.0)
            assert count == len(members)
            if members:
                c1, c2, v1, v2 = next(rows)
                assert c1 / v1 == pytest.approx(naive_ref.price_moment(members, 1), rel=1e-12)
                assert c2 / v2 == pytest.approx(naive_ref.price_moment(members, 2), rel=1e-12)


def test_stored_moment_is_division_of_stored_sums(two_trade_view):
    entries = collect_price_moments(two_trade_view, [1, 2, 3])
    assert sorted(entries) == [1, 2, 3]
    for n, (c, v, p) in entries.items():
        assert p == c / v  # bitwise: stored as the division result
        assert abs(c - p * v) <= 4 * math.ulp(max(abs(c), 1.0))
        assert p > 0


def test_empty_window_has_no_moments(two_trade_series):
    empty = select_window(two_trade_series, WindowSpec(100.0, 1.0))
    assert collect_price_moments(empty, [1, 2]) == {}


def _returns_with_infinite_cost_ratio():
    """Three lag-1 records, the second with cost and price ratios of inf."""
    ratio = np.array([1.0, np.inf, 1.0])
    return ReturnsSet(1, np.arange(1, 4), np.arange(3.0), ratio, ratio, np.ones(3),
                      ratio - 1.0, np.log(ratio))


# csum's partials overflow: cost sums of 2e308
_FSUM = [(0.0, 1e308, 1.0), (0.5, 1e308, 1.0)]
# C^2 is inf: volatility sums of costs near 1e200
_POWER = [(0.0, 1e200, 1.0), (0.5, 1e200, 1.0)]


class TestOverflow:
    """A per-window sum past the double range raises NonFiniteError, never
    inf, nan or a raw OverflowError, and leaks no numpy warning."""

    @pytest.mark.parametrize("rows, fn", [
        pytest.param(_FSUM, lambda v: price_moment(v, 1), id="fsum-price_moment"),
        pytest.param(_FSUM, vwap, id="fsum-vwap"),
        pytest.param(_FSUM, simple_average_price, id="fsum-simple_average_price"),
        pytest.param(_FSUM, lambda v: collect_price_moments(v, [1]),
                     id="fsum-collect_price_moments"),
        pytest.param(_FSUM, dispersion_stats, id="fsum-dispersion_stats"),
        pytest.param(_FSUM, price_volatility_report, id="fsum-price_volatility_report"),
        pytest.param(_POWER, lambda v: price_moment(v, 2), id="power-price_moment"),
        pytest.param(_POWER, lambda v: collect_price_moments(v, [1, 2]),
                     id="power-collect_price_moments"),
        pytest.param(_POWER, dispersion_stats, id="power-dispersion_stats"),
        pytest.param(_POWER, price_volatility_direct, id="power-price_volatility_direct"),
        pytest.param(_POWER, price_volatility_report, id="power-price_volatility_report"),
    ])
    def test_trades(self, rows, fn):
        view = _view(rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match="overflows the double range"):
                fn(view)

    @pytest.mark.parametrize("fn", [
        lambda r: returns_moment(r, 1), returns_dispersion_stats, returns_volatility_direct,
        returns_volatility_rform, returns_volatility_report,
    ], ids=["returns_moment", "returns_dispersion_stats", "returns_volatility_direct",
            "returns_volatility_rform", "returns_volatility_report"])
    def test_infinite_cost_ratio(self, fn):
        records = _returns_with_infinite_cost_ratio()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match="overflows the double range"):
                fn(records)

    def test_finite_near_the_limit(self):
        view = _view(_FSUM[:1])
        assert price_moment(view, 1) == simple_average_price(view) == 1e308
        assert price_moment(_view([(0.0, 1e150, 1.0), (0.5, 1e150, 1.0)]), 2) == pytest.approx(1e300)
