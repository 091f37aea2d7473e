"""Degree aggregates, price moments, VWAP, rolling evaluation."""

import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

import naive_ref
import tickvol.moments as moments_mod
from tickvol import (
    ConfigError,
    DegreeOutOfRangeError,
    EmptyWindowError,
    SimConfig,
    WindowSpec,
    aggregate_degree,
    collect_price_moments,
    price_moment,
    rolling_moments,
    select_window,
    simple_average_price,
    simulate_trades,
    validate_series,
    vwap,
    window_centers,
)


def _view(rows, center=None, width=None):
    series = validate_series(rows)
    if center is None:
        t0, t1 = series.span()
        center = (t0 + t1) / 2
        width = (t1 - t0) + 1.0
    return select_window(series, WindowSpec(center, width))


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
            aggregate_degree(two_trade_view, 9)  # default cap is 8
        aggregate_degree(two_trade_view, 9, degree_cap=12)  # raised cap is fine
        with pytest.raises(DegreeOutOfRangeError):
            aggregate_degree(two_trade_view, 17, degree_cap=17)  # above hard limit

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
    def test_three_trades_width2_stride1(self):
        series = validate_series([(0.0, 1.0, 1.0), (1.0, 2.0, 1.0), (2.0, 3.0, 1.0)])
        out = rolling_moments(series, width=2.0, stride=1.0, degrees={1})
        assert [pm.window.center for pm in out] == [1.0, 2.0, 3.0]
        assert [pm.n_trades for pm in out] == [3, 2, 1]
        # first window covers everything: p1 = 6/3
        assert out[0].moment(1) == pytest.approx(2.0)

    def test_stride_larger_than_span_single_record(self):
        series = validate_series([(0.0, 1.0, 1.0), (3.0, 2.0, 1.0)])
        out = rolling_moments(series, width=10.0, stride=100.0, degrees=[1])
        assert len(out) == 1
        assert out[0].n_trades == 2

    def test_single_trade_series(self):
        series = validate_series([(5.0, 8.0, 2.0)])
        out = rolling_moments(series, width=2.0, stride=1.0, degrees=[1, 2, 3])
        assert len(out) == 1
        pm = out[0]
        assert pm.n_trades == 1
        for n in (1, 2, 3):
            assert pm.moment(n) == 4.0 ** n

    def test_empty_windows_flagged(self):
        # gap between trades leaves interior windows empty
        series = validate_series([(0.0, 1.0, 1.0), (10.0, 2.0, 1.0)])
        out = rolling_moments(series, width=1.0, stride=1.0, degrees=[1])
        assert any(pm.empty for pm in out)
        for pm in out:
            if pm.empty:
                assert pm.n_trades == 0 and pm.entries == {}

    def test_matches_the_per_window_path(self):
        series = simulate_trades(SimConfig(n_trades=400, seed=3))
        degrees = [1, 2, 3, 8]
        out = rolling_moments(series, width=30.0, stride=7.0, degrees=degrees)
        for pm in out:
            assert pm == collect_price_moments(select_window(series, pm.window), degrees)

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
        out = rolling_moments(series, width=5.0, stride=2.0, degrees=[1, 2])
        assert len(out) > 10
        for pm in out:
            members = naive_ref.window_members(trades, pm.window.center, pm.window.width)
            assert pm.n_trades == len(members)
            if members:
                for n in (1, 2):
                    assert pm.moment(n) == pytest.approx(
                        naive_ref.price_moment(members, n), rel=1e-12)


def test_stored_moment_is_division_of_stored_sums(two_trade_view):
    from tickvol import collect_price_moments

    pm = collect_price_moments(two_trade_view, [1, 2, 3])
    for n, (c, v, p) in pm.entries.items():
        assert p == c / v  # bitwise: stored as the division result
        assert abs(c - p * v) <= 4 * math.ulp(max(abs(c), 1.0))
        assert p > 0
