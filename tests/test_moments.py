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
    dispersion_stats,
    price_moment,
    price_volatility_closed,
    price_volatility_direct,
    price_volatility_report,
    returns_dispersion_stats,
    returns_moment,
    returns_volatility_closed,
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
from tickvol.moments import collect_price_moments, moment_table


def _view(rows, center=None, width=None):
    series = validate_series(rows)
    if center is None:
        t0, t1 = series.span()
        center = (t0 + t1) / 2
        width = (t1 - t0) + 1.0
    return select_window(series, WindowSpec(center, width))


def _rolling(series, width, stride, degrees):
    """Centers, trade counts and moment_table columns of the rolling window grid."""
    centers = window_centers(series, width, stride)
    return (centers, *moment_table(series, centers, width, degrees))


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
    """The rolling window grid: window_centers, then moment_table."""

    def test_three_trades_width2_stride1(self):
        series = validate_series([(0.0, 1.0, 1.0), (1.0, 2.0, 1.0), (2.0, 3.0, 1.0)])
        centers, counts, table = _rolling(series, 2.0, 1.0, [1])
        assert centers.tolist() == [1.0, 2.0, 3.0]
        assert counts.tolist() == [3, 2, 1]
        # first window covers everything: p1 = 6/3
        assert table["p1"][0] == pytest.approx(2.0)

    def test_stride_larger_than_span_single_record(self):
        series = validate_series([(0.0, 1.0, 1.0), (3.0, 2.0, 1.0)])
        centers, counts, _ = _rolling(series, 10.0, 100.0, [1])
        assert len(centers) == 1
        assert counts.tolist() == [2]

    def test_single_trade_series(self):
        series = validate_series([(5.0, 8.0, 2.0)])
        _, counts, table = _rolling(series, 2.0, 1.0, [1, 2, 3])
        assert counts.tolist() == [1]
        for n in (1, 2, 3):
            assert table[f"p{n}"].tolist() == [4.0 ** n]

    def test_empty_windows_flagged(self):
        # gap between trades leaves interior windows empty
        series = validate_series([(0.0, 1.0, 1.0), (10.0, 2.0, 1.0)])
        _, counts, table = _rolling(series, 1.0, 1.0, [1])
        assert (counts == 0).any()
        # the columns hold a value for each non-empty window only
        assert [col.shape for col in table.values()] == [(np.count_nonzero(counts),)] * 3

    def test_matches_the_per_window_path(self):
        series = simulate_trades(SimConfig(n_trades=400, seed=3))
        degrees = [1, 2, 3, 8]
        centers, counts, table = _rolling(series, 30.0, 7.0, degrees)
        assert list(table) == [f"{name}{n}" for n in degrees for name in "CVp"]
        rows = zip(*(col.tolist() for col in table.values()))
        for center, count in zip(centers.tolist(), counts.tolist()):
            entries = collect_price_moments(select_window(series, WindowSpec(center, 30.0)), degrees)
            row = next(rows) if count else ()
            assert entries == {n: row[3 * i:3 * i + 3] for i, n in enumerate(degrees) if count}
        assert next(rows, None) is None

    def test_no_centers_for_an_empty_series(self):
        assert window_centers(validate_series([]), 1.0, 1.0).shape == (0,)

    @pytest.mark.parametrize("t1, count", [(4.3, 44), (1.7, 17)], ids=["up", "down"])
    def test_boundary_step_fuzz(self, t1, count):
        # 4.3 / 0.1 is 42.99999999999999, but 43 * 0.1 <= 4.3: one more
        # center; 1.7 / 0.1 is 17.0, but 17 * 0.1 > 1.7: one fewer
        series = validate_series([(0.0, 1.0, 1.0), (t1, 1.0, 1.0)])
        assert len(window_centers(series, 1.0, 0.1)) == count

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

    @pytest.mark.parametrize("width, stride", [
        (math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0), (1.0, math.nan),
    ])
    def test_non_finite_width_or_stride_rejected(self, width, stride):
        # an infinite width or stride would put a center of nan or inf in a table
        series = validate_series([(0.0, 1.0, 1.0), (1.0, 2.0, 1.0)])
        with pytest.raises(ValueError, match="must be positive and finite"):
            window_centers(series, width, stride)

    def test_overflowing_center_rejected(self):
        # width and stride are finite, but the first center, or only the
        # last of six, is not
        series = validate_series([(1.7e308, 1.0, 1.0), (1.75e308, 1.0, 1.0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for width, stride in [(1e308, 1e307), (1.6e307, 1e306)]:
                with pytest.raises(NonFiniteError, match="^window center inf overflows"):
                    window_centers(series, width, stride)

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
        centers, counts, table = _rolling(series, 5.0, 2.0, [1, 2])
        assert len(centers) > 10
        rows = zip(table["p1"].tolist(), table["p2"].tolist())
        for center, count in zip(centers.tolist(), counts.tolist()):
            members = naive_ref.window_members(trades, center, 5.0)
            assert count == len(members)
            if members:
                p1, p2 = next(rows)
                assert p1 == pytest.approx(naive_ref.price_moment(members, 1), rel=1e-12)
                assert p2 == pytest.approx(naive_ref.price_moment(members, 2), rel=1e-12)


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

    @pytest.mark.parametrize("fn", [
        lambda v: price_moment(v, 2), lambda v: collect_price_moments(v, [1, 2]),
        price_volatility_direct, price_volatility_report,
    ], ids=["price_moment", "collect_price_moments", "price_volatility_direct",
            "price_volatility_report"])
    def test_volume_power_sum_underflows(self, fn):
        # sum(V^2) of two volumes of 1e-200 underflows to 0
        view = _view([(0.0, 1.0, 1e-200), (1.0, 1.0, 1e-200)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match=r"p\(2\) over .* underflows to 0"):
                fn(view)

    def test_message_names_the_window_by_its_times(self):
        view = _view([(0.0, 1.0, 1.0), (1.0, 1.0, 1e-200), (2.0, 1.0, 1e-200)], 1.5, 1.0)
        with pytest.raises(NonFiniteError) as info:
            price_moment(view, 2)
        assert str(info.value) == ("p(2) over TradeSeries(n=2, t=1.0..2.0) divides by a sum "
                                   "that underflows to 0")

    def test_series_from_the_report_reproduction(self):
        series = validate_series([(0.0, 1.0, 1e-200), (1.0, 1.0, 1e-200)])
        with pytest.raises(NonFiniteError, match="underflows to 0"):
            price_moment(series, 2)
        assert vwap(series) == 1e200

    @pytest.mark.parametrize("fn", [
        lambda r: returns_moment(r, 2), returns_volatility_rform, returns_volatility_report,
    ], ids=["returns_moment", "returns_volatility_rform", "returns_volatility_report"])
    def test_volume_ratio_power_sum_underflows(self, fn):
        ratio = np.full(3, 1e-200)
        records = ReturnsSet(1, np.arange(1, 4), np.arange(3.0), np.ones(3), ratio, ratio,
                             np.zeros(3), np.zeros(3))
        with pytest.raises(NonFiniteError, match="underflows to 0"):
            fn(records)

    @pytest.mark.parametrize("fn", [dispersion_stats, price_volatility_report],
                             ids=["dispersion_stats", "price_volatility_report"])
    def test_dispersion_term_overflows(self, fn):
        # every sum is finite, but phi_a2 = a2 + a1^2 = 2 * 1.69e308 is not
        view = _view([(0.0, 1.3e154, 1.0)])
        with pytest.raises(NonFiniteError, match="phi_a2 over .* overflows the double range"):
            fn(view)

    def test_returns_dispersion_term_overflows(self):
        records = ReturnsSet(1, np.array([1]), np.array([1.0]), np.ones(1),
                             np.array([1.3e154]), np.ones(1), np.zeros(1), np.zeros(1))
        for fn in (returns_dispersion_stats, returns_volatility_report):
            with pytest.raises(NonFiniteError, match="phi_a2 over"):
                fn(records)

    # Every sum is finite, but p(2) = 1000 / 1e-322 and p(1)^2 overflow, and
    # b1^2 = (1e-164)^2 underflows to 0, a denominator of both closed forms.
    _TINY_VOLUMES = [(0.0, 1.0, 1e-161)] + [(float(t), 1.0, 5e-324) for t in range(1, 1000)]
    # Every sum is finite, but p(2) = 2e300 / 2e-20 is not.
    _HUGE_PRICES = [(0.0, 1e150, 1e-10), (0.5, 1e150, 1e-10)]

    @pytest.mark.parametrize("rows, fn, name", [
        (_TINY_VOLUMES, price_volatility_direct, "sigma2_direct"),
        (_TINY_VOLUMES, price_volatility_report, "sigma2_direct"),
        (_TINY_VOLUMES, lambda v: price_volatility_closed(dispersion_stats(v)), "sigma2_closed"),
        (_HUGE_PRICES, lambda v: price_moment(v, 2), r"p\(2\)"),
        (_HUGE_PRICES, lambda v: collect_price_moments(v, [1, 2]), r"p\(2\)"),
    ], ids=["price_volatility_direct", "price_volatility_report", "price_volatility_closed",
            "huge_prices-price_moment", "huge_prices-collect_price_moments"])
    def test_volatility_overflows_with_finite_sums(self, rows, fn, name):
        series = validate_series(rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match=f"^{name} over .* overflows the double range"):
                fn(series)

    # the volume ratios of _TINY_VOLUMES' shape; returns of 1e300 make
    # r11 = sum(r qv) / sum(qv) = 1e264, so r11^2 and r22 overflow
    _TINY_RATIOS = ReturnsSet(1, np.arange(1, 1001), np.arange(1000.0), np.ones(1000),
                              np.ones(1000), np.array([1e-161] + [1e-200] * 999),
                              np.array([0.0] + [1e300] * 999), np.zeros(1000))
    # a price ratio of 1e155 at a volume ratio of 1e-100: every sum is
    # finite, but q(2) = (1e55)^2 / (1e-100)^2 is not
    _HUGE_RATIOS = ReturnsSet(1, np.arange(1, 3), np.arange(2.0), np.full(2, 1e155),
                              np.full(2, 1e55), np.full(2, 1e-100), np.full(2, 1e155),
                              np.full(2, math.log(1e155)))

    @pytest.mark.parametrize("records, fn, name", [
        (_TINY_RATIOS, returns_volatility_direct, "sigma2_direct"),
        (_TINY_RATIOS, returns_volatility_rform, "sigma2_rform"),
        (_TINY_RATIOS, returns_volatility_report, "sigma2_direct"),
        (_TINY_RATIOS, lambda r: returns_volatility_closed(returns_dispersion_stats(r)),
         "sigma2_closed"),
        (_HUGE_RATIOS, lambda r: returns_moment(r, 2), r"p\(2\)"),
    ], ids=["returns_volatility_direct", "returns_volatility_rform",
            "returns_volatility_report", "returns_volatility_closed", "huge_ratios-returns_moment"])
    def test_returns_volatility_overflows_with_finite_sums(self, records, fn, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match=f"^{name} over .* overflows the double range"):
                fn(records)

    def test_finite_near_the_limit(self):
        view = _view(_FSUM[:1])
        assert price_moment(view, 1) == simple_average_price(view) == 1e308
        assert price_moment(_view([(0.0, 1e150, 1.0), (0.5, 1e150, 1.0)]), 2) == pytest.approx(1e300)
