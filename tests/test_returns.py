"""Lag-m returns records, moments, and the three-way volatility identity."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import naive_ref
from tickvol import (
    EmptyWindowError,
    LagTooLargeError,
    PairSeries,
    SimConfig,
    TradeSeries,
    WindowSpec,
    aggregate_degree,
    build_returns,
    dispersion_stats,
    mean_return,
    price_moment,
    price_volatility_closed,
    price_volatility_direct,
    records_in_window,
    returns_dispersion_stats,
    returns_moment,
    returns_volatility_closed,
    returns_volatility_direct,
    returns_volatility_report,
    returns_volatility_rform,
    simulate_trades,
    validate_series,
)
from tickvol.returns import returns_summands, rform_from_sums
from tickvol.sums import windowed_sums
from tickvol.volatility import volatility_forms


def _identity_tol(direct):
    return max(1e-10, 1e-10 * abs(direct))


class TestBuildReturns:
    def test_three_trade_fixture(self, three_trade_series):
        recs = build_returns(three_trade_series, 1)
        assert len(recs) == 2
        assert recs.indices.tolist() == [1, 2]
        assert recs.timestamps.tolist() == [1.0, 2.0]
        np.testing.assert_allclose(recs.price_ratio, [1.5, 1.0], rtol=1e-15)
        np.testing.assert_allclose(recs.simple_return, [0.5, 0.0], rtol=1e-15, atol=1e-15)
        np.testing.assert_allclose(recs.cost_ratio, [1.5, 1.5], rtol=1e-15)
        np.testing.assert_allclose(recs.volume_ratio, [1.0, 1.5], rtol=1e-15)

    def test_identical_trades_give_unit_ratios(self):
        series = validate_series([(float(i), 4.0, 2.0) for i in range(5)])
        recs = build_returns(series, 2)
        for column, value in ((recs.price_ratio, 1.0), (recs.cost_ratio, 1.0),
                              (recs.volume_ratio, 1.0), (recs.simple_return, 0.0),
                              (recs.log_return, 0.0)):
            assert column.tolist() == [value] * 3

    def test_lag_too_large(self):
        series = validate_series([(0.0, 1.0, 1.0), (1.0, 2.0, 1.0)])
        with pytest.raises(LagTooLargeError):
            build_returns(series, 2)

    def test_lag_must_be_positive_integer(self, three_trade_series):
        with pytest.raises(ValueError):
            build_returns(three_trade_series, 0)
        with pytest.raises(ValueError):
            build_returns(three_trade_series, 1.5)

    def test_pairing_is_by_global_index(self):
        # lag 2 pairs i with i-2 regardless of time gaps
        series = validate_series(
            [(0.0, 2.0, 1.0), (10.0, 3.0, 1.0), (10.5, 8.0, 1.0), (30.0, 9.0, 1.0)]
        )
        recs = build_returns(series, 2)
        assert recs.indices.tolist() == [2, 3]
        assert recs.cost_ratio.tolist() == pytest.approx([8.0 / 2.0, 9.0 / 3.0])


class TestPerRecordRelations:
    @given(st.lists(st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0)),
                    min_size=2, max_size=50),
           st.integers(1, 3))
    def test_cost_ratio_factorizes(self, pairs, m):
        rows = [(float(i), p * v, v) for i, (p, v) in enumerate(pairs)]
        series = validate_series(rows)
        if m >= len(series):
            return
        recs = build_returns(series, m)
        np.testing.assert_allclose(recs.cost_ratio, recs.price_ratio * recs.volume_ratio,
                                   rtol=1e-12)
        for column in (recs.price_ratio, recs.volume_ratio, recs.cost_ratio):
            assert (column > 0).all()

    @given(st.lists(st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0)),
                    min_size=2, max_size=50))
    def test_exp_log_return_matches_simple_return(self, pairs):
        rows = [(float(i), p * v, v) for i, (p, v) in enumerate(pairs)]
        series = validate_series(rows)
        recs = build_returns(series, 1)
        np.testing.assert_allclose(np.exp(recs.log_return), 1.0 + recs.simple_return,
                                   rtol=1e-12)

    def test_log_return_values(self, three_trade_series):
        recs = build_returns(three_trade_series, 1)
        assert recs.log_return[0] == pytest.approx(math.log(1.5), rel=1e-15)
        assert recs.log_return[1] == 0.0
        series = validate_series([(0.0, 1.0, 1.0), (1.0, math.e, 1.0)])
        assert build_returns(series, 1).log_return[0] == pytest.approx(1.0, rel=1e-15)


class TestAggregatesAndMoments:
    def test_fixture_sums(self, three_trade_series):
        recs = build_returns(three_trade_series, 1)
        assert aggregate_degree(recs, 1) == (3.0, 2.5)
        assert aggregate_degree(recs, 2) == (4.5, 3.25)

    def test_single_record(self):
        series = validate_series([(0.0, 4.0, 2.0), (1.0, 6.0, 4.0)])
        recs = build_returns(series, 1)
        qc, qv = aggregate_degree(recs, 3)
        assert qc == 1.5 ** 3
        assert qv == 2.0 ** 3

    def test_moment_values(self, three_trade_series):
        recs = build_returns(three_trade_series, 1)
        assert returns_moment(recs, 1) == pytest.approx(1.2, rel=1e-15)
        assert returns_moment(recs, 2) == pytest.approx(4.5 / 3.25, rel=1e-15)
        assert mean_return(recs) == pytest.approx(0.2, rel=1e-12)

    def test_identical_trades_unit_moments(self):
        series = validate_series([(float(i), 4.0, 2.0) for i in range(6)])
        recs = build_returns(series, 1)
        for n in range(1, 9):
            assert returns_moment(recs, n) == 1.0

    def test_empty_records_raise(self, three_trade_series):
        recs = build_returns(three_trade_series, 1)
        empty = records_in_window(recs, WindowSpec(100.0, 1.0))
        with pytest.raises(EmptyWindowError):
            aggregate_degree(empty, 1)

    def test_mean_return_matches_r11(self, three_trade_series):
        recs = build_returns(three_trade_series, 1)
        r11 = returns_volatility_report(recs).r11
        assert abs(mean_return(recs) - r11) <= 1e-12 * max(1.0, abs(r11))


class TestVolatilityForms:
    def test_fixture_three_way(self, three_trade_series):
        recs = build_returns(three_trade_series, 1)
        direct = returns_volatility_direct(recs)
        rform = returns_volatility_rform(recs)
        closed = returns_volatility_closed(returns_dispersion_stats(recs))
        expected = 4.5 / 3.25 - 1.44
        for value in (direct, rform, closed):
            assert value == pytest.approx(expected, abs=1e-12)
        assert direct < 0  # legal negative value

    def test_fixture_weighted_return_means(self, three_trade_series):
        rep = returns_volatility_report(build_returns(three_trade_series, 1))
        r11, r21, r22 = rep.r11, rep.r21, rep.r22
        assert r11 == pytest.approx(0.2, rel=1e-12)
        assert r21 == pytest.approx(0.5 / 3.25, rel=1e-12)
        assert r22 == pytest.approx(0.25 / 3.25, rel=1e-12)

    def test_fixture_dispersion_stats(self, three_trade_series):
        recs = build_returns(three_trade_series, 1)
        s = returns_dispersion_stats(recs)
        assert s.a_mean == 1.5
        assert s.a_sq_mean == 2.25
        assert s.sigma_a2 == 0.0
        assert s.phi_a2 == 4.5
        assert s.b_mean == 1.25
        assert s.b_sq_mean == 1.625
        assert s.sigma_b2 == 0.0625
        assert s.phi_b2 == 3.1875
        assert returns_volatility_report(recs).stats == s

    def test_all_unit_ratios_zero(self):
        series = validate_series([(float(i), 4.0, 2.0) for i in range(5)])
        recs = build_returns(series, 1)
        assert returns_volatility_direct(recs) == 0.0
        assert returns_volatility_rform(recs) == 0.0
        assert returns_volatility_closed(returns_dispersion_stats(recs)) == 0.0

    def test_single_record_zero(self):
        series = validate_series([(0.0, 4.0, 2.0), (1.0, 6.0, 4.0)])
        recs = build_returns(series, 1)
        assert returns_volatility_direct(recs) == 0.0
        assert returns_volatility_rform(recs) == 0.0
        assert returns_volatility_closed(returns_dispersion_stats(recs)) == 0.0

    def test_report_fields(self, three_trade_series):
        recs = build_returns(three_trade_series, 1)
        rep = returns_volatility_report(recs)
        assert rep.lag == 1 and rep.n_records == 2
        assert rep.negative_flag
        assert rep.sigma_q2_direct == returns_volatility_direct(recs)
        assert rep.r11 == pytest.approx(0.2, rel=1e-12)


class TestThreeWayIdentity:
    @given(st.lists(st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0)),
                    min_size=2, max_size=60),
           st.integers(1, 4))
    @settings(max_examples=150)
    def test_identity_random_series(self, pairs, m):
        rows = [(float(i), p * v, v) for i, (p, v) in enumerate(pairs)]
        series = validate_series(rows)
        if m >= len(series):
            return
        recs = build_returns(series, m)
        direct = returns_volatility_direct(recs)
        rform = returns_volatility_rform(recs)
        closed = returns_volatility_closed(returns_dispersion_stats(recs))
        tol = _identity_tol(direct)
        assert abs(direct - rform) <= tol
        assert abs(direct - closed) <= tol
        assert abs(rform - closed) <= tol


class TestWindowing:
    def test_membership_by_later_timestamp(self, three_trade_series):
        recs = build_returns(three_trade_series, 1)
        # window [1.5, 2.5] contains only the record at t=2; its partner
        # at t=1 lies outside the window and that is fine
        inside = records_in_window(recs, WindowSpec(2.0, 1.0))
        assert inside.indices.tolist() == [2]

    def test_window_ends_inclusive(self, three_trade_series):
        recs = build_returns(three_trade_series, 1)
        inside = records_in_window(recs, WindowSpec(1.5, 1.0))
        assert inside.indices.tolist() == [1, 2]

    def test_time_shift_invariance(self):
        rng = random.Random(5)
        trades = naive_ref.lognormal_trades(rng, 60, dt=1.0)
        shifted = [(t + 1000.0, c, v) for t, c, v in trades]
        for rows, offset in ((trades, 0.0), (shifted, 1000.0)):
            series = validate_series(rows)
            recs = build_returns(series, 2)
            win = records_in_window(recs, WindowSpec(30.0 + offset, 20.0))
            rep = returns_volatility_report(win)
            if offset == 0.0:
                base = rep
            else:
                assert rep.sigma_q2_direct == base.sigma_q2_direct
                assert rep.sigma_q2_rform == base.sigma_q2_rform
                assert rep.sigma_q2_closed == base.sigma_q2_closed
                assert rep.n_records == base.n_records


class TestOracleEquivalence:
    def test_against_naive(self):
        rng = random.Random(2024)
        for _ in range(40):
            n = rng.randint(3, 100)
            trades = naive_ref.lognormal_trades(rng, n)
            m = rng.choice([1, 2, min(5, n - 1)])
            series = validate_series(trades)
            recs = build_returns(series, m)
            ref = naive_ref.returns_records(trades, m)
            assert len(recs) == len(ref)
            for deg in (1, 2, 3):
                assert returns_moment(recs, deg) == pytest.approx(
                    naive_ref.returns_moment(ref, deg), rel=1e-10)
            scale = max(1.0, abs(naive_ref.returns_vol_direct(ref)))
            assert abs(returns_volatility_direct(recs)
                       - naive_ref.returns_vol_direct(ref)) / scale < 1e-10
            assert abs(returns_volatility_rform(recs)
                       - naive_ref.returns_vol_rform(ref)) / scale < 1e-10
            assert abs(returns_volatility_closed(returns_dispersion_stats(recs))
                       - naive_ref.returns_vol_closed(ref)) / scale < 1e-10


def test_returns_moments_store_division(three_trade_series):
    recs = build_returns(three_trade_series, 1)
    assert aggregate_degree(recs, 1) == (3.0, 2.5)
    for n in (1, 2):
        q_c, q_v = aggregate_degree(recs, n)
        assert returns_moment(recs, n) == q_c / q_v  # stored as the division result
    r11 = returns_volatility_report(recs).r11
    assert abs(r11 - (returns_moment(recs, 1) - 1.0)) <= 1e-12


def test_trades_and_returns_are_one_stream_type(three_trade_series):
    recs = build_returns(three_trade_series, 1)
    assert isinstance(three_trade_series, TradeSeries)
    assert isinstance(three_trade_series, PairSeries) and isinstance(recs, PairSeries)
    assert recs.a is recs.cost_ratio and recs.b is recs.volume_ratio
    assert three_trade_series.a is three_trade_series.costs


def test_closed_form_is_shared_with_prices():
    """A ReturnsSet is a PairSeries, so the per-window functions are one copy."""
    assert returns_volatility_closed is price_volatility_closed
    assert returns_moment is price_moment
    assert returns_volatility_direct is price_volatility_direct
    assert returns_dispersion_stats is dispersion_stats


def test_all_windows_path_matches_per_window_reports():
    """The CLI's kernel path and the per-window API share one algebra."""
    records = build_returns(simulate_trades(SimConfig(n_trades=600, seed=13)), 3)
    width = 25.0
    centers = records.timestamps[0] + np.arange(0.0, 600.0, 8.0)
    summands = returns_summands(records)
    counts, sums = windowed_sums(records.timestamps, centers, width, summands)
    direct, closed, _ = volatility_forms(counts[counts > 0], *sums.T[:4])
    r11, _, _, rform = rform_from_sums(*sums.T[2:])
    reports = [returns_volatility_report(records_in_window(records, WindowSpec(c, width)))
               for c, n in zip(centers.tolist(), counts.tolist()) if n]
    assert direct.tolist() == [r.sigma_q2_direct for r in reports]
    assert rform.tolist() == [r.sigma_q2_rform for r in reports]
    assert closed.tolist() == [r.sigma_q2_closed for r in reports]
    assert r11.tolist() == [r.r11 for r in reports]
