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
    SimConfig,
    WindowSpec,
    build_returns,
    collect_returns_moments,
    log_return,
    mean_return,
    records_in_window,
    returns_aggregate,
    returns_dispersion_stats,
    returns_moment,
    returns_volatility_closed,
    returns_volatility_direct,
    returns_volatility_report,
    returns_volatility_rform,
    rform_terms,
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
        r1, r2 = recs
        assert (r1.index, r1.timestamp) == (1, 1.0)
        assert r1.price_ratio == pytest.approx(1.5, rel=1e-15)
        assert r1.simple_return == pytest.approx(0.5, rel=1e-15)
        assert r1.cost_ratio == pytest.approx(1.5, rel=1e-15)
        assert r1.volume_ratio == pytest.approx(1.0, rel=1e-15)
        assert (r2.index, r2.timestamp) == (2, 2.0)
        assert r2.price_ratio == pytest.approx(1.0, rel=1e-15)
        assert r2.simple_return == pytest.approx(0.0, abs=1e-15)
        assert r2.cost_ratio == pytest.approx(1.5, rel=1e-15)
        assert r2.volume_ratio == pytest.approx(1.5, rel=1e-15)

    def test_identical_trades_give_unit_ratios(self):
        series = validate_series([(float(i), 4.0, 2.0) for i in range(5)])
        for rec in build_returns(series, 2):
            assert rec.price_ratio == 1.0
            assert rec.cost_ratio == 1.0
            assert rec.volume_ratio == 1.0
            assert rec.simple_return == 0.0
            assert rec.log_return == 0.0

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
        assert [r.index for r in recs] == [2, 3]
        assert recs[0].cost_ratio == pytest.approx(8.0 / 2.0)
        assert recs[1].cost_ratio == pytest.approx(9.0 / 3.0)


class TestPerRecordRelations:
    @given(st.lists(st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0)),
                    min_size=2, max_size=50),
           st.integers(1, 3))
    def test_cost_ratio_factorizes(self, pairs, m):
        rows = [(float(i), p * v, v) for i, (p, v) in enumerate(pairs)]
        series = validate_series(rows)
        if m >= len(series):
            return
        for rec in build_returns(series, m):
            assert rec.cost_ratio == pytest.approx(
                rec.price_ratio * rec.volume_ratio, rel=1e-12)
            assert rec.price_ratio > 0 and rec.volume_ratio > 0 and rec.cost_ratio > 0

    @given(st.lists(st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0)),
                    min_size=2, max_size=50))
    def test_exp_log_return_matches_simple_return(self, pairs):
        rows = [(float(i), p * v, v) for i, (p, v) in enumerate(pairs)]
        series = validate_series(rows)
        for rec in build_returns(series, 1):
            assert math.exp(rec.log_return) == pytest.approx(
                1.0 + rec.simple_return, rel=1e-12)

    def test_log_return_values(self, three_trade_series):
        recs = build_returns(three_trade_series, 1)
        assert log_return(recs[0]) == pytest.approx(math.log(1.5), rel=1e-15)
        assert log_return(recs[1]) == 0.0
        series = validate_series([(0.0, 1.0, 1.0), (1.0, math.e, 1.0)])
        rec = build_returns(series, 1)[0]
        assert log_return(rec) == pytest.approx(1.0, rel=1e-15)


class TestAggregatesAndMoments:
    def test_fixture_sums(self, three_trade_series):
        recs = build_returns(three_trade_series, 1)
        assert returns_aggregate(recs, 1) == (3.0, 2.5)
        assert returns_aggregate(recs, 2) == (4.5, 3.25)

    def test_single_record(self):
        series = validate_series([(0.0, 4.0, 2.0), (1.0, 6.0, 4.0)])
        recs = build_returns(series, 1)
        qc, qv = returns_aggregate(recs, 3)
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
            returns_aggregate(empty, 1)

    def test_mean_return_matches_r11(self, three_trade_series):
        recs = build_returns(three_trade_series, 1)
        r11, _, _ = rform_terms(recs)
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

    def test_fixture_rform_terms(self, three_trade_series):
        recs = build_returns(three_trade_series, 1)
        r11, r21, r22 = rform_terms(recs)
        assert r11 == pytest.approx(0.2, rel=1e-12)
        assert r21 == pytest.approx(0.5 / 3.25, rel=1e-12)
        assert r22 == pytest.approx(0.25 / 3.25, rel=1e-12)

    def test_fixture_dispersion_stats(self, three_trade_series):
        recs = build_returns(three_trade_series, 1)
        s = returns_dispersion_stats(recs)
        assert s.cost_ratio_mean == 1.5
        assert s.cost_ratio_sq_mean == 2.25
        assert s.omega_c2 == 0.0
        assert s.phi_c2 == 4.5
        assert s.volume_ratio_mean == 1.25
        assert s.volume_ratio_sq_mean == 1.625
        assert s.omega_v2 == 0.0625
        assert s.phi_v2 == 3.1875

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
        assert [r.index for r in inside] == [2]

    def test_window_ends_inclusive(self, three_trade_series):
        recs = build_returns(three_trade_series, 1)
        inside = records_in_window(recs, WindowSpec(1.5, 1.0))
        assert [r.index for r in inside] == [1, 2]

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


def test_collect_returns_moments(three_trade_series):
    recs = build_returns(three_trade_series, 1)
    rm = collect_returns_moments(recs, [1, 2])
    assert rm.lag == 1 and rm.n_records == 2
    for n, (qc, qv, q) in rm.entries.items():
        assert q == qc / qv  # stored as the division result
    assert rm.entries[1] == (3.0, 2.5, 1.2)
    assert abs(rm.r11 - (rm.entries[1][2] - 1.0)) <= 1e-12


def test_all_windows_path_matches_per_window_reports():
    """The CLI's kernel path and the per-window API share one algebra."""
    records = build_returns(simulate_trades(SimConfig(n_trades=600, seed=13)), 3)
    width = 25.0
    centers = records.timestamps[0] + np.arange(0.0, 600.0, 8.0)
    summands = returns_summands(records.cost_ratio, records.volume_ratio,
                                records.simple_return)
    counts, sums = windowed_sums(records.timestamps, centers, width, summands)
    direct, closed, _ = volatility_forms(counts[counts > 0], *sums.T[:4])
    r11, _, _, rform = rform_from_sums(*sums.T[2:])
    reports = [returns_volatility_report(records_in_window(records, WindowSpec(c, width)))
               for c, n in zip(centers.tolist(), counts.tolist()) if n]
    assert direct.tolist() == [r.sigma_q2_direct for r in reports]
    assert rform.tolist() == [r.sigma_q2_rform for r in reports]
    assert closed.tolist() == [r.sigma_q2_closed for r in reports]
    assert r11.tolist() == [r.r11 for r in reports]
