"""Price volatility: dispersion stats, direct vs closed identity."""

import math
import random
from dataclasses import astuple

import pytest
from hypothesis import given, settings, strategies as st

import naive_ref
from tickvol import (
    DegenerateDenominatorError,
    DispersionStats,
    EmptyWindowError,
    NonFiniteError,
    SimConfig,
    WindowSpec,
    dispersion_stats,
    price_moment,
    price_volatility_closed,
    price_volatility_direct,
    price_volatility_report,
    select_window,
    simulate_trades,
    validate_series,
    window_centers,
)
from tickvol import cli
from tickvol.moments import moment_table
from tickvol.volatility import clamp_dispersion, volatility_forms


def _view(rows):
    series = validate_series(rows)
    t0, t1 = series.span()
    return select_window(series, WindowSpec((t0 + t1) / 2, (t1 - t0) + 1.0))


def _identity_tol(direct):
    return max(1e-10, 1e-10 * abs(direct))


class TestDispersionStats:
    def test_two_trade_values(self, two_trade_view):
        s = dispersion_stats(two_trade_view)
        assert s.n == 2
        assert s.a_mean == 8.0
        assert s.a_sq_mean == 68.0
        assert s.sigma_a2 == 4.0
        assert s.phi_a2 == 132.0
        assert s.b_mean == 2.5
        assert s.b_sq_mean == 6.5
        assert s.sigma_b2 == 0.25
        assert s.phi_b2 == 12.75

    def test_identical_trades_zero_dispersion(self):
        view = _view([(float(i), 5.0, 2.0) for i in range(7)])
        s = dispersion_stats(view)
        assert s.sigma_a2 == 0.0
        assert s.sigma_b2 == 0.0

    def test_single_trade_degeneracy(self):
        view = _view([(0.0, 3.0, 2.0)])
        s = dispersion_stats(view)
        assert s.sigma_a2 == 0.0 and s.sigma_b2 == 0.0
        assert s.phi_a2 == 2 * 9.0
        assert s.phi_b2 == 2 * 4.0

    def test_empty_window_raises(self, two_trade_series):
        empty = select_window(two_trade_series, WindowSpec(50.0, 1.0))
        with pytest.raises(EmptyWindowError):
            dispersion_stats(empty)

    def test_companion_functions_dominate_dispersions(self):
        rng = random.Random(7)
        for _ in range(20):
            trades = naive_ref.lognormal_trades(rng, rng.randint(1, 50))
            s = dispersion_stats(_view(trades))
            assert s.sigma_a2 >= 0.0 and s.sigma_b2 >= 0.0
            assert s.phi_a2 >= s.sigma_a2
            assert s.phi_b2 > s.sigma_b2  # strict: volume mean is positive


class TestClampDispersion:
    """Negative rounding residue is zeroed within 1e-12 of the mean square,
    at every scale: a bound fixed below unit scale would hide real negatives."""

    def test_a_negative_beyond_the_bound_stays_below_unit_scale(self):
        # -1e-4 of its mean square: left alone, as the same ratio is at unit scale
        assert clamp_dispersion(-1e-20, 1e-16) == -1e-20
        assert clamp_dispersion(-1e-4, 1.0) == -1e-4

    def test_residue_within_the_bound_is_zeroed(self):
        assert clamp_dispersion(-1e-30, 1e-16) == 0.0
        assert clamp_dispersion(-1e-10, 1e4) == 0.0
        assert clamp_dispersion(-1e-7, 1e4) == -1e-7

    @given(value=st.floats(-1.0, 1.0), mean_sq=st.floats(1e-3, 1e3), k=st.integers(-200, 200))
    @settings(max_examples=300, deadline=None)
    def test_scaling_by_a_power_of_four_commutes(self, value, mean_sq, k):
        # 4^k scales value and mean square exactly, so the clamp must not see the scale
        scale = 4.0 ** k
        clamped = clamp_dispersion(value, mean_sq)
        assert clamp_dispersion(value * scale, mean_sq * scale) == clamped * scale


class TestDirectForm:
    def test_two_trade_value(self, two_trade_view):
        expected = 136 / 13 - 3.2 ** 2
        assert price_volatility_direct(two_trade_view) == pytest.approx(expected, abs=1e-14)
        assert expected == pytest.approx(0.2215384615, abs=1e-10)

    def test_constant_price_is_zero(self):
        view = _view([(0.0, 5.0, 1.0), (1.0, 10.0, 2.0), (2.0, 2.5, 0.5)])
        assert abs(price_volatility_direct(view)) < 1e-12

    def test_negative_value_is_legal_and_flagged(self):
        # prices {2, 1}, volumes {1, 10}: heavier volume weighting on the
        # squared moment drives the difference below zero
        view = _view([(0.0, 2.0, 1.0), (1.0, 10.0, 10.0)])
        value = price_volatility_direct(view)
        assert value == pytest.approx(104 / 101 - (12 / 11) ** 2, rel=1e-12)
        assert value < 0
        rep = price_volatility_report(view)
        assert rep.negative_flag
        assert rep.sigma_p2_direct == value


class TestClosedForm:
    def test_two_trade_value(self, two_trade_view):
        s = dispersion_stats(two_trade_view)
        closed = price_volatility_closed(s)
        # 2*(12.75*4 - 132*0.25) / (12.75^2 - 0.25^2) = 36/162.5
        assert closed == pytest.approx(36 / 162.5, rel=1e-13)
        assert closed == pytest.approx(price_volatility_direct(two_trade_view), abs=1e-12)

    def test_identical_trades_zero(self):
        view = _view([(float(i), 5.0, 2.0) for i in range(4)])
        assert price_volatility_closed(dispersion_stats(view)) == 0.0

    def test_single_trade_zero(self):
        view = _view([(0.0, 7.0, 3.0)])
        assert price_volatility_closed(dispersion_stats(view)) == 0.0

    def test_degenerate_denominator_rejected(self):
        corrupt = DispersionStats(
            n=2, a_mean=1.0, a_sq_mean=1.0, b_mean=0.0, b_sq_mean=1.0,
            sigma_a2=0.0, sigma_b2=1.0, phi_a2=2.0, phi_b2=1.0,
        )
        with pytest.raises(DegenerateDenominatorError):
            price_volatility_closed(corrupt)

    def test_overflowed_terms_are_not_corrupted(self):
        # b1 = inf comes from a volume sum past the double range: legal input
        overflowed = DispersionStats(
            n=2, a_mean=1.0, a_sq_mean=1.0, b_mean=math.inf, b_sq_mean=math.inf,
            sigma_a2=0.0, sigma_b2=math.nan, phi_a2=2.0, phi_b2=math.inf,
        )
        with pytest.raises(NonFiniteError, match="^sigma2_closed over .* overflows"):
            price_volatility_closed(overflowed)


_window_strategy = st.lists(
    st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0)),
    min_size=1, max_size=80,
)


class TestIdentity:
    @given(_window_strategy)
    @settings(max_examples=150)
    def test_direct_equals_closed(self, pairs):
        rows = [(float(i), p * v, v) for i, (p, v) in enumerate(pairs)]
        view = _view(rows)
        direct = price_volatility_direct(view)
        closed = price_volatility_closed(dispersion_stats(view))
        assert abs(direct - closed) <= _identity_tol(direct)

    # sigma_p^2 is a difference of p(2)-scale quantities, so its rounding
    # floor is ulp(p(2)); the covariance tolerances carry that scale
    @given(_window_strategy, st.sampled_from([1e-3, 0.5, 1e3]))
    def test_currency_covariance(self, pairs, lam):
        rows = [(float(i), p * v, v) for i, (p, v) in enumerate(pairs)]
        scaled = [(t, lam * c, v) for t, c, v in rows]
        view = _view(rows)
        base = price_volatility_direct(view)
        p2 = price_moment(view, 2)
        tol = 1e-10 * max(1.0, abs(lam ** 2 * base), lam ** 2 * p2)
        for value in (price_volatility_direct(_view(scaled)),
                      price_volatility_closed(dispersion_stats(_view(scaled)))):
            assert value - lam ** 2 * base == pytest.approx(0.0, abs=tol)

    @given(_window_strategy, st.sampled_from([1e-3, 0.5, 1e3]))
    def test_volume_scale_invariance(self, pairs, lam):
        rows = [(float(i), p * v, v) for i, (p, v) in enumerate(pairs)]
        scaled = [(t, lam * c, lam * v) for t, c, v in rows]
        view = _view(rows)
        base = price_volatility_direct(view)
        tol = 1e-10 * max(1.0, abs(base), price_moment(view, 2))
        value = price_volatility_direct(_view(scaled))
        assert value - base == pytest.approx(0.0, abs=tol)


class TestOracleEquivalence:
    def test_both_forms_match_naive(self):
        rng = random.Random(4321)
        for _ in range(60):
            trades = naive_ref.lognormal_trades(rng, rng.randint(1, 100))
            view = _view(trades)
            direct = price_volatility_direct(view)
            closed = price_volatility_closed(dispersion_stats(view))
            ref_direct = naive_ref.price_vol_direct(trades)
            ref_closed = naive_ref.price_vol_closed(trades)
            scale = max(1.0, abs(ref_direct))
            assert abs(direct - ref_direct) / scale < 1e-10
            assert abs(closed - ref_closed) / scale < 1e-10


def test_report_consistency(two_trade_view):
    rep = price_volatility_report(two_trade_view)
    assert rep.n_trades == 2
    assert not rep.negative_flag
    assert abs(rep.sigma_p2_direct - rep.sigma_p2_closed) <= _identity_tol(rep.sigma_p2_direct)
    assert rep.stats.n == 2


def test_report_of_a_whole_stream_equals_a_covering_window():
    series = simulate_trades(SimConfig(n_trades=300, seed=14))
    t0, t1 = series.span()
    covering = select_window(series, WindowSpec((t0 + t1) / 2, t1 - t0 + 2.0))
    assert len(covering) == len(series)
    assert price_volatility_report(series) == price_volatility_report(covering)


def test_all_windows_path_matches_per_window_reports():
    """The CLI's kernel path and the per-window API share one algebra."""
    series = simulate_trades(SimConfig(n_trades=600, seed=12))
    width = 20.0
    centers = window_centers(series, width, 6.0)
    counts, sums = moment_table(series, centers, width, [1, 2])
    direct, closed, terms = volatility_forms(counts[counts > 0],
                                             *(sums[k] for k in ["C1", "C2", "V1", "V2"]))
    reports = [price_volatility_report(select_window(series, WindowSpec(c, width)))
               for c, n in zip(centers.tolist(), counts.tolist()) if n]
    assert direct.tolist() == [r.sigma_p2_direct for r in reports]
    assert closed.tolist() == [r.sigma_p2_closed for r in reports]
    assert [list(t) for t in zip(*(x.tolist() for x in terms))] == [
        list(astuple(r.stats))[1:] for r in reports]
    # the columns price-vol prints, bit for bit
    table_counts, table, p2 = cli._volatility_table(series, centers, width)
    assert table_counts.tolist() == counts.tolist()
    assert p2.tolist() == [price_moment(select_window(series, WindowSpec(c, width)), 2)
                           for c, n in zip(centers.tolist(), counts.tolist()) if n]
    assert list(table) == ["sigma2_direct", "sigma2_closed", "sigma_c2", "sigma_v2", "phi_c2",
                           "phi_v2", "negative_flag"]
    assert table["sigma2_direct"].tolist() == [r.sigma_p2_direct for r in reports]
    assert table["sigma2_closed"].tolist() == [r.sigma_p2_closed for r in reports]
    for column, field in [("sigma_c2", "sigma_a2"), ("sigma_v2", "sigma_b2"),
                          ("phi_c2", "phi_a2"), ("phi_v2", "phi_b2")]:
        assert table[column].tolist() == [getattr(r.stats, field) for r in reports]
    assert table["negative_flag"].tolist() == [r.negative_flag for r in reports]
