"""Multi-time moments and truncated characteristic functionals."""

import random
import warnings

import numpy as np
import pytest

import naive_ref
from tickvol import charfun
from tickvol import (
    DegreeOutOfRangeError,
    EmptyWindowError,
    NonFiniteError,
    PairSeries,
    TruncationOrderOutOfRangeError,
    UnsupportedWindowOverlapError,
    WindowSpec,
    build_returns,
    charfun_derivative_check,
    charfun_truncated,
    moment_provider,
    multi_time_moment,
    price_moment,
    returns_moment,
    select_window,
    validate_series,
)

TWO_TRADES = [(0.0, 10.0, 2.0), (1.0, 6.0, 3.0)]
DISJOINT = [(0.0, 4.0, 2.0), (10.0, 6.0, 2.0), (10.5, 9.0, 3.0)]


def _pairs(rows):
    return PairSeries.from_trades(validate_series(rows))


def _table_of_terms_near_the_limit(*args):
    """A stub moment_table of one window whose p(1) and p(5) make the order
    terms i p(1) y = 1.79e308 i and i p(5) y^5/120 = 1.4e306 i at y = x h =
    10, so that every term is finite and their sum is not. No trade file
    was found that does this: a window's p(n) is at least p(m)^(n/m) over
    a power of its trade count, which keeps high orders from being small
    next to low ones."""
    p = [1.79e307, 1.0, 1.0, 1.0, 1.7e303]
    table = {f"{k}{n}": np.array([1.0 if k == "V" else v]) for n, v in enumerate(p, 1)
             for k in "CVp"}
    return np.array([1]), table


class TestMultiTimeMoment:
    def test_needs_times_and_a_positive_width(self):
        ps = _pairs(TWO_TRADES)
        with pytest.raises(DegreeOutOfRangeError, match="^times tuple must not be empty$"):
            multi_time_moment(ps, (), 2.0)
        for width in (0.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="^width must be positive and finite$"):
                multi_time_moment(ps, (0.5,), width)

    def test_diagonal_matches_single_window(self):
        ps = _pairs(TWO_TRADES)
        mm = multi_time_moment(ps, (0.5, 0.5), 2.0)
        assert mm.a_sum == 136.0
        assert mm.b_sum == 13.0
        assert mm.moment == 136.0 / 13.0
        assert mm.combo_count == 2

    def test_diagonal_consistency_with_price_moments(self):
        rng = random.Random(11)
        trades = naive_ref.lognormal_trades(rng, 25)
        series = validate_series(trades)
        ps = PairSeries.from_trades(series)
        view = select_window(series, WindowSpec(12.0, 30.0))
        for n in range(1, 6):
            mm = multi_time_moment(ps, (12.0,) * n, 30.0)
            assert mm.moment == pytest.approx(price_moment(view, n), rel=1e-12)

    def test_diagonal_consistency_with_returns_moments(self):
        rng = random.Random(12)
        trades = naive_ref.lognormal_trades(rng, 25)
        series = validate_series(trades)
        recs = build_returns(series, 1)
        ps = PairSeries(recs.timestamps, recs.cost_ratio, recs.volume_ratio)
        for n in range(1, 5):
            mm = multi_time_moment(ps, (12.0,) * n, 30.0)
            assert mm.moment == pytest.approx(returns_moment(recs, n), rel=1e-12)

    def test_returns_set_is_used_directly(self):
        """A ReturnsSet is a PairSeries: no copy into a second stream type,
        and the same bits as the copy."""
        rng = random.Random(17)
        trades = (naive_ref.lognormal_trades(rng, 9, t0=0.0)
                  + naive_ref.lognormal_trades(rng, 9, t0=50.0))
        recs = build_returns(validate_series(trades), 2)
        copy = PairSeries(recs.timestamps, recs.cost_ratio, recs.volume_ratio)
        for times in [(4.0,), (4.0, 4.0, 4.0), (4.0, 54.0), (4.0, 54.0, 54.0)]:
            assert multi_time_moment(recs, times, 10.0) == multi_time_moment(copy, times, 10.0)
        grid, x = [4.0, 54.0], [0.7, -0.3]
        assert (charfun_truncated(moment_provider(recs, 10.0), grid, x, 0.5, 4)
                == charfun_truncated(moment_provider(copy, 10.0), grid, x, 0.5, 4))

    def test_disjoint_product_factorization(self):
        ps = _pairs(DISJOINT)
        mm = multi_time_moment(ps, (0.0, 10.25), 2.0)
        assert mm.a_sum == pytest.approx(4.0 * 15.0, rel=1e-15)
        assert mm.b_sum == pytest.approx(2.0 * 5.0, rel=1e-15)
        assert mm.moment == pytest.approx(6.0, rel=1e-15)
        assert mm.combo_count == 2
        # equals the product of the per-window first moments (2 and 3)
        assert mm.moment == pytest.approx(2.0 * 3.0, rel=1e-15)

    def test_disjoint_factorization_random(self):
        rng = random.Random(13)
        trades = (naive_ref.lognormal_trades(rng, 8, t0=0.0)
                  + naive_ref.lognormal_trades(rng, 8, t0=100.0)
                  + naive_ref.lognormal_trades(rng, 8, t0=200.0))
        ps = _pairs(trades)
        mm = multi_time_moment(ps, (3.5, 103.5, 203.5), 10.0)
        product = 1.0
        for center in (3.5, 103.5, 203.5):
            product *= multi_time_moment(ps, (center,), 10.0).moment
        assert mm.moment == pytest.approx(product, rel=1e-12)

    def test_single_trade_diagonal_power(self):
        ps = _pairs([(0.0, 10.0, 4.0)])
        mm = multi_time_moment(ps, (0.0, 0.0, 0.0), 1.0)
        assert mm.moment == pytest.approx((10.0 / 4.0) ** 3, rel=1e-15)

    def test_mixed_tuple_groups_factorize(self):
        # (t1, t1, t2): diagonal block of size 2 at t1 times degree-1 at t2
        ps = _pairs(DISJOINT)
        mm = multi_time_moment(ps, (0.0, 0.0, 10.25), 2.0)
        a_ref, b_ref, count = naive_ref.multi_time_sums(
            DISJOINT, (0.0, 0.0, 10.25), 2.0)
        assert mm.a_sum == pytest.approx(a_ref, rel=1e-12)
        assert mm.b_sum == pytest.approx(b_ref, rel=1e-12)
        assert mm.combo_count == count

    def test_overlapping_distinct_windows_rejected(self):
        ps = _pairs(DISJOINT)
        with pytest.raises(UnsupportedWindowOverlapError):
            multi_time_moment(ps, (10.0, 10.5), 2.0)
        # touching windows (spacing == width, inclusive ends) also overlap
        with pytest.raises(UnsupportedWindowOverlapError):
            multi_time_moment(ps, (0.0, 2.0), 2.0)

    def test_window_ends_are_inclusive(self):
        ps = _pairs([(0.0, 1.0, 1.0), (1.0, 2.0, 1.0), (2.0, 4.0, 1.0)])
        assert multi_time_moment(ps, (1.0,), 2.0).combo_count == 3
        mm = multi_time_moment(ps, (1.0, 1.0), 1.99)
        assert (mm.combo_count, mm.a_sum, mm.b_sum) == (1, 4.0, 1.0)

    def test_empty_window_rejected(self):
        ps = _pairs(DISJOINT)
        with pytest.raises(EmptyWindowError):
            multi_time_moment(ps, (50.0,), 2.0)

    def test_naive_enumeration_agreement(self):
        rng = random.Random(14)
        trades = (naive_ref.lognormal_trades(rng, 5, t0=0.0)
                  + naive_ref.lognormal_trades(rng, 4, t0=50.0))
        ps = _pairs(trades)
        for times in [(2.0,), (2.0, 2.0), (2.0, 52.0), (2.0, 2.0, 52.0),
                      (2.0, 52.0, 52.0), (2.0, 2.0, 2.0)]:
            mm = multi_time_moment(ps, times, 10.0)
            a_ref, b_ref, count = naive_ref.multi_time_sums(trades, times, 10.0)
            assert mm.a_sum == pytest.approx(a_ref, rel=1e-12)
            assert mm.b_sum == pytest.approx(b_ref, rel=1e-12)
            assert mm.combo_count == count


class TestCharFunTruncated:
    @pytest.mark.parametrize("grid, x, step, message", [
        ([], [], 0.5, "grid must not be empty"),
        ([0.5], [1.0, 2.0], 0.5, "2 test-function values for 1 grid points"),
        ([0.5], [1.0], 0.0, "step must be positive"),
        ([10.25, 0.0], [1.0, 1.0], 0.5, "grid must be strictly increasing"),
    ], ids=["empty_grid", "lengths_differ", "zero_step", "decreasing_grid"])
    def test_refuses_a_bad_grid(self, grid, x, step, message):
        provider = moment_provider(_pairs(DISJOINT), 2.0)
        with pytest.raises(ValueError, match=f"^{message}$"):
            charfun_truncated(provider, grid, x, step, 2)

    def test_zero_test_function_normalization(self):
        ps = _pairs(DISJOINT)
        provider = moment_provider(ps, 2.0)
        result = charfun_truncated(provider, [0.0, 10.25], [0.0, 0.0], 0.5, 4)
        assert result.value == 1.0 + 0.0j  # exact

    def test_one_point_first_order(self, two_trade_view):
        ps = _pairs(TWO_TRADES)
        provider = moment_provider(ps, 2.0)
        x, h = 0.7, 0.25
        result = charfun_truncated(provider, [0.5], [x], h, 1)
        p1 = price_moment(two_trade_view, 1)
        assert result.value == pytest.approx(1.0 + 1j * p1 * x * h, rel=1e-15)

    def test_matches_bruteforce_oracle(self):
        rng = random.Random(15)
        trades = (naive_ref.lognormal_trades(rng, 6, t0=0.0)
                  + naive_ref.lognormal_trades(rng, 5, t0=40.0)
                  + naive_ref.lognormal_trades(rng, 7, t0=80.0))
        ps = _pairs(trades)
        width = 12.0
        grid = [3.0, 43.0, 83.0]
        x = [0.8, -0.5, 0.3]
        h = 0.6
        provider = moment_provider(ps, width)
        for n_max in (1, 2, 3, 4):
            result = charfun_truncated(provider, grid, x, h, n_max)
            oracle = naive_ref.charfun_bruteforce(trades, grid, x, h, n_max, width)
            assert result.value.real == pytest.approx(oracle.real, rel=1e-12, abs=1e-12)
            assert result.value.imag == pytest.approx(oracle.imag, rel=1e-12, abs=1e-12)

    def test_conjugate_symmetry(self):
        rng = random.Random(16)
        trades = (naive_ref.lognormal_trades(rng, 6, t0=0.0)
                  + naive_ref.lognormal_trades(rng, 6, t0=30.0))
        ps = _pairs(trades)
        provider = moment_provider(ps, 8.0)
        grid = [2.5, 32.5]
        x = [1.3, -0.4]
        plus = charfun_truncated(provider, grid, x, 0.5, 4).value
        minus = charfun_truncated(provider, grid, [-v for v in x], 0.5, 4).value
        assert minus == plus.conjugate()

    def test_per_order_terms_sum_to_value(self):
        ps = _pairs(DISJOINT)
        provider = moment_provider(ps, 2.0)
        result = charfun_truncated(provider, [0.0, 10.25], [0.5, 0.25], 0.5, 4)
        total = 1.0 + 0.0j
        for term in result.order_terms:
            total += term
        assert total == result.value
        assert len(result.order_terms) == 4

    def test_truncation_order_cap(self):
        ps = _pairs(DISJOINT)
        provider = moment_provider(ps, 2.0)
        with pytest.raises(TruncationOrderOutOfRangeError):
            charfun_truncated(provider, [0.0], [1.0], 0.5, 9)
        with pytest.raises(TruncationOrderOutOfRangeError):
            charfun_truncated(provider, [0.0], [1.0], 0.5, 0)

    def test_grid_spacing_checked_up_front(self):
        ps = _pairs(DISJOINT)
        provider = moment_provider(ps, 11.0)
        with pytest.raises(UnsupportedWindowOverlapError):
            charfun_truncated(provider, [0.0, 10.25], [0.1, 0.1], 0.5, 2)


class TestOverflow:
    """Values past the double range raise NonFiniteError, never inf or nan,
    and leak no numpy warning."""

    @pytest.mark.parametrize("rows, times", [
        ([(0.0, 1e200, 1.0)], (0.0, 0.0)),                  # C^2 is inf
        ([(0.0, 1e308, 1.0), (0.5, 1e308, 1.0)], (0.0,)),   # csum's partials overflow
        ([(0.0, 1.0, 1e200)], (0.0, 0.0)),                  # V^2 is inf: not a moment of 0
        ([(0.0, 1e200, 1.0), (10.0, 1e200, 1.0)], (0.0, 10.0)),  # the product overflows
    ])
    def test_multi_time_moment(self, rows, times):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match="overflows the double range"):
                multi_time_moment(_pairs(rows), times, 1.0)

    @pytest.mark.parametrize("cost, volume, x, n_max, order", [
        (1e200, 1.0, 1e300, 2, 1),   # the order-1 term p(1) x h is inf
        (1e200, 1.0, 1e-300, 2, 2),  # the degree-2 diagonal sum C^2 is inf
        (1.0, 1e200, 1.0, 3, 2),     # V^2 is inf, so p(2) would read 0
    ])
    def test_charfun_truncated(self, cost, volume, x, n_max, order):
        provider = moment_provider(_pairs([(0.0, cost, volume)]), 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match=f"^the order-{order} term overflows"):
                charfun_truncated(provider, [0.0], [x], 1.0, n_max)

    @pytest.mark.parametrize("rows, times", [
        ([(0.0, 1.0, 1e-200), (0.5, 1.0, 1e-200)], (0.25, 0.25)),  # sum(V^2) is 0
        ([(0.0, 1.0, 1e-200), (5.0, 1.0, 1e-200)], (0.0, 5.0)),    # the product is 0
    ], ids=["diagonal", "disjoint"])
    def test_multi_time_moment_divisor_underflow(self, rows, times):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError) as exc:
                multi_time_moment(validate_series(rows), times, 1.0)
        assert str(exc.value) == (f"the degree-2 moment at times {times} divides by a sum "
                                  "that underflows to 0")

    @pytest.mark.parametrize("rows, grid, t", [
        ([(0.0, 1.0, 1e-200), (1.0, 1.0, 1e-200)], [0.5], 0.5),
        ([(0.0, 1.0, 1.0), (1.0, 1.0, 1.0), (10.0, 1.0, 1e-200), (11.0, 1.0, 1e-200)],
         [0.5, 10.5], 10.5),
    ], ids=["one_point", "second_point"])
    def test_charfun_truncated_divisor_underflow(self, rows, grid, t):
        # sum(V^2) of two volumes of 1e-200 underflows to 0, while p(1) = 1e200
        # and its order-1 term are finite
        provider = moment_provider(_pairs(rows), 5.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError,
                               match=f"^the sum of V2 underflows to 0 in the window at t={t}$"):
                charfun_truncated(provider, grid, [1.0] * len(grid), 1.0, 2)

    def test_charfun_truncated_sum_of_terms(self, monkeypatch):
        monkeypatch.setattr(charfun, "moment_table", _table_of_terms_near_the_limit)
        provider = moment_provider(_pairs([(0.0, 1.0, 1.0)]), 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match="^the sum of the order terms overflows "
                                                     "the double range$"):
                charfun_truncated(provider, [0.0], [10.0], 1.0, 5)

    def test_finite_near_the_limit(self):
        provider = moment_provider(_pairs([(0.0, 1e200, 1.0)]), 1.0)
        result = charfun_truncated(provider, [0.0], [1e-200], 1.0, 1)
        assert np.isfinite(result.value.imag) and result.value.imag == pytest.approx(1.0)
        assert multi_time_moment(_pairs([(0.0, 1e200, 1.0)]), (0.0,), 1.0).moment == 1e200


class TestMomentProvider:
    def test_plain_series_width_record(self):
        ps = _pairs(TWO_TRADES)
        provider = moment_provider(ps, 2.0)
        assert (provider.series, provider.width) == (ps, 2.0)
        assert not callable(provider)
        for width in (0.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="^width must be positive and finite$"):
                moment_provider(ps, width)


class TestDerivativeCheck:
    def test_constant_price_recovers_price(self):
        rows = [(float(i), 5.0 * v, v) for i, v in enumerate([1.0, 2.0, 0.5, 3.0])]
        ps = _pairs(rows)
        value = charfun_derivative_check(ps, 1.5, 1e-4, 1.0, width=10.0)
        assert value == pytest.approx(5.0j, abs=1e-6)

    def test_two_trade_fixture(self):
        ps = _pairs(TWO_TRADES)
        value = charfun_derivative_check(ps, 0.5, 1e-4, 1.0, width=2.0)
        assert value == pytest.approx(3.2j, abs=1e-6)

    def test_second_order_convergence(self):
        ps = _pairs(TWO_TRADES)
        exact = 3.2j
        errors = []
        for eps in (1e-2, 5e-3, 2.5e-3):
            value = charfun_derivative_check(ps, 0.5, eps, 1.0, width=2.0)
            errors.append(abs(value - exact))
        # halving eps should cut the error about 4x
        assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.05)
        assert errors[1] / errors[2] == pytest.approx(4.0, rel=0.05)

    def test_needs_a_positive_eps(self):
        with pytest.raises(ValueError, match="^eps must be positive$"):
            charfun_derivative_check(_pairs(TWO_TRADES), 0.5, 0.0, 1.0, width=2.0)

    def test_needs_second_order(self):
        ps = _pairs(TWO_TRADES)
        with pytest.raises(TruncationOrderOutOfRangeError):
            charfun_derivative_check(ps, 0.5, 1e-4, 1.0, width=2.0, n_max=1)
