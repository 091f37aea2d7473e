"""Trade model: validation, sorting, window selection."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tickvol import (
    PairSeries,
    TradeSeries,
    ValidationError,
    WindowSpec,
    build_returns,
    select_window,
    validate_series,
)


class TestValidateSeries:
    def test_sorts_by_timestamp(self):
        s = validate_series([(1.0, 4.0, 2.0), (0.5, 6.0, 3.0)])
        assert list(s.timestamps) == [0.5, 1.0]
        assert list(s.costs) == [6.0, 4.0]
        assert list(s.volumes) == [3.0, 2.0]

    def test_zero_volume_rejected(self):
        with pytest.raises(ValidationError, match="volume must be positive"):
            validate_series([(1.0, 4.0, 0.0)])

    def test_negative_cost_rejected(self):
        with pytest.raises(ValidationError, match="cost must be positive"):
            validate_series([(1.0, -4.0, 2.0)])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError, match="timestamp must be finite"):
            validate_series([(float("nan"), 4.0, 2.0)])
        with pytest.raises(ValidationError, match="cost must be positive"):
            validate_series([(1.0, float("inf"), 2.0)])
        with pytest.raises(ValidationError, match="volume must be positive"):
            validate_series([(1.0, 4.0, float("nan"))])

    def test_error_names_offending_row(self):
        with pytest.raises(ValidationError, match="trade 2"):
            validate_series([(0.0, 1.0, 1.0), (1.0, 1.0, 1.0), (2.0, 1.0, 0.0)])

    def test_equal_timestamps_keep_input_order(self):
        s = validate_series([(1.0, 4.0, 2.0), (1.0, 6.0, 3.0)])
        assert len(s) == 2
        assert list(s.costs) == [4.0, 6.0]

    def test_empty_series_is_legal(self):
        assert len(validate_series([])) == 0

    def test_stable_sort_with_mixed_ties(self):
        rows = [(2.0, 1.0, 1.0), (1.0, 2.0, 1.0), (2.0, 3.0, 1.0), (1.0, 4.0, 1.0)]
        s = validate_series(rows)
        # per timestamp, input order preserved
        assert list(s.costs) == [2.0, 4.0, 1.0, 3.0]

    def test_series_arrays_are_read_only(self):
        s = validate_series([(0.0, 1.0, 1.0)])
        with pytest.raises(ValueError):
            s.timestamps[0] = 5.0


class TestPairSeries:
    """The one (timestamp, a, b) stream class and its validator."""

    def test_bad_a_or_b_names_the_row(self):
        with pytest.raises(ValidationError, match=r"^row 1: a must be positive \(got -1.0\)$"):
            PairSeries([0.0, 1.0], [1.0, -1.0], [1.0, 1.0])
        with pytest.raises(ValidationError, match=r"^row 0: b must be positive \(got inf\)$"):
            PairSeries([0.0], [1.0], [np.inf])
        with pytest.raises(ValidationError, match=r"^row 2: timestamp must be finite \(got nan\)$"):
            PairSeries([0.0, 1.0, np.nan], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0])

    def test_trade_errors_print_plain_numbers(self):
        with pytest.raises(ValidationError, match=r"^trade 0: cost must be positive \(got inf\)$"):
            TradeSeries(np.array([0.0]), np.array([np.inf]), np.array([1.0]))

    def test_unsorted_input_is_stably_sorted(self):
        s = PairSeries([2.0, 1.0, 2.0, 1.0], [1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0])
        assert list(s.timestamps) == [1.0, 1.0, 2.0, 2.0]
        assert list(s.a) == [2.0, 4.0, 1.0, 3.0]
        assert list(s.b) == [6.0, 8.0, 5.0, 7.0]
        assert not s.a.flags.writeable and not s.b.flags.writeable

    def test_from_trades_is_the_series_itself(self):
        s = validate_series([(0.0, 10.0, 2.0), (1.0, 6.0, 3.0)])
        assert PairSeries.from_trades(s) is s
        view = select_window(s, WindowSpec(0.5, 2.0))
        assert list(view.a) == [10.0, 6.0] and list(view.b) == [2.0, 3.0]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PairSeries([0.0, 1.0], [1.0], [1.0, 1.0])

    @pytest.mark.parametrize("name", ["timestamps", "a", "b", "costs", "volumes"])
    def test_trade_columns_cannot_be_rebound(self, name):
        s = validate_series([(0.0, 10.0, 2.0), (1.0, 6.0, 3.0)])
        with pytest.raises(AttributeError):
            setattr(s, name, np.array([1.0, 1.0]))
        with pytest.raises(AttributeError):
            delattr(s, name)
        assert list(s.costs) == [10.0, 6.0] and list(s.volumes) == [2.0, 3.0]

    @pytest.mark.parametrize("name", ["timestamps", "a", "b", "cost_ratio", "volume_ratio",
                                      "price_ratio", "indices", "lag"])
    def test_returns_columns_cannot_be_rebound(self, name):
        records = build_returns(validate_series([(0.0, 10.0, 2.0), (1.0, 6.0, 3.0)]), 1)
        with pytest.raises(AttributeError):
            setattr(records, name, 1)
        assert records.lag == 1 and list(records.cost_ratio) == [0.6]


class TestPriceOf:
    """The per-trade price column is cost / volume."""

    def test_direct_division(self):
        s = validate_series([(0.0, 10.0, 2.0), (1.0, 6.0, 3.0)])
        assert list(s.prices) == [5.0, 2.0]

    def test_unit_volume_identity(self):
        xs = [0.25, 1.0, 3.7, 1e6]
        s = validate_series([(float(i), x, 1.0) for i, x in enumerate(xs)])
        assert list(s.prices) == xs

    def test_price_property_matches(self):
        s = validate_series([(0.0, 10.0, 4.0), (1.0, 6.0, 3.0), (2.0, 7.0, 2.0)])
        view = select_window(s, WindowSpec(1.5, 1.0))
        assert list(view.prices) == list(s.prices[1:])


class TestSelectWindow:
    @pytest.fixture
    def series(self):
        return validate_series([(0.0, 1.0, 1.0), (1.0, 2.0, 1.0), (2.0, 3.0, 1.0)])

    def test_inclusive_boundaries(self, series):
        view = select_window(series, WindowSpec(center=1.0, width=2.0))
        assert (view.start, view.stop) == (0, 3)

    def test_boundary_exclusion(self, series):
        view = select_window(series, WindowSpec(center=1.0, width=1.9))
        assert (view.start, view.stop) == (1, 2)

    def test_disjoint_window_is_empty(self, series):
        view = select_window(series, WindowSpec(center=10.0, width=1.0))
        assert len(view) == 0

    def test_view_length(self, series):
        assert len(select_window(series, WindowSpec(1.0, 2.0))) == 3
        one = validate_series([(5.0, 1.0, 1.0)])
        assert len(select_window(one, WindowSpec(5.0, 1.0))) == 1

    def test_window_spec_rejects_bad_width(self):
        with pytest.raises(ValueError):
            WindowSpec(0.0, 0.0)
        with pytest.raises(ValueError):
            WindowSpec(0.0, -1.0)

    def test_view_slices_match_members(self, series):
        view = select_window(series, WindowSpec(1.5, 1.0))
        assert (view.start, view.stop) == (1, 3)
        np.testing.assert_array_equal(view.a, [2.0, 3.0])
        np.testing.assert_array_equal(view.timestamps, [1.0, 2.0])


# strategy: small series with timestamps on a lattice so window edges hit
# trades exactly and the inclusive-boundary contract is genuinely exercised
_lattice_series = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=40).map(lambda k: k / 4),
        st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
        st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
    ),
    min_size=1,
    max_size=30,
)


class TestWindowProperties:
    @given(_lattice_series,
           st.integers(min_value=0, max_value=40).map(lambda k: k / 4),
           st.integers(min_value=1, max_value=48).map(lambda k: k / 4))
    def test_membership_idempotent_on_restriction(self, rows, center, width):
        series = validate_series(rows)
        spec = WindowSpec(center, width)
        view = select_window(series, spec)
        sub = validate_series(zip(view.timestamps, view.a, view.b))
        again = select_window(sub, spec)
        assert len(again) == len(view)
        np.testing.assert_array_equal(again.timestamps, view.timestamps)
        np.testing.assert_array_equal(again.a, view.a)

    @given(_lattice_series,
           st.integers(min_value=0, max_value=40).map(lambda k: k / 4),
           st.integers(min_value=1, max_value=24).map(lambda k: k / 4),
           st.integers(min_value=0, max_value=24).map(lambda k: k / 4))
    def test_widening_never_removes_members(self, rows, center, width, extra):
        series = validate_series(rows)
        narrow = select_window(series, WindowSpec(center, width))
        wide = select_window(series, WindowSpec(center, width + extra))
        assert wide.start <= narrow.start and narrow.stop <= wide.stop

    @given(st.integers(min_value=0, max_value=40).map(lambda k: k / 4),
           st.integers(min_value=1, max_value=48).map(lambda k: k / 4))
    def test_exact_edge_trades_are_members(self, center, width):
        lo = center - width / 2
        hi = center + width / 2
        series = validate_series([(lo, 1.0, 1.0), (hi, 1.0, 1.0)])
        view = select_window(series, WindowSpec(center, width))
        assert len(view) == 2


def test_series_repr_and_span():
    s = validate_series([(0.0, 1.0, 1.0), (3.0, 1.0, 1.0)])
    assert "2" in repr(s)
    assert s.span() == (0.0, 3.0)
    with pytest.raises(ValueError):
        TradeSeries(np.empty(0), np.empty(0), np.empty(0)).span()
