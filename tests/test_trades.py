"""Trade model: validation, sorting, window selection."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import naive_ref
from tickvol import (
    PairSeries,
    ReturnsSet,
    TradeSeries,
    ValidationError,
    WindowSpec,
    build_returns,
    select_window,
    validate_series,
)
from tickvol.trades import window_bounds


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

    @pytest.mark.parametrize("rows", [[(0.0, 1.0)], [(0.0, 1.0, 1.0, 1.0)]],
                             ids=["two_fields", "four_fields"])
    def test_rows_must_be_triples(self, rows):
        with pytest.raises(ValidationError,
                           match=r"^each raw trade must be a \(timestamp, cost, volume\) triple$"):
            validate_series(rows)

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
        assert view.timestamps.tolist() == [0.0, 1.0, 2.0]

    def test_boundary_exclusion(self, series):
        view = select_window(series, WindowSpec(center=1.0, width=1.9))
        assert view.timestamps.tolist() == [1.0]

    def test_disjoint_window_is_empty(self, series):
        view = select_window(series, WindowSpec(center=10.0, width=1.0))
        assert len(view) == 0

    def test_view_length(self, series):
        assert len(select_window(series, WindowSpec(1.0, 2.0))) == 3
        one = validate_series([(5.0, 1.0, 1.0)])
        assert len(select_window(one, WindowSpec(5.0, 1.0))) == 1

    def test_window_spec_rejects_bad_width(self):
        # the right edge of WindowSpec(-inf, inf), -inf + inf, is nan
        for center, width in ((0.0, 0.0), (0.0, -1.0), (-math.inf, math.inf), (0.0, math.inf),
                              (0.0, math.nan)):
            with pytest.raises(ValueError, match="^window width must be positive and finite"):
                WindowSpec(center, width)

    def test_view_slices_match_members(self, series):
        view = select_window(series, WindowSpec(1.5, 1.0))
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

_MAX = float(np.finfo(np.float64).max)


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
        inside = (center - width / 2 <= wide.timestamps) & (wide.timestamps <= center + width / 2)
        np.testing.assert_array_equal(wide.timestamps[inside], narrow.timestamps)
        np.testing.assert_array_equal(wide.a[inside], narrow.a)

    @given(_lattice_series,
           st.integers(min_value=0, max_value=40).map(lambda k: k / 4),
           st.integers(min_value=1, max_value=48).map(lambda k: k / 4),
           st.integers(min_value=1, max_value=4))
    def test_window_is_a_zero_copy_slice_of_the_same_class(self, rows, center, width, lag):
        series = validate_series(rows)
        streams = [series]
        if lag < len(series):
            streams.append(build_returns(series, lag))
        for stream in streams:
            columns = ["timestamps", "a", "b"]
            if isinstance(stream, ReturnsSet):
                columns += ["indices", "price_ratio", "simple_return", "log_return"]
            view = select_window(stream, WindowSpec(center, width))
            assert type(view) is type(stream)
            assert view.series is stream and stream.series is stream
            whole_rows = list(zip(*(getattr(stream, name).tolist() for name in columns)))
            members = naive_ref.window_members(whole_rows, center, width)
            assert list(zip(*(getattr(view, name).tolist() for name in columns))) == members
            for name in columns:
                column = getattr(view, name)
                assert not column.flags.writeable
                assert not len(view) or np.shares_memory(column, getattr(stream, name))
            if isinstance(stream, ReturnsSet):
                assert view.lag == stream.lag == lag
            # a window of a window is cut from the same whole stream
            assert select_window(view, WindowSpec(center, width / 2)).series is stream

    @given(st.lists(st.sampled_from([-_MAX, -1e308, -5e307, -1.0, 0.0, 1.0, 5e307, 1e308, _MAX]),
                    min_size=1, max_size=12),
           st.lists(st.one_of(st.sampled_from([-math.inf, -_MAX, -1e308, 0.0, 1e308, _MAX,
                                               math.inf, math.nan]), st.floats()), max_size=6),
           st.one_of(st.sampled_from([1.0, 1e307, 1e308]), st.floats(5e-324, 1e308)))
    def test_row_ranges_hold_where_the_edges_overflow(self, timestamps, centers, width):
        # centers at +-1e308, +-inf and nan, widths up to 1e308 (so c +- width/2
        # overflows), and centers that put repeated timestamps on a window edge
        series = validate_series((t, 1.0, 1.0) for t in timestamps)
        ts = series.timestamps.tolist()
        centers = [*centers, *(t + s * width / 2 for t in ts for s in (-1.0, 1.0))]
        with np.errstate(over="ignore"):  # numpy's warning for an edge that overflows
            lo, hi = window_bounds(series.timestamps, np.array(centers), width)
        for c, a, b in zip(centers, lo.tolist(), hi.tolist()):
            members = [i for i, t in enumerate(ts) if c - width / 2 <= t <= c + width / 2]
            assert a <= b and list(range(a, b)) == members, (c, width)
            assert [int(x) for x in window_bounds(series.timestamps, c, width)] == [a, b]
            view = select_window(series, WindowSpec(c, width))
            assert view.timestamps.tolist() == [ts[i] for i in members]

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
    assert repr(s) == "TradeSeries(n=2, t=0.0..3.0)"
    assert repr(select_window(s, WindowSpec(3.0, 1.0))) == "TradeSeries(n=1, t=3.0..3.0)"
    assert repr(select_window(s, WindowSpec(9.0, 1.0))) == "TradeSeries(n=0)"
    assert repr(build_returns(s, 1)) == "lag-1 ReturnsSet(n=1, t=3.0..3.0)"
    assert s.span() == (0.0, 3.0)
    with pytest.raises(ValueError):
        TradeSeries(np.empty(0), np.empty(0), np.empty(0)).span()
