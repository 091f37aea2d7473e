"""The all-windows kernel against csum (math.fsum) as the oracle.

window_sums must return exactly csum of every window's slice: same bits,
for ties, empty and one-element windows, overlapping windows, powers 1-8
and magnitudes 1e-8..1e8.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tickvol.sums import csum, window_sums, windowed_sums
from tickvol.trades import window_bounds

POWERS = range(1, 9)


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64).tolist()


def _assert_matches_csum(cols, starts, lengths):
    got = window_sums(cols, starts, lengths)
    assert got.shape == (len(starts), cols.shape[1])
    for w, (lo, n) in enumerate(zip(starts.tolist(), lengths.tolist())):
        for c in range(cols.shape[1]):
            want = csum(cols[lo:lo + n, c])
            assert _bits(got[w, c]) == _bits(want), (w, c, got[w, c], want)


_magnitude = st.floats(min_value=1e-8, max_value=1e8)
_signed = st.tuples(_magnitude, st.booleans()).map(lambda p: -p[0] if p[1] else p[0])


@st.composite
def _series(draw, signed=True):
    """Sorted integer timestamps with repeats, values with planted exact ties."""
    n = draw(st.integers(1, 50))
    ts = np.array(sorted(draw(st.lists(st.integers(0, 30), min_size=n, max_size=n))),
                  dtype=np.float64)
    values = draw(st.lists(_signed if signed else _magnitude, min_size=n, max_size=n))
    # half an ulp of the previous value: the pair sums to an exact tie
    for i in draw(st.sets(st.integers(1, max(1, n - 1)), max_size=n // 3)):
        if i < n:
            values[i] = math.copysign(math.ulp(values[i - 1]) / 2, values[i])
    return ts, np.array(values)


@st.composite
def _grid(draw):
    """Integer window width and a stride from an eighth of the width, so
    windows overlap, up to five widths, so rows between windows go
    uncovered; window edges land on trade timestamps."""
    width = float(draw(st.integers(1, 12)))
    stride = draw(st.sampled_from([0.5, 1.0, 2.0, 3.0, 8.0, 20.0])) * width / 4
    first = draw(st.integers(-4, 4)) + width / 2
    centers = first + stride * np.arange(draw(st.integers(1, 40)))
    return centers, width


class TestWindowSums:
    @given(_series(), _grid())
    @settings(max_examples=150, deadline=None)
    def test_powers_match_csum_on_every_window(self, series, grid):
        ts, values = series
        centers, width = grid
        starts, lengths = window_bounds(ts, centers, width)
        cols = np.column_stack([values ** p for p in POWERS])
        _assert_matches_csum(cols, starts, lengths)

    @given(st.lists(_signed, min_size=1, max_size=300), st.data())
    @settings(max_examples=100, deadline=None)
    def test_long_windows_match_csum(self, values, data):
        values = np.array(values)
        starts = np.array(data.draw(st.lists(st.integers(0, len(values)), min_size=1,
                                             max_size=20)))
        lengths = np.array([data.draw(st.integers(0, len(values) - lo)) for lo in starts])
        _assert_matches_csum(values[:, None], starts, lengths)

    def test_exact_tie_rounds_to_even(self):
        got = window_sums(np.array([1.0, 2.0 ** -53]), np.array([0]), np.array([2]))
        assert _bits(got) == _bits([1.0])

    def test_sum_just_below_a_power_of_two(self):
        # the exact sum lies a hair below the midpoint under 1.0, where
        # the float spacing halves
        values = np.array([1.0, -2.0 ** -54, -2.0 ** -110])
        got = window_sums(values, np.array([0]), np.array([3]))
        assert _bits(got) == _bits([1.0 - 2.0 ** -53])

    def test_ill_conditioned_sums_match_csum(self):
        # huge terms that cancel exactly leave a small sum that a plain
        # or singly compensated sum gets wrong
        rng = np.random.default_rng(2005)
        windows = []
        for _ in range(300):
            big = rng.uniform(-1, 1, rng.integers(2, 20)) * 2.0 ** rng.integers(0, 120)
            window = np.concatenate([big, -big, rng.uniform(-1, 1, rng.integers(1, 4))])
            rng.shuffle(window)
            windows.append(window)
        lengths = np.array([len(w) for w in windows])
        starts = np.concatenate([[0], np.cumsum(lengths)[:-1]])
        _assert_matches_csum(np.concatenate(windows)[:, None], starts, lengths)

    def test_empty_and_single_windows(self):
        values = np.array([3.5, -1e-8, 7e7])
        got = window_sums(values, np.array([0, 1, 2, 3, 1]), np.array([0, 1, 1, 0, 0]))
        assert _bits(got) == _bits([0.0, -1e-8, 7e7, 0.0, 0.0])
        assert got.shape == (5,)

    def test_cancellation_is_exact(self):
        values = np.array([1e16, 1.0, -1e16, 2.0 ** -30])
        got = window_sums(values, np.array([0, 0]), np.array([3, 4]))
        assert _bits(got) == _bits([1.0, 1.0 + 2.0 ** -30])

    def test_non_finite_follows_fsum(self):
        values = np.array([np.inf, 1.0, 1e308, 1e308])
        assert window_sums(values, np.array([0]), np.array([2]))[0] == math.inf
        with pytest.raises(OverflowError):
            window_sums(values, np.array([2]), np.array([2]))

    def test_windows_in_the_middle_of_the_array(self):
        # the covered span [3, 9) is a strict middle part of the 14 rows
        cols = np.random.default_rng(7).uniform(-1e8, 1e8, (14, 2))
        _assert_matches_csum(cols, np.array([5, 3, 9, 4]), np.array([4, 2, 0, 1]))
        got = window_sums(cols[:, 0], np.array([6]), np.array([1]))
        assert _bits(got) == _bits([cols[6, 0]])

    def test_no_windows(self):
        assert window_sums(np.ones((5, 3)), np.array([], dtype=int),
                           np.array([], dtype=int)).shape == (0, 3)


class TestWindowedSums:
    @given(_series(signed=False), _grid())
    @settings(max_examples=100, deadline=None)
    def test_bounds_and_sums_match_brute_force(self, series, grid):
        ts, values = series
        centers, width = grid
        counts, got = windowed_sums(ts, centers, width, [values, values ** 2])
        rows = iter(got.tolist())
        for c, n in zip(centers.tolist(), counts.tolist()):
            members = [i for i, t in enumerate(ts.tolist()) if c - width / 2 <= t <= c + width / 2]
            assert n == len(members)
            if n:
                assert members == list(range(members[0], members[0] + n))
                assert next(rows) == [csum(values[members]), csum(values[members] ** 2)]
        assert next(rows, None) is None
