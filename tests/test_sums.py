"""The all-windows kernel against csum (math.fsum) as the oracle.

window_sums must return exactly csum of every window's slice: same bits,
for ties, empty and one-element windows, overlapping windows, powers 1-8
and magnitudes 1e-8..1e8, on both of its paths, each forced in turn: the
slice path (fsum per window slice) and the prefix path (exact limb prefix
sums, for every column it can hold).
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tickvol import sums
from tickvol.moments import power_summands, window_centers
from tickvol.returns import build_returns, returns_summands
from tickvol.sums import csum, window_sums, windowed_sums
from tickvol.synth import SimConfig, simulate_trades
from tickvol.trades import window_bounds
from tickvol.volatility import dispersion_summands

POWERS = range(1, 9)

# window_sums forced onto one path: every column sliced, or every column
# the prefix path can hold summed from prefix sums, in blocks of the
# default size or of 3 rows (so that block edges fall inside windows)
PATHS = {
    "slice": {"_prefix_sums": lambda *args: None},
    "prefix": {"PREFIX_OVERLAP": 0},
    "prefix, 3-row blocks": {"PREFIX_OVERLAP": 0, "PREFIX_BLOCK_ROWS": 3},
}


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64).tolist()


def _forced(path, values, starts, lengths):
    with mock.patch.multiple(sums, **PATHS[path]):
        return window_sums(values, starts, lengths)


def _assert_matches_csum(cols, starts, lengths):
    for path in PATHS:
        got = _forced(path, cols, starts, lengths)
        assert got.shape == (len(starts), cols.shape[1])
        for w, (lo, n) in enumerate(zip(starts.tolist(), lengths.tolist())):
            for c in range(cols.shape[1]):
                want = csum(cols[lo:lo + n, c])
                assert _bits(got[w, c]) == _bits(want), (path, w, c, got[w, c], want)


def _prefix_takes(col):
    """Whether the prefix path holds this column (else it is sliced)."""
    col = np.asarray(col, dtype=np.float64)
    return sums._prefix_sums(col, np.array([0]), np.array([len(col)])) is not None


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
        for path in PATHS:
            got = _forced(path, np.array([1.0, 2.0 ** -53]), np.array([0]), np.array([2]))
            assert _bits(got) == _bits([1.0])
            # the tie above an odd last bit rounds up, to the even neighbour
            got = _forced(path, np.array([1.0 + 2.0 ** -52, 2.0 ** -53]), np.array([0]),
                          np.array([2]))
            assert _bits(got) == _bits([1.0 + 2.0 ** -51])

    def test_sum_just_below_a_power_of_two(self):
        # the exact sum lies a hair below the midpoint under 1.0, where
        # the float spacing halves
        values = np.array([1.0, -2.0 ** -54, -2.0 ** -110])
        for path in PATHS:
            got = _forced(path, values, np.array([0]), np.array([3]))
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
        for path in PATHS:
            got = _forced(path, values, np.array([0, 1, 2, 3, 1]), np.array([0, 1, 1, 0, 0]))
            assert _bits(got) == _bits([0.0, -1e-8, 7e7, 0.0, 0.0])
            assert got.shape == (5,)

    def test_cancellation_is_exact(self):
        values = np.array([1e16, 1.0, -1e16, 2.0 ** -30])
        for path in PATHS:
            got = _forced(path, values, np.array([0, 0]), np.array([3, 4]))
            assert _bits(got) == _bits([1.0, 1.0 + 2.0 ** -30])

    def test_non_finite_follows_fsum(self):
        values = np.array([np.inf, 1.0, 1e308, 1e308])
        for path in PATHS:
            assert _forced(path, values, np.array([0]), np.array([2]))[0] == math.inf
            with pytest.raises(OverflowError):
                _forced(path, values, np.array([2]), np.array([2]))

    def test_windows_in_the_middle_of_the_array(self):
        # the covered span [3, 9) is a strict middle part of the 14 rows
        cols = np.random.default_rng(7).uniform(-1e8, 1e8, (14, 2))
        _assert_matches_csum(cols, np.array([5, 3, 9, 4]), np.array([4, 2, 0, 1]))
        for path in PATHS:
            got = _forced(path, cols[:, 0], np.array([6]), np.array([1]))
            assert _bits(got) == _bits([cols[6, 0]])

    def test_no_windows(self):
        for path in PATHS:
            assert _forced(path, np.ones((5, 3)), np.array([], dtype=int),
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


def _limbs(col):
    """32-bit limbs that the prefix path needs for a column's exponent span."""
    frac, exp = np.frexp(np.asarray(col, dtype=np.float64))
    exp = exp[frac != 0]
    return (int(exp.max()) - int(exp.min()) + 53 + 31) // 32


@st.composite
def _spread(draw):
    """Values of random sign from subnormals up to ~1e298, each with a
    random 53-bit mantissa; the exponent span is drawn, so some columns fit
    in MAX_LIMBS limbs and others do not."""
    n = draw(st.integers(1, 40))
    low = draw(st.one_of(st.just(-1074), st.integers(-1074, 990)))
    high = min(990, low + draw(st.integers(0, 300)))
    values = []
    for _ in range(n):
        frac = draw(st.integers(2 ** 52, 2 ** 53 - 1)) / 2.0 ** 53
        sign = draw(st.sampled_from([1.0, -1.0]))
        values.append(sign * math.ldexp(frac, draw(st.integers(low, high))))
    return np.array(values)


class TestPrefixPath:
    """The exact prefix path on the columns it holds, and the columns it
    leaves to the slice path; both paths must give csum's bits."""

    @given(_spread(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_exponent_spans_match_csum(self, values, data):
        starts = np.array(data.draw(st.lists(st.integers(0, len(values)), min_size=1,
                                             max_size=12)))
        lengths = np.array([data.draw(st.integers(0, len(values) - lo)) for lo in starts])
        _assert_matches_csum(values[:, None], starts, lengths)
        nonzero = values[values != 0]
        if len(nonzero):
            assert _prefix_takes(values) == (_limbs(nonzero) <= 8)

    def test_subnormals_and_the_limb_cap(self):
        cols = {
            "subnormal": [5e-324, -1e-320, 3e-310, 2.2250738585072014e-308, -4e-323],
            "8 limbs": [2.0 ** -800, -3.0 * 2.0 ** -1000, 2.0 ** -1000, 1.5 * 2.0 ** -803],
            "9 limbs": [1.0, 2.0 ** -210, -(2.0 ** -100)],
            "subnormal to 1e300": [5e-324, 1e300, -1e300, 1e-310],
        }
        assert [_limbs(col) for col in cols.values()][1:3] == [8, 9]
        assert [_prefix_takes(col) for col in cols.values()] == [True, True, False, False]
        for col in cols.values():
            values = np.array(col)
            n = len(values)
            starts = np.array([0, 0, 1, n - 1, 2])
            _assert_matches_csum(values[:, None], starts, np.array([n, 2, n - 1, 1, 0]))

    def test_signed_cancellation_is_exact(self):
        # large terms that cancel leave a small remainder, or an exact 0
        values = np.array([2.0 ** 100, 3.0, -(2.0 ** 100), 2.0 ** -60, -3.0, -(2.0 ** -60),
                           1e16, -1e16])
        assert _prefix_takes(values)
        _assert_matches_csum(values[:, None], np.array([0, 0, 0, 1, 2, 6, 0]),
                             np.array([3, 4, 6, 5, 4, 2, 8]))

    def test_absolute_sum_guard(self):
        inside = np.array([2.0 ** 999, -(2.0 ** 998), 2.0 ** 997, -(2.0 ** 946)])
        assert _prefix_takes(inside)
        _assert_matches_csum(inside[:, None], np.array([0, 1, 0]), np.array([4, 3, 2]))
        outside = np.array([2.0 ** 999, 2.0 ** 999, -(2.0 ** 999)])
        assert not _prefix_takes(outside)
        _assert_matches_csum(outside[:, None], np.array([0, 1, 0]), np.array([2, 2, 3]))
        # fsum's partials overflow though the sum is finite: both paths raise
        overflow = np.array([1e308, 1e308, -1e308])
        assert not _prefix_takes(overflow)
        for path in PATHS:
            with pytest.raises(OverflowError):
                _forced(path, overflow, np.array([0]), np.array([3]))

    def test_non_finite_columns_follow_fsum(self):
        cases = [([1.0, np.inf, 2.0], math.inf), ([1.0, np.nan], math.nan),
                 ([-np.inf, 1.0], -math.inf)]
        for col, want in cases:
            assert not _prefix_takes(col)
            for path in PATHS:
                got = _forced(path, np.array(col), np.array([0]), np.array([len(col)]))
                assert _bits(got) == _bits([want]) or (math.isnan(want) and math.isnan(got[0]))
        for path in PATHS:
            with pytest.raises(ValueError):
                _forced(path, np.array([np.inf, -np.inf]), np.array([0]), np.array([2]))

    def test_zero_length_windows(self):
        values = np.array([1.5, -2.0 ** -60, 3e10])
        starts = np.array([0, 3, 1, 2, 0])
        lengths = np.array([0, 0, 0, 1, 3])
        for path in PATHS:
            got = _forced(path, values, starts, lengths)
            assert _bits(got) == _bits([0.0, 0.0, 0.0, 3e10, csum(values)])

    def test_negative_zero_windows_match_csum(self):
        # fsum's sign for an exact zero changed in Python 3.12; the prefix
        # path must give this interpreter's csum bits either way
        values = np.array([-0.0, -0.0, 1.0, -1.0, -0.0, 0.0, 2.5, -0.0])
        starts = np.array([0, 0, 2, 0, 4, 1, 6, 7, 3])
        lengths = np.array([2, 1, 2, 4, 2, 0, 2, 1, 2])
        assert _prefix_takes(values)
        _assert_matches_csum(values[:, None], starts, lengths)
        zeros = np.array([-0.0, -0.0, -0.0])
        assert not _prefix_takes(zeros)
        _assert_matches_csum(zeros[:, None], np.array([0, 1, 0]), np.array([3, 1, 0]))


def _paths_taken(monkeypatch):
    """Record which path window_sums runs for each column."""
    taken = []
    prefix, sliced = sums._prefix_sums, sums._slice_sums
    monkeypatch.setattr(sums, "_prefix_sums",
                        lambda *args: taken.append("prefix") or prefix(*args))
    monkeypatch.setattr(sums, "_slice_sums",
                        lambda *args: taken.append("slice") or sliced(*args))
    return taken


class TestDispatch:
    """Which path the window grids of the benchmark workloads take, on
    simulated trades at about one per second: fixed by the overlap rule,
    with no timing involved, so a change of PREFIX_OVERLAP that moves one
    of them fails here."""

    @pytest.fixture(scope="class")
    def series(self):
        return simulate_trades(SimConfig(n_trades=20000, seed=11))

    def _sum_grid(self, stream, width, stride, summands):
        windowed_sums(stream.timestamps, window_centers(stream, width, stride), width, summands)

    def test_moments_overlap_takes_the_prefix_path(self, series, monkeypatch):
        taken = _paths_taken(monkeypatch)
        # moments degrees 1-4, width 200 at stride 10: 20x overlap
        self._sum_grid(series, 200.0, 10.0, power_summands(series, [1, 2, 3, 4]))
        assert taken == ["prefix"] * 8

    @pytest.mark.parametrize("shape", ["pricevol-narrow", "returns-ndjson-wide",
                                       "identity-check"])
    def test_low_overlap_grids_take_the_slice_path(self, series, monkeypatch, shape):
        taken = _paths_taken(monkeypatch)
        t0, t1 = series.span()
        if shape == "pricevol-narrow":  # width 10 at stride 5: 2x
            self._sum_grid(series, 10.0, 5.0, dispersion_summands(series))
        elif shape == "returns-ndjson-wide":  # lag 10, width 2000 at stride 1000: 2x
            records = build_returns(series, 10)
            self._sum_grid(records, 2000.0, 1000.0, returns_summands(records))
        else:  # span/16 at stride span/16: 1x
            width = (t1 - t0) / 16
            self._sum_grid(series, width, width, dispersion_summands(series))
        assert taken == ["slice"] * len(taken) and taken
