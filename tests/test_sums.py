"""The all-windows kernel against csum (math.fsum) as the oracle.

window_sums must return exactly csum of every window's slice: same bits,
for ties, empty and one-element windows, overlapping windows, powers 1-8,
magnitudes 1e-8..1e8 and exponent spans from one limb to past 60. Every
column is summed from exact limb prefix sums, in blocks of the default
size and of 3 rows (so block edges fall inside windows). Where fsum
raises, a window gets inf, -inf or nan, as window_sums reports it.
"""

import math
import os
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tickvol import sums
from tickvol.moments import power_summands, window_centers
from tickvol.returns import build_returns, returns_summands
from tickvol.sums import csum, window_sums
from tickvol.synth import SimConfig, simulate_trades
from tickvol.trades import window_bounds

POWERS = range(1, 9)

# window_sums with limbs prefix-summed and windows rounded in blocks of
# the default size, or of 3 rows
PATHS = {
    "default blocks": {"PREFIX_BLOCK_ROWS": sums.PREFIX_BLOCK_ROWS},
    "3-row blocks": {"PREFIX_BLOCK_ROWS": 3},
}


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64).tolist()


def _recipes(*arrays):
    """The kernel's recipes of the given arrays: each returns its array."""
    return [lambda a=a: a for a in arrays]


def _forced(path, values, starts, lengths):
    """window_sums of a 1-d array, or of each column of a 2-d one, shaped
    as one row per window (of one sum per column)."""
    with mock.patch.multiple(sums, **PATHS[path]):
        got = window_sums(_recipes(*values.reshape(len(values), -1).T), starts, starts + lengths)
    return np.stack(got, axis=-1).reshape(np.shape(lengths) + values.shape[1:])


def _assert_matches_csum(cols, starts, lengths):
    for path in PATHS:
        got = _forced(path, cols, starts, lengths)
        assert got.shape == (len(starts), cols.shape[1])
        for w, (lo, n) in enumerate(zip(starts.tolist(), lengths.tolist())):
            for c in range(cols.shape[1]):
                want = csum(cols[lo:lo + n, c])
                assert _bits(got[w, c]) == _bits(want), (path, w, c, got[w, c], want)


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
        starts, ends = window_bounds(ts, centers, width)
        cols = np.column_stack([values ** p for p in POWERS])
        _assert_matches_csum(cols, starts, ends - starts)

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
        with pytest.raises(OverflowError):
            csum(values[2:])
        for path in PATHS:
            got = _forced(path, values, np.array([0, 2]), np.array([2, 2]))
            assert _bits(got) == _bits([math.inf, math.inf])

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

    def test_row_map_is_freed_before_the_columns(self, monkeypatch):
        # 200k rows a second apart, width 10, stride 5, two columns on one
        # CPU: the traced peak was 80 B a row while the int64 row map
        # (delta and rank, 16 B a row) lived through the column sums, 64
        # without it
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        n = 200_000
        starts, ends = window_bounds(np.arange(n, dtype=np.float64),
                                     5.0 + 5.0 * np.arange(n // 5), 10.0)
        cols = np.random.default_rng(0).uniform(1.0, 2.0, (2, n))
        tracemalloc.start()
        try:
            window_sums(_recipes(*cols), starts, ends)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / n < 72


class TestWindowedSums:
    @given(_series(signed=False), _grid())
    @settings(max_examples=100, deadline=None)
    def test_bounds_and_sums_match_brute_force(self, series, grid):
        ts, values = series
        centers, width = grid
        starts, ends = window_bounds(ts, centers, width)
        counts = ends - starts
        full = counts > 0
        got = window_sums(_recipes(values, values ** 2), starts[full], ends[full])
        rows = iter(np.stack(got, axis=1).tolist())
        for c, n in zip(centers.tolist(), counts.tolist()):
            members = [i for i, t in enumerate(ts.tolist()) if c - width / 2 <= t <= c + width / 2]
            assert n == len(members)
            if n:
                assert members == list(range(members[0], members[0] + n))
                assert next(rows) == [csum(values[members]), csum(values[members] ** 2)]
        assert next(rows, None) is None

    @pytest.mark.parametrize("path", PATHS)
    def test_non_finite_windows_get_fsum_values(self, path):
        # one row a second; width-2 windows hold 2 or 3 rows: finite ones,
        # and ones with inf, -inf, both infinities, nan, or nan and -inf
        values = np.array([1.5, 2.0 ** -60, -3.0, np.inf, 4.0, -np.inf, 1e10, np.nan, -2.5,
                           7.0, 1e-3, 0.25])
        ts = np.arange(len(values), dtype=np.float64)
        centers = np.array([1.0, 2.5, 3.0, 4.0, 5.5, 6.0, 7.0, 10.0, 20.0])
        starts, ends = window_bounds(ts, centers, 2.0)
        lengths = ends - starts
        assert lengths.tolist() == [3, 2, 3, 3, 2, 3, 3, 3, 0]
        with mock.patch.multiple(sums, **PATHS[path]):
            got = window_sums(_recipes(values), starts[:-1], ends[:-1])
        want = []
        for lo, n in zip(starts[:-1].tolist(), lengths[:-1].tolist()):
            try:
                want.append(csum(values[lo:lo + n]))
            except ValueError:  # fsum's "-inf + inf"
                want.append(math.nan)
        got, want = got[0], np.array(want)
        assert np.isnan(got).tolist() == np.isnan(want).tolist() == [
            False, False, False, True, False, True, True, False]
        assert _bits(got[~np.isnan(got)]) == _bits(want[~np.isnan(want)])


def _limbs(col):
    """32-bit limbs that the exact path needs for a column's exponent span."""
    frac, exp = np.frexp(np.asarray(col, dtype=np.float64))
    exp = exp[frac != 0]
    return (int(exp.max()) - int(exp.min()) + 53 + 31) // 32


@st.composite
def _spread(draw):
    """Values of random sign from subnormals up to ~1e298, each with a
    random 53-bit mantissa; the exponent span is drawn, from one limb to
    past 60."""
    n = draw(st.integers(1, 40))
    low = draw(st.one_of(st.just(-1074), st.integers(-1074, 990)))
    high = min(990, low + draw(st.integers(0, 2064)))
    values = []
    for _ in range(n):
        frac = draw(st.integers(2 ** 52, 2 ** 53 - 1)) / 2.0 ** 53
        sign = draw(st.sampled_from([1.0, -1.0]))
        values.append(sign * math.ldexp(frac, draw(st.integers(low, high))))
    return np.array(values)


def _every_window(n):
    """Starts and lengths of every window of n rows, the empty ones too."""
    pairs = [(lo, k) for lo in range(n + 1) for k in range(n - lo + 1)]
    return np.array(pairs).T


# a chain of 53-bit all-ones mantissas that ends in one unit of its last
# bit: the sum is 2**200 exactly, and every limb below carries into the top
_CARRY_CHAIN = [(2.0 ** 53 - 1) * 2.0 ** (e - 53) for e in range(200, -70, -53)] + [2.0 ** -118]


class TestPrefixPath:
    """The exact path on every column: csum's bits, and inf, -inf or nan
    where fsum raises."""

    @given(_spread(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_exponent_spans_match_csum(self, values, data):
        starts = np.array(data.draw(st.lists(st.integers(0, len(values)), min_size=1,
                                             max_size=12)))
        lengths = np.array([data.draw(st.integers(0, len(values) - lo)) for lo in starts])
        _assert_matches_csum(values[:, None], starts, lengths)

    def test_subnormals_and_the_limb_cap(self):
        cols = {
            "subnormal": [5e-324, -1e-320, 3e-310, 2.2250738585072014e-308, -4e-323],
            "8 limbs": [2.0 ** -800, -3.0 * 2.0 ** -1000, 2.0 ** -1000, 1.5 * 2.0 ** -803],
            "9 limbs": [1.0, 2.0 ** -210, -(2.0 ** -100)],
            "subnormal to 1e300": [5e-324, 1e300, -1e300, 1e-310],
        }
        assert [_limbs(col) for col in cols.values()][1:] == [8, 9, 67]
        for col in cols.values():
            values = np.array(col)
            n = len(values)
            starts = np.array([0, 0, 1, n - 1, 2])
            _assert_matches_csum(values[:, None], starts, np.array([n, 2, n - 1, 1, 0]))

    @pytest.mark.parametrize("col", [
        # exact ties, decided by bits of the third limb from the top, just
        # below the 64 bits rounded, or more than three limbs below the top
        [1.0, 2.0 ** -53, 2.0 ** -70, -(2.0 ** -69)],
        [1.0, 2.0 ** -53, 2.0 ** -200, -(2.0 ** -199), 2.0 ** -200],
        [1.0 + 2.0 ** -52, 2.0 ** -53, -(2.0 ** -200), 2.0 ** -199, -(2.0 ** -200)],
        [-1.0, -(2.0 ** -53), -(2.0 ** -200), 2.0 ** -199],
        _CARRY_CHAIN,
        [-x for x in _CARRY_CHAIN],
        [3.0, -5.5, 2.0 ** -70, -1e10, 1e10 - 2.0 ** -30],
        # results below 2**-1022, and on the edge of the normal range
        [2.0 ** -1022, -(2.0 ** -1022 - 2.0 ** -1074), 3e-320, -(2.0 ** -1000), 2.0 ** -1000,
         -(2.0 ** -1022)],
        # sums of one unit of the column's smallest exponent, in the
        # lowest limb
        [1.0 + 2.0 ** -52, -1.0, -(1.0 + 2.0 ** -51), 1.0 + 3 * 2.0 ** -52],
        # an exponent span of 67 limbs
        [5e-324, 1e300, 2.0 ** -540, -1e300, -5e-324, 1e-310],
    ], ids=["tie, third limb", "tie", "odd tie", "negative tie", "carry", "negative carry",
            "negative sums", "subnormal results", "one-unit sums", "67 limbs"])
    def test_rounding_edge_cases_match_csum(self, col):
        _assert_matches_csum(np.array(col)[:, None], *_every_window(len(col)))

    def test_signed_cancellation_is_exact(self):
        # large terms that cancel leave a small remainder, or an exact 0
        values = np.array([2.0 ** 100, 3.0, -(2.0 ** 100), 2.0 ** -60, -3.0, -(2.0 ** -60),
                           1e16, -1e16])
        _assert_matches_csum(values[:, None], np.array([0, 0, 0, 1, 2, 6, 0]),
                             np.array([3, 4, 6, 5, 4, 2, 8]))

    def test_absolute_sum_guard(self):
        inside = np.array([2.0 ** 999, -(2.0 ** 998), 2.0 ** 997, -(2.0 ** 946)])
        _assert_matches_csum(inside[:, None], np.array([0, 1, 0]), np.array([4, 3, 2]))
        outside = np.array([2.0 ** 999, 2.0 ** 999, -(2.0 ** 999)])
        _assert_matches_csum(outside[:, None], np.array([0, 1, 0]), np.array([2, 2, 3]))
        # fsum's partials overflow, so it raises: a finite exact sum is
        # rounded, and one past the double range is inf or -inf
        overflow = np.array([1e308, 1e308, -1e308, -1e308, -1e308])
        with pytest.raises(OverflowError):
            csum(overflow[:3])
        for path in PATHS:
            got = _forced(path, overflow, np.array([0, 0, 1, 2]), np.array([3, 2, 2, 3]))
            assert _bits(got) == _bits([1e308, math.inf, 0.0, -math.inf])

    def test_non_finite_columns_follow_fsum(self):
        cases = [([1.0, np.inf, 2.0], math.inf), ([1.0, np.nan], math.nan),
                 ([-np.inf, 1.0], -math.inf)]
        for col, want in cases:
            for path in PATHS:
                got = _forced(path, np.array(col), np.array([0]), np.array([len(col)]))
                assert _bits(got) == _bits([want]) or (math.isnan(want) and math.isnan(got[0]))
        # fsum raises on inf meeting -inf; the window gets nan
        with pytest.raises(ValueError):
            csum([np.inf, -np.inf])
        for path in PATHS:
            assert math.isnan(_forced(path, np.array([np.inf, -np.inf]), np.array([0]),
                                      np.array([2]))[0])

    def test_zero_length_windows(self):
        values = np.array([1.5, -2.0 ** -60, 3e10])
        starts = np.array([0, 3, 1, 2, 0])
        lengths = np.array([0, 0, 0, 1, 3])
        for path in PATHS:
            got = _forced(path, values, starts, lengths)
            assert _bits(got) == _bits([0.0, 0.0, 0.0, 3e10, csum(values)])

    def test_negative_zero_windows_match_csum(self):
        # fsum gives +0.0 for every exact-zero sum, [-0.0] included, on
        # Python 3.10 to 3.13; the exact path must give this interpreter's
        # csum bits all the same
        values = np.array([-0.0, -0.0, 1.0, -1.0, -0.0, 0.0, 2.5, -0.0])
        starts = np.array([0, 0, 2, 0, 4, 1, 6, 7, 3])
        lengths = np.array([2, 1, 2, 4, 2, 0, 2, 1, 2])
        _assert_matches_csum(values[:, None], starts, lengths)
        zeros = np.array([-0.0, -0.0, -0.0])
        _assert_matches_csum(zeros[:, None], np.array([0, 1, 0]), np.array([3, 1, 0]))

    def test_exact_zero_windows_are_positive_zero_without_fsum(self, monkeypatch):
        # a column of zeros under 10,000 overlapping windows: every sum is
        # +0.0 from the limbs, with no per-window fsum call
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        starts = np.arange(10_000) % 900
        with mock.patch.object(math, "fsum", wraps=math.fsum) as fsum:
            got = window_sums(_recipes(np.array([-0.0, 0.0] * 500)), starts, starts + 100)[0]
        assert fsum.call_count == 0
        assert _bits(got) == _bits(np.zeros(10_000))

    def test_exact_zero_where_fsum_overflows(self):
        # fsum's partials overflow on the way to an exact 0
        values = np.array([1e308, 1e308, -1e308, -1e308])
        with pytest.raises(OverflowError):
            csum(values)
        for path in PATHS:
            assert _bits(_forced(path, values, np.array([0]), np.array([4]))) == _bits([0.0])

    @pytest.mark.parametrize("shape", ["moments-overlap", "pricevol-narrow",
                                       "returns-ndjson-wide", "identity-check", "C^8"])
    def test_benchmark_grids_take_the_exact_path(self, shape):
        """The exact path gives csum's bits on every column of the window
        grids of the benchmark workloads, on simulated trades at about one
        per second, and on C^8 of trades whose C^8 spans more than 8 limbs."""
        series = simulate_trades(SimConfig(n_trades=20000, seed=11))
        t0, t1 = series.span()
        width, stride = 200.0, 10.0
        if shape == "moments-overlap":
            summands = power_summands(series, [1, 2, 3, 4])
        elif shape == "C^8":
            series = simulate_trades(SimConfig(n_trades=1000, seed=4, volume_sigma=3.0))
            summands = power_summands(series, [8])
            assert _limbs(summands[0]()) > 8
        elif shape == "returns-ndjson-wide":
            width, stride = 2000.0, 1000.0
            series = build_returns(series, 10)
            summands = [*power_summands(series, [1, 2]), *returns_summands(series).values()]
        else:
            width, stride = (10.0, 5.0) if shape == "pricevol-narrow" else ((t1 - t0) / 16,) * 2
            summands = power_summands(series, [1, 2])
        centers = window_centers(series, width, stride)
        starts, ends = window_bounds(series.timestamps, centers, width)
        lengths = ends - starts
        full = lengths > 0
        got = np.stack(window_sums(summands, starts[full], ends[full]), axis=1)
        columns = [recipe() for recipe in summands]
        want = [[csum(s[lo:lo + n]) for s in columns]
                for lo, n in zip(starts[full].tolist(), lengths[full].tolist())]
        assert _bits(got) == _bits(want)


def test_fsum_of_an_exact_zero_is_positive_zero():
    # window_sums gives every exact-zero window +0.0, so csum must too: a
    # Python whose fsum keeps a sign of zero fails here by name. Pairs x,
    # -x with signed zeros mixed in, and all--0.0 inputs; no numpy
    rng = random.Random(31)
    sums = [math.fsum([]), math.fsum([-0.0]), math.fsum([-0.0] * 3)]
    for _ in range(20_000):
        xs = [rng.uniform(-1.0, 1.0) * 2.0 ** rng.randint(-1074, 1000)
              for _ in range(rng.randint(0, 4))]
        values = xs + [-x for x in xs] + rng.choices([0.0, -0.0], k=rng.randint(0, 3))
        rng.shuffle(values)
        sums.append(math.fsum(values))
    assert {(x, math.copysign(1.0, x)) for x in sums} == {(0.0, 1.0)}
