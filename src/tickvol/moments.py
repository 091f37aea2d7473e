"""Volume-weighted price moments over averaging windows.

For a window holding trades (C_i, V_i), the degree-n aggregates are

    cost_sum(n)   = sum_i C_i^n
    volume_sum(n) = sum_i V_i^n

and the degree-n price moment is their ratio

    p(n) = cost_sum(n) / volume_sum(n),

the n-th-power generalization of VWAP (p(1) is VWAP itself). The
functions read the a (cost) and b (volume) columns of any stream or
window, so over returns records they give the returns moments
q(n) = sum(cost_ratio^n) / sum(volume_ratio^n) (see returns). All sums
are exact compensated sums in ascending index order, so results are
deterministic and independent of any parallel window schedule.

Summands are recipes, zero-argument callables that return a column. Every
per-window sum of the library goes through item_sums, which alone raises
EmptyWindowError for an empty window and NonFiniteError for a sum past
the double range or a divisor the caller names that underflows to 0;
every per-window result, a moment p(n) included, through finite, which
raises NonFiniteError where it is inf or nan. Every window table, for
each table command and charfun_truncated alike, goes through
moment_table.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from .errors import ConfigError, DegreeOutOfRangeError, EmptyWindowError, NonFiniteError
from .sums import csum, window_sums
from .trades import PairSeries, window_bounds

# Highest moment degree (and charfun truncation order): C^n overflows the
# double range for large prices at high n.
DEFAULT_DEGREE_CAP = 8

# Largest window grid window_centers builds, so that a stride far below
# the trade spacing (1e-12 s over a day gives ~1e17 windows) is refused
# before the centers array is allocated. A moments table takes ~850 B of
# peak memory per window (measured for degrees 1,2 written as CSV), so a
# grid at the cap already needs most of a terabyte: no grid that fits in
# memory is refused.
MAX_WINDOWS = 1_000_000_000


def check_degree(n: int) -> None:
    """Raise DegreeOutOfRangeError unless 1 <= n <= DEFAULT_DEGREE_CAP."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise DegreeOutOfRangeError(f"degree must be an integer, got {n!r}")
    if not 1 <= n <= DEFAULT_DEGREE_CAP:
        raise DegreeOutOfRangeError(f"degree {n} outside [1, {DEFAULT_DEGREE_CAP}]")


def power_summands(stream, degrees) -> list:
    """Recipes of a^n, then b^n, for each degree: the moment summands of a stream or window."""
    return [lambda x=x, n=n: x if n == 1 else x ** n for x in (stream.a, stream.b) for n in degrees]


def item_sums(window, summands, *args, divisors=()) -> tuple:
    """(n, csum of each recipe's array in summands(window, *args)) of a window or stream.

    EmptyWindowError for an empty window; recipes run with numpy's
    warnings off, so a power or sum past the double range first shows as
    NonFiniteError. divisors holds (result name, sum index) pairs, the
    index counting from the first sum: NonFiniteError where such a sum
    underflows to 0, as sum(b^n) does for volumes near 1e-200."""
    n = len(window)
    if n == 0:
        raise EmptyWindowError(f"{window!r} is empty")
    with np.errstate(all="ignore"):
        columns = [recipe() for recipe in summands(window, *args)]
    try:
        sums = [csum(x) for x in columns]
    except (OverflowError, ValueError):  # fsum's partials overflow, or inf meets -inf
        sums = [math.inf]
    finite(window, ["a sum"] * len(sums), sums)
    for name, k in divisors:
        if sums[k] == 0:
            raise NonFiniteError(f"{name} over {window!r} divides by a sum that underflows to 0")
    return (n, *sums)


def finite(where, names, values) -> list[float]:
    """values as floats; NonFiniteError naming the first (by names) that
    is inf or nan, and the window or stats it is computed over. A value
    can overflow while every sum is finite: phi_a2 does for one cost of
    1.3e154, p(2) for two trades of cost 1e150 and volume 1e-10."""
    values = [float(value) for value in values]
    for name, value in zip(names, values):
        if not math.isfinite(value):
            raise NonFiniteError(f"{name} over {where!r} overflows the double range")
    return values


def aggregate_degree(view: PairSeries, n: int) -> tuple[float, float]:
    """(sum of a^n, sum of b^n) over a window or stream: C^n and V^n for
    trades. Raises DegreeOutOfRangeError when n exceeds the cap."""
    check_degree(n)
    return item_sums(view, power_summands, [n])[1:]


def price_moment(view: PairSeries, n: int) -> float:
    """Degree-n moment sum(a^n) / sum(b^n): the price moment p(n) of
    trades (returns.returns_moment is this function)."""
    check_degree(n)
    _, a_n, b_n = item_sums(view, power_summands, [n], divisors=[(f"p({n})", 1)])
    return finite(view, [f"p({n})"], [a_n / b_n])[0]


def vwap(view: PairSeries) -> float:
    """Volume weighted average price sum(C)/sum(V): price_moment(view, 1),
    bit for bit."""
    return price_moment(view, 1)


def simple_average_price(view: PairSeries) -> float:
    """Plain arithmetic mean of per-trade prices (the classical baseline).

    Weights every trade equally, unlike VWAP; the two coincide only when
    all volumes are equal.
    """
    n, total = item_sums(view, lambda w: [lambda: w.a / w.b])
    return total / n


def collect_price_moments(view: PairSeries, degrees: Iterable[int]) -> dict:
    """{n: (cost_sum, volume_sum, moment)} of one window, each moment
    stored exactly as the division cost_sum/volume_sum; empty for an
    empty window."""
    degs = sorted(set(int(n) for n in degrees))
    for n in degs:
        check_degree(n)
    if len(view) == 0:
        return {}
    k = len(degs)
    _, *sums = item_sums(view, power_summands, degs,
                         divisors=[(f"p({n})", k + i) for i, n in enumerate(degs)])
    moments = finite(view, [f"p({n})" for n in degs], [c / v for c, v in zip(sums, sums[k:])])
    return {n: (c, v, p) for n, c, v, p in zip(degs, sums, sums[k:], moments)}


def window_centers(series: PairSeries, width: float, stride: float) -> np.ndarray:
    """Rolling window centers over the series time span.

    Centers start at the first trade's timestamp plus width/2 and advance
    by stride while the window's left edge still lies at or before the
    last trade. Anchoring to the data keeps output independent of the
    absolute epoch. ValueError for a width or stride that is not positive
    and finite, NonFiniteError for a center past the double range.
    """
    if not 0 < width < math.inf:
        raise ValueError("width must be positive and finite")
    if not 0 < stride < math.inf:
        raise ValueError("stride must be positive and finite")
    if len(series) == 0:
        return np.empty(0)
    t0, t1 = series.span()
    span = t1 - t0
    steps = span / stride
    k = int(math.floor(steps)) if steps < MAX_WINDOWS else MAX_WINDOWS
    # guard against float fuzz on the boundary step
    while k < MAX_WINDOWS and (k + 1) * stride <= span:
        k += 1
    while k > 0 and k * stride > span:
        k -= 1
    if k + 1 > MAX_WINDOWS:
        raise ConfigError(
            f"a {span:g} s span at stride {stride:g} gives more than {MAX_WINDOWS} windows"
        )
    with np.errstate(over="ignore"):  # centers increase: the last is checked below
        centers = t0 + width / 2 + stride * np.arange(k + 1, dtype=np.float64)
    if not np.isfinite(centers[-1]):
        raise NonFiniteError(f"window center {centers[-1]} overflows the double range "
                             f"(last trade at t={t1}); rescale the input units")
    return centers


def moment_table(stream: PairSeries, centers, width: float, degrees, **extras) -> tuple:
    """Item counts of every window and, for the non-empty ones, the columns C{n}, V{n}
    and p{n} = C{n}/V{n} of each degree, then the sums of each extra recipe by its
    name, from one kernel call and unchecked: inf, nan and 0 are the caller's."""
    with np.errstate(all="ignore"):
        starts, counts = window_bounds(stream.timestamps, centers, width)
        full = counts > 0
        sums = window_sums([*power_summands(stream, degrees), *extras.values()],
                           starts[full], counts[full])
        columns = {}
        for n, c, v in zip(degrees, sums.T, sums.T[len(degrees):]):
            columns.update({f"C{n}": c, f"V{n}": v, f"p{n}": c / v})
    return counts, {**columns, **dict(zip(extras, sums.T[2 * len(degrees):]))}

