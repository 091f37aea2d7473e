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

Every per-window sum of the library, here and in volatility and returns,
goes through item_sums, which alone raises EmptyWindowError for an empty
window and NonFiniteError for a sum past the double range.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from .errors import ConfigError, DegreeOutOfRangeError, EmptyWindowError, NonFiniteError
from .sums import csum, windowed_sums
from .trades import PairSeries, WindowView

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
    """a^n, then b^n, for each degree: the moment summands of a stream or window."""
    a, b = stream.a, stream.b
    return [a if n == 1 else a ** n for n in degrees] + [b if n == 1 else b ** n for n in degrees]


def item_sums(window, summands, *args) -> tuple:
    """(n, csum of each array of summands(window, *args)) of a window or stream.

    EmptyWindowError for an empty window; summands run with numpy's
    warnings off, so a power or sum past the double range first shows as
    NonFiniteError."""
    n = len(window)
    if n == 0:
        raise EmptyWindowError(f"{window!r} is empty")
    with np.errstate(all="ignore"):
        columns = summands(window, *args)
    try:
        sums = [csum(x) for x in columns]
    except (OverflowError, ValueError):  # fsum's partials overflow, or inf meets -inf
        sums = [math.inf]
    if not all(map(math.isfinite, sums)):
        raise NonFiniteError(f"a sum over {window!r} overflows the double range")
    return (n, *sums)


def aggregate_degree(view: WindowView, n: int) -> tuple[float, float]:
    """(sum of a^n, sum of b^n) over a window or stream: C^n and V^n for
    trades. Raises DegreeOutOfRangeError when n exceeds the cap."""
    check_degree(n)
    return item_sums(view, power_summands, [n])[1:]


def price_moment(view: WindowView, n: int) -> float:
    """Degree-n moment sum(a^n) / sum(b^n): the price moment p(n) of
    trades (returns.returns_moment is this function)."""
    a_n, b_n = aggregate_degree(view, n)
    return a_n / b_n


def vwap(view: WindowView) -> float:
    """Volume weighted average price sum(C)/sum(V): price_moment(view, 1),
    bit for bit."""
    return price_moment(view, 1)


def simple_average_price(view: WindowView) -> float:
    """Plain arithmetic mean of per-trade prices (the classical baseline).

    Weights every trade equally, unlike VWAP; the two coincide only when
    all volumes are equal.
    """
    n, total = item_sums(view, lambda w: [w.prices])
    return total / n


def collect_price_moments(view: WindowView, degrees: Iterable[int]) -> dict:
    """{n: (cost_sum, volume_sum, moment)} of one window, each moment
    stored exactly as the division cost_sum/volume_sum; empty for an
    empty window."""
    degs = sorted(set(int(n) for n in degrees))
    for n in degs:
        check_degree(n)
    if len(view) == 0:
        return {}
    _, *sums = item_sums(view, power_summands, degs)
    return {n: (c, v, c / v) for n, c, v in zip(degs, sums, sums[len(degs):])}


def window_centers(series: PairSeries, width: float, stride: float) -> np.ndarray:
    """Rolling window centers over the series time span.

    Centers start at the first trade's timestamp plus width/2 and advance
    by stride while the window's left edge still lies at or before the
    last trade. Anchoring to the data keeps output independent of the
    absolute epoch.
    """
    if not width > 0:
        raise ValueError("width must be positive")
    if not stride > 0:
        raise ValueError("stride must be positive")
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
    return t0 + width / 2 + stride * np.arange(k + 1, dtype=np.float64)


def moment_sums(series: PairSeries, centers, width: float, degrees) -> tuple:
    """Trade counts of every window, and the power_summands sums of the
    non-empty ones (columns C^n per degree, then V^n per degree)."""
    return windowed_sums(series.timestamps, centers, width, power_summands(series, degrees))

