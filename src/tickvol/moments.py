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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ConfigError, DegreeOutOfRangeError
from .sums import csum, windowed_sums
from .trades import PairSeries, WindowSpec, WindowView, item_count

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


@dataclass(frozen=True)
class PriceMoments:
    """Per-window price moments for a set of degrees.

    entries maps degree n to (cost_sum, volume_sum, moment); the moment is
    stored exactly as the division cost_sum/volume_sum. An empty window
    yields n_trades == 0 and no entries.
    """

    window: WindowSpec
    n_trades: int
    entries: dict[int, tuple[float, float, float]]

    @property
    def empty(self) -> bool:
        return self.n_trades == 0

    def moment(self, n: int) -> float:
        return self.entries[n][2]


def power_summands(a, b, degrees) -> list:
    """a^n for each degree, then b^n for each degree: the moment summands."""
    return ([a if n == 1 else a ** n for n in degrees]
            + [b if n == 1 else b ** n for n in degrees])


def aggregate_degree(view: WindowView, n: int) -> tuple[float, float]:
    """(sum of a^n, sum of b^n) over a window or stream: C^n and V^n for
    trades (returns.returns_aggregate is this function).

    Raises EmptyWindowError on an empty view and DegreeOutOfRangeError when
    n exceeds the cap.
    """
    item_count(view)
    check_degree(n)
    a_n, b_n = power_summands(view.a, view.b, [n])
    return csum(a_n), csum(b_n)


def price_moment(view: WindowView, n: int) -> float:
    """Degree-n moment sum(a^n) / sum(b^n): the price moment p(n) of
    trades (returns.returns_moment is this function)."""
    a_n, b_n = aggregate_degree(view, n)
    return a_n / b_n


def vwap(view: WindowView) -> float:
    """Volume weighted average price, sum(C)/sum(V).

    Identical code path to price_moment(view, 1), so the two agree
    bit-for-bit.
    """
    return price_moment(view, 1)


def simple_average_price(view: WindowView) -> float:
    """Plain arithmetic mean of per-trade prices (the classical baseline).

    Weights every trade equally, unlike VWAP; the two coincide only when
    all volumes are equal.
    """
    return csum(view.prices) / item_count(view)


def collect_price_moments(view: WindowView, degrees: Iterable[int]) -> PriceMoments:
    """PriceMoments record for one window; empty windows get no entries."""
    degs = sorted(set(int(n) for n in degrees))
    if len(view) == 0:
        return PriceMoments(view.spec, 0, {})
    entries: dict[int, tuple[float, float, float]] = {}
    for n in degs:
        cost_n, volume_n = aggregate_degree(view, n)
        entries[n] = (cost_n, volume_n, cost_n / volume_n)
    return PriceMoments(view.spec, len(view), entries)


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
    summands = power_summands(series.a, series.b, degrees)
    return windowed_sums(series.timestamps, centers, width, summands)


def rolling_moments(series: PairSeries, width: float, stride: float,
                    degrees: Iterable[int]) -> list[PriceMoments]:
    """Evaluate collect_price_moments on the rolling window grid.

    Empty windows yield records flagged empty (n_trades == 0, no
    entries) rather than being dropped, so the output grid is regular.
    """
    degs = sorted(set(int(n) for n in degrees))
    for n in degs:
        check_degree(n)
    centers = window_centers(series, width, stride)
    counts, sums = moment_sums(series, centers, width, degs)
    rows = iter(sums.tolist())
    out = []
    for center, count in zip(centers.tolist(), counts.tolist()):
        entries = {}
        if count:
            row = next(rows)
            for n, c, v in zip(degs, row, row[len(degs):]):
                entries[n] = (c, v, c / v)
        out.append(PriceMoments(WindowSpec(center, width), count, entries))
    return out
