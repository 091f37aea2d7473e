"""Volume-weighted price moments over averaging windows.

For a window holding trades (C_i, V_i), the degree-n aggregates are

    cost_sum(n)   = sum_i C_i^n
    volume_sum(n) = sum_i V_i^n

and the degree-n price moment is their ratio

    p(n) = cost_sum(n) / volume_sum(n),

the n-th-power generalization of VWAP (p(1) is VWAP itself). All sums are
exact compensated sums in ascending index order, so results are
deterministic and independent of any parallel window schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ConfigError, DegreeOutOfRangeError, EmptyWindowError
from .sums import csum, windowed_sums
from .trades import TradeSeries, WindowSpec, WindowView

# C^n overflows double range for large prices at high n; the default cap
# keeps desk-scale data safe and the hard limit is a sanity stop.
DEFAULT_DEGREE_CAP = 8
MAX_DEGREE = 16

# Largest window grid window_centers builds, so that a stride far below
# the trade spacing (1e-12 s over a day gives ~1e17 windows) is refused
# before the centers array is allocated. A moments table takes ~850 B of
# peak memory per window (measured for degrees 1,2 written as CSV), so a
# grid at the cap already needs most of a terabyte: no grid that fits in
# memory is refused.
MAX_WINDOWS = 1_000_000_000


def check_degree(n: int, degree_cap: int | None = None) -> None:
    """Raise DegreeOutOfRangeError unless 1 <= n <= cap (cap <= 16)."""
    cap = DEFAULT_DEGREE_CAP if degree_cap is None else degree_cap
    if not 1 <= cap <= MAX_DEGREE:
        raise DegreeOutOfRangeError(
            f"degree cap must be in [1, {MAX_DEGREE}], got {cap}"
        )
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise DegreeOutOfRangeError(f"degree must be an integer, got {n!r}")
    if not 1 <= n <= cap:
        raise DegreeOutOfRangeError(f"degree {n} outside [1, {cap}]")


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


def power_summands(costs, volumes, degrees) -> list:
    """C^n for each degree, then V^n for each degree: the moment summands."""
    return ([costs if n == 1 else costs ** n for n in degrees]
            + [volumes if n == 1 else volumes ** n for n in degrees])


def aggregate_degree(view: WindowView, n: int, *, degree_cap: int | None = None) -> tuple[float, float]:
    """(sum of C^n, sum of V^n) over a window.

    Raises EmptyWindowError on an empty view and DegreeOutOfRangeError when
    n exceeds the cap.
    """
    if len(view) == 0:
        raise EmptyWindowError(f"window at t={view.center} is empty")
    check_degree(n, degree_cap)
    cost_n, volume_n = power_summands(view.costs, view.volumes, [n])
    return csum(cost_n), csum(volume_n)


def price_moment(view: WindowView, n: int, *, degree_cap: int | None = None) -> float:
    """Degree-n price moment p(n) = sum(C^n) / sum(V^n)."""
    cost_n, volume_n = aggregate_degree(view, n, degree_cap=degree_cap)
    return cost_n / volume_n


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
    if len(view) == 0:
        raise EmptyWindowError(f"window at t={view.center} is empty")
    return csum(view.prices) / len(view)


def collect_price_moments(
    view: WindowView,
    degrees: Iterable[int],
    *,
    degree_cap: int | None = None,
) -> PriceMoments:
    """PriceMoments record for one window; empty windows get no entries."""
    degs = sorted(set(int(n) for n in degrees))
    if len(view) == 0:
        return PriceMoments(view.spec, 0, {})
    entries: dict[int, tuple[float, float, float]] = {}
    for n in degs:
        cost_n, volume_n = aggregate_degree(view, n, degree_cap=degree_cap)
        entries[n] = (cost_n, volume_n, cost_n / volume_n)
    return PriceMoments(view.spec, len(view), entries)


def window_centers(series: TradeSeries, width: float, stride: float) -> np.ndarray:
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


def moment_sums(series: TradeSeries, centers, width: float, degrees) -> tuple:
    """Trade counts of every window, and the power_summands sums of the
    non-empty ones (columns C^n per degree, then V^n per degree)."""
    summands = power_summands(series.costs, series.volumes, degrees)
    return windowed_sums(series.timestamps, centers, width, summands)


def rolling_moments(
    series: TradeSeries,
    width: float,
    stride: float,
    degrees: Iterable[int],
    *,
    degree_cap: int | None = None,
) -> list[PriceMoments]:
    """Evaluate collect_price_moments on the rolling window grid.

    Empty windows yield records flagged empty (n_trades == 0, no
    entries) rather than being dropped, so the output grid is regular.
    """
    degs = sorted(set(int(n) for n in degrees))
    for n in degs:
        check_degree(n, degree_cap)
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
