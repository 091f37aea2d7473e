"""Trade domain model: validated trade series and averaging windows.

A trade is the atomic input of every statistic in this package: a
(timestamp, cost, volume) triple with cost and volume strictly positive,
so the per-trade price cost/volume is always defined and positive.

A TradeSeries keeps the trades time-sorted and stores them as numpy
arrays; a WindowView is a zero-copy slice of a series covering one
averaging window [center - width/2, center + width/2], inclusive at both
ends (a trade sitting exactly on a window edge is a member).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class Trade:
    """One market transaction.

    index is the 0-based position in the (time-sorted) parent series.
    """

    index: int
    timestamp: float
    cost: float
    volume: float

    @property
    def price(self) -> float:
        return self.cost / self.volume


def price_of(trade: Trade) -> float:
    """Per-trade price: cost divided by volume."""
    return trade.cost / trade.volume


@dataclass(frozen=True)
class WindowSpec:
    """Averaging window: center time t and width (must be > 0)."""

    center: float
    width: float

    def __post_init__(self):
        if not (self.width > 0):
            raise ValueError(f"window width must be positive, got {self.width}")

    @property
    def lo(self) -> float:
        return self.center - self.width / 2

    @property
    def hi(self) -> float:
        return self.center + self.width / 2


def _validate_columns(ts: np.ndarray, costs: np.ndarray, volumes: np.ndarray) -> None:
    """Raise ValidationError naming the first offending input row."""
    bad_t = ~np.isfinite(ts)
    bad_v = ~(np.isfinite(volumes) & (volumes > 0))
    bad_c = ~(np.isfinite(costs) & (costs > 0))
    bad_any = bad_t | bad_v | bad_c
    if not bad_any.any():
        return
    i = int(np.flatnonzero(bad_any)[0])
    if bad_t[i]:
        raise ValidationError(f"trade {i}: timestamp must be finite (got {ts[i]!r})")
    if bad_v[i]:
        raise ValidationError(f"trade {i}: volume must be positive (got {volumes[i]!r})")
    raise ValidationError(f"trade {i}: cost must be positive (got {costs[i]!r})")


class TradeSeries(Sequence[Trade]):
    """Immutable, time-sorted trade sequence.

    Internally three aligned float64 arrays (timestamps, costs, volumes);
    Trade objects are materialized on demand. Arrays are read-only, so a
    series is safe for unrestricted concurrent reads.
    """

    __slots__ = ("timestamps", "costs", "volumes")

    def __init__(self, timestamps, costs, volumes, _presorted: bool = False):
        ts = np.array(timestamps, dtype=np.float64, copy=True)
        cs = np.array(costs, dtype=np.float64, copy=True)
        vs = np.array(volumes, dtype=np.float64, copy=True)
        if not (ts.ndim == cs.ndim == vs.ndim == 1 and len(ts) == len(cs) == len(vs)):
            raise ValueError("timestamps, costs, volumes must be 1-d arrays of equal length")
        _validate_columns(ts, cs, vs)
        if not _presorted:
            # stable: equal timestamps keep input order, which pins the
            # floating-point result of every downstream sum
            order = np.argsort(ts, kind="stable")
            ts, cs, vs = ts[order], cs[order], vs[order]
        for arr in (ts, cs, vs):
            arr.setflags(write=False)
        self.timestamps = ts
        self.costs = cs
        self.volumes = vs

    @property
    def prices(self) -> np.ndarray:
        return self.costs / self.volumes

    def __len__(self) -> int:
        return len(self.timestamps)

    def __getitem__(self, i) -> Trade:
        if isinstance(i, slice):
            raise TypeError("TradeSeries does not support slicing; use select_window")
        i = int(i)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(i)
        return Trade(i, float(self.timestamps[i]), float(self.costs[i]), float(self.volumes[i]))

    def __iter__(self) -> Iterator[Trade]:
        for i in range(len(self)):
            yield self[i]

    def __repr__(self) -> str:
        return f"TradeSeries(n={len(self)})"

    def span(self) -> tuple[float, float]:
        """(first, last) timestamp; raises on an empty series."""
        if len(self) == 0:
            raise ValueError("empty series has no time span")
        return float(self.timestamps[0]), float(self.timestamps[-1])


def validate_series(raw_trades: Iterable[tuple[float, float, float]]) -> TradeSeries:
    """Build a TradeSeries from raw (timestamp, cost, volume) rows.

    Rows are checked in input order (errors name the offending row),
    then stably sorted by timestamp; indices are assigned after sorting.
    """
    rows = list(raw_trades)
    if not rows:
        return TradeSeries(np.empty(0), np.empty(0), np.empty(0), _presorted=True)
    arr = np.asarray(rows, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValidationError("each raw trade must be a (timestamp, cost, volume) triple")
    return TradeSeries(arr[:, 0], arr[:, 1], arr[:, 2])


@dataclass(frozen=True)
class WindowView:
    """Members of one averaging window, as a contiguous index range.

    The series is time-sorted, so the trades inside [lo, hi] are exactly
    series[start:stop]; the view holds no copies.
    """

    series: TradeSeries
    start: int
    stop: int
    spec: WindowSpec

    @property
    def members(self) -> range:
        return range(self.start, self.stop)

    @property
    def center(self) -> float:
        return self.spec.center

    @property
    def width(self) -> float:
        return self.spec.width

    @property
    def timestamps(self) -> np.ndarray:
        return self.series.timestamps[self.start:self.stop]

    @property
    def costs(self) -> np.ndarray:
        return self.series.costs[self.start:self.stop]

    @property
    def volumes(self) -> np.ndarray:
        return self.series.volumes[self.start:self.stop]

    @property
    def prices(self) -> np.ndarray:
        return self.costs / self.volumes

    def __len__(self) -> int:
        return self.stop - self.start

    def trades(self) -> list[Trade]:
        return [self.series[i] for i in self.members]


def window_bounds(timestamps: np.ndarray, centers, width: float) -> tuple:
    """(first index, member count) of every window [c - width/2, c + width/2].

    Both ends inclusive, over sorted timestamps; centers may be a scalar
    or an array, and all windows are located by one searchsorted per edge.
    """
    half = width / 2
    lo = np.searchsorted(timestamps, centers - half, side="left")
    hi = np.searchsorted(timestamps, centers + half, side="right")
    return lo, np.maximum(hi - lo, 0)


def select_window(series: TradeSeries, spec: WindowSpec) -> WindowView:
    """All trades with center - width/2 <= t_i <= center + width/2.

    Both ends inclusive. An empty view is legal; consumers decide whether
    that is an error.
    """
    lo, count = window_bounds(series.timestamps, spec.center, spec.width)
    return WindowView(series, int(lo), int(lo + count), spec)


def trade_count(view: WindowView) -> int:
    """Number of trades in the window."""
    return len(view)
