"""Stream domain model: the validated (timestamp, a, b) stream and its windows.

Every statistic in this package is a ratio of sums over a time-stamped
stream of numerator/denominator pairs (a, b), both finite and strictly
positive. Trades carry a = cost and b = volume, so the per-trade price
a/b is always defined and positive; lag-m returns records carry
a = cost ratio and b = volume ratio (returns.ReturnsSet).

A PairSeries keeps a stream time-sorted as three aligned read-only numpy
columns, validated once by _validate_columns; TradeSeries and ReturnsSet
are PairSeries. A WindowView is a zero-copy slice of any stream covering
one averaging window [center - width/2, center + width/2], inclusive at
both ends (an item sitting exactly on a window edge is a member). The
per-window functions sum a view or a whole stream (see moments.item_sums).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class WindowSpec:
    """Averaging window: center time t and width (must be > 0)."""

    center: float
    width: float

    def __post_init__(self):
        if not (self.width > 0):
            raise ValueError(f"window width must be positive, got {self.width}")


def _validate_columns(ts: np.ndarray, a: np.ndarray, b: np.ndarray,
                      labels: tuple[str, str, str]) -> None:
    """Raise ValidationError naming the first offending input row; labels
    name the row, a and b in it, e.g. ("trade", "cost", "volume")."""
    bad_t = ~np.isfinite(ts)
    bad_b = ~(np.isfinite(b) & (b > 0))
    bad_a = ~(np.isfinite(a) & (a > 0))
    bad_any = bad_t | bad_b | bad_a
    if not bad_any.any():
        return
    i = int(np.flatnonzero(bad_any)[0])
    row, a_name, b_name = labels
    if bad_t[i]:
        raise ValidationError(f"{row} {i}: timestamp must be finite (got {float(ts[i])})")
    if bad_b[i]:
        raise ValidationError(f"{row} {i}: {b_name} must be positive (got {float(b[i])})")
    raise ValidationError(f"{row} {i}: {a_name} must be positive (got {float(a[i])})")


class PairSeries:
    """Immutable, time-sorted (timestamp, a, b) stream as three aligned
    read-only float64 columns, safe for unrestricted concurrent reads.

    Rows are validated in input order (errors name the offending row),
    then stably sorted: equal timestamps keep input order, which pins the
    floating-point result of every downstream sum.
    """

    __slots__ = ("timestamps", "a", "b")
    _labels = ("row", "a", "b")

    def __init__(self, timestamps, a, b):
        ts, av, bv = (np.array(x, dtype=np.float64, copy=True) for x in (timestamps, a, b))
        if not (ts.ndim == av.ndim == bv.ndim == 1 and len(ts) == len(av) == len(bv)):
            raise ValueError("timestamps, a, b must be 1-d arrays of equal length")
        _validate_columns(ts, av, bv, self._labels)
        if np.any(ts[1:] < ts[:-1]):  # a stable sort of sorted rows is the identity
            order = np.argsort(ts, kind="stable")
            ts, av, bv = ts[order], av[order], bv[order]
        self._store(timestamps=ts, a=av, b=bv)

    def _store(self, **fields) -> None:
        """Set the named fields, arrays read-only, without validating them.

        The only setter: assigning to a field afterwards raises.
        """
        for name, value in fields.items():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot delete {name!r}")

    def __len__(self) -> int:
        return len(self.timestamps)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={len(self)})"

    def span(self) -> tuple[float, float]:
        """(first, last) timestamp; raises on an empty series."""
        if len(self) == 0:
            raise ValueError("empty series has no time span")
        return float(self.timestamps[0]), float(self.timestamps[-1])

    @staticmethod
    def from_trades(series: "TradeSeries") -> "PairSeries":
        """A trade series is already the cost/volume pair stream."""
        return series


class TradeSeries(PairSeries):
    """The trade stream: a = cost, b = volume; errors name the trade."""

    __slots__ = ()
    _labels = ("trade", "cost", "volume")
    costs, volumes = PairSeries.a, PairSeries.b  # the a and b columns by name

    @property
    def prices(self) -> np.ndarray:
        return self.a / self.b


def validate_series(raw_trades: Iterable[tuple[float, float, float]]) -> TradeSeries:
    """Build a TradeSeries from raw (timestamp, cost, volume) rows.

    Rows are checked in input order (errors name the offending row),
    then stably sorted by timestamp.
    """
    rows = list(raw_trades)
    arr = np.asarray(rows, dtype=np.float64) if rows else np.empty((0, 3))
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValidationError("each raw trade must be a (timestamp, cost, volume) triple")
    return TradeSeries(arr[:, 0], arr[:, 1], arr[:, 2])


@dataclass(frozen=True)
class WindowView:
    """Members of one averaging window of a stream, as a contiguous index range.

    The stream is time-sorted, so the items inside the window are exactly
    rows start:stop of its columns; the view holds no copies.
    """

    series: PairSeries
    start: int
    stop: int
    spec: WindowSpec

    @property
    def timestamps(self) -> np.ndarray:
        return self.series.timestamps[self.start:self.stop]

    @property
    def a(self) -> np.ndarray:
        return self.series.a[self.start:self.stop]

    @property
    def b(self) -> np.ndarray:
        return self.series.b[self.start:self.stop]

    @property
    def prices(self) -> np.ndarray:
        return self.a / self.b

    def __len__(self) -> int:
        return self.stop - self.start


def window_bounds(timestamps: np.ndarray, centers, width: float) -> tuple:
    """(first index, member count) of every window [c - width/2, c + width/2].

    Both ends inclusive, over sorted timestamps; centers may be a scalar
    or an array, and all windows are located by one searchsorted per edge.
    """
    half = width / 2
    lo = np.searchsorted(timestamps, centers - half, side="left")
    hi = np.searchsorted(timestamps, centers + half, side="right")
    return lo, np.maximum(hi - lo, 0)


def select_window(series: PairSeries, spec: WindowSpec) -> WindowView:
    """All items with center - width/2 <= t_i <= center + width/2.

    Both ends inclusive. An empty view is legal; consumers decide whether
    that is an error.
    """
    lo, count = window_bounds(series.timestamps, spec.center, spec.width)
    return WindowView(series, int(lo), int(lo + count), spec)
