"""Stream domain model: the validated (timestamp, a, b) stream and its windows.

Every statistic in this package is a ratio of sums over a time-stamped
stream of numerator/denominator pairs (a, b), both finite and strictly
positive. Trades carry a = cost and b = volume, so the per-trade price
a/b is always defined and positive; lag-m returns records carry
a = cost ratio and b = volume ratio (returns.ReturnsSet).

A PairSeries keeps a stream time-sorted as three aligned read-only numpy
columns, validated once by _validate_columns; TradeSeries and ReturnsSet
are PairSeries. A window is a stream too: select_window cuts the rows of
one averaging window [center - width/2, center + width/2], inclusive at
both ends (an item sitting exactly on a window edge is a member), as a
stream of the same class whose columns are zero-copy views. So every
per-window function takes a window or a whole stream alike (see
moments.item_sums).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class WindowSpec:
    """Averaging window: center time t and width (positive and finite)."""

    center: float
    width: float

    def __post_init__(self):
        if not 0 < self.width < np.inf:
            raise ValueError(f"window width must be positive and finite, got {self.width}")


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

    __slots__ = ("timestamps", "a", "b", "_whole")
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
        span = ", t={!r}..{!r}".format(*self.span()) if len(self) else ""
        return f"{type(self).__name__}(n={len(self)}{span})"

    @property
    def series(self) -> "PairSeries":
        """The whole stream this one was cut from; itself when whole."""
        return getattr(self, "_whole", self)

    def _rows(self, lo: int, hi: int) -> "PairSeries":
        """Rows lo:hi as a stream of the same class, not validated again:
        every column a zero-copy read-only view, every scalar field (such
        as ReturnsSet.lag) copied."""
        fields = {name: getattr(self, name) for cls in type(self).__mro__
                  for name in getattr(cls, "__slots__", ()) if name != "_whole"}
        part = object.__new__(type(self))
        part._store(_whole=self.series, **{
            name: value[lo:hi] if isinstance(value, np.ndarray) else value
            for name, value in fields.items()})
        return part

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


def window_bounds(timestamps: np.ndarray, centers, width: float) -> tuple:
    """(lo, hi) of every window [c - width/2, c + width/2] over sorted timestamps:
    rows lo:hi are its members, both ends inclusive. lo counts the timestamps below
    c - width/2 and hi those at or below c + width/2; the first edge is never above the
    second, so hi >= lo for every center (a nan center gives len(timestamps) for both).
    centers may be a scalar or an array; one searchsorted per edge locates all windows."""
    half = width / 2
    lo = np.searchsorted(timestamps, centers - half, side="left")
    hi = np.searchsorted(timestamps, centers + half, side="right")
    return lo, hi


def select_window(series: PairSeries, spec: WindowSpec) -> PairSeries:
    """All items with center - width/2 <= t_i <= center + width/2: rows lo:hi of
    window_bounds, as a zero-copy slice of the same class as series (PairSeries._rows).

    Both ends inclusive. An empty window is legal; consumers decide
    whether that is an error.
    """
    lo, hi = window_bounds(series.timestamps, spec.center, spec.width)
    return series._rows(int(lo), int(hi))
