"""Lag-m trade returns and their volume-weighted statistical moments.

A lag-m record pairs trade i with trade i-m by series index (the m-th
previous trade, not a wall-clock offset) and carries three ratios:

    price_ratio  = p_i / p_{i-m}      (= 1 + simple return)
    cost_ratio   = C_i / C_{i-m}
    volume_ratio = V_i / V_{i-m}

which satisfy cost_ratio = price_ratio * volume_ratio, the returns analog
of C = p V. Degree-n returns moments mirror the price moments:

    q(n) = sum(cost_ratio^n) / sum(volume_ratio^n)

(q(1) is the volume-returns-weighted average return plus one; q(2) its
squared-weights counterpart). The returns volatility q(2) - q(1)^2 is
computed in three equivalent forms: directly, through the weighted return
means r11/r21/r22, and through a dispersion decomposition built from
per-record means. Like the price volatility it is signed; negative values
are flagged, not hidden.

Window membership of a record is decided by the later trade's timestamp;
the earlier partner may sit outside the window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyWindowError, LagTooLargeError
from .moments import check_degree, power_summands
from .sums import csum
from .trades import TradeSeries, WindowSpec, window_bounds
from .volatility import (
    DispersionStats,
    direct_volatility,
    dispersion_summands,
    dispersion_terms,
    price_volatility_closed,
    volatility_forms,
)


class ReturnsSet:
    """Immutable lag-m returns records as aligned read-only columns, one
    entry per later trade i (its series index in indices), with
    simple_return = price_ratio - 1 and log_return = ln(price_ratio)."""

    __slots__ = ("lag", "indices", "timestamps", "price_ratio", "cost_ratio",
                 "volume_ratio", "simple_return", "log_return")

    def __init__(self, lag, indices, timestamps, price_ratio, cost_ratio,
                 volume_ratio, simple_return, log_return):
        self.lag = int(lag)
        self.indices = indices
        self.timestamps = timestamps
        self.price_ratio = price_ratio
        self.cost_ratio = cost_ratio
        self.volume_ratio = volume_ratio
        self.simple_return = simple_return
        self.log_return = log_return
        for arr in (indices, timestamps, price_ratio, cost_ratio,
                    volume_ratio, simple_return, log_return):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return len(self.indices)

    def __repr__(self) -> str:
        return f"ReturnsSet(lag={self.lag}, n={len(self)})"

    def _slice(self, start: int, stop: int) -> "ReturnsSet":
        columns = (getattr(self, name)[start:stop] for name in self.__slots__[1:])
        return ReturnsSet(self.lag, *columns)


def build_returns(series: TradeSeries, m: int) -> ReturnsSet:
    """One record per trade index i >= m, pairing trade i with trade i-m.

    Trades i < m produce no record. Raises LagTooLargeError when m is at
    least the series length (no record possible).
    """
    if not isinstance(m, (int, np.integer)) or isinstance(m, bool) or m < 1:
        raise ValueError(f"lag must be an integer >= 1, got {m!r}")
    m = int(m)
    n = len(series)
    if m >= n:
        raise LagTooLargeError(f"lag {m} >= series length {n}; no records possible")
    qc = series.costs[m:] / series.costs[:-m]
    qv = series.volumes[m:] / series.volumes[:-m]
    prices = series.prices
    qp = prices[m:] / prices[:-m]
    return ReturnsSet(
        m,
        np.arange(m, n, dtype=np.int64),
        series.timestamps[m:].copy(),
        qp,
        qc,
        qv,
        qp - 1.0,
        np.log(qp),
    )


def records_in_window(records: ReturnsSet, spec: WindowSpec) -> ReturnsSet:
    """Records whose (later-trade) timestamp falls in the window, ends inclusive."""
    lo, count = window_bounds(records.timestamps, spec.center, spec.width)
    return records._slice(int(lo), int(lo + count))


def returns_aggregate(records: ReturnsSet, n: int, *, degree_cap: int | None = None) -> tuple[float, float]:
    """(sum of cost_ratio^n, sum of volume_ratio^n) over the records."""
    if len(records) == 0:
        raise EmptyWindowError("no returns records in window")
    check_degree(n, degree_cap)
    q_c, q_v = power_summands(records.cost_ratio, records.volume_ratio, [n])
    return csum(q_c), csum(q_v)


def returns_moment(records: ReturnsSet, n: int, *, degree_cap: int | None = None) -> float:
    """Degree-n returns moment q(n) = sum(qc^n) / sum(qv^n)."""
    q_c, q_v = returns_aggregate(records, n, degree_cap=degree_cap)
    return q_c / q_v


def mean_return(records: ReturnsSet) -> float:
    """Volume-returns-weighted mean simple return, q(1) - 1."""
    return returns_moment(records, 1) - 1.0


def returns_summands(cost_ratio, volume_ratio, simple_return) -> list:
    """Values whose window sums feed every returns volatility form:

    qc, qc^2, qv, qv^2 (the dispersion summands) and r qv, r qv^2,
    (r qv)^2 (the weighted return means).
    """
    r_qv = simple_return * volume_ratio
    return [*dispersion_summands(cost_ratio, volume_ratio),
            r_qv, simple_return * volume_ratio ** 2, r_qv ** 2]


def rform_from_sums(sum_qv, sum_qv2, sum_rqv, sum_rqv2, sum_rqv_sq) -> tuple:
    """(r11, r21, r22, r22 - r11^2 + 2 (r21 - r11)) from window sums.

    Scalars or arrays with one entry per window, like volatility_forms.
    """
    r11 = sum_rqv / sum_qv
    r21 = sum_rqv2 / sum_qv2
    r22 = sum_rqv_sq / sum_qv2
    return r11, r21, r22, r22 - r11 * r11 + 2.0 * (r21 - r11)


def _record_sums(records: ReturnsSet, picks: slice = slice(None)) -> tuple:
    """(n, csums of the picked returns_summands) of a non-empty record set."""
    n = len(records)
    if n == 0:
        raise EmptyWindowError("no returns records in window")
    summands = returns_summands(records.cost_ratio, records.volume_ratio,
                                records.simple_return)
    return (n, *(csum(x) for x in summands[picks]))


def returns_volatility_direct(records: ReturnsSet) -> float:
    """Returns volatility q(2) - q(1)^2. May be negative.

    A single record is an exact degeneracy (q(2) and q(1)^2 are the same
    real number), so it returns 0.0 rather than evaluation noise.
    """
    return float(direct_volatility(*_record_sums(records, slice(4))))


def returns_volatility_rform(records: ReturnsSet) -> float:
    """Returns volatility through the weighted return means:

    r22 - r11^2 + 2*(r21 - r11)

    With a single record the expression collapses to zero identically, so
    that case returns 0.0 exactly.
    """
    n, *sums = _record_sums(records, slice(2, None))
    return 0.0 if n == 1 else rform_from_sums(*sums)[3]


@dataclass(frozen=True)
class ReturnsVolatilityReport:
    lag: int
    n_records: int
    sigma_q2_direct: float
    sigma_q2_rform: float
    sigma_q2_closed: float
    r11: float
    r21: float
    r22: float
    stats: DispersionStats
    negative_flag: bool


def returns_dispersion_stats(records: ReturnsSet) -> DispersionStats:
    """Means/dispersions of the cost ratio (a) and volume ratio (b) over
    the records. Built from means, like the per-trade stats; raw sums
    would make the closed form dimensionally inconsistent with the
    direct one."""
    n, *sums = _record_sums(records, slice(4))
    return DispersionStats(n, *map(float, dispersion_terms(n, *sums)))


# Sigma_q^2 from the ratio dispersions,
# 2 (Phi_v^2 Omega_c^2 - Phi_c^2 Omega_v^2) / (Phi_v^4 - Omega_v^4),
# is the price decomposition over ratio means: the same function.
returns_volatility_closed = price_volatility_closed


def returns_volatility_report(records: ReturnsSet) -> ReturnsVolatilityReport:
    """All three volatility forms plus the weighted means for one record set."""
    n, *sums = _record_sums(records)
    direct, closed, terms = volatility_forms(n, *sums[:4])
    r11, r21, r22, rform = rform_from_sums(*sums[2:])
    return ReturnsVolatilityReport(
        lag=records.lag,
        n_records=n,
        sigma_q2_direct=float(direct),
        sigma_q2_rform=rform,
        sigma_q2_closed=float(closed),
        r11=r11,
        r21=r21,
        r22=r22,
        stats=DispersionStats(n, *map(float, terms)),
        negative_flag=bool(direct < 0),
    )
