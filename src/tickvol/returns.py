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

ReturnsSet is a PairSeries with a = cost_ratio and b = volume_ratio, so
returns_moment, returns_volatility_direct, returns_dispersion_stats and
returns_volatility_closed are the price functions of moments and
volatility under a second name (moments.aggregate_degree gives the ratio
sums). Their sums go through moments.item_sums: an empty record set
raises EmptyWindowError, an infinite cost ratio NonFiniteError.

Window membership of a record is decided by the later trade's timestamp;
the earlier partner may sit outside the window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LagTooLargeError
from .moments import item_sums, price_moment
from .sums import csum  # noqa: F401  (bench/tracer.py wraps returns.csum)
from .trades import PairSeries, TradeSeries, WindowSpec, window_bounds
from .volatility import (
    DispersionStats,
    dispersion_stats,
    dispersion_summands,
    price_volatility_closed,
    price_volatility_direct,
    volatility_forms,
)

# the columns of a ReturnsSet, in constructor order
_COLUMNS = ("indices", "timestamps", "price_ratio", "a", "b", "simple_return", "log_return")


class ReturnsSet(PairSeries):
    """Immutable lag-m returns records: the stream a = cost_ratio,
    b = volume_ratio, plus aligned read-only columns with one entry per
    later trade i (its series index in indices): price_ratio,
    simple_return = price_ratio - 1 and log_return = ln(price_ratio).

    Built from an already validated trade series, so the columns are not
    checked again: a ratio that overflows stays inf for the caller to
    report.
    """

    __slots__ = ("lag", "indices", "price_ratio", "simple_return", "log_return")
    cost_ratio, volume_ratio = PairSeries.a, PairSeries.b  # the a and b columns by name

    def __init__(self, lag, indices, timestamps, price_ratio, cost_ratio,
                 volume_ratio, simple_return, log_return):
        self._store(lag=int(lag), indices=indices, timestamps=timestamps,
                    price_ratio=price_ratio, a=cost_ratio, b=volume_ratio,
                    simple_return=simple_return, log_return=log_return)

    def __repr__(self) -> str:
        return f"ReturnsSet(lag={self.lag}, n={len(self)})"


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
    return ReturnsSet(records.lag, *(getattr(records, name)[lo:lo + count] for name in _COLUMNS))


# The returns stream is a PairSeries, so these are the price functions.
# Dispersion stats are built from per-record means like the per-trade
# ones: raw sums would make the closed form dimensionally inconsistent
# with the direct one. Sigma_q^2 from the ratio dispersions,
# 2 (Phi_v^2 Omega_c^2 - Phi_c^2 Omega_v^2) / (Phi_v^4 - Omega_v^4),
# is the price decomposition over ratio means.
returns_moment = price_moment
returns_volatility_direct = price_volatility_direct
returns_dispersion_stats = dispersion_stats
returns_volatility_closed = price_volatility_closed


def mean_return(records: ReturnsSet) -> float:
    """Volume-returns-weighted mean simple return, q(1) - 1."""
    return returns_moment(records, 1) - 1.0


def returns_summands(records: ReturnsSet) -> list:
    """Values whose window sums feed every returns volatility form:

    qc, qc^2, qv, qv^2 (the dispersion summands) and r qv, r qv^2,
    (r qv)^2 (the weighted return means).
    """
    r, qv = records.simple_return, records.volume_ratio
    r_qv = r * qv
    return [*dispersion_summands(records), r_qv, r * qv ** 2, r_qv ** 2]


def rform_from_sums(sum_qv, sum_qv2, sum_rqv, sum_rqv2, sum_rqv_sq) -> tuple:
    """(r11, r21, r22, r22 - r11^2 + 2 (r21 - r11)) from window sums.

    Scalars or arrays with one entry per window, like volatility_forms.
    """
    r11 = sum_rqv / sum_qv
    r21 = sum_rqv2 / sum_qv2
    r22 = sum_rqv_sq / sum_qv2
    return r11, r21, r22, r22 - r11 * r11 + 2.0 * (r21 - r11)


def returns_volatility_rform(records: ReturnsSet) -> float:
    """Returns volatility through the weighted return means:

    r22 - r11^2 + 2*(r21 - r11)

    With a single record the expression collapses to zero identically, so
    that case returns 0.0 exactly.
    """
    n, *sums = item_sums(records, returns_summands)
    return 0.0 if n == 1 else rform_from_sums(*sums[2:])[3]


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


def returns_volatility_report(records: ReturnsSet) -> ReturnsVolatilityReport:
    """All three volatility forms plus the weighted means for one record set."""
    n, *sums = item_sums(records, returns_summands)
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
