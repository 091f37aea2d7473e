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
from typing import Iterator, Sequence

import numpy as np

from .errors import EmptyWindowError, LagTooLargeError
from .moments import check_degree, power_summands
from .sums import csum
from .trades import TradeSeries, WindowSpec, window_bounds
from .volatility import (
    closed_volatility,
    direct_volatility,
    dispersion_summands,
    dispersion_terms,
    volatility_forms,
)


@dataclass(frozen=True)
class ReturnsRecord:
    """Ratios of trade i against trade i-m (its m-th predecessor)."""

    index: int
    lag: int
    timestamp: float
    price_ratio: float
    simple_return: float
    log_return: float
    cost_ratio: float
    volume_ratio: float


def log_return(record: ReturnsRecord) -> float:
    """Log return ln(price_ratio); exp of it equals 1 + simple return."""
    return record.log_return


class ReturnsSet(Sequence[ReturnsRecord]):
    """Immutable sequence of lag-m returns records, array-backed."""

    __slots__ = ("lag", "indices", "timestamps", "price_ratio", "cost_ratio",
                 "volume_ratio", "simple_return", "log_return")

    def __init__(self, lag, indices, timestamps, price_ratio, cost_ratio,
                 volume_ratio, simple_return, log_ret):
        self.lag = int(lag)
        self.indices = indices
        self.timestamps = timestamps
        self.price_ratio = price_ratio
        self.cost_ratio = cost_ratio
        self.volume_ratio = volume_ratio
        self.simple_return = simple_return
        self.log_return = log_ret
        for arr in (indices, timestamps, price_ratio, cost_ratio,
                    volume_ratio, simple_return, log_ret):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, i) -> ReturnsRecord:
        if isinstance(i, slice):
            raise TypeError("ReturnsSet does not support slicing; use records_in_window")
        i = int(i)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(i)
        return ReturnsRecord(
            index=int(self.indices[i]),
            lag=self.lag,
            timestamp=float(self.timestamps[i]),
            price_ratio=float(self.price_ratio[i]),
            simple_return=float(self.simple_return[i]),
            log_return=float(self.log_return[i]),
            cost_ratio=float(self.cost_ratio[i]),
            volume_ratio=float(self.volume_ratio[i]),
        )

    def __iter__(self) -> Iterator[ReturnsRecord]:
        for i in range(len(self)):
            yield self[i]

    def __repr__(self) -> str:
        return f"ReturnsSet(lag={self.lag}, n={len(self)})"

    def _slice(self, start: int, stop: int) -> "ReturnsSet":
        return ReturnsSet(
            self.lag,
            self.indices[start:stop],
            self.timestamps[start:stop],
            self.price_ratio[start:stop],
            self.cost_ratio[start:stop],
            self.volume_ratio[start:stop],
            self.simple_return[start:stop],
            self.log_return[start:stop],
        )


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


def rform_terms(records: ReturnsSet) -> tuple[float, float, float]:
    """Weighted return means (r11, r21, r22).

    r11 = sum(r * qv)     / sum(qv)     (volume-returns weighted mean)
    r21 = sum(r * qv^2)   / sum(qv^2)
    r22 = sum(r^2 * qv^2) / sum(qv^2)
    """
    return rform_from_sums(*_record_sums(records, slice(2, None))[1:])[:3]


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
class ReturnsDispersionStats:
    """Per-record means and dispersions of the cost/volume ratios.

    Built from means (sums divided by the record count), mirroring the
    per-trade dispersion stats; raw sums would make the closed volatility
    form dimensionally inconsistent with the direct one.
    """

    n_records: int
    cost_ratio_mean: float
    cost_ratio_sq_mean: float
    volume_ratio_mean: float
    volume_ratio_sq_mean: float
    omega_c2: float
    omega_v2: float
    phi_c2: float
    phi_v2: float


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
    stats: ReturnsDispersionStats
    negative_flag: bool


def returns_dispersion_stats(records: ReturnsSet) -> ReturnsDispersionStats:
    """Means/dispersions of cost and volume ratios over the records."""
    n, *sums = _record_sums(records, slice(4))
    return ReturnsDispersionStats(n, *(float(x) for x in dispersion_terms(n, *sums)))


def returns_volatility_closed(stats: ReturnsDispersionStats) -> float:
    """Returns volatility from the ratio dispersions:

    2 * (Phi_v^2 Omega_c^2 - Phi_c^2 Omega_v^2) / (Phi_v^4 - Omega_v^4)

    the price decomposition over ratio means (see closed_volatility).
    """
    return float(closed_volatility(stats.cost_ratio_mean, stats.volume_ratio_mean,
                                   stats.omega_c2, stats.omega_v2, stats.phi_v2))


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
        stats=ReturnsDispersionStats(n, *(float(x) for x in terms)),
        negative_flag=bool(direct < 0),
    )


@dataclass(frozen=True)
class ReturnsMoments:
    """Per-window returns moments for a set of degrees.

    entries maps degree n to (sum qc^n, sum qv^n, q(n)); the moment is
    stored exactly as the division of the two sums.
    """

    window: WindowSpec | None
    lag: int
    n_records: int
    entries: dict[int, tuple[float, float, float]]
    r11: float
    r21: float
    r22: float


def collect_returns_moments(
    records: ReturnsSet,
    degrees,
    *,
    window: WindowSpec | None = None,
    degree_cap: int | None = None,
) -> ReturnsMoments:
    """ReturnsMoments record for one record set."""
    degs = sorted(set(int(n) for n in degrees))
    entries: dict[int, tuple[float, float, float]] = {}
    for n in degs:
        q_c, q_v = returns_aggregate(records, n, degree_cap=degree_cap)
        entries[n] = (q_c, q_v, q_c / q_v)
    r11, r21, r22 = rform_terms(records)
    return ReturnsMoments(
        window=window,
        lag=records.lag,
        n_records=len(records),
        entries=entries,
        r11=r11,
        r21=r21,
        r22=r22,
    )
