"""Price volatility in two algebraically equivalent forms.

Direct form, straight from the price moments:

    sigma_p^2 = p(2) - p(1)^2 = sum(C^2)/sum(V^2) - (sum(C)/sum(V))^2

Closed decomposition through per-trade dispersions, with
C1 = mean(C), C2 = mean(C^2), sigma_C^2 = C2 - C1^2, phi_C^2 = C2 + C1^2
(and the same for V):

    sigma_p^2 = 2 * (phi_V^2 sigma_C^2 - phi_C^2 sigma_V^2) / (phi_V^4 - sigma_V^4)

The identity follows from phi_V^4 - sigma_V^4 = 4 V1^2 V2 and
numerator = 4 (V1^2 C2 - V2 C1^2). Under these volume weightings
sigma_p^2 is a *signed* quantity; negative values are reported as-is and
flagged, never clamped, so the identity test cannot be silently gamed.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import DegenerateDenominatorError
from .moments import finite, item_sums, power_summands
from .sums import csum  # noqa: F401  (bench/tracer.py wraps volatility.csum)
from .trades import PairSeries

# bound, relative to the mean square, for clamping negative rounding residue
# in dispersions; mathematically sigma^2 >= 0, so only tiny negatives are touched
DISPERSION_CLAMP_REL = 1e-12


def clamp_dispersion(value, mean_sq):
    """Zero out negative rounding residue in a dispersion.

    Residue within 1e-12 * mean_sq of zero is floored to 0, at any scale of
    the data; larger negatives are left alone so real data corruption stays
    visible. Works elementwise on arrays.
    """
    threshold = DISPERSION_CLAMP_REL * mean_sq
    return np.where((-threshold <= value) & (value < 0.0), 0.0, value)[()]


# The algebra below is written once, over the degree-1 and 2 window sums
# of a numerator a and a denominator b, and serves prices (a = C, b = V)
# and returns (a = cost ratio, b = volume ratio). Every argument may be a
# scalar or an array with one entry per window; the per-window API passes
# item_sums(view, power_summands, [1, 2]), the CLI the C1, C2, V1, V2
# columns of moment_table, so both evaluate the same operations.


def dispersion_terms(count, sum_a, sum_a2, sum_b, sum_b2) -> tuple:
    """Per-item means and dispersions from window sums.

    Returns (a1, a2, b1, b2, sigma_a2, sigma_b2, phi_a2, phi_b2) with
    a1 = mean(a), a2 = mean(a^2), sigma_a2 = a2 - a1^2, phi_a2 = a2 + a1^2
    (and the same for b). Dispersions use the uncentered identity; tiny
    negative rounding residue is clamped to 0 (see clamp_dispersion).
    """
    a1, a2 = sum_a / count, sum_a2 / count
    b1, b2 = sum_b / count, sum_b2 / count
    return (a1, a2, b1, b2,
            clamp_dispersion(a2 - a1 * a1, a2), clamp_dispersion(b2 - b1 * b1, b2),
            a2 + a1 * a1, b2 + b1 * b1)


def direct_volatility(count, sum_a, sum_a2, sum_b, sum_b2):
    """sum(a^2)/sum(b^2) - (sum(a)/sum(b))^2. May be negative.

    A one-item window is an exact degeneracy (both terms are the same
    real number), so it yields 0.0 rather than evaluation noise.
    """
    p1 = sum_a / sum_b
    p2 = sum_a2 / sum_b2
    return np.where(count == 1, 0.0, p2 - p1 * p1)


def closed_volatility(a_mean, b_mean, sigma_a2, sigma_b2, phi_b2):
    """The dispersion decomposition

    2 * (phi_b^2 sigma_a^2 - phi_a^2 sigma_b^2) / (phi_b^4 - sigma_b^4)

    evaluated through the exact factorizations

        phi_b^4 - sigma_b^4                   = 2 b1^2 (phi_b^2 + sigma_b^2)
        phi_b^2 sigma_a^2 - phi_a^2 sigma_b^2 = 2 (sigma_a^2 b1^2 - sigma_b^2 a1^2)

    which hold identically in the defining means and avoid the needless
    cancellation the literal fourth powers suffer when the b dispersion
    dominates the b mean. For terms from any non-empty window of positive
    values b1 > 0 and the denominator is not negative; other terms are
    corrupted, not unusual input, and raise DegenerateDenominatorError.
    A sum past the double range, or b1^2 underflowing to 0 (b1 = 1e-164),
    gives inf or nan for the caller to report.

    Squares use float_power, which like Python's float ** 2 calls libm
    pow; x * x differs from it in the last bit for about 1 in 1000 values.
    """
    with np.errstate(all="ignore"):
        b1_sq = np.float_power(b_mean, 2.0)
        denom = b1_sq * (phi_b2 + sigma_b2)
        bad = (b_mean <= 0) | (denom < 0)
        if np.any(bad):
            b1, twice = (float(np.extract(bad, x)[0]) for x in (b_mean, 2 * denom))
            raise DegenerateDenominatorError(
                f"b1 = {b1!r} and phi_b^4 - sigma_b^4 = {twice!r} come from no window of "
                "positive values; stats are corrupted")
        num = sigma_a2 * b1_sq - sigma_b2 * np.float_power(a_mean, 2.0)
        return 2.0 * num / denom


def volatility_forms(count, sum_a, sum_a2, sum_b, sum_b2) -> tuple:
    """(direct, closed, dispersion_terms) from the four window sums."""
    terms = dispersion_terms(count, sum_a, sum_a2, sum_b, sum_b2)
    a1, _, b1, _, sigma_a2, sigma_b2, _, phi_b2 = terms
    closed = closed_volatility(a1, b1, sigma_a2, sigma_b2, phi_b2)
    return direct_volatility(count, sum_a, sum_a2, sum_b, sum_b2), closed, terms


@dataclass(frozen=True)
class DispersionStats:
    """Per-item means and dispersions of a numerator a and denominator b
    over one window: cost and volume for trades, the cost and volume
    ratios for returns records. Fields follow dispersion_terms."""

    n: int
    a_mean: float       # a1 = mean(a)
    a_sq_mean: float    # a2 = mean(a^2)
    b_mean: float       # b1
    b_sq_mean: float    # b2
    sigma_a2: float     # a2 - a1^2
    sigma_b2: float     # b2 - b1^2
    phi_a2: float       # a2 + a1^2
    phi_b2: float       # b2 + b1^2


_TERMS = [field.name for field in fields(DispersionStats)[1:]]  # dispersion_terms by name


@dataclass(frozen=True)
class PriceVolatilityReport:
    n_trades: int
    sigma_p2_direct: float
    sigma_p2_closed: float
    stats: DispersionStats
    negative_flag: bool


def dispersion_stats(view: PairSeries) -> DispersionStats:
    """Means and dispersions of a and b over a window or stream: cost and
    volume for trades (returns.returns_dispersion_stats is this function)."""
    n, *sums = item_sums(view, power_summands, [1, 2])
    return DispersionStats(n, *finite(view, _TERMS, dispersion_terms(n, *sums)))


def price_volatility_direct(view: PairSeries) -> float:
    """sum(a^2)/sum(b^2) - (sum(a)/sum(b))^2: sigma_p^2 = p(2) - p(1)^2 of
    trades (returns.returns_volatility_direct is this function). May be
    negative.

    A one-item window is an exact degeneracy (p(2) and p(1)^2 are the
    same real number), so it returns 0.0 rather than evaluation noise.
    """
    sums = item_sums(view, power_summands, [1, 2], divisors=[("p(2)", 3)])
    return finite(view, ["sigma2_direct"], [direct_volatility(*sums)])[0]


def price_volatility_closed(stats: DispersionStats) -> float:
    """Volatility from the dispersion decomposition (see closed_volatility):

    2 * (phi_b^2 sigma_a^2 - phi_a^2 sigma_b^2) / (phi_b^4 - sigma_b^4)

    sigma_p^2 for the stats of trades, Sigma_q^2 for those of returns
    records (returns.returns_volatility_closed is this function); an inf
    or nan result (stats with b_mean = inf, say) raises NonFiniteError.
    """
    closed = closed_volatility(stats.a_mean, stats.b_mean, stats.sigma_a2, stats.sigma_b2,
                               stats.phi_b2)
    return finite(stats, ["sigma2_closed"], [closed])[0]


def price_volatility_report(view: PairSeries) -> PriceVolatilityReport:
    """Both volatility forms plus the dispersion stats for one window or
    a whole stream."""
    sums = item_sums(view, power_summands, [1, 2], divisors=[("p(2)", 3)])
    direct, closed, terms = volatility_forms(*sums)
    direct, closed, *terms = finite(view, ["sigma2_direct", "sigma2_closed", *_TERMS],
                                    [direct, closed, *terms])
    return PriceVolatilityReport(
        n_trades=sums[0],
        sigma_p2_direct=direct,
        sigma_p2_closed=closed,
        stats=DispersionStats(sums[0], *terms),
        negative_flag=direct < 0,
    )
