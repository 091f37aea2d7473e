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

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDenominatorError
from .moments import item_sums
from .sums import csum  # noqa: F401  (bench/tracer.py wraps volatility.csum)
from .trades import WindowSpec, WindowView

# absolute floor for clamping negative rounding residue in dispersions;
# mathematically sigma^2 >= 0, so only tiny negatives are touched
DISPERSION_CLAMP_REL = 1e-12


def clamp_dispersion(value, mean_sq):
    """Zero out negative rounding residue in a dispersion.

    Residue within 1e-12 * max(mean_sq, 1) of zero is floored to 0; larger
    negatives are left alone so real data corruption stays visible.
    Works elementwise on arrays.
    """
    threshold = DISPERSION_CLAMP_REL * np.maximum(mean_sq, 1.0)
    return np.where((-threshold <= value) & (value < 0.0), 0.0, value)[()]


# The algebra below is written once, over the window sums of a numerator
# a and a denominator b, and serves prices (a = C, b = V) and returns
# (a = cost ratio, b = volume ratio). Every argument may be a scalar or an
# array with one entry per window; the per-window API passes the sums of
# moments.item_sums, the CLI passes window_sums columns, so both evaluate
# the same operations.


def dispersion_summands(stream) -> list:
    """a, a^2, b, b^2 of a stream or window: the volatility forms' summands."""
    return [stream.a, stream.a ** 2, stream.b, stream.b ** 2]


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
    dominates the b mean. The denominator is strictly positive for terms
    from any non-empty window; a non-positive value means the terms are
    corrupted, not that the input was unusual.

    Squares use float_power, which like Python's float ** 2 calls libm
    pow; x * x differs from it in the last bit for about 1 in 1000 values.
    """
    b1_sq = np.float_power(b_mean, 2.0)
    denom = b1_sq * (phi_b2 + sigma_b2)
    bad = ~(denom > 0)
    if np.any(bad):
        first = float(np.extract(bad, denom)[0])
        raise DegenerateDenominatorError(
            f"phi_b^4 - sigma_b^4 = {2 * first!r} is not positive; stats are corrupted"
        )
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


@dataclass(frozen=True)
class PriceVolatilityReport:
    window: WindowSpec
    n_trades: int
    sigma_p2_direct: float
    sigma_p2_closed: float
    stats: DispersionStats
    negative_flag: bool


def dispersion_stats(view: WindowView) -> DispersionStats:
    """Means and dispersions of a and b over a window or stream: cost and
    volume for trades (returns.returns_dispersion_stats is this function)."""
    n, *sums = item_sums(view, dispersion_summands)
    return DispersionStats(n, *map(float, dispersion_terms(n, *sums)))


def price_volatility_direct(view: WindowView) -> float:
    """sum(a^2)/sum(b^2) - (sum(a)/sum(b))^2: sigma_p^2 = p(2) - p(1)^2 of
    trades (returns.returns_volatility_direct is this function). May be
    negative.

    A one-item window is an exact degeneracy (p(2) and p(1)^2 are the
    same real number), so it returns 0.0 rather than evaluation noise.
    """
    return float(direct_volatility(*item_sums(view, dispersion_summands)))


def price_volatility_closed(stats: DispersionStats) -> float:
    """Volatility from the dispersion decomposition (see closed_volatility):

    2 * (phi_b^2 sigma_a^2 - phi_a^2 sigma_b^2) / (phi_b^4 - sigma_b^4)

    sigma_p^2 for the stats of trades, Sigma_q^2 for those of returns
    records (returns.returns_volatility_closed is this function).
    """
    return float(closed_volatility(stats.a_mean, stats.b_mean,
                                   stats.sigma_a2, stats.sigma_b2, stats.phi_b2))


def price_volatility_report(view: WindowView) -> PriceVolatilityReport:
    """Both volatility forms plus the dispersion stats for one window."""
    sums = item_sums(view, dispersion_summands)
    direct, closed, terms = volatility_forms(*sums)
    return PriceVolatilityReport(
        window=view.spec,
        n_trades=sums[0],
        sigma_p2_direct=float(direct),
        sigma_p2_closed=float(closed),
        stats=DispersionStats(sums[0], *map(float, terms)),
        negative_flag=bool(direct < 0),
    )
