"""Multi-time moments and truncated characteristic functionals.

Works on any PairSeries stream of (timestamp, a, b) with a cost-like
numerator and volume-like denominator, so the same machinery serves a
TradeSeries (a=cost, b=volume) and a ReturnsSet (a=cost ratio, b=volume
ratio) directly.

Multi-time moment semantics. For time points (t_1..t_n) with equal-width
windows W_j = [t_j +- width/2], the combination set is only well defined
in two base regimes and their composition:

  * all times equal (diagonal): one trade drawn per combination, so
    a_sum = sum_i a_i^n over the single window — identical to the
    single-window degree-n aggregate;
  * distinct times with pairwise disjoint windows: combinations pick one
    trade per window independently, so the sums factorize into products
    of per-window sums.

In general the times are grouped by equality: each group is a diagonal
block of size m_g over its own window, and groups whose windows are
pairwise disjoint multiply. Two *distinct* times whose windows overlap
have no defensible combination set and raise
UnsupportedWindowOverlapError.

The truncated characteristic functional on a grid (t_1..t_G) with test
values x_g and step h is the Riemann discretization

    F = 1 + sum_{n=1}^{n_max} (i^n / n!) sum_{g_1..g_n}
            p(n; t_{g_1}..t_{g_n}) x_{g_1} .. x_{g_n} h^n

(the constant 1 makes F(0) = 1, as a characteristic functional must).
Because moments factorize over grid points, F is evaluated here as the
order-truncated product of per-point power series — one real polynomial
per grid point with coefficients p(m; t_g) (x_g h)^m / m! — rather than by
enumerating index tuples; the i^n factors are applied at the end from the
explicit cycle (i, -1, -i, 1).
"""

from __future__ import annotations

import cmath
import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DegreeOutOfRangeError,
    EmptyWindowError,
    NonFiniteError,
    TruncationOrderOutOfRangeError,
    UnsupportedWindowOverlapError,
)
from .moments import DEFAULT_DEGREE_CAP, check_degree, item_sums, moment_table, power_summands
from .sums import csum  # noqa: F401  (bench/tracer.py wraps charfun.csum)
from .trades import PairSeries, WindowSpec, select_window

_I_POW = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)  # i^n for n % 4 = 0,1,2,3


@dataclass(frozen=True)
class MultiTimeMoment:
    """Moment over a tuple of window centers.

    a_sum and b_sum are the combination sums of products of a- and
    b-values; moment is stored exactly as their division. combo_count is
    the number of combinations (product of member counts over groups).
    """

    times: tuple[float, ...]
    width: float
    combo_count: int
    a_sum: float
    b_sum: float
    moment: float


def _grouped(times: Sequence[float]) -> list[tuple[float, int]]:
    """Distinct times in ascending order with their multiplicities."""
    return sorted(Counter(float(t) for t in times).items())


def _check_disjoint(groups: list[tuple[float, int]], width: float) -> None:
    # sorted distinct centers: consecutive disjointness suffices; ends are
    # inclusive, so windows touch (and overlap) at spacing exactly == width
    for (t_prev, _), (t_next, _) in zip(groups, groups[1:]):
        if not (t_next - t_prev > width):
            raise UnsupportedWindowOverlapError(
                f"windows at t={t_prev} and t={t_next} (width {width}) are "
                "distinct but not disjoint; no combination set is defined there"
            )


def multi_time_moment(series: PairSeries, times: Sequence[float], width: float) -> MultiTimeMoment:
    """Moment p(n; t_1..t_n) with n = len(times); see module docstring.

    Raises UnsupportedWindowOverlapError for distinct-but-overlapping
    windows, EmptyWindowError when any involved window has no data and
    NonFiniteError when a sum or the moment overflows, or b_sum underflows to 0.
    """
    if not width > 0:
        raise ValueError("width must be positive")
    times = tuple(float(t) for t in times)
    n = len(times)
    if n == 0:
        raise DegreeOutOfRangeError("times tuple must not be empty")
    check_degree(n)
    groups = _grouped(times)
    _check_disjoint(groups, width)
    a_sum = 1.0
    b_sum = 1.0
    combos = 1
    for t, mult in groups:
        window = select_window(series, WindowSpec(t, width))
        if len(window) == 0:  # named by its center: an empty slice has no times
            raise EmptyWindowError(f"window at t={t} (width {width}) is empty")
        count, a_w, b_w = item_sums(window, power_summands, [mult])
        a_sum *= a_w
        b_sum *= b_w
        combos *= count
    if not (math.isfinite(a_sum) and 0.0 < b_sum < math.inf and math.isfinite(a_sum / b_sum)):
        what = "divides by a sum that underflows to 0" if b_sum == 0 else "overflows the double range"
        raise NonFiniteError(f"the degree-{n} moment at times {times} {what}")
    return MultiTimeMoment(
        times=times,
        width=width,
        combo_count=combos,
        a_sum=a_sum,
        b_sum=b_sum,
        moment=a_sum / b_sum,
    )


@dataclass(frozen=True)
class MomentProvider:
    """The stream and window width whose diagonal moments charfun_truncated
    reads: a plain (series, width) record."""

    series: PairSeries
    width: float

    def __post_init__(self):
        if not self.width > 0:
            raise ValueError("width must be positive")


moment_provider = MomentProvider


@dataclass(frozen=True)
class CharFunResult:
    """Truncated characteristic functional on a grid.

    order_terms[k] is the order-(k+1) term i^n c_n; value is 1 plus their
    sum. At the zero test function the value is exactly 1.
    """

    grid: tuple[float, ...]
    step: float
    n_max: int
    value: complex
    order_terms: tuple[complex, ...]


def _truncated_convolve(acc: list[float], other: list[float], n_max: int) -> list[float]:
    out = [0.0] * (n_max + 1)
    for i, ai in enumerate(acc):
        if ai == 0.0:
            continue
        for j in range(min(n_max - i, len(other) - 1) + 1):
            out[i + j] += ai * other[j]
    return out


def check_truncation_order(n_max: int) -> None:
    """Raise TruncationOrderOutOfRangeError unless n_max is an integer in
    [1, DEFAULT_DEGREE_CAP]."""
    if not isinstance(n_max, (int, np.integer)) or isinstance(n_max, bool) or n_max < 1:
        raise TruncationOrderOutOfRangeError(f"truncation order must be an integer >= 1, got {n_max!r}")
    if n_max > DEFAULT_DEGREE_CAP:
        raise TruncationOrderOutOfRangeError(
            f"truncation order {n_max} exceeds degree cap {DEFAULT_DEGREE_CAP}"
        )


def charfun_truncated(
    provider: MomentProvider,
    grid: Sequence[float],
    x: Sequence[float],
    step: float,
    n_max: int,
) -> CharFunResult:
    """Order-n_max truncation of the characteristic functional.

    grid must be strictly increasing with consecutive spacing greater
    than the provider's window width (so every required multi-time moment
    is well defined); x holds the test-function values on the grid and
    step is the quadrature step h of the left-point Riemann rule.
    Raises NonFiniteError at the lowest order whose term or diagonal sums
    overflow or whose V^n sum underflows to 0, or when the value overflows.
    """
    grid = [float(t) for t in grid]
    xs = [float(v) for v in x]
    if len(grid) == 0:
        raise ValueError("grid must not be empty")
    if len(xs) != len(grid):
        raise ValueError(f"{len(xs)} test-function values for {len(grid)} grid points")
    if not step > 0:
        raise ValueError("step must be positive")
    check_truncation_order(n_max)
    for t_prev, t_next in zip(grid, grid[1:]):
        if not t_next > t_prev:
            raise ValueError("grid must be strictly increasing")
    _check_disjoint([(t, 1) for t in grid], provider.width)

    # diagonal profiles [p(1;t_g), ..., p(n_max;t_g)] of every grid point
    width, orders = provider.width, range(1, n_max + 1)
    counts, table = moment_table(provider.series, np.array(grid), width, orders)
    if not counts.all():
        raise EmptyWindowError(f"window at t={grid[np.argmin(counts)]} (width {width}) is empty")
    profiles = zip(*(table[f"p{m}"].tolist() for m in orders))

    # per-point series: coeff[m] = p(m;t_g) * (x_g h)^m / m!
    coeffs = [1.0] + [0.0] * n_max
    for profile, x_g in zip(profiles, xs):
        y = x_g * step
        point = [1.0]
        y_pow = 1.0
        for m in range(1, n_max + 1):
            y_pow *= y
            point.append(profile[m - 1] * y_pow / math.factorial(m))
        coeffs = _truncated_convolve(coeffs, point, n_max)

    terms = tuple(_I_POW[n % 4] * coeffs[n] for n in range(1, n_max + 1))
    for n, term in enumerate(terms, start=1):
        v = table[f"V{n}"]
        if not v.all():
            raise NonFiniteError(f"the sum of V{n} underflows to 0 in the window at "
                                 f"t={grid[np.argmin(v != 0)]}")
        if not (np.isfinite([table[f"C{n}"], v]).all() and cmath.isfinite(term)):
            raise NonFiniteError(f"the order-{n} term overflows the double range")
    value = sum(terms, 1.0 + 0.0j)
    if not cmath.isfinite(value):
        raise NonFiniteError("the sum of the order terms overflows the double range")
    return CharFunResult(
        grid=tuple(grid),
        step=float(step),
        n_max=int(n_max),
        value=value,
        order_terms=terms,
    )


def charfun_derivative_check(
    series: PairSeries,
    t: float,
    eps: float,
    step: float,
    *,
    width: float,
    n_max: int = 3,
) -> complex:
    """Centered finite difference of F along the grid indicator at t.

    [F(eps * d_t) - F(-eps * d_t)] / (2 eps h) approximates i * p(1;t)
    with O(eps^2) error — a self-consistency diagnostic tying the
    functional back to the first moment it encodes.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    if n_max < 2:
        raise TruncationOrderOutOfRangeError("derivative check needs n_max >= 2")
    provider = MomentProvider(series, width)
    f_plus = charfun_truncated(provider, [t], [eps], step, n_max).value
    f_minus = charfun_truncated(provider, [t], [-eps], step, n_max).value
    return (f_plus - f_minus) / (2.0 * eps * step)
