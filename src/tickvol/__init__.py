"""Volume-weighted trade analytics over averaging windows.

Core objects: one validated, time-sorted (timestamp, a, b) stream,
PairSeries, of which TradeSeries (a = cost, b = volume) and ReturnsSet
(a = cost ratio, b = volume ratio) are the two kinds, and whose windows
(select_window) are zero-copy row slices of the same class; degree-n
moments sum(a^n)/sum(b^n), the price moments p(n) of trades and the
returns moments q(n) of returns records; price and returns volatilities
in algebraically equivalent direct and dispersion-decomposed forms, one
set of functions over a and b serving both streams; and truncated
characteristic functionals built from multi-time moments of any stream.
"""

from .errors import (
    ConfigError,
    DegenerateDenominatorError,
    DegreeOutOfRangeError,
    EmptyWindowError,
    LagTooLargeError,
    NonFiniteError,
    ParseError,
    TickvolError,
    TruncationOrderOutOfRangeError,
    UnsupportedWindowOverlapError,
    ValidationError,
)
from .trades import (
    PairSeries,
    TradeSeries,
    WindowSpec,
    select_window,
    validate_series,
)
from .moments import (
    DEFAULT_DEGREE_CAP,
    aggregate_degree,
    price_moment,
    simple_average_price,
    vwap,
    window_centers,
)
from .volatility import (
    DispersionStats,
    PriceVolatilityReport,
    dispersion_stats,
    price_volatility_closed,
    price_volatility_direct,
    price_volatility_report,
)
from .returns import (
    ReturnsSet,
    ReturnsVolatilityReport,
    build_returns,
    returns_dispersion_stats,
    returns_moment,
    returns_volatility_closed,
    returns_volatility_direct,
    returns_volatility_report,
    returns_volatility_rform,
)
from .charfun import (
    CharFunResult,
    MultiTimeMoment,
    charfun_derivative_check,
    charfun_truncated,
    moment_provider,
    multi_time_moment,
)
from .ingest import IngestSchema, load_trades, write_trades
from .synth import SimConfig, simulate_trades

__version__ = "0.1.0"

__all__ = [
    "CharFunResult",
    "ConfigError",
    "DEFAULT_DEGREE_CAP",
    "DegenerateDenominatorError",
    "DegreeOutOfRangeError",
    "DispersionStats",
    "EmptyWindowError",
    "IngestSchema",
    "LagTooLargeError",
    "MultiTimeMoment",
    "NonFiniteError",
    "PairSeries",
    "ParseError",
    "PriceVolatilityReport",
    "ReturnsSet",
    "ReturnsVolatilityReport",
    "SimConfig",
    "TickvolError",
    "TradeSeries",
    "TruncationOrderOutOfRangeError",
    "UnsupportedWindowOverlapError",
    "ValidationError",
    "WindowSpec",
    "aggregate_degree",
    "build_returns",
    "charfun_derivative_check",
    "charfun_truncated",
    "dispersion_stats",
    "load_trades",
    "moment_provider",
    "multi_time_moment",
    "price_moment",
    "price_volatility_closed",
    "price_volatility_direct",
    "price_volatility_report",
    "returns_dispersion_stats",
    "returns_moment",
    "returns_volatility_closed",
    "returns_volatility_direct",
    "returns_volatility_report",
    "returns_volatility_rform",
    "select_window",
    "simple_average_price",
    "simulate_trades",
    "validate_series",
    "vwap",
    "window_centers",
    "write_trades",
]
