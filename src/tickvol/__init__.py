"""Volume-weighted trade analytics over averaging windows.

Core objects: a validated, time-sorted TradeSeries of columns; WindowView
slices of it; degree-n price moments p(n) = sum(C^n)/sum(V^n); price and
returns volatilities in algebraically equivalent direct and
dispersion-decomposed forms, written once over the window sums of a
numerator and a denominator (one DispersionStats type and one closed form
serve both); and truncated characteristic functionals built from
multi-time moments.
"""

from .errors import (
    ConfigError,
    DegenerateDenominatorError,
    DegreeOutOfRangeError,
    EmptyWindowError,
    LagTooLargeError,
    ParseError,
    TickvolError,
    TruncationOrderOutOfRangeError,
    UnsupportedWindowOverlapError,
    ValidationError,
)
from .trades import (
    TradeSeries,
    WindowSpec,
    WindowView,
    select_window,
    validate_series,
)
from .moments import (
    DEFAULT_DEGREE_CAP,
    MAX_DEGREE,
    PriceMoments,
    aggregate_degree,
    collect_price_moments,
    price_moment,
    rolling_moments,
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
    mean_return,
    records_in_window,
    returns_aggregate,
    returns_dispersion_stats,
    returns_moment,
    returns_volatility_closed,
    returns_volatility_direct,
    returns_volatility_report,
    returns_volatility_rform,
)
from .charfun import (
    CharFunResult,
    MomentProvider,
    MultiTimeMoment,
    PairSeries,
    charfun_derivative_check,
    charfun_truncated,
    moment_provider,
    multi_time_moment,
)
from .ingest import IngestSchema, load_trades, render_trades, write_trades
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
    "MAX_DEGREE",
    "MomentProvider",
    "MultiTimeMoment",
    "PairSeries",
    "ParseError",
    "PriceMoments",
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
    "WindowView",
    "aggregate_degree",
    "build_returns",
    "charfun_derivative_check",
    "charfun_truncated",
    "collect_price_moments",
    "dispersion_stats",
    "load_trades",
    "mean_return",
    "moment_provider",
    "multi_time_moment",
    "price_moment",
    "price_volatility_closed",
    "price_volatility_direct",
    "price_volatility_report",
    "records_in_window",
    "render_trades",
    "returns_aggregate",
    "returns_dispersion_stats",
    "returns_moment",
    "returns_volatility_closed",
    "returns_volatility_direct",
    "returns_volatility_report",
    "returns_volatility_rform",
    "rolling_moments",
    "select_window",
    "simple_average_price",
    "simulate_trades",
    "validate_series",
    "vwap",
    "window_centers",
    "write_trades",
]
