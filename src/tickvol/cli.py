"""Command-line surface: every computation as a batch command.

Subcommands emit plot-ready tables (CSV or JSON) on stdout or to a file;
diagnostics go to stderr only. Numbers in tables serialize with 17
significant digits, which round-trips doubles exactly, so CSV and JSON
outputs of the same run carry identical values and diff cleanly.

Every table goes through one writer (_emit over _table_blocks): the
table is a set of columns, and each block of ingest.BLOCK_ROWS rows is
formatted one column at a time ("{:.17g}" for floats, 0/1 or
false/true for flags, an empty cell or null where an empty window has
no value) and written before the next block is formatted, so the text
of a whole table is never held in memory.

Exit codes: 0 success/pass, 1 identity-check fail, 2 config error
(including an unwritable --output path, a window grid of more than
moments.MAX_WINDOWS = 10**9 windows, simulator parameters whose trades
overflow, and a value that overflows the double range, such as C^8 of
costs near 1e40: the NonFiniteError names the column and the window
center, or the charfun order, and nothing is written), 3 input error
(including a missing, unreadable or non-UTF-8 input file, and an
integer field past the double range), 4
unsupported configuration. Every error prints one "error:" line on
stderr, with plain numbers.

Every command that sums over windows, charfun included, runs in four
array steps: the bounds of all windows from one searchsorted per edge
(window_bounds), the power sums of all windows from one kernel call
(window_sums), the moment and volatility algebra on the sum arrays, and
the table of all windows (for charfun, one polynomial per grid point).
The kernel converts the rows of each summand column that some window
covers to Python floats once and sums every window's slice of them with
math.fsum, so tables carry exactly the csum (math.fsum) values of the
per-window library API, which stays the test oracle. The stream summed
is a PairSeries: the trades, or for returns the lag-m ReturnsSet, whose
a and b columns feed one helper (_forms) for both.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import sys

import numpy as np

from .charfun import charfun_truncated, moment_provider
from .errors import (
    ConfigError,
    LagTooLargeError,
    NonFiniteError,
    ParseError,
    TickvolError,
    UnsupportedWindowOverlapError,
    ValidationError,
)
from .ingest import BLOCK_ROWS, IngestSchema, load_trades, trade_blocks, write_trades
from .moments import DEFAULT_DEGREE_CAP, moment_sums, window_centers
from .returns import build_returns, returns_summands, rform_from_sums
from .sums import windowed_sums
from .synth import SimConfig, simulate_trades
from .trades import PairSeries, TradeSeries
from .volatility import dispersion_summands, volatility_forms

# Entry points the commands no longer call. They stay importable from
# this module, where bench/tracer.py wraps them by name.
from .ingest import render_trades  # noqa: F401
from .moments import collect_price_moments  # noqa: F401
from .returns import mean_return, records_in_window, returns_volatility_report  # noqa: F401
from .trades import select_window  # noqa: F401
from .volatility import price_volatility_report  # noqa: F401

EXIT_OK = 0
EXIT_IDENTITY_FAIL = 1
EXIT_CONFIG = 2
EXIT_INPUT = 3
EXIT_UNSUPPORTED = 4

IDENTITY_TOLERANCE = 1e-10


def _cells(values: np.ndarray, is_json: bool) -> list[str]:
    """Cell texts of one column: floats with 17 significant digits, flags
    as 0/1 (JSON: false/true), strings quoted in JSON."""
    kind = values.dtype.kind
    values = values.tolist()
    if kind == "f":
        return list(map("{:.17g}".format, values))
    if kind == "b":
        return list(map((("0", "1"), ("false", "true"))[is_json].__getitem__, values))
    if kind in "iu":
        return list(map(str, values))
    if is_json:
        return ['"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"' for s in values]
    return values


def _json_object(keys, pad: str) -> str:
    """str.format template of a JSON object whose members start at pad + 2 spaces."""
    return "{{" + ",".join(f'\n{pad}  "{key}": {{}}' for key in keys) + "\n" + pad + "}}"


def _table_blocks(present: np.ndarray, columns: dict, is_json: bool, pad: str = ""):
    """Text of a table, BLOCK_ROWS rows at a time: a CSV header and lines,
    or a JSON list of row objects (its items indented pad + 2 spaces).

    A column holds a value for every row, or, when it is shorter, for the
    rows where present is true only; the other rows get an empty cell
    (JSON null) in that column.
    """
    n = len(present)
    rank = np.concatenate([[0], np.cumsum(present)])
    if is_json:
        row = f"\n{pad}  " + _json_object(columns, pad + "  ")
        yield "["
    else:
        row = ",".join(["{}"] * len(columns)) + "\n"
        yield ",".join(columns) + "\n"
    for lo in range(0, n, BLOCK_ROWS):
        hi = min(lo + BLOCK_ROWS, n)
        cells = []
        for values in columns.values():
            if len(values) == n:
                cells.append(_cells(values[lo:hi], is_json))
            else:
                column = np.full(hi - lo, "null" if is_json else "", dtype=object)
                column[present[lo:hi]] = _cells(values[rank[lo]:rank[hi]], is_json)
                cells.append(column.tolist())
        text = map(row.format, *cells)
        yield ("," if lo else "") + ",".join(text) if is_json else "".join(text)
    if is_json:
        yield f"\n{pad}]" if n else "]"


def _emit(present: np.ndarray, columns: dict, args) -> None:
    """Write a table (see _table_blocks) as CSV or JSON to --output
    (default stdout), block by block."""
    is_json = args.format == "json"
    with _output(args) as out:
        for text in _table_blocks(present, columns, is_json):
            _write_output(text, out)
        if is_json:
            _write_output("\n", out)


def _write_output(text: str, out) -> None:
    """Write one block of output text (bench/tracer.py counts the bytes
    written through here)."""
    out.write(text)


@contextlib.contextmanager
def _output(args):
    """The --output file (default stdout) as a text stream."""
    if not args.output:
        yield sys.stdout
        return
    with _output_errors(args.output), open(args.output, "w", encoding="utf-8") as fh:
        yield fh


@contextlib.contextmanager
def _output_errors(path: str):
    """An unwritable --output path is a configuration error (exit 2)."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}")


@contextlib.contextmanager
def _input_errors(path: str):
    """A missing, unreadable or non-UTF-8 input file is an input error (exit 3)."""
    try:
        yield
    except FileNotFoundError:
        raise ParseError(f"input file not found: {path}")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}")
    except UnicodeDecodeError:
        raise ParseError(f"{path} is not UTF-8 text")


def _schema(args) -> IngestSchema:
    try:
        return IngestSchema(args.schema, args.ts_unit)
    except ValueError as exc:
        raise ConfigError(str(exc))


def _load_input(args) -> TradeSeries:
    schema = _schema(args)
    with _input_errors(args.input):
        series = load_trades(args.input, schema)
    if len(series) == 0:
        raise ParseError(f"input file has no trades: {args.input}")
    return series


def _parse_degrees(text: str) -> list[int]:
    try:
        degrees = sorted({int(part) for part in text.split(",") if part.strip() != ""})
    except ValueError:
        raise ConfigError(f"--degrees must be a comma list of integers, got {text!r}")
    if not degrees:
        raise ConfigError("--degrees must name at least one degree")
    if degrees[0] < 1 or degrees[-1] > DEFAULT_DEGREE_CAP:
        raise ConfigError(f"degrees must lie in [1, {DEFAULT_DEGREE_CAP}], got {text!r}")
    return degrees


def _window_stride(args) -> tuple[float, float]:
    if not args.window > 0:
        raise ConfigError(f"--window must be positive, got {args.window}")
    stride = args.stride if args.stride is not None else args.window
    if not stride > 0:
        raise ConfigError(f"--stride must be positive, got {stride}")
    return args.window, stride


def _check_finite(centers, counts, columns: dict) -> None:
    """Raise NonFiniteError naming the first value, in row then column order,
    that overflowed to inf or nan. Column arrays hold values for the
    non-empty windows only."""
    bad = ~np.isfinite(np.column_stack([*columns.values()]))
    if bad.any():
        row, col = divmod(int(np.argmax(bad)), bad.shape[1])
        raise NonFiniteError(f"{[*columns][col]} overflows the double range in the window "
                             f"at t={centers[counts > 0][row]}; rescale the input units")


def _emit_windows(centers, counts, count_key: str, columns: dict, args) -> None:
    """Emit one row per window: t, its count, then the named columns.

    Column arrays hold values for the non-empty windows only; empty
    windows get empty cells.
    """
    _check_finite(centers, counts, columns)
    _emit(counts > 0, {"t": centers, count_key: counts, **columns}, args)


def _forms(stream: PairSeries, centers, width: float, summands: list) -> tuple:
    """Item counts of every window, then the sums of the summands (one row
    per summand) and the volatility forms (direct, closed, terms) of the
    non-empty windows. The summands start with the dispersion_summands
    of the stream."""
    counts, sums = windowed_sums(stream.timestamps, centers, width, summands)
    sums = sums.T
    return counts, sums, volatility_forms(counts[counts > 0], *sums[:4])


def cmd_moments(args) -> int:
    series = _load_input(args)
    width, stride = _window_stride(args)
    degrees = _parse_degrees(args.degrees)
    centers = window_centers(series, width, stride)
    counts, sums = moment_sums(series, centers, width, degrees)
    columns = {}
    for i, n in enumerate(degrees):
        c, v = sums[:, i], sums[:, len(degrees) + i]
        columns.update({f"C{n}": c, f"V{n}": v, f"p{n}": c / v})
    _emit_windows(centers, counts, "n_trades", columns, args)
    return EXIT_OK


def cmd_price_vol(args) -> int:
    series = _load_input(args)
    width, stride = _window_stride(args)
    centers = window_centers(series, width, stride)
    counts, _, (direct, closed, terms) = _forms(
        series, centers, width, dispersion_summands(series))
    _, _, _, _, sigma_c2, sigma_v2, phi_c2, phi_v2 = terms
    _emit_windows(centers, counts, "n_trades", {
        "sigma2_direct": direct, "sigma2_closed": closed,
        "sigma_c2": sigma_c2, "sigma_v2": sigma_v2, "phi_c2": phi_c2, "phi_v2": phi_v2,
        "negative_flag": direct < 0,
    }, args)
    return EXIT_OK


def cmd_returns_vol(args) -> int:
    series = _load_input(args)
    width, stride = _window_stride(args)
    if args.lag < 1:
        raise ConfigError(f"--lag must be >= 1, got {args.lag}")
    try:
        records = build_returns(series, args.lag)
    except LagTooLargeError as exc:
        raise ConfigError(str(exc))
    centers = window_centers(series, width, stride)
    counts, sums, (direct, closed, _) = _forms(records, centers, width, returns_summands(records))
    r11, r21, r22, rform = rform_from_sums(*sums[2:])
    _emit_windows(centers, counts, "n_records", {
        "mean_return": sums[0] / sums[2] - 1.0,
        "sigma2_direct": direct, "sigma2_rform": rform, "sigma2_closed": closed,
        "r11": r11, "r21": r21, "r22": r22, "negative_flag": direct < 0,
    }, args)
    return EXIT_OK


def _parse_grid(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"--grid must be start:step:count, got {text!r}")
    try:
        start, step = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError:
        raise ConfigError(f"--grid must be start:step:count, got {text!r}")
    if count < 1 or not step > 0:
        raise ConfigError(f"--grid needs count >= 1 and step > 0, got {text!r}")
    return start, step, count


def _load_testfn(path: str, count: int) -> list[float]:
    with _input_errors(path):
        with open(path, encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip() and not ln.lstrip().startswith("#")]
    try:
        values = [float(ln) for ln in lines]
    except ValueError as exc:
        raise ParseError(f"test-function file {path}: {exc}")
    if len(values) != count:
        raise ConfigError(
            f"test-function file has {len(values)} values but the grid has {count} points"
        )
    return values


def cmd_charfun(args) -> int:
    series = _load_input(args)
    if not args.window > 0:
        raise ConfigError(f"--window must be positive, got {args.window}")
    start, step, count = _parse_grid(args.grid)
    xs = _load_testfn(args.testfn, count)
    grid = [start + k * step for k in range(count)]
    try:
        result = charfun_truncated(moment_provider(series, args.window), grid, xs, step, args.nmax)
    except NonFiniteError as exc:
        raise NonFiniteError(f"{exc}; lower --nmax or rescale the input units")
    terms = result.order_terms
    partials = list(itertools.accumulate(terms, initial=1.0 + 0.0j))[1:]
    orders = {
        "order": np.arange(1, len(terms) + 1),
        "term_re": np.real(terms), "term_im": np.imag(terms),
        "partial_re": np.real(partials), "partial_im": np.imag(partials),
    }
    present = np.ones(len(terms), dtype=bool)
    if args.format == "json":
        record = {
            "grid_start": start, "grid_step": step, "grid_points": count,
            "window": args.window, "n_max": args.nmax,
            "value_re": result.value.real, "value_im": result.value.imag,
        }
        cells = [_cells(np.array([value]), True)[0] for value in record.values()]
        cells.append("".join(_table_blocks(present, orders, True, "  ")))
        with _output(args) as out:
            _write_output(_json_object([*record, "orders"], "").format(*cells) + "\n", out)
    else:
        _emit(present, orders, args)
    return EXIT_OK


def cmd_simulate(args) -> int:
    try:
        config = SimConfig(
            n_trades=args.n_trades,
            seed=args.seed if args.seed is not None else int(np.random.SeedSequence().entropy % 2**31),
            sigma_step=args.sigma_step,
            start_price=args.start_price,
            volume_mu=args.vol_mu,
            volume_sigma=args.vol_sigma,
            arrival_rate=args.rate,
            start_time=args.start_time,
        )
    except ValueError as exc:
        raise ConfigError(str(exc))
    try:
        series = simulate_trades(config)
    except ValidationError as exc:  # parameters whose trades overflow
        raise ConfigError(f"simulated {exc}")
    schema = _schema(args)
    if args.output:
        with _output_errors(args.output):
            write_trades(series, args.output, schema)
    else:
        sys.stdout.writelines(trade_blocks(series, schema, "csv"))
    print(f"seed: {config.seed}", file=sys.stderr)
    return EXIT_OK


def _max_rel_dev(direct, *others) -> float:
    """Largest pairwise |x - y| / max(1, |direct|) among the forms, over all
    windows (0.0 when there are none)."""
    scale = np.maximum(1.0, np.abs(direct))
    forms = (direct, *others)
    devs = [np.abs(x - y) / scale for x, y in itertools.combinations(forms, 2)]
    return float(np.max(devs, initial=0.0))


def _identity_rows(series: TradeSeries, width: float, stride: float, lags: list[int]):
    centers = window_centers(series, width, stride)
    counts, _, (direct, closed, _) = _forms(
        series, centers, width, dispersion_summands(series))
    _check_finite(centers, counts, {"sigma2_direct": direct, "sigma2_closed": closed})
    rows = [("price_vol_direct_vs_closed", None, int(np.count_nonzero(counts)),
             _max_rel_dev(direct, closed))]
    for m in lags:
        if m >= len(series):
            rows.append(("returns_vol_three_way", m, 0, 0.0))
            continue
        records = build_returns(series, m)
        counts, sums, (direct, closed, _) = _forms(records, centers, width, returns_summands(records))
        rform = rform_from_sums(*sums[2:])[3]
        _check_finite(centers, counts, {f"lag-{m} sigma2_direct": direct,
                                        f"lag-{m} sigma2_rform": rform,
                                        f"lag-{m} sigma2_closed": closed})
        rows.append(("returns_vol_three_way", m, int(np.count_nonzero(counts)),
                     _max_rel_dev(direct, rform, closed)))
    return rows


def cmd_identity_check(args) -> int:
    if args.input:
        series = _load_input(args)
    else:
        seed = args.seed if args.seed is not None else 0
        series = simulate_trades(SimConfig(n_trades=args.n_trades, seed=seed))
        print(f"seed: {seed}", file=sys.stderr)
    if args.window is not None:
        width, stride = _window_stride(args)
    else:
        t0, t1 = series.span()
        width = (t1 - t0) / 16 if t1 > t0 else 1.0
        stride = width
    try:
        lags = sorted({int(p) for p in args.lags.split(",") if p.strip()})
    except ValueError:
        raise ConfigError(f"--lags must be a comma list of integers, got {args.lags!r}")
    if not lags or lags[0] < 1:
        raise ConfigError(f"--lags must be integers >= 1, got {args.lags!r}")

    names, lag, windows, devs = zip(*_identity_rows(series, width, stride, lags))
    status = ["PASS" if dev <= IDENTITY_TOLERANCE else "FAIL" for dev in devs]
    _emit(np.array([m is not None for m in lag]), {
        "identity": np.array(names),
        "lag": np.array([m for m in lag if m is not None]),
        "windows": np.array(windows),
        "max_rel_dev": np.array(devs),
        "threshold": np.full(len(devs), IDENTITY_TOLERANCE),
        "status": np.array(status),
    }, args)
    all_pass = "FAIL" not in status
    return EXIT_OK if all_pass else EXIT_IDENTITY_FAIL


def _add_io_flags(sub, input_required=True):
    sub.add_argument("--input", required=input_required, help="trade file (CSV or NDJSON)")
    sub.add_argument("--schema", default="ts_cost_volume",
                     choices=["ts_cost_volume", "ts_price_volume"],
                     help="row layout of the trade file")
    sub.add_argument("--ts-unit", default="seconds", choices=["seconds", "nanoseconds"],
                     help="timestamp unit in the trade file")


def _add_output_flags(sub):
    sub.add_argument("--format", default="csv", choices=["csv", "json"],
                     help="output table format")
    sub.add_argument("--output", default=None, help="output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tickvol",
        description="Volume-weighted price/returns moments and volatility tables from tick trades.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("moments", help="per-window degree-n cost/volume sums and price moments")
    _add_io_flags(sub)
    sub.add_argument("--window", type=float, required=True, help="averaging window width (seconds)")
    sub.add_argument("--stride", type=float, default=None, help="window center step (default: window width)")
    sub.add_argument("--degrees", default="1,2", help="comma list of degrees, e.g. 1,2,3")
    _add_output_flags(sub)
    sub.set_defaults(func=cmd_moments)

    sub = subs.add_parser("price-vol", help="price volatility, direct and dispersion-decomposed forms")
    _add_io_flags(sub)
    sub.add_argument("--window", type=float, required=True)
    sub.add_argument("--stride", type=float, default=None)
    _add_output_flags(sub)
    sub.set_defaults(func=cmd_price_vol)

    sub = subs.add_parser("returns-vol", help="lag-m returns volatility in three equivalent forms")
    _add_io_flags(sub)
    sub.add_argument("--window", type=float, required=True)
    sub.add_argument("--stride", type=float, default=None)
    sub.add_argument("--lag", type=int, default=1, help="returns lag m (index-based)")
    _add_output_flags(sub)
    sub.set_defaults(func=cmd_returns_vol)

    sub = subs.add_parser("charfun", help="truncated characteristic functional on a time grid")
    _add_io_flags(sub)
    sub.add_argument("--window", type=float, required=True, help="averaging window width per grid point")
    sub.add_argument("--grid", required=True, help="grid as start:step:count")
    sub.add_argument("--testfn", required=True, help="file with one test-function value per grid point")
    sub.add_argument("--nmax", type=int, default=3, help="truncation order")
    _add_output_flags(sub)
    sub.set_defaults(func=cmd_charfun)

    sub = subs.add_parser("simulate", help="write a reproducible synthetic trade file")
    sub.add_argument("--schema", default="ts_cost_volume",
                     choices=["ts_cost_volume", "ts_price_volume"])
    sub.add_argument("--ts-unit", default="seconds", choices=["seconds", "nanoseconds"])
    sub.add_argument("--seed", type=int, default=None, help="RNG seed (default: fresh entropy, printed)")
    sub.add_argument("--n-trades", type=int, default=1000)
    sub.add_argument("--sigma-step", type=float, default=0.02)
    sub.add_argument("--start-price", type=float, default=100.0)
    sub.add_argument("--vol-mu", type=float, default=0.0)
    sub.add_argument("--vol-sigma", type=float, default=0.5)
    sub.add_argument("--rate", type=float, default=1.0)
    sub.add_argument("--start-time", type=float, default=0.0)
    sub.add_argument("--output", default=None, help="trade file path (default stdout)")
    sub.set_defaults(func=cmd_simulate, format="csv")

    sub = subs.add_parser("identity-check", help="verify the volatility identities on data or a simulation")
    _add_io_flags(sub, input_required=False)
    sub.add_argument("--window", type=float, default=None, help="window width (default: span/16)")
    sub.add_argument("--stride", type=float, default=None)
    sub.add_argument("--lags", default="1,2,10", help="comma list of returns lags")
    sub.add_argument("--seed", type=int, default=None, help="simulation seed when no --input is given")
    sub.add_argument("--n-trades", type=int, default=2000, help="simulation size when no --input is given")
    _add_output_flags(sub)
    sub.set_defaults(func=cmd_identity_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # inf and nan are reported by _check_finite before anything is written
        with np.errstate(all="ignore"):
            return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except UnsupportedWindowOverlapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except TickvolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
