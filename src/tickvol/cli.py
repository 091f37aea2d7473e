"""Command-line surface: every computation as a batch command.

Subcommands emit plot-ready tables (CSV or JSON) on stdout or to a file;
diagnostics go to stderr only. Numbers in tables serialize with 17
significant digits, which round-trips doubles exactly, so CSV and JSON
outputs of the same run carry identical values and diff cleanly.

Exit codes: 0 success/pass, 1 identity-check fail, 2 config error
(including an unwritable --output path, a window grid of more than
moments.MAX_WINDOWS = 10**9 windows, and a value that overflows the
double range, such as C^8 of costs near 1e40: the error names the
column and the window center, and nothing is written), 3 input error
(including a missing, unreadable or non-UTF-8 input file), 4
unsupported configuration. Every error prints one "error:" line on
stderr.

Every command that sums over windows, charfun included, runs in four
array steps: the bounds of all windows from one searchsorted per edge
(window_bounds), the power sums of all windows from one kernel call
(window_sums), the moment and volatility algebra on the sum arrays, and
one row per window (for charfun, one polynomial per grid point). The
kernel converts each summand column to Python floats once and sums
every window's slice of it with math.fsum, so tables carry exactly the
csum (math.fsum) values of the per-window library API, which stays the
test oracle.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import csv
import io
import itertools
import sys

import numpy as np

from .charfun import PairSeries, charfun_truncated, moment_provider
from .errors import (
    ConfigError,
    LagTooLargeError,
    ParseError,
    TickvolError,
    UnsupportedWindowOverlapError,
    ValidationError,
)
from .ingest import IngestSchema, load_trades, render_trades, write_trades
from .moments import DEFAULT_DEGREE_CAP, moment_sums, window_centers
from .returns import build_returns, returns_summands, rform_from_sums
from .sums import windowed_sums
from .synth import SimConfig, simulate_trades
from .trades import TradeSeries
from .volatility import dispersion_summands, volatility_forms

# Per-window entry points the commands no longer call. They stay
# importable from this module, where bench/tracer.py wraps them by name.
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


def _fmt(value) -> str:
    """Table cell text; floats get 17 significant digits."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def _json_dump(obj, out: io.TextIOBase, indent: int = 0) -> None:
    """Minimal JSON writer so floats carry the same 17-digit text as CSV."""
    pad = " " * indent
    if obj is None:
        out.write("null")
    elif isinstance(obj, bool):
        out.write("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.write(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.write(f"{float(obj):.17g}")
    elif isinstance(obj, str):
        out.write('"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"')
    elif isinstance(obj, dict):
        out.write("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.write(",")
            out.write(f'\n{pad}  "{k}": ')
            _json_dump(v, out, indent + 2)
        out.write(f"\n{pad}}}" if obj else "}")
    elif isinstance(obj, (list, tuple)):
        out.write("[")
        for i, v in enumerate(obj):
            if i:
                out.write(",")
            out.write(f"\n{pad}  ")
            _json_dump(v, out, indent + 2)
        out.write(f"\n{pad}]" if len(obj) else "]")
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def _emit(rows: list[dict], columns: list[str], args) -> None:
    """Write a table as CSV or JSON to --output (default stdout)."""
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row.get(col)) for col in columns])
        text = buf.getvalue()
    else:
        buf = io.StringIO()
        _json_dump([{col: row.get(col) for col in columns} for row in rows], buf)
        buf.write("\n")
        text = buf.getvalue()
    _write_output(text, args)


def _write_output(text: str, args) -> None:
    if args.output:
        with _output_errors(args.output):
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
    else:
        sys.stdout.write(text)


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
    """Raise ConfigError naming the first value, in row then column order,
    that overflowed to inf or nan. Column arrays hold values for the
    non-empty windows only."""
    bad = ~np.isfinite(np.column_stack([*columns.values()]))
    if bad.any():
        row, col = divmod(int(np.argmax(bad)), bad.shape[1])
        raise ConfigError(f"{[*columns][col]} overflows the double range in the window "
                          f"at t={centers[counts > 0][row]}; rescale the input units")


def _emit_windows(centers, counts, count_key: str, columns: dict, args) -> None:
    """Emit one row per window: t, its count, then the named columns.

    Column arrays hold values for the non-empty windows only; empty
    windows get empty cells.
    """
    _check_finite(centers, counts, columns)
    values = {name: iter(col.tolist()) for name, col in columns.items()}
    rows = []
    for t, n in zip(centers.tolist(), counts.tolist()):
        row = {"t": t, count_key: n}
        if n:
            for name, it in values.items():
                row[name] = next(it)
        rows.append(row)
    _emit(rows, ["t", count_key, *columns], args)


def _price_forms(series: TradeSeries, centers, width: float) -> tuple:
    """Trade counts, then (direct, closed, dispersion terms) of non-empty windows."""
    counts, sums = windowed_sums(series.timestamps, centers, width,
                                 dispersion_summands(series.costs, series.volumes))
    return counts, volatility_forms(counts[counts > 0], *sums.T)


def _returns_forms(records, centers, width: float) -> tuple:
    """Record counts, the seven returns sums, and the volatility forms
    (direct, closed, terms) and rform terms (r11, r21, r22, rform) of
    non-empty windows."""
    summands = returns_summands(records.cost_ratio, records.volume_ratio,
                                records.simple_return)
    counts, sums = windowed_sums(records.timestamps, centers, width, summands)
    sums = sums.T
    forms = volatility_forms(counts[counts > 0], *sums[:4])
    return counts, sums, forms, rform_from_sums(*sums[2:])


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
    counts, (direct, closed, terms) = _price_forms(series, centers, width)
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
    counts, sums, (direct, closed, _), (r11, r21, r22, rform) = (
        _returns_forms(records, centers, width))
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
    provider = moment_provider(PairSeries.from_trades(series), args.window)
    result = charfun_truncated(provider, grid, xs, step, args.nmax)
    partial = 1.0 + 0.0j
    orders = []
    for n, term in enumerate(result.order_terms, start=1):
        if not cmath.isfinite(term):
            raise ConfigError(f"the order-{n} term overflows the double range; "
                              "lower --nmax or rescale the input units")
        partial += term
        orders.append({
            "order": n,
            "term_re": term.real,
            "term_im": term.imag,
            "partial_re": partial.real,
            "partial_im": partial.imag,
        })
    if args.format == "json":
        record = {
            "grid_start": start,
            "grid_step": step,
            "grid_points": count,
            "window": args.window,
            "n_max": args.nmax,
            "value_re": result.value.real,
            "value_im": result.value.imag,
            "orders": orders,
        }
        buf = io.StringIO()
        _json_dump(record, buf)
        buf.write("\n")
        _write_output(buf.getvalue(), args)
    else:
        columns = ["order", "term_re", "term_im", "partial_re", "partial_im"]
        _emit(orders, columns, args)
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
    series = simulate_trades(config)
    schema = _schema(args)
    if args.output:
        with _output_errors(args.output):
            write_trades(series, args.output, schema)
    else:
        sys.stdout.write(render_trades(series, schema, "csv"))
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
    counts, (direct, closed, _) = _price_forms(series, centers, width)
    _check_finite(centers, counts, {"sigma2_direct": direct, "sigma2_closed": closed})
    rows = [("price_vol_direct_vs_closed", None, int(np.count_nonzero(counts)),
             _max_rel_dev(direct, closed))]
    for m in lags:
        if m >= len(series):
            rows.append(("returns_vol_three_way", m, 0, 0.0))
            continue
        counts, _, (direct, closed, _), (*_, rform) = _returns_forms(
            build_returns(series, m), centers, width)
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

    rows = []
    all_pass = True
    for name, lag, n_windows, dev in _identity_rows(series, width, stride, lags):
        status = "PASS" if dev <= IDENTITY_TOLERANCE else "FAIL"
        all_pass &= status == "PASS"
        rows.append({
            "identity": name,
            "lag": lag,
            "windows": n_windows,
            "max_rel_dev": dev,
            "threshold": IDENTITY_TOLERANCE,
            "status": status,
        })
    columns = ["identity", "lag", "windows", "max_rel_dev", "threshold", "status"]
    _emit(rows, columns, args)
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
