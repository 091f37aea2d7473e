"""Command-line surface: every computation as a batch command.

Subcommands emit plot-ready tables (CSV or JSON) on stdout or to a file;
diagnostics go to stderr only. Numbers in tables serialize with 17
significant digits, which round-trips doubles exactly, so CSV and JSON
outputs of the same run carry identical values and diff cleanly.

Every table goes through one writer (_emit over _table_blocks): each
block of rows (ingest._cuts) is one % over its row templates
(ingest._format_block; "%.17g" % x calls the float formatter that
"{:.17g}".format(x) calls, so the bytes are the same), written before
the next block is formatted: a whole table's text is never held.

Exit codes: 0 success/pass, 1 identity-check fail, 2 config error
(including a --window or --stride that is not positive and finite, an
unwritable --output path or stdout, a grid of more than MAX_WINDOWS
windows, simulator parameters whose trades overflow, memory that cannot
be allocated, a value past the double range, such as C^8 of costs near
1e40, and a divisor sum that underflows to 0, V^n (moments, charfun) or
sum(b^2) (volatilities): the error names the column and window center,
or the charfun order, and nothing is written), 3 input error (a missing,
unreadable, non-UTF-8 or malformed input file, an invalid trade, an
integer field past the double range), 4 unsupported configuration. A
command checks its flags before it reads a file (a bad flag exits 2 even
with a bad input), the checks that need the data after. Commands raise;
main alone maps an exception to its code and prints one "error:" line,
with plain numbers, and returns the code for __main__ to exit with. An
unwritable stderr drops that line and the "seed:" lines (_diagnostic)
and changes no exit code.

Every command that sums over windows, charfun included, runs in four
array steps: the bounds of all windows from one searchsorted per edge
(window_bounds), the power sums of all windows from one kernel call
(window_sums), the moment and volatility algebra on the sum arrays, and
the table of all windows (for charfun, one polynomial per grid point).
The kernel rounds exact integer prefix sums as math.fsum rounds, so
tables carry exactly the csum values of the per-window library API,
which stays the test oracle. moment_table makes every window table: the
C{n}, V{n} and p{n} columns that moments writes and charfun reads, and
the sums of _volatility_table, the volatility table of a PairSeries
(trades or lag-m ReturnsSet) that price-vol and returns-vol write and
identity-check compares.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import os
import sys

import numpy as np

from .charfun import charfun_truncated, check_truncation_order, moment_provider
from .errors import (
    ConfigError,
    NonFiniteError,
    ParseError,
    TickvolError,
    UnsupportedWindowOverlapError,
    ValidationError,
)
from .ingest import (SCHEMA_VARIANTS, TIMESTAMP_UNITS, IngestSchema, _blockwise, _cuts,
                     _format_block, load_trades, trade_blocks, write_trades)
from .moments import DEFAULT_DEGREE_CAP, moment_table, window_centers
from .returns import build_returns, returns_summands, rform_from_sums
from .synth import SimConfig, simulate_trades
from .trades import PairSeries, TradeSeries
from .volatility import volatility_forms

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


def _conversion(values: np.ndarray, is_json: bool) -> tuple[str, np.ndarray]:
    """The % conversion of a column and the values it takes: floats with 17
    significant digits, flags as 0/1 (JSON: false/true), strings quoted in JSON."""
    kind = values.dtype.kind
    if kind == "f":
        return "%.17g", values
    if kind in "iu":
        return "%d", values
    if kind == "b":
        return "%s", np.where(values, *(("true", "false") if is_json else ("1", "0")))
    if is_json:
        return '"%s"', np.array([s.replace("\\", "\\\\").replace('"', '\\"') for s in values])
    return "%s", values


def _json_object(keys, cells, pad: str) -> str:
    """% template of a JSON object whose members start at pad + 2 spaces."""
    members = (f'\n{pad}  "{key}": {cell}' for key, cell in zip(keys, cells))
    return "{" + ",".join(members) + f"\n{pad}}}"


def _table_blocks(present: np.ndarray, columns: dict, is_json: bool, pad: str = ""):
    """Text of a table, a block of rows at a time: a CSV header and lines,
    or a JSON list of row objects (its items indented pad + 2 spaces).

    A column holds a value for every row, or, when it is shorter, for the
    rows where present is true only; the other rows get an empty cell
    (JSON null) in that column: their row template has "%.0s" (JSON:
    "null%.0s") there, which takes a padding value and prints nothing.
    """
    n = len(present)
    rank = np.concatenate([[0], np.cumsum(present)])
    convs, values = zip(*(_conversion(v, is_json) for v in columns.values()))
    gaps = [conv if len(v) == n else ("null" if is_json else "") + "%.0s"
            for conv, v in zip(convs, values)]
    if is_json:  # each row opens with its separator; the table's first drops it
        full, empty = (f",\n{pad}  " + _json_object(columns, cells, pad + "  ")
                       for cells in (convs, gaps))
        yield "["
    else:
        full, empty = (",".join(cells) + "\n" for cells in (convs, gaps))
        yield ",".join(columns) + "\n"

    def block_text(rows):
        lo, hi = rows
        block = []
        for column in values:
            cells = column[lo:hi]
            if len(column) != n:  # the empty rows hold padding values
                cells = np.zeros(hi - lo, column.dtype)
                cells[present[lo:hi]] = column[rank[lo]:rank[hi]]
            block.append(cells.tolist())
        text = _format_block("".join(map((empty, full).__getitem__, present[lo:hi].tolist())), block)
        return text[1:] if is_json and not lo else text
    yield from _blockwise(block_text, _cuts(n))
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
    with _output_errors(args.output or "stdout"):
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                yield fh
            return
        if sys.stdout is None:  # fd 1 was closed when the process started
            raise ConfigError("cannot write stdout")
        try:
            yield sys.stdout
            sys.stdout.flush()
        except OSError:  # a closed pipe: the flush at exit must not fail again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise


def _diagnostic(text: str) -> None:
    """Print one line to stderr. An unwritable stderr drops it, and fd 2 then
    points at /dev/null, as _output does for stdout: the flush at exit would
    fail again and turn any exit code into 120."""
    if sys.stderr is None:  # fd 2 was closed when the process started
        return
    try:
        print(text, file=sys.stderr, flush=True)
    except OSError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stderr.fileno())


@contextlib.contextmanager
def _output_errors(path: str):
    """An unwritable --output path, or stdout, is a configuration error (exit 2)."""
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


def _load_input(args) -> TradeSeries:
    schema = IngestSchema(args.schema, args.ts_unit)
    with _input_errors(args.input):
        series = load_trades(args.input, schema)
    if len(series) == 0:
        raise ParseError(f"input file has no trades: {args.input}")
    return series


def _int_list(flag: str, text: str) -> list[int]:
    """The distinct integers of a comma list flag, sorted."""
    try:
        return sorted({int(part) for part in text.split(",") if part.strip()})
    except ValueError:
        raise ConfigError(f"{flag} must be a comma list of integers, got {text!r}")


def _positive(flag: str, value: float) -> float:
    if not 0 < value < np.inf:
        raise ConfigError(f"{flag} must be positive and finite, got {value}")
    return value


def _window_stride(args) -> tuple:
    """--window and --stride, each checked where given; the stride defaults
    to the width (identity-check's width, when absent, to span/16)."""
    width, stride = (value if value is None else _positive(flag, value)
                     for flag, value in (("--window", args.window), ("--stride", args.stride)))
    return width, stride or width


def _check_windows(centers, counts, columns: dict, divisor: bool = False) -> None:
    """Raise NonFiniteError naming the first value, in row then column order,
    that overflowed to inf or nan or, in divisor sums, underflowed to 0.
    Column arrays hold values for the non-empty windows only."""
    values = np.column_stack([*columns.values()])
    bad = values == 0 if divisor else ~np.isfinite(values)
    if bad.any():
        row, col = divmod(int(np.argmax(bad)), bad.shape[1])
        what = "the sum of {} underflows to 0" if divisor else "{} overflows the double range"
        raise NonFiniteError(f"{what.format([*columns][col])} in the window at "
                             f"t={centers[counts > 0][row]}; rescale the input units")


def _emit_windows(args, centers, count_key: str, counts, columns: dict) -> None:
    """Emit one row per window: t, its count, then the named columns, whose
    arrays hold values for the non-empty windows only (empty windows get
    empty cells)."""
    _check_windows(centers, counts, columns)
    _emit(counts > 0, {"t": centers, count_key: counts, **columns}, args)


def _volatility_table(stream: PairSeries, centers, width: float) -> tuple:
    """Item counts of every window, the named columns of the stream's
    volatility table over the non-empty ones (price-vol's for trades,
    returns-vol's for lag-m records) and its p2 column, from one moment_table.
    A sum of b^2 that underflows to 0 (volumes near 1e-200) fails: both forms divide by it."""
    extras = {} if isinstance(stream, TradeSeries) else returns_summands(stream)
    counts, t = moment_table(stream, centers, width, [1, 2], **extras)
    _check_windows(centers, counts, {f"{stream._labels[2]}^2": t["V2"]}, divisor=True)
    nonempty = counts[counts > 0]
    direct, closed, terms = volatility_forms(nonempty, t["C1"], t["C2"], t["V1"], t["V2"])
    if not extras:
        columns = {"sigma2_direct": direct, "sigma2_closed": closed,
                   **dict(zip(["sigma_c2", "sigma_v2", "phi_c2", "phi_v2"], terms[4:])),
                   "negative_flag": direct < 0}
    else:
        r11, r21, r22, rform = rform_from_sums(nonempty, t["V1"], t["V2"], *map(t.get, extras))
        columns = {"mean_return": t["p1"] - 1.0, "sigma2_direct": direct,
                   "sigma2_rform": rform, "sigma2_closed": closed,
                   "r11": r11, "r21": r21, "r22": r22, "negative_flag": direct < 0}
    return counts, columns, t["p2"]


def cmd_moments(args) -> int:
    width, stride = _window_stride(args)
    degrees = _int_list("--degrees", args.degrees)
    if not degrees:
        raise ConfigError("--degrees must name at least one degree")
    if degrees[0] < 1 or degrees[-1] > DEFAULT_DEGREE_CAP:
        raise ConfigError(f"degrees must lie in [1, {DEFAULT_DEGREE_CAP}], got {args.degrees!r}")
    series = _load_input(args)
    centers = window_centers(series, width, stride)
    counts, columns = moment_table(series, centers, width, degrees)
    _check_windows(centers, counts, {f"V{n}": columns[f"V{n}"] for n in degrees}, divisor=True)
    _emit_windows(args, centers, "n_trades", counts, columns)
    return EXIT_OK


def cmd_price_vol(args) -> int:
    width, stride = _window_stride(args)
    series = _load_input(args)
    centers = window_centers(series, width, stride)
    _emit_windows(args, centers, "n_trades", *_volatility_table(series, centers, width)[:2])
    return EXIT_OK


def cmd_returns_vol(args) -> int:
    width, stride = _window_stride(args)
    if args.lag < 1:
        raise ConfigError(f"--lag must be >= 1, got {args.lag}")
    series = _load_input(args)
    records = build_returns(series, args.lag)
    centers = window_centers(series, width, stride)
    _emit_windows(args, centers, "n_records", *_volatility_table(records, centers, width)[:2])
    return EXIT_OK


def _parse_grid(text: str) -> tuple[float, float, int]:
    try:  # a text without exactly two colons fails to unpack
        start, step, count = text.split(":")
        start, step, count = float(start), float(step), int(count)
    except ValueError:
        raise ConfigError(f"--grid must be start:step:count, got {text!r}")
    if count < 1 or not 0 < step < np.inf or not np.isfinite(start + (count - 1) * step):
        raise ConfigError(f"--grid needs count >= 1, step > 0 and finite points, got {text!r}")
    return start, step, count


def _load_testfn(path: str) -> list[float]:
    with _input_errors(path), open(path, encoding="utf-8-sig") as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.lstrip().startswith("#")]
    try:
        values = [float(ln) for ln in lines]
    except ValueError as exc:
        raise ParseError(f"test-function file {path}: {exc}")
    for text, value in zip(lines, values):
        if not np.isfinite(value):
            raise ParseError(f"test-function file {path}: values must be finite, got {text!r}")
    return values


def cmd_charfun(args) -> int:
    width = _positive("--window", args.window)
    start, step, count = _parse_grid(args.grid)
    check_truncation_order(args.nmax)
    xs = _load_testfn(args.testfn)
    series = _load_input(args)
    if len(xs) != count:
        raise ConfigError(
            f"test-function file has {len(xs)} values but the grid has {count} points")
    grid = [start + k * step for k in range(count)]
    try:
        result = charfun_truncated(moment_provider(series, width), grid, xs, step, args.nmax)
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
            "window": width, "n_max": args.nmax,
            "value_re": result.value.real, "value_im": result.value.imag,
        }
        convs = [*(_conversion(np.array(value), True)[0] for value in record.values()), "%s"]
        record["orders"] = "".join(_table_blocks(present, orders, True, "  "))
        with _output(args) as out:
            _write_output(_json_object(record, convs, "") % tuple(record.values()) + "\n", out)
    else:
        _emit(present, orders, args)
    return EXIT_OK


def cmd_simulate(args) -> int:
    params = {k: v for k, v in vars(args).items() if k in SimConfig.__dataclass_fields__}
    if args.seed is None:
        params["seed"] = int(np.random.SeedSequence().entropy % 2**31)
    config = SimConfig(**params)
    schema = IngestSchema(args.schema, args.ts_unit)
    try:  # parameters whose trades, or timestamps in nanoseconds, overflow
        series = simulate_trades(config)
        if args.output:
            with _output_errors(args.output):
                write_trades(series, args.output, schema)
        else:
            with _output(args) as out:
                out.writelines(trade_blocks(series, schema, "csv"))
    except (ValidationError, NonFiniteError) as exc:
        raise ConfigError(f"simulated {exc}")
    _diagnostic(f"seed: {config.seed}")
    return EXIT_OK


def _max_rel_dev(p2, *forms) -> float:
    """Largest pairwise |x - y| / p2 among the forms, over all windows (0.0
    when there are none): each form is a difference of terms about p(2) in
    size. A p2 below the smallest normal double, 0 included, counts as that
    double (doubles lose relative precision there), so equal forms read 0."""
    scale = np.maximum(p2, np.finfo(np.float64).tiny)
    devs = [np.abs(x - y) / scale for x, y in itertools.combinations(forms, 2)]
    return float(np.max(devs, initial=0.0))


def _identity_rows(series: TradeSeries, width: float, stride: float, lags: list[int]):
    """One row per identity: the price one, then one per lag. Each compares
    the sigma2_ columns of its stream's volatility table (see _max_rel_dev)."""
    centers = window_centers(series, width, stride)
    rows = []
    for m in [0, *lags]:
        if m >= len(series):
            rows.append(("returns_vol_three_way", m, 0, 0.0))
            continue
        stream, prefix = (build_returns(series, m), f"lag-{m} ") if m else (series, "")
        counts, table, p2 = _volatility_table(stream, centers, width)
        forms = {prefix + name: v for name, v in table.items() if name.startswith("sigma2_")}
        _check_windows(centers, counts, forms)
        rows.append(("returns_vol_three_way" if m else "price_vol_direct_vs_closed", m or None,
                     int(np.count_nonzero(counts)), _max_rel_dev(p2, *forms.values())))
        del stream, counts, table, p2, forms  # freed before the next lag's are built
    return rows


def cmd_identity_check(args) -> int:
    width, stride = _window_stride(args)
    lags = _int_list("--lags", args.lags)
    if not lags or lags[0] < 1:
        raise ConfigError(f"--lags must be integers >= 1, got {args.lags!r}")
    if args.input:
        series = _load_input(args)
    else:
        seed = args.seed if args.seed is not None else 0
        series = simulate_trades(SimConfig(n_trades=args.n_trades, seed=seed))
        _diagnostic(f"seed: {seed}")
    if width is None:
        t0, t1 = series.span()
        width = (t1 - t0) / 16 if t1 > t0 else 1.0
    names, lag, windows, devs = zip(*_identity_rows(series, width, stride or width, lags))
    status = ["PASS" if dev <= IDENTITY_TOLERANCE else "FAIL" for dev in devs]
    _emit(np.array([m is not None for m in lag]), {
        "identity": np.array(names),
        "lag": np.array([m for m in lag if m is not None]),
        "windows": np.array(windows),
        "max_rel_dev": np.array(devs),
        "threshold": np.full(len(devs), IDENTITY_TOLERANCE),
        "status": np.array(status),
    }, args)
    return EXIT_IDENTITY_FAIL if "FAIL" in status else EXIT_OK


def _add_io_flags(sub, input_required=True):
    sub.add_argument("--input", required=input_required, help="trade file (CSV or NDJSON)")
    _add_schema_flags(sub)


def _add_schema_flags(sub):
    sub.add_argument("--schema", default=SCHEMA_VARIANTS[0], choices=SCHEMA_VARIANTS,
                     help="row layout of the trade file")
    sub.add_argument("--ts-unit", default=TIMESTAMP_UNITS[0], choices=TIMESTAMP_UNITS,
                     help="timestamp unit in the trade file")


def _add_window_flags(sub, required=True):
    width = "averaging window width (seconds)" + ("" if required else " (default: span/16)")
    sub.add_argument("--window", type=float, required=required, help=width)
    sub.add_argument("--stride", type=float, help="window center step (default: window width)")


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
    _add_window_flags(sub)
    sub.add_argument("--degrees", default="1,2", help="comma list of degrees, e.g. 1,2,3")
    _add_output_flags(sub)
    sub.set_defaults(func=cmd_moments)

    sub = subs.add_parser("price-vol", help="price volatility, direct and dispersion-decomposed forms")
    _add_io_flags(sub)
    _add_window_flags(sub)
    _add_output_flags(sub)
    sub.set_defaults(func=cmd_price_vol)

    sub = subs.add_parser("returns-vol", help="lag-m returns volatility in three equivalent forms")
    _add_io_flags(sub)
    _add_window_flags(sub)
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
    _add_schema_flags(sub)
    sub.add_argument("--seed", type=int, default=None, help="RNG seed (default: fresh entropy, printed)")
    sub.add_argument("--n-trades", type=int, default=1000)
    for flag, name in [("--sigma-step", "sigma_step"), ("--start-price", "start_price"),
                       ("--vol-mu", "volume_mu"), ("--vol-sigma", "volume_sigma"),
                       ("--rate", "arrival_rate"), ("--start-time", "start_time")]:
        sub.add_argument(flag, dest=name, type=float, default=argparse.SUPPRESS)  # SimConfig's default
    sub.add_argument("--output", default=None, help="trade file path (default stdout)")
    sub.set_defaults(func=cmd_simulate, format="csv")

    sub = subs.add_parser("identity-check", help="verify the volatility identities on data or a simulation")
    _add_io_flags(sub, input_required=False)
    _add_window_flags(sub, required=False)
    sub.add_argument("--lags", default="1,2,10", help="comma list of returns lags")
    sub.add_argument("--seed", type=int, default=None, help="simulation seed when no --input is given")
    sub.add_argument("--n-trades", type=int, default=2000, help="simulation size when no --input is given")
    _add_output_flags(sub)
    sub.set_defaults(func=cmd_identity_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; the only place where an error becomes an exit code."""
    args = build_parser().parse_args(argv)
    try:
        # inf, nan and zero divisors are reported by _check_windows before
        # anything is written
        with np.errstate(all="ignore"):
            return args.func(args)
    except (TickvolError, ValueError, MemoryError) as exc:
        _diagnostic(f"error: {str(exc) or 'out of memory'}")
        if isinstance(exc, (ParseError, ValidationError)):
            return EXIT_INPUT
        return EXIT_UNSUPPORTED if isinstance(exc, UnsupportedWindowOverlapError) else EXIT_CONFIG
