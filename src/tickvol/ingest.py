"""Trade file I/O: CSV and NDJSON, cost or price columns, s or ns clocks.

Two row layouts are supported, named by their columns:

    ts_cost_volume   — ts, cost, volume
    ts_price_volume  — ts, price, volume  (cost is derived as price*volume)

Timestamps are decimal seconds, or integer nanoseconds converted to
seconds at load (precision past microseconds is lost in the conversion).
Files are UTF-8 text with '.' decimal separators; CSV carries an exact
header line, NDJSON one object per line with the same field names.

Files are read and written BLOCK_ROWS lines at a time, so memory beyond
the loaded columns stays bounded. A block of CSV lines is split once
into three field columns, a block of NDJSON lines is parsed by one
json.loads, and every number goes through Python's own float and int,
so the syntax accepted is the line parser's by construction. A block
the bulk path refuses is parsed again line by line (_csv_lines,
_ndjson_lines), which either accepts it or raises the ParseError that
names the first bad line. Series validation runs once every block has
parsed, so a parse error anywhere wins over an invalid row.

write_trades + load_trades round-trip a series bit-exactly in both
layouts: floats are serialized with shortest round-trip formatting, and
the price column is chosen so that price*volume reproduces the stored
cost exactly (see _price_for_exact_cost).
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .errors import ParseError
from .trades import TradeSeries

# Not called here: it stays importable from this module, where
# bench/tracer.py wraps it by name.
from .trades import validate_series  # noqa: F401

SCHEMA_VARIANTS = ("ts_cost_volume", "ts_price_volume")
TIMESTAMP_UNITS = ("seconds", "nanoseconds")
BLOCK_ROWS = 1 << 15  # lines read, parsed, formatted and written at a time

_FIELDS = {
    "ts_cost_volume": ("ts", "cost", "volume"),
    "ts_price_volume": ("ts", "price", "volume"),
}
# whitespace to str.strip but not to float and int
_SEPARATORS = str.maketrans("\x1c\x1d\x1e\x1f", "    ")


@dataclass(frozen=True)
class IngestSchema:
    """Row layout plus timestamp unit for a trade file."""

    variant: str
    timestamp_unit: str = "seconds"

    def __post_init__(self):
        if self.variant not in SCHEMA_VARIANTS:
            raise ValueError(
                f"unknown schema variant {self.variant!r}; expected one of {SCHEMA_VARIANTS}"
            )
        if self.timestamp_unit not in TIMESTAMP_UNITS:
            raise ValueError(
                f"unknown timestamp unit {self.timestamp_unit!r}; expected one of {TIMESTAMP_UNITS}"
            )

    @property
    def fields(self) -> tuple[str, str, str]:
        return _FIELDS[self.variant]

    @property
    def nanoseconds(self) -> bool:
        return self.timestamp_unit == "nanoseconds"


def load_trades(path: str | os.PathLike, schema: IngestSchema) -> TradeSeries:
    """Load and validate a trade file.

    The format is sniffed from the first non-blank character ('{' means
    NDJSON, anything else CSV). Parse failures raise ParseError with the
    line number; invariant violations propagate from series validation.
    """
    columns = ([], [], [])
    with open(path, encoding="utf-8") as fh:
        head = []
        for line in fh:
            head.append(line)
            if not line.isspace():
                break
        lines = itertools.chain(head, fh)
        if head and head[-1].lstrip().startswith("{"):
            bulk, by_line, lineno = _ndjson_block, _ndjson_lines, 1
        else:
            _check_header(next(lines, None), schema)
            bulk, by_line, lineno = _csv_block, _csv_lines, 2
        while block := list(itertools.islice(lines, BLOCK_ROWS)):
            parsed = bulk(block, schema) or by_line(block, schema, lineno)
            for column, values in zip(columns, parsed):
                column.append(np.array(values, dtype=np.float64))
            lineno += len(block)
    ts, mid, vol = (np.concatenate(column) if column else np.empty(0) for column in columns)
    if schema.nanoseconds:
        ts /= 1e9
    return TradeSeries(ts, mid * vol if schema.variant == "ts_price_volume" else mid, vol)


def _check_header(header: str | None, schema: IngestSchema) -> None:
    if header is None:
        raise ParseError("empty file: missing header", 1)
    expected = ",".join(schema.fields)
    if header.strip() != expected:
        raise ParseError(f"line 1: expected header {expected!r}, got {header.strip()!r}", 1)


# Both parsers of a block return its (ts, mid, volume) columns, with ts in
# the file's unit.

def _csv_block(lines: list[str], schema: IngestSchema):
    """Bulk path: the block's columns, or None to leave it to _csv_lines.

    float and int ignore the whitespace around a field that the line
    parser strips, once the four separators among it are spaces, so no
    field is stripped here.
    """
    if set(map(str.count, lines, itertools.repeat(","))) != {2}:
        return None
    fields = ",".join(lines).translate(_SEPARATORS).split(",")
    ts = map(int, fields[0::3]) if schema.nanoseconds else fields[0::3]
    try:
        return tuple(list(map(float, col)) for col in (ts, fields[1::3], fields[2::3]))
    except (ValueError, OverflowError):
        return None


def _csv_lines(lines: list[str], schema: IngestSchema, lineno: int):
    """Line parser: the block's columns, or ParseError naming the first bad
    line (lineno is the number of the block's first line)."""
    _, mid_name, _ = schema.fields
    rows = []
    for lineno, line in enumerate(lines, start=lineno):
        if line.strip() == "":
            raise ParseError(f"line {lineno}: blank line inside data", lineno)
        parts = line.split(",")
        if len(parts) != 3:
            raise ParseError(f"line {lineno}: expected 3 fields, got {len(parts)}", lineno)
        t = _parse_ts(parts[0].strip(), schema, lineno)
        mid = _parse_num(parts[1].strip(), mid_name, lineno)
        vol = _parse_num(parts[2].strip(), "volume", lineno)
        rows.append((t, mid, vol))
    return tuple(zip(*rows))


def _parse_ts(text: str, schema: IngestSchema, line: int) -> float:
    if schema.nanoseconds:
        try:
            return _float(int(text), "timestamp", line)
        except ValueError:
            raise ParseError(f"line {line}: timestamp must be integer nanoseconds, got {text!r}", line)
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"line {line}: timestamp must be a decimal number, got {text!r}", line)


def _parse_num(text: str, name: str, line: int) -> float:
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"line {line}: {name} must be a number, got {text!r}", line)


def _float(value: int | float, name: str, line: int) -> float:
    """float(value), or ParseError for an integer past the double range."""
    try:
        return float(value)
    except OverflowError:
        raise ParseError(f"line {line}: {name} overflows the double range, got {value!r}", line)


def _ndjson_block(lines: list[str], schema: IngestSchema):
    """Bulk path: the block's columns, or None to leave it to _ndjson_lines.

    Each line is parsed as the only item of its own array. Strings cannot
    span lines (a raw newline is invalid JSON), so an array separator that
    does not fall between two of these arrays falls inside a row, whose
    values would then not all be numbers.
    """
    rows = [line for line in lines if not line.isspace()]
    if not rows:
        return [], [], []
    try:
        objs = [obj for (obj,) in json.loads("[[" + "],[".join(rows) + "]]")]
    except (ValueError, TypeError):  # JSONDecodeError is a ValueError
        return None
    if len(objs) != len(rows) or set(map(type, objs)) != {dict} or set(map(len, objs)) != {3}:
        return None
    try:
        ts, mid, vol = (list(map(itemgetter(name), objs)) for name in schema.fields)
    except KeyError:
        return None
    if not (set(map(type, ts)) <= ({int} if schema.nanoseconds else {int, float})
            and set(map(type, mid)) | set(map(type, vol)) <= {int, float}):
        return None
    try:
        return tuple(list(map(float, col)) for col in (ts, mid, vol))
    except OverflowError:
        return None


def _ndjson_lines(lines: list[str], schema: IngestSchema, lineno: int):
    """Line parser: the block's columns, or ParseError naming the first bad
    line (lineno is the number of the block's first line)."""
    ts_name, mid_name, vol_name = schema.fields
    rows = []
    for lineno, line in enumerate(lines, start=lineno):
        if line.strip() == "":
            continue
        try:
            obj = json.loads(line)
        except ValueError as exc:  # also an integer too long to convert
            raise ParseError(f"line {lineno}: invalid JSON ({getattr(exc, 'msg', exc)})", lineno)
        if not isinstance(obj, dict):
            raise ParseError(f"line {lineno}: expected an object", lineno)
        if set(obj) != set(schema.fields):
            raise ParseError(
                f"line {lineno}: expected fields {sorted(schema.fields)}, got {sorted(obj)}",
                lineno,
            )
        t = _json_ts(obj[ts_name], schema, lineno)
        mid = obj[mid_name]
        vol = obj[vol_name]
        for name, value in ((mid_name, mid), (vol_name, vol)):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ParseError(f"line {lineno}: {name} must be a number, got {value!r}", lineno)
        rows.append((t, _float(mid, mid_name, lineno), _float(vol, vol_name, lineno)))
    return tuple(zip(*rows))


def _json_ts(value, schema: IngestSchema, line: int) -> float:
    if schema.nanoseconds:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ParseError(f"line {line}: timestamp must be integer nanoseconds, got {value!r}", line)
    elif isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"line {line}: timestamp must be a number, got {value!r}", line)
    return _float(value, "timestamp", line)


def _price_for_exact_cost(cost: np.ndarray, volume: np.ndarray) -> np.ndarray:
    """Price doubles whose products with volume reproduce cost exactly.

    cost/volume itself often fails fl(fl(C/V)*V) == C by an ulp; a short
    walk over neighbouring doubles (the quotient and 4 above, then 4
    below) finds the exact preimages (when cost was built as
    price*volume, that price is one of them). Among exact preimages the
    shortest decimal wins, ties going to the one nearest the quotient and
    then to the first in walk order, which keeps files built from round
    prices humanly round. Falls back to the plain quotient if no preimage
    exists nearby.
    """
    with np.errstate(over="ignore"):
        q = cost / volume
        walk = [q]
        for _ in range(4):
            walk.append(np.nextafter(walk[-1], np.inf))
        p = q
        for _ in range(4):
            p = np.nextafter(p, -np.inf)
            walk.append(p)
        candidates = np.stack(walk)
        exact = candidates * volume == cost
    hits = exact.sum(axis=0)
    first = np.take_along_axis(candidates, exact.argmax(axis=0)[None], axis=0)[0]
    price = np.where(hits > 0, first, q)
    quotients = q.tolist()
    for i in np.flatnonzero(hits > 1).tolist():  # the shortest repr decides
        qi = quotients[i]
        tied = candidates[exact[:, i], i].tolist()
        price[i] = min(tied, key=lambda c: (len(repr(c)), abs(c - qi)))
    return price


def trade_blocks(series: TradeSeries, schema: IngestSchema, fmt: str):
    """Text of a trade file, BLOCK_ROWS rows at a time."""
    if fmt not in ("csv", "ndjson"):
        raise ValueError(f"unknown trade file format {fmt!r}")
    if fmt == "csv":
        yield ",".join(schema.fields) + "\n"
        row = "{},{},{}\n"
    else:
        row = '{{"%s": {}, "%s": {}, "%s": {}}}\n' % schema.fields
    for lo in range(0, len(series), BLOCK_ROWS):
        t, cost, vol = (col[lo:lo + BLOCK_ROWS] for col in (series.timestamps, series.a, series.b))
        mid = _price_for_exact_cost(cost, vol) if schema.variant == "ts_price_volume" else cost
        # str() of a float is its shortest round-trip repr
        ts = map(round, (t * 1e9).tolist()) if schema.nanoseconds else t.tolist()
        yield "".join(map(row.format, ts, mid.tolist(), vol.tolist()))


def render_trades(series: TradeSeries, schema: IngestSchema, fmt: str) -> str:
    """Serialize a series as CSV or NDJSON text.

    Floats use shortest round-trip formatting. Nanosecond output rounds to
    the nearest integer and loses sub-microsecond precision.
    """
    return "".join(trade_blocks(series, schema, fmt))


def write_trades(series: TradeSeries, path: str | os.PathLike, schema: IngestSchema,
                 fmt: str | None = None) -> None:
    """Write a series as CSV (default) or NDJSON ('.ndjson'/'.jsonl' paths),
    BLOCK_ROWS rows at a time."""
    if fmt is None:
        suffix = os.path.splitext(os.fspath(path))[1].lower()
        fmt = "ndjson" if suffix in (".ndjson", ".jsonl") else "csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(trade_blocks(series, schema, fmt))
