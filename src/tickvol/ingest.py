"""Trade file I/O: CSV and NDJSON, cost or price columns, s or ns clocks.

Two row layouts are supported, named by their columns:

    ts_cost_volume   — ts, cost, volume
    ts_price_volume  — ts, price, volume  (cost is derived as price*volume)

Timestamps are decimal seconds, or integer nanoseconds converted to
seconds at load (precision past microseconds is lost in the conversion).
Files are UTF-8 text with '.' decimal separators (a leading byte-order
mark is skipped); CSV carries an exact header line, NDJSON one object
per line with the same field names.

Files are read and written BLOCK_ROWS lines at a time, so memory beyond
the loaded columns stays bounded, at about two blocks of text. With two
CPUs, a job past _floor() rows runs half in one forked child
(_blockwise), with one process's bytes and errors: a table or trade file
is formatted in an even number of equal row blocks (_cuts), a regular
trade file read in two halves of its bytes (_halves), window sums in two
groups of columns (sums.window_sums). A pipe, or a half UTF-8 or a bulk
parser refuses, is read in one process. A block of CSV lines is split
once into three field columns, a block of NDJSON lines is parsed by one
json.loads, and each column becomes one np.array(values, dtype=float64).
numpy converts a Python str, int or float as float() does (raising where
it raises), and integer timestamps go through int() first, so the syntax
accepted is the line parser's. A block the bulk path refuses is parsed
again line by line (_csv_lines, _ndjson_lines), which either accepts it
or raises the ParseError that names the first bad line. Series
validation runs once every block has parsed, so a parse error anywhere
wins over an invalid row. The cyclic garbage collector is paused while a
file is read: the parsed rows hold no cycles, and its collections would
scan every dict and list json.loads builds.

write_trades + load_trades round-trip a series bit-exactly in both
layouts: a block is one % over its rows (_format_block), where %r gives
a float's shortest round-trip repr, and the price column is chosen so
that price*volume reproduces the stored cost (_price_for_exact_cost).
"""

from __future__ import annotations

import contextlib
import gc
import io
import itertools
import json
import os
import pickle
import stat
import warnings
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .errors import NonFiniteError, ParseError
from .trades import TradeSeries

# Not called here: it stays importable from this module, where
# bench/tracer.py wraps it by name.
from .trades import validate_series  # noqa: F401

SCHEMA_VARIANTS = ("ts_cost_volume", "ts_price_volume")
TIMESTAMP_UNITS = ("seconds", "nanoseconds")
BLOCK_ROWS = 1 << 12  # lines read, parsed, formatted and written at a time

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
    gc_enabled = gc.isenabled()
    gc.disable()  # the parsed rows hold no cycles, so collections would find nothing
    try:
        with open(path, encoding="utf-8-sig") as fh:
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

            def parse(half):  # its columns, or None where UTF-8 or the bulk parser refuses it
                lo, hi = half
                text = io.TextIOWrapper(_Range(fh.fileno(), lo, hi), "utf-8" if lo else "utf-8-sig")
                try:  # the first half skips the CSV header
                    return _parse(itertools.islice(text, 0 if lo else lineno - 1, None), schema, bulk)
                except UnicodeDecodeError:
                    return None
            parsed = list(_blockwise(parse, _halves(fh.fileno(), csv=lineno == 2)))
            if not parsed or None in parsed:  # one process, which raises its own errors
                parsed = [_parse(lines, schema, bulk, by_line, lineno)]
    finally:
        if gc_enabled:
            gc.enable()
    ts, mid, vol = map(np.concatenate, zip(*parsed))
    if schema.nanoseconds:
        ts /= 1e9
    with np.errstate(over="ignore", invalid="ignore"):  # validation reports inf and nan
        cost = mid * vol if schema.variant == "ts_price_volume" else mid
    return TradeSeries(ts, cost, vol)


class _Range(io.RawIOBase):
    """Bytes lo:hi of an open file, read with os.pread: its offset stays."""

    def __init__(self, fd: int, lo: int, hi: int):
        self.fd, self.lo, self.hi = fd, lo, hi

    def readable(self):
        return True

    def readinto(self, buffer):
        size = os.preadv(self.fd, [memoryview(buffer)[:self.hi - self.lo]], self.lo)
        self.lo += size
        return size


def _halves(fd: int, csv: bool) -> list:
    """Byte ranges of a regular file's halves, cut at the first newline at or
    after the midpoint of its data bytes, if any and if it has over _floor() data lines."""
    info = os.fstat(fd)
    if not stat.S_ISREG(info.st_mode):
        return []
    data = io.BufferedReader(_Range(fd, 0, info.st_size))
    cut = ((len(data.readline()) if csv else 0) + info.st_size) // 2
    if next(itertools.islice(data, _floor(), None), None) is None:
        return []
    cut += len(io.BufferedReader(_Range(fd, cut, info.st_size)).readline())
    return [(0, cut), (cut, info.st_size)] if cut < info.st_size else []


def _parse(lines, schema: IngestSchema, bulk, by_line=None, lineno: int = 0):
    """The (ts, mid, volume) columns of lines, BLOCK_ROWS at a time. A block
    the bulk parser refuses goes to by_line, or else makes the result None."""
    columns = ([], [], [])
    while block := list(itertools.islice(lines, BLOCK_ROWS)):
        parsed = bulk(block, schema) or by_line and by_line(block, schema, lineno)
        if parsed is None:
            return None
        for column, values in zip(columns, parsed):
            column.append(np.asarray(values, dtype=np.float64))
        lineno += len(block)
    return [np.concatenate(column) if column else np.empty(0) for column in columns]


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
    try:
        ts = list(map(int, fields[0::3])) if schema.nanoseconds else fields[0::3]
        return tuple(np.array(col, dtype=np.float64) for col in (ts, fields[1::3], fields[2::3]))
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
        ts, mid, vol = zip(*map(itemgetter(*schema.fields), objs))
    except KeyError:
        return None
    if not (set(map(type, ts)) <= ({int} if schema.nanoseconds else {int, float})
            and set(map(type, mid)) | set(map(type, vol)) <= {int, float}):
        return None
    try:
        return tuple(np.array(col, dtype=np.float64) for col in (ts, mid, vol))
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
    shortest repr wins, ties going to the one nearest the quotient and
    then to the first in walk order, which keeps files built from round
    prices humanly round: one lexsort of the preimages of every row with
    two or more. Falls back to the plain quotient if no preimage exists.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        q = cost / volume
        # q >= 0, so the double k steps above q has the bit pattern of q plus
        # k (a NaN, which no product matches, where the walk leaves [0, inf])
        steps = np.array([0, 1, 2, 3, 4, -1, -2, -3, -4])[:, None]
        candidates = (q.view(np.int64) + steps).view(np.float64)
        exact = candidates * volume == cost
        hits = exact.sum(axis=0)
        price = np.where(hits > 0, candidates[exact.argmax(axis=0), np.arange(len(q))], q)
        tied = np.flatnonzero(hits > 1)
        row, step = np.nonzero(exact[:, tied].T)  # row ascending, then walk order
        values = candidates[step, tied[row]]
        length = np.fromiter(map(len, map(repr, values.tolist())), np.intp, len(values))
        # a stable sort, so walk order is the last key; each row's winner opens its run
        order = np.lexsort((np.abs(values - q[tied[row]]), length, row))
        price[tied] = values[order[np.diff(row, prepend=-1) > 0]]
    return price


def _format_block(template: str, columns) -> str:
    """Text of a block from one % over template, its row templates in
    order: row i takes the i-th value of each column, in column order."""
    return template % tuple(itertools.chain.from_iterable(zip(*columns)))


def trade_blocks(series: TradeSeries, schema: IngestSchema, fmt: str):
    """Text of a trade file, a block of rows (_cuts) at a time, checked before the first."""
    if fmt not in ("csv", "ndjson"):
        raise ValueError(f"unknown trade file format {fmt!r}")
    edge = max(series.span(), key=abs) if len(series) else 0.0  # timestamps are sorted
    if schema.nanoseconds and abs(edge) * 1e9 == float("inf"):
        raise NonFiniteError(f"timestamp {edge!r} overflows the double range in nanoseconds")
    if fmt == "csv":
        yield ",".join(schema.fields) + "\n"
        row = "%r,%r,%r\n"
    else:
        row = '{"%s": %%r, "%s": %%r, "%s": %%r}\n' % schema.fields

    def block_text(rows):
        t, cost, vol = (col[slice(*rows)] for col in (series.timestamps, series.a, series.b))
        mid = _price_for_exact_cost(cost, vol) if schema.variant == "ts_price_volume" else cost
        # %r of a float is its shortest round-trip repr
        ts = map(round, (t * 1e9).tolist()) if schema.nanoseconds else t.tolist()
        return _format_block(row * len(t), (ts, mid.tolist(), vol.tolist()))
    yield from _blockwise(block_text, _cuts(len(series)))


def render_trades(series: TradeSeries, schema: IngestSchema, fmt: str) -> str:
    """Serialize a series as CSV or NDJSON text.

    Floats use shortest round-trip formatting. Nanosecond output rounds to
    the nearest integer and loses sub-microsecond precision.
    """
    return "".join(trade_blocks(series, schema, fmt))


def write_trades(series: TradeSeries, path: str | os.PathLike, schema: IngestSchema,
                 fmt: str | None = None) -> None:
    """Write a series as CSV (default) or NDJSON ('.ndjson'/'.jsonl' paths),
    a block of rows at a time."""
    if fmt is None:
        suffix = os.path.splitext(os.fspath(path))[1].lower()
        fmt = "ndjson" if suffix in (".ndjson", ".jsonl") else "csv"
    with contextlib.closing(trade_blocks(series, schema, fmt)) as blocks:
        first = next(blocks, "")  # trade_blocks checks the series before the file opens
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(itertools.chain([first], blocks))


def _floor() -> int:
    """The most rows a job runs in one process: two CPUs win from about 4k."""
    return 2 * BLOCK_ROWS


def _cuts(rows: int) -> list[tuple[int, int]]:
    """(lo, hi) of each block of a job: one up to _floor() rows, else an
    even number of equal blocks of <= BLOCK_ROWS."""
    blocks = 2 * -(-rows // (2 * BLOCK_ROWS)) if rows > _floor() else 1
    edges = [rows * i // blocks for i in range(blocks + 1)]
    return list(zip(edges, edges[1:]))


def _blockwise(func, items):
    """map(func, items) over the blocks of a job: row or byte ranges, column groups.

    A job of two or more blocks, with two CPUs to run on, forks one
    child that maps every other item, sent to it and its result sent back
    pickled over a pipe, one block ahead of the parent. If the child fails
    (an exception, EOF or death), the parent maps that item and every
    later one, so errors are map's. The child writes to no stream and ends
    in os._exit: it flushes no inherited buffer and runs no atexit handler.
    The parent closes the pipes and reaps it on every way out."""
    items, cpus = iter(items), len(getattr(os, "sched_getaffinity", lambda pid: ())(0))
    head = list(itertools.islice(items, 2 if cpus > 1 else 0))  # enough to choose
    items = itertools.chain(head, items)
    if len(head) < 2:
        yield from map(func, items)
        return
    (item_r, item_w), (result_r, result_w) = os.pipe(), os.pipe()
    try:
        with warnings.catch_warnings():
            # 3.12+ warns that a fork of a process with threads (numpy's BLAS
            # ones here) may deadlock the child: this child calls no BLAS,
            # starts no thread and ends in os._exit
            warnings.filterwarnings("ignore", "This process .* is multi-threaded",
                                    DeprecationWarning)
            pid = os.fork()
    except OSError:  # no process to spare: the parent maps every item
        pid = None
    if pid == 0:
        try:
            os.close(item_w)
            os.close(result_r)
            warnings.simplefilter("error")  # a warning fails the item: the parent maps it
            inbox, outbox = open(item_r, "rb"), open(result_w, "wb")
            while True:  # until EOF: the parent has closed its end
                pickle.dump(func(pickle.load(inbox)), outbox, pickle.HIGHEST_PROTOCOL)
                outbox.flush()
        finally:
            os._exit(0)
    os.close(item_r)
    os.close(result_w)
    inbox, outbox = open(result_r, "rb"), open(item_w, "wb")
    end, alive, pending = object(), pid is not None, []
    try:
        for mine, theirs in itertools.zip_longest(items, items, fillvalue=end):
            try:
                if alive and theirs is not end:
                    outbox.write(pickle.dumps(theirs, pickle.HIGHEST_PROTOCOL))
                    outbox.flush()
            except Exception:  # the child is gone, or the item does not pickle
                alive = False
            yield from pending
            yield func(mine)
            try:
                pending = [pickle.load(inbox)] if alive and theirs is not end else []
            except Exception:  # EOF or a truncated result: the child is gone
                alive, pending = False, []
            if theirs is not end and not pending:
                pending = [func(theirs)]
        yield from pending
    finally:
        for pipe in (inbox, outbox):
            with contextlib.suppress(OSError):
                pipe.close()
        if pid:
            os.waitpid(pid, 0)
