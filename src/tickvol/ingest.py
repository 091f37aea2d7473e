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
groups of columns (sums.window_sums). The child is sent nothing: it maps
every other item of a list it holds from the fork. A pipe, or a half
UTF-8 or a bulk parser refuses, is read in one process. A block of CSV
lines is split once into three field columns, a block of NDJSON lines is
parsed by one json.loads, and each column becomes one np.array(values,
dtype=float64). numpy converts a Python str, int or float as float()
does (raising where it raises), and integer timestamps go through int()
first, so the syntax accepted is the line parser's. A block the bulk
path refuses is parsed again line by line (_csv_lines, _ndjson_lines),
which either accepts it or raises the ParseError that names the first
bad line. Series validation runs once every block has parsed, so a parse
error anywhere wins over an invalid row. The cyclic garbage collector is
paused while a file is read: the parsed rows hold no cycles, and its
collections would scan every dict and list json.loads builds.

write_trades + load_trades round-trip a series bit-exactly in both
layouts: a float is written as its shortest round-trip repr, and the
price column is chosen so that price*volume reproduces the stored cost
(_price_for_exact_cost). A block on the seconds clock takes repr's digits
from integer arithmetic on the floats' bits (_shortest) and is laid out
as a byte matrix (_digit_block); one holding a value repr prints with an
exponent, zero, inf or nan, and a nanosecond block, are one % over their
rows (_format_block), where %r gives the repr.
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
        # len(repr(c)) of each candidate (all >= 0): from its digits where _in_reach
        reach, length = _in_reach(values), np.empty(len(values), np.intp)
        length[~reach] = [len(repr(c)) for c in values[~reach].tolist()]
        _, nd, decpt = _shortest(values[reach])
        length[reach] = np.maximum(decpt, 1) + np.maximum(nd - decpt, 1) + 1
        # a stable sort, so walk order is the last key; each row's winner opens its run
        order = np.lexsort((np.abs(values - q[tied[row]]), length, row))
        price[tied] = values[order[np.diff(row, prepend=-1) > 0]]
    return price


def _format_block(template: str, columns) -> str:
    """Text of a block from one % over template, its row templates in
    order: row i takes the i-th value of each column, in column order.
    Tables, and the trade blocks _digit_block leaves, are written so."""
    return template % tuple(itertools.chain.from_iterable(zip(*columns)))


_U = np.uint64
_POW5 = _U(5) ** np.arange(23, dtype=_U)
_POW10 = _U(10) ** np.arange(20, dtype=_U)
# "0000".."9999" as 4-byte words in memory order
_DIGITS4 = np.ascontiguousarray(np.indices((10,) * 4, np.uint8).reshape(4, -1).T + 48)
_DIGITS4 = _DIGITS4.view("<u4")[:, 0]


def _in_reach(x: np.ndarray) -> np.ndarray:
    """Where _shortest applies: repr prints |x| in [1e-4, 1e16) without an exponent."""
    return (np.abs(x) >= 1e-4) & (np.abs(x) < 1e16)


def _shortest(x: np.ndarray):
    """repr's digits of each x _in_reach: (out, nd, decpt), the nd digits
    of out with the point decpt places from their left (0.0123: 123, 3, -1).

    Ryu's digit search (Adams, PLDI 2018) on exact integers: for x = M 2^E
    (53-bit M) and s = 17 - floor(log10|x|), x 10^s = 8 M 5^s / 2^sh, a
    product of two uint64 from four 32-bit ones, so its floor vr has an exact
    remainder, as do the floors vp, vm of the bounds of the values that read
    back as x, half an ulp out on both sides (vp in if M is even). In reach
    Ryu's other rules change no digit: each power of two, below which the gap
    is narrower, is tested; vm is exact only from 2^51, and then never a
    shorter decimal than x; a 5 dropped from an exact vr has only zeros below
    it (an exact vr ends in 0, 25 or 75, and a nonzero digit below the 5 puts
    vr over 40 units from any multiple of 100; the bounds are under 112 out).
    A log10 off by one near a power of ten leaves vr 17 or 19 digits long."""
    bits = x.view(_U)
    mant = bits & _U((1 << 52) - 1)
    m = (mant | _U(1 << 52)) << _U(3)
    k = np.floor(np.log10(np.abs(x))).astype(np.int64)
    s = 17 - k
    p = _POW5[s]
    sh = 1078 - (bits >> _U(52) & _U(2047)).astype(np.int64) - s
    mh, ml, ph, pl = m >> _U(32), m & _U(0xFFFFFFFF), p >> _U(32), p & _U(0xFFFFFFFF)
    ll = ml * pl
    mid = ml * ph + mh * pl + (ll >> _U(32))
    lo, hi = (mid << _U(32)) | (ll & _U(0xFFFFFFFF)), mh * ph + (mid >> _U(32))
    vr = (lo >> sh.astype(_U)) | (hi << (64 - sh).astype(_U))
    rem = (lo & ((_U(1) << sh.astype(_U)) - _U(1))).astype(np.int64)
    half = (p << _U(3)).astype(np.int64)  # half an ulp, over 2^(sh + 1)
    up, down, even = 2 * rem + half, 2 * rem - half, (mant & _U(1)) == 0
    vp = vr + (up >> (sh + 1)).astype(_U) - (((up & ((1 << (sh + 1)) - 1)) == 0) & ~even)
    vm = vr + (down >> (sh + 1)).astype(_U)
    # drop digits while (vm, vp] holds a multiple of 10
    removed, pj, mj, vm_r = np.zeros(len(x), np.int64), vp // _U(10), vm // _U(10), vm
    while (go := pj > mj).any():
        removed += go
        vm_r = np.where(go, mj, vm_r)
        pj, mj = pj // _U(10), mj // _U(10)
    last = vr // _POW10[removed - 1]  # removed >= 1: vp - vm >= 2^-53 10^17 > 10
    out = last // _U(10)
    digit = last - out * _U(10)
    tie = (rem == 0) & (digit == 5) & ((out & _U(1)) == 0)  # x 10^s ends in 5 0...0: to even
    out += (out == vm_r) | ((digit >= 5) & ~tie)
    decpt = k + 1 + (vr >= _U(10 ** 18)) - (vr < _U(10 ** 17))  # floor(log10|x|) + 1
    return out, decpt + s - removed, decpt


def _slot_masks() -> np.ndarray:
    """The slots of _NUMBER a number's text takes, by its code: sign,
    decpt + 3 and digits shown - 1."""
    neg, decpt, shown = (a.reshape(-1, 1) for a in np.meshgrid(
        [False, True], np.arange(-3, 17), np.arange(1, 18), indexing="ij"))
    digits = np.dstack([np.arange(16) < shown, np.arange(16) == decpt - 1]).reshape(-1, 32)
    return np.hstack([neg, decpt <= 0, decpt <= 0, np.arange(3) < -decpt, digits, shown == 17])


# A number's 39 slots: sign, "0.", 3 zeros, 17 digits with a point after each of the first 16
_NUMBER = b"-0.000" + b"0." * 16 + b"0"
_SLOT_MASKS = _slot_masks()


def _digit_block(template: str, columns) -> str | None:
    """_format_block(template * rows, columns) for a row template of %r and
    literal text, or None for a block with a value out of _in_reach. Each
    row is the template's bytes with _NUMBER's slots for each %r: the
    digits go in, each number's row of _SLOT_MASKS zeroes the slots its
    text leaves unused, and the block's bytes less the zeros are its text."""
    x = np.column_stack(columns).ravel()
    if not _in_reach(x).all():
        return None
    out, nd, decpt = _shortest(x)
    # the 17 digits of out padded with zeros: a leading digit, then four words of 4
    q = [(out * _POW10[17 - nd]).view(np.int64) // 10 ** e for e in (16, 12, 8, 4, 0)]
    words = [(q[0] + 48) << 24] + [_DIGITS4[b - a * 10 ** 4] for a, b in zip(q, q[1:])]
    # a number's slots, the literal before it and the row's last literal after
    # the last number, each filled out with zeros to the same width
    *literals, end = [text.encode() for text in template.split("%r")]
    lead = max(map(len, literals))
    groups = [text.ljust(lead, b"\0") + _NUMBER for text in literals]
    groups[-1] += end
    row = b"".join(group.ljust(len(groups[-1]), b"\0") for group in groups)
    block = np.tile(np.frombuffer(row, np.uint8), len(columns[0])).reshape(len(x), len(groups[-1]))
    block[:, lead + 6:lead + 39:2] = np.stack(words, 1).astype("<u4").view(np.uint8)[:, 3:]
    masks = np.ones((len(_SLOT_MASKS), block.shape[1]), bool)
    masks[:, lead:lead + 39] = _SLOT_MASKS
    block *= np.take(masks, ((x < 0) * 20 + decpt + 3) * 17 + np.maximum(nd, decpt + 1) - 1, 0)
    return block.tobytes().translate(None, b"\0").decode("ascii")


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
        if not schema.nanoseconds and (text := _digit_block(row, (t, mid, vol))) is not None:
            return text
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


def _blockwise(func, items: list):
    """map(func, items) over the blocks of a job: row or byte ranges, column groups.

    A job of two or more blocks, with two CPUs to run on, forks one
    child that maps items[1::2] while the parent maps items[0::2]. The
    child is sent nothing: it maps its share of the list it holds from
    the fork, and each result comes back pickled over a pipe. If the
    child fails (an exception, EOF or death), the parent maps that item
    and every later one, so errors are map's. The child closes its copy
    of the read end, so it cannot block on a pipe the parent has left;
    it writes to no stream and ends in os._exit: it flushes no inherited
    buffer and runs no atexit handler. The parent closes the pipe and
    reaps it on every way out."""
    cpus = len(getattr(os, "sched_getaffinity", lambda pid: ())(0))
    if len(items) < 2 or cpus < 2:
        yield from map(func, items)
        return
    result_r, result_w = os.pipe()
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
            os.close(result_r)
            warnings.simplefilter("error")  # a warning fails the item: the parent maps it
            outbox = open(result_w, "wb")
            for item in items[1::2]:
                pickle.dump(func(item), outbox, pickle.HIGHEST_PROTOCOL)
                outbox.flush()
        finally:
            os._exit(0)
    os.close(result_w)
    inbox, alive = open(result_r, "rb"), pid is not None
    try:
        for at, item in enumerate(items):
            theirs = alive and at % 2 == 1
            if theirs:
                try:
                    result = pickle.load(inbox)
                except Exception:  # EOF or a truncated result: the child is gone
                    theirs = alive = False
            yield result if theirs else func(item)
    finally:
        inbox.close()
        if pid:
            os.waitpid(pid, 0)
