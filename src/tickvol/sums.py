"""Compensated summation used by every aggregate in the package.

csum() is the reference: math.fsum tracks exact partials (Shewchuk's
algorithm) and returns the correctly rounded sum, so results are
deterministic and independent of evaluation order.

window_sums() computes the csum of many windows of one array at once,
over the rows of each column that some window covers, by one of two
paths that give the same bits:

- slice: the covered rows are converted to Python floats once, and every
  window is math.fsum over a slice of that list, csum by construction.
  Its cost grows with the number of covered rows plus the total window
  length, so it suits windows that barely overlap.
- prefix: every value is an integer multiple of 2**(emin - 53), where
  emin is the smallest exponent in the column, so exact prefix sums of
  the column can be held as int64 cumsums of 32-bit limbs (after R. M.
  Neal's superaccumulators, arXiv:1505.05571). A window's sum is the
  difference of two prefix rows, made a Python int and scaled back by
  the power of two; the int's conversion to float rounds correctly, half
  to even, like math.fsum, so the bits are csum's. Its cost grows with
  the number of covered rows plus the number of windows, whatever the
  overlap.

window_sums takes the prefix path when the total window length exceeds
PREFIX_OVERLAP times the covered rows; a column the prefix path cannot
hold exactly (see _prefix_sums) takes the slice path.
"""

import math

import numpy as np

from .trades import window_bounds

# Overlap (total window length / covered rows) above which window_sums
# takes the prefix path: below it, the per-window int conversion and
# division cost more than the fsum steps they save.
PREFIX_OVERLAP = 3

# Most 32-bit limbs a column's prefix sums may span (an exponent range of
# 203 bits); bounds the limb table at 8 int64 per row of a block.
MAX_LIMBS = 8

# Rows turned into limbs and prefix-summed at a time.
PREFIX_BLOCK_ROWS = 1 << 15

# A column whose absolute values sum to this or more takes the slice
# path, so fsum's intermediate-overflow OverflowError stays fsum's.
ABS_SUM_LIMIT = 2.0 ** 1000

_LIMB = 0xFFFFFFFF


def csum(values) -> float:
    """Exactly rounded sum of a sequence of floats."""
    if isinstance(values, np.ndarray):
        # tolist() converts to Python floats in C; fsum then runs ~2x
        # faster than iterating the ndarray directly.
        return math.fsum(values.tolist())
    return math.fsum(values)


def window_sums(values, starts, lengths) -> np.ndarray:
    """csum(values[start:start + length]) for every window.

    values is 1-d, or 2-d with one column per summed quantity; the result
    has one row per window (and the same columns). Window order is kept.
    """
    values = np.asarray(values, dtype=np.float64)
    starts = np.asarray(starts, dtype=np.intp)
    lengths = np.asarray(lengths, dtype=np.intp)
    cols = values.reshape(len(values), -1)
    ends = starts + lengths
    # rows some window covers, from a difference array of window starts
    # and ends; rank maps a row index to its index among covered rows
    size = len(cols) + 1
    edges = np.bincount(starts, minlength=size) - np.bincount(ends, minlength=size)
    covered = np.cumsum(edges[:-1]) > 0
    rank = np.concatenate([[0], np.cumsum(covered)])
    lo, hi = rank[starts], rank[ends]
    prefix = lengths.sum() > PREFIX_OVERLAP * rank[-1]
    out = np.empty((len(lo), cols.shape[1]))
    for c in range(cols.shape[1]):
        col = cols[covered, c]
        sums = _prefix_sums(col, lo, hi) if prefix else None
        out[:, c] = _slice_sums(col, lo, hi) if sums is None else sums
    return out.reshape(lengths.shape + values.shape[1:])


def _slice_sums(col: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> list:
    """math.fsum(col[lo:hi]) for every window (lo, hi) of one column."""
    values = col.tolist()
    return [math.fsum(values[a:b]) for a, b in zip(lo.tolist(), hi.tolist())]


def _prefix_sums(col: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """The same sums as _slice_sums, bit for bit, from exact prefix sums;
    None for a column it cannot hold exactly: a non-finite value, absolute
    values summing to ABS_SUM_LIMIT or more, no nonzero value, or
    exponents spanning more than MAX_LIMBS limbs."""
    with np.errstate(all="ignore"):
        mag = np.abs(col)
        if not mag.sum() < ABS_SUM_LIMIT:
            return None
    top = mag.max(initial=0.0)
    if top == 0:
        return None
    # frexp's exponent grows with |x|: the smallest and largest nonzero
    # magnitudes give the column's exponent range
    emin = int(np.frexp(mag.min(where=mag > 0, initial=top))[1])
    limbs = (int(np.frexp(top)[1]) - emin + 53 + 31) // 32
    if limbs > MAX_LIMBS:
        return None
    del mag
    # prefix row i = the limbs of sum(col[:i]), kept only at window edges,
    # one block of rows at a time so memory stays bounded; a limb adds up
    # pieces below 2**32, so int64 holds it for up to 2**31 rows
    need, inverse = np.unique(np.concatenate([lo, hi]), return_inverse=True)
    rows = np.zeros((len(need), limbs), dtype=np.int64)
    total = np.zeros(limbs, dtype=np.int64)
    for at in range(0, len(col), PREFIX_BLOCK_ROWS):
        table = _limb_table(col[at:at + PREFIX_BLOCK_ROWS], emin, limbs)
        np.cumsum(table, axis=0, out=table)
        table += total
        first, stop = np.searchsorted(need, [at + 1, at + len(table) + 1])
        rows[first:stop] = table[need[first:stop] - at - 1]
        total = table[-1]
    # exact window sums, limb by limb (|limb| < length * 2**32), then
    # carries move up so every limb but a last, signed headroom limb
    # holds 32 bits: the two's complement of the sum, little-endian
    diff = np.zeros((len(lo), limbs + 1), dtype=np.int64)
    np.subtract(rows[inverse[len(lo):]], rows[inverse[:len(lo)]], out=diff[:, :limbs])
    for k in range(limbs):
        diff[:, k + 1] += diff[:, k] >> 32
        diff[:, k] &= _LIMB
    diff[:, limbs] &= _LIMB
    raw = diff.astype("<u4").tobytes()
    step = 4 * (limbs + 1)
    ints = [int.from_bytes(raw[i:i + step], "little", signed=True)
            for i in range(0, len(raw), step)]
    # ldexp converts the int with correct rounding, half to even, as fsum
    # rounds, and the scaling by a power of two is then exact: a sum below
    # 2**-1022 is a multiple of 2**-1074, so it needs no rounding at all
    scale = emin - 53
    sums = [math.ldexp(n, scale) for n in ints]
    # an exact zero takes fsum's sign of zero, which varies by Python version
    for w in np.flatnonzero(~diff.any(axis=1)).tolist():
        sums[w] = math.fsum(col[lo[w]:hi[w]].tolist())
    return sums


def _limb_table(block: np.ndarray, emin: int, limbs: int) -> np.ndarray:
    """One row of 32-bit limbs per value, for values that are all integer
    multiples of 2**(emin - 53): x = mant * 2**(exp - 53) with |mant| <
    2**53, so |mant| shifted left by exp - emin is cut into three pieces
    at limbs q, q + 1 and q + 2 of its row, with the value's sign."""
    frac, exp = np.frexp(block)
    mant = np.ldexp(frac, 53).astype(np.int64)
    mag = np.abs(mant).astype(np.uint64)
    shift = np.where(mant != 0, exp - emin, 0)
    q, r = shift >> 5, (shift & 31).astype(np.uint64)
    pieces = ((mag << r) & np.uint64(_LIMB),
              (mag >> (np.uint64(32) - r)) & np.uint64(_LIMB),
              (mag >> np.uint64(32)) >> (np.uint64(32) - r))
    table = np.zeros((len(block), limbs), dtype=np.int64)
    flat = table.reshape(-1)
    starts = np.arange(0, len(flat), limbs)
    negative = mant < 0
    # a value's top bit lies in limb q + 1 or q + 2, so a third piece past
    # the last limb is 0: it is written first, clipped onto limb q + 1,
    # and the second piece overwrites it
    for k in (2, 1, 0):
        piece = pieces[k].astype(np.int64)
        flat[starts + np.minimum(q + k, limbs - 1)] = np.where(negative, -piece, piece)
    return table


def windowed_sums(timestamps, centers, width: float, summands) -> tuple:
    """Member counts of every window, and window_sums of the non-empty ones.

    summands are arrays aligned with the sorted timestamps; column i of
    the sums holds the window sums of summands[i], one row per window
    with a non-zero count, in window order. Where csum would raise (its
    partials overflow, or inf meets -inf), the window gets the plain
    float sum, inf or nan, so the caller can report which one overflowed.
    """
    starts, counts = window_bounds(timestamps, centers, width)
    full = counts > 0
    values = np.column_stack(summands)
    try:
        return counts, window_sums(values, starts[full], counts[full])
    except (OverflowError, ValueError):
        rows = [values[lo:lo + n].T.tolist() for lo, n in zip(starts[full], counts[full])]
        return counts, np.array([[_fsum_or_sum(col) for col in row] for row in rows])


def _fsum_or_sum(values: list) -> float:
    try:
        return math.fsum(values)
    except (OverflowError, ValueError):
        return sum(values)
