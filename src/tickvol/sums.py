"""Compensated summation used by every aggregate in the package.

csum() is the reference: math.fsum tracks exact partials (Shewchuk's
algorithm) and returns the correctly rounded sum, so results are
deterministic and independent of evaluation order.

window_sums() computes the csum of many windows at once, a column at a
time, over the rows some window covers. Each column is a recipe, a
zero-argument callable (a ** 2, say), called where the column is read,
so a process holds one summand at a time. Every finite value is an integer
multiple of 2**(emin - 53), emin the column's smallest exponent, so the
column's exact prefix sums are int64 cumsums of 32-bit limbs (after R. M.
Neal's superaccumulators, arXiv:1505.05571), built a limb at a time from
shifts of the values' integer mantissas and kept only at the window
edges, which are found once for all columns. A window's exact sum is the
difference of two of them, rounded for all windows at once in numpy to
the nearest double, half to even, as fsum rounds, so the bits are csum's.
The cost grows with the covered rows plus the windows, whatever the
overlap. Every column takes this path: a window holding inf, -inf or
nan gets fsum's value, or nan for both infinities (fsum's ValueError);
a sum past the double range rounds to inf or -inf (fsum's
OverflowError); an exact zero is +0.0, as in fsum, and a nonzero sum
never rounds to 0 (below 2**-1022 it is a multiple of 2**-1074).

Past ingest._floor() covered rows, each recipe is one item of
ingest._blockwise: with two CPUs, a forked child is sent nothing; it calls
the odd recipes of the list it holds from the fork and sends back each
one's window sums.
"""

import math

import numpy as np

from .ingest import _blockwise, _floor

# Rows made limbs and prefix-summed, and windows rounded, at a time.
PREFIX_BLOCK_ROWS = 1 << 15

_LIMB = 0xFFFFFFFF


def csum(values) -> float:
    """Exactly rounded sum of a sequence of floats."""
    if isinstance(values, np.ndarray):
        # tolist() converts to Python floats in C; fsum then runs ~2x
        # faster than iterating the ndarray directly.
        return math.fsum(values.tolist())
    return math.fsum(values)


def window_sums(columns, starts, ends) -> list:
    """csum(column()[start:end]) of each recipe in columns (each returns a 1-d array and
    is called once, in the process that sums it) for every window [start, end) of the
    integer arrays starts and ends (window_bounds' lo and hi): one float64 array per recipe."""
    # rows some window covers, from a difference array of window starts
    # and ends; rank maps a row index to its index among covered rows, and
    # goes with delta before any column is read
    size = int(ends.max(initial=0)) + 1
    delta = np.bincount(starts, minlength=size) - np.bincount(ends, minlength=size)
    covered = np.cumsum(delta[:-1]) > 0
    rank = np.concatenate([[0], np.cumsum(covered)])
    lo, hi, rows = rank[starts], rank[ends], int(rank[-1])
    del delta, rank
    # the distinct window edges, and each window's two among them: the
    # prefix sums every column keeps
    need, inverse = np.unique(np.concatenate([lo, hi]), return_inverse=True)
    edges = inverse.reshape(2, -1)

    def summed(recipe):  # the window sums of one column
        return _prefix_sums(np.asarray(recipe(), dtype=np.float64)[:len(covered)][covered],
                            lo, hi, need, edges)
    return list((_blockwise if rows > _floor() else map)(summed, columns))


def _prefix_sums(col: np.ndarray, lo: np.ndarray, hi: np.ndarray, need: np.ndarray,
                 edges: np.ndarray) -> np.ndarray:
    """csum(col[a:b]) of every window (a, b) in zip(lo, hi), bit for bit, from
    exact prefix sums; inf or nan where fsum raises (see the module docstring).
    need holds the distinct window edges, ascending, and edges[0] and
    edges[1] the indices in need of lo and hi."""
    mag = np.abs(col)
    top = mag.max(initial=0.0)
    special = None
    if not np.isfinite(top):
        # prefix counts of inf, -inf and nan; the limbs sum the rest
        kinds = np.stack([col == np.inf, col == -np.inf, np.isnan(col)])
        special = np.concatenate([np.zeros((3, 1), np.int64), kinds.cumsum(axis=1)], axis=1)
        col, mag = (np.where(kinds.any(axis=0), 0.0, a) for a in (col, mag))
        top = mag.max(initial=0.0)
    # frexp's exponent grows with |x|: the smallest and largest nonzero
    # magnitudes give the column's exponent range
    emin = int(np.frexp(mag.min(where=mag > 0, initial=top))[1])
    limbs = (int(np.frexp(top)[1]) - emin + 53 + 31) // 32
    del mag
    # prefix column i = the limbs of sum(col[:i]) at window edges, built a
    # block of rows at a time; int64 holds a limb, a sum of pieces below
    # 2**32, for up to 2**31 rows. Zero limbs, two below and one above,
    # are room for _round_limbs.
    prefix = np.zeros((limbs + 3, len(need)), dtype=np.int64)
    total = np.zeros((limbs, 1), dtype=np.int64)
    for at in range(0, len(col), PREFIX_BLOCK_ROWS):
        table = _limb_table(col[at:at + PREFIX_BLOCK_ROWS], emin, limbs)
        np.cumsum(table, axis=1, out=table)
        table += total
        first, stop = np.searchsorted(need, [at + 1, at + table.shape[1] + 1])
        prefix[2:-1, first:stop] = table[:, need[first:stop] - at - 1]
        total = table[:, -1:]
    sums = np.empty(len(lo))
    for at in range(0, len(lo), PREFIX_BLOCK_ROWS):
        w = slice(at, at + PREFIX_BLOCK_ROWS)
        sums[w] = _round_limbs(prefix[:, edges[1, w]] - prefix[:, edges[0, w]], emin - 53)
    if special is not None:
        pos, neg, nan = special[:, hi] - special[:, lo] > 0
        sums[pos], sums[neg], sums[nan | pos & neg] = np.inf, -np.inf, np.nan
    return sums


def _round_limbs(x: np.ndarray, scale: int) -> np.ndarray:
    """The doubles nearest n * 2**scale, half to even, for each integer n
    held in a column of x (overwritten) as signed 32-bit limbs, lowest
    first, each below 2**63 - 2**32 in magnitude, the first two and last 0."""
    # carries move up until every limb but the last holds 32 bits, so a
    # negative n shows in that last limb; then |n| is carried the same way
    _carry(x)
    negative = x[-1] < 0
    np.negative(x, out=x, where=negative)
    _carry(x)
    # |n|'s top nonzero limb t and the leading zeros of that limb: its top
    # 64 bits, from limbs t, t - 1 and t - 2, are a uint64 with the top bit
    # set, and any bit below them is ORed into bit 0 (round to odd), so
    # the uint64 -> float64 conversion rounds as the exact |n| would
    t = len(x) - 1 - np.argmax(x[::-1] != 0, axis=0)
    w = np.arange(x.shape[1])
    high, mid, low = x[t, w], x[t - 1, w], x[t - 2, w]
    shift = 32 - np.frexp(high)[1].astype(np.int64)
    x[t, w] = x[t - 1, w] = 0
    x[t - 2, w] = low & ((1 << (32 - shift)) - 1)
    sticky = x.any(axis=0)
    exponent = 32 * (t - 3) - shift + scale
    high, mid, low, shift = (a.astype(np.uint64) for a in (high, mid, low, shift))
    top = (high << (shift + np.uint64(32))) | (mid << shift) | (low >> (np.uint64(32) - shift))
    with np.errstate(over="ignore"):  # a sum past the double range is inf
        sums = np.ldexp((top | sticky).astype(np.float64), exponent)
    return np.negative(sums, out=sums, where=negative)


def _carry(x: np.ndarray) -> None:
    for k in range(len(x) - 1):
        x[k + 1] += x[k] >> 32
        x[k] &= _LIMB


def _limb_table(block: np.ndarray, emin: int, limbs: int) -> np.ndarray:
    """One column of 32-bit limbs per value, for values that are all
    integer multiples of 2**(emin - 53): x = mant * 2**(exp - 53) with
    |mant| < 2**53, so limb k holds bits 32k to 32k + 31 of |mant| shifted
    left by exp - emin, with the value's sign."""
    frac, exp = np.frexp(block)
    mant = np.ldexp(frac, 53).astype(np.int64)
    shift = np.where(mant != 0, exp - emin, 0)
    mag = np.abs(mant).view(np.uint64)
    table = np.empty((limbs, len(block)), dtype=np.int64)
    # a limb at a time, so the arrays stay small: limb k is |mant| shifted
    # left by s = shift - 32k (right by -s when s < 0), cut to 32 bits; a
    # shift by 63 either way leaves none of its 53 bits in those 32
    for k, limb in enumerate(table.view(np.uint64)):
        s = shift - 32 * k
        np.left_shift(mag, np.clip(s, 0, 63).astype(np.uint64), out=limb)
        limb >>= np.clip(-s, 0, 63).astype(np.uint64)
    table &= _LIMB
    return np.negative(table, out=table, where=mant < 0)

