"""Compensated summation used by every aggregate in the package.

csum() is the reference: math.fsum tracks exact partials (Shewchuk's
algorithm) and returns the correctly rounded sum, so results are
deterministic and independent of evaluation order.

window_sums() computes the csum of many windows of one array at once.
The rows of each column that some window covers are converted to Python
floats once, and every window is math.fsum over a slice of that list,
so the results are csum's by construction and the cost grows with the
number of covered rows plus the total window length, whatever the gaps
between windows. What it saves over a csum call per window is the
per-window overhead: selecting the window, raising the view to a power
and converting it to a list.
"""

import math

import numpy as np

from .trades import window_bounds


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
    bounds = list(zip(rank[starts].tolist(), rank[ends].tolist()))
    out = np.empty((len(bounds), cols.shape[1]))
    for c in range(cols.shape[1]):
        col = cols[covered, c].tolist()
        out[:, c] = [math.fsum(col[lo:hi]) for lo, hi in bounds]
    return out.reshape(lengths.shape + values.shape[1:])


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
