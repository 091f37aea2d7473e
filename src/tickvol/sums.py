"""Compensated summation used by every aggregate in the package.

csum() is the reference: math.fsum tracks exact partials (Shewchuk's
algorithm) and returns the correctly rounded sum, so results are
deterministic and independent of evaluation order.

window_sums() computes the csum of many windows of one array at once.
Each column is converted to Python floats once, and every window is
math.fsum over a slice of that list, so the results are csum's by
construction and the cost grows with the total window length. What it
saves over a csum call per window is the per-window overhead: selecting
the window, raising the view to a power and converting it to a list.
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
    bounds = list(zip(starts.tolist(), (starts + lengths).tolist()))
    out = np.empty((len(bounds), cols.shape[1]))
    for c in range(cols.shape[1]):
        col = cols[:, c].tolist()
        out[:, c] = [math.fsum(col[lo:hi]) for lo, hi in bounds]
    return out.reshape(lengths.shape + values.shape[1:])


def windowed_sums(timestamps, centers, width: float, summands) -> tuple:
    """Member counts of every window, and window_sums of the non-empty ones.

    summands are arrays aligned with the sorted timestamps; column i of
    the sums holds the window sums of summands[i], one row per window
    with a non-zero count, in window order.
    """
    starts, counts = window_bounds(timestamps, centers, width)
    full = counts > 0
    return counts, window_sums(np.column_stack(summands), starts[full], counts[full])
