"""Output checks, one per workload, against the benchmark's own references.

Each checker takes the bytes a CLI run wrote plus the reference data the
benchmark generated, and returns a list of problems; an empty list means
the output is correct. Window bounds come from the benchmark's own
np.searchsorted over the reference timestamps, following the windowing
contract tickvol documents: centers start at the first timestamp plus
width/2, advance by stride while the left edge is at or before the last
timestamp, and a window [t - width/2, t + width/2] includes both ends.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

IDENTITY_TOLERANCE = 1e-10   # the paper's gate, as tickvol's CLI applies it
MOMENT_REL_TOLERANCE = 1e-12
MOMENT_SAMPLE = 64
MAX_PROBLEMS = 5


def expected_windows(ts: np.ndarray, width: float, stride: float) -> np.ndarray:
    """Window centers over the span of the sorted timestamps ts."""
    span = float(ts[-1]) - float(ts[0])
    k = int(math.floor(span / stride))
    while (k + 1) * stride <= span:
        k += 1
    while k > 0 and k * stride > span:
        k -= 1
    return float(ts[0]) + width / 2 + stride * np.arange(k + 1, dtype=np.float64)


def window_bounds(ts: np.ndarray, centers: np.ndarray, width: float):
    """[lo, hi) index ranges of the members of each window."""
    lo = np.searchsorted(ts, centers - width / 2, side="left")
    hi = np.searchsorted(ts, centers + width / 2, side="right")
    return lo, np.maximum(lo, hi)


def _num(cell) -> float | None:
    if cell is None or cell == "":
        return None
    return float(cell)


def _check_grid(rows: list[dict], centers: np.ndarray, counts: np.ndarray,
                count_col: str, problems: list[str]) -> bool:
    """Row count, centers and per-row member counts; False stops checking."""
    if len(rows) != len(centers):
        problems.append(f"{len(rows)} rows, expected {len(centers)} windows")
        return False
    for i, row in enumerate(rows):
        if _num(row["t"]) != centers[i]:
            problems.append(f"row {i}: t={row['t']} expected {centers[i]!r}")
        elif int(row[count_col]) != counts[i]:
            problems.append(f"row {i}: {count_col}={row[count_col]} expected {counts[i]}")
        if len(problems) >= MAX_PROBLEMS:
            return False
    return not problems


def _identity_dev(values: list[float]) -> float:
    """Largest pairwise gap between equivalent forms, relative as the paper gates it."""
    scale = max(1.0, abs(values[0]))
    return max(abs(a - b) for i, a in enumerate(values) for b in values[i + 1:]) / scale


def _check_identity(rows: list[dict], count_col: str, forms: list[str],
                    problems: list[str]) -> None:
    for i, row in enumerate(rows):
        values = [_num(row[f]) for f in forms]
        if int(row[count_col]) == 0:
            if any(v is not None for v in values):
                problems.append(f"row {i}: empty window carries values")
        elif any(v is None or not math.isfinite(v) for v in values):
            problems.append(f"row {i}: missing or non-finite volatility")
        else:
            dev = _identity_dev(values)
            if not dev <= IDENTITY_TOLERANCE:
                problems.append(f"row {i}: identity deviation {dev:.3e} > {IDENTITY_TOLERANCE}")
        if len(problems) >= MAX_PROBLEMS:
            return


def _parse_csv(data: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(data.decode())))


def _parse_json(data: bytes) -> list[dict]:
    rows = json.loads(data)
    if not isinstance(rows, list):
        raise ValueError("JSON output is not a list of rows")
    return rows


def check_price_vol(data: bytes, ts: np.ndarray, width: float, stride: float) -> list[str]:
    """price-vol CSV: window grid, n_trades, and sigma2 direct vs closed at 1e-10."""
    problems: list[str] = []
    rows = _parse_csv(data)
    centers = expected_windows(ts, width, stride)
    lo, hi = window_bounds(ts, centers, width)
    if _check_grid(rows, centers, hi - lo, "n_trades", problems):
        _check_identity(rows, "n_trades", ["sigma2_direct", "sigma2_closed"], problems)
    return problems


def check_returns_vol(data: bytes, ts: np.ndarray, lag: int, width: float,
                      stride: float) -> list[str]:
    """returns-vol JSON: window grid, n_records, and the three-way identity at 1e-10.

    A lag-m record belongs to the window of its later trade, so records
    carry the timestamps ts[m:].
    """
    problems: list[str] = []
    rows = _parse_json(data)
    centers = expected_windows(ts, width, stride)
    lo, hi = window_bounds(ts[lag:], centers, width)
    if _check_grid(rows, centers, hi - lo, "n_records", problems):
        _check_identity(rows, "n_records",
                        ["sigma2_direct", "sigma2_rform", "sigma2_closed"], problems)
    return problems


def check_moments(data: bytes, ts: np.ndarray, costs: np.ndarray, volumes: np.ndarray,
                  degrees: list[int], width: float, stride: float, seed: int) -> list[str]:
    """moments JSON: window grid, n_trades, and a seeded sample of rows
    recomputed with math.fsum from the reference arrays."""
    problems: list[str] = []
    rows = _parse_json(data)
    centers = expected_windows(ts, width, stride)
    lo, hi = window_bounds(ts, centers, width)
    if not _check_grid(rows, centers, hi - lo, "n_trades", problems):
        return problems
    nonempty = np.flatnonzero(hi > lo)
    rng = np.random.Generator(np.random.PCG64(seed))
    sample = rng.choice(nonempty, size=min(MOMENT_SAMPLE, len(nonempty)), replace=False)
    for i in sorted(sample.tolist()):
        c, v = costs[lo[i]:hi[i]], volumes[lo[i]:hi[i]]
        for n in degrees:
            c_sum = math.fsum((c ** n).tolist())
            v_sum = math.fsum((v ** n).tolist())
            for col, want in ((f"C{n}", c_sum), (f"V{n}", v_sum), (f"p{n}", c_sum / v_sum)):
                got = _num(rows[i][col])
                if got is None or not math.isclose(got, want, rel_tol=MOMENT_REL_TOLERANCE):
                    problems.append(f"row {i}: {col}={got!r} expected {want!r}")
        if len(problems) >= MAX_PROBLEMS:
            break
    return problems


def check_simulated(data: bytes, ts: np.ndarray, costs: np.ndarray,
                    volumes: np.ndarray) -> list[str]:
    """simulate CSV (ts,price,volume): every row reproduces the reference
    timestamp and volume, and price * volume == cost exactly."""
    lines = data.decode().split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != "ts,price,volume":
        return [f"bad header {lines[0]!r}" if lines else "empty output"]
    if len(lines) - 1 != len(ts):
        return [f"{len(lines) - 1} rows, expected {len(ts)}"]
    try:
        table = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    except ValueError as exc:
        return [f"unparsable row: {exc}"]
    if table.shape != (len(ts), 3):
        return ["rows do not all have three fields"]
    problems = []
    for name, got, want in (("ts", table[:, 0], ts), ("volume", table[:, 2], volumes),
                            ("price*volume", table[:, 1] * table[:, 2], costs)):
        bad = np.flatnonzero(got != want)
        if bad.size:
            i = int(bad[0])
            problems.append(f"{bad.size} rows with {name} off the reference, first row {i + 1}: "
                            f"{got[i]!r} != {want[i]!r}")
    return problems
