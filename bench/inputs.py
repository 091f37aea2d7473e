"""Seeded benchmark inputs, built without tickvol.

The generator draws from numpy's PCG64 directly and the writers are the
benchmark's own, so a change to tickvol.synth or tickvol.ingest cannot
change what the benchmark feeds the CLI. Trades arrive as a Poisson
process at 1 trade/s, so a window width in seconds is roughly the number
of trades it holds. Prices follow a geometric random walk with a
tick-scale step and volumes are log-normal.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

N_TRADES = 200_000
PRICE_STEP = 0.001
START_PRICE = 100.0
VOLUME_SIGMA = 0.5


@dataclass(frozen=True)
class Trades:
    """Reference arrays as the CLI will see them after loading the file.

    ts_ns is the integer-nanosecond clock; ts is ts_ns / 1e9, the value
    tickvol derives on load for either file layout written here.
    """

    ts_ns: np.ndarray
    ts: np.ndarray
    prices: np.ndarray
    costs: np.ndarray
    volumes: np.ndarray


def generate(seed: int, n: int = N_TRADES) -> Trades:
    """Deterministic trades for a seed: same seed, same bits."""
    rng = np.random.Generator(np.random.PCG64(seed))
    gaps_ns = np.maximum(1, np.rint(rng.exponential(1e9, n))).astype(np.int64)
    ts_ns = np.cumsum(gaps_ns)
    prices = START_PRICE * np.exp(np.cumsum(rng.normal(0.0, PRICE_STEP, n)))
    volumes = rng.lognormal(0.0, VOLUME_SIGMA, n)
    return Trades(ts_ns, ts_ns / 1e9, prices, prices * volumes, volumes)


def render_cost_csv(trades: Trades) -> bytes:
    """ts_cost_volume CSV with decimal-second timestamps."""
    lines = ["ts,cost,volume"]
    lines += [f"{t!r},{c!r},{v!r}" for t, c, v in zip(
        trades.ts.tolist(), trades.costs.tolist(), trades.volumes.tolist())]
    lines.append("")
    return "\n".join(lines).encode()


def render_price_ndjson(trades: Trades) -> bytes:
    """ts_price_volume NDJSON with integer-nanosecond timestamps.

    tickvol derives cost as price * volume on load, which is exactly how
    Trades.costs is built, so the reference arrays match the loaded ones.
    """
    lines = [f'{{"ts": {t}, "price": {p!r}, "volume": {v!r}}}' for t, p, v in zip(
        trades.ts_ns.tolist(), trades.prices.tolist(), trades.volumes.tolist())]
    lines.append("")
    return "\n".join(lines).encode()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def simulated_reference(seed: int, n: int) -> Trades:
    """The trades `tickvol simulate --seed SEED --n-trades N` documents with
    its default parameters: numpy's default_rng (PCG64) seeded with SEED,
    exponential arrivals at rate 1, a geometric random walk from price 100
    with step 0.02, log-normal volumes (0, 0.5), cost = price * volume.

    Re-derived here, not imported, so the simulate workload is checked
    against the documented law rather than against the code it measures.
    """
    rng = np.random.default_rng(seed)
    gaps = np.maximum(rng.exponential(1.0, n), 1e-12)
    ts = 0.0 + np.cumsum(gaps)
    prices = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.02, n)))
    volumes = rng.lognormal(0.0, 0.5, n)
    return Trades(np.rint(ts * 1e9).astype(np.int64), ts, prices, prices * volumes, volumes)
