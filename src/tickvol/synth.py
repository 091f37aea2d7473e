"""Reproducible synthetic trade series for tests and demos.

Prices follow a seeded geometric random walk, volumes are log-normal,
inter-arrival times exponential. The generator is numpy's default PCG64
(np.random.default_rng), so a given seed yields the same series on every
platform and run; costs are defined as price*volume, so every simulated
series satisfies the trade invariants by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .trades import TradeSeries


@dataclass(frozen=True)
class SimConfig:
    """Parameters of the synthetic trade generator.

    sigma_step is the standard deviation of the per-step log-price
    increment (0 gives a constant price); volume_mu/volume_sigma are the
    log-normal location and scale of trade volumes; arrival_rate is the
    rate of the exponential inter-arrival law.
    """

    n_trades: int
    seed: int
    sigma_step: float = 0.02
    start_price: float = 100.0
    volume_mu: float = 0.0
    volume_sigma: float = 0.5
    arrival_rate: float = 1.0
    start_time: float = 0.0

    def __post_init__(self):
        if self.n_trades < 1:
            raise ValueError(f"n_trades must be >= 1, got {self.n_trades}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not self.arrival_rate > 0:
            raise ValueError(f"arrival_rate must be positive, got {self.arrival_rate}")
        if self.sigma_step < 0:
            raise ValueError(f"sigma_step must be >= 0, got {self.sigma_step}")
        if self.volume_sigma < 0:
            raise ValueError(f"volume_sigma must be >= 0, got {self.volume_sigma}")
        if not self.start_price > 0:
            raise ValueError(f"start_price must be positive, got {self.start_price}")


def simulate_trades(config: SimConfig) -> TradeSeries:
    """Deterministic series for a given config (same seed, same bits)."""
    rng = np.random.default_rng(config.seed)
    n = config.n_trades
    gaps = rng.exponential(scale=1.0 / config.arrival_rate, size=n)
    np.maximum(gaps, 1e-12, out=gaps)
    ts = config.start_time + np.cumsum(gaps)
    # timestamps must be strictly increasing even where a gap underflows
    # the local float resolution; nudging is rare enough to loop
    bad = np.flatnonzero(np.diff(ts) <= 0)
    if bad.size:
        for i in range(int(bad[0]), n - 1):
            if ts[i + 1] <= ts[i]:
                ts[i + 1] = np.nextafter(ts[i], np.inf)
    steps = rng.normal(loc=0.0, scale=config.sigma_step, size=n)
    prices = config.start_price * np.exp(np.cumsum(steps))
    volumes = rng.lognormal(mean=config.volume_mu, sigma=config.volume_sigma, size=n)
    return TradeSeries(ts, prices * volumes, volumes)
