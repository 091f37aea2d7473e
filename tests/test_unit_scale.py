"""identity-check at every unit scale.

Each form of a window's volatility is a difference of terms about p(2) in
size, so identity-check measures their largest disagreement relative to
p(2) (q(2) for lag-m records). The same trades with their costs scaled
by 1e-8, 1 or 1e8 then read the same few ulps and pass, and an error of
1e-9 p(2) planted in the closed form fails at every scale; against
max(1, |sigma^2|) it passed at 1e-8, where sigma^2 is near 1e-12.
"""

import numpy as np
import pytest

from tickvol import IngestSchema, SimConfig, TradeSeries, cli, simulate_trades, write_trades
from tickvol.volatility import volatility_forms

SCALES = [1e-8, 1.0, 1e8]
FLAGS = ["--window", "10", "--stride", "5", "--lags", "1,2,10"]


@pytest.fixture(scope="module")
def series():
    return simulate_trades(SimConfig(n_trades=5000, seed=7))


def scaled(series, scale, tmp_path):
    """A trade file of the series with every cost times scale."""
    path = tmp_path / f"trades-{scale:g}.csv"
    write_trades(TradeSeries(series.timestamps, series.costs * scale, series.volumes), path,
                 IngestSchema("ts_cost_volume"))
    return path


def identity_check(path, tmp_path, flags=FLAGS):
    """(exit code, [(max_rel_dev, status) of each row])."""
    out = tmp_path / "identity.csv"
    code = cli.main(["identity-check", "--input", str(path), *flags, "--output", str(out)])
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    return code, [(float(row[3]), row[5]) for row in rows]


@pytest.mark.parametrize("scale", SCALES)
def test_rescaled_costs_pass_within_a_few_ulps(series, scale, tmp_path):
    code, rows = identity_check(scaled(series, scale, tmp_path), tmp_path)
    assert code == 0 and len(rows) == 4
    assert all(status == "PASS" and dev < 1e-14 for dev, status in rows), rows


def test_prices_near_1e4_pass(tmp_path):
    # the price row read 4.62e-10 against max(1, |sigma^2|)
    path = tmp_path / "trades.csv"
    assert cli.main(["simulate", "--seed", "4", "--n-trades", "20000", "--start-price", "1e4",
                     "--output", str(path)]) == 0
    code, rows = identity_check(path, tmp_path, ["--window", "1", "--lags", "1"])
    assert code == 0 and [status for _, status in rows] == ["PASS", "PASS"]


@pytest.mark.parametrize("scale", SCALES)
def test_an_error_of_1e_9_p2_fails_at_every_scale(series, scale, tmp_path, monkeypatch):
    path = scaled(series, scale, tmp_path)

    def planted(count, c1, c2, v1, v2):
        direct, closed, terms = volatility_forms(count, c1, c2, v1, v2)
        return direct, closed + 1e-9 * (c2 / v2), terms
    monkeypatch.setattr(cli, "volatility_forms", planted)
    code, rows = identity_check(path, tmp_path)
    assert code == 1
    assert all(status == "FAIL" and 0.9e-9 < dev < 1.1e-9 for dev, status in rows), rows


def test_a_p2_that_underflows_to_0_counts_as_the_smallest_normal_double(series, tmp_path):
    # costs near 1e-170: C^2 underflows to 0, so p(2) is 0; the price forms
    # are 0 too and read 0, not 0/0
    code, rows = identity_check(scaled(series, 1e-172, tmp_path), tmp_path)
    assert code == 0 and rows[0] == (0.0, "PASS")
    tiny = np.finfo(np.float64).tiny
    zero = np.zeros(1)
    assert cli._max_rel_dev(zero, zero, zero) == 0.0
    assert cli._max_rel_dev(zero, zero, np.array([4 * 5e-324])) == 4 * 5e-324 / tiny
    assert cli._max_rel_dev(np.array([tiny / 4]), zero, np.array([tiny])) == 1.0
