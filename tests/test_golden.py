"""Golden CLI bytes: every subcommand, CSV and JSON, fixed input.

The files under tests/data/golden/ were produced by the per-window
``math.fsum`` implementation (charfun by its per-grid-point sums, and
simulate by the writer of the same release). Any change to summation, window indexing,
the volatility algebra or table emission must reproduce them byte for
byte, with nothing on stderr (numpy warnings are raised as errors here,
so a leaked RuntimeWarning fails the test too).

To regenerate after a deliberate output change, run

    PYTHONPATH=src python tests/test_golden.py

and explain the diff in the change that commits it.
"""

from __future__ import annotations

import pathlib
import sys
import warnings

import pytest

from tickvol.cli import main

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden"
TRADES = GOLDEN / "trades.csv"  # simulate --seed 20201 --n-trades 600
TESTFN = GOLDEN / "charfun_testfn.txt"  # x_g for the 8-point charfun grid
CHARFUN = ["charfun", "--window", "30", "--grid", "40:75:8", "--testfn", str(TESTFN)]

# name -> CLI arguments after the subcommand's --input
CASES = {
    # ~3 trades per window with stride > width: many empty windows
    "moments": ["moments", "--window", "3", "--stride", "4", "--degrees", "1,2,3,8"],
    "moments_wide": ["moments", "--window", "60", "--stride", "7", "--degrees", "1,2,3,8"],
    "price_vol": ["price-vol", "--window", "10", "--stride", "5"],
    "returns_vol_lag1": ["returns-vol", "--window", "20", "--stride", "6", "--lag", "1"],
    "returns_vol_lag10": ["returns-vol", "--window", "20", "--stride", "6", "--lag", "10"],
    "identity_check": ["identity-check"],
    "charfun_nmax1": [*CHARFUN, "--nmax", "1"],
    "charfun_nmax3": [*CHARFUN, "--nmax", "3"],
    "charfun_nmax8": [*CHARFUN, "--nmax", "8"],
}

# name -> simulate arguments; the output suffix picks CSV or NDJSON
SIMULATE = {
    "simulate_cost": ["--schema", "ts_cost_volume"],
    "simulate_price": ["--schema", "ts_price_volume"],
}
SIM_SEED = ["simulate", "--seed", "20201", "--n-trades", "600"]


def _argv(name: str, fmt: str, output: pathlib.Path) -> list[str]:
    cmd, *rest = CASES[name]
    return [cmd, "--input", str(TRADES), *rest, "--format", fmt, "--output", str(output)]


def _sim_argv(name: str, output: pathlib.Path) -> list[str]:
    return [*SIM_SEED, *SIMULATE[name], "--output", str(output)]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_bytes_match_golden(name, fmt, tmp_path, capsys):
    out = tmp_path / f"{name}.{fmt}"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(_argv(name, fmt, out))
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == ""
    assert captured.err == ""
    assert out.read_bytes() == (GOLDEN / f"{name}.{fmt}").read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "ndjson"])
@pytest.mark.parametrize("name", sorted(SIMULATE))
def test_simulate_bytes_match_golden(name, fmt, tmp_path, capsys):
    out = tmp_path / f"{name}.{fmt}"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(_sim_argv(name, out))
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == ""
    assert captured.err == "seed: 20201\n"
    assert out.read_bytes() == (GOLDEN / f"{name}.{fmt}").read_bytes()


if __name__ == "__main__":
    for case in sorted(CASES):
        for fmt in ("csv", "json"):
            if main(_argv(case, fmt, GOLDEN / f"{case}.{fmt}")) != 0:
                sys.exit(f"{case} {fmt}: non-zero exit")
    for case in sorted(SIMULATE):
        for fmt in ("csv", "ndjson"):
            if main(_sim_argv(case, GOLDEN / f"{case}.{fmt}")) != 0:
                sys.exit(f"{case} {fmt}: non-zero exit")
