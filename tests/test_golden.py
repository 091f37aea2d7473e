"""Golden CLI bytes: every table subcommand, CSV and JSON, fixed input.

The files under tests/data/golden/ were produced by the per-window
``math.fsum`` implementation. Any change to summation, window indexing,
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

# name -> CLI arguments after the subcommand's --input
CASES = {
    # ~3 trades per window with stride > width: many empty windows
    "moments": ["moments", "--window", "3", "--stride", "4", "--degrees", "1,2,3,8"],
    "moments_wide": ["moments", "--window", "60", "--stride", "7", "--degrees", "1,2,3,8"],
    "price_vol": ["price-vol", "--window", "10", "--stride", "5"],
    "returns_vol_lag1": ["returns-vol", "--window", "20", "--stride", "6", "--lag", "1"],
    "returns_vol_lag10": ["returns-vol", "--window", "20", "--stride", "6", "--lag", "10"],
    "identity_check": ["identity-check"],
}


def _argv(name: str, fmt: str, output: pathlib.Path) -> list[str]:
    cmd, *rest = CASES[name]
    return [cmd, "--input", str(TRADES), *rest, "--format", fmt, "--output", str(output)]


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


if __name__ == "__main__":
    for case in sorted(CASES):
        for fmt in ("csv", "json"):
            if main(_argv(case, fmt, GOLDEN / f"{case}.{fmt}")) != 0:
                sys.exit(f"{case} {fmt}: non-zero exit")
