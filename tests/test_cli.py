"""CLI surface: commands, formats, exit codes."""

import argparse
import csv
import io
import json
import os
import pathlib
import subprocess
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tickvol import IngestSchema, WindowSpec, aggregate_degree, ingest, load_trades, select_window
from tickvol.cli import main

from test_ingest import _cpus

TWO_TRADE_CSV = "ts,cost,volume\n0.0,10.0,2.0\n1.0,6.0,3.0\n"
THREE_TRADE_CSV = "ts,cost,volume\n0.0,4.0,2.0\n1.0,6.0,2.0\n2.0,9.0,3.0\n"
NEGATIVE_CSV = "ts,cost,volume\n0.0,2.0,1.0\n1.0,10.0,10.0\n"


@pytest.fixture
def two_trade_file(tmp_path):
    path = tmp_path / "two.csv"
    path.write_text(TWO_TRADE_CSV)
    return str(path)


@pytest.fixture
def three_trade_file(tmp_path):
    path = tmp_path / "three.csv"
    path.write_text(THREE_TRADE_CSV)
    return str(path)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    header = rows[0]
    return [dict(zip(header, row)) for row in rows[1:]]


class TestMoments:
    def test_two_trade_fixture(self, two_trade_file, capsys):
        code, out, _ = run_cli(
            ["moments", "--input", two_trade_file, "--window", "4", "--degrees", "1,2"],
            capsys)
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 1
        row = rows[0]
        assert row["n_trades"] == "2"
        assert float(row["p1"]) == pytest.approx(3.2, rel=1e-15)
        assert float(row["p2"]) == pytest.approx(136 / 13, rel=1e-15)

    def test_single_trade_degree_one(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        path.write_text("ts,cost,volume\n5.0,9.0,2.0\n")
        code, out, _ = run_cli(
            ["moments", "--input", str(path), "--window", "2", "--degrees", "1"],
            capsys)
        assert code == 0
        rows = parse_csv(out)
        assert float(rows[0]["p1"]) == 4.5

    def test_empty_input_exits_3(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("ts,cost,volume\n")
        code, _, err = run_cli(
            ["moments", "--input", str(path), "--window", "2"], capsys)
        assert code == 3
        assert "error" in err

    def test_missing_input_exits_3(self, capsys):
        code, _, err = run_cli(
            ["moments", "--input", "/nonexistent/x.csv", "--window", "2"], capsys)
        assert code == 3

    def test_bad_degrees_exits_2(self, two_trade_file, capsys):
        code, _, _ = run_cli(
            ["moments", "--input", two_trade_file, "--window", "2",
             "--degrees", "0,1"], capsys)
        assert code == 2
        code, _, _ = run_cli(
            ["moments", "--input", two_trade_file, "--window", "2",
             "--degrees", "banana"], capsys)
        assert code == 2

    def test_bad_window_exits_2(self, two_trade_file, capsys):
        code, _, _ = run_cli(
            ["moments", "--input", two_trade_file, "--window", "-1"], capsys)
        assert code == 2

    def test_empty_windows_emit_empty_cells(self, tmp_path, capsys):
        path = tmp_path / "gap.csv"
        path.write_text("ts,cost,volume\n0.0,1.0,1.0\n10.0,2.0,1.0\n")
        code, out, _ = run_cli(
            ["moments", "--input", str(path), "--window", "1", "--stride", "1",
             "--degrees", "1"], capsys)
        assert code == 0
        rows = parse_csv(out)
        empties = [r for r in rows if r["n_trades"] == "0"]
        assert empties and all(r["p1"] == "" for r in empties)

    def test_csv_and_json_carry_identical_numbers(self, two_trade_file, capsys):
        code, out_csv, _ = run_cli(
            ["moments", "--input", two_trade_file, "--window", "4",
             "--degrees", "1,2"], capsys)
        code2, out_json, _ = run_cli(
            ["moments", "--input", two_trade_file, "--window", "4",
             "--degrees", "1,2", "--format", "json"], capsys)
        assert code == 0 and code2 == 0
        csv_rows = parse_csv(out_csv)
        json_rows = json.loads(out_json)
        assert len(csv_rows) == len(json_rows)
        for c_row, j_row in zip(csv_rows, json_rows):
            for key, j_val in j_row.items():
                if isinstance(j_val, float):
                    assert float(c_row[key]) == j_val
                elif isinstance(j_val, int):
                    assert int(c_row[key]) == j_val
                elif j_val is None:
                    assert c_row[key] == ""

    def test_output_file(self, two_trade_file, tmp_path, capsys):
        out_path = tmp_path / "table.csv"
        code, out, _ = run_cli(
            ["moments", "--input", two_trade_file, "--window", "4",
             "--output", str(out_path)], capsys)
        assert code == 0
        assert out == ""
        assert out_path.read_text().startswith("t,n_trades")

    def test_sums_spanning_many_limbs_match_the_per_window_api(self, tmp_path, capsys):
        # widely spread volumes make C^8 span more than 8 of the exact
        # kernel's 32-bit limbs
        path = tmp_path / "spread.csv"
        assert run_cli(["simulate", "--seed", "4", "--n-trades", "1000", "--vol-sigma", "3",
                        "--output", str(path)], capsys)[0] == 0
        series = load_trades(path, IngestSchema("ts_cost_volume"))
        exp = np.frexp(series.costs ** 8)[1]
        assert (exp.max() - exp.min() + 53 + 31) // 32 > 8
        code, out, _ = run_cli(["moments", "--input", str(path), "--window", "50", "--stride",
                                "10", "--degrees", "1,2,3,4,5,6,7,8"], capsys)
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) > 90
        for row in rows:
            window = select_window(series, WindowSpec(float(row["t"]), 50.0))
            for n in range(1, 9):
                want = [x.hex() for x in aggregate_degree(window, n)]
                assert [float(row[f"C{n}"]).hex(), float(row[f"V{n}"]).hex()] == want


class TestPriceVol:
    def test_two_trade_fixture(self, two_trade_file, capsys):
        code, out, _ = run_cli(
            ["price-vol", "--input", two_trade_file, "--window", "4"], capsys)
        assert code == 0
        row = parse_csv(out)[0]
        assert float(row["sigma2_direct"]) == pytest.approx(0.2215384615, abs=1e-10)
        assert float(row["sigma2_closed"]) == pytest.approx(0.2215384615, abs=1e-10)
        assert row["negative_flag"] == "0"

    def test_negative_window_flagged(self, tmp_path, capsys):
        path = tmp_path / "neg.csv"
        path.write_text(NEGATIVE_CSV)
        code, out, _ = run_cli(
            ["price-vol", "--input", str(path), "--window", "4"], capsys)
        assert code == 0
        row = parse_csv(out)[0]
        assert float(row["sigma2_direct"]) < 0
        assert row["negative_flag"] == "1"

    def test_constant_price_zero(self, tmp_path, capsys):
        path = tmp_path / "const.csv"
        path.write_text("ts,cost,volume\n0.0,5.0,1.0\n1.0,10.0,2.0\n2.0,20.0,4.0\n")
        code, out, _ = run_cli(
            ["price-vol", "--input", str(path), "--window", "6"], capsys)
        row = parse_csv(out)[0]
        assert abs(float(row["sigma2_direct"])) < 1e-12
        assert abs(float(row["sigma2_closed"])) < 1e-12


class TestReturnsVol:
    def test_three_trade_fixture(self, three_trade_file, capsys):
        code, out, _ = run_cli(
            ["returns-vol", "--input", three_trade_file, "--window", "6",
             "--lag", "1"], capsys)
        assert code == 0
        row = parse_csv(out)[0]
        assert int(row["n_records"]) == 2
        for col in ("sigma2_direct", "sigma2_rform", "sigma2_closed"):
            assert float(row[col]) == pytest.approx(-0.0553846154, abs=1e-10)
        assert float(row["mean_return"]) == pytest.approx(0.2, rel=1e-12)
        assert float(row["r11"]) == pytest.approx(0.2, rel=1e-12)
        assert float(row["r21"]) == pytest.approx(0.1538461538, abs=1e-10)
        assert float(row["r22"]) == pytest.approx(0.0769230769, abs=1e-10)
        assert row["negative_flag"] == "1"

    def test_identical_trades_all_zero(self, tmp_path, capsys):
        path = tmp_path / "same.csv"
        path.write_text("ts,cost,volume\n" + "".join(
            f"{i}.0,4.0,2.0\n" for i in range(5)))
        code, out, _ = run_cli(
            ["returns-vol", "--input", str(path), "--window", "20"], capsys)
        row = parse_csv(out)[0]
        for col in ("sigma2_direct", "sigma2_rform", "sigma2_closed", "mean_return"):
            assert float(row[col]) == 0.0

    def test_oversized_lag_exits_2(self, three_trade_file, capsys):
        code, _, err = run_cli(
            ["returns-vol", "--input", three_trade_file, "--window", "6",
             "--lag", "10"], capsys)
        assert code == 2
        assert "lag" in err


class TestCharFun:
    def test_zero_test_function(self, three_trade_file, tmp_path, capsys):
        testfn = tmp_path / "x.txt"
        testfn.write_text("0.0\n")
        code, out, _ = run_cli(
            ["charfun", "--input", three_trade_file, "--window", "1",
             "--grid", "1:1:1", "--testfn", str(testfn), "--nmax", "2",
             "--format", "json"], capsys)
        assert code == 0
        record = json.loads(out)
        assert record["value_re"] == 1.0
        assert record["value_im"] == 0.0

    def test_one_point_first_order(self, two_trade_file, tmp_path, capsys):
        testfn = tmp_path / "x.txt"
        testfn.write_text("0.5\n")
        code, out, _ = run_cli(
            ["charfun", "--input", two_trade_file, "--window", "4",
             "--grid", "0.5:0.25:1", "--testfn", str(testfn), "--nmax", "1",
             "--format", "json"], capsys)
        assert code == 0
        record = json.loads(out)
        assert record["value_re"] == 1.0
        assert record["value_im"] == pytest.approx(3.2 * 0.5 * 0.25, rel=1e-14)

    def test_overlap_exits_4(self, three_trade_file, tmp_path, capsys):
        testfn = tmp_path / "x.txt"
        testfn.write_text("0.5\n0.5\n")
        code, _, err = run_cli(
            ["charfun", "--input", three_trade_file, "--window", "3",
             "--grid", "0:1:2", "--testfn", str(testfn)], capsys)
        assert code == 4
        assert "disjoint" in err

    def test_empty_window_exits_2(self, tmp_path, capsys):
        # the grid's second point (665) lies past the last trade (~632);
        # the first empty grid point is the one named
        golden = pathlib.Path(__file__).parent / "data" / "golden"
        out = tmp_path / "cf.csv"
        code, stdout, err = run_cli(
            ["charfun", "--input", str(golden / "trades.csv"), "--window", "30",
             "--grid", "590:75:8", "--testfn", str(golden / "charfun_testfn.txt"),
             "--output", str(out)], capsys)
        assert code == 2 and stdout == "" and not out.exists()
        assert err == "error: window at t=665.0 (width 30.0) is empty\n"

    def test_testfn_count_mismatch_exits_2(self, three_trade_file, tmp_path, capsys):
        testfn = tmp_path / "x.txt"
        testfn.write_text("0.5\n")
        code, _, _ = run_cli(
            ["charfun", "--input", three_trade_file, "--window", "1",
             "--grid", "0:5:2", "--testfn", str(testfn)], capsys)
        assert code == 2

    def test_testfn_byte_order_mark_is_skipped(self, three_trade_file, tmp_path, capsys):
        outs = []
        for prefix in ["", "\ufeff"]:
            testfn = tmp_path / "x.txt"
            testfn.write_text(prefix + "0.5\n0.25\n", encoding="utf-8")
            outs.append(run_cli(["charfun", "--input", three_trade_file, "--window", "1",
                                 "--grid", "0:2:2", "--testfn", str(testfn)], capsys))
        assert outs[0][0] == 0 and outs[1] == outs[0]

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_testfn_value_exits_3(self, value, three_trade_file, tmp_path, capsys):
        testfn = tmp_path / "x.txt"
        testfn.write_text(f"0.5\n{value}\n")
        got = run_cli(
            ["charfun", "--input", three_trade_file, "--window", "1",
             "--grid", "0:5:2", "--testfn", str(testfn)], capsys)
        assert got == (3, "", f"error: test-function file {testfn}: values must be finite, "
                              f"got '{value}'\n")

    def test_three_point_grid_matches_frozen_oracle_fixture(self, capsys):
        # expected values in charfun_expected.json were generated by the
        # nested-loop oracle in naive_ref (see that file's docstring)
        data = pathlib.Path(__file__).parent / "data"
        with open(data / "charfun_expected.json") as fh:
            doc = json.load(fh)
        for n_max in doc["nmax_values"]:
            code, out, _ = run_cli(
                ["charfun", "--input", str(data / "charfun_trades.csv"),
                 "--window", str(doc["window"]), "--grid", doc["grid"],
                 "--testfn", str(data / "charfun_testfn.txt"),
                 "--nmax", str(n_max), "--format", "json"], capsys)
            assert code == 0
            record = json.loads(out)
            want = doc["expected"][str(n_max)]
            assert record["value_re"] == pytest.approx(want["re"], rel=1e-12, abs=1e-12)
            assert record["value_im"] == pytest.approx(want["im"], rel=1e-12, abs=1e-12)

    def test_frozen_oracle_fixture_still_matches_oracle(self):
        # guard against the frozen file drifting from the oracle itself
        import naive_ref

        data = pathlib.Path(__file__).parent / "data"
        with open(data / "charfun_expected.json") as fh:
            doc = json.load(fh)
        trades = []
        for line in (data / "charfun_trades.csv").read_text().splitlines()[1:]:
            t, c, v = (float(p) for p in line.split(","))
            trades.append((t, c, v))
        xs = [float(ln) for ln in (data / "charfun_testfn.txt").read_text().split()]
        start, step, count = (float(p) for p in doc["grid"].split(":"))
        grid = [start + k * step for k in range(int(count))]
        for n_max in doc["nmax_values"]:
            val = naive_ref.charfun_bruteforce(trades, grid, xs, step, n_max,
                                               doc["window"])
            want = doc["expected"][str(n_max)]
            assert val.real == pytest.approx(want["re"], rel=1e-15, abs=1e-15)
            assert val.imag == pytest.approx(want["im"], rel=1e-15, abs=1e-15)


class TestSimulate:
    def test_deterministic_files(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path in (a, b):
            code, _, err = run_cli(
                ["simulate", "--seed", "42", "--n-trades", "50",
                 "--output", str(path)], capsys)
            assert code == 0
            assert "seed: 42" in err
        assert a.read_bytes() == b.read_bytes()

    def test_zero_sigma_constant_price_column(self, tmp_path, capsys):
        path = tmp_path / "c.csv"
        code, _, _ = run_cli(
            ["simulate", "--seed", "1", "--n-trades", "20", "--sigma-step", "0",
             "--schema", "ts_price_volume", "--output", str(path)], capsys)
        assert code == 0
        rows = parse_csv(path.read_text())
        prices = {row["price"] for row in rows}
        assert len(prices) == 1

    def test_single_trade(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        code, _, _ = run_cli(
            ["simulate", "--seed", "1", "--n-trades", "1", "--output", str(path)],
            capsys)
        assert code == 0
        assert len(path.read_text().strip().split("\n")) == 2  # header + 1 row

    def test_bad_config_exits_2(self, tmp_path, capsys):
        code, _, _ = run_cli(
            ["simulate", "--seed", "1", "--n-trades", "0",
             "--output", str(tmp_path / "x.csv")], capsys)
        assert code == 2

    def test_negative_volume_sigma_exits_2(self, capsys):
        code, out, err = run_cli(["simulate", "--vol-sigma", "-1", "--n-trades", "3"], capsys)
        assert (code, out, err) == (2, "", "error: volume_sigma must be >= 0, got -1.0\n")

    def test_stdout_output(self, capsys):
        code, out, err = run_cli(["simulate", "--seed", "9", "--n-trades", "3"], capsys)
        assert code == 0
        assert out.startswith("ts,cost,volume\n")
        assert "seed: 9" in err

    @pytest.mark.parametrize("schema", ["ts_cost_volume", "ts_price_volume"])
    def test_stdout_bytes_equal_the_output_file(self, schema, tmp_path, capsys, monkeypatch):
        # stdout is written one block at a time; small blocks give several
        monkeypatch.setattr(ingest, "BLOCK_ROWS", 4)
        args = ["simulate", "--seed", "5", "--n-trades", "10", "--schema", schema]
        path = tmp_path / "trades.csv"
        assert run_cli([*args, "--output", str(path)], capsys)[0] == 0
        code, out, _ = run_cli(args, capsys)
        assert code == 0 and out.count("\n") == 11
        assert out.encode() == path.read_bytes()

    def test_overflowing_parameters_exit_2(self, capsys):
        # start price 1e308 times volumes near e^5 gives an infinite cost
        code, out, err = run_cli(
            ["simulate", "--seed", "1", "--n-trades", "3", "--start-price", "1e308",
             "--vol-mu", "5"], capsys)
        assert code == 2 and out == ""
        assert err == "error: simulated trade 0: cost must be positive (got inf)\n"

    @pytest.mark.parametrize("to_file", [False, True])
    def test_nanosecond_overflow_exits_2_before_writing(self, to_file, tmp_path, capsys):
        path = tmp_path / "trades.csv"
        args = ["simulate", "--seed", "1", "--n-trades", "3", "--start-time", "1e300",
                "--ts-unit", "nanoseconds"]
        code, out, err = run_cli([*args, "--output", str(path)] if to_file else args, capsys)
        assert code == 2 and out == ""
        assert err == ("error: simulated timestamp 1.0000000000000003e+300 overflows the double "
                       "range in nanoseconds\n")
        assert not path.exists()

    @pytest.mark.parametrize("exc, message", [
        (MemoryError("Unable to allocate 72.8 TiB for an array with shape (10000000000000,) "
                     "and data type float64"),
         "Unable to allocate 72.8 TiB for an array with shape (10000000000000,) "
         "and data type float64"),
        (MemoryError(), "out of memory"),
    ], ids=["numpy_text", "no_text"])
    def test_out_of_memory_exits_2(self, exc, message, monkeypatch, capsys):
        # a stand-in for the simulator: no test really allocates
        import tickvol.cli as cli_mod

        def simulate_trades(config):
            raise exc

        monkeypatch.setattr(cli_mod, "simulate_trades", simulate_trades)
        got = run_cli(["simulate", "--seed", "1", "--n-trades", "10000000000000"], capsys)
        assert got == (2, "", f"error: {message}\n")


class TestIdentityCheck:
    def test_simulated_input_passes(self, capsys):
        code, out, _ = run_cli(
            ["identity-check", "--seed", "11", "--n-trades", "400"], capsys)
        assert code == 0
        rows = parse_csv(out)
        assert all(row["status"] == "PASS" for row in rows)
        assert any(row["identity"] == "price_vol_direct_vs_closed" for row in rows)
        assert sum(row["identity"] == "returns_vol_three_way" for row in rows) == 3

    def test_file_input_passes(self, three_trade_file, capsys):
        code, out, _ = run_cli(
            ["identity-check", "--input", three_trade_file, "--window", "6"],
            capsys)
        assert code == 0

    def test_single_trade_passes(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        path.write_text("ts,cost,volume\n0.0,4.0,2.0\n")
        code, out, _ = run_cli(
            ["identity-check", "--input", path.as_posix(), "--window", "2"],
            capsys)
        assert code == 0
        rows = parse_csv(out)
        assert all(row["status"] == "PASS" for row in rows)

    def test_one_record_window_with_a_large_return_passes(self, tmp_path, capsys):
        # its r form evaluated to -2.98e-08, not 0, and failed the lag-1 row
        path = tmp_path / "one.csv"
        path.write_text("ts,cost,volume\n0,0.00997448978057333,1.6836551106187538\n"
                        "1,77.75506076860846,1.0256577204724062\n")
        code, out, _ = run_cli(["identity-check", "--input", str(path), "--lags", "1"], capsys)
        assert code == 0
        assert [row["status"] for row in parse_csv(out)] == ["PASS", "PASS"]

    def test_stride_without_window(self, capsys):
        args = ["identity-check", "--seed", "11", "--n-trades", "400", "--lags", "1"]
        windows = []
        for extra in [[], ["--stride", "1"]]:
            code, out, _ = run_cli(args + extra, capsys)
            assert code == 0
            windows.append([int(row["windows"]) for row in parse_csv(out)])
        assert windows[0] == [17, 17] and windows[1][0] > 300

    def test_corrupt_input_exits_3(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("ts,cost,volume\n0.0,4.0,-2.0\n")
        code, _, _ = run_cli(
            ["identity-check", "--input", str(path), "--window", "2"], capsys)
        assert code == 3

    def test_failure_exits_1(self, monkeypatch, capsys):
        # identities hold algebraically for valid input, so exercise the
        # failure wiring by making the threshold unreachable
        import tickvol.cli as cli_mod

        monkeypatch.setattr(cli_mod, "IDENTITY_TOLERANCE", 0.0)
        code, out, _ = run_cli(
            ["identity-check", "--seed", "11", "--n-trades", "400"], capsys)
        assert code == 1
        assert any(row["status"] == "FAIL" for row in parse_csv(out))


def _reference_cell(value, empty="") -> str:
    """Per-cell CSV text, as tables were written cell by cell."""
    if value is None:
        return empty
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return f"{value:.17g}"


def _reference_json(rows: list[dict]) -> str:
    """Per-cell JSON text of a list of row objects."""
    def cell(value):
        if isinstance(value, bool):
            return "true" if value else "false"
        return _reference_cell(value, "null")

    items = ["\n  {" + ",".join(f'\n    "{k}": {cell(v)}' for k, v in row.items()) + "\n  }"
             for row in rows]
    return "[" + ",".join(items) + ("\n]" if rows else "]") + "\n"


class TestEmission:
    """The block writer against a per-cell reference, with empty windows
    on both sides of a block edge."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_empty_windows_on_a_block_edge(self, fmt, capsys):
        from tickvol.cli import _emit
        from tickvol.ingest import BLOCK_ROWS, _cuts

        n = BLOCK_ROWS + 3
        edge = _cuts(n)[0][1]  # the end of the first block
        rng = np.random.default_rng(5)
        centers = rng.uniform(-1e6, 1e6, n)
        counts = rng.integers(1, 9, n)
        counts[[0, edge - 1, edge, n - 1]] = 0
        full = counts > 0
        sigma = rng.normal(0.0, 1e-3, full.sum())
        _emit(full, {"t": centers, "n_trades": counts, "sigma2": sigma, "negative_flag": sigma < 0},
              argparse.Namespace(format=fmt, output=None))
        values = iter(sigma.tolist())
        rows = []
        for t, count in zip(centers.tolist(), counts.tolist()):
            sigma2 = next(values) if count else None
            rows.append({"t": t, "n_trades": count, "sigma2": sigma2,
                         "negative_flag": None if sigma2 is None else sigma2 < 0})
        if fmt == "csv":
            want = "t,n_trades,sigma2,negative_flag\n" + "".join(
                ",".join(map(_reference_cell, row.values())) + "\n" for row in rows)
        else:
            want = _reference_json(rows)
        assert capsys.readouterr().out == want


def _reference_cells(values: np.ndarray, is_json: bool) -> list[str]:
    """Cell texts of one column, formatted a cell at a time."""
    kind = values.dtype.kind
    values = values.tolist()
    if kind == "f":
        return list(map("{:.17g}".format, values))
    if kind == "b":
        return [(("0", "1"), ("false", "true"))[is_json][v] for v in values]
    if kind in "iu":
        return list(map(str, values))
    if is_json:
        return ['"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"' for s in values]
    return values


def _reference_table(present: np.ndarray, columns: dict, is_json: bool, pad: str) -> str:
    """What cli._table_blocks writes, built from per-cell texts and one
    str.format call per row."""
    n = len(present)
    cells = []
    for values in columns.values():
        texts = _reference_cells(values, is_json)
        if len(values) != n:
            shown = iter(texts)
            texts = [next(shown) if p else "null" if is_json else "" for p in present.tolist()]
        cells.append(texts)
    if is_json:
        members = ",".join(f'\n{pad}    "{key}": {{}}' for key in columns)
        row = f"\n{pad}  {{{{" + members + f"\n{pad}  }}}}"
        return "[" + ",".join(map(row.format, *cells)) + (f"\n{pad}]" if n else "]")
    row = ",".join(["{}"] * len(columns)) + "\n"
    return ",".join(columns) + "\n" + "".join(map(row.format, *cells))


_CELL_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    # signed zero, subnormals, the range's ends, and integers where %g turns to exponents
    st.sampled_from([-0.0, 5e-324, -1e-310, 2.2250738585072014e-308, 1e308, -1e308,
                     1.7976931348623157e308, 1e16, 1e17, -123456789012345678.0, 2.0 ** 53]),
)
_COLUMN_KINDS = {
    "f": lambda size: st.lists(_CELL_FLOATS, min_size=size, max_size=size).map(np.array),
    "i": lambda size: st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), min_size=size,
                               max_size=size).map(lambda v: np.array(v, dtype=np.int64)),
    "b": lambda size: st.lists(st.booleans(), min_size=size,
                               max_size=size).map(lambda v: np.array(v, dtype=bool)),
    "U": lambda size: st.lists(st.text('a"\\%{} ,', max_size=4), min_size=size,
                               max_size=size).map(lambda v: np.array(v, dtype=str)),
}


class TestTableWriter:
    """cli._table_blocks against a per-cell writer: every layout of empty
    cells over block edges, odd floats, and strings that look like templates."""

    @pytest.mark.parametrize("is_json", [False, True], ids=["csv", "json"])
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_table_blocks_match_a_per_cell_writer(self, is_json, data):
        from tickvol import cli

        present = np.array(data.draw(st.lists(st.booleans(), max_size=9)), dtype=bool)
        kinds = data.draw(st.lists(st.tuples(st.sampled_from("fibU"), st.booleans()),
                                   min_size=1, max_size=6))
        sizes = len(present), int(present.sum())
        columns = {f"c{i}": data.draw(_COLUMN_KINDS[kind](sizes[short]))
                   for i, (kind, short) in enumerate(kinds)}
        pad = data.draw(st.sampled_from(["", "  "])) if is_json else ""  # charfun nests a table
        block_rows = data.draw(st.sampled_from([1, 2, 3, ingest.BLOCK_ROWS]))
        with (mock.patch.object(ingest, "BLOCK_ROWS", block_rows),
              mock.patch.object(os, "sched_getaffinity", _cpus(data))):
            got = "".join(cli._table_blocks(present, columns, is_json, pad))
        assert got == _reference_table(present, columns, is_json, pad)


class TestMoreSurface:
    def test_returns_vol_empty_windows_emit_empty_cells(self, tmp_path, capsys):
        path = tmp_path / "gap.csv"
        path.write_text("ts,cost,volume\n0.0,1.0,1.0\n1.0,2.0,1.0\n30.0,3.0,1.0\n")
        code, out, _ = run_cli(
            ["returns-vol", "--input", str(path), "--window", "2", "--stride", "2"],
            capsys)
        assert code == 0
        rows = parse_csv(out)
        empties = [r for r in rows if r["n_records"] == "0"]
        assert empties and all(r["sigma2_direct"] == "" for r in empties)

    def test_identity_check_json(self, capsys):
        code, out, _ = run_cli(
            ["identity-check", "--seed", "5", "--n-trades", "200",
             "--format", "json"], capsys)
        assert code == 0
        rows = json.loads(out)
        assert all(row["status"] == "PASS" for row in rows)
        assert all(row["max_rel_dev"] <= 1e-10 for row in rows)

    def test_charfun_csv_orders(self, two_trade_file, tmp_path, capsys):
        testfn = tmp_path / "x.txt"
        testfn.write_text("0.5\n")
        code, out, _ = run_cli(
            ["charfun", "--input", two_trade_file, "--window", "4",
             "--grid", "0.5:1:1", "--testfn", str(testfn), "--nmax", "3"], capsys)
        assert code == 0
        rows = parse_csv(out)
        assert [r["order"] for r in rows] == ["1", "2", "3"]
        # final partial equals the truncated value
        assert float(rows[-1]["partial_re"]) != 0.0

    def test_simulate_ndjson_output(self, tmp_path, capsys):
        path = tmp_path / "t.ndjson"
        code, _, _ = run_cli(
            ["simulate", "--seed", "4", "--n-trades", "5", "--output", str(path)],
            capsys)
        assert code == 0
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 5
        assert all(set(json.loads(ln)) == {"ts", "cost", "volume"} for ln in lines)

    def test_price_vol_json_matches_csv(self, two_trade_file, capsys):
        _, out_csv, _ = run_cli(
            ["price-vol", "--input", two_trade_file, "--window", "4"], capsys)
        _, out_json, _ = run_cli(
            ["price-vol", "--input", two_trade_file, "--window", "4",
             "--format", "json"], capsys)
        row_c = parse_csv(out_csv)[0]
        row_j = json.loads(out_json)[0]
        assert float(row_c["sigma2_direct"]) == row_j["sigma2_direct"]
        assert float(row_c["phi_v2"]) == row_j["phi_v2"]

    def test_nanosecond_schema_flag(self, tmp_path, capsys):
        path = tmp_path / "ns.csv"
        path.write_text("ts,cost,volume\n1000000000,10.0,2.0\n2000000000,6.0,3.0\n")
        code, out, _ = run_cli(
            ["moments", "--input", str(path), "--ts-unit", "nanoseconds",
             "--window", "4", "--degrees", "1"], capsys)
        assert code == 0
        rows = parse_csv(out)
        assert float(rows[0]["t"]) == pytest.approx(3.0)  # 1s + 4/2


class TestErrorLines:
    """main maps each family of error to its exit code with one exact
    stderr line and nothing on stdout."""

    FILES = {"three": THREE_TRADE_CSV, "testfn": "0.5\n0.5\n",
             "malformed": "ts,cost,volume\n0.0,4.0,2.0\n1.0,oops,2.0\n",
             "invalid": "ts,cost,volume\n0.0,1.0,1.0\n1.0,inf,1.0\n",
             "late": "ts,cost,volume\n1.7e308,1.0,1.0\n1.75e308,1.0,1.0\n",
             "empty": "", "bad_ts": "ts,cost,volume\n0.0,4.0,2.0\nx,6.0,2.0\n",
             "bad_testfn": "0.5\nabc\n"}
    CHARFUN = ["charfun", "--input", "{three}", "--testfn", "{testfn}"]

    @pytest.mark.parametrize("args, code, message", [
        (["returns-vol", "--input", "{three}", "--window", "6", "--lag", "10"], 2,
         "lag 10 >= series length 3; no records possible"),
        (["simulate", "--n-trades", "0"], 2, "n_trades must be >= 1, got 0"),
        (["simulate", "--seed", "1", "--rate", "nan"], 2, "arrival_rate must be positive, got nan"),
        (["simulate", "--seed", "-1"], 2, "seed must be >= 0, got -1"),
        (["identity-check", "--seed", "-1"], 2, "seed must be >= 0, got -1"),
        (["identity-check", "--input", "{three}", "--stride", "-1"], 2,
         "--stride must be positive and finite, got -1.0"),
        ([*CHARFUN, "--window", "3", "--grid", "0:1:2"], 4,
         "windows at t=0.0 and t=1.0 (width 3.0) are distinct but not disjoint; "
         "no combination set is defined there"),
        (["moments", "--input", "{malformed}", "--window", "5"], 3,
         "line 3: cost must be a number, got 'oops'"),
        (["moments", "--input", "{invalid}", "--window", "5"], 3,
         "trade 1: cost must be positive (got inf)"),
        (["price-vol", "--input", "{three}", "--window", "4", "--output", "{tmp}/no/x.csv"], 2,
         "cannot write {tmp}/no/x.csv: No such file or directory"),
        # an infinite window or stride gave a row at t=nan, and JSON's inf
        (["moments", "--input", "{three}", "--window", "inf"], 2,
         "--window must be positive and finite, got inf"),
        (["moments", "--input", "{three}", "--window", "1", "--stride", "inf", "--format", "json"],
         2, "--stride must be positive and finite, got inf"),
        ([*CHARFUN, "--window", "inf", "--grid", "1:1:2", "--format", "json"], 2,
         "--window must be positive and finite, got inf"),
        ([*CHARFUN, "--window", "1", "--grid", "0:inf:2"], 2,
         "--grid needs count >= 1, step > 0 and finite points, got '0:inf:2'"),
        (["moments", "--input", "{late}", "--window", "1e308"], 2,
         "window center inf overflows the double range (last trade at t=1.75e+308); "
         "rescale the input units"),
        (["moments", "--input", "{empty}", "--window", "5"], 3, "empty file: missing header"),
        (["moments", "--input", "{bad_ts}", "--window", "5"], 3,
         "line 3: timestamp must be a decimal number, got 'x'"),
        (["charfun", "--input", "{three}", "--testfn", "{bad_testfn}", "--window", "0.5",
          "--grid", "0:1:2"], 3,
         "test-function file {bad_testfn}: could not convert string to float: 'abc'"),
    ], ids=["lag_too_large", "simulate_n_trades", "simulate_rate", "simulate_negative_seed",
            "identity_check_negative_seed", "identity_check_negative_stride", "charfun_overlap",
            "malformed_line", "invalid_trade", "unwritable_output", "infinite_window",
            "infinite_stride", "charfun_infinite_window", "charfun_infinite_grid",
            "overflowing_center", "empty_file", "malformed_timestamp", "malformed_testfn"])
    def test_error_line_and_code(self, args, code, message, tmp_path, capsys):
        paths = {"tmp": str(tmp_path)}
        for name, text in self.FILES.items():
            paths[name] = str(tmp_path / name)
            (tmp_path / name).write_text(text)
        got = run_cli([arg.format(**paths) for arg in args], capsys)
        assert got == (code, "", f"error: {message.format(**paths)}\n")

    @pytest.mark.parametrize("args, message", [
        (["moments", "--window", "1", "--degrees", "9"], "degrees must lie in [1, 8], got '9'"),
        (["price-vol", "--window", "-1"], "--window must be positive and finite, got -1.0"),
        (["returns-vol", "--window", "1", "--lag", "0"], "--lag must be >= 1, got 0"),
        (["charfun", "--window", "1", "--grid", "0:inf:2", "--testfn", "/nonexistent.txt"],
         "--grid needs count >= 1, step > 0 and finite points, got '0:inf:2'"),
        (["identity-check", "--lags", "0"], "--lags must be integers >= 1, got '0'"),
        (["charfun", "--window", "10", "--grid", "0:1:1", "--testfn", "/nonexistent.txt",
          "--nmax", "0"], "truncation order must be an integer >= 1, got 0"),
        (["charfun", "--window", "10", "--grid", "0:1:1", "--testfn", "/nonexistent.txt",
          "--nmax", "9"], "truncation order 9 exceeds degree cap 8"),
        (["moments", "--window", "1", "--degrees", ","], "--degrees must name at least one degree"),
        (["charfun", "--window", "1", "--grid", "1:2", "--testfn", "/nonexistent.txt"],
         "--grid must be start:step:count, got '1:2'"),
        (["charfun", "--window", "1", "--grid", "a:1:2", "--testfn", "/nonexistent.txt"],
         "--grid must be start:step:count, got 'a:1:2'"),
    ], ids=["moments", "price-vol", "returns-vol", "charfun", "identity-check", "charfun_nmax_0",
            "charfun_nmax_9", "moments_no_degree", "charfun_grid_two_fields",
            "charfun_grid_not_a_number"])
    def test_flags_are_checked_before_the_input(self, args, message, capsys):
        got = run_cli([args[0], "--input", "/nonexistent.csv", *args[1:]], capsys)
        assert got == (2, "", f"error: {message}\n")


class TestFileErrors:
    def test_invalid_trade_prints_a_plain_number(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("ts,cost,volume\n0.0,1.0,1.0\n1.0,inf,1.0\n")
        code, out, err = run_cli(["moments", "--input", str(path), "--window", "5"], capsys)
        assert code == 3 and out == ""
        assert err == "error: trade 1: cost must be positive (got inf)\n"

    """I/O failures map to documented exit codes with one error line."""

    @staticmethod
    def _one_error_line(err):
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_unwritable_output_exits_2(self, two_trade_file, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "x.csv"
        code, stdout, err = run_cli(
            ["price-vol", "--input", two_trade_file, "--window", "4", "--output", str(out)],
            capsys)
        assert code == 2 and stdout == ""
        self._one_error_line(err)

    def test_simulate_to_a_directory_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["simulate", "--seed", "1", "--n-trades", "5", "--output", str(tmp_path)], capsys)
        assert code == 2
        self._one_error_line(err)

    def test_directory_input_exits_3(self, tmp_path, capsys):
        code, _, err = run_cli(["moments", "--input", str(tmp_path), "--window", "2"], capsys)
        assert code == 3
        self._one_error_line(err)

    def test_non_utf8_input_exits_3(self, tmp_path, capsys):
        path = tmp_path / "binary.csv"
        path.write_bytes(b"ts,cost,volume\n\xff\xfe,1,1\n")
        code, _, err = run_cli(["price-vol", "--input", str(path), "--window", "2"], capsys)
        assert code == 3
        self._one_error_line(err)

    def test_unreadable_testfn_exits_3(self, two_trade_file, tmp_path, capsys):
        code, _, err = run_cli(
            ["charfun", "--input", two_trade_file, "--window", "1", "--grid", "0:1:1",
             "--testfn", str(tmp_path)], capsys)
        assert code == 3
        self._one_error_line(err)

    @pytest.mark.parametrize("text, args, message", [
        ('{"ts": 1, "cost": 1.0, "volume": 1.0}\n{"ts": 2, "cost": BIG, "volume": 1.0}\n', [],
         "line 2: cost overflows the double range, got BIG"),
        ('{"ts": BIG, "cost": 1.0, "volume": 1.0}\n', ["--ts-unit", "nanoseconds"],
         "line 1: timestamp overflows the double range, got BIG"),
        ("ts,cost,volume\n1,1.0,1.0\nBIG,1.0,1.0\n", ["--ts-unit", "nanoseconds"],
         "line 3: timestamp overflows the double range, got BIG"),
    ], ids=["ndjson_cost", "ndjson_ns_timestamp", "csv_ns_timestamp"])
    def test_integer_past_the_double_range_exits_3(self, text, args, message, tmp_path, capsys):
        big = "9" * 400
        path = tmp_path / "big.txt"
        path.write_text(text.replace("BIG", big))
        code, out, err = run_cli(["moments", "--input", str(path), "--window", "5", *args], capsys)
        assert code == 3 and out == ""
        assert err == f"error: {message.replace('BIG', big)}\n"

    def test_integer_too_long_to_convert_exits_3(self, tmp_path, capsys):
        path = tmp_path / "long.ndjson"
        path.write_text('{"ts": 1, "cost": ' + "9" * 5000 + ', "volume": 1.0}\n')
        code, out, err = run_cli(["moments", "--input", str(path), "--window", "5"], capsys)
        assert code == 3 and out == ""
        assert err.startswith("error: line 1: invalid JSON (Exceeds the limit")
        self._one_error_line(err)

    def test_oversized_window_grid_exits_2(self, two_trade_file, capsys):
        code, _, err = run_cli(
            ["moments", "--input", two_trade_file, "--window", "1", "--stride", "1e-12"],
            capsys)
        assert code == 2
        self._one_error_line(err)


class TestOverflow:
    """A value past the double range exits 2 naming the column and window
    center, writes nothing and leaks no numpy warning."""

    @pytest.mark.parametrize("cost, args, message", [
        # the fsum partials of C1 overflow
        ("1e308", ["moments", "--window", "5"],
         "C1 overflows the double range in the window at t=2.5"),
        # C^2 is inf, so the dispersion algebra meets inf - inf
        ("1e200", ["price-vol", "--window", "5"],
         "sigma2_direct overflows the double range in the window at t=2.5"),
        # C^8 is inf; JSON has no inf literal
        ("1e40", ["moments", "--window", "5", "--degrees", "1,8", "--format", "json"],
         "C8 overflows the double range in the window at t=2.5"),
        # one-trade windows give direct = 0 exactly, but the closed form is nan
        ("1e200", ["identity-check"],
         "sigma2_closed overflows the double range in the window at t=0.03125"),
    ])
    def test_overflow_exits_2(self, cost, args, message, tmp_path, capsys):
        path = tmp_path / "big.csv"
        path.write_text(f"ts,cost,volume\n0.0,{cost},1.0\n1.0,{cost},1.0\n")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, err = run_cli(
                [args[0], "--input", str(path), *args[1:], "--output", str(out)], capsys)
        assert code == 2 and stdout == "" and not out.exists()
        assert err == f"error: {message}; rescale the input units\n"

    @pytest.mark.parametrize("command, column", [
        (["price-vol"], "volume^2"), (["identity-check"], "volume^2"),
        (["moments", "--degrees", "1,2"], "V2"),
    ], ids=["price-vol", "identity-check", "moments"])
    def test_volume_square_sum_underflow_exits_2(self, command, column, tmp_path, capsys):
        # sum(V^2) of two volumes of 1e-200 underflows to 0, which both
        # volatility forms and p2 divide by: legal input, not corrupted stats
        path = tmp_path / "tiny.csv"
        path.write_text("ts,cost,volume\n0.0,1.0,1e-200\n1.0,1.0,1e-200\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, err = run_cli([*command, "--input", str(path), "--window", "5",
                                         "--stride", "5"], capsys)
        assert code == 2 and stdout == ""
        assert err == (f"error: the sum of {column} underflows to 0 in the window at t=2.5; "
                       "rescale the input units\n")

    @pytest.mark.parametrize("command", ["price-vol", "identity-check"])
    def test_volatility_overflow_with_finite_sums_exits_2(self, command, tmp_path, capsys):
        # every sum is finite, but p(2) = 1000 / 1e-322 overflows and b1^2
        # underflows to 0: legal input, not corrupted stats
        path = tmp_path / "tiny.csv"
        path.write_text("ts,cost,volume\n0,1,1e-161\n" + "".join(
            f"{t},1,5e-324\n" for t in range(1, 1000)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, err = run_cli([command, "--input", str(path), "--window", "5000"],
                                        capsys)
        assert code == 2 and stdout == ""
        assert err == ("error: sigma2_direct overflows the double range in the window at "
                       "t=2500.0; rescale the input units\n")

    @pytest.mark.parametrize("command, prefix", [
        (["identity-check", "--lags", "1"], "lag-1 "),
        (["returns-vol", "--lag", "1"], ""),
    ], ids=["identity-check", "returns-vol"])
    @pytest.mark.parametrize("rows, message", [
        # one record of return 1e300: the direct and r forms of a one-record
        # window are 0 exactly, but qc^2 (as (r qv)^2, so r22) is inf
        ("0,1e-150,1\n1,1e150,1\n",
         "{prefix}sigma2_closed overflows the double range in the window at t=2.5"),
        # volume ratio 1e-308: its square underflows to 0
        ("0,1,1e154\n1,1,1e-154\n",
         "the sum of volume ratio^2 underflows to 0 in the window at t=2.5"),
    ], ids=["rform_overflow", "ratio_square_underflow"])
    def test_returns_form_errors_exit_2(self, command, prefix, rows, message, tmp_path, capsys):
        path = tmp_path / "ratios.csv"
        path.write_text("ts,cost,volume\n" + rows)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, err = run_cli([command[0], "--input", str(path), "--window", "5",
                                         *command[1:], "--output", str(out)], capsys)
        assert code == 2 and stdout == "" and not out.exists()
        assert err == f"error: {message.format(prefix=prefix)}; rescale the input units\n"

    def test_charfun_overflow_exits_2(self, tmp_path, capsys):
        path = tmp_path / "big.csv"
        path.write_text("ts,cost,volume\n0.0,1e200,1.0\n")
        testfn = tmp_path / "x.txt"
        testfn.write_text("1e300\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, err = run_cli(
                ["charfun", "--input", str(path), "--window", "1", "--grid", "0:1:1",
                 "--testfn", str(testfn), "--nmax", "2"], capsys)
        assert code == 2 and stdout == ""
        assert err == ("error: the order-1 term overflows the double range; "
                       "lower --nmax or rescale the input units\n")

    def test_charfun_underflow_exits_2(self, tmp_path, capsys):
        # sum(V^2) of two volumes of 1e-200 underflows to 0, which p(2) divides by
        path = tmp_path / "tiny.csv"
        path.write_text("ts,cost,volume\n0.0,1.0,1e-200\n1.0,1.0,1e-200\n")
        testfn = tmp_path / "x.txt"
        testfn.write_text("1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, err = run_cli(
                ["charfun", "--input", str(path), "--window", "5", "--grid", "0.5:1:1",
                 "--testfn", str(testfn), "--nmax", "2"], capsys)
        assert code == 2 and stdout == ""
        assert err == ("error: the sum of V2 underflows to 0 in the window at t=0.5; "
                       "lower --nmax or rescale the input units\n")


SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")


def _env():
    """The environment with this checkout's src/ importable."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))


def run_python(args):
    """`python ARGS` with this checkout's src/ importable."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=_env())


def run_module(args):
    """`python -m tickvol ARGS` with this checkout's src/ importable."""
    return run_python(["-m", "tickvol", *args])


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(TWO_TRADE_CSV)
        proc = run_module(["moments", "--input", str(path), "--window", "4"])
        assert proc.returncode == 0
        assert proc.stdout.startswith("t,n_trades")

    def test_unknown_flag_exits_2(self):
        proc = run_module(["moments", "--nope"])
        assert proc.returncode == 2

    @pytest.mark.parametrize("command", [
        ["simulate", "--seed", "1", "--n-trades", "3"],
        ["price-vol", "--window", "10"],
    ], ids=lambda command: command[0])
    def test_stdout_closed_at_start_exits_2(self, command, tmp_path):
        # `tickvol ... >&-`: Python starts with sys.stdout set to None
        if command[0] != "simulate":
            path = tmp_path / "t.csv"
            path.write_text(TWO_TRADE_CSV)
            command = [*command, "--input", str(path)]
        proc = subprocess.run(["sh", "-c", 'exec "$0" -m tickvol "$@" >&-', sys.executable,
                               *command], capture_output=True, env=_env())
        assert (proc.returncode, proc.stderr) == (2, b"error: cannot write stdout\n")

    @pytest.mark.parametrize("closed", [False, True], ids=["full", "closed"])
    @pytest.mark.parametrize("command, code", [
        (["price-vol", "--input", "{tmp}/missing.csv", "--window", "1"], 3),
        (["simulate", "--seed", "1", "--n-trades", "2", "--output", "{tmp}/x.csv"], 0),
        (["identity-check", "--n-trades", "50", "--seed", "1"], 0),
    ], ids=["price-vol", "simulate", "identity-check"])
    def test_unwritable_stderr_keeps_the_exit_code(self, command, code, closed, tmp_path):
        # `tickvol ... 2>/dev/full`, or `2>&-`: the error and seed: lines are dropped
        command = [arg.format(tmp=tmp_path) for arg in command]
        if closed:
            proc = subprocess.run(["sh", "-c", 'exec "$0" -m tickvol "$@" 2>&-', sys.executable,
                                   *command], stdout=subprocess.PIPE, env=_env())
        else:
            with open("/dev/full", "w") as full:
                proc = subprocess.run([sys.executable, "-m", "tickvol", *command],
                                      stdout=subprocess.PIPE, stderr=full, env=_env())
        assert proc.returncode == code
        if command[0] == "identity-check":
            assert proc.stdout.startswith(b"identity,lag,windows")
        else:  # with fd 2 closed, print(file=sys.stderr) would write to stdout
            assert proc.stdout == b""
        if command[0] == "simulate":
            assert (tmp_path / "x.csv").read_text().startswith("ts,cost,volume\n")

    @pytest.mark.parametrize("command", [
        ["simulate", "--seed", "1", "--n-trades", "20000"],
        ["price-vol", "--window", "10", "--stride", "0.1"],
    ], ids=lambda command: command[0])
    def test_closed_stdout_exits_2(self, command, tmp_path):
        # `tickvol ... | head -1`: the reader goes away after one line, with
        # megabytes still to write
        if command[0] != "simulate":
            path = tmp_path / "t.csv"
            assert run_module(["simulate", "--seed", "1", "--n-trades", "2000",
                               "--output", str(path)]).returncode == 0
            command = [*command, "--input", str(path)]
        proc = subprocess.Popen([sys.executable, "-m", "tickvol", *command], env=_env(),
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline().startswith(b"t")
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 2
        assert err == b"error: cannot write stdout: Broken pipe\n"
