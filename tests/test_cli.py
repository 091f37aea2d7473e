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

import numpy as np
import pytest

from tickvol import ingest
from tickvol.cli import main

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
        from tickvol.cli import BLOCK_ROWS, _emit

        n = BLOCK_ROWS + 3
        rng = np.random.default_rng(5)
        centers = rng.uniform(-1e6, 1e6, n)
        counts = rng.integers(1, 9, n)
        counts[[0, BLOCK_ROWS - 1, BLOCK_ROWS, n - 1]] = 0
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


SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")


def run_python(args):
    """`python ARGS` with this checkout's src/ importable."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


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
