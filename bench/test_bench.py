"""Self-tests of the benchmark: generator, checkers, span arithmetic, spec.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import checks
import inputs
import run
import tracer

N_SMALL = 3000


def _cli(tmp_path, *args: str) -> bytes:
    out = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=str(run.ROOT / "src"))
    subprocess.run([sys.executable, "-m", "tickvol", *args, "--output", str(out)],
                   env=env, check=True, timeout=120)
    return out.read_bytes()


@pytest.fixture(scope="module")
def trades():
    return inputs.generate(11, n=N_SMALL)


@pytest.fixture(scope="module")
def cost_csv(trades, tmp_path_factory):
    path = tmp_path_factory.mktemp("in") / "trades.csv"
    path.write_bytes(inputs.render_cost_csv(trades))
    return str(path)


def test_generator_is_deterministic_per_seed():
    a = inputs.generate(5, n=1000)
    b = inputs.generate(5, n=1000)
    c = inputs.generate(6, n=1000)
    assert inputs.render_cost_csv(a) == inputs.render_cost_csv(b)
    assert inputs.render_price_ndjson(a) == inputs.render_price_ndjson(b)
    assert inputs.render_cost_csv(a) != inputs.render_cost_csv(c)
    assert inputs.render_price_ndjson(a) != inputs.render_price_ndjson(c)


def test_generated_timestamps_are_sorted_and_exact(trades):
    assert np.all(np.diff(trades.ts_ns) > 0)
    assert np.array_equal(trades.ts, trades.ts_ns / 1e9)


def test_price_vol_checker_accepts_cli_output(trades, cost_csv, tmp_path):
    data = _cli(tmp_path, "price-vol", "--input", cost_csv, "--window", "10", "--stride", "5")
    assert checks.check_price_vol(data, trades.ts, 10.0, 5.0) == []


def _alter_sigma2_closed(data: bytes) -> bytes:
    """Change the fifth significant digit of sigma2_closed in one row where
    that is a change of at least 1e-7 absolute, far above the 1e-10 gate."""
    lines = data.decode().split("\n")
    col = lines[0].split(",").index("sigma2_closed")
    for i in range(len(lines) // 2, len(lines)):
        cells = lines[i].split(",")
        if len(cells) > col and cells[col] and abs(float(cells[col])) > 1e-3:
            text = cells[col]
            digits = [k for k, ch in enumerate(text.split("e")[0]) if ch.isdigit()]
            first = next(k for k in digits if text[k] != "0")
            pos = [k for k in digits if k >= first][4]
            cells[col] = text[:pos] + str((int(text[pos]) + 1) % 10) + text[pos + 1:]
            lines[i] = ",".join(cells)
            return "\n".join(lines).encode()
    raise AssertionError("no row with a large enough sigma2_closed")


def test_price_vol_checker_rejects_altered_digit(trades, cost_csv, tmp_path):
    data = _cli(tmp_path, "price-vol", "--input", cost_csv, "--window", "10", "--stride", "5")
    altered = _alter_sigma2_closed(data)
    assert altered != data
    problems = checks.check_price_vol(altered, trades.ts, 10.0, 5.0)
    assert problems and "identity deviation" in problems[0]


def test_price_vol_checker_rejects_dropped_row(trades, cost_csv, tmp_path):
    data = _cli(tmp_path, "price-vol", "--input", cost_csv, "--window", "10", "--stride", "5")
    lines = data.decode().split("\n")
    dropped = "\n".join(lines[:10] + lines[11:]).encode()
    problems = checks.check_price_vol(dropped, trades.ts, 10.0, 5.0)
    assert problems and "rows, expected" in problems[0]


def test_moments_checker(trades, cost_csv, tmp_path):
    data = _cli(tmp_path, "moments", "--input", cost_csv, "--degrees", "1,2,3,4",
                "--window", "200", "--stride", "10", "--format", "json")
    args = (trades.ts, trades.costs, trades.volumes, [1, 2, 3, 4], 200.0, 10.0)
    assert checks.check_moments(data, *args, seed=3) == []
    rows = json.loads(data)
    for row in rows:
        row["C2"] *= 1 + 1e-9
    assert checks.check_moments(json.dumps(rows).encode(), *args, seed=3)


def test_returns_checker(trades, tmp_path):
    path = tmp_path / "trades.ndjson"
    path.write_bytes(inputs.render_price_ndjson(trades))
    data = _cli(tmp_path, "returns-vol", "--input", str(path), "--schema", "ts_price_volume",
                "--ts-unit", "nanoseconds", "--lag", "10", "--window", "500",
                "--stride", "250", "--format", "json")
    assert checks.check_returns_vol(data, trades.ts, 10, 500.0, 250.0) == []
    rows = json.loads(data)
    rows[1]["sigma2_rform"] += 1e-6
    assert checks.check_returns_vol(json.dumps(rows).encode(), trades.ts, 10, 500.0, 250.0)
    assert checks.check_returns_vol(data, trades.ts, 9, 500.0, 250.0)


def test_simulate_checker(tmp_path):
    ref = inputs.simulated_reference(4, N_SMALL)
    data = _cli(tmp_path, "simulate", "--seed", "4", "--n-trades", str(N_SMALL),
                "--schema", "ts_price_volume")
    assert checks.check_simulated(data, ref.ts, ref.costs, ref.volumes) == []
    lines = data.decode().split("\n")
    t, p, v = lines[5].split(",")
    lines[5] = f"{t},{np.nextafter(float(p), np.inf)!r},{v}"
    assert checks.check_simulated("\n".join(lines).encode(), ref.ts, ref.costs, ref.volumes)


def test_self_times_of_nested_spans():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds a1 [2, 3]
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    assert tracer.self_times(parent, start, end).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_tracer_records_parents_and_layer_metrics(tmp_path):
    t = tracer.Tracer()
    leaf = t.wrap(lambda x: x, "sums.csum")
    mid = t.wrap(lambda: [leaf(1), leaf(2)], "volatility.report")
    root = t.wrap(lambda: [mid(), mid()], "cli")
    root()
    assert t.layers == ["cli", "volatility.report", "sums.csum", "sums.csum",
                        "volatility.report", "sums.csum", "sums.csum"]
    assert t.parents == [-1, 0, 1, 1, 0, 4, 4]
    path = tmp_path / "spans.npz"
    t.save(path)
    m = tracer.layer_metrics(path)
    assert m["sums.csum_calls"] == 4
    total = t.ends[0] - t.starts[0]
    parts = m["cli.loop_s"] + m["volatility.report_s"] + m["sums.csum_s"]
    assert parts == pytest.approx(total, rel=1e-9)


def test_spec_matches_benchmark():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
