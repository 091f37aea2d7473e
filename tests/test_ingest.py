"""File I/O round-trips, schema errors, and the synthetic generator."""

import numpy as np
import pytest

from tickvol import (
    IngestSchema,
    ParseError,
    SimConfig,
    ValidationError,
    load_trades,
    render_trades,
    simulate_trades,
    validate_series,
    write_trades,
)

COST_SCHEMA = IngestSchema("ts_cost_volume")
PRICE_SCHEMA = IngestSchema("ts_price_volume")


class TestSchema:
    def test_variants(self):
        assert COST_SCHEMA.fields == ("ts", "cost", "volume")
        assert PRICE_SCHEMA.fields == ("ts", "price", "volume")

    def test_rejects_unknown_variant(self):
        with pytest.raises(ValueError):
            IngestSchema("ts_price_cost")

    def test_rejects_unknown_unit(self):
        with pytest.raises(ValueError):
            IngestSchema("ts_cost_volume", "fortnights")


class TestLoadCsv:
    def test_cost_volume_passthrough(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("ts,cost,volume\n1.0,10.0,2.0\n")
        series = load_trades(path, COST_SCHEMA)
        assert len(series) == 1
        assert series.costs[0] == 10.0 and series.volumes[0] == 2.0

    def test_price_volume_derives_cost(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("ts,price,volume\n1.0,5.0,2.0\n")
        series = load_trades(path, PRICE_SCHEMA)
        assert series.costs[0] == 10.0
        assert series.timestamps[0] == 1.0

    def test_zero_volume_names_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("ts,cost,volume\n1.0,10.0,2.0\n2.0,4.0,0\n")
        with pytest.raises(ValidationError, match="trade 1.*volume must be positive"):
            load_trades(path, COST_SCHEMA)

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("ts,price,volume\n1.0,5.0,2.0\n")
        with pytest.raises(ParseError, match="line 1"):
            load_trades(path, COST_SCHEMA)

    def test_bad_field_count(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("ts,cost,volume\n1.0,10.0\n")
        with pytest.raises(ParseError, match="line 2"):
            load_trades(path, COST_SCHEMA)

    def test_bad_number_names_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("ts,cost,volume\n1.0,10.0,2.0\n1.5,abc,2.0\n")
        with pytest.raises(ParseError, match="line 3"):
            load_trades(path, COST_SCHEMA)

    def test_no_trailing_newline_ok(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("ts,cost,volume\n1.0,10.0,2.0")
        assert len(load_trades(path, COST_SCHEMA)) == 1

    def test_nanosecond_timestamps(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("ts,cost,volume\n1500000000,10.0,2.0\n")
        series = load_trades(path, IngestSchema("ts_cost_volume", "nanoseconds"))
        assert series.timestamps[0] == 1.5

    def test_nanoseconds_must_be_integer(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("ts,cost,volume\n1.5e9,10.0,2.0\n")
        with pytest.raises(ParseError, match="integer nanoseconds"):
            load_trades(path, IngestSchema("ts_cost_volume", "nanoseconds"))


class TestLoadNdjson:
    def test_basic_object_rows(self, tmp_path):
        path = tmp_path / "t.ndjson"
        path.write_text(
            '{"ts": 1.0, "cost": 10.0, "volume": 2.0}\n'
            '{"ts": 0.5, "cost": 6.0, "volume": 3.0}\n'
        )
        series = load_trades(path, COST_SCHEMA)
        assert len(series) == 2
        assert series.timestamps[0] == 0.5  # sorted on load

    def test_price_fields(self, tmp_path):
        path = tmp_path / "t.ndjson"
        path.write_text('{"ts": 1.0, "price": 5.0, "volume": 2.0}\n')
        series = load_trades(path, PRICE_SCHEMA)
        assert series.costs[0] == 10.0

    def test_wrong_fields_rejected(self, tmp_path):
        path = tmp_path / "t.ndjson"
        path.write_text('{"ts": 1.0, "cost": 10.0, "vol": 2.0}\n')
        with pytest.raises(ParseError, match="line 1"):
            load_trades(path, COST_SCHEMA)

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "t.ndjson"
        path.write_text('{"ts": 1.0, "cost": 10.0, "volume": 2.0}\n{broken\n')
        with pytest.raises(ParseError, match="line 2"):
            load_trades(path, COST_SCHEMA)

    def test_nanosecond_objects(self, tmp_path):
        path = tmp_path / "t.ndjson"
        path.write_text('{"ts": 2500000000, "cost": 10.0, "volume": 2.0}\n')
        series = load_trades(path, IngestSchema("ts_cost_volume", "nanoseconds"))
        assert series.timestamps[0] == 2.5
        path.write_text('{"ts": 2.5e9, "cost": 10.0, "volume": 2.0}\n')
        with pytest.raises(ParseError, match="integer nanoseconds"):
            load_trades(path, IngestSchema("ts_cost_volume", "nanoseconds"))

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "t.ndjson"
        path.write_text('{"ts": 1.0, "cost": 10.0, "volume": 2.0}\n\n\n')
        assert len(load_trades(path, COST_SCHEMA)) == 1


class TestRoundTrip:
    @pytest.fixture
    def series(self):
        return simulate_trades(SimConfig(n_trades=300, seed=7, sigma_step=0.05))

    @pytest.mark.parametrize("schema", [COST_SCHEMA, PRICE_SCHEMA],
                             ids=["cost_volume", "price_volume"])
    @pytest.mark.parametrize("suffix", [".csv", ".ndjson"])
    def test_bit_exact_round_trip(self, tmp_path, series, schema, suffix):
        path = tmp_path / f"trades{suffix}"
        write_trades(series, path, schema)
        back = load_trades(path, schema)
        np.testing.assert_array_equal(back.timestamps, series.timestamps)
        np.testing.assert_array_equal(back.costs, series.costs)
        np.testing.assert_array_equal(back.volumes, series.volumes)

    def test_round_trip_awkward_values(self, tmp_path):
        series = validate_series([
            (0.1, 10.0, 3.0),
            (0.2, 1.0 / 3.0, 7.0),
            (0.3, 1e-6, 123456.789),
            (0.4, 9.87e12, 0.0001),
        ])
        for schema in (COST_SCHEMA, PRICE_SCHEMA):
            path = tmp_path / "x.csv"
            write_trades(series, path, schema)
            back = load_trades(path, schema)
            np.testing.assert_array_equal(back.costs, series.costs)
            np.testing.assert_array_equal(back.volumes, series.volumes)

    def test_render_matches_write(self, tmp_path, series):
        path = tmp_path / "t.csv"
        write_trades(series, path, COST_SCHEMA)
        assert path.read_text() == render_trades(series, COST_SCHEMA, "csv")


class TestSimulate:
    def test_seed_determinism(self):
        config = SimConfig(n_trades=500, seed=42)
        a = simulate_trades(config)
        b = simulate_trades(config)
        np.testing.assert_array_equal(a.timestamps, b.timestamps)
        np.testing.assert_array_equal(a.costs, b.costs)
        np.testing.assert_array_equal(a.volumes, b.volumes)

    def test_different_seeds_differ(self):
        a = simulate_trades(SimConfig(n_trades=50, seed=1))
        b = simulate_trades(SimConfig(n_trades=50, seed=2))
        assert not np.array_equal(a.costs, b.costs)

    def test_zero_sigma_constant_price(self):
        series = simulate_trades(SimConfig(n_trades=100, seed=3, sigma_step=0.0,
                                           start_price=25.0))
        np.testing.assert_allclose(series.prices, 25.0, rtol=1e-15)

    def test_single_trade(self):
        series = simulate_trades(SimConfig(n_trades=1, seed=4))
        assert len(series) == 1

    def test_timestamps_strictly_increasing(self):
        series = simulate_trades(SimConfig(n_trades=2000, seed=5, arrival_rate=50.0))
        assert np.all(np.diff(series.timestamps) > 0)

    def test_output_is_valid_series(self):
        series = simulate_trades(SimConfig(n_trades=200, seed=6))
        revalidated = validate_series(
            zip(series.timestamps, series.costs, series.volumes))
        np.testing.assert_array_equal(revalidated.costs, series.costs)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(n_trades=0, seed=1)
        with pytest.raises(ValueError):
            SimConfig(n_trades=10, seed=1, arrival_rate=0.0)
        with pytest.raises(ValueError):
            SimConfig(n_trades=10, seed=1, sigma_step=-0.1)
        with pytest.raises(ValueError):
            SimConfig(n_trades=10, seed=1, start_price=0.0)
