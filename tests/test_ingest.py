"""File I/O round-trips, schema errors, the bulk parser against the line
parser, and the synthetic generator."""

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tickvol import ingest
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


SCHEMAS = [IngestSchema(variant, unit) for variant in ("ts_cost_volume", "ts_price_volume")
           for unit in ("seconds", "nanoseconds")]
BIG = [str(2 ** 63 + 1), "9" * 400]  # past int64; past the double range

# field texts the bulk path must judge exactly as the line parser does
_CSV_ODD = st.sampled_from([" 1.5", "2.5 ", " 7 ", "1_000", "nan", "inf", "-inf", "", "  ",
                            "1e400", "-2", "0", "true", "0x10", "1.5.2", "+3", "\t4",
                            "\x1c5\u2003", "\u0661\u0662", *BIG])
_JSON_ODD = st.sampled_from(["true", "false", '"1.5"', "null", "[1]", "{}", "1e400", "NaN",
                             "-Infinity", "-2", "0", "1.0", *BIG, "9" * 5000])


def _load(path, schema, lines_only=False):
    """load_trades' series or error; lines_only runs the line parser on
    every block, as the reference for the bulk path."""
    with contextlib.ExitStack() as stack:
        if lines_only:
            for name in ("_csv_block", "_ndjson_block"):
                stack.enter_context(mock.patch.object(ingest, name, lambda lines, schema: None))
        try:
            series = load_trades(path, schema)
        except (ParseError, ValidationError) as exc:
            return type(exc), str(exc)
    return [col.view(np.int64).tolist() for col in (series.timestamps, series.a, series.b)]


def _good(ns):
    return st.integers(0, 2 ** 62).map(str) if ns else st.floats(1e-3, 1e6).map(repr)


@st.composite
def _csv_file(draw, ns):
    """Data lines of a valid file with up to three mutations."""
    rows = [[draw(_good(ns)) for _ in range(3)] for _ in range(draw(st.integers(1, 7)))]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(rows) - 1))
        kind = draw(st.sampled_from(["field", "field", "drop", "add", "shift", "blank"]))
        if kind == "field" and rows[i]:
            rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(_CSV_ODD)
        elif kind == "drop":
            rows[i].pop()
        elif kind == "add":
            rows[i].append(draw(_good(ns)))
        elif kind == "shift" and i + 1 < len(rows):  # a line break one field early
            rows[i + 1].insert(0, rows[i].pop())
        elif kind == "blank":
            rows.insert(i, [draw(st.sampled_from(["", "  "]))])
    return [",".join(row) for row in rows]


@st.composite
def _ndjson_file(draw, fields, ns):
    """Lines of a valid file with up to three mutations."""
    rows = [{name: draw(_good(ns)) for name in fields} for _ in range(draw(st.integers(1, 7)))]
    for _ in range(draw(st.integers(0, 2))):
        row = draw(st.sampled_from(rows))
        kind = draw(st.sampled_from(["value", "value", "drop", "add"]))
        if kind == "value":
            row[draw(st.sampled_from(fields))] = draw(_JSON_ODD)
        elif kind == "drop":
            row.pop(draw(st.sampled_from(fields)), None)
        else:
            row["extra"] = "1"
    lines = ["{" + ", ".join(f'"{k}": {v}' for k, v in row.items()) + "}" for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["{0}, {0}", "{0}],[{0}", "{0}]", "[{0}", "[1, 2, 3]", "{{",
                                     "{0}}}", "", " \t", *["split"] * 5]))
        if kind != "split":
            lines[i] = kind.format(lines[i])
        elif i + 1 < len(lines):  # a line break inside a row
            head, _, tail = lines[i].partition(", ")
            lines[i:i + 2] = [head, tail + ", " + lines[i + 1]]
    return lines


class TestBulkPath:
    """The bulk block parser against the line parser it falls back to."""

    @pytest.mark.parametrize("ndjson", [False, True], ids=["csv", "ndjson"])
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_bulk_accepts_exactly_what_the_line_parser_accepts(self, tmp_path_factory, ndjson,
                                                               data):
        schema = data.draw(st.sampled_from(SCHEMAS))
        if ndjson:
            lines = data.draw(_ndjson_file(schema.fields, schema.nanoseconds))
        else:
            lines = [",".join(schema.fields), *data.draw(_csv_file(schema.nanoseconds))]
        if data.draw(st.booleans()):
            lines.insert(0, "")  # a leading blank line
        text = data.draw(st.sampled_from(["\n", "\r\n"])).join(lines)
        text += data.draw(st.sampled_from(["\n", ""]))
        path = tmp_path_factory.mktemp("bulk") / "trades.txt"
        path.write_bytes(text.encode())
        block_rows = data.draw(st.sampled_from([1, 2, 3, ingest.BLOCK_ROWS]))
        with mock.patch.object(ingest, "BLOCK_ROWS", block_rows):
            want = _load(path, schema, lines_only=True)
            fallbacks = []
            for name in ("_csv_lines", "_ndjson_lines"):
                def spy(*args, _parse=getattr(ingest, name)):
                    fallbacks.append(args[2])
                    return _parse(*args)
                with mock.patch.object(ingest, name, spy):
                    got = _load(path, schema)
                assert got == want
        if isinstance(want, list) or want[0] is ValidationError:
            assert fallbacks == [], "the bulk path refused a block the line parser accepts"

    @pytest.mark.parametrize("text, message", [
        # a line break one field early keeps 3 fields a line on average
        ("ts,cost,volume\n1.0,2.0\n3.0,4.0,5.0,6.0\n", "line 2: expected 3 fields, got 2"),
        # a line break inside a row whose rest shares a line with the next row
        ('{"ts": 1.0\n"cost": 2.0, "volume": 3.0}, {"ts": 2.0, "cost": 2.0, "volume": 3.0}\n',
         "line 1: invalid JSON (Expecting ',' delimiter)"),
        # two rows on one line, joined the way the bulk parse joins lines
        ('{"ts": 1.0, "cost": 2.0, "volume": 3.0}],[{"ts": 2.0, "cost": 2.0, "volume": 3.0}\n',
         "line 1: invalid JSON (Extra data)"),
    ], ids=["csv_shifted_break", "ndjson_split_row", "ndjson_joined_rows"])
    def test_rows_split_or_joined_across_lines(self, tmp_path, text, message):
        path = tmp_path / "t.txt"
        path.write_text(text)
        with pytest.raises(ParseError) as exc:
            load_trades(path, COST_SCHEMA)
        assert str(exc.value) == message

    @pytest.mark.parametrize("schema", SCHEMAS[:2])
    def test_fields_padded_with_any_whitespace(self, schema):
        # the bulk path leaves the padding of a field to float and int
        for space in filter(str.isspace, map(chr, range(0x110000))):
            line = f"{space}7{space},{space}1.5{space},2{space}\n"
            want = [np.asarray(col).tolist() for col in ingest._csv_lines([line], schema, 2)]
            got = [np.asarray(col).tolist() for col in ingest._csv_block([line], schema)]
            assert got == want, hex(ord(space))

    @pytest.mark.parametrize("suffix", [".csv", ".ndjson"])
    def test_error_in_a_later_block_names_its_line(self, tmp_path, suffix):
        n = ingest.BLOCK_ROWS + 10
        series = validate_series([(float(i), 1.0 + i, 2.0) for i in range(n)])
        path = tmp_path / f"t{suffix}"
        write_trades(series, path, COST_SCHEMA)
        lines = path.read_text().split("\n")
        bad = ingest.BLOCK_ROWS + 5  # a line of the second block
        lines[bad - 1] = lines[bad - 1].replace("2.0", "x") if suffix == ".csv" else "{broken"
        path.write_text("\n".join(lines))
        with pytest.raises(ParseError, match=f"^line {bad}: ") as exc:
            load_trades(path, COST_SCHEMA)
        assert exc.value.line == bad

    @pytest.mark.parametrize("suffix", [".csv", ".ndjson"])
    def test_parse_error_wins_over_an_earlier_invalid_row(self, tmp_path, suffix):
        n = 2 * ingest.BLOCK_ROWS + 3
        series = validate_series([(float(i), 1.0, 1.0 + i) for i in range(n)])
        path = tmp_path / f"t{suffix}"
        write_trades(series, path, COST_SCHEMA)
        text = path.read_text()
        with_zero = text.replace("1.0,3.0\n", "1.0,0.0\n").replace(
            '"volume": 3.0}', '"volume": 0.0}')
        path.write_text(with_zero)
        with pytest.raises(ValidationError, match="^trade 2: volume must be positive"):
            load_trades(path, COST_SCHEMA)
        path.write_text(with_zero.rstrip("\n") + ("\n1.0,2.0\n" if suffix == ".csv" else "\n[]\n"))
        last = n + 1 if suffix == ".csv" else n
        with pytest.raises(ParseError, match=f"^line {last + 1}: "):
            load_trades(path, COST_SCHEMA)

    @pytest.mark.parametrize("suffix", [".csv", ".ndjson"])
    def test_round_trip_over_several_blocks(self, tmp_path, suffix):
        series = simulate_trades(SimConfig(n_trades=2 * ingest.BLOCK_ROWS + 7, seed=8))
        path = tmp_path / f"t{suffix}"
        write_trades(series, path, PRICE_SCHEMA)
        back = load_trades(path, PRICE_SCHEMA)
        for got, want in ((back.timestamps, series.timestamps), (back.a, series.a),
                          (back.b, series.b)):
            np.testing.assert_array_equal(got, want)
