"""File I/O round-trips, schema errors, the bulk parser against the line
parser, and the synthetic generator."""

import contextlib
import gc
import math
import os
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tickvol import ingest
from tickvol import (
    IngestSchema,
    NonFiniteError,
    ParseError,
    SimConfig,
    TradeSeries,
    ValidationError,
    load_trades,
    simulate_trades,
    validate_series,
    write_trades,
)
from tickvol.ingest import render_trades

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

    @pytest.mark.parametrize("rows", [
        # the bulk-path hypothesis test's failing example at --hypothesis-seed=34
        "0,inf,0\n0,0,0\n",
        "0,1e200,1e200\n",
    ], ids=["inf_times_0", "product_overflows"])
    def test_price_times_volume_is_judged_by_validation_alone(self, tmp_path, rows):
        path = tmp_path / "t.csv"
        path.write_text("ts,price,volume\n" + rows)
        with (warnings.catch_warnings(), mock.patch.object(ingest, "BLOCK_ROWS", 1),
              pytest.raises(ValidationError, match="^trade 0: ")):
            warnings.simplefilter("error")  # no RuntimeWarning from price * volume
            load_trades(path, IngestSchema("ts_price_volume", "nanoseconds"))

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


@pytest.mark.parametrize("text", [
    "ts,cost,volume\n1.0,10.0,2.0\n",
    '{"ts": 1.0, "cost": 10.0, "volume": 2.0}\n',
], ids=["csv", "ndjson"])
def test_byte_order_mark_is_skipped(tmp_path, text):
    path = tmp_path / "bom.txt"
    path.write_text("\ufeff" + text, encoding="utf-8")
    series = load_trades(path, COST_SCHEMA)
    assert (series.timestamps.tolist(), series.costs.tolist()) == ([1.0], [10.0])


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

    @pytest.mark.parametrize("rows, edge", [
        ([(1e300, 1.0, 1.0)], "1e+300"),
        ([(-1e300, 1.0, 1.0), (0.0, 1.0, 1.0)], "-1e+300"),
    ], ids=["one_trade", "negative_first"])
    @pytest.mark.parametrize("fmt", ["csv", "ndjson"])
    def test_nanoseconds_past_the_double_range_refused_before_any_text(self, tmp_path, rows,
                                                                       edge, fmt):
        # t * 1e9 overflows: each writer refuses before its first text,
        # with no numpy overflow warning and no file left behind
        series = validate_series(rows)
        schema = IngestSchema("ts_cost_volume", "nanoseconds")
        path = tmp_path / f"trades.{fmt}"
        message = re.escape(f"timestamp {edge} overflows the double range in nanoseconds")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match=f"^{message}$"):
                write_trades(series, path, schema)
            with pytest.raises(NonFiniteError, match=f"^{message}$"):
                render_trades(series, schema, fmt)
            with pytest.raises(NonFiniteError, match=f"^{message}$"):
                next(ingest.trade_blocks(series, schema, fmt))
        assert not path.exists()

    def test_unknown_format_refused_before_any_text(self):
        series = validate_series([(0.0, 1.0, 1.0)])
        with pytest.raises(ValueError, match="^unknown trade file format 'xml'$"):
            next(ingest.trade_blocks(series, COST_SCHEMA, "xml"))


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
_CSV_ODD_TEXTS = [" 1.5", "2.5 ", " 7 ", "1_000", "nan", "inf", "-inf", "", "  ", "1e400", "-2",
                  "0", "true", "0x10", "1.5.2", "+3", "\t4", "\x1c5\u2003", "\u0661\u0662", *BIG]
_CSV_ODD = st.sampled_from(_CSV_ODD_TEXTS)
_JSON_ODD = st.sampled_from(["true", "false", '"1.5"', "null", "[1]", "{}", "1e400", "NaN",
                             "-Infinity", "-2", "0", "1.0", *BIG, "9" * 5000])


def _cpus(data):
    """An os.sched_getaffinity of one or two CPUs: with two, a job of two or
    more blocks runs forked."""
    cpus = set(range(data.draw(st.sampled_from([1, 2]), label="cpus")))
    return lambda pid: cpus


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
        elif kind == "drop" and rows[i]:
            rows[i].pop()
        elif kind == "add":
            rows[i].append(draw(_good(ns)))
        elif kind == "shift" and i + 1 < len(rows) and rows[i]:  # a line break one field early
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
        with (mock.patch.object(ingest, "BLOCK_ROWS", block_rows),
              mock.patch.object(os, "sched_getaffinity", _cpus(data))):
            want = _load(path, schema, lines_only=True)
            fallbacks = path.with_name("fallbacks")  # a file: the forked child's calls count
            for name in ("_csv_lines", "_ndjson_lines"):
                def spy(*args, _parse=getattr(ingest, name)):
                    fallbacks.touch()
                    return _parse(*args)
                with mock.patch.object(ingest, name, spy):
                    got = _load(path, schema)
                assert got == want
        if isinstance(want, list) or want[0] is ValidationError:
            assert not fallbacks.exists(), "the bulk path refused a block the line parser accepts"

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


def _float_or_error(convert, value):
    """The bits convert(value) gives, or the type of the exception it raises."""
    try:
        return np.float64(convert(value)).view(np.int64).item()
    except (ValueError, OverflowError) as exc:
        return type(exc)


class TestNumpyConversion:
    """The bulk parsers convert a column with one np.array(col, dtype=float64)
    and rely on numpy converting each Python str, int and float as float()."""

    @pytest.mark.parametrize("value", [*_CSV_ODD_TEXTS, "\x005", "5\x00", *map(int, BIG),
                                       -2 ** 70, 2 ** 53 + 1, 10 ** 400, 0.1, 7])
    def test_np_array_converts_as_float_does(self, value):
        want = _float_or_error(float, value)
        for column in ([value], [value, 2.5]):
            got = _float_or_error(lambda v: np.array(column, dtype=np.float64)[0], value)
            assert got == want


class TestGcPause:
    """load_trades pauses the cyclic garbage collector and leaves it as it found it."""

    @pytest.fixture
    def collector(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    @pytest.mark.parametrize("suffix", [".csv", ".ndjson"])
    def test_state_is_restored(self, tmp_path, collector, enabled, suffix):
        path = tmp_path / f"t{suffix}"
        write_trades(validate_series([(0.0, 1.0, 2.0), (1.0, 3.0, 4.0)]), path, COST_SCHEMA)
        seen = []
        name = "_csv_block" if suffix == ".csv" else "_ndjson_block"

        def spy(*args, _parse=getattr(ingest, name)):
            seen.append(gc.isenabled())
            return _parse(*args)
        (gc.enable if enabled else gc.disable)()
        with mock.patch.object(ingest, name, spy):
            load_trades(path, COST_SCHEMA)
        assert seen == [False]
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    def test_state_is_restored_after_a_parse_error(self, tmp_path, collector, enabled):
        series = validate_series([(float(i), 1.0, 2.0) for i in range(ingest.BLOCK_ROWS + 3)])
        path = tmp_path / "t.ndjson"
        write_trades(series, path, COST_SCHEMA)
        path.write_text(path.read_text() + "{broken\n")
        (gc.enable if enabled else gc.disable)()
        with pytest.raises(ParseError, match=f"^line {ingest.BLOCK_ROWS + 4}: "):
            load_trades(path, COST_SCHEMA)
        assert gc.isenabled() is enabled


@pytest.mark.parametrize("schema", SCHEMAS,
                         ids=lambda schema: f"{schema.variant}-{schema.timestamp_unit}")
@pytest.mark.parametrize("suffix", [".csv", ".ndjson"])
def test_written_files_take_the_bulk_path_only(tmp_path, schema, suffix):
    series = simulate_trades(SimConfig(n_trades=ingest.BLOCK_ROWS + 7, seed=4))
    path = tmp_path / f"t{suffix}"
    write_trades(series, path, schema)
    refuse = mock.Mock(side_effect=AssertionError("the line parser ran"))
    with mock.patch.object(ingest, "_csv_lines", refuse), \
            mock.patch.object(ingest, "_ndjson_lines", refuse):
        back = load_trades(path, schema)
    refuse.assert_not_called()
    assert len(back) == len(series)


def _reference_price(cost, volume):
    """_price_for_exact_cost as a walk by np.nextafter and a per-row min,
    with the count of exact preimages of each row."""
    with np.errstate(over="ignore"):
        q = cost / volume
        walk = [q]
        for _ in range(4):
            walk.append(np.nextafter(walk[-1], np.inf))
        p = q
        for _ in range(4):
            p = np.nextafter(p, -np.inf)
            walk.append(p)
        candidates = np.stack(walk)
        exact = candidates * volume == cost
    price = q.copy()
    for i in range(len(q)):
        tied = candidates[exact[:, i], i].tolist()
        if tied:  # min keeps the first of equal keys, which is walk order
            qi = float(q[i])
            price[i] = min(tied, key=lambda c: (len(repr(c)), abs(c - qi)))
    return price, exact.sum(axis=0)


def _reference_trade_file(series, schema, fmt):
    """A trade file written a row and a cell at a time with str.format."""
    if fmt == "csv":
        head, row = ",".join(schema.fields) + "\n", "{},{},{}\n"
    else:
        head, row = "", '{{"%s": {}, "%s": {}, "%s": {}}}\n' % schema.fields
    ts = series.timestamps.tolist()
    if schema.nanoseconds:
        ts = [round(t * 1e9) for t in ts]
    mid = series.a
    if schema.variant == "ts_price_volume":
        mid = _reference_price(series.a, series.b)[0]
    return head + "".join(row.format(*cells)
                          for cells in zip(ts, mid.tolist(), series.b.tolist()))


MAX = 1.7976931348623157e308
_POSITIVE = st.one_of(
    st.floats(5e-324, MAX),
    st.sampled_from([5e-324, 1e-310, 2.2250738585072014e-308, 0.1, 1e16, 2.0 ** 60, MAX]),
    st.integers(1, 10 ** 6).map(lambda cents: cents / 100),
)


def _same_bits(got, want):
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


class TestBlockWriter:
    """trade_blocks and _price_for_exact_cost against per-row references."""

    @pytest.mark.parametrize("fmt", ["csv", "ndjson"])
    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_trade_blocks_match_a_per_row_writer(self, fmt, data):
        schema = data.draw(st.sampled_from(SCHEMAS))
        # k / 1024 s ends in half a nanosecond for odd k, which rounds half to even
        ts = st.floats(-1e12, 1e12) | st.integers(-2 ** 40, 2 ** 40).map(lambda k: k / 1024)
        if not schema.nanoseconds:
            ts = st.floats(-MAX, MAX)
        rows = data.draw(st.lists(st.tuples(ts, _POSITIVE, _POSITIVE), max_size=8))
        series = TradeSeries(*(zip(*rows) if rows else ([], [], [])))
        block_rows = data.draw(st.sampled_from([1, 2, 3, ingest.BLOCK_ROWS]))
        with (mock.patch.object(ingest, "BLOCK_ROWS", block_rows),
              mock.patch.object(os, "sched_getaffinity", _cpus(data))):
            got = "".join(ingest.trade_blocks(series, schema, fmt))
        assert got == _reference_trade_file(series, schema, fmt)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_exact_cost_prices_match_the_per_row_loop(self, seed):
        # cent prices times 3-digit volumes, where several preimages are common
        rng = np.random.default_rng(seed)
        volume = rng.integers(100, 1000, 20_000).astype(np.float64)
        cost = rng.integers(1, 10 ** 7, 20_000) / 100 * volume
        want, hits = _reference_price(cost, volume)
        assert (hits > 1).mean() > 0.05
        _same_bits(ingest._price_for_exact_cost(cost, volume), want)

    @given(st.lists(st.tuples(_POSITIVE, _POSITIVE), min_size=1, max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_exact_cost_prices_match_on_any_positive_pairs(self, pairs):
        cost, volume = (np.array(col) for col in zip(*pairs))
        _same_bits(ingest._price_for_exact_cost(cost, volume), _reference_price(cost, volume)[0])


def _digit_texts(x):
    """Each float's text from the digit path (ingest._digit_block, one
    column), or None where the path leaves it to the % template."""
    x = np.asarray(x, dtype=np.float64)
    reach = ingest._in_reach(x)
    texts = [None] * len(x)
    if reach.any():
        lines = ingest._digit_block("%r\n", (x[reach],)).split("\n")
        for i, text in zip(np.flatnonzero(reach).tolist(), lines):
            texts[i] = text
    return texts


def _assert_repr_or_left(x):
    """Every value prints repr's text exactly, or is left to %: exactly the
    zeros, non-finite values and those repr prints with an exponent."""
    x = np.asarray(x, dtype=np.float64)
    for value, text in zip(x.tolist(), _digit_texts(x)):
        fixed = math.isfinite(value) and value != 0 and "e" not in repr(value)
        assert (text is not None) == fixed, repr(value)
        assert text is None or text == repr(value), (text, repr(value))


def _neighbours(values, ulps=3):
    """values and the doubles up to ulps steps either side, both signs."""
    x = np.asarray(values, dtype=np.float64)
    steps = np.arange(-ulps, ulps + 1)[:, None]
    around = (np.abs(x).view(np.int64) + steps).view(np.float64).ravel()
    return np.concatenate([around, -around])


_BITS_IN_REACH = (np.float64(1e-4).view(np.int64) - 4, np.float64(1e16).view(np.int64) + 4)


class TestDigitPath:
    """ingest._shortest's digits, laid out by _digit_block, against repr."""

    @given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_any_bit_pattern(self, bits):
        # every exponent and both signs, with zeros, subnormals, inf and nan
        _assert_repr_or_left(np.array(bits, dtype=np.uint64).view(np.float64))

    @given(st.lists(st.tuples(st.integers(*_BITS_IN_REACH), st.booleans()), min_size=1,
                    max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_bit_patterns_around_the_reach(self, draws):
        bits, negative = (np.array(col) for col in zip(*draws))
        x = bits.view(np.float64)
        _assert_repr_or_left(np.where(negative, -x, x))

    def test_powers_of_two_and_their_neighbours(self):
        # the gap below a power of two is half the gap above it
        _assert_repr_or_left(_neighbours(2.0 ** np.arange(-16, 56)))

    def test_the_notation_switch_and_powers_of_ten(self):
        # repr switches to an exponent below 1e-4 and from 1e16
        _assert_repr_or_left(_neighbours(10.0 ** np.arange(-5, 18), ulps=4))
        assert _digit_texts([np.nextafter(1e-4, 0), 1e-4, np.nextafter(1e16, 0), 1e16]) == [
            None, "0.0001", "9999999999999998.0", None]

    def test_exact_decimals(self):
        # dyadic values of up to 17 digits: x 10^s is an integer, so vr is exact
        rng = np.random.default_rng(26)
        digits = rng.integers(1, 18, 20_000)
        n = np.array([int(rng.integers(10 ** (d - 1), 10 ** d)) for d in digits.tolist()],
                     dtype=np.float64)
        shifts = rng.integers(0, 40, len(n))
        # within 4 ulps (both mantissa parities) of multiples of 10^j in
        # [2^51, 1e16), the one range where a bound can be an exact decimal
        tens = [rng.integers(2 ** 51 // 10 ** j, 10 ** (16 - j), 500) * 10 ** j
                for j in range(1, 7)]
        _assert_repr_or_left(np.concatenate([n, n * 0.5 ** shifts, -n / 2 ** (shifts % 8),
                                             _neighbours(np.concatenate(tens), ulps=4)]))

    def test_short_decimals(self):
        # the nearest doubles to decimals of 1 to 17 digits
        rng = np.random.default_rng(27)
        texts = [f"{rng.integers(1, 10 ** 17)}e{rng.integers(-22, 16)}" for _ in range(5_000)]
        texts += [f"{rng.integers(1, 10 ** int(d))}e{e}" for d, e in
                  zip(rng.integers(1, 8, 5_000), rng.integers(-10, 10, 5_000))]
        _assert_repr_or_left([float(text) for text in texts])

    def test_ties_at_the_17th_digit_round_half_even(self):
        # n + 0.25 and n + 0.75 in [2^50, 2^51) lie halfway between two
        # 17-digit decimals that both read back as them
        rng = np.random.default_rng(28)
        n = 2.0 ** 50 + rng.integers(0, 2 ** 50, 2_000)
        assert _digit_texts([2.0 ** 50 + 0.25, 2.0 ** 50 + 0.75]) == [
            "1125899906842624.2", "1125899906842624.8"]
        # odd eighths past integers in every binade from 2^47 to 1e16, where vr is exact
        odd = [2.0 ** e + rng.integers(0, 2 ** e, 1_000) + rng.choice([1, 3, 5, 7], 1_000) / 8
               for e in range(47, 54)]
        _assert_repr_or_left(np.concatenate([n + 0.25, n + 0.75, n + 0.5, -(n + 0.25), *odd]))

    @pytest.mark.parametrize("fmt", ["csv", "ndjson"])
    def test_an_empty_series_and_a_one_row_block(self, fmt):
        assert ingest._digit_block("%r,%r\n", ([], [])) == ""
        for rows in ([], [(1.5, 2.0, 0.25)]):
            series = TradeSeries(*(zip(*rows) if rows else ([], [], [])))
            assert "".join(ingest.trade_blocks(series, PRICE_SCHEMA, fmt)) == \
                _reference_trade_file(series, PRICE_SCHEMA, fmt)

    def test_lengths_of_tied_prices_come_from_the_digits(self):
        # no repr call for a candidate price in reach; the per-row repr loop is the oracle
        rng = np.random.default_rng(29)
        volume = rng.integers(100, 1000, 5_000).astype(np.float64)
        cost = rng.integers(1, 10 ** 7, 5_000) / 100 * volume
        with mock.patch("builtins.repr", side_effect=AssertionError("repr called")):
            price = ingest._price_for_exact_cost(cost, volume)
        _same_bits(price, _reference_price(cost, volume)[0])

    @pytest.mark.parametrize("schema", SCHEMAS,
                             ids=lambda schema: f"{schema.variant}-{schema.timestamp_unit}")
    @pytest.mark.parametrize("fmt", ["csv", "ndjson"])
    def test_a_block_left_to_percent_between_digit_blocks(self, monkeypatch, schema, fmt):
        # 4 blocks of 3,072 rows; a cost of 5e-5 (and its price) leaves the second to %
        sim = simulate_trades(SimConfig(n_trades=3 * ingest.BLOCK_ROWS, seed=26))
        cost = sim.a.copy()
        cost[4000] = 5e-5
        # negative timestamps, which fill the sign slot, open the first block
        series = TradeSeries(sim.timestamps - 100.0, cost, sim.b)
        calls = []

        def spy(*args, _block=ingest._digit_block):
            calls.append(_block(*args) is not None)
            return _block(*args)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(ingest, "_digit_block", spy)
        got = "".join(ingest.trade_blocks(series, schema, fmt))
        assert got == _reference_trade_file(series, schema, fmt)
        assert calls == ([] if schema.nanoseconds else [True, False, True, True])
