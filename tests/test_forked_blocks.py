"""The two-CPU path of the block loops: ingest._blockwise forks one child for
a job of two or more blocks (a table or trade file of more than
ingest._floor() rows, cut by ingest._cuts, a trade file cut in two halves
of its bytes by ingest._halves, or the window sums of more covered rows
than that, cut into even and odd columns by sums.window_sums), and every
output byte, sum bit, error text and exit code is that of the in-process
path."""

import argparse
import os
import pathlib
import signal
import subprocess
import sys
import threading

import numpy as np
import pytest

from tickvol import IngestSchema, ParseError, ValidationError, cli, ingest, load_trades, sums
from tickvol.cli import main

from test_cli import _env

COST_SCHEMA = IngestSchema("ts_cost_volume")

N = 2 * 2 ** 15 + 7  # 18 blocks of a table or trade file: the child maps every other
FLOOR = ingest._floor()  # the most rows a job runs in one block
SIMULATE = ["simulate", "--seed", "11", "--n-trades", str(N)]


@pytest.fixture(autouse=True)
def forks(monkeypatch):
    """Pids of the children forked during a test; after it, none is left."""
    pids = []
    fork = os.fork

    def counted():
        with pytest.raises(ChildProcessError):  # at most one child at a time
            os.waitpid(-1, os.WNOHANG)
        pid = fork()
        if pid:
            pids.append(pid)
        return pid
    monkeypatch.setattr(os, "fork", counted)
    yield pids
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def one_cpu(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


def kill_children(monkeypatch, forks, *targets):
    """Kill each child when the parent first calls one of the (module,
    name) targets after the fork: the child is then mid-run, with its
    first item."""
    parent, killed = os.getpid(), set()

    def killing(real):
        def call(*args):
            if os.getpid() == parent and forks and forks[-1] not in killed:
                killed.add(forks[-1])
                os.kill(forks[-1], signal.SIGKILL)
            return real(*args)
        return call
    for module, name in targets:
        monkeypatch.setattr(module, name, killing(getattr(module, name)))
    return killed


@pytest.fixture(scope="module")
def trades(tmp_path_factory):
    """A CSV and an NDJSON trade file of N trades, by suffix."""
    paths = {suffix: tmp_path_factory.mktemp("forked") / f"trades{suffix}"
             for suffix in (".csv", ".ndjson")}
    with pytest.MonkeyPatch.context() as monkeypatch:
        one_cpu(monkeypatch)
        for path in paths.values():
            assert main(["simulate", "--seed", "3", "--n-trades", str(N),
                         "--output", str(path)]) == 0
    return {suffix: str(path) for suffix, path in paths.items()}


def commands(trades):
    """Each command with the suffix of its --output file."""
    return [
        ([*SIMULATE, "--schema", "ts_price_volume"], ".csv"),
        ([*SIMULATE, "--ts-unit", "nanoseconds"], ".ndjson"),
        (["price-vol", "--input", trades[".csv"], "--window", "2", "--stride", "1.9"], ".csv"),
        # 21,860 windows: 6 blocks
        (["moments", "--input", trades[".csv"], "--window", "3", "--stride", "3",
          "--degrees", "1", "--format", "json"], ".json"),
    ]


def run(path, commands):
    """The bytes of each command's --output file."""
    got = []
    for i, (command, suffix) in enumerate(commands):
        output = path / f"{i}{suffix}"
        assert main([*command, "--output", str(output)]) == 0
        got.append(output.read_bytes())
    return got


@pytest.fixture(scope="module")
def in_process(tmp_path_factory, trades):
    with pytest.MonkeyPatch.context() as monkeypatch:
        one_cpu(monkeypatch)
        return run(tmp_path_factory.mktemp("in-process"), commands(trades))


def test_forked_output_is_the_in_process_output(tmp_path, forks, trades, in_process):
    assert run(tmp_path, commands(trades)) == in_process
    # 2 simulations, and a load, the window sums and a table for each of the 2 others
    assert len(forks) == 8


def test_a_killed_child_leaves_its_blocks_to_the_parent(tmp_path, monkeypatch, forks, trades,
                                                        in_process):
    # the children of a simulation, and of price-vol's load, window sums and table
    killed = kill_children(monkeypatch, forks, (ingest, "_digit_block"), (ingest, "_csv_block"),
                           (sums, "_prefix_sums"), (cli, "_format_block"))
    assert run(tmp_path, commands(trades)[::2]) == in_process[::2]
    assert len(killed) == len(forks) == 4


@pytest.mark.parametrize("suffix, line", [(".csv", 3 * 2 ** 14), (".ndjson", 3 * 2 ** 14),
                                          (".csv", N + 1)],
                         ids=["child's block-csv", "child's block-ndjson", "last block-csv"])
def test_a_bad_line_gives_the_in_process_error(tmp_path, monkeypatch, forks, trades, suffix,
                                               line):
    # an NDJSON file has no header: its line numbers are one lower
    line -= suffix == ".ndjson"
    lines = pathlib.Path(trades[suffix]).read_text().split("\n")
    lines[line - 1] = lines[line - 1].replace(",", ";", 1)
    path = tmp_path / f"t{suffix}"
    path.write_text("\n".join(lines))
    errors = []
    for forked in (True, False):
        if not forked:
            one_cpu(monkeypatch)
        with pytest.raises(ParseError) as exc:
            load_trades(path, COST_SCHEMA)
        errors.append((str(exc.value), exc.value.line))
    assert errors[0] == errors[1]
    assert errors[0][1] == line
    assert len(forks) == 1


def test_a_read_error_after_a_parse_error_comes_second(tmp_path, monkeypatch, forks, trades):
    # the child's half, with the bad byte, is read while the parent parses its own
    data = pathlib.Path(trades[".csv"]).read_bytes().split(b"\n")
    data[5] = b"x"
    data[2 ** 15 + 2000] = b"\xff"
    path = tmp_path / "t.csv"
    path.write_bytes(b"\n".join(data))
    with pytest.raises(ParseError, match="^line 6: "):
        load_trades(path, COST_SCHEMA)
    assert forks
    one_cpu(monkeypatch)
    with pytest.raises(ParseError, match="^line 6: "):
        load_trades(path, COST_SCHEMA)


def test_a_failed_fork_leaves_every_block_to_the_parent(tmp_path, monkeypatch, forks, trades,
                                                        in_process):
    def no_process():
        raise OSError("no process to spare")
    monkeypatch.setattr(os, "fork", no_process)
    assert run(tmp_path, commands(trades)) == in_process
    assert forks == []


def non_utf8_in_block_1(path, parse_error):
    """A CSV whose last data line, 2^15 + 1, in the second half (block 1),
    opens with a non-UTF-8 byte at the start of a fresh 8 KiB chunk of the
    file, so the lines before it decode; with parse_error, line 3 is `x,1,1`."""
    rows = [b"%d,1,1\n" % i for i in range(2 ** 15)]
    if parse_error:
        rows[1] = b"x,1,1\n"
    pad = -len(b"ts,cost,volume\n" + b"".join(rows)) % 8192  # spaces that end block 0
    rows[-1] = rows[-1][:-1] + b" " * pad + b"\n"
    path.write_bytes(b"ts,cost,volume\n" + b"".join(rows) + b"\xff,1,1\n")


@pytest.mark.parametrize("parse_error, error, match", [
    (True, ParseError, "^line 3: timestamp must be a decimal number, got 'x'$"),
    (False, UnicodeDecodeError, "can't decode byte 0xff in position 0"),
], ids=["parse error in block 0", "read error alone"])
def test_a_read_error_in_block_1_comes_in_its_turn(tmp_path, monkeypatch, forks, parse_error,
                                                   error, match):
    # the bad byte is in the child's half, but its read error is raised after block 0 is parsed
    path = tmp_path / "t.csv"
    non_utf8_in_block_1(path, parse_error)
    with pytest.raises(error, match=match):
        load_trades(path, COST_SCHEMA)
    assert len(forks) == 1
    one_cpu(monkeypatch)
    with pytest.raises(error, match=match):
        load_trades(path, COST_SCHEMA)


@pytest.mark.parametrize("rows, forked", [(FLOOR, False), (FLOOR + 1, True)])
def test_a_job_of_one_block_runs_in_process(tmp_path, forks, rows, forked):
    path = tmp_path / "t.csv"
    assert main(["simulate", "--seed", "1", "--n-trades", str(rows), "--output", str(path)]) == 0
    assert len(forks) == forked
    load_trades(path, COST_SCHEMA)
    assert len(forks) == 2 * forked


@pytest.mark.parametrize("error", [ParseError, ValidationError, MemoryError, KeyboardInterrupt])
def test_the_child_is_reaped_on_every_way_out(forks, error):
    parent = os.getpid()

    def in_parent(item):  # item 4 is the parent's
        if item == 4 and os.getpid() == parent:
            raise error("failed")
        return item

    def in_child(item):  # item 3 is the child's
        if item == 3 and os.getpid() != parent:
            raise error("failed")
        return item
    blocks = ingest._blockwise(in_parent, range(7))
    assert [next(blocks), next(blocks)] == [0, 1]
    blocks.close()  # the consumer stops early
    with pytest.raises(error):
        list(ingest._blockwise(in_parent, range(7)))
    # the parent maps the item the child failed on, and every later one
    assert list(ingest._blockwise(in_child, range(7))) == [*range(7)]
    assert len(forks) == 3


def test_a_child_killed_before_its_first_result_leaves_its_share_to_the_parent(forks):
    parent = os.getpid()

    def mapped(item):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return item, os.getpid()
    items = list(range(7))
    assert list(ingest._blockwise(mapped, items)) == [(item, parent) for item in items]
    assert len(forks) == 1


def test_the_child_maps_the_odd_items_and_the_parent_the_even_ones(tmp_path, forks):
    log = tmp_path / "calls.log"

    def mapped(item):
        with open(log, "a") as fh:
            fh.write(f"{item} {os.getpid()}\n")
        return item, os.getpid()
    items = [f"block {i}" for i in range(7)]
    got = list(ingest._blockwise(mapped, items))
    parent, (child,) = os.getpid(), forks
    assert got == [(item, child if i % 2 else parent) for i, item in enumerate(items)]
    calls = [tuple(line.rsplit(" ", 1)) for line in log.read_text().splitlines()]
    assert sorted(calls) == sorted((item, str(pid)) for item, pid in got)


def test_a_consumer_that_stops_early_leaves_no_child_blocked_on_a_full_pipe(forks):
    # each result fills the pipe many times over: a child still holding the
    # read end would block in its write, and the parent in its waitpid
    def mapped(item):
        return bytes([item]) * 2 ** 20
    first = []

    def consume():
        blocks = ingest._blockwise(mapped, list(range(4)))
        first.append(next(blocks))
        blocks.close()
    consumer = threading.Thread(target=consume, daemon=True)
    consumer.start()
    consumer.join(timeout=30)
    hung = consumer.is_alive()
    if hung:  # end the child, so that the test fails instead of hanging
        os.kill(forks[-1], signal.SIGKILL)
        consumer.join(timeout=30)
    assert not hung and not consumer.is_alive()
    assert first == [bytes(2 ** 20)] and len(forks) == 1


def test_unwritable_output_after_the_first_block(tmp_path, forks, capsys):
    # an NDJSON file has no header: its first block is formatted, in the
    # parent, with the child forked, before the file opens
    target = tmp_path / "missing" / "t.ndjson"
    assert main([*SIMULATE, "--output", str(target)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {target}: ")
    assert len(forks) == 1


def test_closed_stdout_exits_2():
    # `tickvol simulate --n-trades N | head -1`
    proc = subprocess.Popen([sys.executable, "-m", "tickvol", *SIMULATE], env=_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"ts,cost,volume\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 2
    assert err == b"error: cannot write stdout: Broken pipe\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_table_under_one_full_block_forks_once(tmp_path, monkeypatch, forks, fmt):
    n = 10_000  # between the floor and twice the floor: four blocks of 2,500 rows
    assert FLOOR < n < 2 * FLOOR and ingest._cuts(n) == [(i, i + n // 4) for i in range(0, n, n // 4)]
    rng = np.random.default_rng(7)
    counts = rng.integers(1, 9, n)
    edges = np.arange(0, n + 1, n // 4)
    counts[[*edges[:-1], *(edges[1:] - 1)]] = 0  # empty windows on both sides of every edge
    present = counts > 0
    columns = {"t": rng.uniform(-1e6, 1e6, n), "n_trades": counts,
               "sigma2": rng.normal(0.0, 1e-3, present.sum())}
    got = []
    for forked in (True, False):
        if not forked:
            one_cpu(monkeypatch)
        path = tmp_path / f"{forked}.{fmt}"
        cli._emit(present, columns, argparse.Namespace(format=fmt, output=str(path)))
        got.append(path.read_bytes())
    assert got[0] == got[1]
    assert len(forks) == 1


def test_cuts_are_an_even_number_of_equal_blocks():
    for rows in [*range(20 * FLOOR), 2 * ingest.BLOCK_ROWS + 1, 10 ** 6 + 3]:
        cuts = ingest._cuts(rows)
        sizes = [hi - lo for lo, hi in cuts]
        assert [lo for lo, _ in cuts] == [0, *(hi for _, hi in cuts[:-1])], rows
        assert cuts[-1][1] == rows, rows
        assert max(sizes) - min(sizes) <= 1, rows
        assert len(cuts) == 1 if rows <= FLOOR else len(cuts) % 2 == 0, rows
        assert max(sizes) <= (FLOOR if len(cuts) == 1 else ingest.BLOCK_ROWS), rows


def halves_file(path, lines, newline=b"\n", bom=b"", pad=0, midpoint=None):
    """A CSV of lines data rows (row i is `i,1,1`) ending in newline, the
    last row padded with spaces. With midpoint, the first pad (from 0) for
    which the byte at the data bytes' midpoint is midpoint."""
    header = bom + b"ts,cost,volume" + newline
    for pad in range(pad, pad + 64):
        data = b"".join(b"%d,1,1" % i + newline for i in range(lines - 1))
        data += b"%d,1,1" % (lines - 1) + b" " * pad + newline
        middle = len(header) + len(data) // 2
        if midpoint is None or (header + data)[middle:middle + 1] == midpoint:
            path.write_bytes(header + data)
            return
    raise AssertionError("no pad puts the midpoint there")


@pytest.fixture
def one_process(monkeypatch):
    """The number of loads that parsed the file in one process, with line
    numbers, as a pipe, a small file, or a file a forked half refused, is."""
    loads, parse = [], ingest._parse

    def spy(lines, schema, bulk, by_line=None, lineno=0):
        if by_line:
            loads.append(lineno)
        return parse(lines, schema, bulk, by_line, lineno)
    monkeypatch.setattr(ingest, "_parse", spy)
    return loads


def load_both(path, monkeypatch):
    """load_trades' columns or error, forked, then with one CPU."""
    got = []
    for cpus in ({0, 1}, {0}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        try:
            series = load_trades(path, COST_SCHEMA)
        except (ParseError, UnicodeDecodeError) as exc:
            got.append((type(exc), str(exc), getattr(exc, "line", None)))
        else:
            got.append([col.tolist() for col in (series.timestamps, series.a, series.b)])
    return got


@pytest.mark.parametrize("newline, bom, midpoint", [
    (b"\r\n", b"", b"\r"), (b"\r\n", b"", b"\n"), (b"\n", b"\xef\xbb\xbf", None),
], ids=["midpoint on a CR of CRLF", "midpoint on a LF of CRLF", "byte-order mark"])
def test_halves_end_after_a_newline(tmp_path, monkeypatch, forks, one_process, newline, bom,
                                    midpoint):
    path = tmp_path / "t.csv"
    halves_file(path, FLOOR + 1, newline, bom, midpoint=midpoint)
    data = path.read_bytes()
    with open(path, "rb") as fh:
        (_, cut), (cut2, size) = ingest._halves(fh.fileno(), True)
    assert cut == cut2 and size == len(data)
    assert data[:cut].endswith(newline) and not data[cut:].startswith(b"\n")
    forked, in_process = load_both(path, monkeypatch)
    assert forked == in_process and forked[0] == list(map(float, range(FLOOR + 1)))
    assert len(forks) == 1 and one_process == []


def test_halves_after_lone_cr_lines(tmp_path, monkeypatch, forks, one_process):
    # the first 100 data lines end in a lone CR, which text mode reads as a line end
    path = tmp_path / "t.csv"
    halves_file(path, FLOOR + 200)
    data = path.read_bytes().replace(b",1,1\n", b",1,1\r", 100)
    path.write_bytes(data)
    forked, in_process = load_both(path, monkeypatch)
    assert forked == in_process and len(forked[0]) == FLOOR + 200
    assert one_process == []
    # a bad line in the child's half is numbered across the CR lines
    path.write_bytes(data.replace(b"\n%d,1,1" % (FLOOR - 5), b"\n%d;1,1" % (FLOOR - 5)))
    forked, in_process = load_both(path, monkeypatch)
    assert forked == in_process and forked[2] == FLOOR - 3
    assert len(forks) == 2


def test_a_byte_order_mark_opening_the_second_half_is_a_character(tmp_path, monkeypatch, forks):
    # only the file's first bytes can be a byte-order mark: elsewhere U+FEFF
    # opens a bad timestamp
    path = tmp_path / "t.csv"
    halves_file(path, FLOOR + 1)
    data = path.read_bytes()
    with open(path, "rb") as fh:
        (_, cut), _ = ingest._halves(fh.fileno(), True)
    path.write_bytes(data[:cut] + "\ufeff".encode() + data[cut:])
    with open(path, "rb") as fh:
        assert ingest._halves(fh.fileno(), True)[1][0] == cut
    forked, in_process = load_both(path, monkeypatch)
    assert forked == in_process and forked[0] is ParseError
    assert len(forks) == 1


def test_a_midpoint_in_the_last_line_leaves_one_half(tmp_path, monkeypatch, forks, one_process):
    path = tmp_path / "t.csv"
    halves_file(path, FLOOR + 1, pad=2 * 8 * FLOOR)
    with open(path, "rb") as fh:
        assert ingest._halves(fh.fileno(), True) == []
    forked, in_process = load_both(path, monkeypatch)
    assert forked == in_process and len(forked[0]) == FLOOR + 1
    assert forks == [] and one_process == [2, 2]


@pytest.mark.parametrize("suffix", [".csv", ".ndjson"])
def test_a_pipe_loads_in_process(trades, forks, one_process, suffix):
    data = pathlib.Path(trades[suffix]).read_bytes()
    read_end, write_end = os.pipe()

    def feed():
        with open(write_end, "wb") as fh:
            fh.write(data)
    feeder = threading.Thread(target=feed)
    feeder.start()
    try:
        piped = load_trades(f"/dev/fd/{read_end}", COST_SCHEMA)
    finally:
        feeder.join(timeout=60)
        os.close(read_end)
    assert not feeder.is_alive()
    assert forks == [] and len(one_process) == 1
    regular = load_trades(trades[suffix], COST_SCHEMA)
    assert len(forks) == 1 and len(one_process) == 1
    for got, want in zip((piped.timestamps, piped.a, piped.b),
                         (regular.timestamps, regular.a, regular.b)):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("first, second", [
    (None, b"x"), (None, b"\xff"), (b"x", b"x"), (b"x", b"\xff"),
], ids=["parse error in the second half", "non-UTF-8 byte in the second half",
        "parse errors in both halves", "first-half parse error, second-half non-UTF-8 byte"])
def test_errors_in_the_halves_are_the_one_cpu_errors(tmp_path, monkeypatch, forks, first,
                                                     second):
    # line 100 is in the first of the one-CPU path's blocks, line 3 * 2^14 in the second half
    path = tmp_path / "t.csv"
    halves_file(path, N)
    lines = path.read_bytes().split(b"\n")
    for line, bad in ((100, first), (3 * 2 ** 14, second)):  # line numbers, header first
        if bad:
            lines[line - 1] = bad + lines[line - 1][lines[line - 1].index(b","):]
    path.write_bytes(b"\n".join(lines))
    forked, in_process = load_both(path, monkeypatch)
    assert forked == in_process
    want = ((ParseError, "line 100: timestamp must be a decimal number, got 'x'", 100) if first
            else (ParseError, f"line {3 * 2 ** 14}: timestamp must be a decimal number, got 'x'",
                  3 * 2 ** 14) if second == b"x" else UnicodeDecodeError)
    assert forked == want or forked[0] is want
    assert len(forks) == 1


def kernel_job(rows):
    """Five columns of rows + 100 values and windows over all but 100 of
    them (rows covered rows): windows with inf, -inf, nan, inf and -inf
    together, a -0.0 and an exact zero of nonzero values among them."""
    rng = np.random.default_rng(rows)
    n = rows + 100
    columns = [rng.normal(0.0, 1.0, n) * 10.0 ** rng.integers(-30, 30, n) for _ in range(5)]
    columns[0][10], columns[1][20], columns[2][30] = np.inf, -np.inf, np.nan
    columns[3][40:42] = np.inf, -np.inf
    columns[4][50:54] = -0.0, -0.0, 2.5, -2.5
    # windows of 1 to 9 rows that tile rows 0 to 999 and 1100 to n, and
    # three more over the zeros of column 4
    tiles = []
    for lo, hi in ((0, 1000), (1100, n)):
        edges = lo + np.cumsum(rng.integers(1, 10, hi - lo))
        tiles.append(np.r_[lo, edges[edges < hi], hi])
    starts = np.r_[tiles[0][:-1], tiles[1][:-1], 50, 52, 50]
    lengths = np.r_[np.diff(tiles[0]), np.diff(tiles[1]), 2, 2, 4]
    return columns, starts, lengths


def sum_bits(job, monkeypatch, log=None):
    """window_sums' bits forked, then with one CPU, of recipes of the job's
    columns; each call of a recipe, if log is a path, appends a line
    "column pid" to it."""
    columns, starts, lengths = job

    def recipe(c):
        if log is not None:
            with open(log, "a") as fh:
                fh.write(f"{c} {os.getpid()}\n")
        return columns[c].copy()  # a new array, as a power summand is
    got = []
    for cpus in ({0, 1}, {0}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        recipes = [lambda c=c: recipe(c) for c in range(len(columns))]
        got.append(sums.window_sums(recipes, starts, lengths).view(np.int64))
    return got


@pytest.mark.parametrize("rows, forked", [(FLOOR, False), (FLOOR + 1, True)])
def test_window_sums_past_the_floor_fork_with_the_same_bits(monkeypatch, tmp_path, forks, rows,
                                                            forked):
    columns, starts, lengths = job = kernel_job(rows)
    covered = np.zeros(rows + 100, bool)
    for start, length in zip(starts, lengths):
        covered[start:start + length] = True
    assert covered.sum() == rows and not covered[1000:1100].any()
    log = tmp_path / "recipes.log"
    forked_bits, in_process = sum_bits(job, monkeypatch, log)
    np.testing.assert_array_equal(forked_bits, in_process)
    # each recipe is called once a run, the odd columns' in the forked child
    calls = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
    parent, child = os.getpid(), {pid for c, pid in calls[:5] if c % 2}
    assert sorted(c for c, _ in calls[:5]) == sorted(c for c, _ in calls[5:]) == [0, 1, 2, 3, 4]
    assert [pid for c, pid in calls[:5] if c % 2 == 0] == [parent] * 3
    assert child == ({forks[0]} if forked else {parent})
    assert {pid for _, pid in calls[5:]} == {parent}
    want = in_process.view(np.float64)
    assert np.isposinf(want[:, 0]).any() and np.isneginf(want[:, 1]).any()
    assert np.isnan(want[:, 2]).any() and np.isnan(want[:, 3]).any()
    assert (want[-3:, 4] == 0).all()
    assert len(forks) == forked
    # one column is one block
    sum_bits(([columns[0]], starts, lengths), monkeypatch)
    assert len(forks) == forked


def test_a_killed_kernel_child_leaves_its_columns_to_the_parent(monkeypatch, forks):
    job = kernel_job(FLOOR + 1)
    killed = kill_children(monkeypatch, forks, (sums, "_prefix_sums"))
    forked_bits, in_process = sum_bits(job, monkeypatch)
    np.testing.assert_array_equal(forked_bits, in_process)
    assert len(killed) == len(forks) == 1
