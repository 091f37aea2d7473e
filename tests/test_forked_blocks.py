"""The two-CPU path of the block loops: ingest._blockwise forks one child for
a job of two or more blocks, and every output byte, error text and exit
code is that of the in-process path."""

import os
import pathlib
import signal
import subprocess
import sys

import pytest

from tickvol import IngestSchema, ParseError, ValidationError, cli, ingest, load_trades
from tickvol.cli import main

from test_cli import _env

COST_SCHEMA = IngestSchema("ts_cost_volume")

N = 2 * 2 ** 15 + 7  # three blocks: the child maps the middle one
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
        (["moments", "--input", trades[".csv"], "--window", "3", "--stride", "1.9",
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
    # 2 simulations, and a load and a table for each of the 2 others
    assert len(forks) == 6


def test_a_killed_child_leaves_its_blocks_to_the_parent(tmp_path, monkeypatch, forks, trades,
                                                        in_process):
    # the children of a simulation, and of price-vol's load and table
    killed = kill_children(monkeypatch, forks, (ingest, "_format_block"), (ingest, "_csv_block"),
                           (cli, "_format_block"))
    assert run(tmp_path, commands(trades)[::2]) == in_process[::2]
    assert len(killed) == len(forks) == 3


@pytest.mark.parametrize("suffix, line", [(".csv", 2 ** 15 + 100), (".ndjson", 2 ** 15 + 100),
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
    # the child's block is read before the parent parses block 0
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
    """A CSV whose data line 2^15 + 1, the first of block 1, opens with a
    non-UTF-8 byte at the start of a fresh 8 KiB chunk of the file, so the
    lines before it decode; with parse_error, line 3 is `x,1,1`."""
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
    # deciding to fork reads block 1, but its read error is raised after block 0 is parsed
    path = tmp_path / "t.csv"
    non_utf8_in_block_1(path, parse_error)
    with pytest.raises(error, match=match):
        load_trades(path, COST_SCHEMA)
    assert len(forks) == 1
    one_cpu(monkeypatch)
    with pytest.raises(error, match=match):
        load_trades(path, COST_SCHEMA)


@pytest.mark.parametrize("rows, forked", [(2 ** 15, False), (2 ** 15 + 1, True)])
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


def test_a_send_to_a_dead_child_leaves_its_blocks_to_the_parent(forks):
    # the child is killed, but not reaped, when the parent pulls item 3, the
    # child's item of the second pair: writing it to the child's pipe fails
    def items():
        for item in range(7):
            if item == 3:
                os.kill(forks[-1], signal.SIGKILL)
                os.waitid(os.P_PID, forks[-1], os.WEXITED | os.WNOWAIT)
            yield item
    assert list(ingest._blockwise(str, items())) == list(map(str, range(7)))
    assert len(forks) == 1


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
