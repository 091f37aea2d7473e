"""The repository's scripts still run against the package API."""

import importlib.util
import pathlib

import pytest

from test_cli import run_module, run_python

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(demo):
    """Each demo runs clean with warnings as errors, like the test suite."""
    proc = run_python(["-W", "error", str(demo)])
    assert proc.returncode == 0, proc.stderr


def test_tracer_wrapped_names_resolve():
    """bench/tracer.py wraps tickvol entry points by module and name with
    getattr, so deleting one from src/ (even an import kept only for the
    tracer) would break traced benchmark runs."""
    tracer = ROOT / "bench" / "tracer.py"
    proc = run_python(["-c", (
        "import importlib.util\n"
        f"spec = importlib.util.spec_from_file_location('tracer', {str(tracer)!r})\n"
        "tracer = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(tracer)\n"
        "tracer.install(tracer.Tracer())\n")])
    assert proc.returncode == 0, proc.stderr


def _load_tracer():
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


@pytest.fixture(scope="module")
def simulated_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("traced") / "trades.csv"
    proc = run_module(["simulate", "--seed", "5", "--n-trades", "300", "--output", str(path)])
    assert proc.returncode == 0, proc.stderr
    return path


def _traced(args, tmp_path):
    """layer_metrics of `tickvol ARGS` run under bench/tracer.py."""
    spans = tmp_path / "spans.npz"
    proc = run_python([str(ROOT / "bench" / "tracer.py"), str(spans), *args])
    assert proc.returncode == 0, proc.stderr
    return _load_tracer().layer_metrics(spans)


@pytest.mark.parametrize("args", [
    ["price-vol", "--window", "10", "--stride", "5"],
    ["returns-vol", "--window", "20", "--lag", "2"],
    ["moments", "--window", "20", "--stride", "10", "--degrees", "1,2,3,4",
     "--format", "json"],
    ["identity-check", "--window", "30"],
    # 8 disjoint windows of about 30 trades each, one per testfn value
    ["charfun", "--window", "30", "--grid", "20:35:8", "--nmax", "2",
     "--testfn", str(ROOT / "tests" / "data" / "golden" / "charfun_testfn.txt")],
], ids=lambda args: args[0])
def test_traced_command_runs(args, simulated_file, tmp_path):
    """A command run under bench/tracer.py exits 0 and records the rows it
    wrote and, except charfun, which takes no window grid, its windows."""
    metrics = _traced([args[0], "--input", str(simulated_file), *args[1:],
                       "--output", str(tmp_path / "out")], tmp_path)
    assert metrics["cli.rows"] > 0
    assert metrics["moments.windows"] > 0 or args[0] == "charfun"


def test_traced_simulate_runs(tmp_path):
    """simulate, the command behind the simulate-write workload, runs under
    bench/tracer.py and records the bytes it wrote."""
    path = tmp_path / "trades.csv"
    metrics = _traced(["simulate", "--seed", "5", "--n-trades", "300", "--output", str(path)],
                      tmp_path)
    assert metrics["ingest.write_bytes"] == path.stat().st_size > 0
