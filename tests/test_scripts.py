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


@pytest.mark.parametrize("args", [
    ["price-vol", "--window", "10", "--stride", "5"],
    ["returns-vol", "--window", "20", "--lag", "2"],
    ["moments", "--window", "20", "--stride", "10", "--degrees", "1,2,3,4",
     "--format", "json"],
], ids=lambda args: args[0])
def test_traced_command_runs(args, simulated_file, tmp_path):
    """A command run under bench/tracer.py exits 0 and records its windows."""
    spans = tmp_path / "spans.npz"
    proc = run_python([str(ROOT / "bench" / "tracer.py"), str(spans), args[0],
                       "--input", str(simulated_file), *args[1:],
                       "--output", str(tmp_path / "out")])
    assert proc.returncode == 0, proc.stderr
    assert _load_tracer().layer_metrics(spans)["moments.windows"] > 0
