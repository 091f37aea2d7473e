"""The repository's scripts still run against the package API."""

import pathlib

import pytest

from test_cli import run_python

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
