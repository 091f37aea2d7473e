"""Benchmark of the tickvol CLI: end-to-end metrics, or per-layer metrics
from a traced run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed 1 --seconds 25   # every workload

Run it from the root of a checkout; the CLI is imported from ./src. Each
workload's input is generated from --seed before timing starts. Then the
benchmark runs `python -m tickvol ...` as a fresh process, one at a time
(a closed loop of one client), until --seconds have passed, and checks
every output. Fresh imports of tickvol.cli alternate with the CLI runs,
so setup_s samples the same stretch of time as wall_s.

With --trace 1 it alternates plain runs with runs under bench/tracer.py
and reports per-layer metrics instead, plus the tracing overhead. The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it print every metric with its
unit, failed_share, and the sha256 of inputs and outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import inputs
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
SETUP_PER_RUN = 2
MIN_RUNS = 3
CHILD_TIMEOUT_S = 150

END_TO_END = {"wall_s": "s", "trades_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {**tracer.PER_LAYER, "trace.overhead_s": "s"}


@dataclass
class Prepared:
    """A workload made concrete for one seed: CLI arguments and its checker."""

    args: list[str]
    output: Path
    input_sha256: str
    check: Callable[[bytes], list[str]]


def _write(path: Path, data: bytes) -> str:
    path.write_bytes(data)
    return inputs.sha256(data)


def prepare_pricevol_narrow(seed: int, work: Path) -> Prepared:
    trades = inputs.generate(seed)
    src, out = work / "trades.csv", work / "out.csv"
    sha = _write(src, inputs.render_cost_csv(trades))
    args = ["price-vol", "--input", str(src), "--window", "10", "--stride", "5",
            "--output", str(out)]
    return Prepared(args, out, sha,
                    lambda data: checks.check_price_vol(data, trades.ts, 10.0, 5.0))


def prepare_moments_overlap(seed: int, work: Path) -> Prepared:
    trades = inputs.generate(seed)
    src, out = work / "trades.csv", work / "out.json"
    sha = _write(src, inputs.render_cost_csv(trades))
    args = ["moments", "--input", str(src), "--degrees", "1,2,3,4", "--window", "200",
            "--stride", "10", "--format", "json", "--output", str(out)]
    return Prepared(args, out, sha,
                    lambda data: checks.check_moments(data, trades.ts, trades.costs,
                                                      trades.volumes, [1, 2, 3, 4],
                                                      200.0, 10.0, seed))


def prepare_returns_ndjson_wide(seed: int, work: Path) -> Prepared:
    trades = inputs.generate(seed)
    src, out = work / "trades.ndjson", work / "out.json"
    sha = _write(src, inputs.render_price_ndjson(trades))
    args = ["returns-vol", "--input", str(src), "--schema", "ts_price_volume",
            "--ts-unit", "nanoseconds", "--lag", "10", "--window", "2000",
            "--stride", "1000", "--format", "json", "--output", str(out)]
    return Prepared(args, out, sha,
                    lambda data: checks.check_returns_vol(data, trades.ts, 10, 2000.0, 1000.0))


def prepare_simulate_write(seed: int, work: Path) -> Prepared:
    ref = inputs.simulated_reference(seed, inputs.N_TRADES)
    out = work / "out.csv"
    args = ["simulate", "--seed", str(seed), "--n-trades", str(inputs.N_TRADES),
            "--schema", "ts_price_volume", "--output", str(out)]
    sha = inputs.sha256(ref.ts.tobytes() + ref.costs.tobytes() + ref.volumes.tobytes())
    return Prepared(args, out, sha,
                    lambda data: checks.check_simulated(data, ref.ts, ref.costs, ref.volumes))


WORKLOADS = {
    "pricevol-narrow": prepare_pricevol_narrow,
    "moments-overlap": prepare_moments_overlap,
    "returns-ndjson-wide": prepare_returns_ndjson_wide,
    "simulate-write": prepare_simulate_write,
}


def spawn(argv: list[str], env: dict, log: Path) -> tuple[float, int, float]:
    """Run one process to completion: (wall seconds, exit code, peak RSS in MB)."""
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024


def timed(argv: list[str], env: dict, log: Path) -> float:
    """Wall seconds of a helper process that must succeed."""
    wall, rc, _ = spawn(argv, env, log)
    if rc != 0:
        raise RuntimeError(f"{argv[1:]} exited with {rc}: {log.read_text()[-2000:]}")
    return wall


def run_workload(name: str, seed: int, seconds: float, trace: bool, env: dict,
                 work: Path) -> dict:
    """Closed loop of CLI runs for `seconds`; every output is checked."""
    prepared = WORKLOADS[name](seed, work)
    verdicts: dict[str, list[str]] = {}
    plain: list[tuple[float, float]] = []
    traced: list[float] = []
    setup: list[float] = []
    layers: list[dict] = []
    iterations: list[float] = []
    attempted = failed = 0
    log, spans = work / "cli.log", work / "spans.npz"
    start = time.perf_counter()
    while True:
        # stop before an iteration that would likely end past `seconds`
        done = len(plain) >= MIN_RUNS and (not trace or len(traced) >= MIN_RUNS)
        if done and time.perf_counter() - start + statistics.median(iterations) > seconds:
            break
        t0 = time.perf_counter()
        use_tracer = trace and len(traced) < len(plain)
        if use_tracer:
            argv = [sys.executable, str(BENCH / "tracer.py"), str(spans), *prepared.args]
        else:
            argv = [sys.executable, "-m", "tickvol", *prepared.args]
        prepared.output.unlink(missing_ok=True)
        wall, rc, rss = spawn(argv, env, log)
        attempted += 1
        if rc != 0:
            problems = [f"exit code {rc}: {log.read_text()[-2000:]}"]
        elif not prepared.output.exists():
            problems = ["no output file"]
        else:
            data = prepared.output.read_bytes()
            sha = inputs.sha256(data)
            if sha not in verdicts:
                try:
                    verdicts[sha] = prepared.check(data)
                except (ValueError, KeyError, TypeError, IndexError) as exc:
                    verdicts[sha] = [f"malformed output: {exc!r}"]
            problems = verdicts[sha]
        if problems:
            failed += 1
            print(f"{name}: run {attempted} failed: " + "; ".join(problems), file=sys.stderr)
        if use_tracer:
            traced.append(wall)
            if not problems:
                layers.append(tracer.layer_metrics(spans))
        else:
            plain.append((wall, rss))
            if not trace:
                setup += [timed([sys.executable, "-c", "import tickvol.cli"], env, log)
                          for _ in range(SETUP_PER_RUN)]
        iterations.append(time.perf_counter() - t0)

    wall_s = statistics.median(w for w, _ in plain)
    detail = {
        "workload": name, "seed": seed, "trace": int(trace),
        "input_sha256": prepared.input_sha256, "output_sha256": sorted(verdicts),
        "wall_s": [w for w, _ in plain],
    }
    if trace:
        metrics = {}
        for key, unit in tracer.PER_LAYER.items():
            values = [m[key] for m in layers]
            if key in tracer.COUNTS and len(set(values)) > 1:
                failed += 1
                print(f"{name}: count {key} differs across traced runs: {values}", file=sys.stderr)
            metrics[key] = (statistics.median(values) if values else 0.0, unit)
        metrics["trace.overhead_s"] = (statistics.median(traced) - wall_s, "s")
        detail["traced_wall_s"] = traced
    else:
        metrics = {
            "wall_s": (wall_s, "s"),
            "trades_per_s": (inputs.N_TRADES / wall_s, "1/s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (statistics.median(r for _, r in plain), "MB"),
        }
        detail["setup_s"] = setup
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": detail,
    }


def report(result: dict) -> None:
    name = result["detail"]["workload"]
    for key, m in result["metrics"].items():
        print(f"{name:20s} {key:28s} {m['value']:.10g} {m['unit']}")
    share = result["failed"] / result["attempted"]
    print(f"{name:20s} {'failed_share':28s} {share:.6g} ratio "
          f"({result['failed']} of {result['attempted']} runs)")
    print(json.dumps(result["detail"]))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tickvol" / "cli.py").is_file():
        print(f"error: no tickvol sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    try:
        # warm-up: the first import compiles bytecode, which users pay once
        _, rc, _ = spawn([sys.executable, "-c", "import tickvol.cli"], env, work / "setup.log")
        if rc != 0:
            print("error: cannot import tickvol.cli:\n" + (work / "setup.log").read_text(),
                  file=sys.stderr)
            return 2
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {}
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                         env, work)
            report(results[name])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    summaries = {name: {k: r[k] for k in ("correct", "attempted", "failed", "metrics")}
                 for name, r in results.items()}
    print(json.dumps(summaries[names[0]] if len(names) == 1 else summaries))
    return 0


if __name__ == "__main__":
    sys.exit(main())
