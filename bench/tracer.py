"""Traced CLI run: layer spans and counts, recorded from outside src/.

Run as

    PYTHONPATH=src python bench/tracer.py SPANS.npz <tickvol arguments...>

It wraps tickvol's layer entry points at the names their callers look up
(`tickvol.cli.*` for the layer calls, `tickvol.ingest.validate_series`,
and `csum` in every module that binds its own copy with
`from .sums import csum`), runs `tickvol.cli.main`, and writes the spans
and counts to SPANS.npz when the CLI returns. Spans stay in memory during
the run so writing them costs nothing per call.

The parent benchmark reads the file back with `layer_metrics`.
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter

import numpy as np

# (module, attribute, layer) of every wrapped entry point
WRAPPED = [
    ("tickvol.cli", "main", "cli"),
    ("tickvol.cli", "_emit", "cli.emit"),
    ("tickvol.cli", "_write_output", "cli.emit"),
    ("tickvol.cli", "load_trades", "ingest.load"),
    ("tickvol.cli", "write_trades", "ingest.write"),
    ("tickvol.cli", "render_trades", "ingest.write"),
    ("tickvol.ingest", "validate_series", "trades.validate"),
    ("tickvol.cli", "select_window", "trades.select_window"),
    ("tickvol.cli", "window_centers", "moments.centers"),
    ("tickvol.cli", "collect_price_moments", "moments.collect"),
    ("tickvol.moments", "csum", "sums.csum"),
    ("tickvol.volatility", "csum", "sums.csum"),
    ("tickvol.returns", "csum", "sums.csum"),
    ("tickvol.charfun", "csum", "sums.csum"),
    ("tickvol.cli", "price_volatility_report", "volatility.report"),
    ("tickvol.cli", "build_returns", "returns.build"),
    ("tickvol.cli", "records_in_window", "returns.select"),
    ("tickvol.cli", "returns_volatility_report", "returns.report"),
    ("tickvol.cli", "mean_return", "returns.report"),
    ("tickvol.cli", "simulate_trades", "synth.simulate"),
]


class Tracer:
    """Spans (layer, parent span, start, end) and named counts of one run."""

    def __init__(self):
        self.layers: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self.window_sums: set[int] = set()

    def wrap(self, fn, layer: str, on_result=None):
        layers, parents, starts, ends, stack = (
            self.layers, self.parents, self.starts, self.ends, self.stack)

        def traced(*args, **kwargs):
            sid = len(starts)
            layers.append(layer)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                starts[sid] = t0
                ends[sid] = t1
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def note_max(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, 0.0), value)

    def next_window(self) -> None:
        """Close the current window's tally of distinct sums."""
        self.counts["sums.distinct"] += len(self.window_sums)
        self.window_sums.clear()

    def save(self, path) -> None:
        self.next_window()
        table = sorted(set(self.layers))
        code = {name: i for i, name in enumerate(table)}
        np.savez(
            path,
            layer=np.array([code[name] for name in self.layers], dtype=np.int32),
            parent=np.array(self.parents, dtype=np.int64),
            start=np.array(self.starts, dtype=np.float64),
            end=np.array(self.ends, dtype=np.float64),
            layer_names=np.array(table, dtype=str),
            count_keys=np.array(list(self.counts), dtype=str),
            count_values=np.array(list(self.counts.values()), dtype=np.int64),
            max_keys=np.array(list(self.maxima), dtype=str),
            max_values=np.array(list(self.maxima.values()), dtype=np.float64),
        )


def _hooks(tracer: Tracer) -> dict:
    """Count callbacks per wrapped attribute name, run after each call."""
    counts = tracer.counts

    def loaded(args, series):
        counts["ingest.load_bytes"] += os.path.getsize(args[0])

    def written(args, result):
        counts["ingest.write_bytes"] += os.path.getsize(args[1])

    def rendered(args, text):
        counts["ingest.write_bytes"] += len(text.encode())

    def centers(args, result):
        counts["moments.windows"] += len(result)

    def window(args, view):
        tracer.next_window()
        counts["moments.empty_windows"] += len(view) == 0

    def summed(args, result):
        values = args[0]
        data = values.tobytes() if isinstance(values, np.ndarray) else repr(list(values)).encode()
        tracer.window_sums.add(hash(data))
        counts["sums.csum_elements"] += len(values)

    def emitted(args, result):
        counts["cli.rows"] += len(args[0])

    def output(args, result):
        counts["cli.emit_bytes"] += len(args[0].encode())

    def price_report(args, rep):
        counts["volatility.negative_windows"] += bool(rep.negative_flag)
        tracer.note_max("volatility.max_identity_dev",
                        abs(rep.sigma_p2_direct - rep.sigma_p2_closed)
                        / max(1.0, abs(rep.sigma_p2_direct)))

    def returns_report(args, rep):
        forms = (rep.sigma_q2_direct, rep.sigma_q2_rform, rep.sigma_q2_closed)
        scale = max(1.0, abs(rep.sigma_q2_direct))
        tracer.note_max("returns.max_identity_dev",
                        max(abs(a - b) for a in forms for b in forms) / scale)

    return {
        "load_trades": loaded, "write_trades": written, "render_trades": rendered,
        "window_centers": centers, "select_window": window, "records_in_window": window,
        "csum": summed, "_emit": emitted, "_write_output": output,
        "price_volatility_report": price_report, "returns_volatility_report": returns_report,
    }


def install(tracer: Tracer) -> None:
    """Replace every entry point in WRAPPED with its traced wrapper."""
    hooks = _hooks(tracer)
    for module_name, attr, layer in WRAPPED:
        __import__(module_name)
        module = sys.modules[module_name]
        setattr(module, attr, tracer.wrap(getattr(module, attr), layer, hooks.get(attr)))


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Children of one span run one after another inside it, so their
    durations sum to the part of the parent's interval they cover.
    """
    duration = end - start
    child = parent >= 0
    covered = np.bincount(parent[child], weights=duration[child], minlength=len(duration))
    return duration - covered


PER_LAYER = {
    "cli.emit_s": "s", "cli.emit_bytes": "B", "cli.rows": "count", "cli.loop_s": "s",
    "ingest.load_s": "s", "ingest.parse_s": "s", "ingest.load_mb_per_s": "MB/s",
    "ingest.write_s": "s", "ingest.write_bytes": "B",
    "trades.validate_s": "s", "trades.select_window_s": "s",
    "trades.select_window_calls": "count",
    "moments.collect_s": "s", "moments.windows": "count", "moments.empty_windows": "count",
    "sums.csum_s": "s", "sums.csum_calls": "count", "sums.csum_elements": "count",
    "sums.bytes_computed": "B", "sums.calls_per_window": "ratio", "sums.useful_ratio": "ratio",
    "volatility.report_s": "s", "volatility.negative_windows": "count",
    "volatility.max_identity_dev": "ratio",
    "returns.build_s": "s", "returns.select_s": "s", "returns.report_s": "s",
    "returns.max_identity_dev": "ratio",
    "synth.simulate_s": "s",
}

# metrics that are counts of work: they must repeat exactly across runs
COUNTS = [
    "cli.emit_bytes", "cli.rows", "ingest.write_bytes", "trades.select_window_calls",
    "moments.windows", "moments.empty_windows", "sums.csum_calls", "sums.csum_elements",
    "sums.bytes_computed", "sums.calls_per_window", "sums.useful_ratio",
    "volatility.negative_windows", "volatility.max_identity_dev",
    "returns.max_identity_dev",
]


def layer_metrics(path) -> dict[str, float]:
    """Per-layer metrics of one traced run from its spans file.

    Times are self times summed over the layer's spans, except
    ingest.load_s, which is the total time of load_trades.
    """
    with np.load(path) as f:
        names = f["layer_names"].tolist()
        layer, parent, start, end = f["layer"], f["parent"], f["start"], f["end"]
        counts = dict(zip(f["count_keys"].tolist(), f["count_values"].tolist()))
        counts.update(zip(f["max_keys"].tolist(), f["max_values"].tolist()))
    own = self_times(parent, start, end)
    self_s = {name: float(own[layer == i].sum()) for i, name in enumerate(names)}
    total_s = {name: float((end - start)[layer == i].sum()) for i, name in enumerate(names)}
    calls = {name: int((layer == i).sum()) for i, name in enumerate(names)}

    def count(key):
        return counts.get(key, 0)

    load_s = total_s.get("ingest.load", 0.0)
    csum_calls = calls.get("sums.csum", 0)
    windows = count("moments.windows")
    return {
        "cli.emit_s": self_s.get("cli.emit", 0.0),
        "cli.emit_bytes": count("cli.emit_bytes"),
        "cli.rows": count("cli.rows"),
        "cli.loop_s": self_s.get("cli", 0.0),
        "ingest.load_s": load_s,
        "ingest.parse_s": self_s.get("ingest.load", 0.0),
        "ingest.load_mb_per_s": count("ingest.load_bytes") / 1e6 / load_s if load_s else 0.0,
        "ingest.write_s": self_s.get("ingest.write", 0.0),
        "ingest.write_bytes": count("ingest.write_bytes"),
        "trades.validate_s": self_s.get("trades.validate", 0.0),
        "trades.select_window_s": self_s.get("trades.select_window", 0.0),
        "trades.select_window_calls": calls.get("trades.select_window", 0),
        "moments.collect_s": self_s.get("moments.collect", 0.0),
        "moments.windows": windows,
        "moments.empty_windows": count("moments.empty_windows"),
        "sums.csum_s": self_s.get("sums.csum", 0.0),
        "sums.csum_calls": csum_calls,
        "sums.csum_elements": count("sums.csum_elements"),
        "sums.bytes_computed": 8 * count("sums.csum_elements"),
        "sums.calls_per_window": csum_calls / windows if windows else 0.0,
        "sums.useful_ratio": count("sums.distinct") / csum_calls if csum_calls else 0.0,
        "volatility.report_s": self_s.get("volatility.report", 0.0),
        "volatility.negative_windows": count("volatility.negative_windows"),
        "volatility.max_identity_dev": count("volatility.max_identity_dev"),
        "returns.build_s": self_s.get("returns.build", 0.0),
        "returns.select_s": self_s.get("returns.select", 0.0),
        "returns.report_s": self_s.get("returns.report", 0.0),
        "returns.max_identity_dev": count("returns.max_identity_dev"),
        "synth.simulate_s": self_s.get("synth.simulate", 0.0),
    }


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    import tickvol.cli
    try:
        return tickvol.cli.main(cli_args)
    finally:
        tracer.save(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
