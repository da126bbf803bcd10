"""Per-layer metrics from a traced run's spans.

Busy time is a span's duration; self time is busy time minus the durations
of its direct child spans.  Every figure is a mean per pass.
``binning.learn`` calls itself (gamma selection, equal-length baselines):
``calls`` counts every call, ``busy_s`` counts only outermost calls, and
``<method>.busy_s`` counts calls not nested in a call of the same method.
``binning.learn.self_s`` sums the self time of every learn span, nested ones
included: the bookkeeping of a nested call counts toward its outermost call,
so the figure is the outermost calls' busy time minus the non-learn spans
they contain.
"""

from __future__ import annotations

from collections import defaultdict

from tracing import CLI_COMMANDS

LEARN_METHODS = ("ivanov", "tikhonov", "relaxed", "equal")

# (metric name, unit); the order BENCHMARK.json lists them in.
METRICS = (
    ("simulate.make_dataset.calls", "count"),
    ("simulate.make_dataset.busy_s", "s"),
    ("simulate.events", "count"),
    ("core.CountTable.from_events.calls", "count"),
    ("core.CountTable.from_events.busy_s", "s"),
    ("stat_tests.poisson_test_days.calls", "count"),
    ("stat_tests.poisson_test_days.busy_s", "s"),
    ("stat_tests.day_tests", "count"),
    ("stat_tests.pass_ratio", "ratio"),
    ("regression.fit_interval.calls", "count"),
    ("regression.fit_interval.busy_s", "s"),
    ("regression.points_fitted", "count"),
    ("regression.fit_partition.calls", "count"),
    ("regression.fit_partition.busy_s", "s"),
    ("regression.evaluate.calls", "count"),
    ("regression.evaluate.busy_s", "s"),
    ("binning.learn.calls", "count"),
    ("binning.learn.busy_s", "s"),
    ("binning.learn.self_s", "s"),
    *((f"binning.learn.{m}.busy_s", "s") for m in LEARN_METHODS),
    ("spatial.kmeans.calls", "count"),
    ("spatial.kmeans.busy_s", "s"),
    ("spatial.kmeans.iterations", "count"),
    ("spatial.learn_per_area.busy_s", "s"),
    ("spatial.learn_per_area.self_s", "s"),
    ("dataio.load_events.calls", "count"),
    ("dataio.load_events.busy_s", "s"),
    ("dataio.rows_read", "count"),
    ("dataio.save_events.calls", "count"),
    ("dataio.save_events.busy_s", "s"),
    ("dataio.bytes_written", "bytes"),
    ("dataio.save_model.busy_s", "s"),
    ("dataio.load_model.busy_s", "s"),
    ("experiments.run.busy_s", "s"),
    ("experiments.run.self_s", "s"),
    *((f"cli.{c}.{stat}", "s") for c in CLI_COMMANDS for stat in ("busy_s", "self_s")),
    ("trace.overhead_s", "s"),
)


def layer_metrics(spans: list[list], n_passes: int, overhead_s: float) -> dict:
    """``spans`` as recorded by ``tracing.Recorder``; parents precede children."""
    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    value: dict[str, float] = defaultdict(float)
    child_time = [0.0] * len(spans)
    learn_above: list[frozenset] = []  # learn methods among each span's ancestors, itself included
    for name, start, end, parent, v in spans:
        if parent >= 0:
            child_time[parent] += end - start
        above = learn_above[parent] if parent >= 0 else frozenset()
        learn_above.append(above | {v} if name == "binning.learn" else above)
    for i, (name, start, end, parent, v) in enumerate(spans):
        duration = end - start
        calls[name] += 1
        self_s[name] += duration - child_time[i]
        outer = learn_above[parent] if parent >= 0 else frozenset()
        if name == "binning.learn":
            if not outer:
                busy[name] += duration
            if v not in outer:
                busy[f"{name}.{v}"] += duration
        else:
            busy[name] += duration
        if name == "stat_tests.poisson_test_days":
            value["stat_tests.day_tests"] += v[0]
            value["passed"] += v[1]
        elif isinstance(v, (int, float)):
            value[name] += v

    tests = calls["stat_tests.poisson_test_days"]
    derived = {
        "simulate.events": value["simulate.make_dataset"],
        "stat_tests.day_tests": value["stat_tests.day_tests"],
        "stat_tests.pass_ratio": value["passed"] / tests if tests else 0.0,
        "regression.points_fitted": value["regression.fit_interval"],
        "spatial.kmeans.iterations": value["spatial.kmeans"],
        "dataio.rows_read": value["dataio.load_events"],
        "dataio.bytes_written": value["dataio.save_events"] + value["dataio.save_model"],
        "trace.overhead_s": overhead_s,
    }
    out = {}
    for metric, unit in METRICS:
        if metric in derived:
            v = derived[metric]
            if metric not in ("stat_tests.pass_ratio", "trace.overhead_s"):
                v /= n_passes
        else:
            layer, stat = metric.rsplit(".", 1)
            table = {"calls": calls, "busy_s": busy, "self_s": self_s}[stat]
            v = table[layer] / n_passes
        out[metric] = {"value": v, "unit": unit}
    return out
