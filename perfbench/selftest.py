"""Self-test of the benchmark's tracing; exits 0 when every check holds.

    python3 perfbench/selftest.py

Checks that the patcher reaches the call sites that import a function by
name, that one traced pass of each workload (instance seed 0) calls every
layer predicted to work there and skips the layers predicted idle, and that
the metric names agree with ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import WORK, ROOT, _import_program  # noqa: E402

# Call sites that hold a function under an imported name.
EXPECTED_SITES = {
    "nhpplearn.binning.learn": ["nhpplearn.experiments.learn", "nhpplearn.spatial.learn", "nhpplearn.cli.learn_model"],
    "nhpplearn.stat_tests.poisson_test_days": ["nhpplearn.binning.poisson_test_days"],
    "nhpplearn.regression.fit_partition": ["nhpplearn.binning.fit_partition"],
    "nhpplearn.regression.evaluate": ["nhpplearn.binning.evaluate", "nhpplearn.cli.evaluate_model"],
    "nhpplearn.spatial.learn_per_area": ["nhpplearn.experiments.learn_per_area"],
    "nhpplearn.simulate.make_dataset": ["nhpplearn.experiments.make_dataset", "nhpplearn.cli.make_dataset"],
    "nhpplearn.dataio.save_model": ["nhpplearn.experiments.save_model", "nhpplearn.cli.save_model"],
    "nhpplearn.dataio.load_events": ["nhpplearn.cli.load_events"],
    "nhpplearn.dataio.save_events": ["nhpplearn.cli.save_events"],
    "nhpplearn.dataio.load_model": ["nhpplearn.cli.load_model"],
}

_EVERYWHERE = (
    "simulate.make_dataset.calls", "simulate.events", "core.CountTable.from_events.calls",
    "regression.fit_interval.calls", "regression.points_fitted", "regression.fit_partition.calls",
    "regression.evaluate.calls", "binning.learn.calls", "binning.learn.busy_s", "binning.learn.self_s",
)
# Per workload: metrics predicted non-zero, and metrics predicted to be zero.
PREDICTIONS = {
    "sweep": (
        _EVERYWHERE + ("binning.learn.relaxed.busy_s", "experiments.run.busy_s"),
        ("stat_tests.poisson_test_days.calls", "stat_tests.day_tests", "dataio.rows_read"),
    ),
    "compare": (
        _EVERYWHERE + (
            "stat_tests.poisson_test_days.calls", "stat_tests.day_tests", "stat_tests.pass_ratio",
            "binning.learn.ivanov.busy_s", "binning.learn.tikhonov.busy_s", "binning.learn.equal.busy_s",
            "experiments.run.busy_s",
        ),
        ("spatial.kmeans.calls", "dataio.rows_read"),
    ),
    "areas": (
        _EVERYWHERE + (
            "stat_tests.poisson_test_days.calls", "stat_tests.day_tests", "binning.learn.ivanov.busy_s",
            "spatial.kmeans.calls", "spatial.kmeans.iterations", "spatial.learn_per_area.busy_s",
            "spatial.learn_per_area.self_s", "dataio.save_model.busy_s", "dataio.bytes_written",
            "experiments.run.busy_s",
        ),
        ("dataio.rows_read",),
    ),
    "files": (
        _EVERYWHERE + (
            "binning.learn.tikhonov.busy_s", "dataio.load_events.calls", "dataio.rows_read",
            "dataio.save_events.calls", "dataio.bytes_written", "dataio.save_model.busy_s",
            "dataio.load_model.busy_s", "cli.simulate.busy_s", "cli.learn.busy_s", "cli.eval.busy_s",
        ),
        ("stat_tests.poisson_test_days.calls", "stat_tests.day_tests", "experiments.run.busy_s"),
    ),
}


def main() -> int:
    _import_program()
    WORK.mkdir(parents=True, exist_ok=True)
    from layers import METRICS, layer_metrics
    from tracing import Recorder, install
    from workloads import WORKLOADS

    import nhpplearn.binning

    failures = []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if [m["name"] for m in spec["per_layer"]] != [name for name, _ in METRICS]:
        failures.append("BENCHMARK.json per_layer names differ from layers.METRICS")
    if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")

    original_learn = nhpplearn.binning.learn
    for name, workload in WORKLOADS.items():
        recorder = Recorder()
        restore, sites = install(recorder.wrap)
        try:
            for target, expected in EXPECTED_SITES.items():
                missing = sorted(set(expected) - set(sites[target]))
                if missing:
                    failures.append(f"{target}: call sites not patched: {missing}")
            with tempfile.TemporaryDirectory(dir=WORK) as work:
                workload.run(workload.prepare(0, Path(work)))
        finally:
            restore()
        metrics = layer_metrics(recorder.spans, 1, 0.0)
        nonzero, zero = PREDICTIONS[name]
        failures += [f"{name}: {m} is 0" for m in nonzero if not metrics[m]["value"] > 0]
        failures += [f"{name}: {m} = {metrics[m]['value']}, expected 0" for m in zero if metrics[m]["value"] != 0]
        print(f"{name}: day_tests={metrics['stat_tests.day_tests']['value']:g} "
              f"fit_interval.calls={metrics['regression.fit_interval.calls']['value']:g} "
              f"rows_read={metrics['dataio.rows_read']['value']:g}")
    if nhpplearn.binning.learn is not original_learn:
        failures.append("restore() left binning.learn patched")

    for failure in failures:
        print("FAIL", failure)
    print("selftest:", "ok" if not failures else f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
