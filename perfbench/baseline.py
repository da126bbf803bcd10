"""Measure every workload over ten seeds, twice, and store the result.

    python3 perfbench/baseline.py

For each workload in ``BENCHMARK.json``, runs ``run.py --trace 0`` once per
seed 0-9 (one process at a time) and records each end-to-end metric's
values, median, quartiles and spread (quartile distance over median).  Then
it measures every workload a second time the same way, and records how far
the second median moved from the first.  A metric is ``unresolved`` on a
workload when a spread (``setup_s`` excepted) exceeds its bound or the two
medians differ by more than the bound: a change of that size cannot be told
apart from the host's own drift.  Last, one ``--trace 1`` run per workload
at seed 0 gives the per-layer table.  The file also records the interpreter,
library versions and CPU the figures were taken on.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(10)
SETS = 2
OUT = HERE / "baseline.json"


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["notes"] = lines[:-1]
    return result


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _summary(values: list[float], bound: float) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2,
            "spread_over_bound": (q3 - q1) / q2 / bound, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    result = {
        "environment": {
            "python": platform.python_version(),
            "numpy": version("numpy"),
            "click": version("click"),
            "nproc": os.cpu_count(),
            "cpu": _cpu_model(),
        },
        "reference_run_seeds": {
            name: json.loads((HERE / "reference" / f"{name}.json").read_text())["run_seeds"] for name in names
        },
        "run_seconds": seconds,
        "runs_per_set": len(SEEDS),
        "sets": SETS,
        "workloads": {name: {"sets": [], "passes_attempted": 0, "passes_failed": 0} for name in names},
    }
    for k in range(SETS):  # every workload once, then every workload again
        for name in names:
            runs = [_run(name, seed, seconds, 0) for seed in SEEDS]
            entry = result["workloads"][name]
            entry["sets"].append({m["name"]: _summary([r["metrics"][m["name"]]["value"] for r in runs], m["bound"])
                                  for m in spec["end_to_end"]})
            entry["passes_attempted"] += sum(r["attempted"] for r in runs)
            entry["passes_failed"] += sum(r["failed"] for r in runs)
            entry.setdefault("notes_seed0", runs[0]["notes"])
            worst = max(entry["sets"][-1].items(), key=lambda kv: kv[1]["spread_over_bound"])
            print(f"set {k + 1} {name}: worst spread / bound = {worst[1]['spread_over_bound']:.2f} ({worst[0]})",
                  flush=True)
    for name in names:
        entry = result["workloads"][name]
        entry["drift"] = {}
        entry["unresolved"] = []
        for m in spec["end_to_end"]:
            first, *later = summaries = [s[m["name"]] for s in entry["sets"]]
            drift = max((s["median"] / first["median"] - 1 for s in later), key=abs)
            entry["drift"][m["name"]] = drift
            spreads = [s["spread"] for s in summaries] if m["name"] != "setup_s" else []
            if abs(drift) > m["bound"] or any(v > m["bound"] for v in spreads):
                entry["unresolved"].append(m["name"])
        traced = _run(name, 0, seconds, 1)
        entry["per_layer_seed0"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["per_layer_notes"] = traced["notes"]
        print(f"{name}: drift " + ", ".join(f"{k} {v:+.3f}" for k, v in entry["drift"].items())
              + f"; unresolved: {entry['unresolved'] or 'none'}", flush=True)
    OUT.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
