"""Store reference outputs for run seeds 0-9 of every workload.

    python3 perfbench/record.py

Runs one untimed pass per instance seed and writes every output to
``perfbench/reference/<workload>.json``.  Later runs compare their outputs
with these byte for byte.  Re-record only in a change whose purpose is to
change the outputs, and say why in that change.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import HERE, WORK, _import_program  # noqa: E402

RUN_SEEDS = range(10)


def main() -> int:
    _import_program()
    WORK.mkdir(parents=True, exist_ok=True)
    from workloads import WORKLOADS, instance_seeds

    for name, workload in WORKLOADS.items():
        seeds = {}
        for run_seed in RUN_SEEDS:
            for s in instance_seeds(workload, run_seed):
                with tempfile.TemporaryDirectory(dir=WORK) as work:
                    settings = workload.prepare(s, Path(work))
                    outputs = workload.run(settings)
                problems = workload.check(outputs, settings)
                if problems:
                    sys.exit(f"{name} instance seed {s}: {problems}")
                seeds[str(s)] = outputs
        path = HERE / "reference" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps({"run_seeds": [RUN_SEEDS[0], RUN_SEEDS[-1]], "seeds": seeds}, indent=1) + "\n")
        print(f"wrote {path} ({len(seeds)} instance seeds)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
