"""nhpplearn benchmark: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src``.  A closed loop with a single caller drives the program.  A round
is one fresh interpreter that runs the workload once per instance seed
derived from ``--seed``; rounds repeat until the next would end after
``--seconds`` (set-up probes included).  No pass repeats its inputs inside
one process, so nothing the program caches between calls outlives its round.

``--trace 0`` reports the end-to-end metrics: pass time and time-to-model
of each outermost ``binning.learn`` call (both the median of each instance
seed's rounds), set-up time of a fresh process, and peak memory.
``--trace 1`` alternates untraced and traced rounds and reports per-layer
metrics from spans taken around the package's public functions (see
``tracing.py``); the spans are written to ``perfbench/_spans``.

Every pass is checked: outputs must equal the stored reference for its
instance seed (``perfbench/reference``), or pass the structural check when
there is none, and every round must give the same outputs.  The last line
of standard output is ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"  # scratch outputs of passes; removed at exit
SETUP_PROBES = 7
ROUND_TIMEOUT_S = 150


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path; fail if the package is absent."""
    src = ROOT / "src"
    if not (src / "nhpplearn" / "__init__.py").is_file():
        sys.exit(f"perfbench: no nhpplearn sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import nhpplearn

    if Path(nhpplearn.__file__).resolve().parent != (src / "nhpplearn").resolve():
        sys.exit(f"perfbench: imported nhpplearn from {nhpplearn.__file__}, not from {src}")


def digest(outputs: dict[str, str]) -> str:
    h = hashlib.sha256()
    for name in sorted(outputs):
        h.update(name.encode() + b"\0" + outputs[name].encode() + b"\0")
    return h.hexdigest()


def load_reference(name: str) -> dict[str, dict[str, str]]:
    path = HERE / "reference" / f"{name}.json"
    return json.loads(path.read_text())["seeds"] if path.is_file() else {}


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with ten samples beyond it, and its value.

    With ten samples or fewer no percentile qualifies; the slowest is reported.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


class LearnTimer:
    """Durations of outermost ``binning.learn`` calls; every other target is left alone."""

    def __init__(self):
        self.durations: list[float] = []
        self._depth = 0

    def wrap(self, name, fn, value=None):
        if name != "binning.learn":
            return fn

        def timed(*args, **kwargs):
            self._depth += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._depth -= 1
                if self._depth == 0:
                    self.durations.append(perf_counter() - t0)

        return timed


# -- one round, in its own interpreter ---------------------------------------

def round_worker(workload_name: str, seed: int, trace: bool, work: Path) -> int:
    """Run one pass per instance seed and write their times and outputs to ``work/result.json``.

    A pass that raises is recorded with no time and no outputs.
    """
    from tracing import Recorder, install
    from workloads import WORKLOADS, instance_seeds

    workload = WORKLOADS[workload_name]
    recorder, timer = Recorder(), LearnTimer()
    restore, _ = install(recorder.wrap if trace else timer.wrap)
    passes = []
    try:
        for s in instance_seeds(workload, seed):
            inst = work / str(s)
            inst.mkdir(parents=True)
            settings = workload.prepare(s, inst)
            run = recorder.wrap("pass", workload.run, lambda r, a, k, s=s: s) if trace else workload.run
            first = len(timer.durations)
            t0 = perf_counter()
            try:
                outputs = run(settings)
            except Exception:
                traceback.print_exc()
                passes.append({"seed": s, "time": None})
                continue
            passes.append({"seed": s, "time": perf_counter() - t0,
                           "learn": timer.durations[first:], "outputs": outputs})
    finally:
        restore()
    result = {
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": recorder.spans,
    }
    (work / "result.json").write_text(json.dumps(result))
    return 0


class Runner:
    """Starts the rounds of one workload and checks every pass's outputs."""

    def __init__(self, workload, seed: int, work: Path):
        from workloads import instance_seeds

        self.workload = workload
        self.seed = seed
        self.seeds = instance_seeds(workload, seed)
        self.work = work
        self.reference = load_reference(workload.name)
        self.digests: dict[int, str] = {}
        self.attempted = 0
        self.failed = 0
        self._rounds = 0

    def round(self, trace: bool) -> dict | None:
        """One round in a fresh interpreter; its result, or None if a pass did not finish."""
        self._rounds += 1
        work = self.work / f"round{self._rounds}"
        work.mkdir(parents=True)
        argv = [sys.executable, str(HERE / "run.py"), "--round", str(work), "--workload",
                self.workload.name, "--seed", str(self.seed), "--trace", str(int(trace))]
        proc = subprocess.Popen(argv, stdout=sys.stderr, cwd=ROOT)
        try:
            proc.wait(timeout=ROUND_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        self.attempted += len(self.seeds)
        try:
            result = json.loads((work / "result.json").read_text())
        except (OSError, ValueError):
            print(f"perfbench: round exited {proc.returncode} without a result", file=sys.stderr)
            self.failed += len(self.seeds)
            return None
        finally:
            shutil.rmtree(work, ignore_errors=True)
        for p in result["passes"]:
            problems = ["raised"] if p["time"] is None else self._verify(p["seed"], p.pop("outputs"))
            if problems:  # a pass with wrong outputs is still timed: the run reports correct=false
                print(f"perfbench: {self.workload.name} instance {p['seed']}: {problems}", file=sys.stderr)
                self.failed += 1
        if proc.returncode != 0 or any(p["time"] is None for p in result["passes"]):
            return None
        return result

    def _verify(self, s: int, outputs: dict[str, str]) -> list[str]:
        d = digest(outputs)
        if self.digests.setdefault(s, d) != d:
            return ["outputs differ from an earlier round on the same seed"]
        ref = self.reference.get(str(s))
        if ref is None:
            return self.workload.check(outputs, self.workload.prepare(s, self.work / str(s)))
        return [f"{name} differs from the stored reference" for name in ref if outputs.get(name) != ref[name]]


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from spawning a fresh interpreter until it has imported and configured."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--probe", "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        try:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode}, said {line!r})")
        times.append(elapsed)
    return times


def run_rounds(one_round, deadline: float) -> list:
    """Call ``one_round`` until the next call would end after ``deadline``, at least once.

    Returns the results that are not None (rounds in which every pass finished).
    """
    results = []
    last = 0.0
    while not last or perf_counter() + last <= deadline:
        t0 = perf_counter()
        result = one_round()
        last = perf_counter() - t0
        if result is not None:
            results.append(result)
    return results


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def pass_medians(rounds: list[dict]) -> list[float]:
    """Per instance seed, the median of its pass times over the rounds.

    On a shared host, other tenants slow some passes by up to 1.6x and a few
    run faster than the rest; the median of a seed's rounds ignores both.
    """
    return [statistics.median(col) for col in zip(*([p["time"] for p in r["passes"]] for r in rounds))]


def end_to_end(runner: Runner, deadline: float) -> dict:
    setup = measure_setup(runner.workload.name, runner.seed)
    rounds = run_rounds(lambda: runner.round(trace=False), deadline)
    if not rounds:
        return {}
    n = len(rounds)
    # rounds are deterministic: the k-th learn call of a seed's pass repeats the same work
    learn = [statistics.median(call) for i in range(len(runner.seeds))
             for call in zip(*(r["passes"][i]["learn"] for r in rounds))]
    pct, slow = tail(learn)
    print(f"run_s: mean over {len(runner.seeds)} instance seeds of the median of {n} rounds")
    print(f"learn_s: {len(learn)} outermost learn calls, each the median of {n} rounds; tail = p{pct:.1f}"
          + (" with 10 samples beyond it" if pct < 100 else " (ten calls or fewer: the slowest call)"))
    print(f"setup_s: median of {len(setup)} fresh processes")
    print(f"peak_rss_mb: median over {n} rounds of each round's peak")
    return {
        "run_s": metric(statistics.fmean(pass_medians(rounds)), "s"),
        "learn_s.p50": metric(statistics.median(learn), "s"),
        "learn_s.tail": metric(slow, "s"),
        "setup_s": metric(statistics.median(setup), "s"),
        "peak_rss_mb": metric(statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
    }


def per_layer(runner: Runner, deadline: float, spans_path: Path) -> dict:
    from layers import layer_metrics
    from tracing import write_spans

    def pair():
        # untraced and traced rounds alternate, so both see the same host load
        untraced, traced = runner.round(trace=False), runner.round(trace=True)
        return None if untraced is None or traced is None else (untraced, traced)

    pairs = run_rounds(pair, deadline)
    if not pairs:
        return {}
    spans = []
    for _, traced in pairs:
        offset = len(spans)
        spans += [[name, start, end, parent + offset if parent >= 0 else -1, value]
                  for name, start, end, parent, value in traced["spans"]]
    write_spans(spans, spans_path)
    untraced, traced = zip(*pairs)
    overhead = statistics.fmean(pass_medians(traced)) - statistics.fmean(pass_medians(untraced))
    n_passes = len(traced) * len(runner.seeds)
    print(f"per-layer: means over {n_passes} traced passes; spans in {spans_path.relative_to(ROOT)}")
    return layer_metrics(spans, n_passes, overhead)


def probe(workload_name: str, seed: int) -> int:
    """Set-up alone: the imports and settings a round needs, then report ready."""
    from workloads import WORKLOADS, instance_seeds

    import tracing  # noqa: F401  (imported by every round)

    workload = WORKLOADS[workload_name]
    for s in instance_seeds(workload, seed):
        workload.prepare(s, WORK / f"{workload_name}-{s}")
    print("ready", flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    start = perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--round", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    _import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    if args.probe:
        return probe(args.workload, args.seed)
    if args.round:
        return round_worker(args.workload, args.seed, bool(args.trace), args.round)

    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    runner = Runner(WORKLOADS[args.workload], args.seed, work)
    deadline = start + args.seconds
    try:
        if args.trace:
            spans = HERE / "_spans" / f"{args.workload}-seed{args.seed}.jsonl"
            metrics = per_layer(runner, deadline, spans)
        else:
            metrics = end_to_end(runner, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for s, d in sorted(runner.digests.items()):
        print(f"digest {args.workload} instance-seed {s} sha256 {d}")
    print(f"error_rate: {runner.failed}/{runner.attempted} passes failed")
    if not metrics:
        print("perfbench: no round finished every pass", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
