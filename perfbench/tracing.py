"""Spans around calls into nhpplearn's public functions, recorded from outside.

The program itself carries no instrumentation.  ``install`` replaces each
target function with a timing wrapper at every place the package holds it:
the defining module and every module that imported it by name (``cli``
imports ``binning.learn`` as ``learn_model``, ``binning`` imports
``poisson_test_days`` and ``fit_partition``, and so on).  Wrapping only the
defining module would silently drop those calls.  Methods are patched on
their class, which every importer shares.

A span is ``[name, start, end, parent, value]``: ``parent`` is the index of
the enclosing span (-1 at the top) and ``value`` is a count derived from the
call's return value or arguments, such as the number of days a homogeneity
test covered.  Spans stay in memory until the round ends; the run then
writes the spans of all its traced rounds out together.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from pathlib import Path
from time import perf_counter


def _method_kind(args, kwargs):
    method = kwargs.get("method", args[3] if len(args) > 3 else "ivanov")
    return method.split(":", 1)[0]


def _ignore(result, args, kwargs):
    return None


# (module, attribute, span name, value of one call).  ``Class.method`` names a
# function in a class body.  Counts come from returned values because some
# inner functions (the per-day ``log_test``) are reached through a dispatch
# table, not through a name that can be patched.
TARGETS = (
    ("nhpplearn.simulate", "make_dataset", "simulate.make_dataset",
     lambda r, a, k: r[0].total_events + r[1].total_events),
    ("nhpplearn.core", "CountTable.from_events", "core.CountTable.from_events", _ignore),
    ("nhpplearn.stat_tests", "poisson_test_days", "stat_tests.poisson_test_days",
     lambda r, a, k: (r.n_days, r.passed)),
    ("nhpplearn.regression", "CellData.fit_interval", "regression.fit_interval",
     lambda r, a, k: r[2]),
    ("nhpplearn.regression", "fit_partition", "regression.fit_partition", _ignore),
    ("nhpplearn.regression", "evaluate", "regression.evaluate", _ignore),
    ("nhpplearn.binning", "learn", "binning.learn", lambda r, a, k: _method_kind(a, k)),
    ("nhpplearn.spatial", "kmeans", "spatial.kmeans", lambda r, a, k: r.n_iter),
    ("nhpplearn.spatial", "learn_per_area", "spatial.learn_per_area", _ignore),
    ("nhpplearn.dataio", "load_events", "dataio.load_events", lambda r, a, k: r.total_events),
    ("nhpplearn.dataio", "save_events", "dataio.save_events",
     lambda r, a, k: os.path.getsize(a[1])),
    ("nhpplearn.dataio", "save_model", "dataio.save_model", lambda r, a, k: os.path.getsize(a[1])),
    ("nhpplearn.dataio", "load_model", "dataio.load_model", _ignore),
    ("nhpplearn.experiments", "run_experiment_1", "experiments.run", _ignore),
    ("nhpplearn.experiments", "run_experiment_2", "experiments.run", _ignore),
    ("nhpplearn.experiments", "run_experiment_3", "experiments.run", _ignore),
)

# click commands whose callbacks get a ``cli.<command>`` span.
CLI_COMMANDS = ("simulate", "learn", "eval")


class Recorder:
    """In-memory span list with a stack of open spans (one thread)."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name, fn, value=_ignore):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._open[-1] if self._open else -1, None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._open.pop()
            span[4] = value(result, args, kwargs)
            return result

        return traced


def write_spans(spans: list[list], path: Path) -> None:
    """One JSON object per span, in recording order."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for name, start, end, parent, value in spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end,
                                 "parent": parent, "value": value}) + "\n")


def _package_modules():
    return [m for n, m in sorted(sys.modules.items()) if n == "nhpplearn" or n.startswith("nhpplearn.")]


def install(wrap) -> tuple[callable, dict[str, list[str]]]:
    """Replace every target with ``wrap(name, fn, value)`` wherever it is bound.

    Returns a function that undoes the patching and, per target, the
    ``module.attribute`` sites that were patched.
    """
    undo: list[tuple[object, str, object]] = []
    sites: dict[str, list[str]] = {}
    modules = _package_modules()
    for module_name, attr, name, value in TARGETS:
        owner = sys.modules[module_name]
        key = f"{module_name}.{attr}"
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            raw = vars(cls)[meth]
            if isinstance(raw, classmethod):
                new = classmethod(wrap(name, raw.__func__, lambda r, a, k, v=value: v(r, a[1:], k)))
            else:
                new = wrap(name, raw, lambda r, a, k, v=value: v(r, a[1:], k))
            setattr(cls, meth, new)
            undo.append((cls, meth, raw))
            sites[key] = [f"{module_name}.{attr}"]
            continue
        original = getattr(owner, attr)
        new = wrap(name, original, value)
        sites[key] = []
        for module in modules:
            for bound_name, obj in list(vars(module).items()):
                if obj is original:
                    setattr(module, bound_name, new)
                    undo.append((module, bound_name, original))
                    sites[key].append(f"{module.__name__}.{bound_name}")
    commands = sys.modules["nhpplearn.cli"].main.commands
    for command in CLI_COMMANDS:
        cmd = commands[command]
        undo.append((cmd, "callback", cmd.callback))
        cmd.callback = wrap(f"cli.{command}", cmd.callback, _ignore)
        sites[f"nhpplearn.cli.{command}"] = [f"nhpplearn.cli.main.commands[{command!r}].callback"]

    def restore() -> None:
        for target, bound_name, obj in reversed(undo):
            setattr(target, bound_name, obj)

    return restore, sites

