"""Adaptive partition search for piecewise rate models.

One engine runs all three dividers.  ``divide`` makes one run of it and
``learn`` makes ``max_restarts`` runs and keeps the best.  Every divider
splits at uniformly sampled points, and candidate intervals are refined
worst-fit-first (highest per-cell risk next), so a tight bin budget flows to
the stretches the current fit explains worst:

* ``ivanov``: a candidate split is probed with per-day homogeneity tests on
  both halves, the left first; a failing left half settles the probe, so the
  right half is then not tested.  While a half still fails, the interval gets
  refined; an interval becomes a leaf once probes keep producing two passing
  halves (the binning constraint: final bins look homogeneous-Poisson).
* ``tikhonov``: no tests; every probe splits.  ``gamma`` weights the
  length-weighted penalty that picks the best visited state; it does not
  change the search path (the queue is ordered by unpenalized risk), so one
  run per restart serves every ``gamma`` of the selection grid.
* ``relaxed``: no tests; intervals divide unconditionally until their
  length drops to twice the floor ``eta`` (used for bin-budget sweeps).

Across restarts, ``learn`` keeps the partition with the lowest training risk.

A run's one record is its ``SearchTrace``, plain rows of the states it visited
and of its events; the best state under a ``gamma`` and the ``TraceEntry``
records of the JSONL trace are derived from those rows when read.
"""

from __future__ import annotations

import bisect
import heapq
import json
import math
from dataclasses import asdict, dataclass, field, replace
from typing import Sequence

import numpy as np

from .core import (
    CountTable,
    EventSeries,
    FitReport,
    Partition,
    RateModel,
    TimeWindow,
    binned_risk,
    penalized_risk,
)
from .regression import CellData, FitConfig, evaluate, fit_partition
from .stat_tests import MultiDayOutcome, check_test_settings, poisson_test_days

_SEARCH_DOMAIN = 1  # substream namespace, disjoint from simulation

GAMMA_GRID = (1e-4, 1e-3, 1e-2, 1e-1)

DIVIDERS = ("ivanov", "tikhonov", "relaxed")


@dataclass(frozen=True)
class SearchConfig:
    """Budgets and knobs for the partition search."""

    max_depth: int = 10
    max_bins: int = 64
    max_restarts: int = 50
    max_retries: int = 20
    gamma: float | None = None
    epsilon: float = 0.05
    eta_seconds: float | None = None
    seed: int = 0
    test_method: str = "log"
    test_mode: str = "per-day"
    min_pass_fraction: float | None = None
    trace_path: str | None = None

    def __post_init__(self) -> None:
        if self.max_depth < 1 or self.max_bins < 1 or self.max_restarts < 1:
            raise ValueError("search budgets must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be nonnegative")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed!r}")
        if not (0.0 < self.epsilon < 0.5):
            raise ValueError("epsilon must be in (0, 0.5)")
        # NaN fails every comparison, so a bare sign check would let it through
        if self.gamma is not None and not (math.isfinite(self.gamma) and self.gamma >= 0):
            raise ValueError(f"gamma must be finite and nonnegative, got {self.gamma!r}")
        if self.eta_seconds is not None and not (math.isfinite(self.eta_seconds) and self.eta_seconds > 0):
            raise ValueError(f"eta_seconds must be finite and positive, got {self.eta_seconds!r}")
        check_test_settings(self.test_method, self.test_mode, self.min_pass_fraction)


@dataclass(frozen=True)
class TraceEntry:
    """One event in the search: the root evaluation, a probe, a split, or a leaf."""

    kind: str  # "root" | "split" | "probe" | "leaf"
    interval: tuple[float, float]
    proposed_knot: float | None
    accepted: bool
    knots: tuple[float, ...]
    n_bins: int
    risk: float | None
    penalized: float | None
    depth: int
    reason: str | None = None
    left_test: dict | None = None
    right_test: dict | None = None


@dataclass
class SearchTrace:
    """Record of one divider run: the states it visited and its events.

    ``states`` has a ``(knot, risk, penalty sum)`` row for the root (knot
    None) and for each split (the knot it added); a state's knots are the
    sorted knots up to it, and ``risk + gamma * penalty sum`` its penalized
    risk.  ``events`` has a ``(kind, interval, proposed knot, depth, reason,
    left outcome, right outcome)`` row per root, probe, split and leaf, the
    outcomes being an ivanov probe's day tests.  ``gamma`` is the run's weight.
    """

    method: str
    window: TimeWindow
    gamma: float | None = None
    states: list[tuple[float | None, float, float]] = field(default_factory=list)
    events: list[tuple] = field(default_factory=list)

    @property
    def entries(self) -> list[TraceEntry]:
        """Every event with the state it left behind, as ``TraceEntry`` records (built on each read)."""
        entries = []
        states = iter(self.states)
        knots: list[float] = []  # kept sorted
        for kind, interval, proposed, depth, reason, left, right in self.events:
            accepted = kind == "root" or kind == "split"  # the events that make a state
            if accepted:
                knot, risk, s_penalty = next(states)
                if knot is not None:
                    bisect.insort(knots, knot)
            penalized = None if self.gamma is None else risk + self.gamma * s_penalty
            tests = (None if t is None else t.to_dict() for t in (left, right))
            entries.append(
                TraceEntry(kind, interval, proposed, accepted, tuple(knots), len(knots) + 1, risk, penalized, depth,
                           reason, *tests)
            )
        return entries

    def best_partition(self) -> Partition:
        """The best visited state under the run's own ``gamma``."""
        return Partition(window=self.window, knots=self.best_state(self.gamma)[0])

    def best_state(self, gamma: float | None) -> tuple[tuple[float, ...], float, float | None]:
        """The best visited state under ``gamma``: (knots, criterion, penalized risk).

        Tikhonov ranks the states by ``risk + gamma * penalty sum``, the other
        dividers by ``risk``; the comparison is strict, so a tie keeps the
        earlier state.
        """
        tikhonov = self.method == "tikhonov"
        if tikhonov and gamma is None:
            raise ValueError("tikhonov states are ranked under a gamma, got None")
        best, best_value, best_penalized = 0, math.inf, None
        for i, (_, risk, s_penalty) in enumerate(self.states):
            penalized = None if gamma is None else risk + gamma * s_penalty
            value = penalized if tikhonov else risk
            if value < best_value:
                best, best_value, best_penalized = i, value, penalized
        knots = tuple(sorted(knot for knot, _, _ in self.states[1 : best + 1]))
        return knots, best_value, best_penalized


def equal_partition(window: TimeWindow, n_bins: int) -> Partition:
    """Equal-length partition with ``n_bins`` bins."""
    if n_bins < 1:
        raise ValueError("need at least one bin")
    knots = window.start + window.length * np.arange(1, n_bins) / n_bins
    return Partition(window=window, knots=tuple(knots))


class _SearchEngine:
    """Single divider run over one dataset; incremental risk bookkeeping.

    Per-bin fits are independent, so splitting one interval only refits its
    two children; the running sums reproduce what a full refit would give.
    The fits live in ``data``: each queued interval carries the risk and
    occupancy of the fit that made it, which its split takes back out of the
    running sums.
    """

    def __init__(
        self,
        data: CellData,
        events: EventSeries | None,
        method: str,
        config: SearchConfig,
        restart_index: int = 0,
    ):
        if method not in DIVIDERS:
            raise ValueError(f"unknown divider '{method}' (expected one of {', '.join(DIVIDERS)})")
        if method == "relaxed" and config.eta_seconds is None:
            raise ValueError("relaxed division requires eta_seconds")
        if method == "ivanov" and events is None:
            raise ValueError("ivanov division requires training arrival times")
        if method == "ivanov" and events.window != data.window:
            raise ValueError("events and counts must share a window")
        self.data = data
        self.events = events
        self.window = data.window
        self.method = method
        self.config = config
        self.rng = np.random.default_rng(
            np.random.SeedSequence((int(config.seed), _SEARCH_DOMAIN, int(restart_index)))
        )
        self.m_total = data.total_points
        self.s_weighted = 0.0  # sum of m_k * R_k over current bins
        self.s_penalty = 0.0  # sum of m_k * R_k / len_k over all bins but the last
        self.trace = SearchTrace(method=method, window=self.window, gamma=config.gamma)
        self._queue_seq = 0  # insertion tiebreak keeps heap order deterministic

    # -- bookkeeping -------------------------------------------------------

    def _penalty_term(self, lo: float, hi: float, risk: float, m: int) -> float:
        if hi >= self.window.end:  # final bin carries no penalty
            return 0.0
        return m * risk / (hi - lo)

    def _add_state(self, knot: float | None) -> None:
        self.trace.states.append((knot, self.s_weighted / self.m_total, self.s_penalty))

    # -- the refinement loop -----------------------------------------------

    def run(self) -> SearchTrace:
        lo, hi = self.window.start, self.window.end
        _, risk, m = self.data.fit_interval(lo, hi)
        self.s_weighted = m * risk
        self.s_penalty = self._penalty_term(lo, hi, risk, m)
        self._add_state(None)
        self.trace.events.append(("root", (lo, hi), None, 0, None, None, None))
        # (-risk, insertion tiebreak, lo, hi, depth, risk, occupancy)
        heap: list[tuple[float, int, float, float, int, float, int]] = []
        self._enqueue(heap, lo, hi, 0, risk, m)
        while heap:
            _, _, a, b, depth, risk, m = heapq.heappop(heap)
            children = self._visit(a, b, depth, risk, m)
            if children is not None:
                for c_lo, c_hi, c_risk, c_m in children:
                    self._enqueue(heap, c_lo, c_hi, depth + 1, c_risk, c_m)
        return self.trace

    def _enqueue(self, heap: list, lo: float, hi: float, depth: int, risk: float, m: int) -> None:
        heapq.heappush(heap, (-risk, self._queue_seq, lo, hi, depth, risk, m))
        self._queue_seq += 1

    def _split_interval(
        self, lo: float, hi: float, p: float, risk_parent: float, m_parent: int
    ) -> list[tuple[float, float, float, int]]:
        """Replace bin [lo, hi) by its halves at ``p``; returns each half with its (risk, occupancy)."""
        self.s_weighted -= m_parent * risk_parent
        self.s_penalty -= self._penalty_term(lo, hi, risk_parent, m_parent)
        children = []
        for a, b in ((lo, p), (p, hi)):
            _, risk, m = self.data.fit_interval(a, b)
            self.s_weighted += m * risk
            self.s_penalty += self._penalty_term(a, b, risk, m)
            children.append((a, b, risk, m))
        self._add_state(p)
        return children

    def _day_slices(self, lo: float, hi: float) -> list[np.ndarray]:
        """Each day's arrivals in [lo, hi), as views of the sorted day arrays."""
        return [arr[arr.searchsorted(lo) : arr.searchsorted(hi)] for arr in self.events.days]

    def _test_halves(
        self, days: list[np.ndarray], lo: float, hi: float, p: float
    ) -> tuple[MultiDayOutcome, MultiDayOutcome | None]:
        """Test [lo, p), then [p, hi) only if [lo, p) passed; ``days`` = ``_day_slices(lo, hi)``.

        A probe splits when either half fails, so a failing left half settles
        it and the right half comes back as None.
        """
        cfg = self.config
        cuts = [arr.searchsorted(p) for arr in days]
        left = poisson_test_days(
            [arr[:c] for arr, c in zip(days, cuts)], lo, p,
            cfg.epsilon, cfg.test_method, cfg.test_mode, cfg.min_pass_fraction,
        )
        if not left.passed:
            return left, None
        right = poisson_test_days(
            [arr[c:] for arr, c in zip(days, cuts)], p, hi,
            cfg.epsilon, cfg.test_method, cfg.test_mode, cfg.min_pass_fraction,
        )
        return left, right

    def _sample_point(self, lo: float, hi: float) -> float:
        for _ in range(64):
            p = float(self.rng.uniform(lo, hi))
            if lo < p < hi:
                return p
        return 0.5 * (lo + hi)

    def _visit(
        self, lo: float, hi: float, depth: int, risk: float, m: int
    ) -> list[tuple[float, float, float, int]] | None:
        """Try to split one queued interval of fit (risk, m); returns the children or None."""
        events = self.trace.events
        reason = None
        if depth >= self.config.max_depth:
            reason = "max-depth"
        elif len(self.trace.states) >= self.config.max_bins:
            reason = "max-bins"
        elif hi - lo <= 1e-9:
            reason = "degenerate"
        elif self.method == "relaxed" and (hi - lo) <= 2.0 * self.config.eta_seconds:
            reason = "eta-floor"
        if reason is not None:
            events.append(("leaf", (lo, hi), None, depth, reason, None, None))
            return None

        days = self._day_slices(lo, hi) if self.method == "ivanov" else None
        attempts = 0
        while True:
            p = self._sample_point(lo, hi)
            left = right = None
            if days is not None:
                left, right = self._test_halves(days, lo, hi, p)
                if right is not None and right.passed:
                    # both halves look homogeneous; spend a retry hunting for
                    # a split point that still exposes structure
                    events.append(("probe", (lo, hi), p, depth, None, left, right))
                    attempts += 1
                    if attempts > self.config.max_retries:
                        events.append(("leaf", (lo, hi), None, depth, "homogeneous", left, right))
                        return None
                    continue
            children = self._split_interval(lo, hi, p, risk, m)
            events.append(("split", (lo, hi), p, depth, None, left, right))
            return children


def divide(
    method: str,
    counts: CountTable,
    events: EventSeries | None = None,
    fit_config: FitConfig | None = None,
    config: SearchConfig | None = None,
    restart_index: int = 0,
) -> SearchTrace:
    """One division run (no restarts) with one of ``DIVIDERS``.

    ``ivanov`` needs ``events``, the training arrivals over the counts'
    window; ``tikhonov`` needs ``config.gamma``; ``relaxed`` splits until
    intervals reach twice ``config.eta_seconds``.  ``restart_index`` picks
    the random stream, as restart ``r`` of ``learn`` does.
    """
    config = config or SearchConfig()
    if method == "tikhonov" and config.gamma is None:
        raise ValueError("tikhonov division requires gamma to be set")
    return _SearchEngine(CellData(counts, fit_config), events, method, config, restart_index).run()


def parse_method(method: str) -> tuple[str, int | None]:
    """Split a method string into (kind, equal-bin count)."""
    if method in DIVIDERS:
        return method, None
    kind, _, count = method.partition(":")
    if kind == "equal" and count.isdecimal():
        n = int(count)
        if n < 1:
            raise ValueError("equal:N needs N >= 1")
        return "equal", n
    raise ValueError(
        f"unknown method '{method}' (expected ivanov, tikhonov, relaxed or equal:N with N a positive integer)"
    )


def learn(
    train_events: EventSeries | None,
    train_counts: CountTable,
    test_counts: CountTable | None = None,
    method: str = "ivanov",
    fit_config: FitConfig | None = None,
    config: SearchConfig | None = None,
    compare_equal: bool = False,
    data: CellData | None = None,
) -> FitReport:
    """Learn a piecewise rate model with the requested division strategy.

    Runs ``config.max_restarts`` independent divider runs and keeps the best
    partition by training risk, then refits it and scores train/test RMSE.
    ``method`` is one of ``ivanov``, ``tikhonov``, ``relaxed``, or
    ``equal:N``; for ``tikhonov`` with ``gamma=None`` the penalty weight is
    picked from a small grid on a held-out tail of the training days.

    ``data`` is a ``CellData`` built on ``train_counts`` (the same object)
    under ``fit_config``; several calls on one table pass the same one to
    share its fits.  A fit depends only on the table, the config and the
    interval, so the report is the same as without it.  By default each
    call builds its own.
    """
    config = config or SearchConfig()
    kind, n_equal = parse_method(method)
    if kind == "equal" and n_equal > train_counts.n_cells:
        raise ValueError(
            f"method '{method}' asks for {n_equal} bins, more than the {train_counts.n_cells} cells "
            "of the training window"
        )
    fit_config = fit_config or FitConfig()
    if data is None:
        data = CellData(train_counts, fit_config)
    elif data.table is not train_counts:
        raise ValueError("data was built on another count table than train_counts")
    elif data.config != fit_config:
        raise ValueError(f"data was built under {data.config}, not under fit_config {fit_config}")

    if kind == "tikhonov" and config.gamma is None:
        config = replace(config, gamma=_select_gamma(train_counts, fit_config, config))

    if kind == "equal":
        best_partition = equal_partition(train_counts.window, n_equal)
        traces: list[SearchTrace] = []
    else:
        (best_partition,), traces = _search_best(train_events, data, kind, config, (config.gamma,))
    report = _score(method, best_partition, data, test_counts, config)

    if compare_equal and kind != "equal":
        # the search may leave more bins than cells, which equal:N rejects,
        # so the baseline is scored here rather than through learn
        n_bins = best_partition.n_bins
        baseline = _score(f"equal:{n_bins}", equal_partition(train_counts.window, n_bins), data, test_counts, config)
        improvement = None
        if report.rmse_test is not None and baseline.rmse_test:
            improvement = (baseline.rmse_test - report.rmse_test) * 100.0 / baseline.rmse_test
        report = replace(
            report,
            equal_bins=baseline.n_bins,
            equal_rmse_train=baseline.rmse_train,
            equal_rmse_test=baseline.rmse_test,
            improvement_pct=improvement,
        )

    if config.trace_path and traces:
        _write_trace(config.trace_path, traces)
    return report


def _score(
    method: str,
    partition: Partition,
    data: CellData,
    test_counts: CountTable | None,
    config: SearchConfig,
) -> FitReport:
    """Fit ``partition`` to the training counts behind ``data`` and score it."""
    train_counts = data.table
    model, risks, sizes = fit_partition(data, partition)
    return FitReport(
        method=method,
        partition=partition,
        model=model,
        n_bins=partition.n_bins,
        bin_sizes=tuple(int(v) for v in sizes),
        binned_risk=binned_risk(sizes, risks),
        rmse_train=evaluate(model, train_counts),
        rmse_test=evaluate(model, test_counts) if test_counts is not None else None,
        seed=config.seed,
        penalized_risk=(
            penalized_risk(sizes, risks, partition, config.gamma) if config.gamma is not None else None
        ),
        gamma=config.gamma,
        epsilon=config.epsilon,
        eta_seconds=config.eta_seconds,
    )


def _search_best(
    train_events: EventSeries | None,
    data: CellData,
    kind: str,
    config: SearchConfig,
    gammas: Sequence[float | None],
) -> tuple[list[Partition], list[SearchTrace]]:
    """Run ``config.max_restarts`` searches, then pick a winning partition per gamma.

    ``gamma`` only ranks the states a search visits, so one set of runs
    serves every value in ``gammas``: each restart's best state under it is
    scored by ``_outer_score``, and the lowest score wins (a tie keeps the
    earlier restart).
    """
    traces = [
        _SearchEngine(data, train_events, kind, config, r).run() for r in range(config.max_restarts)
    ]
    winners = []
    for gamma in gammas:
        best_score = math.inf
        best_knots: tuple[float, ...] = ()
        for trace in traces:
            knots = trace.best_state(gamma)[0]
            score = _outer_score(data, knots)
            if score < best_score:
                best_score = score
                best_knots = knots
        winners.append(Partition(window=data.window, knots=best_knots))
    return winners, traces


def _outer_score(data: CellData, knots: tuple[float, ...]) -> float:
    """Training risk of a restart's best partition, summed bin by bin in order.

    The engine's running sum and ``binned_risk`` (an ``np.dot``, whose
    pairwise or blocked sum often differs in the last bit) reach the same
    risk through other roundings.  Relaxed restarts tie down to the last
    bit, so this exact in-order sum decides which restart wins.
    """
    edges = Partition(window=data.window, knots=knots).edges()
    weighted = 0.0
    total = 0
    for k in range(len(knots) + 1):
        _, risk, m = data.fit_interval(edges[k], edges[k + 1])
        weighted += m * risk
        total += m
    return weighted / total


def _select_gamma(train_counts: CountTable, fit_config: FitConfig | None, config: SearchConfig) -> float:
    """Grid-search the penalty weight on a held-out tail of training days.

    The first ``ceil(0.75 * n_days)`` days (all but one at most) are searched
    once per restart, and every value of ``GAMMA_GRID`` picks its winner from
    those runs.  Each winner is refitted on the same days and scored by RMSE
    on the held-out ones; the lowest wins, the smaller gamma on a tie.  With
    fewer than 2 training days nothing can be held out, and ``1e-2`` is
    returned.
    """
    n_days = train_counts.n_days
    if n_days < 2:
        return 1e-2
    n_fit = max(1, int(math.ceil(0.75 * n_days)))
    n_fit = min(n_fit, n_days - 1)
    fit_table = CountTable(train_counts.window, train_counts.resolution, train_counts.counts[:n_fit])
    val_table = CountTable(train_counts.window, train_counts.resolution, train_counts.counts[n_fit:])
    data = CellData(fit_table, fit_config)
    winners, _ = _search_best(None, data, "tikhonov", config, GAMMA_GRID)
    best_gamma = GAMMA_GRID[0]
    best_rmse = math.inf
    for gamma, partition in zip(GAMMA_GRID, winners):
        model, _, _ = fit_partition(data, partition)
        rmse = evaluate(model, val_table)
        if rmse < best_rmse:
            best_rmse = rmse
            best_gamma = gamma
    return best_gamma


def _write_trace(path: str, traces: Sequence[SearchTrace]) -> None:
    with open(path, "w") as fh:
        for r, trace in enumerate(traces):
            for i, entry in enumerate(trace.entries):
                fh.write(json.dumps({"restart": r, "event": i, **asdict(entry)}) + "\n")
            knots, risk, penalized = trace.best_state(trace.gamma)
            best = {"restart": r, "event": "best", "knots": list(knots), "risk": risk, "penalized": penalized}
            fh.write(json.dumps(best) + "\n")
