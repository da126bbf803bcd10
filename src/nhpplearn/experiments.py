"""Reproducible experiment drivers behind the command-line interface.

Three studies: a bin-budget sweep showing the under/overfitting tradeoff,
a method comparison against equal-length binning, and a clustered
per-area variant.  All outputs are plain CSV/JSON with fixed headers and
6-significant-digit floats; a given config and seed reproduce every byte.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .binning import SearchConfig, equal_partition, learn
from .core import CountTable, _cell_edges, check_integer, is_number
from .dataio import load_json, save_model
from .regression import CellData, FitConfig, evaluate, fit_partition
from .simulate import SIM_MODES, PiecewiseLinearRate, af_rate, check_count_range, check_day_counts, make_dataset
from .spatial import GeoEventSeries, learn_per_area

ETA_SWEEP_MINUTES = (600.0, 480.0, 120.0, 100.0, 80.0, 60.0, 50.0, 40.0, 30.0, 20.0, 10.0)

EXP1_HEADER = "eta,bins,rmse_train,rmse_test"
EXP2_HEADER = "instance,method,rmse_train,rmse_test,bins,rmse_train_equal,rmse_test_equal,improvement_pct"
EXP3_HEADER = "area,events,bins,rmse_train,rmse_test"

# what a value of each declared field type must be; an int is a number, and
# JSON's true and false are neither numbers nor strings
_FIELD_KINDS = {
    "float": (is_number, "a number"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared experiment settings; per-experiment constructors tune the defaults."""

    seed: int = 0
    out_dir: str = "."
    instance: str = "AF"
    rate: dict | None = None  # PiecewiseLinearRate payload; None -> af_rate()
    n_train_days: int = 6
    n_test_days: int = 8
    resolution: float = 300.0
    sim_mode: str = "conditioned"
    count_lo: int = 7000
    count_hi: int = 8000
    degree: int = 3
    clamp: bool = True
    epsilon: float = 0.05
    gamma: float | None = None
    eta_sweep_minutes: tuple[float, ...] = ETA_SWEEP_MINUTES
    max_depth: int = 40
    max_bins: int = 192
    max_restarts: int = 6
    max_retries: int = 6
    test_method: str = "log"
    test_mode: str = "per-day"
    clusters: int = 20
    geo_path: str | None = None

    def __post_init__(self) -> None:
        # every setting is checked here, so a bad config file fails before
        # anything is made; a value keeps the type it came with
        for f in fields(self):
            value = getattr(self, f.name)
            kind, _, rest = f.type.partition(" | ")
            if value is None and rest == "None":
                continue
            if kind == "int":
                check_integer(f.name, value)
            elif kind in _FIELD_KINDS and not _FIELD_KINDS[kind][0](value):
                raise ValueError(f"{f.name} must be {_FIELD_KINDS[kind][1]}, got {value!r}")
        if self.sim_mode not in SIM_MODES:
            raise ValueError(f"sim_mode must be one of {', '.join(SIM_MODES)}, got {self.sim_mode!r}")
        # the settings forwarded to the search and the fits are range-checked there
        self.search_config()
        self.fit_config()
        object.__setattr__(self, "_rate", af_rate() if self.rate is None else PiecewiseLinearRate.from_dict(self.rate))
        # the ranges the count tables and the simulation would refuse, in their words
        _cell_edges(self.sim_rate.window(), self.resolution)
        check_count_range(self.count_lo, self.count_hi)
        check_day_counts(self.n_train_days, self.n_test_days)
        if self.clusters < 1:
            raise ValueError(f"clusters must be at least 1, got {self.clusters!r}")
        # a config file gives a list and the command line a tuple; keep one form
        try:
            object.__setattr__(self, "eta_sweep_minutes", tuple(self.eta_sweep_minutes))
        except TypeError:
            raise ValueError(f"eta_sweep_minutes must be a list of minutes, got {self.eta_sweep_minutes!r}") from None
        for eta in self.eta_sweep_minutes:
            # NaN fails every comparison, so a bare sign check would let it through
            if not (is_number(eta) and math.isfinite(eta) and eta > 0):
                raise ValueError(f"eta_sweep_minutes must be finite and positive, got {eta!r}")

    @classmethod
    def exp1_defaults(cls, **overrides) -> "ExperimentConfig":
        return cls(**overrides)

    @classmethod
    def exp2_defaults(cls, **overrides) -> "ExperimentConfig":
        base = dict(
            n_train_days=120,
            n_test_days=31,
            degree=1,
            max_depth=12,
            max_bins=7,
            max_restarts=16,
            max_retries=6,
        )
        base.update(overrides)
        return cls(**base)

    @classmethod
    def exp3_defaults(cls, **overrides) -> "ExperimentConfig":
        base = dict(
            n_train_days=4,
            n_test_days=2,
            resolution=1800.0,
            count_lo=600,
            count_hi=800,
            degree=1,
            max_depth=8,
            max_bins=16,
            max_restarts=3,
            max_retries=2,
        )
        base.update(overrides)
        return cls(**base)

    @classmethod
    def from_file(cls, path: str | Path, defaults: "ExperimentConfig | None" = None) -> "ExperimentConfig":
        payload = load_json(path)
        if not isinstance(payload, dict):
            raise ValueError(f"{path}: config file must hold a JSON object, got {type(payload).__name__}")
        base = defaults or cls()
        known = set(base.__dataclass_fields__)
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"{path}: unknown config keys {sorted(unknown)}")
        try:
            return replace(base, **payload)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None

    def with_overrides(self, **overrides) -> "ExperimentConfig":
        return replace(self, **{k: v for k, v in overrides.items() if v is not None})

    @property
    def sim_rate(self) -> PiecewiseLinearRate:
        """The rate to simulate, built from ``rate`` (or ``af_rate()``) when the config is made."""
        return self._rate

    def search_config(self, **extra) -> SearchConfig:
        base = dict(
            max_depth=self.max_depth,
            max_bins=self.max_bins,
            max_restarts=self.max_restarts,
            max_retries=self.max_retries,
            gamma=self.gamma,
            epsilon=self.epsilon,
            seed=self.seed,
            test_method=self.test_method,
            test_mode=self.test_mode,
        )
        base.update(extra)
        return SearchConfig(**base)

    def fit_config(self, **extra) -> FitConfig:
        base = dict(degree=self.degree, clamp=self.clamp)
        base.update(extra)
        return FitConfig(**base)


def _fmt(value) -> str:
    if value is None:
        return ""
    return f"{value:.6g}"


def _write_csv(path: Path, header: str, rows: list[list]) -> None:
    lines = [header]
    for row in rows:
        lines.append(",".join(_fmt(v) if not isinstance(v, str) else v for v in row))
    path.write_text("\n".join(lines) + "\n")


def _dataset(cfg: ExperimentConfig) -> tuple[CellData, CountTable]:
    """Simulate the config's days: the training arrivals as ``CellData``, the test days' counts."""
    train, test = make_dataset(
        cfg.sim_rate,
        cfg.n_train_days,
        cfg.n_test_days,
        seed=cfg.seed,
        mode=cfg.sim_mode,
        count_range=(cfg.count_lo, cfg.count_hi),
    )
    data = CellData.from_events(train, cfg.resolution, cfg.fit_config())
    return data, CountTable.from_events(test, cfg.resolution)


def _require_days(cfg: ExperimentConfig) -> None:
    """Refuse a run with no training or no test days before anything is simulated."""
    for name in ("n_train_days", "n_test_days"):
        if getattr(cfg, name) < 1:
            raise ValueError(f"{name} must be at least 1 for this experiment, got {getattr(cfg, name)!r}")


def run_experiment_1(cfg: ExperimentConfig) -> Path:
    """Bin-budget sweep: floor-bounded division across the eta grid.

    Emits one `eta,bins,rmse_train,rmse_test` row per eta (minutes), on one
    shared dataset per seed.
    """
    _require_days(cfg)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    data, test_table = _dataset(cfg)  # every eta reuses the fits of the ones before
    rows = []
    for eta_minutes in cfg.eta_sweep_minutes:
        search = cfg.search_config(eta_seconds=eta_minutes * 60.0)
        report = learn(data, test_table, method="relaxed", config=search)
        rows.append([f"{eta_minutes:.6g}", report.n_bins, report.rmse_train, report.rmse_test])
    path = out_dir / "exp1.csv"
    _write_csv(path, EXP1_HEADER, rows)
    return path


def run_experiment_2(cfg: ExperimentConfig) -> Path:
    """Method comparison: unbinned, constraint-based, penalty-based.

    Adaptive methods are paired with the equal-length baseline at the same
    bin count; the improvement column is (test_eq - test) * 100 / test_eq.
    """
    _require_days(cfg)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # one memo for all three calls: the ivanov and tikhonov restarts draw from
    # the same seed streams, so tikhonov finds many of its intervals fitted
    data, test_table = _dataset(cfg)
    train_table = data.table
    rows = []

    unbinned = learn(data, test_table, method="equal:1", config=cfg.search_config())
    rows.append([cfg.instance, "unbinned", unbinned.rmse_train, unbinned.rmse_test,
                 unbinned.n_bins, None, None, None])

    for label, method in (("dbm_ivanov", "ivanov"), ("dbm_tikhonov", "tikhonov")):
        report = learn(data, test_table, method=method, config=cfg.search_config())
        # the search may leave more bins than cells, which learn's equal:N
        # rejects, so the baseline is fitted here
        equal, _, _ = fit_partition(data, equal_partition(train_table.window, report.n_bins))
        equal_train, equal_test = evaluate(equal, train_table), evaluate(equal, test_table)
        improvement = (equal_test - report.rmse_test) * 100.0 / equal_test if equal_test else None
        rows.append([
            cfg.instance, label, report.rmse_train, report.rmse_test, report.n_bins,
            equal_train, equal_test, improvement,
        ])
    path = out_dir / "exp2.csv"
    _write_csv(path, EXP2_HEADER, rows)
    return path


def make_synthetic_geo(
    seed: int = 0,
    n_days: int = 6,
    k_centers: int = 20,
    count_range: tuple[int, int] = (600, 800),
    center_box: tuple[float, float, float, float] = (-122.52, -122.36, 37.70, 37.82),
    spread: float = 0.004,
    rate: PiecewiseLinearRate | None = None,
    mode: str = "conditioned",
) -> GeoEventSeries:
    """City-like synthetic data: ``make_dataset``'s days of ``rate`` (default ``af_rate()``) around k hotspots."""
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 3, 0)))
    lon0, lon1, lat0, lat1 = center_box
    centers = np.column_stack((
        rng.uniform(lon0, lon1, k_centers),
        rng.uniform(lat0, lat1, k_centers),
    ))
    weights = rng.dirichlet(np.full(k_centers, 2.0))
    rate = af_rate() if rate is None else rate
    train, _ = make_dataset(rate, n_days, 0, seed=seed, mode=mode, count_range=count_range)
    day_col, sec_col, lon_col, lat_col = [], [], [], []
    for d, times in enumerate(train.days):
        n = times.size
        hot = rng.choice(k_centers, size=n, p=weights)
        day_col.append(np.full(n, d))
        sec_col.append(times)
        lon_col.append(centers[hot, 0] + rng.normal(0.0, spread, n))
        lat_col.append(centers[hot, 1] + rng.normal(0.0, spread, n))
    return GeoEventSeries(
        day=np.concatenate(day_col),
        seconds=np.concatenate(sec_col),
        lon=np.concatenate(lon_col),
        lat=np.concatenate(lat_col),
    )


def run_experiment_3(cfg: ExperimentConfig, geo: GeoEventSeries | None = None) -> Path:
    """Clustered per-area learning: K areas, one model file per area, plus an index.

    The last ``n_test_days`` days are held out; data with no more days than
    that is refused before anything is clustered or written.
    """
    if geo is None:
        if cfg.geo_path is None:
            raise ValueError("experiment 3 needs a geo event file (geo_path) or an in-memory dataset")
        from .dataio import load_geo_events

        geo = load_geo_events(cfg.geo_path)
    all_days = geo.day_ids()
    n_train = all_days.size - cfg.n_test_days
    if cfg.n_test_days > 0 and n_train < 1:
        raise ValueError(
            f"n_test_days={cfg.n_test_days} leaves none of the data's days to train on (it has {all_days.size})"
        )
    train_ids, test_ids = all_days[:n_train], all_days[n_train:]
    fit = learn_per_area(
        geo,
        cfg.clusters,
        method="ivanov",
        fit_config=cfg.fit_config(),
        config=cfg.search_config(),
        resolution=cfg.resolution,
        train_days=train_ids,
        test_days=test_ids if test_ids.size else None,
    )
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    model_paths = []
    rows = []
    for a, report in enumerate(fit.reports):
        model_path = out_dir / f"area_{a:02d}.json"
        save_model(report.model, model_path)
        model_paths.append(model_path.name)
        rows.append([f"{a}", fit.events_per_area[a], report.n_bins, report.rmse_train, report.rmse_test])
    index = {
        "clusters": cfg.clusters,
        "centroids": [[float(v) for v in row] for row in fit.clustering.centroids],
        "events_per_area": list(fit.events_per_area),
        "models": model_paths,
        "train_days": list(fit.day_ids_train),
        "test_days": list(fit.day_ids_test),
        "seed": cfg.seed,
    }
    (out_dir / "index.json").write_text(json.dumps(index, indent=2) + "\n")
    summary = out_dir / "exp3_summary.csv"
    _write_csv(summary, EXP3_HEADER, rows)
    return summary
