"""Rate-function learning for nonhomogeneous Poisson processes.

Estimates time-of-day rate profiles from repeated daily event streams by
searching for a data-driven partition of the day and fitting per-bin
polynomials, with homogeneity-test or penalty based regularization of the
bin structure.
"""

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
from .binning import (
    SearchConfig,
    SearchTrace,
    divide,
    equal_partition,
    learn,
)
from .dataio import (
    load_events,
    load_geo_events,
    load_model,
    save_events,
    save_model,
)
from .regression import CellData, FitConfig, evaluate, fit_partition
from .simulate import (
    PiecewiseLinearRate,
    af_rate,
    make_dataset,
    simulate_conditioned,
    simulate_thinning,
)
from .spatial import GeoEventSeries, kmeans, learn_per_area
from .stat_tests import ks_critical, poisson_test_days

__version__ = "0.1.0"

__all__ = [
    "CellData",
    "CountTable",
    "EventSeries",
    "FitConfig",
    "FitReport",
    "GeoEventSeries",
    "Partition",
    "PiecewiseLinearRate",
    "RateModel",
    "SearchConfig",
    "SearchTrace",
    "TimeWindow",
    "af_rate",
    "binned_risk",
    "divide",
    "equal_partition",
    "evaluate",
    "fit_partition",
    "kmeans",
    "learn",
    "learn_per_area",
    "load_events",
    "load_geo_events",
    "load_model",
    "make_dataset",
    "penalized_risk",
    "save_events",
    "save_model",
    "poisson_test_days",
    "simulate_conditioned",
    "simulate_thinning",
    "ks_critical",
    "__version__",
]
