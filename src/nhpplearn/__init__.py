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
    generalization_bound,
    penalized_risk,
    vc_bound_xi,
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
    save_geo_events,
    save_model,
)
from .regression import CellData, FitConfig, evaluate, fit_bin, fit_partition
from .simulate import (
    PiecewiseLinearRate,
    af_rate,
    make_dataset,
    simulate_conditioned,
    simulate_thinning,
)
from .spatial import GeoEventSeries, kmeans, learn_per_area
from .stat_tests import (
    TestOutcome,
    ks_critical,
    ks_statistic,
    log_test,
    poisson_test_days,
    uniform_ks_test,
)

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
    "TestOutcome",
    "TimeWindow",
    "af_rate",
    "binned_risk",
    "divide",
    "equal_partition",
    "evaluate",
    "fit_bin",
    "fit_partition",
    "generalization_bound",
    "kmeans",
    "learn",
    "learn_per_area",
    "load_events",
    "load_geo_events",
    "load_model",
    "log_test",
    "make_dataset",
    "penalized_risk",
    "save_events",
    "save_geo_events",
    "save_model",
    "poisson_test_days",
    "simulate_conditioned",
    "simulate_thinning",
    "uniform_ks_test",
    "vc_bound_xi",
    "ks_critical",
    "ks_statistic",
    "__version__",
]
