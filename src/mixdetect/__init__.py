"""Two-sample sparse heterogeneous mixture detection toolkit.

Generalized Gaussian mixture models, five detection tests (two-sample
higher criticism, Wilcoxon, one-sided Kolmogorov-Smirnov, tail run, oracle
likelihood ratio), Monte Carlo calibration, closed-form detection
boundaries, and a reproducible power-curve experiment harness.
"""

from .calibration import (
    NullTable,
    PValue,
    ks_pvalue,
    load_null_table,
    mc_null_table,
    mc_pvalue,
    save_null_table,
    tailrun_null_pmf,
    tailrun_pvalue,
    wilcoxon_alt_moments,
    wilcoxon_exact_null,
    wilcoxon_pvalue,
)
from .distributions import (
    DenseParam,
    GGParams,
    MixtureAlt,
    SparseParam,
    dense_calibration,
    gg_cdf,
    gg_pdf,
    gg_quantile,
    gg_sample,
    gg_survival,
    mixture_sample,
    sparse_calibration,
)
from .experiments import (
    PowerCurve,
    PowerPoint,
    ScenarioConfig,
    figure_config,
    run_null_level,
    run_power_grid,
)
from .statistics import (
    ALL_STATISTICS,
    HC,
    KS,
    LRT,
    TAILRUN,
    WILCOXON,
    StatValue,
    TiesError,
    TwoSample,
    dejitter,
    hc_stat,
    hc_stat_sup_form,
    ks_one_sided,
    lrt_stat,
    lrt_stats,
    tail_run,
    wilcoxon_u,
)
from .theory import (
    BoundaryQuery,
    ConditionReport,
    TailRunCheck,
    detection_boundary_dense,
    detection_boundary_sparse,
    hc_conditions,
    ks_condition,
    lower_bound_integral,
    tailrun_condition,
    wilcoxon_condition,
)

__version__ = "0.1.0"
