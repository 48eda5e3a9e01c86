"""Multivariate time series kernels that tolerate missing data (TCK, LPS),
imputation-dependent baselines (linear, GAK), and a fully unsupervised
clustering pipeline with a repeated-split F1 evaluation protocol."""

from .cohort import (
    Cohort,
    Missingness,
    MissingnessSpec,
    MTSample,
    apply_missingness,
    generate_synthetic_cohort,
    load_cohort,
    train_test_split,
    truncate_window,
    write_cohort,
)
from .cluster import (
    ClusterAssignment,
    Embedding,
    KPCAModel,
    kmeans,
    knn_assign,
    kpca_fit,
    kpca_project,
    manual_features,
)
from .evaluate import (
    ExperimentConfig,
    ExperimentReport,
    MethodSpec,
    clustering_f1,
    f1,
    full_method_grid,
    run_experiment,
)
from .impute import ImputationMethod, ImputationSpec, fit_imputer, impute
from .kernels import (
    GAKParams,
    KernelMatrix,
    fit_gak_params,
    gak_gram,
    gram_matrix,
    load_matrix,
    save_matrix,
)
from .lps import (
    LPSForest,
    LPSTree,
    load_lps_forest,
    lps_gram,
    lps_represent,
    lps_train,
    save_lps_forest,
)
from .tck import (
    TCKMember,
    TCKModel,
    load_tck_model,
    save_tck_model,
    tck_test,
    tck_train,
)

__version__ = "0.1.0"
