"""Linear multimodal contrastive learning: truncated-SVD solvers for
contrastive cross-covariance matrices, semi-supervised learning from
unpaired pools, and spectral cleaning of noisy pair sets."""

__version__ = "0.1.0"

from .errors import (
    ConfigurationError,
    DegenerateData,
    DivideByZero,
    InvalidInput,
    InvalidK,
    InvalidProbability,
    InvalidRank,
    MmclError,
    NonFinite,
    NumericalError,
)
from .linalg import Subspace, SvdResult, effective_rank, right_singular_subspace, sin_theta, svd
from .datagen import (
    LabeledBipartite,
    ModelParams,
    PairedDataset,
    random_model,
    sample_labeled_bipartite,
    sample_paired,
    sample_unpaired,
)
from .losses import (
    EncoderPair,
    LossSpec,
    PoolSimilarity,
    contrastive_cross_covariance,
    loss_gradient,
    loss_value,
    schedule_tau,
    similarity_matrix,
    unpaired_weights,
)
from .solvers import (
    EdgeEstimate,
    FitResult,
    estimate_edges,
    fit_approx_infonce,
    fit_gradient_descent,
    fit_linear_closed_form,
    fit_semisupervised,
    fit_sscl_baseline,
)
from .bsgmp import BipartiteGraph, Partition, kmeans, normalized_adjacency, partition, spectral_embed
from .harness import (
    ExperimentConfig,
    MetricRow,
    downstream_accuracy,
    edge_metrics,
    run_experiment,
    sample_partners,
    theory_bound,
)
