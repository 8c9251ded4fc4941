"""Submodular information measures as batch active-learning acquisition
functions, with greedy maximizers and a synthetic simulation harness."""

from .functions import (
    ALL_KINDS,
    GroundTruthOracle,
    InfoFunction,
    NumericalError,
    SelectionState,
    evaluate,
    from_joint,
    new_state,
)
from .greedy import (
    GreedyConfig,
    SelectionResult,
    exhaustive_opt,
    greedy_select,
    partitioned_select,
)
from .harness import PenaltyMatrix, RoundRecord, RunConfig, RunResult, penalty_matrix, run_al
from .scenarios import ScenarioSplit, baseline_select, make_blobs, update_ood_sets
from .similarity import EmbeddingMatrix, SimilarityKernel, cosine_kernel
from .surrogate import (
    SurrogateModel,
    TrainConfig,
    gradient_embeddings,
    hypothesized_labels,
    predict_proba,
    train,
    uncertainty,
)

__version__ = "0.1.0"
