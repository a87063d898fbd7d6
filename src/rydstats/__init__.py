"""Photon-number statistics of heralded light in a partially blockaded medium.

A library plus CLI that propagates truncated photon-number distributions
through loss/filter/blockade transfer matrices, models a heralded photon
source with realistic detection noise, computes the hard-sphere blockade
exactly or by Monte Carlo, and estimates noise-corrected correlation
functions from time-tagged detector clicks.
"""

from .blockade import (
    BlockadeConfig,
    blockade_matrix,
    exact_matrix,
    exact_pair_survival,
)
from .clicks import (
    ClickStream,
    TrialCounts,
    TrialData,
    WindowSpec,
    analysis_report,
    bootstrap_error,
    count_trials,
    g2_noise_corrected,
    g2_raw,
    synthesize,
)
from .errors import NumericalError, RydstatsError, ValidationError
from .fock import DEFAULT_N_MAX, FockDistribution, coherent, fock_state
from .pipeline import (
    PipelineConfig,
    SweepResult,
    cloud_input_distribution,
    efficiency,
    g2_after_storage,
    medium_matrix,
    post_blockade_distribution,
    source_distribution,
    sweep,
    zeta_to_param,
)
from .ratemodel import (
    EfficiencyTable,
    RateModelParams,
    fit_p_eg,
    predict_cross_correlation,
    predict_probabilities,
    with_storage,
)
from .source import (
    SourceModel,
    conditional_read_state,
    infer_p_from_g2,
)
from .transfer import (
    TransferMatrix,
    loss_matrix,
    perfect_filter_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "BlockadeConfig",
    "ClickStream",
    "DEFAULT_N_MAX",
    "EfficiencyTable",
    "FockDistribution",
    "NumericalError",
    "PipelineConfig",
    "RateModelParams",
    "RydstatsError",
    "SourceModel",
    "SweepResult",
    "TransferMatrix",
    "TrialCounts",
    "TrialData",
    "ValidationError",
    "WindowSpec",
    "analysis_report",
    "blockade_matrix",
    "bootstrap_error",
    "cloud_input_distribution",
    "coherent",
    "conditional_read_state",
    "count_trials",
    "efficiency",
    "exact_matrix",
    "exact_pair_survival",
    "fit_p_eg",
    "fock_state",
    "g2_after_storage",
    "g2_noise_corrected",
    "g2_raw",
    "infer_p_from_g2",
    "loss_matrix",
    "medium_matrix",
    "perfect_filter_matrix",
    "post_blockade_distribution",
    "predict_cross_correlation",
    "predict_probabilities",
    "source_distribution",
    "sweep",
    "synthesize",
    "with_storage",
    "zeta_to_param",
]
