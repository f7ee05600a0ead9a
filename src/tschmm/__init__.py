"""Joint human-robot trajectory learning with Gaussian-emission HMMs.

The package trains a hidden Markov model over concatenated human and robot
features, detects transition states where human-only and joint segmentations
disagree, layers a second HMM over those transitions, and conditionally
predicts robot motion from observed human motion by Gaussian mixture
regression.
"""

from .data import (
    Dataset,
    Demonstration,
    DimensionSplit,
    FeatureSequence,
    SYNTH_KINDS,
    build_features,
    load_csv,
    sample_batch,
    save_csv,
    standard_split,
    synth_generate,
)
from .evaluation import (
    ExperimentConfig,
    ExperimentReport,
    InteractionResult,
    mse,
    render_csv,
    render_table,
    run_experiment,
    run_single,
)
from .gaussian import GaussianState, log_density, marginalize
from .hmm import (
    ForwardResult,
    HmmModel,
    TrainingError,
    baum_welch,
    forward,
    gmr_predict,
    init_temporal_bins,
    viterbi_labels,
)
from .model_io import FORMAT_VERSION, load_model, save_model
from .tsc import TscModel, detect_transition_states, dilate_mask

__version__ = "0.1.0"
