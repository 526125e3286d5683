"""Complex-weighted flexible-transmitter networks and their exact embeddings.

The package provides the complex activation catalog, forward evaluators
for every model family, the constructive embeddings between them, well-posed
regression losses, and gradient machinery including the positive-loss
descent probe.
"""

from .activations import (
    CRELU,
    HOLEXPM1,
    HOLSIN,
    IDENTITY,
    IMAG_ARG_REAL_BIAS,
    REAL_ARG_IMAG_BIAS,
    RELU,
    ZRELU,
    ActivationKind,
    apply,
    induced_imag,
    induced_real,
    modrelu,
    subgradient,
)
from .constructions import (
    EmbeddingReport,
    ReadoutStage,
    StateStage,
    additive_to_rftnet,
    assemble_dods_additive,
    crnet_to_fftnet,
    crnet_to_rftnet,
    dods_stage_trajectories,
    fnn_to_fftnet,
    pad_row_independent,
    rnn_timepoint_to_fnn,
    rnn_to_rftnet,
)
from .errors import ContractViolationError, DegenerateInputError
from .losses import (
    Dataset,
    LossSpec,
    check_well_posed,
    empirical_loss,
    loss_deriv,
    loss_value,
    param_cosh_loss,
    squared_loss,
)
from .models import (
    AdditiveFTNetParams,
    CRNetParams,
    DODSSpec,
    FFTNetParams,
    FNNParams,
    RFTNetParams,
    RNNParams,
    dods_input_passthrough,
    dods_linear,
    dods_tanh_saturating,
    eval_additive,
    eval_crnet,
    eval_dods,
    eval_fftnet,
    eval_fnn,
    eval_rftnet,
    eval_rnn,
    kappa,
    load_model,
    param_count,
    save_model,
)
from .numerics import null_vector_against
from .optimize import (
    GradientBundle,
    ProbeResult,
    SequenceDataset,
    TrainConfig,
    descent_probe,
    finite_diff_grad,
    grad_fftnet,
    grad_rftnet,
    holomorphic_bidirectional_search,
    train_fftnet,
    train_rftnet,
)

__version__ = "0.1.0"
