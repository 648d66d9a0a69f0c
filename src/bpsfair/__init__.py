"""Bias-parity-score fairness regularization for small feed-forward classifiers."""

from .data import (
    DatasetSchema,
    EncodedDataset,
    EncoderState,
    RawTable,
    SplitPlan,
    adult_preset,
    apply_encoder,
    fit_encoder,
    load_csv,
    mc_splits,
    synthesize_biased,
    synthetic_preset,
)
from .engine import (
    CellKey,
    GridResult,
    GridSpec,
    RunResult,
    TrainConfig,
    evaluate,
    run_grid,
    train_model,
)
from .errors import (
    BpsfairError,
    ConfigError,
    DataError,
    DivergenceError,
    EmptyInputError,
    FormatError,
    InputShapeError,
    NonFiniteOutputError,
    SchemaError,
    StateError,
    UndefinedMeasureError,
)
from .losses import (
    DenominatorMode,
    FairnessTerm,
    LossValue,
    SoftVariant,
    combined_loss,
    parse_term,
    soft_bps,
    soft_measure,
)
from .metrics import (
    BpsEntry,
    BpsReport,
    GroupConfusion,
    MeasureKind,
    bps_binary,
    bps_multiclass,
    bps_report,
    confusion,
    evaluate_prediction_dump,
    hard_measure,
)
from .network import (
    AdamState,
    NetworkConfig,
    NetworkState,
    adam_step,
    backward,
    forward,
    init,
    init_adam,
    load_model,
    save_model,
)

__version__ = "0.1.0"
