"""Desk-scale digital twin for distribution system state estimation.

Simulate an unbalanced radial feeder, synthesize noisy multi-sensor
telemetry with randomly missing entries, and estimate nodal voltage phasors
two ways: a classical weighted-least-squares solver and a two-branch
attention model with cross-interaction gating that stays usable when
measurements drop out.
"""

from .errors import (
    ConfigError,
    CycleDetected,
    DisconnectedBus,
    DuplicateId,
    FeederError,
    GridTwinError,
    HeaderMismatch,
    InvalidAlpha,
    InvalidLoad,
    LengthMismatch,
    MissingGradient,
    NoConvergence,
    NonFiniteLoss,
    NonFiniteValue,
    NotScalarLoss,
    RaggedRows,
    RankDeficient,
    ShapeMismatch,
    SingularImpedance,
    UnknownChannelTarget,
    UnparseableNumber,
)
from .feeder import (
    Bus,
    FeederModel,
    Line,
    LoadScenario,
    LoadSeries,
    VoltageSolution,
    admittance_matrix,
    build_feeder,
    fixture_path,
    flat_state,
    flat_voltages,
    load_fixture,
    solve_power_flow,
    state_to_voltages,
    voltages_to_state,
)
from .telemetry import (
    Channel,
    Dataset,
    MeasurementSchema,
    add_noise,
    build_dataset,
    default_schema,
    draw_mask,
    export_csv,
    import_csv,
    measure,
)
from .wls import (
    StateEstimate,
    WlsProblem,
    drop_missing,
    estimate_wls,
    h_eval,
    jacobian,
    jacobian_fd,
)
from .autodiff import Parameter, Tape, Tensor, grad_check, sgd_step
from .model import (
    ConcatBaselineModel,
    DtModel,
    ModelConfig,
    Window,
    cross_gate,
    gqa_attention,
    mha_attention,
    mse_loss,
    predict_series,
    project_branch,
    train,
    train_concat_baseline,
)
from .metrics import compute_metrics, states_to_polar, wrap_angle
from .bench import ExperimentConfig, daily_load_profiles, emit_report, run_sweep

__version__ = "0.1.0"
