"""Hidden-factor filtering, calibration and forecasting for credit-rating
migration data.

The package models aggregated rating migrations as counting processes whose
intensities are modulated by an unobserved finite-state Markov chain.  It
provides simulation of regime-switching migration data, causal filters that
infer the hidden state from migration counts (a discrete-time multinomial
version and a continuous-time version over dated events), an adapted
Baum-Welch calibration for both, and transition-probability forecasting
with evaluation utilities.
"""

from .calibrate import (
    BackwardResult,
    CalibrationResult,
    EmConfig,
    ForwardResult,
    backward_pass,
    em_fit,
    em_fit_continuous,
    forward_pass,
    m_step,
    posteriors,
)
from .continuous import (
    SpreadConfig,
    run_continuous_filter,
    spread_jumps,
    stream_to_panel,
)
from .errors import (
    DataError,
    ImpossibleObservationError,
    MigfilterError,
    ModelError,
    NumericalError,
)
from .filtering import (
    FilterTrajectory,
    run_filter,
)
from .model import (
    EventStream,
    FilterState,
    HiddenFactorSpec,
    MigrationLaw,
    MigrationPanel,
    Mode,
    generator_to_transition,
    model_from_json,
    model_to_json,
    predict_transition_probs,
    risk_scores,
    sort_states_by_risk,
    transition_to_generator,
    validate_model,
)
from .panel_io import (
    EvaluationReport,
    RatingPaths,
    build_panel,
    evaluate_predictions,
    ingest_ratings,
    r_squared,
    realized_ratios,
    rolling_backtest,
)
from .simulate import (
    PiecewisePath,
    SimulationConfig,
    demo_model,
    simulate_events_continuous,
    simulate_hidden_path,
    simulate_panel_discrete,
)

__version__ = "0.1.0"

__all__ = [
    "BackwardResult", "CalibrationResult", "DataError", "EmConfig", "EvaluationReport",
    "EventStream", "FilterState", "FilterTrajectory", "ForwardResult", "HiddenFactorSpec",
    "ImpossibleObservationError", "MigfilterError", "MigrationLaw", "MigrationPanel", "Mode",
    "ModelError", "NumericalError", "PiecewisePath", "RatingPaths", "SimulationConfig",
    "SpreadConfig", "backward_pass", "build_panel", "demo_model", "em_fit", "em_fit_continuous",
    "evaluate_predictions", "forward_pass", "generator_to_transition", "ingest_ratings", "m_step",
    "model_from_json", "model_to_json", "posteriors", "predict_transition_probs", "r_squared",
    "realized_ratios", "risk_scores", "rolling_backtest", "run_continuous_filter", "run_filter",
    "simulate_events_continuous", "simulate_hidden_path", "simulate_panel_discrete",
    "sort_states_by_risk", "spread_jumps", "stream_to_panel", "transition_to_generator",
    "validate_model",
]
