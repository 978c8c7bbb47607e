"""Desk-scale simulator for robust HAP downlink hybrid beamforming under
attitude shaking: attitude forecasting, conformal calibration of pointing
bounds, delay-aware analog steering, per-slot QoS-driven digital solves
with admission control, and a Monte Carlo harness."""

from .array_model import (
    AngleBox,
    ArrayConfig,
    analog_beamformer_at,
    certify_users,
    detune_q_matrix,
    detuning,
    exact_gain_loss,
    gain_loss_quadratic,
    jacobian,
    spectral_bound_l2,
    steering_vector,
    taper_constants,
)
from .calibration import (
    CalibrationReport,
    calibrate,
    conformal_radius,
    coverage_check,
    target_window_max,
    window_residuals,
)
from .channel import (
    ChannelParams,
    effective_channel,
    fspl_gain,
    sinr_and_rates,
    synthesize_channel,
)
from .errors import (
    AmbiguousAxisError,
    ConfigError,
    DataError,
    DegenerateAttitudeError,
    HapbeamError,
    InvariantError,
    OutOfModelError,
    ParseError,
    UncoveredSlotError,
    exit_code_for,
)
from .forecast import (
    AttitudeSeries,
    DirectForecaster,
    ForecastErrorReport,
    ForecastOutput,
    ForecastRequest,
    fit_direct,
    forecast_ar,
    forecast_errors,
    forecast_linear_trend,
    forecast_persistence,
)
from .geometry import (
    EulerZYX,
    WorldGeometry,
    euler_to_rotation,
    los_to_body_angles,
    rotation_exp,
    rotation_log_vee,
    rotation_to_euler,
    wrap_pi,
)
from .harness import (
    RunResult,
    ScenarioConfig,
    generate_attitude_series,
    place_users,
    run_experiment,
    sweep,
)
from .io import (
    emit_results,
    load_config_json,
    load_forecast_csv,
    load_telemetry_csv,
    save_calibration_report,
    save_forecast_csv,
    save_telemetry_csv,
    write_snapshots_csv,
)
from .solver import (
    BeamSolution,
    SnapshotProblem,
    SolverScalars,
    kkt_decompose,
    kkt_reconstruct,
    power_dual_bisection,
    predict_admission_and_scalars,
    project_power,
    refine_qos_safe,
    required_power_proxy,
    solve_snapshot,
    strict_repair,
    transmit_power,
)

__version__ = "0.1.0"
