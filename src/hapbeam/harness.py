"""Scenario orchestration for the downlink simulator.

Generates a synthetic platform-attitude process, places ground users,
calibrates the pointing-residual bound of the compensation mode's attitude
estimate on a validation split, then walks test-slot snapshots: steer the
analog stage by that estimate, synthesize the true-attitude channel, solve
the per-slot digital problem, and aggregate.  Channel draws use per-snapshot
RNG substreams of (master seed, snapshot index).  Rotations, certificates and
pointing errors are one array pass over all snapshots, the analog, channel
and Gram stages one per BLOCK snapshots, and the solver runs per snapshot.
"""

import copy
import itertools
import math
import numbers
import sys
import time
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import partial

import numpy as np

from .array_model import (
    AngleBox,
    ArrayConfig,
    analog_beamformer_at,
    certify_users,
    spectral_bound_l2,
)
from .calibration import CalibrationReport, calibrate
from .channel import ChannelParams, effective_channel, fspl_gain, synthesize_channel
from .errors import ConfigError, HapbeamError, InvariantError, UncoveredSlotError
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
    rotation_log_vee,
)
from .io import load_forecast_csv
from .solver import ADMISSION_PRIORITIES, OBJECTIVES, SnapshotProblem, solve_snapshot

CHANNEL_PRESETS = {
    "rician-strong": 10.0,
    "rician-weak": 1.0,
    "pure-los": math.inf,
}
USER_LAYOUTS = ("uniform", "clustered", "edge-biased")
COMPENSATION_MODES = ("none", "reactive", "forecast", "ideal")
LOCAL_FORECASTERS = ("persistence", "linear", "ar")
# direct is fitted once per run on the training split, external is replayed
FORECASTER_KINDS = LOCAL_FORECASTERS + ("direct", "external")

TRAIN_FRAC = 0.7
VAL_FRAC = 0.1
BLOCK = 8  # snapshots per (S, M, K) stage pass: a run-long stack costs tens of MiB


def _check_keys(section: dict, allowed, where: str) -> None:
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")


def _is_finite(value) -> bool:
    """A real number (not a bool) that a float holds: False for NaN, +-inf
    and an int beyond the float range, which compares finite but does not
    convert."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    return real and abs(value) <= sys.float_info.max  # False for NaN


def _check_types(spec, where: str) -> None:
    """Raise ConfigError naming the first int, float or str field of `spec`
    whose value has another type (a float field must also be finite); an
    int field takes any integral number and stores it as an int."""
    for f in fields(spec):
        value = getattr(spec, f.name)
        name = f"{where}.{f.name}" if where else f.name
        if f.type is int:
            integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
            if not (integral or _is_finite(value) and float(value).is_integer()):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(spec, f.name, int(value))
        elif f.type is float and not _is_finite(value):
            raise ConfigError(f"{name} must be a finite number, got {value!r}")
        elif f.type is str and not isinstance(value, str):
            raise ConfigError(f"{name} must be a string, got {value!r}")


# The specs check their fields in __post_init__, so a config built in code,
# with dataclasses.replace or from a mapping is checked the same way.


@dataclass(frozen=True)
class ArraySpec:
    m_x: int = 12
    m_y: int = 12
    spacing_x_wl: float = 0.5  # element pitch in carrier wavelengths
    spacing_y_wl: float = 0.5
    wavelength_m: float = 0.01

    def __post_init__(self):
        _check_types(self, "array")
        if self.m_x < 1 or self.m_y < 1:
            raise ConfigError(f"array.m_x and m_y must be >= 1, got {self.m_x}x{self.m_y}")
        if not (self.spacing_x_wl > 0 and self.spacing_y_wl > 0):
            raise ConfigError("array spacings must be positive")
        if not self.wavelength_m > 0:
            raise ConfigError("array.wavelength_m must be positive")

    def build(self, n_rf: int) -> ArrayConfig:
        return ArrayConfig(
            m_x=self.m_x,
            m_y=self.m_y,
            d_x=self.spacing_x_wl * self.wavelength_m,
            d_y=self.spacing_y_wl * self.wavelength_m,
            wavelength=self.wavelength_m,
            n_rf=n_rf,
        )


@dataclass(frozen=True)
class PlatformSpec:
    altitude_m: float = 20e3
    x_m: float = 0.0
    y_m: float = 0.0
    mounting_deg: tuple = (0.0, 0.0, 0.0)  # yaw, pitch, roll offset

    def __post_init__(self):
        _check_types(self, "hap")
        m = self.mounting_deg
        if not isinstance(m, (list, tuple)) or len(m) != 3 or not all(map(_is_finite, m)):
            raise ConfigError("hap.mounting_deg must be [yaw, pitch, roll] in finite degrees")
        object.__setattr__(self, "mounting_deg", tuple(float(v) for v in m))
        if not self.altitude_m > 0:
            raise ConfigError(f"hap.altitude_m must be positive, got {self.altitude_m}")

    @property
    def position(self) -> np.ndarray:
        return np.array([self.x_m, self.y_m, self.altitude_m])

    @property
    def mounting(self) -> np.ndarray:
        return euler_to_rotation(EulerZYX(*np.deg2rad(self.mounting_deg)))


@dataclass(frozen=True)
class UserSpec:
    count: int = 10
    layout: str = "uniform"
    disc_radius_m: float = 20e3

    def __post_init__(self):
        _check_types(self, "users")
        if self.layout not in USER_LAYOUTS:
            raise ConfigError(
                f"users.layout must be one of {USER_LAYOUTS}, got {self.layout!r}"
            )
        if self.count < 1:
            raise ConfigError("users.count must be >= 1")
        if not self.disc_radius_m > 0:
            raise ConfigError("users.disc_radius_m must be positive")


@dataclass(frozen=True)
class ChannelSpec:
    preset: str = "rician-strong"
    noise_power_w: float = 1e-13
    bandwidth_hz: float = 1.0

    def __post_init__(self):
        _check_types(self, "channel")
        if self.preset not in CHANNEL_PRESETS:
            raise ConfigError(
                f"channel.preset must be one of {tuple(CHANNEL_PRESETS)}, "
                f"got {self.preset!r}"
            )
        if not (self.noise_power_w > 0 and self.bandwidth_hz > 0):
            raise ConfigError("channel.noise_power_w and bandwidth_hz must be positive")


@dataclass(frozen=True)
class QosSpec:
    r_min: float = 1.6  # per-user rate floor, bit/s per hertz of bandwidth
    p_max_w: float = 10.0
    circuit_power_w: float = 1.0

    def __post_init__(self):
        _check_types(self, "qos")
        if not self.p_max_w > 0:
            raise ConfigError(f"qos.p_max_w must be positive, got {self.p_max_w}")
        if not (self.r_min >= 0 and self.circuit_power_w >= 0):
            raise ConfigError("qos.r_min and circuit_power_w must be >= 0")


@dataclass(frozen=True)
class HorizonSpec:
    dt_s: float = 0.1
    delay: int = 6  # actuation delay, slots
    h_pred: int = 12
    l_win: int = 192

    def __post_init__(self):
        _check_types(self, "horizon")
        if not 0 <= self.delay < self.h_pred:
            raise ConfigError("horizon must satisfy 0 <= delay < h_pred")
        if not self.dt_s > 0:
            raise ConfigError(f"horizon.dt_s must be positive, got {self.dt_s}")
        if self.l_win < 2:
            raise ConfigError(f"horizon.l_win must be >= 2, got {self.l_win}")


@dataclass(frozen=True)
class ForecastSpec:
    kind: str = "direct"
    order: int = 48  # AR order, or lags per channel for the direct kind
    path: str = ""  # external replay CSV

    def __post_init__(self):
        _check_types(self, "forecaster")
        if self.kind not in FORECASTER_KINDS:
            raise ConfigError(
                f"forecaster.kind must be one of {FORECASTER_KINDS}, got {self.kind!r}"
            )
        if self.kind == "external" and not self.path:
            raise ConfigError("forecaster.path required for the external kind")
        if self.order < 1:
            raise ConfigError(f"forecaster.order must be >= 1, got {self.order}")


@dataclass(frozen=True)
class AdmissionSpec:
    k_min: int = 8
    priority: str = "qos-difficulty"
    objective: str = "sum-rate"
    n_ref: int = 10

    def __post_init__(self):
        _check_types(self, "admission")
        if self.priority not in ADMISSION_PRIORITIES:
            raise ConfigError(
                f"admission.priority must be one of {ADMISSION_PRIORITIES}, "
                f"got {self.priority!r}"
            )
        if self.objective not in OBJECTIVES:
            raise ConfigError(f"admission.objective must be one of {OBJECTIVES}")
        if self.k_min < 1 or self.n_ref < 0:
            raise ConfigError(
                f"admission needs k_min >= 1 and n_ref >= 0, got {self.k_min}, {self.n_ref}"
            )


@dataclass(frozen=True)
class CalibrationSpec:
    rho: float = 0.1
    epsilon: float = 0.3  # tolerated worst-case beamforming-gain loss

    def __post_init__(self):
        _check_types(self, "calibration")
        if not 0 < self.rho < 1:
            raise ConfigError(f"calibration.rho must lie in (0, 1), got {self.rho}")
        if not self.epsilon > 0:
            raise ConfigError(f"calibration.epsilon must be positive, got {self.epsilon}")


@dataclass(frozen=True)
class SeedSpec:
    attitude: int = 1
    placement: int = 2
    channel: int = 3
    admission: int = 4

    def __post_init__(self):
        _check_types(self, "seeds")
        for f in fields(self):
            seed = getattr(self, f.name)
            if seed < 0:
                raise ConfigError(f"seeds.{f.name} must be >= 0, got {seed}")


@dataclass(frozen=True)
class ScenarioConfig:
    array: ArraySpec = field(default_factory=ArraySpec)
    hap: PlatformSpec = field(default_factory=PlatformSpec)
    users: UserSpec = field(default_factory=UserSpec)
    channel: ChannelSpec = field(default_factory=ChannelSpec)
    qos: QosSpec = field(default_factory=QosSpec)
    horizon: HorizonSpec = field(default_factory=HorizonSpec)
    forecaster: ForecastSpec = field(default_factory=ForecastSpec)
    compensation: str = "forecast"
    admission: AdmissionSpec = field(default_factory=AdmissionSpec)
    calibration: CalibrationSpec = field(default_factory=CalibrationSpec)
    seeds: SeedSpec = field(default_factory=SeedSpec)
    snapshots: int = 200

    def __post_init__(self):
        _check_types(self, "")
        if self.compensation not in COMPENSATION_MODES:
            raise ConfigError(
                f"compensation must be one of {COMPENSATION_MODES}, "
                f"got {self.compensation!r}"
            )
        if self.snapshots < 1:
            raise ConfigError("snapshots must be >= 1")
        # only the forecast mode runs the configured forecaster
        horizon, fc = self.horizon, self.forecaster
        model = {"ar": "AR", "direct": "direct"}.get(fc.kind)
        if self.compensation == "forecast" and model and horizon.l_win < 4 * fc.order:
            raise ConfigError(
                f"horizon.l_win {horizon.l_win} too short for {model} order "
                f"{fc.order}; need l_win >= 4 * order"
            )

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        """Build from a JSON-style mapping; each section is a mapping of
        its spec's fields, and unknown keys are rejected."""
        if not isinstance(raw, dict):
            raise ConfigError("scenario config must be a mapping at top level")
        _check_keys(raw, cls.__dataclass_fields__, "scenario config")
        kwargs = dict(raw)
        for f in fields(cls):
            if f.default_factory is MISSING or f.name not in raw:
                continue
            section = raw[f.name]
            if not isinstance(section, dict):
                raise ConfigError(f"config section {f.name!r} must be a mapping")
            _check_keys(section, f.default_factory.__dataclass_fields__, f.name)
            kwargs[f.name] = f.default_factory(**section)
        return cls(**kwargs)


def generate_attitude_series(seed: int, length: int, dt: float = 0.1) -> AttitudeSeries:
    """Synthetic shaking: per axis, 2 or 3 sinusoids (periods 3 to 30 s,
    amplitudes up to 3 deg pitch/roll and 6 deg yaw) plus stationary AR(1)
    noise with coefficient 0.95 and innovation std 0.05 deg.  Bit-identical
    per seed."""
    if length < 1:
        raise ConfigError(f"series length must be >= 1, got {length}")
    rng = np.random.default_rng(seed)
    t = np.arange(length) * dt
    axes = []
    for cap_deg in (6.0, 3.0, 3.0):  # yaw, pitch, roll
        n_sin = int(rng.integers(2, 4))
        periods = rng.uniform(3.0, 30.0, n_sin)
        amps = np.deg2rad(rng.uniform(0.2, 1.0, n_sin) * cap_deg)
        phases = rng.uniform(0.0, 2.0 * np.pi, n_sin)
        x = np.sum(
            amps[:, None] * np.sin(2.0 * np.pi * t[None, :] / periods[:, None]
                                   + phases[:, None]),
            axis=0,
        )
        coeff, innov_std = 0.95, np.deg2rad(0.05)
        e0 = rng.standard_normal() * innov_std / np.sqrt(1.0 - coeff**2)
        innov = rng.standard_normal(length) * innov_std
        noise = np.empty(length)
        prev = e0
        for n in range(length):
            prev = coeff * prev + innov[n]
            noise[n] = prev
        axes.append(x + noise)
    return AttitudeSeries.build(dt, np.column_stack(axes))


def place_users(layout: str, count: int, radius: float, seed: int) -> np.ndarray:
    """Ground positions (count, 3) with z = 0, all inside the coverage disc.

    uniform: area-uniform.  clustered: two Gaussian clusters with std
    radius/10 at random interior centers, samples re-drawn until inside the
    disc.  edge-biased: radial density proportional to r^3, so the mean
    radius is 4/5 of the disc radius against 2/3 for uniform.
    """
    if count < 1:
        raise ConfigError(f"need count >= 1, got {count}")
    rng = np.random.default_rng(seed)
    if layout == "uniform":
        r = radius * np.sqrt(rng.random(count))
        phi = rng.uniform(0.0, 2.0 * np.pi, count)
    elif layout == "edge-biased":
        r = radius * rng.random(count) ** 0.25
        phi = rng.uniform(0.0, 2.0 * np.pi, count)
    elif layout == "clustered":
        cr = 0.8 * radius * np.sqrt(rng.random(2))
        cphi = rng.uniform(0.0, 2.0 * np.pi, 2)
        centers = np.column_stack([cr * np.cos(cphi), cr * np.sin(cphi)])
        std = radius / 10.0
        pts = np.empty((count, 2))
        for k in range(count):
            c = centers[int(rng.integers(2))]
            while True:
                p = c + rng.standard_normal(2) * std
                if np.hypot(*p) <= radius:
                    pts[k] = p
                    break
        return np.column_stack([pts, np.zeros(count)])
    else:
        raise ConfigError(f"unknown user layout {layout!r}")
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), np.zeros(count)])


def forecaster(kind: str, order: int):
    """Local forecaster of one of the LOCAL_FORECASTERS kinds, as a
    function of (series, request); `order` applies to the AR kind."""
    if kind == "persistence":
        return forecast_persistence
    if kind == "linear":
        return forecast_linear_trend
    if kind == "ar":
        return partial(forecast_ar, order=order)
    raise ConfigError(f"forecaster kind {kind!r} has no local model")


def level_estimate(series: AttitudeSeries, req: ForecastRequest) -> ForecastOutput:
    """The level nominal attitude at every horizon (mode none)."""
    return ForecastOutput(req.origin, np.zeros((req.h_pred, 3)), "level")


def oracle_estimate(series: AttitudeSeries, req: ForecastRequest) -> ForecastOutput:
    """The realized attitude at slots origin+1 .. origin+h_pred (mode ideal)."""
    lo, hi = req.origin + 1, req.origin + req.h_pred + 1
    if lo < 1 or hi > len(series):
        raise UncoveredSlotError(f"truth does not cover slots {lo} .. {hi - 1}")
    return ForecastOutput(req.origin, series.samples[lo:hi], "oracle")


# the estimate each mode steers by; only the forecast mode runs the configured
# forecaster or reads its external replay file
MODE_SOURCES = {
    "none": level_estimate, "reactive": forecast_persistence, "ideal": oracle_estimate,
}


def required_series_length(config: ScenarioConfig) -> int:
    """Shortest series whose 70/10/20 split holds the calibration windows,
    the warmup history, every evaluation snapshot and, for a direct
    forecaster, twice as many training fit rows as the fit has unknowns."""
    hz = config.horizon
    need_test = config.snapshots + hz.delay + hz.h_pred + 2
    need_train = int(np.ceil((hz.l_win + hz.h_pred + 2) / TRAIN_FRAC)) + 10
    need_val = int(np.ceil((hz.h_pred + 6) / VAL_FRAC))
    fc = config.forecaster
    need_fit = 0
    if config.compensation == "forecast" and fc.kind == "direct":
        # two fit rows per unknown; the +1 absorbs the rounding of int(0.7 * n)
        fit_end = 2 * (4 * fc.order + 1) + hz.h_pred + fc.order - 1
        need_fit = int(np.ceil(fit_end / TRAIN_FRAC)) + 1
    return max(int(np.ceil(need_test / (1.0 - TRAIN_FRAC - VAL_FRAC))),
               need_train, need_val, need_fit)


@dataclass(frozen=True)
class RunResult:
    """Per-snapshot table, aggregates, and the calibration evidence."""

    config: ScenarioConfig
    snapshots: dict  # column name -> array
    aggregates: dict  # scalar summary statistics
    calibration: CalibrationReport
    forecast_report: ForecastErrorReport
    eval_slots: np.ndarray


_PCTL_COLUMNS = ("sum_rate", "power", "max_pointing_err_deg")
_MEAN_COLUMNS = ("QAR", "sum_rate", "ee", "power", "feasible", "max_pointing_err_deg")


def _aggregate(columns: dict) -> dict:
    agg = {"n_snapshots": float(len(columns["snapshot"]))}
    for name in _MEAN_COLUMNS:
        agg[f"mean_{name}"] = float(np.mean(columns[name]))
    for name in _PCTL_COLUMNS:
        agg[f"p95_{name}"] = float(np.percentile(columns[name], 95))
        agg[f"p99_{name}"] = float(np.percentile(columns[name], 99))
    return agg


def run_experiment(config: ScenarioConfig) -> RunResult:
    """Full protocol: synthesize, split 70/10/20, calibrate on validation,
    evaluate test snapshots, aggregate."""
    hz = config.horizon
    length = required_series_length(config)
    series = generate_attitude_series(config.seeds.attitude, length, hz.dt_s)
    t_train_end = int(TRAIN_FRAC * length)
    t_val_end = int((TRAIN_FRAC + VAL_FRAC) * length)

    positions = place_users(
        config.users.layout, config.users.count, config.users.disc_radius_m,
        config.seeds.placement,
    )
    geom = WorldGeometry.build(config.hap.position, positions)
    K = config.users.count
    cfg = config.array.build(n_rf=K)
    mounting = config.hap.mounting

    fc = config.forecaster
    if config.compensation in MODE_SOURCES:
        source = MODE_SOURCES[config.compensation]
    elif fc.kind == "direct":
        source = fit_direct(series, t_train_end, fc.order, hz.h_pred)
    elif fc.kind != "external":
        source = forecaster(fc.kind, fc.order)
    else:
        replay = load_forecast_csv(fc.path)  # never empty
        if len(next(iter(replay.values())).angles) < hz.h_pred:
            raise ConfigError("external forecasts are shorter than the configured horizon")

        def source(_series, req):
            if req.origin not in replay:
                raise UncoveredSlotError(f"external replay misses origin {req.origin}")
            out = replay[req.origin]  # scored and applied over h_pred horizons only
            return replace(out, angles=out.angles[: req.h_pred])

    def issue(origins) -> list:
        reqs = [ForecastRequest(int(t), hz.l_win, hz.h_pred, hz.delay) for t in origins]
        if isinstance(source, DirectForecaster):  # one stacked product for all
            return source(series, reqs)
        return [source(series, req) for req in reqs]

    # calibration on the validation split: every origin whose target window
    # closes before the test region begins
    cal_origins = range(t_train_end, t_val_end - hz.h_pred)
    if not cal_origins:
        raise ConfigError("validation split too short to calibrate")
    report = calibrate(series, issue(cal_origins), hz.delay, config.calibration.rho)

    first_slot = t_val_end + hz.delay + 1
    slots = np.arange(first_slot, first_slot + config.snapshots)
    if slots[-1] > length - 1:
        raise InvariantError("evaluation slots overran the synthesized series")
    eval_origins = slots - hz.delay - 1
    if max(cal_origins) >= int(eval_origins[0]):
        raise InvariantError("calibration and evaluation origins overlap")

    forecasts = issue(eval_origins)
    params = ChannelParams.build(
        kappa=CHANNEL_PRESETS[config.channel.preset],
        beta=fspl_gain(cfg.wavelength, geom.distance),
        noise_power=config.channel.noise_power_w,
        bandwidth=config.channel.bandwidth_hz,
        num_users=K,
    )

    # every snapshot at once: (S, 3, 3) beam and truth rotations, (S, K) steering
    # angles, one certificate call over each user's cap of radius delta_omega (the
    # residual angle bounds how far the true line of sight strays), pointing errors
    beam = np.array([out.angles[hz.delay] for out in forecasts])
    R_beam = euler_to_rotation(EulerZYX(*beam.T)) @ mounting
    R_truth = euler_to_rotation(EulerZYX(*series.samples[slots].T)) @ mounting
    theta, phi = los_to_body_angles(geom.los_unit, R_beam)
    l2 = spectral_bound_l2(cfg, AngleBox.around(theta, phi, report.delta_omega))
    certified = certify_users(l2, report.delta_omega, config.calibration.epsilon)
    res = rotation_log_vee(R_beam, R_truth)
    # (1, 3) @ (3, 1) per row: the dot product np.linalg.norm takes of one vector
    err = np.degrees(np.sqrt(res[:, None, :] @ res[:, :, None]))[:, 0, 0]

    q, ch = config.qos, config.channel
    qos = dict(r_min=q.r_min * ch.bandwidth_hz, p_max=q.p_max_w, bandwidth=ch.bandwidth_hz,
               circuit_power=q.circuit_power_w, noise_power=ch.noise_power_w)  # bit/s floor
    rows = []
    for lo in range(0, len(slots), BLOCK):
        A = analog_beamformer_at(cfg, geom, R_beam[lo : lo + BLOCK])
        block = range(lo, lo + len(A))
        rngs = [np.random.default_rng(np.random.SeedSequence([config.seeds.channel, i]))
                for i in block]
        H = synthesize_channel(cfg, geom, R_truth[lo : lo + BLOCK], params, rngs)
        h_eff = effective_channel(H, A)
        gram = np.swapaxes(A.conj(), -1, -2) @ A
        for i in block:
            try:
                problem = SnapshotProblem.build(
                    h_eff[i - lo], certified=certified[i], analog_gram=gram[i - lo], **qos
                )
                t0 = time.perf_counter()
                sol = solve_snapshot(
                    problem,
                    k_min=config.admission.k_min,
                    priority=config.admission.priority,
                    seed=config.seeds.admission + i,
                    objective=config.admission.objective,
                    n_ref=config.admission.n_ref,
                )
                solve_time = time.perf_counter() - t0
            except HapbeamError as exc:
                exc.args = (f"snapshot {i} (slot {int(slots[i])}): {exc}",)
                raise
            rows.append((sol.qar, sol.sum_rate, sol.energy_efficiency, sol.power,
                         float(sol.feasible), solve_time))

    # solve_time_s is kept for timing callers and written to no file
    names = ("QAR", "sum_rate", "ee", "power", "feasible", "solve_time_s")
    columns = {"snapshot": np.arange(len(slots)), "mode": [config.compensation] * len(slots),
               "K": np.full(len(slots), K), "max_pointing_err_deg": err,
               **{name: np.array(col) for name, col in zip(names, zip(*rows))}}
    fc_report = forecast_errors(series, forecasts, hz.delay)
    return RunResult(
        config=config,
        snapshots=columns,
        aggregates=_aggregate(columns),
        calibration=report,
        forecast_report=fc_report,
        eval_slots=slots,
    )


def _set_path(raw: dict, dotted: str, value) -> None:
    parts = dotted.split(".")
    node = raw
    for p in parts[:-1]:
        node = node.setdefault(p, {})
        if not isinstance(node, dict):
            raise ConfigError(f"sweep axis {dotted!r} does not address a mapping")
    node[parts[-1]] = value


def sweep(base: dict, axes: dict) -> list:
    """Cross product of config overrides.  `axes` maps dotted config paths
    (for example users.count) to value lists; cells are enumerated in sorted
    key order and returned as (overrides, ScenarioConfig) pairs.  Every
    cell's config is built, and so checked, before any is returned; running
    them is the caller's job."""
    if not isinstance(base, dict):
        raise ConfigError(f"sweep base must be a mapping, got {type(base).__name__}")
    if not isinstance(axes, dict):
        raise ConfigError(f"sweep axes must be a mapping, got {type(axes).__name__}")
    if not axes:
        raise ConfigError("sweep needs at least one axis")
    names = sorted(axes)
    for name, values in axes.items():
        if not isinstance(values, (list, tuple)) or not values:
            raise ConfigError(f"sweep axis {name!r} must list at least one value")
    cells = []
    for combo in itertools.product(*(axes[n] for n in names)):
        raw = copy.deepcopy(base)
        overrides = dict(zip(names, combo))
        for dotted, value in overrides.items():
            _set_path(raw, dotted, value)
        cells.append((overrides, ScenarioConfig.from_dict(raw)))
    return cells
