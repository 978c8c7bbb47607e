import ast
import json
import re
import tracemalloc
from dataclasses import MISSING, fields, replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import hapbeam.cli as cli
from hapbeam.cli import main
from hapbeam.array_model import (
    AngleBox,
    analog_beamformer_at,
    certify_users,
    spectral_bound_l2,
)
from hapbeam.calibration import conformal_radius, target_window_max
from hapbeam.channel import ChannelParams, effective_channel, fspl_gain, synthesize_channel
from hapbeam.errors import (
    ConfigError,
    DataError,
    InvariantError,
    ParseError,
    UncoveredSlotError,
    exit_code_for,
)
from hapbeam.forecast import AttitudeSeries, ForecastRequest, fit_direct, forecast_ar
from hapbeam.geometry import (
    EulerZYX,
    WorldGeometry,
    euler_to_rotation,
    los_to_body_angles,
    rotation_log_vee,
)
import hapbeam.harness as harness
from hapbeam.harness import (
    CHANNEL_PRESETS,
    MODE_SOURCES,
    AdmissionSpec,
    ArraySpec,
    CalibrationSpec,
    ChannelSpec,
    ForecastSpec,
    HorizonSpec,
    PlatformSpec,
    QosSpec,
    ScenarioConfig,
    SeedSpec,
    UserSpec,
    generate_attitude_series,
    place_users,
    required_series_length,
    run_experiment,
    sweep,
    TRAIN_FRAC,
    VAL_FRAC,
)
from hapbeam.io import (
    FORECAST_HEADER,
    SNAPSHOT_COLUMNS,
    TELEMETRY_HEADER,
    emit_results,
    load_forecast_csv,
    load_telemetry_csv,
    save_forecast_csv,
    save_telemetry_csv,
    write_snapshots_csv,
)
from hapbeam.solver import SnapshotProblem, solve_snapshot

FAST = {
    "snapshots": 20,
    "users": {"count": 4},
    "array": {"m_x": 8, "m_y": 8},
    "forecaster": {"kind": "ar", "order": 12},
}


class TestScenarioConfig:
    def test_defaults_build(self):
        cfg = ScenarioConfig.from_dict({})
        assert cfg.users.count == 10
        assert cfg.horizon.l_win == 192
        assert cfg.compensation == "forecast"

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="qoss"):
            ScenarioConfig.from_dict({"qoss": {}})

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigError, match="radius_km"):
            ScenarioConfig.from_dict({"users": {"radius_km": 5}})

    @pytest.mark.parametrize(
        "raw",
        [
            {"users": {"layout": "grid"}},
            {"channel": {"preset": "rayleigh"}},
            {"compensation": "psychic"},
            {"admission": {"priority": "alphabetical"}},
            {"forecaster": {"kind": "lstm"}},
            {"horizon": {"delay": 12, "h_pred": 12}},
            {"calibration": {"rho": 1.5}},
            {"snapshots": 0},
            {"forecaster": {"order": 0}},
            {"horizon": {"l_win": 50}},
            {"calibration": {"grid": 9}},  # the lattice size is no longer a key
            {"channel": {"beta_mode": "fspl"}},  # nor the path-loss switch
            {"channel": {"noise_power_w": 0.0}},
            {"channel": {"bandwidth_hz": -1.0}},
            {"hap": {"altitude_m": 0.0}},
            {"qos": {"p_max_w": 0.0}},
            {"qos": {"r_min": -0.5}},
            {"admission": {"k_min": 0}},
            {"admission": {"n_ref": 10}},  # the sweep cap is the solver's MAX_SWEEPS
            {"array": {"m_x": 0}},
            {"array": {"spacing_y_wl": float("nan")}},
            {"snapshots": "abc"},
            {"snapshots": 2.5},
            {"users": {"count": "5"}},
            {"qos": {"p_max_w": "10"}},
            {"seeds": {"channel": True}},
            {"hap": {"mounting_deg": ["a", 0, 0]}},
            {"calibration": {"epsilon": float("nan")}},  # JSON accepts NaN
            {"horizon": {"dt_s": float("nan")}},
            {"users": {"disc_radius_m": float("nan")}},
            {"calibration": {"box_halfwidth_deg": 3.0}},  # the delta_omega cap replaced it
            {"admission": {"objective": "ee"}},  # refinement raises the sum-rate only
            {"admission": {"priority": "channel-gain"}},  # it ranked as qos-difficulty
        ],
    )
    def test_invalid_values(self, raw):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict(raw)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: UserSpec(layout="grid"),
            lambda: ChannelSpec(preset="rayleigh"),
            lambda: replace(ScenarioConfig(), compensation="psychic"),
            lambda: replace(AdmissionSpec(), priority="alphabetical"),
            lambda: ForecastSpec(kind="lstm"),
            lambda: HorizonSpec(delay=12, h_pred=12),
            lambda: replace(CalibrationSpec(), rho=1.5),
            lambda: replace(ScenarioConfig(), snapshots=0),
            lambda: ForecastSpec(order=0),
            lambda: replace(ScenarioConfig(), horizon=HorizonSpec(l_win=50)),
            lambda: PlatformSpec(mounting_deg=(0.0, 90.0)),
            lambda: ChannelSpec(noise_power_w=0.0),
            lambda: PlatformSpec(altitude_m=-1.0),
            lambda: QosSpec(p_max_w=0.0),
            lambda: AdmissionSpec(k_min=0),
            lambda: ArraySpec(m_y=0),
            lambda: UserSpec(count="5"),
            lambda: QosSpec(p_max_w=10**400),
            lambda: PlatformSpec(mounting_deg=(0.0, 10**400, 0.0)),
            lambda: AdmissionSpec(priority="channel-gain"),
        ],
        ids=[
            "layout", "preset", "compensation", "priority", "kind", "delay",
            "rho", "snapshots", "order", "l_win", "mounting", "noise_power",
            "altitude", "p_max", "k_min", "array", "count_type",
            "p_max_huge_int", "mounting_huge_int", "channel_gain",
        ],
    )
    def test_invalid_values_built_directly(self, build):
        # the same checks hold without from_dict: constructors and replace
        with pytest.raises(ConfigError):
            build()

    @pytest.mark.parametrize(
        "value",
        [float("nan"), float("inf"), float("-inf"), pytest.param(10**400, id="huge-int")],
    )
    def test_every_float_field_must_be_finite(self, value):
        sections = [f for f in fields(ScenarioConfig) if f.default_factory is not MISSING]
        checked = 0
        for section in sections:
            for f in fields(section.default_factory):
                if f.type is not float:
                    continue
                where = f"{section.name}.{f.name}"
                with pytest.raises(ConfigError, match=rf"^{where} must be a finite number"):
                    ScenarioConfig.from_dict({section.name: {f.name: value}})
                checked += 1
        assert checked == 15

    @pytest.mark.parametrize("axis", range(3))
    def test_mounting_must_be_finite(self, axis):
        m = [0.0, 0.0, 0.0]
        m[axis] = float("inf")
        with pytest.raises(ConfigError, match="hap.mounting_deg"):
            ScenarioConfig.from_dict({"hap": {"mounting_deg": m}})
        m[axis] = float("nan")
        with pytest.raises(ConfigError, match="hap.mounting_deg"):
            PlatformSpec(mounting_deg=m)

    def test_horizon_messages_name_the_bad_field(self):
        with pytest.raises(ConfigError) as exc:
            HorizonSpec(l_win=1)
        assert "l_win" in str(exc.value) and "dt_s" not in str(exc.value)
        with pytest.raises(ConfigError) as exc:
            HorizonSpec(dt_s=0.0)
        assert "dt_s" in str(exc.value) and "l_win" not in str(exc.value)

    def test_construction_coerces(self):
        assert PlatformSpec(mounting_deg=[10, -5, 0]).mounting_deg == (10.0, -5.0, 0.0)
        seeds = SeedSpec(attitude=np.uint32(7), placement=3.0)
        assert (seeds.attitude, seeds.placement) == (7, 3)
        assert type(seeds.attitude) is int and type(seeds.placement) is int
        cfg = replace(ScenarioConfig(), snapshots=np.int64(5))
        assert type(cfg.snapshots) is int and cfg.snapshots == 5
        assert ScenarioConfig.from_dict({"seeds": {"channel": 9}}).seeds.channel == 9

    def test_non_mapping_section(self):
        with pytest.raises(ConfigError, match="'users' must be a mapping"):
            ScenarioConfig.from_dict({"users": 4})

    def test_external_kind_requires_path(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict({"forecaster": {"kind": "external"}})


class TestAttitudeProcess:
    def test_deterministic_per_seed(self):
        a = generate_attitude_series(42, 500)
        b = generate_attitude_series(42, 500)
        assert np.array_equal(a.samples, b.samples)

    def test_seeds_differ(self):
        a = generate_attitude_series(1, 200)
        b = generate_attitude_series(2, 200)
        assert not np.array_equal(a.samples, b.samples)

    def test_amplitude_envelope(self):
        # at most 3 sinusoids per axis under the per-axis cap, plus AR(1)
        # noise whose excursions stay far below a degree
        s = generate_attitude_series(11, 100_000)
        deg = np.degrees(np.abs(s.samples))
        assert deg[:, 0].max() <= 3 * 6.0 + 1.5  # yaw
        assert deg[:, 1].max() <= 3 * 3.0 + 1.5  # pitch
        assert deg[:, 2].max() <= 3 * 3.0 + 1.5  # roll

    def test_dt_recorded(self):
        s = generate_attitude_series(1, 50, dt=0.25)
        assert s.dt == 0.25


class TestPlaceUsers:
    @pytest.mark.parametrize("layout", ["uniform", "clustered", "edge-biased"])
    def test_inside_disc_with_zero_height(self, layout):
        pos = place_users(layout, 200, 5e3, seed=9)
        assert pos.shape == (200, 3)
        assert np.all(pos[:, 2] == 0.0)
        assert np.all(np.hypot(pos[:, 0], pos[:, 1]) <= 5e3 + 1e-9)

    def test_deterministic(self):
        a = place_users("clustered", 30, 1e4, seed=4)
        b = place_users("clustered", 30, 1e4, seed=4)
        assert np.array_equal(a, b)

    def test_radial_profiles(self):
        R = 1.0
        uni = place_users("uniform", 10_000, R, seed=1)
        edge = place_users("edge-biased", 10_000, R, seed=1)
        r_uni = np.hypot(uni[:, 0], uni[:, 1]).mean()
        r_edge = np.hypot(edge[:, 0], edge[:, 1]).mean()
        assert r_uni == pytest.approx(2.0 / 3.0, abs=0.01)
        assert r_edge == pytest.approx(4.0 / 5.0, abs=0.01)
        assert r_edge > r_uni

    def test_unknown_layout(self):
        with pytest.raises(ConfigError):
            place_users("ring", 5, 1.0, seed=0)


class TestEstimateSources:
    """Each compensation mode's source, read the way the snapshot loop reads
    it: the beam at `slot` follows horizon d+1 of the estimate issued at
    origin slot - d - 1."""

    def make_ramp(self, slope, n=40):
        t = np.arange(n)[:, None]
        return AttitudeSeries.build(0.1, t * np.asarray(slope)[None, :] * 0.1)

    def source(self, mode):
        # the forecast mode steers by the configured forecaster, here AR(2)
        return MODE_SOURCES.get(mode) or harness.forecaster("ar", 2)

    def beam(self, source, s, slot, d=6):
        req = ForecastRequest(origin=slot - d - 1, l_win=8, h_pred=12, d=d)
        return source(s, req).angles[d]

    def test_ideal_matches_truth(self):
        s = self.make_ramp([0.01, -0.02, 0.005])
        assert np.array_equal(self.beam(self.source("ideal"), s, 25), s.samples[25])

    def test_none_is_level(self):
        s = self.make_ramp([0.01, 0.0, 0.0])
        att = self.beam(self.source("none"), s, 25)
        assert np.array_equal(att, EulerZYX.level().as_array())

    def test_reactive_ramp_delay_error(self):
        slope = np.array([0.02, -0.01, 0.015])  # rad per second
        s = self.make_ramp(slope)
        att = self.beam(self.source("reactive"), s, 30)
        assert np.array_equal(att, s.samples[23])  # slot - d - 1
        assert np.allclose(s.samples[30] - att, slope * 7 * 0.1, atol=1e-12)

    def test_forecast_uses_issued_window(self):
        s = self.make_ramp([0.01, 0.0, 0.0])
        out = forecast_ar(s, ForecastRequest(origin=23, l_win=8, h_pred=12, d=6), order=2)
        assert np.array_equal(self.beam(self.source("forecast"), s, 30), out.angles[6])

    def test_external_replay_missing_origin(self, tmp_path):
        s = self.make_ramp([0.01, 0.0, 0.0])
        req = ForecastRequest(origin=22, l_win=8, h_pred=12, d=6)
        path = tmp_path / "forecasts.csv"
        save_forecast_csv(path, [forecast_ar(s, req, order=2)])
        cfg = ScenarioConfig.from_dict(
            {**FAST, "forecaster": {"kind": "external", "path": str(path)}}
        )
        with pytest.raises(UncoveredSlotError, match="external replay misses origin"):
            run_experiment(cfg)

    def test_oracle_short_series(self):
        s = self.make_ramp([0.01, 0.0, 0.0], n=35)
        assert np.array_equal(self.beam(self.source("ideal"), s, 29), s.samples[29])
        # the window of origin 23 reaches slot 35, past the series
        with pytest.raises(UncoveredSlotError):
            self.beam(self.source("ideal"), s, 30)

    def test_constant_truth_all_modes_coincide(self):
        s = AttitudeSeries.build(0.1, np.zeros((40, 3)))
        for mode in ("none", "reactive", "forecast", "ideal"):
            att = self.beam(self.source(mode), s, 30)
            assert np.allclose(att, 0.0, atol=1e-12), mode

    @pytest.mark.parametrize("mode", ["reactive", "forecast", "ideal"])
    def test_pointing_error_within_calibrated_radius(self, mode):
        # delta_omega is calibrated on the estimate that steers the beam, so
        # on held-out snapshots the realized pointing error lies within it at
        # the nominal rate.  The none mode is left out: its residual is the
        # slow sway itself, which the short validation split does not sample
        # the way the test split does.
        raw = {**FAST, "snapshots": 200, "compensation": mode}
        res = run_experiment(ScenarioConfig.from_dict(raw))
        radius_deg = np.degrees(res.calibration.delta_omega)
        covered = np.mean(res.snapshots["max_pointing_err_deg"] <= radius_deg)
        assert covered >= 1.0 - res.config.calibration.rho, (mode, covered)


class TestRunExperiment:
    def test_deterministic_rerun(self):
        cfg = ScenarioConfig.from_dict(dict(FAST))
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        for name in a.snapshots:
            if name == "solve_time_s":
                continue  # wall clock, never compared
            if name == "mode":
                assert a.snapshots[name] == b.snapshots[name]
            else:
                assert np.array_equal(a.snapshots[name], b.snapshots[name]), name

    def test_one_solve_per_snapshot_and_one_bound_per_run(self, monkeypatch):
        calls = {"solve_snapshot": 0, "spectral_bound_l2": 0}

        def counted(name):
            fn = getattr(harness, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(harness, name, counted(name))
        run_experiment(ScenarioConfig.from_dict({**FAST, "snapshots": 13}))
        assert calls == {"solve_snapshot": 13, "spectral_bound_l2": 1}

    def test_aggregate_means_match_columns(self):
        res = run_experiment(ScenarioConfig.from_dict(dict(FAST)))
        for name in ("QAR", "sum_rate", "ee", "power", "feasible"):
            assert res.aggregates[f"mean_{name}"] == pytest.approx(
                float(np.mean(res.snapshots[name])), abs=1e-12
            )

    def test_always_feasible(self):
        res = run_experiment(ScenarioConfig.from_dict(dict(FAST)))
        assert np.all(res.snapshots["feasible"] == 1.0)

    def test_split_hygiene(self):
        cfg = ScenarioConfig.from_dict(dict(FAST))
        res = run_experiment(cfg)
        length = required_series_length(cfg)
        t_val_end = int((TRAIN_FRAC + VAL_FRAC) * length)
        # every evaluated slot, and hence every forecast origin, sits in the
        # final test split; calibration windows close before it starts
        assert res.eval_slots.min() == t_val_end + cfg.horizon.delay + 1
        assert res.eval_slots.max() <= length - 1
        assert res.calibration.n >= 2

    def test_ideal_pure_los_generous_power_full_admission(self):
        raw = {
            "snapshots": 15,
            "users": {"count": 5},
            "array": {"m_x": 8, "m_y": 8},
            "compensation": "ideal",
            "channel": {"preset": "pure-los"},
            "qos": {"r_min": 1.0, "p_max_w": 200.0},
            "forecaster": {"kind": "ar", "order": 12},
        }
        res = run_experiment(ScenarioConfig.from_dict(raw))
        assert np.all(res.snapshots["QAR"] == 1.0)

    @pytest.mark.parametrize("mounting", [[0.0, 90.0, 0.0], [0.0, -90.0, 0.0]])
    def test_gimbal_lock_mounting_uncompensated(self, mounting):
        # the uncompensated beam attitude is exactly the mounting, at
        # +-90 deg pitch; carried as a rotation matrix it needs no Euler angles
        raw = {**FAST, "snapshots": 5, "compensation": "none",
               "hap": {"mounting_deg": mounting}}
        res = run_experiment(ScenarioConfig.from_dict(raw))
        assert len(res.snapshots["snapshot"]) == 5
        assert np.all(res.snapshots["feasible"] == 1.0)

    @pytest.mark.parametrize("mode", ["none", "reactive", "ideal"])
    def test_fixed_modes_never_call_the_forecaster(self, monkeypatch, mode):
        def refuse(*args, **kwargs):
            raise AssertionError("configured forecaster called")

        monkeypatch.setattr(harness, "forecast_ar", refuse)
        raw = {**FAST, "snapshots": 5, "compensation": mode}
        res = run_experiment(ScenarioConfig.from_dict(raw))
        assert len(res.snapshots["snapshot"]) == 5

    def test_ideal_beats_none(self):
        a = run_experiment(
            ScenarioConfig.from_dict({**FAST, "compensation": "ideal"})
        )
        b = run_experiment(ScenarioConfig.from_dict({**FAST, "compensation": "none"}))
        assert a.aggregates["mean_sum_rate"] > b.aggregates["mean_sum_rate"]
        assert b.aggregates["mean_max_pointing_err_deg"] > 1.0
        assert a.aggregates["mean_max_pointing_err_deg"] == 0.0

    def test_external_replay_matches_internal(self, tmp_path):
        cfg = ScenarioConfig.from_dict(dict(FAST))
        internal = run_experiment(cfg)
        emit_results(internal, tmp_path / "internal")
        # reproduce every forecast the run issued and replay it from disk, once
        # with h_pred horizons and once with more: only h_pred of them count
        length = required_series_length(cfg)
        series = generate_attitude_series(cfg.seeds.attitude, length, cfg.horizon.dt_s)
        t_tr = int(TRAIN_FRAC * length)
        t_val = int((TRAIN_FRAC + VAL_FRAC) * length)
        hz = cfg.horizon
        fn = partial(forecast_ar, order=cfg.forecaster.order)
        origins = list(range(t_tr, t_val - hz.h_pred)) + [
            int(s) - hz.delay - 1 for s in internal.eval_slots
        ]
        for h_saved in (hz.h_pred, hz.h_pred + 6):
            outs = [
                fn(series, ForecastRequest(t, hz.l_win, h_saved, hz.delay))
                for t in origins
            ]
            path = tmp_path / f"forecasts{h_saved}.csv"
            save_forecast_csv(path, outs)
            ext = run_experiment(
                ScenarioConfig.from_dict(
                    {**FAST, "forecaster": {"kind": "external", "path": str(path)}}
                )
            )
            emit_results(ext, tmp_path / f"external{h_saved}")
            for name in ("snapshots.csv", "summary.json", "calibration.txt"):
                got = (tmp_path / f"external{h_saved}" / name).read_bytes()
                assert got == (tmp_path / "internal" / name).read_bytes(), (h_saved, name)

    def test_qos_floor_is_per_hertz(self):
        # r_min is spectral efficiency: a wider band scales every rate and its
        # floor alike, so admission is unchanged and the sum-rate scales by B
        base = run_experiment(ScenarioConfig.from_dict(dict(FAST))).snapshots
        assert 0 < base["QAR"].mean() < 1
        for bandwidth in (2.0, 4.0):
            raw = {**FAST, "channel": {"bandwidth_hz": bandwidth}}
            res = run_experiment(ScenarioConfig.from_dict(raw))
            np.testing.assert_array_equal(res.snapshots["QAR"], base["QAR"])
            np.testing.assert_array_equal(res.snapshots["sum_rate"],
                                          bandwidth * base["sum_rate"])

    def test_symmetric_users_equal_qar_across_priorities(self):
        # equal floors and equal orthogonal channels: the ranking cannot
        # matter, only how many users fit
        K = 6
        prob_args = dict(
            h_eff=np.eye(K, dtype=complex), r_min=1.0, p_max=3.0, noise_power=0.2
        )
        qars = set()
        for priority in ("qos-difficulty", "random"):
            sol = solve_snapshot(
                SnapshotProblem.build(**prob_args), k_min=8, priority=priority, seed=1
            )
            qars.add(sol.qar)
        assert len(qars) == 1


def reference_columns(config: ScenarioConfig):
    """The per-snapshot loop that run_experiment's array pass replaced, from
    single-item calls only: one forecast per origin, calibration scores one
    horizon at a time, then per snapshot the rotations, analog stage,
    channel, certificate, solve and pointing error.  Returns the radius and
    the snapshot columns."""
    hz = config.horizon
    length = required_series_length(config)
    series = generate_attitude_series(config.seeds.attitude, length, hz.dt_s)
    t_train_end = int(TRAIN_FRAC * length)
    t_val_end = int((TRAIN_FRAC + VAL_FRAC) * length)
    positions = place_users(config.users.layout, config.users.count,
                            config.users.disc_radius_m, config.seeds.placement)
    geom = WorldGeometry.build(config.hap.position, positions)
    K = config.users.count
    cfg = config.array.build(n_rf=K)
    mounting = config.hap.mounting
    source = MODE_SOURCES.get(config.compensation) or fit_direct(
        series, t_train_end, config.forecaster.order, hz.h_pred
    )

    def issue(t):
        return source(series, ForecastRequest(int(t), hz.l_win, hz.h_pred, hz.delay))

    def rotation(angles):
        return euler_to_rotation(EulerZYX(*angles))

    scores = []
    for t in range(t_train_end, t_val_end - hz.h_pred):
        angles = issue(t).angles
        res = [rotation_log_vee(rotation(angles[h - 1]), rotation(series.samples[t + h]))
               for h in range(hz.delay + 1, hz.h_pred + 1)]
        scores.append(target_window_max(np.array(res)))
    delta_omega = conformal_radius(scores, config.calibration.rho)

    params = ChannelParams.build(
        kappa=CHANNEL_PRESETS[config.channel.preset],
        beta=fspl_gain(cfg.wavelength, geom.distance),
        noise_power=config.channel.noise_power_w,
        bandwidth=config.channel.bandwidth_hz,
        num_users=K,
    )
    columns = {name: [] for name in ("QAR", "sum_rate", "ee", "power", "feasible",
                                     "max_pointing_err_deg")}
    first_slot = t_val_end + hz.delay + 1
    for i, slot in enumerate(range(first_slot, first_slot + config.snapshots)):
        R_beam = rotation(issue(slot - hz.delay - 1).angles[hz.delay]) @ mounting
        R_truth = rotation(series.samples[slot]) @ mounting
        A = analog_beamformer_at(cfg, geom, R_beam)
        rng = np.random.default_rng(np.random.SeedSequence([config.seeds.channel, i]))
        H = synthesize_channel(cfg, geom, R_truth, params, rng)
        theta, phi = los_to_body_angles(geom.los_unit, R_beam)
        l2 = spectral_bound_l2(cfg, AngleBox.around(theta, phi, delta_omega))
        problem = SnapshotProblem.build(
            effective_channel(H, A),
            r_min=config.qos.r_min * config.channel.bandwidth_hz,
            p_max=config.qos.p_max_w,
            noise_power=config.channel.noise_power_w,
            bandwidth=config.channel.bandwidth_hz,
            circuit_power=config.qos.circuit_power_w,
            certified=certify_users(l2, delta_omega, config.calibration.epsilon),
            analog_gram=A.conj().T @ A,
        )
        sol = solve_snapshot(
            problem,
            k_min=config.admission.k_min,
            priority=config.admission.priority,
            seed=config.seeds.admission + i,
        )
        for name, value in (("QAR", sol.qar), ("sum_rate", sol.sum_rate),
                            ("ee", sol.energy_efficiency), ("power", sol.power),
                            ("feasible", float(sol.feasible))):
            columns[name].append(value)
        err = np.degrees(np.linalg.norm(rotation_log_vee(R_beam, R_truth)))
        columns["max_pointing_err_deg"].append(err)
    return delta_omega, {name: np.array(vals) for name, vals in columns.items()}


# 13 snapshots leave a partial block after one full block of harness.BLOCK
ARRAY_PASS = {"snapshots": 13, "users": {"count": 4}, "array": {"m_x": 8, "m_y": 8}}


class TestArrayPass:
    """run_experiment stacks every snapshot, calibration window and forecast
    origin; its outputs must equal the per-item loop bit for bit."""

    @pytest.mark.parametrize("preset", ["rician-strong", "pure-los"])
    @pytest.mark.parametrize("mode", ["none", "reactive", "forecast", "ideal"])
    def test_matches_per_snapshot_reference(self, mode, preset):
        self.check({**ARRAY_PASS, "compensation": mode, "channel": {"preset": preset}})

    def test_matches_reference_with_mounting_offset(self):
        self.check({**ARRAY_PASS, "hap": {"mounting_deg": [10.0, -35.0, 20.0]}})

    def check(self, raw):
        config = ScenarioConfig.from_dict(raw)
        assert config.snapshots % harness.BLOCK != 0
        res = run_experiment(config)
        delta_omega, want = reference_columns(config)
        assert res.calibration.delta_omega == delta_omega
        for name, column in want.items():
            assert np.array_equal(res.snapshots[name], column), name

    def test_solve_error_names_snapshot_and_slot(self, monkeypatch):
        calls = []

        def failing(problem, **kwargs):
            calls.append(problem)
            if len(calls) == 4:
                raise InvariantError("solver broke")
            return solve_snapshot(problem, **kwargs)

        monkeypatch.setattr(harness, "solve_snapshot", failing)
        config = ScenarioConfig.from_dict(ARRAY_PASS)
        length = required_series_length(config)
        slot = int((TRAIN_FRAC + VAL_FRAC) * length) + config.horizon.delay + 1 + 3
        with pytest.raises(InvariantError, match=re.escape(f"snapshot 3 (slot {slot}): solver broke")):
            run_experiment(config)

    def test_default_run_peak_memory(self):
        # the analog, channel and Gram stages hold (BLOCK, M, K) stacks, never
        # one per run: about 2.5 MiB at the peak against 27.7 MiB for one
        # stack of all 200 snapshots, which would cost the benchmark's
        # peak_rss_mb bound
        run_experiment(ScenarioConfig(snapshots=2))  # lazy numpy set-up first
        tracemalloc.start()
        try:
            run_experiment(ScenarioConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20, f"traced peak {peak / 2**20:.2f} MiB"


class TestDirectForecaster:
    """The default forecast source: a direct forecaster fitted once per run
    on the training split."""

    def test_default_is_direct48(self):
        assert (ForecastSpec().kind, ForecastSpec().order) == ("direct", 48)

    def test_short_run_gets_two_fit_rows_per_unknown(self):
        # criterion 12's config: 40 snapshots alone need only 305 samples
        raw = {"snapshots": 40, "users": {"count": 6}}
        cfg = ScenarioConfig.from_dict(raw)
        length = required_series_length(cfg)
        series = generate_attitude_series(cfg.seeds.attitude, length, cfg.horizon.dt_s)
        fit = fit_direct(series, int(TRAIN_FRAC * length), 48, cfg.horizon.h_pred)
        assert fit.rows >= 2 * (4 * 48 + 1) == 386
        # no other mode or kind changes its series length
        ar = {**raw, "forecaster": {"kind": "ar", "order": 24}}
        base = required_series_length(ScenarioConfig.from_dict(ar))
        assert base == 305 < length
        for mode in ("none", "reactive", "ideal"):
            for fc in (raw, ar):
                cfg = ScenarioConfig.from_dict({**fc, "compensation": mode})
                assert required_series_length(cfg) == base, mode

    def test_replay_of_the_training_fit_matches_internal(self, tmp_path):
        # the run fits on samples [0, t_train_end) and serves every
        # calibration and evaluation origin from that one fit
        raw = {**FAST, "forecaster": {"kind": "direct", "order": 12}}
        cfg = ScenarioConfig.from_dict(raw)
        internal = run_experiment(cfg)
        emit_results(internal, tmp_path / "internal")
        hz = cfg.horizon
        length = required_series_length(cfg)
        series = generate_attitude_series(cfg.seeds.attitude, length, hz.dt_s)
        t_tr = int(TRAIN_FRAC * length)
        t_val = int((TRAIN_FRAC + VAL_FRAC) * length)
        fit = fit_direct(series, t_tr, 12, hz.h_pred)
        origins = list(range(t_tr, t_val - hz.h_pred)) + [
            int(s) - hz.delay - 1 for s in internal.eval_slots
        ]
        outs = [fit(series, ForecastRequest(t, hz.l_win, hz.h_pred, hz.delay)) for t in origins]
        assert {o.tag for o in outs} == {"direct12"}
        path = tmp_path / "forecasts.csv"
        save_forecast_csv(path, outs)
        ext = run_experiment(
            ScenarioConfig.from_dict({**raw, "forecaster": {"kind": "external", "path": str(path)}})
        )
        emit_results(ext, tmp_path / "external")
        for name in ("snapshots.csv", "summary.json", "calibration.txt"):
            got = (tmp_path / "external" / name).read_bytes()
            assert got == (tmp_path / "internal" / name).read_bytes(), name

    @pytest.mark.parametrize("mode", ["none", "reactive", "ideal"])
    def test_fixed_modes_never_fit(self, monkeypatch, mode):
        def refuse(*args, **kwargs):
            raise AssertionError("direct forecaster fitted")

        monkeypatch.setattr(harness, "fit_direct", refuse)
        raw = {**FAST, "snapshots": 5, "compensation": mode, "forecaster": {}}
        assert len(run_experiment(ScenarioConfig.from_dict(raw)).snapshots["snapshot"]) == 5


class TestSweep:
    def test_cross_product_and_determinism(self, monkeypatch):
        def no_run(config):
            raise AssertionError("sweep only builds the grid")

        monkeypatch.setattr(harness, "run_experiment", no_run)
        grid = (
            {**FAST, "snapshots": 8},
            {"compensation": ["ideal", "none"], "users.count": [3, 4]},
        )
        cells = sweep(*grid)
        assert len(cells) == 4
        combos = {tuple(sorted(o.items())) for o, _ in cells}
        assert len(combos) == 4
        assert sweep(*grid) == cells
        for overrides, config in cells:
            assert config.compensation == overrides["compensation"]
            assert config.users.count == overrides["users.count"]
            assert np.all(run_experiment(config).snapshots["feasible"] == 1.0)

    def test_empty_axes_rejected(self):
        with pytest.raises(ConfigError):
            sweep({}, {})
        with pytest.raises(ConfigError):
            sweep({}, {"users.count": []})

    @pytest.mark.parametrize(
        "base, axes", [([], {"users.count": [8]}), ({}, [1])], ids=["base", "axes"]
    )
    def test_non_mapping_section_rejected(self, base, axes):
        with pytest.raises(ConfigError, match="must be a mapping"):
            sweep(base, axes)


class TestIo:
    def test_telemetry_round_trip_bit_exact(self, tmp_path):
        series = generate_attitude_series(5, 300)
        p = tmp_path / "tel.csv"
        save_telemetry_csv(p, series)
        back = load_telemetry_csv(p)
        assert back.dt == series.dt
        assert np.array_equal(back.samples, series.samples)

    def test_telemetry_bad_header(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("time,yaw,pitch,roll\n0,0,0,0\n")
        with pytest.raises(ParseError, match="header"):
            load_telemetry_csv(p)

    def test_telemetry_bad_cell_names_row_and_column(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("t,yaw_deg,pitch_deg,roll_deg\n0.0,0.0,oops,0.0\n0.1,0,0,0\n")
        with pytest.raises(ParseError, match=r"row 2, column pitch_deg"):
            load_telemetry_csv(p)

    def test_telemetry_nonuniform_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text(
            "t,yaw_deg,pitch_deg,roll_deg\n0.0,0,0,0\n0.1,0,0,0\n0.35,0,0,0\n"
        )
        with pytest.raises(ParseError, match="uniform"):
            load_telemetry_csv(p)

    @pytest.mark.parametrize(
        "load, plain, header, rows, bad_column",
        [
            (
                load_telemetry_csv, lambda s: (s.dt, s.samples.tolist()),
                TELEMETRY_HEADER, ["0.0,1,2,3", "0.1,4,5,6"], "pitch_deg",
            ),
            (
                load_forecast_csv, lambda f: {t: o.angles.tolist() for t, o in f.items()},
                FORECAST_HEADER, ["5,1,1,2,3", "5,2,4,5,6"], "pitch_deg",
            ),
        ],
        ids=["telemetry", "forecast"],
    )
    def test_reader_contract(self, tmp_path, load, plain, header, rows, bad_column):
        p = tmp_path / "table.csv"

        def load_text(text):
            p.write_bytes(text.encode())
            return plain(load(p))

        head = ",".join(header)
        clean = load_text("\n".join([head, *rows]) + "\n")
        # blank lines are skipped, CRLF line ends load the same
        assert load_text(f"{head}\n\n{rows[0]}\n  \n{rows[1]}\n") == clean
        assert load_text("\r\n".join([head, *rows]) + "\r\n") == clean
        with pytest.raises(ParseError, match="expected header"):
            load_text("\n".join(["a,b,c", *rows]) + "\n")
        with pytest.raises(ParseError, match=r"row 3 has \d+ fields"):
            load_text("\n".join([head, rows[0], rows[1].rpartition(",")[0]]) + "\n")
        # a bad cell is reported at its file line, blank lines counted
        col = list(header).index(bad_column)
        bad = ",".join("oops" if j == col else v for j, v in enumerate(rows[1].split(",")))
        with pytest.raises(ParseError) as info:
            load_text(f"{head}\n{rows[0]}\n\n{bad}\n")
        assert str(info.value) == f"{p}: row 4, column {bad_column}: 'oops'"
        with pytest.raises(DataError, match="cannot read") as info:
            load(tmp_path / "missing.csv")
        assert exit_code_for(info.value) == 3

    def test_only_io_touches_files(self):
        # the builtin open, the Path methods that read, write or create, and
        # json's file readers and writers; json.dumps to stdout is allowed
        path_methods = {"open", "read_text", "write_text", "read_bytes", "write_bytes",
                        "mkdir", "exists"}
        found = []
        for path in sorted(Path(cli.__file__).parent.glob("*.py")):
            if path.name == "io.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Name) and node.id == "open":
                    name = "open"
                elif isinstance(node, ast.Attribute) and node.attr in path_methods:
                    name = f".{node.attr}"
                elif (isinstance(node, ast.Attribute) and node.attr in ("load", "dump")
                      and isinstance(node.value, ast.Name) and node.value.id == "json"):
                    name = f"json.{node.attr}"
                else:
                    continue
                found.append(f"{path.name}:{node.lineno}: {name}")
        assert found == []

    def test_snapshots_round_trip(self, tmp_path):
        # snapshots.csv is written, never read back: every written cell
        # parses with int or float to the in-memory value bit for bit
        res = run_experiment(ScenarioConfig.from_dict({**FAST, "snapshots": 6}))
        p = tmp_path / "snapshots.csv"
        write_snapshots_csv(p, res.snapshots)
        header, *lines = p.read_text().splitlines()
        assert header == ",".join(SNAPSHOT_COLUMNS)
        cells = dict(zip(SNAPSHOT_COLUMNS, zip(*(line.split(",") for line in lines))))
        assert list(cells["mode"]) == res.snapshots["mode"]
        for name in ("snapshot", "K"):
            assert [int(c) for c in cells[name]] == list(res.snapshots[name]), name
        for name in ("QAR", "sum_rate", "ee", "power", "feasible", "max_pointing_err_deg"):
            got = np.array([float(c) for c in cells[name]])
            assert got.tobytes() == np.asarray(res.snapshots[name], float).tobytes(), name

    def test_empty_run_flagged(self, tmp_path):
        empty = {name: [] for name in (*SNAPSHOT_COLUMNS, "solve_time_s")}
        p = tmp_path / "empty.csv"
        write_snapshots_csv(p, empty)
        assert p.read_text() == ",".join(SNAPSHOT_COLUMNS) + "\n"  # header only


class TestCli:
    def run_cli(self, *argv):
        return main(list(argv))

    def test_gen_and_calibrate_and_eval(self, tmp_path, capsys):
        tel = tmp_path / "tel.csv"
        assert self.run_cli(
            "gen-telemetry", "--seed", "7", "--length", "650", "--out", str(tel)
        ) == 0
        series = load_telemetry_csv(tel)
        assert len(series.samples) == 650

        rep = tmp_path / "calib.txt"
        code = self.run_cli(
            "calibrate", "--telemetry", str(tel), "--stride", "5",
            "--order", "12", "--out", str(rep),
        )
        assert code == 0
        values = dict(line.split(" = ") for line in rep.read_text().splitlines())
        assert float(values["delta_omega_rad"]) > 0

        capsys.readouterr()  # drop output from the earlier subcommands
        code = self.run_cli(
            "forecast-eval", "--telemetry", str(tel), "--forecaster", "linear",
            "--stride", "40",
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["forecaster"] == "linear"
        assert len(payload["per_horizon_mae_deg"]) == 12

    def test_run_outputs_and_byte_identical_reruns(self, tmp_path):
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps({**FAST, "snapshots": 8}))
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert self.run_cli("run", "--config", str(scen), "--out", str(out1)) == 0
        assert self.run_cli("run", "--config", str(scen), "--out", str(out2)) == 0
        for name in ("snapshots.csv", "summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
        assert (out1 / "calibration.txt").exists()
        assert len((out1 / "snapshots.csv").read_text().splitlines()) == 1 + 8

    def test_unknown_config_key_exit_2(self, tmp_path, capsys):
        scen = tmp_path / "bad.json"
        scen.write_text(json.dumps({"userz": {}}))
        assert self.run_cli("run", "--config", str(scen), "--out", str(tmp_path / "o")) == 2
        assert "userz" in capsys.readouterr().err

    def test_invalid_json_exit_2(self, tmp_path):
        scen = tmp_path / "bad.json"
        scen.write_text("{not json")
        assert self.run_cli("run", "--config", str(scen), "--out", str(tmp_path / "o")) == 2

    @pytest.mark.parametrize("command", ["forecast-eval", "calibrate"])
    @pytest.mark.parametrize(
        "bad",
        [
            ["--order", "0"],
            ["--l-win", "40"],
            ["--stride", "0"],
            ["--delay", "12", "--h-pred", "12"],
            ["--h-pred", "0"],
            ["--l-win", "1", "--forecaster", "persistence"],
        ],
    )
    def test_bad_window_arguments_exit_2(self, tmp_path, capsys, command, bad):
        tel = tmp_path / "tel.csv"
        save_telemetry_csv(tel, generate_attitude_series(7, 650))
        code = self.run_cli(
            command, "--telemetry", str(tel), "--out", str(tmp_path / "out"), *bad
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        # the message names the flags and values as typed, not config fields
        for flag, value in zip(bad[::2], bad[1::2]):
            assert flag in err and value in err, err

    def test_bad_rho_exit_2_before_loading(self, tmp_path, capsys):
        # a missing telemetry file would exit 3: --rho is checked first
        code = self.run_cli(
            "calibrate", "--telemetry", str(tmp_path / "nope.csv"),
            "--out", str(tmp_path / "c.txt"), "--rho", "1.5",
        )
        assert code == 2
        assert "--rho 1.5" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "raw", [{"snapshots": "abc"}, {"users": {"count": "5"}}], ids=["snapshots", "count"]
    )
    def test_wrong_type_config_exit_2(self, tmp_path, capsys, raw):
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps(raw))
        assert self.run_cli("run", "--config", str(scen), "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "must be an integer" in err

    @pytest.mark.parametrize("mode, code", [
        ("none", 0), ("reactive", 0), ("ideal", 0), ("forecast", 2),
    ])
    def test_ar_window_checked_only_in_forecast_mode(self, tmp_path, capsys, mode, code):
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps({
            **FAST, "snapshots": 3, "compensation": mode,
            "forecaster": {"kind": "ar", "order": 24}, "horizon": {"l_win": 48},
        }))
        assert self.run_cli("run", "--config", str(scen), "--out", str(tmp_path / "o")) == code
        assert ("too short for AR order 24" in capsys.readouterr().err) == bool(code)

    @pytest.mark.parametrize("raw, message", [
        ({"forecaster": {"kind": "direct", "order": 49}}, "too short for direct order 49"),
        ({"horizon": {"l_win": 50}}, "too short for direct order 48"),
    ])
    def test_direct_window_rule_exit_2(self, tmp_path, capsys, raw, message):
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps(raw))
        assert self.run_cli("run", "--config", str(scen), "--out", str(tmp_path / "o")) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["forecast-eval", "calibrate"])
    def test_telemetry_subcommands_default_to_ar24(self, tmp_path, capsys, command):
        # a telemetry file has no training split, so the default stays AR(24)
        tel = tmp_path / "tel.csv"
        save_telemetry_csv(tel, generate_attitude_series(7, 400))
        outputs = []
        for extra in ([], ["--forecaster", "ar", "--order", "24"]):
            out = tmp_path / f"out{len(extra)}"
            argv = [command, "--telemetry", str(tel), "--stride", "20", "--out", str(out), *extra]
            assert self.run_cli(*argv) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        capsys.readouterr()

    @pytest.mark.parametrize("seed", ["attitude", "placement", "channel", "admission", "--seed"])
    def test_negative_seed_exit_2(self, tmp_path, capsys, seed):
        out = tmp_path / "out"
        if seed == "--seed":
            argv = ["gen-telemetry", "--seed", "-2", "--length", "50", "--out", str(out)]
            want = "error: --seed -2: seeds.attitude must be >= 0"
        else:
            scen = tmp_path / "scen.json"
            scen.write_text(json.dumps({**FAST, "seeds": {seed: -1}}))
            argv = ["run", "--config", str(scen), "--out", str(out)]
            want = f"error: seeds.{seed} must be >= 0"
        assert self.run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(want) and "Traceback" not in err, err
        assert not out.exists()

    def test_missing_telemetry_exit_3(self, tmp_path):
        assert self.run_cli(
            "forecast-eval", "--telemetry", str(tmp_path / "nope.csv")
        ) == 3

    def test_sweep_cells(self, tmp_path):
        scen = tmp_path / "sweep.json"
        scen.write_text(json.dumps({
            "base": {**FAST, "snapshots": 5},
            "axes": {"compensation": ["ideal", "none"]},
        }))
        out = tmp_path / "sw"
        assert self.run_cli("sweep", "--config", str(scen), "--out", str(out)) == 0
        index = json.loads((out / "index.json").read_text())
        assert len(index) == 2
        assert (out / "cell_000" / "snapshots.csv").exists()
        assert all(c["mean_feasible"] == 1.0 for c in index)

    def test_sweep_keeps_finished_cells(self, tmp_path, capsys):
        # the third cell's forecast mode reads a missing replay file; the two
        # cells before it are on disk, each as `run` writes its config
        missing = tmp_path / "nope.csv"
        base = {**FAST, "snapshots": 3,
                "forecaster": {"kind": "external", "path": str(missing)}}
        modes = ["ideal", "none", "forecast"]
        scen = tmp_path / "sweep.json"
        scen.write_text(json.dumps({"base": base, "axes": {"compensation": modes}}))
        out = tmp_path / "sw"
        assert self.run_cli("sweep", "--config", str(scen), "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(missing) in err
        assert sorted(p.name for p in out.iterdir()) == ["cell_000", "cell_001", "index.json"]
        index = json.loads((out / "index.json").read_text())
        assert [(c["cell"], c["overrides"]) for c in index] == [
            (0, {"compensation": "ideal"}), (1, {"compensation": "none"})
        ]
        for i, mode in enumerate(modes[:2]):
            cfg = tmp_path / f"{mode}.json"
            cfg.write_text(json.dumps({**base, "compensation": mode}))
            assert self.run_cli("run", "--config", str(cfg), "--out", str(tmp_path / mode)) == 0
            for name in ("snapshots.csv", "summary.json", "calibration.txt"):
                cell = (out / f"cell_{i:03d}" / name).read_bytes()
                assert cell == (tmp_path / mode / name).read_bytes(), (mode, name)

    def test_sweep_checks_every_cell_before_running_any(self, tmp_path, monkeypatch, capsys):
        ran = []
        for module in (cli, harness):
            monkeypatch.setattr(module, "run_experiment", ran.append)
        scen = tmp_path / "sweep.json"
        scen.write_text(json.dumps({
            "base": {**FAST, "snapshots": 3}, "axes": {"users.count": [3, 0]},
        }))
        out = tmp_path / "sw"
        assert self.run_cli("sweep", "--config", str(scen), "--out", str(out)) == 2
        assert "users.count must be >= 1" in capsys.readouterr().err
        assert ran == [] and not out.exists()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_config_exit_3(self, tmp_path, capsys, command, kind):
        config = tmp_path / "config.json"
        if kind == "directory":
            config.mkdir()
        out = tmp_path / "o"
        assert self.run_cli(command, "--config", str(config), "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {config}: "), err
        assert "Traceback" not in err and "Errno" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_invalid_json_config_exit_2(self, tmp_path, capsys, command):
        config = tmp_path / "config.json"
        config.write_text('{"snapshots": ')
        assert self.run_cli(command, "--config", str(config), "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err.startswith(f"error: {config}: invalid JSON")

    def test_sweep_unknown_key_exit_2(self, tmp_path):
        scen = tmp_path / "sweep.json"
        scen.write_text(json.dumps({"axes": {"compensation": ["ideal"]}, "extra": 1}))
        assert self.run_cli("sweep", "--config", str(scen), "--out", str(tmp_path / "o")) == 2

    @pytest.mark.parametrize(
        "raw",
        [{"base": [], "axes": {"users.count": [8]}}, {"axes": [1]}],
        ids=["base", "axes"],
    )
    def test_sweep_non_mapping_section_exit_2(self, tmp_path, capsys, raw):
        scen = tmp_path / "sweep.json"
        scen.write_text(json.dumps(raw))
        assert self.run_cli("sweep", "--config", str(scen), "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err.startswith("error: sweep")

    @pytest.mark.parametrize("dt", ["0", "-1", "nan"])
    def test_bad_dt_exit_2(self, tmp_path, capsys, dt):
        tel = tmp_path / "tel.csv"
        assert self.run_cli("gen-telemetry", "--dt", dt, "--out", str(tel)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --dt {float(dt)}:"), err
        assert not tel.exists()

    def test_bad_dt_message_names_only_dt(self, tmp_path, capsys):
        assert self.run_cli("gen-telemetry", "--dt", "0", "--out", str(tmp_path / "t")) == 2
        err = capsys.readouterr().err
        assert "dt_s" in err and "l_win" not in err, err

    @pytest.mark.parametrize("length", ["1", "0", "-5"])
    def test_short_length_exit_2(self, tmp_path, capsys, length):
        # calibrate and forecast-eval reject a file of fewer than two rows,
        # so gen-telemetry refuses to write one
        tel = tmp_path / "tel.csv"
        assert self.run_cli("gen-telemetry", "--length", length, "--out", str(tel)) == 2
        assert capsys.readouterr().err.startswith(f"error: --length must be >= 2, got {length}")
        assert not tel.exists()
        assert self.run_cli("gen-telemetry", "--length", "2", "--out", str(tel)) == 0
        assert len(load_telemetry_csv(tel).samples) == 2

    @pytest.mark.parametrize("command, flag, value", [
        ("run", "--format", "json"),
        ("sweep", "--format", "csv"),
        ("gen-telemetry", "--amplitude-scale", "0.5"),
    ])
    def test_removed_flags_exit_2(self, tmp_path, capsys, command, flag, value):
        # every run writes one result layout and the telemetry has fixed
        # scales, so these flags are unknown to the parser
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps(
            {"base": FAST, "axes": {"compensation": ["ideal"]}} if command == "sweep" else FAST
        ))
        out = tmp_path / "out"
        config = [] if command == "gen-telemetry" else ["--config", str(scen)]
        with pytest.raises(SystemExit) as exc:
            self.run_cli(command, *config, "--out", str(out), flag, value)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scen.json"]

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("qos", "p_max_w", float("inf")),
            ("hap", "altitude_m", float("inf")),
            ("users", "disc_radius_m", float("inf")),
            ("hap", "x_m", float("nan")),
            ("array", "wavelength_m", float("inf")),
            ("calibration", "epsilon", float("inf")),
            ("channel", "noise_power_w", float("inf")),
            ("hap", "mounting_deg", [0.0, float("-inf"), 0.0]),
            pytest.param("qos", "p_max_w", 10**400, id="qos-p_max_w-huge-int"),
        ],
    )
    def test_non_finite_config_exit_2(self, tmp_path, capsys, section, key, value):
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps({**FAST, section: {key: value}}))  # NaN, Infinity
        assert self.run_cli("run", "--config", str(scen), "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {section}.{key} must be"), err
        assert "Traceback" not in err and "Warning" not in err

    def test_fixed_mode_does_not_read_external_file(self, tmp_path):
        # only the forecast mode steers by the configured forecaster, so the
        # ideal mode runs without the replay file
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps({
            **FAST, "snapshots": 5, "compensation": "ideal",
            "forecaster": {"kind": "external", "path": str(tmp_path / "nope.csv")},
        }))
        assert self.run_cli("run", "--config", str(scen), "--out", str(tmp_path / "o")) == 0
        header, *rows = (tmp_path / "o" / "snapshots.csv").read_text().splitlines()
        mode = header.split(",").index("mode")
        assert [row.split(",")[mode] for row in rows] == ["ideal"] * 5

    def test_missing_external_forecast_file_exit_3(self, tmp_path, capsys):
        scen = tmp_path / "scen.json"
        missing = tmp_path / "nope.csv"
        scen.write_text(json.dumps(
            {**FAST, "forecaster": {"kind": "external", "path": str(missing)}}
        ))
        assert self.run_cli("run", "--config", str(scen), "--out", str(tmp_path / "o")) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(missing) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["gen-telemetry", "calibrate", "forecast-eval"])
    def test_out_in_missing_directory_exit_3(self, tmp_path, capsys, command):
        tel = tmp_path / "tel.csv"
        save_telemetry_csv(tel, generate_attitude_series(7, 300))
        out = tmp_path / "missing" / "out.txt"
        args = ["--out", str(out)]
        if command != "gen-telemetry":
            args += ["--telemetry", str(tel), "--l-win", "64", "--order", "4",
                     "--stride", "50"]
        assert self.run_cli(command, *args) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(out) in err
        assert "Traceback" not in err
