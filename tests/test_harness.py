"""Benchmark harness: config parsing, trials, metrics, artifacts, CLI."""

import contextlib
import csv
import dataclasses
import errno
import hashlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
import zlib
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from powderdose import (
    ARCHETYPES,
    GRAVITY,
    VIBRATION,
    ConditionStats,
    ConfigError,
    DispensingController,
    ExperimentConfig,
    PooledFit,
    StepTrace,
    SuiteSummary,
    TrialRecord,
    TrialStatus,
    ValveKinematics,
    archetype,
    build_report,
    compute_metrics,
    config_from_dict,
    config_to_dict,
    load_config,
    pooled_fits,
    pooled_points,
    read_trace_csv,
    run_suite,
    run_trial,
    write_suite_artifacts,
    write_trace_csv,
)
from powderdose import artifacts, config, control, harness, identify, plant
from powderdose.artifacts import (
    SUMMARY_COLUMNS,
    TRACE_COLUMNS,
    load_suite_records,
    trial_id,
    write_fit_csv,
)
from powderdose.cli import main as cli_main
from powderdose.config import (DIRECT_PID, MODEL_BASED, resolve_out_dir,
                               shown_path)
from powderdose.identify import (
    MIN_OBSERVABLE_MG,
    Observation,
    ObservationLog,
    Rig,
    fit_coefficient,
    regressor,
)
from powderdose.report import format_mass

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# The smallest positive grid regressor of a powder without a Beverloo
# offset: a command of 1e-3 at t_pose 0 and travel_rate 1e6, about
# 3e-17. glass-beads' particle correction is set to 0, so that command
# lies above L0 = 0; it flows a trace of powder, so its pooled points
# are balance noise over that regressor. A command a hair above an
# offset L0 > 0 is the edge case of OFFSET_EDGE.
SMALLEST_REGRESSOR = {
    "powder": "glass-beads", "targets_mg": [20], "trials": 1,
    "kinematics": {"l_min": 1e-3, "travel_rate": 1e6},
    "plant": {"balance": {"noise_sigma": 3.0},
              "powders": {"glass-beads": {"particle_correction": 0.0}}}}

# A powder whose Beverloo offset L0 = k*d / kappa lies about 1e-12 below
# the grid command 5: at particle_correction 1 and opening_per_command
# 0.05, L0 is particle_diameter / 0.05. The command 5 is the first rung,
# its regressor about (1e-12)**2.5 * 0.05 = 5e-32, and the plant's drop
# there is nil; at a 3 mg balance noise, noise readings over that
# regressor reach the controller's log and the pooled refit.
OFFSET_EDGE = {
    "powder": "glass-beads", "controller": ["model-based", "direct-pid"],
    "targets_mg": [20, 500], "trials": 2,
    "plant": {"balance": {"noise_sigma": 3.0},
              "powders": {"glass-beads": {
                  "particle_correction": 1.0,
                  "particle_diameter": 0.05 * (5.0 - 1e-12)}}}}


def past(value):
    """The next float above value."""
    return math.nextafter(value, math.inf)


def domain_corners():
    """(JSON path, value, inside) at and just past each edge of the config
    domain, each sign included; inside tells whether the domain admits
    the value, which the field's own sign rule may still reject."""
    for path, (low, high) in config._DOMAIN.items():
        edges = [(high, True), (past(high), False)]
        edges += [(low, True), (math.nextafter(low, 0.0), False)] if low \
            else [(0.0, True), (5e-324, True)]
        for value, inside in edges:
            yield path, value, inside
            yield path, -value, inside
    # the 2e6-step budget of a one-trial suite of two conditions, as
    # test_configs_at_and_past_the_domain_corners runs
    for max_steps, inside in ((10 ** 6, True), (10 ** 6 + 1, False)):
        yield "max_steps", max_steps, inside


def patch_at(path, value, powder):
    """The config patch that sets the field at path to value."""
    *sections, name = path.split(".")
    if sections == ["plant", "powders"]:
        sections.append(powder)
    patch = {name: [value] if name == "targets_mg" else value}
    for section in reversed(sections):
        patch = {section: patch}
    return patch


SMALL = dict(powder=["glass-beads"], targets_mg=[50], trials=2, seed=7)


def small_config(**kw):
    data = dict(SMALL)
    data.update(kw)
    return config_from_dict(data)


def record_for(final, status=TrialStatus.SUCCESS, target=500.0, index=0,
               steps=(), controller=MODEL_BASED, total_steps=3, time=10.0):
    return TrialRecord(
        trial_id=f"synthetic-{index}", powder="glass-beads",
        controller=controller, target_mg=target, trial_index=index,
        status=status, final_mass_mg=final, total_steps=total_steps,
        total_sim_time_s=time, steps=tuple(steps))


def bare_rigs(kin):
    """A rig_for for pooled_points that gives every powder Rig(kin): no
    offset, the pure power law."""
    return lambda powder: Rig(kin)


def step_points(records):
    """Each record with its steps' (L, t_pose_s, vibration,
    measured_delta_mg) points, the pairs pooled_points reads."""
    return [(record, [(row.l_command, row.t_pose_s, row.vibration,
                       row.measured_delta_mg) for row in record.steps])
            for record in records]


def trace_row(step, l, t, delta, vibration=False, probe=False):
    return StepTrace(step=step, l_command=l, t_pose_s=t, vibration=vibration,
                     predicted_mg=None, measured_delta_mg=delta,
                     cprime_gravity=None, cprime_vibration=None,
                     w_error_mg=0.0, sim_time_s=0.0, probe=probe)


def set_first_cell(trace, column, value):
    header, first, *rows = trace.read_text().splitlines()
    fields = first.split(",")
    fields[TRACE_COLUMNS.index(column)] = value
    trace.write_text("\n".join([header, ",".join(fields), *rows]) + "\n")


def renumber_trial(entry, index):
    """Give a summary.json trial entry another trial_index, with the
    trial_id that index makes."""
    entry["trial_index"] = index
    entry["trial_id"] = trial_id(entry["powder"], entry["controller"],
                                 entry["target_mg"], index)


def cut_last_line(trace):
    """Drop a trace CSV's last line, its line end with it."""
    data = trace.read_bytes()
    trace.write_bytes(data[:data.rindex(b"\r\n", 0, -2) + 2])


# The trial the report tests edit, the second in summary.json's index of
# the suite fixture, and its trace in the artifact directory.
EDITED_TRIAL = "glass-beads--model-based--t50--001"
EDITED_TRACE = f"trials/{EDITED_TRIAL}.csv"


def widen_every_command(trace):
    """Rewrite a trace CSV with every L beyond the valve's l_max."""
    header, *rows = trace.read_text().splitlines()
    fields = [row.split(",") for row in rows]
    trace.write_text("\n".join(
        [header] + [",".join([f[0], "999.0", *f[2:]]) for f in fields]) + "\n")


class TestConfigParsing:
    def test_empty_dict_is_the_default(self):
        assert config_from_dict({}) == ExperimentConfig()

    def test_unknown_keys_collected_across_levels(self):
        with pytest.raises(ConfigError) as err:
            config_from_dict({"bogus": 1,
                              "kinematics": {"nope": 2},
                              "pid_gains": {"zap": 3}})
        text = "\n".join(err.value.errors)
        assert "bogus" in text and "nope" in text and "zap" in text
        assert len(err.value.errors) == 3

    def test_controller_aliases(self):
        config = config_from_dict({"controller": ["model", "pid"]})
        assert config.controllers == (MODEL_BASED, DIRECT_PID)
        single = config_from_dict({"controller": "direct-pid"})
        assert single.controllers == (DIRECT_PID,)
        with pytest.raises(ConfigError):
            config_from_dict({"controller": "bang-bang"})

    def test_k_p_scalar_bounds(self):
        assert config_from_dict({"k_p": 1.0}).k_p == 1.0
        assert type(config_from_dict({"k_p": 1}).k_p) is float
        for bad in (0.0, 1.5, -0.2):
            with pytest.raises(ConfigError):
                config_from_dict({"k_p": bad})

    @pytest.mark.parametrize("k_p", [{"glass-beads": 0.8}, {}])
    def test_k_p_mapping_is_one_config_error(self, k_p, tmp_path, capsys):
        # one gain serves every powder; a per-powder mapping is refused
        # alike from JSON and from Python, and the CLI prints one line
        expected = ["k_p: must be a number in (0, 1]"]
        with pytest.raises(ConfigError) as from_json:
            config_from_dict({"k_p": k_p})
        with pytest.raises(ConfigError) as from_python:
            ExperimentConfig(k_p=k_p)
        assert from_json.value.errors == from_python.value.errors == expected
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"k_p": k_p}))
        for args in (["validate-config", "--config", str(path)],
                     ["run-suite", "--config", str(path),
                      "--out", str(tmp_path / "out")]):
            assert cli_main(args) == 2
            captured = capsys.readouterr()
            assert captured.err == f"config error: {expected[0]}\n"
        assert not (tmp_path / "out").exists()

    def test_target_validation(self):
        for bad in ([], [-5.0], [0.0], [True], ["50"]):
            with pytest.raises(ConfigError):
                config_from_dict({"targets_mg": bad})

    def test_count_and_seed_validation(self):
        for data in ({"trials": 0}, {"max_steps": 0}, {"trials": 2.5},
                     {"seed": -1}, {"seed": 2 ** 64}, {"seed": True}):
            with pytest.raises(ConfigError):
                config_from_dict(data)

    def test_colliding_targets_are_rejected(self):
        with pytest.raises(ConfigError) as info:
            config_from_dict({"targets_mg": [20, 20.0000001, 50, 50, 20.0]})
        collisions = [e for e in info.value.errors if "both key as" in e]
        # every colliding pair: three among the 20s, one duplicated 50
        assert len(collisions) == 4
        assert "20.0 and 20.0000001 both key as t20" in collisions[0]
        assert any("50.0 and 50.0 both key as t50" in e for e in collisions)
        config_from_dict({"targets_mg": [20, 20.001]})   # t20 vs t20.001

    def test_conditions_sharing_a_stream_key_are_rejected(self):
        # both text keys have the CRC-32 2027330778
        with pytest.raises(ConfigError) as info:
            config_from_dict({"powder": "glass-beads",
                              "controller": [MODEL_BASED, DIRECT_PID],
                              "targets_mg": [814.528, 1050.2]})
        assert info.value.errors == [
            "conditions glass-beads/model-based/814.528 and "
            "glass-beads/direct-pid/1050.2 share the stream key 2027330778; "
            "their trials would draw the same flow and balance noise"]
        config_from_dict({"powder": "glass-beads", "targets_mg": [814.528,
                                                                 1050.2]})

    @pytest.mark.parametrize("data, messages", [
        ({"kinematics": {"l_max": 1e12}},
         ["kinematics.l_max: must be 0 or 0.001 to 10000 in magnitude, got "
          "1000000000000.0"]),
        ({"kinematics": {"t_pose_max": 1e4}},
         ["kinematics: the envelope holds 8.6e+05 cells of the model-based "
          "controller's action grid, more than 100000; its action table "
          "takes about 233 bytes a cell"]),
        ({"kinematics": {"travel_rate": 1e-307}},
         ["kinematics.travel_rate: must be 0 or 0.001 to 1e+06 in "
          "magnitude, got 1e-307"]),
        ({"plant": {"balance": {"settle_time_mean": 1e308}}},
         ["plant.balance.settle_time_mean: must be at most 10000 in "
          "magnitude, got 1e+308"]),
        ({"powder": "glass-beads", "targets_mg": [1e199], "trials": 2,
          "plant": {"powders": {"glass-beads": {"bulk_density": 1e200,
                                                "initial_load": 1e200}}}},
         ["targets_mg: must be at most 1e+07 in magnitude, got 1e+199",
          "plant.powders['glass-beads'].bulk_density: must be at most 100 "
          "in magnitude, got 1e+200",
          "plant.powders['glass-beads'].initial_load: must be at most "
          "1e+07 in magnitude, got 1e+200"]),
        ({"powder": "msg", "controller": "direct-pid", "targets_mg": [3000],
          "trials": 1, "pid_gains": {"k_p": 1e308, "k_d": -1e308}},
         ["pid_gains.k_p: must be at most 1e+06 in magnitude, got 1e+308",
          "pid_gains.k_d: must be at most 1e+06 in magnitude, got -1e+308"]),
        ({"controller": [MODEL_BASED, DIRECT_PID], "trials": 834},
         ["max_steps: powders x controllers x targets x trials x max_steps "
          "is 2001600, more than 2000000"]),
    ], ids=["l-max", "t-pose-max", "travel-rate", "settle-time", "masses",
            "pid-gains", "run-size"])
    def test_configs_that_cannot_run_are_rejected(self, data, messages):
        with pytest.raises(ConfigError) as info:
            config_from_dict(data)
        assert info.value.errors == messages

    def test_run_bounds_hold_at_the_limits(self):
        # the grid cap counts model-based cells only
        config_from_dict({"controller": DIRECT_PID,
                          "kinematics": {"t_pose_max": 1e4}})
        # at the grid's 5-unit, 0.5 s steps: 2000 x 50 = 100 000 cells
        config_from_dict({"kinematics": {"l_max": 9995.0,
                                         "t_pose_max": 24.5}})
        with pytest.raises(ConfigError, match="more than 100000"):
            config_from_dict({"kinematics": {"l_max": 1e4,
                                             "t_pose_max": 24.5}})
        # the step budget counts every condition: 3 powders x 2
        # controllers x 4 targets x 833 trials x 100 steps fits in 2e6
        both = [MODEL_BASED, DIRECT_PID]
        config_from_dict({"controller": both, "trials": 833})
        with pytest.raises(ConfigError, match="is 2001600, more than"):
            config_from_dict({"controller": both, "trials": 834})
        one = {"powder": "glass-beads", "targets_mg": [50], "trials": 1}
        config_from_dict({**one, "max_steps": 2_000_000})
        with pytest.raises(ConfigError, match="is 2000001, more than"):
            config_from_dict({**one, "max_steps": 2_000_001})
        for name in ("settle_time_mean", "settle_time_sigma"):
            config_from_dict({"plant": {"balance": {name: 1e4}}})
            with pytest.raises(ConfigError, match=f"balance.{name}: must"):
                config_from_dict({"plant": {"balance": {name: past(1e4)}}})

    def test_fit_and_pid_bounds_hold_at_the_limits(self):
        def one_point(load, controller=MODEL_BASED):
            return config_from_dict({
                "powder": "glass-beads", "controller": controller,
                "targets_mg": [1e7], "trials": 1, "max_steps": 1,
                "plant": {"powders": {"glass-beads": {"initial_load": load}}}})

        # the domain is every controller's
        for controller in (MODEL_BASED, DIRECT_PID):
            one_point(1e7, controller)
            with pytest.raises(ConfigError, match=r"^plant\.powders\['glass-"
                               r"beads'\]\.initial_load: must be at most "
                               r"1e\+07 in magnitude, got 10000000\.000000002$"):
                one_point(past(1e7), controller)

        def msg_pid(controller=DIRECT_PID, **gains):
            return config_from_dict({
                "powder": "msg", "controller": controller,
                "targets_mg": [3000], "pid_gains": gains})

        for controller in (MODEL_BASED, DIRECT_PID):
            msg_pid(controller, k_p=-1e6, k_i=1e6, k_d=-1e6,
                    output_slope=1e6, integral_limit=1e12)
            for name, edge in (("k_p", -1e6), ("k_i", 1e6), ("k_d", 1e6),
                               ("output_slope", 1e6),
                               ("integral_limit", 1e12)):
                beyond = -past(1e6) if edge < 0 else past(edge)
                with pytest.raises(ConfigError) as info:
                    msg_pid(controller, **{name: beyond})
                assert info.value.errors == [
                    f"pid_gains.{name}: must be at most {abs(edge):g} in "
                    f"magnitude, got {beyond!r}"]

    def test_each_value_past_the_domain_is_one_error(self):
        for path, value, inside in domain_corners():
            if inside:
                continue
            with pytest.raises(ConfigError) as info:
                config_from_dict({
                    "controller": [MODEL_BASED, DIRECT_PID],
                    "targets_mg": [50], "trials": 1,
                    **patch_at(path, value, "msg")})
            (error,) = info.value.errors
            assert path.split(".")[-1] in error

    def test_the_smallest_grid_regressor_squares_to_a_normal_float(self):
        config = config_from_dict(SMALLEST_REGRESSOR)
        kin = config.kinematics
        assert (kin.l_min, kin.t_pose_min, kin.travel_rate) == (1e-3, 0.0,
                                                                1e6)
        x = regressor(Rig(kin), kin.l_min, kin.t_pose_min)
        assert x * x >= sys.float_info.min
        with pytest.raises(ConfigError, match="kinematics.l_min: must be 0 "
                                              "or 0.001 to 10000"):
            config_from_dict({**SMALLEST_REGRESSOR,
                              "kinematics": {"l_min": 0.000999}})

    def test_duplicate_powders_and_controllers_are_rejected(self):
        with pytest.raises(ConfigError) as info:
            config_from_dict({"powder": ["msg", "tio2", "msg"],
                              "controller": ["model", "model-based"]})
        assert info.value.errors == [
            "powder: 'msg' is listed more than once",
            "controller: 'model-based' is listed more than once"]

    def test_plant_powder_overrides_patch_the_archetype(self):
        config = config_from_dict(
            {"plant": {"powders": {"tio2": {"initial_load": 123.0}}}})
        assert config.powder_spec("tio2").initial_load == 123.0
        assert config.powder_spec("msg").initial_load == 5000.0
        with pytest.raises(ValueError) as info:
            archetype("granite", initial_load=123.0)
        assert str(info.value) == ("unknown powder archetype 'granite' "
                                   "(known: glass-beads, msg, tio2)")

    def test_plant_powder_overrides_validated(self):
        with pytest.raises(ConfigError):
            config_from_dict(
                {"plant": {"powders": {"tio2": {"nope": 1.0}}}})
        with pytest.raises(ConfigError):
            config_from_dict({"plant": {"powders": {"granite": {}}}})
        with pytest.raises(ConfigError):
            config_from_dict(
                {"plant": {"powders": {"tio2": {"bulk_density": -1.0}}}})

    def test_nested_sections_merge_with_defaults(self):
        config = config_from_dict(
            {"kinematics": {"l_max": 100.0},
             "plant": {"balance": {"noise_sigma": 0.0}}})
        assert config.kinematics.l_max == 100.0
        assert config.kinematics.travel_rate == 100.0
        assert config.balance.noise_sigma == 0.0
        assert config.balance.resolution == 0.1

    def test_invalid_nested_values_become_config_errors(self):
        with pytest.raises(ConfigError):
            config_from_dict({"kinematics": {"travel_rate": 0.0}})
        with pytest.raises(ConfigError):
            config_from_dict(
                {"plant": {"balance": {"settle_time_mean": 0.0}}})

    def test_top_level_must_be_a_mapping(self):
        with pytest.raises(ConfigError):
            config_from_dict([1, 2, 3])

    def test_load_config_roundtrip_and_errors(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(SMALL))
        assert load_config(path) == small_config()
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(bad)
        with pytest.raises(ConfigError):
            load_config(tmp_path / "missing.json")

    @pytest.mark.parametrize("data", [
        {"powder": None}, {"controller": None},
        {"targets_mg": [10 ** 400]}, {"tolerance_mg": 10 ** 400},
        {"k_p": 10 ** 400}, {"k_p": {"msg": 10 ** 400}},
        {"kinematics": {"l_max": 10 ** 400}},
        {"plant": {"powders": {"tio2": {"initial_load": 10 ** 400}}}},
        {"plant": {"powders": {"tio2": {"initial_load": "heavy"}}}},
        {"plant": {"powders": {"tio2": {"initial_load": True}}}},
        {"plant": 3}, {"plant": {"powders": []}}, {"out_dir": ""},
        {"kinematics": []},
    ], ids=["null-powder", "null-controller", "huge-target",
            "huge-tolerance", "huge-k_p", "huge-k_p-entry", "huge-l_max",
            "huge-override", "text-override", "bool-override",
            "plant-not-an-object", "powders-not-an-object", "empty-out-dir",
            "kinematics-not-an-object"])
    def test_odd_json_values_become_config_errors(self, data):
        with pytest.raises(ConfigError):
            config_from_dict(data)

    def test_python_configs_obey_the_json_rules(self):
        base = {"powder": ["glass-beads"], "trials": 1}
        for data, kwargs in (
                ({"targets_mg": [20, 20.0000001]},
                 {"targets_mg": [20, 20.0000001]}),
                ({"controller": ["model", "model-based"]},
                 {"controllers": ["model", "model-based"]}),
                ({"powder": None}, {"powders": None})):
            with pytest.raises(ConfigError) as from_json:
                config_from_dict({**base, **data})
            with pytest.raises(ConfigError) as from_python:
                ExperimentConfig(**{"powders": ["glass-beads"], "trials": 1,
                                    **kwargs})
            assert from_python.value.errors == from_json.value.errors
        with pytest.raises(ConfigError) as info:
            ExperimentConfig(kinematics={"l_max": 100.0})
        assert info.value.errors == ["kinematics: must be a ValveKinematics"]
        with pytest.raises(ConfigError) as info:
            dataclasses.replace(ExperimentConfig(), seed=2 ** 64)
        assert info.value.errors == [
            "seed: must be an unsigned 64-bit integer"]
        assert ExperimentConfig(powders="msg", controllers="pid",
                                targets_mg=[50], k_p=1) == config_from_dict(
            {"powder": "msg", "controller": "pid", "targets_mg": [50],
             "k_p": 1})

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")),
        ids=lambda path: path.name)
    def test_shipped_configs_load(self, path):
        assert load_config(path).trials >= 1

    def test_dict_roundtrip_is_identity(self):
        config = small_config(
            controller=["model", "pid"],
            k_p=0.7,
            plant={"powders": {"glass-beads": {"initial_load": 900.0}}})
        assert config_from_dict(config_to_dict(config)) == config


class TestComputeMetrics:
    def test_hand_computed_statistics(self):
        records = [record_for(499.0, index=0, total_steps=3, time=10.0),
                   record_for(503.0, status=TrialStatus.OVERSHOOT_FAIL,
                              index=1, total_steps=5, time=20.0)]
        (stats,) = compute_metrics(records)
        assert stats.trials == 2
        assert stats.successes == 1          # 503 overshot the +/-2 band
        assert stats.dropped_mean_mg == 501.0
        assert stats.dropped_std_mg == 2.8284271247461903
        assert stats.steps_mean == 4.0
        assert stats.time_mean_s == 15.0
        assert not stats.degenerate_stats

    def test_success_is_the_trial_status(self):
        # the stop rule's verdict counts, not a band of its own: a trial
        # that stalled or overshot at the band's edge is no success
        records = [
            record_for(498.0, status=TrialStatus.STEP_LIMIT_FAIL, index=0),
            record_for(502.0, status=TrialStatus.OVERSHOOT_FAIL, index=1),
            record_for(498.1, status=TrialStatus.SUCCESS, index=2)]
        (stats,) = compute_metrics(records)
        assert stats.trials == 3
        assert stats.successes == 1

    def test_spread_past_the_square_range_is_finite(self):
        # deviations of 2e307 square past the float range; the spread does
        # not
        records = [record_for(final, index=i) for i, final in
                   enumerate((1e307, -1e307, 3e307))]
        (stats,) = compute_metrics(records)
        assert stats.dropped_std_mg == pytest.approx(2e307, rel=1e-15)

    def test_single_trial_flags_degenerate_dispersion(self):
        (stats,) = compute_metrics([record_for(500.0)])
        assert stats.dropped_std_mg == 0.0
        assert stats.degenerate_stats

    def test_aborted_trials_are_excluded(self):
        records = [record_for(500.0, index=0),
                   record_for(float("nan"), status=TrialStatus.ABORTED,
                              index=1)]
        (stats,) = compute_metrics(records)
        assert stats.trials == 1

    def test_failed_statuses_still_count_toward_dispersion(self):
        records = [record_for(500.0, index=0),
                   record_for(700.0, status=TrialStatus.OVERSHOOT_FAIL,
                              index=1)]
        (stats,) = compute_metrics(records)
        assert stats.trials == 2
        assert stats.successes == 1
        assert stats.dropped_mean_mg == 600.0

    def test_groups_by_condition(self):
        records = [record_for(500.0, index=0),
                   record_for(20.0, target=20.0, index=0)]
        assert len(compute_metrics(records)) == 2


class TestPooledFits:
    def test_gate_mode_and_controller_filters(self):
        rows = [trace_row(1, 50.0, 2.0, 5.0),
                trace_row(2, 50.0, 2.0, 0.4),            # below the gate
                trace_row(3, 50.0, 2.0, 7.0, vibration=True)]
        records = [record_for(500.0, steps=rows),
                   record_for(500.0, steps=rows, controller=DIRECT_PID,
                              index=1)]
        points = pooled_points(step_points(records),
                               bare_rigs(ValveKinematics()))
        # the pid record contributes none
        assert [len(xs) for xs, _ in points.values()] == [1, 1]
        fits = pooled_fits(points)
        by_mode = {f.mode: f for f in fits}
        assert by_mode[GRAVITY].n_points == 1
        assert by_mode[VIBRATION].n_points == 1
        x = 50.0 ** 2.5 * (0.5 + 2.0)
        assert by_mode[GRAVITY].c_prime == pytest.approx(5.0 / x, rel=1e-12)
        assert by_mode[VIBRATION].c_prime == pytest.approx(7.0 / x, rel=1e-12)

    @pytest.mark.parametrize("l_command, delta, expected", [
        (50.0, 0.4999, "dropped"),
        (50.0, MIN_OBSERVABLE_MG, "kept"),
        (50.0, 1.0, "kept"),
        (50.0, -1.0, "dropped"),
        (50.0, -math.inf, "raised"),
        (50.0, math.inf, "raised"),
        (50.0, math.nan, "raised"),
        (ValveKinematics().l_max + 1.0, 1.0, "raised"),
    ], ids=["below-the-gate", "at-the-gate", "above-the-gate", "negative",
            "minus-inf", "inf", "nan", "outside-the-envelope"])
    def test_the_log_and_the_refit_judge_a_delta_alike(self, l_command,
                                                        delta, expected):
        # one model-based step with x > 0, judged by the controller's log
        # and by the pooled refit of its trace
        kin = ValveKinematics()
        record = record_for(500.0, steps=[trace_row(1, l_command, 2.0,
                                                     delta)])

        def judge(call):
            try:
                return "kept" if call() else "dropped", None
            except ValueError as exc:
                return "raised", str(exc)

        log, log_error = judge(lambda: ObservationLog(Rig(kin)).record(
            l_command, 2.0, False, delta))
        pooled, pooled_error = judge(
            lambda: pooled_points(step_points([record]), bare_rigs(kin)))
        assert log == pooled == expected
        if expected == "raised":
            assert pooled_error == f"trial synthetic-0 step 1: {log_error}"

    def test_aborted_trials_are_left_out(self):
        # a trial aborts on a reading that is not finite; its last delta
        # is then nan and must not reach the refit
        rows = [trace_row(1, 50.0, 2.0, 5.0),
                trace_row(2, 50.0, 2.0, math.nan)]
        aborted = record_for(500.0, status=TrialStatus.ABORTED, steps=rows)
        rigs = bare_rigs(ValveKinematics())
        assert pooled_points(step_points([aborted]), rigs) == {}
        kept = record_for(500.0, steps=rows[:1], index=1)
        points = pooled_points(step_points([aborted, kept]), rigs)
        assert points == pooled_points(step_points([kept]), rigs)
        assert [len(xs) for xs, _ in points.values()] == [1]

    def test_equal_one_fit_coefficient_per_powder_and_mode(self):
        # msg at 3000 mg latches vibration, so both of its modes are pooled
        config = small_config(powder=["glass-beads", "msg"],
                              controller=[MODEL_BASED, DIRECT_PID],
                              targets_mg=[3000])
        records = run_suite(config, write_artifacts=False).trials
        gated: dict[str, list[Observation]] = {}
        for record in records:
            if record.controller == MODEL_BASED:
                gated.setdefault(record.powder, []).extend(
                    Observation(row.l_command, row.t_pose_s, row.vibration,
                                row.measured_delta_mg)
                    for row in record.steps
                    if row.measured_delta_mg >= MIN_OBSERVABLE_MG)
        expected = []
        for powder, observations in gated.items():
            rig = config.rig(powder)
            assert rig.l_offset > 0
            for mode in (GRAVITY, VIBRATION):
                if selected := [o for o in observations
                                if o.vibration == (mode == VIBRATION)]:
                    fit = fit_coefficient(selected, rig, mode)
                    expected.append(PooledFit(powder, mode, fit.c_prime,
                                              fit.r_squared, len(selected)))
        assert [(f.powder, f.mode) for f in expected] == [
            ("glass-beads", GRAVITY), ("msg", GRAVITY), ("msg", VIBRATION)]
        assert pooled_fits(pooled_points(step_points(records), config.rig)) \
            == expected


    def test_the_report_refits_under_the_rig_the_run_took(self, tmp_path,
                                                          capsys,
                                                          monkeypatch):
        # ExperimentConfig.rig alone makes a config's Rigs: a record put
        # in through it, here with each offset 2.5 commands above the
        # powder's, reaches the controllers, the run's pooled refit and
        # the report's refit alike, and no config key holds it
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"powder": ["glass-beads", "msg"],
                                    "targets_mg": [20, 500], "trials": 2}))
        default = tmp_path / "default"
        assert cli_main(["run-suite", "--config", str(path),
                         "--out", str(default)]) == 0
        build = ExperimentConfig.rig

        def rig(config, powder):
            built = build(config, powder)
            return dataclasses.replace(built, l_offset=built.l_offset + 2.5)

        monkeypatch.setattr(ExperimentConfig, "rig", rig)
        out = tmp_path / "out"
        assert cli_main(["run-suite", "--config", str(path),
                         "--out", str(out)]) == 0
        assert cli_main(["report", str(out)]) == 0
        stored = json.loads((out / "summary.json").read_text())
        assert stored["config"] == json.loads(
            (default / "summary.json").read_text())["config"]
        assert stored["pooled_fits"] != json.loads(
            (default / "summary.json").read_text())["pooled_fits"]
        assert len(list((out / "report").glob("fit_*.csv"))) >= 2
        # the first probe rung is the first command above the record's
        # offset: msg's 8.4 + 2.5 puts it at 15, not config.rig's 10
        first = {record.powder: record.steps[0].l_command
                 for record in run_suite(config_from_dict(json.loads(
                     path.read_text())), write_artifacts=False).trials}
        monkeypatch.undo()
        assert first == {"glass-beads": 5.0, "msg": 15.0}
        # under config.rig's own record the refit no longer agrees
        capsys.readouterr()
        assert cli_main(["report", str(out)]) == 1
        assert "pooled_fits glass-beads / gravity: c_prime stored" \
            in capsys.readouterr().err


class TestRunTrial:
    def test_is_deterministic(self):
        config = small_config()
        first = run_trial(config, 1)
        second = run_trial(config, 1)
        assert first == second
        assert first != run_trial(config, 0)

    def test_matches_in_suite_execution(self):
        # suite trials take their streams from one batch over the suite,
        # a standalone trial from a batch of its own
        config = small_config(powder=["glass-beads", "msg"],
                              controller=["model-based", "direct-pid"],
                              targets_mg=[20, 50, 200])
        summary = run_suite(config, write_artifacts=False)
        assert len(summary.trials) == 2 * 2 * 3 * config.trials
        for record in summary.trials:
            assert record == run_trial(
                config, record.trial_index, powder=record.powder,
                controller=record.controller, target_mg=record.target_mg)

    def test_requires_a_pinned_condition(self):
        with pytest.raises(ConfigError):
            run_trial(ExperimentConfig(), 0)
        record = run_trial(ExperimentConfig(), 0, powder="glass-beads",
                           controller="model", target_mg=50.0)
        assert record.controller == MODEL_BASED
        assert record.status is TrialStatus.SUCCESS
        # a pick of the config's own value in another type is checked as
        # a new value: an int target becomes a float, a bool is rejected
        record = run_trial(small_config(), 0, target_mg=50)
        assert type(record.target_mg) is float
        assert record == run_trial(small_config(), 0, target_mg=50.0)
        with pytest.raises(ConfigError, match="got True"):
            run_trial(small_config(targets_mg=[1]), 0, target_mg=True)

    def test_rejects_a_bad_trial_index(self):
        for index in (-1, 1.5, True):
            with pytest.raises(ConfigError):
                run_trial(small_config(), index)

    def test_depleted_hopper_fails_cleanly(self):
        config = small_config(
            targets_mg=[3000],
            plant={"balance": {"noise_sigma": 0.0},
                   "powders": {"glass-beads": {"initial_load": 100.0,
                                               "flow_noise_sigma": 0.0}}})
        record = run_trial(config, 0)
        assert record.status is TrialStatus.DEPLETED_FAIL
        assert record.final_mass_mg == 100.0

    def test_trace_rows_are_sequential_and_timed(self):
        config = small_config(plant={"balance": {"settle_time_sigma": 0.0}})
        record = run_trial(config, 0)
        assert record.status is TrialStatus.SUCCESS
        assert [row.step for row in record.steps] == \
            list(range(1, record.total_steps + 1))
        clock = 0.0
        for row in record.steps:
            clock += 2.0 * row.l_command / 100.0 + row.t_pose_s + 8.0
            assert row.sim_time_s == pytest.approx(clock, rel=1e-12)
        assert record.total_sim_time_s == pytest.approx(clock, rel=1e-12)

    def test_a_trial_runs_at_the_grid_cell_cap(self, table_builds):
        # 2000 commands x 50 dwells: the most cells the config admits
        config = small_config(controller=MODEL_BASED, targets_mg=[500],
                              kinematics={"l_max": 9995.0,
                                          "t_pose_max": 24.5})
        kin, grid = config.kinematics, control.ActionGrid()
        rig = config.rig("glass-beads")
        assert len(grid.l_values(kin)) == 2000
        assert len(grid.t_values(kin)) == 50
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            table = control._table_for(rig, grid)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        print(f"action table at the cap: {held / 1e6:.1f} MB, "
              f"{held / 100_000:.0f} bytes a cell")
        assert held < 40e6
        assert len(table.cells[True]) == 100_000
        record = run_trial(config, 0)
        assert record.status is TrialStatus.SUCCESS
        # the trial searched the table just built
        assert table_builds == [(rig, grid)]


class TestStreamRecipe:
    """README's numpy-only recipe, checked from outside the package: suite
    trial i of a condition draws its flow and balance noise from
    default_rng(SeedSequence(seed, spawn_key=(crc32(text key), i, child)))
    with child 0 and 1, where the text key is powder/controller/target
    and the target is written f"{target:g}"."""

    @pytest.mark.parametrize("source", ["stream_key", "seed_sequence"])
    def test_replayed_actions_read_the_trace(self, source):
        config = small_config(powder=["glass-beads", "msg"],
                              controller=["model-based", "direct-pid"],
                              targets_mg=[20, 500.5], trials=3,
                              plant={"powders": {"glass-beads": {
                                  "flow_noise_sigma": 0.2}}})
        summary = run_suite(config, write_artifacts=False)
        for record in summary.trials:
            text_key = (f"{record.powder}/{record.controller}/"
                        f"{record.target_mg:g}").encode()
            key = (zlib.crc32(text_key), record.trial_index)
            spec = config.powder_spec(record.powder)
            if source == "stream_key":
                replay = plant.SimulatedPlant(
                    spec, config.kinematics, config.balance,
                    seed=config.seed, stream_key=key)
            else:
                replay = plant.SimulatedPlant(
                    spec, config.kinematics, config.balance,
                    states=seed_sequence_states(config.seed, key))
            assert_replay_reads_the_trace(replay, record)

    def test_a_two_word_trial_index_reads_the_trace(self):
        # run-trial admits any index; one of 2**32 or more takes two
        # 32-bit words in the key, the widest key a package path sends
        config = small_config(powder="msg", controller="model-based",
                              targets_mg=[50], trials=1)
        index = 2 ** 32 + 5
        record = run_trial(config, index)
        key = (zlib.crc32(b"msg/model-based/50"), index)
        replay = plant.SimulatedPlant(
            config.powder_spec("msg"), config.kinematics, config.balance,
            states=seed_sequence_states(config.seed, key))
        assert_replay_reads_the_trace(replay, record)


def seed_sequence_states(seed, key):
    """The flow and balance stream states of a stream key, from numpy's
    SeedSequence: default_rng(SeedSequence(...)) seeds PCG64 with the
    sequence's generate_state(4, uint64)."""
    return np.stack([np.random.SeedSequence(
        seed, spawn_key=(*key, child)).generate_state(4, np.uint64)
        for child in (0, 1)])


def assert_replay_reads_the_trace(replay, record):
    """A fresh plant, driven by the trace's actions, reads every measured
    delta, clock and the final mass the trace holds."""
    reading, _ = replay.read_balance(False)
    assert record.steps
    for row in record.steps:
        replay.execute(row.l_command, row.t_pose_s, row.vibration)
        previous = reading
        reading, _ = replay.read_balance()
        assert reading - previous == row.measured_delta_mg
        assert replay.sim_clock == row.sim_time_s
    assert reading == record.final_mass_mg


# Digest of each shipped config's in-memory suite, measured when the
# controller and the pooled refit took each powder's Beverloo offset into
# the drop model; noise-free.json, whose particle_correction is 0 and so
# its offset, did not move. OUTCOMES.json holds what that moved. A change
# meant only to be faster must leave them; a change that moves the
# simulation on purpose updates them and says why.
GOLDEN_SUITE_DIGESTS = {
    "default.json": "e19df6050bb0cf4c",
    "noise-free.json": "161b799d857bee6a",
    "pid-contrast.json": "e43509bbb587d6e0",
    "quick.json": "6d2795f886589a80",
}


def suite_digest(summary):
    """Hash of every StepTrace field, status and final mass of each trial."""
    digest = hashlib.sha256()
    for record in summary.trials:
        digest.update(repr((
            record.trial_id, record.status.value, record.final_mass_mg,
            [tuple(row) for row in record.steps])).encode())
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(GOLDEN_SUITE_DIGESTS))
def test_shipped_configs_simulate_as_pinned(name):
    summary = run_suite(load_config(CONFIGS / name), write_artifacts=False)
    assert suite_digest(summary) == GOLDEN_SUITE_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_SUITE_DIGESTS))
def test_every_search_step_predicts_c_prime_times_the_regressor(name):
    # A search pick's predicted_mg is the product the fit identifies,
    # C' * x: the coefficient of the step's mode, as the trace records it,
    # times identify.regressor of the executed action, bit for bit.
    # The regressor takes the powder's Beverloo offset, from
    # ExperimentConfig.rig, where the controller's rig came from.
    config = load_config(CONFIGS / name)
    searched = 0
    for record in run_suite(config, write_artifacts=False).trials:
        rig = config.rig(record.powder)
        for row in record.steps:
            if row.predicted_mg is None:
                continue
            assert not row.probe
            c = row.cprime_vibration if row.vibration else row.cprime_gravity
            assert row.predicted_mg == c * regressor(rig, row.l_command,
                                                     row.t_pose_s), (
                record.trial_id, row.step)
            searched += 1
    assert searched > 0


# Run in a child with numpy's AVX-512 kernels off: prints whether numpy
# still reports them and each shipped suite's digest.
_NO_AVX512_DIGESTS = """\
import json
import sys

from numpy._core._multiarray_umath import __cpu_features__

sys.path.insert(0, sys.argv[1])
from test_harness import CONFIGS, GOLDEN_SUITE_DIGESTS, suite_digest

from powderdose import load_config, run_suite

print(json.dumps({"X86_V4": __cpu_features__["X86_V4"], "digests": {
    name: suite_digest(run_suite(load_config(CONFIGS / name),
                                 write_artifacts=False))
    for name in GOLDEN_SUITE_DIGESTS}}))
"""


def test_shipped_configs_simulate_as_pinned_without_avx512(capfd):
    # The pinned bytes may not depend on which SIMD kernels numpy picks
    # for this CPU. X86_V4 is numpy 2's name for its AVX-512 group.
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:   # numpy 1.x, whose groups have other names
        __cpu_features__ = {}
    if not __cpu_features__.get("X86_V4"):
        reason = "numpy reports no X86_V4 kernels here to switch off"
        with capfd.disabled():
            print(f"[skip] {reason}", flush=True)
        pytest.skip(reason)
    proc = subprocess.run(
        [sys.executable, "-c", _NO_AVX512_DIGESTS,
         str(Path(__file__).resolve().parent)],
        capture_output=True, text=True,
        env=checkout_env({"NPY_DISABLE_CPU_FEATURES": "X86_V4"}))
    assert proc.returncode == 0, proc.stderr
    child = json.loads(proc.stdout)
    assert child["X86_V4"] is False
    assert child["digests"] == GOLDEN_SUITE_DIGESTS


# Digest of every file that run-suite and report write for quick.json,
# report/ included, measured with GOLDEN_SUITE_DIGESTS. A change to any
# artifact byte shows here.
GOLDEN_QUICK_TREE_DIGEST = "1ea364945052f42f"


def tree_digest(root):
    """Hash of each file's path under root and the hash of its bytes."""
    digest = hashlib.sha256()
    for name in sorted(path.relative_to(root).as_posix()
                       for path in root.rglob("*") if path.is_file()):
        digest.update(name.encode() + b"\0")
        digest.update(hashlib.sha256((root / name).read_bytes()).digest())
    return digest.hexdigest()[:16]


def test_quick_config_artifacts_are_pinned(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli_main(["run-suite", "--config", str(CONFIGS / "quick.json"),
                     "--out", str(out)]) == 0
    assert cli_main(["report", str(out)]) == 0
    capsys.readouterr()
    assert tree_digest(out) == GOLDEN_QUICK_TREE_DIGEST


# The same pin for the configs whose report writes vibration fit files
# (default.json: msg and tio2) and for the PID contrast, measured with
# GOLDEN_SUITE_DIGESTS; a change that moves the simulation re-pins these.
GOLDEN_TREE_DIGESTS = {
    "default.json": "9edc6e7538a7f5a8",
    "pid-contrast.json": "eeae739c71aa9e5f",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_TREE_DIGESTS))
def test_shipped_config_artifacts_are_pinned(tmp_path, capsys, name):
    out = tmp_path / "out"
    assert cli_main(["run-suite", "--config", str(CONFIGS / name),
                     "--out", str(out)]) == 0
    assert cli_main(["report", str(out)]) == 0
    capsys.readouterr()
    assert tree_digest(out) == GOLDEN_TREE_DIGESTS[name]


def test_default_protocol_lands_within_20_mg_at_seeds_1_to_10():
    """The abstract's worst error, about 20 mg, on the default.json
    protocol at seeds 1-10 (1200 trials); seeds 11-60 are held out for
    the CI check."""
    base = load_config(CONFIGS / "default.json")
    worst, past = 0.0, []
    for seed in range(1, 11):
        summary = run_suite(dataclasses.replace(base, seed=seed),
                            write_artifacts=False)
        errors = {r.trial_id: abs(r.final_mass_mg - r.target_mg)
                  for r in summary.trials}
        print(f"seed {seed}: worst |err| {max(errors.values()):.2f} mg")
        worst = max(worst, *errors.values())
        past += [f"seed {seed} {trial}" for trial, err in errors.items()
                 if err > 20.0]
    assert past == []
    assert worst <= 20.0


def test_traced_names_see_every_unit_of_work(monkeypatch):
    """The names the benchmark tracer wraps stay on the hot path.

    One select_action call finds each model action that is not a probe,
    one quantize_reading call makes each balance reading, one
    ObservationLog.record call takes each ingested model step, each probe
    repeat that consumes the controller's pending candidate and each
    first observation that repeat confirms, and one harness fit_points
    call makes each pooled fit. The tracer's harness.pooled_fit boundary
    still names harness:fit_coefficient, which harness no longer binds,
    so that boundary is absent until it is re-pointed at
    harness:fit_points.
    """
    seen: dict[str, list] = {}

    def spy(owner, name):
        original = getattr(owner, name)
        results = seen[name] = []

        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            results.append(result)
            return result
        monkeypatch.setattr(owner, name, wrapper)

    spy(control, "select_action")
    spy(harness, "fit_points")
    spy(plant, "quantize_reading")
    spy(ObservationLog, "record")
    repeats = 0
    step = DispensingController.step

    def count_repeats(ctl, *args):
        nonlocal repeats
        pending = ctl._candidate
        decision = step(ctl, *args)
        repeats += pending is not None and ctl._candidate is None
        return decision
    monkeypatch.setattr(DispensingController, "step", count_repeats)
    summary = run_suite(small_config(
        powder=["glass-beads", "msg"], controller=[MODEL_BASED, DIRECT_PID],
        targets_mg=[20, 500]), write_artifacts=False)
    model = [r for r in summary.trials if r.controller == MODEL_BASED]
    assert 0 < len(model) < len(summary.trials)
    rows = [row for r in model for row in r.steps]
    selected = [s for s in seen["select_action"] if s.action is not None]
    assert len(selected) == sum(not row.probe for row in rows) > 0
    # a search whose mode has no usable fit hands the step to a probe
    assert len(seen["select_action"]) - len(selected) \
        <= sum(row.probe for row in rows)
    assert len(seen["quantize_reading"]) \
        == sum(r.total_steps + 1 for r in summary.trials)
    # the last step of a trial is never ingested; a mode fitted by the
    # end of a trial was confirmed once, by a repeat the log accepted and
    # then the candidate it repeated
    ingested = sum(not row.probe for r in model for row in r.steps[:-1])
    confirmed = sum((r.steps[-1].cprime_gravity is not None)
                    + (r.steps[-1].cprime_vibration is not None)
                    for r in model if r.steps)
    assert repeats >= confirmed > 0
    assert len(seen["record"]) == ingested + repeats + confirmed
    assert len(seen["fit_points"]) == len(summary.pooled_fits) > 0


def test_steps_call_the_traced_names(monkeypatch):
    """Every step goes through the module and class attributes the
    benchmark tracer wraps, looked up when called: one
    SimulatedPlant.execute per executed step, one read_balance and one
    quantize_reading per reading (each step's and each trial's tare), and
    control.select_action for the model's searches. A name bound when its
    caller was defined, not looked up at the call, would count 0 here."""
    calls = dict.fromkeys(("select_action", "quantize_reading", "execute",
                           "read_balance"), 0)

    def count(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    count(control, "select_action")
    count(plant, "quantize_reading")
    count(plant.SimulatedPlant, "execute")
    count(plant.SimulatedPlant, "read_balance")
    summary = run_suite(small_config(
        powder=["glass-beads", "tio2"], controller=[MODEL_BASED, DIRECT_PID],
        targets_mg=[20, 500]), write_artifacts=False)
    assert {r.controller for r in summary.trials} == {MODEL_BASED, DIRECT_PID}
    steps = sum(r.total_steps for r in summary.trials)
    assert calls["execute"] == steps > 0
    assert calls["read_balance"] == calls["quantize_reading"] \
        == steps + len(summary.trials)
    assert calls["select_action"] > 0


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    out = tmp_path_factory.mktemp("artifacts")
    config = small_config(controller=[MODEL_BASED, DIRECT_PID])
    summary = run_suite(config, out_dir=out)
    return config, summary, out


@pytest.fixture(scope="module")
def quick_run(tmp_path_factory):
    """A configs/quick.json run and its report, through the CLI."""
    out = tmp_path_factory.mktemp("quick") / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli_main(["run-suite", "--config",
                         str(CONFIGS / "quick.json"), "--out", str(out)]) == 0
        assert cli_main(["report", str(out)]) == 0
    return out


GOLDEN_TRACE = (
    "step,L,t_pose_s,vibration,predicted_mg,measured_delta_mg,"
    "cprime_gravity,cprime_vibration,w_error_mg,sim_time_s\r\n"
    "1,0.30000000000000004,2.5,1,,1.2,,3.5e-06,-0.75,12.0\r\n"
    "2,40.0,0.0,0,2.25,0.0,1e-05,,48.8,30.5\r\n")
GOLDEN_SUMMARY_CSV = (
    "powder,controller,target_mg,trials,successes,dropped_mean_mg,"
    "dropped_std_mg,steps_mean,steps_std,time_mean_s,time_std_s\r\n"
    "glass-beads,model-based,50.0,1,0,0.30000000000000004,0.0,2.0,0.0,"
    "30.5,0.0\r\n")
GOLDEN_SUMMARY_JSON_TAIL = """\
  "conditions": [
    {
      "powder": "glass-beads",
      "controller": "model-based",
      "target_mg": 50.0,
      "trials": 1,
      "successes": 0,
      "dropped_mean_mg": 0.30000000000000004,
      "dropped_std_mg": 0.0,
      "steps_mean": 2.0,
      "steps_std": 0.0,
      "time_mean_s": 30.5,
      "time_std_s": 0.0,
      "degenerate_stats": true
    }
  ],
  "pooled_fits": [
    {
      "powder": "glass-beads",
      "mode": "gravity",
      "c_prime": 1e-05,
      "r_squared": null,
      "n_points": 1
    }
  ],
  "trials": [
    {
      "trial_id": "glass-beads--model-based--t50--003",
      "powder": "glass-beads",
      "controller": "model-based",
      "target_mg": 50.0,
      "trial_index": 3,
      "status": "overshoot-fail",
      "final_mass_mg": 51.2,
      "total_steps": 2,
      "total_sim_time_s": 30.5
    }
  ]
}
"""


class TestArtifactFormats:
    """Exact bytes of each persisted format for one hand-built suite.

    Rerun-equals-rerun cannot see a format change that both runs share;
    these strings can. The record has an empty (None) cell, a vibration
    step and a float whose repr needs 17 digits.
    """

    @pytest.fixture
    def written(self, tmp_path):
        record = TrialRecord(
            trial_id=trial_id("glass-beads", MODEL_BASED, 50.0, 3),
            powder="glass-beads", controller=MODEL_BASED, target_mg=50.0,
            trial_index=3, status=TrialStatus.OVERSHOOT_FAIL,
            final_mass_mg=51.2, total_steps=2, total_sim_time_s=30.5,
            steps=(
                StepTrace(step=1, l_command=0.1 + 0.2, t_pose_s=2.5,
                          vibration=True, predicted_mg=None,
                          measured_delta_mg=1.2, cprime_gravity=None,
                          cprime_vibration=3.5e-06, w_error_mg=-0.75,
                          sim_time_s=12.0),
                StepTrace(step=2, l_command=40.0, t_pose_s=0.0,
                          vibration=False, predicted_mg=2.25,
                          measured_delta_mg=0.0, cprime_gravity=1e-05,
                          cprime_vibration=None, w_error_mg=48.8,
                          sim_time_s=30.5),
            ))
        stats = ConditionStats(
            powder="glass-beads", controller=MODEL_BASED, target_mg=50.0,
            trials=1, successes=0, dropped_mean_mg=0.1 + 0.2,
            dropped_std_mg=0.0, steps_mean=2.0, steps_std=0.0,
            time_mean_s=30.5, time_std_s=0.0, degenerate_stats=True)
        fit = PooledFit(powder="glass-beads", mode=GRAVITY, c_prime=1e-05,
                        r_squared=None, n_points=1)
        write_suite_artifacts(
            SuiteSummary(small_config(), (stats,), (fit,), (record,)),
            tmp_path)
        return record, tmp_path

    def test_trace_csv_bytes(self, written):
        record, out = written
        path = out / "trials" / "glass-beads--model-based--t50--003.csv"
        assert path.read_bytes() == GOLDEN_TRACE.encode()
        assert read_trace_csv(path) == list(record.steps)

    def test_summary_csv_bytes(self, written):
        _, out = written
        assert (out / "summary.csv").read_bytes() \
            == GOLDEN_SUMMARY_CSV.encode()

    def test_summary_json_entries(self, written):
        record, out = written
        text = (out / "summary.json").read_text()
        assert text.endswith(GOLDEN_SUMMARY_JSON_TAIL)
        assert text[:-len(GOLDEN_SUMMARY_JSON_TAIL)].endswith("},\n")
        # the record without its steps, beside the trace's columns
        columns = [list(column) for column in zip(*record.steps)]
        assert load_suite_records(out)[::2] == (
            [(record._replace(steps=()), columns[:len(TRACE_COLUMNS)])], [])


# Floats of every kind a float cell can hold, the edge values always drawn
FLOAT_CELLS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324,
                     2.2250738585072014e-308, 1e308, -1e308]),
    st.floats())
STEP_TRACES = st.builds(
    StepTrace, step=st.integers(0, 2 ** 63), l_command=FLOAT_CELLS,
    t_pose_s=FLOAT_CELLS, vibration=st.booleans(),
    predicted_mg=st.none() | FLOAT_CELLS, measured_delta_mg=FLOAT_CELLS,
    cprime_gravity=st.none() | FLOAT_CELLS,
    cprime_vibration=st.none() | FLOAT_CELLS, w_error_mg=FLOAT_CELLS,
    sim_time_s=FLOAT_CELLS, true_delta_mg=FLOAT_CELLS, probe=st.booleans())


def csv_writer_trace(steps):
    """A trace CSV as csv.writer writes it, the reference for the format."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(TRACE_COLUMNS)
    for row in steps:
        writer.writerow([int(getattr(row, attr)) if cell == "0/1"
                         else getattr(row, attr)
                         for _, attr, cell in artifacts._TRACE_FORMAT])
    return buffer.getvalue().encode()


def same_cell(parsed, original):
    if isinstance(original, float) and math.isnan(original):
        return isinstance(parsed, float) and math.isnan(parsed)
    if isinstance(original, float):
        return (parsed == original
                and math.copysign(1.0, parsed) == math.copysign(1.0, original))
    return parsed == original and type(parsed) is type(original)


def numbered_steps(count):
    return [trace_row(step, 0.5 * step, 1.0, 0.1 * step)
            for step in range(1, count + 1)]


class TestTraceCsvIo:
    """The trace writer formats every line itself; these pin it to the csv
    module's output and the reader to its input."""

    @settings(max_examples=200, deadline=None)
    @given(steps=st.lists(STEP_TRACES, max_size=6))
    def test_bytes_and_values_match_the_csv_module(self, steps):
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "trace.csv"
            write_trace_csv(record_for(0.0, steps=steps), path)
            assert path.read_bytes() == csv_writer_trace(steps)
            # the reader takes only steps numbered from 1
            steps = [row._replace(step=number)
                     for number, row in enumerate(steps, 1)]
            write_trace_csv(record_for(0.0, steps=steps), path)
            data = path.read_bytes()
            assert data == csv_writer_trace(steps)
            # the written CRLF form, then the LF and the CR forms
            parsed_forms = []
            for line_end in (b"\r\n", b"\n", b"\r"):
                path.write_bytes(data.replace(b"\r\n", line_end))
                parsed_forms.append(read_trace_csv(path))
        for parsed in parsed_forms:
            assert len(parsed) == len(steps)
            for got, original in zip(parsed, steps):
                for _, attr, _ in artifacts._TRACE_FORMAT:
                    assert same_cell(getattr(got, attr),
                                     getattr(original, attr)), \
                        (attr, getattr(got, attr), getattr(original, attr))
                assert (got.true_delta_mg, got.probe) == (0.0, False)

    def test_a_shorter_trace_replaces_a_longer_one(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace_csv(record_for(0.0, steps=numbered_steps(30)), path)
        short = record_for(0.0, steps=numbered_steps(3))
        write_trace_csv(short, path)
        assert path.read_bytes() == csv_writer_trace(short.steps)
        assert read_trace_csv(path) == list(short.steps)

    @pytest.mark.parametrize("old_size", [3, 1000],
                             ids=["shorter-old-file", "longer-old-file"])
    def test_writes_the_os_cuts_short_are_finished(self, tmp_path,
                                                   monkeypatch, old_size):
        # os.write may take fewer bytes than it is given; write_bytes
        # writes the rest, and only the rest, until the data is whole
        path = tmp_path / "file"
        path.write_bytes(b"x" * old_size)
        data = bytes(range(256)) * 2
        real_write, sizes = os.write, []

        def write_at_most_7(fd, chunk):
            sizes.append(len(chunk))
            return real_write(fd, chunk[:7])
        monkeypatch.setattr(os, "write", write_at_most_7)
        artifacts.write_bytes(path, data)
        monkeypatch.undo()
        assert path.read_bytes() == data
        assert sizes == list(range(len(data), 0, -7))

    @pytest.mark.parametrize("width", [3, 11])
    def test_a_row_of_the_wrong_width_names_its_line(self, tmp_path, width):
        path = tmp_path / "trace.csv"
        write_trace_csv(record_for(0.0, steps=numbered_steps(30)), path)
        lines = path.read_bytes().split(b"\r\n")
        cells = lines[4].split(b",")
        lines[4] = b",".join((cells * 2)[:width])
        path.write_bytes(b"\r\n".join(lines))
        with pytest.raises(ValueError,
                           match=f"line 5 has {width} fields, expected 10$"):
            read_trace_csv(path)

    @pytest.mark.parametrize("line, column, text, message", [
        (4, "measured_delta_mg", "x",
         "line 4: measured_delta_mg must be a number, got 'x'"),
        (4, "cprime_gravity", "1e", "line 4: cprime_gravity must be a "
                                    "number, got '1e'"),
        (4, "step", "1.5", "line 4: step must be an integer, got '1.5'"),
        # a step that is an integer, but not its row's number
        (3, "step", "7", "line 3: step must be 2, got '7'"),
        (4, "vibration", "2", "line 4: vibration must be 0 or 1, got '2'"),
        (4, "L", "1,2", "line 4 has 11 fields, expected 10"),
        # no cell is ever quoted, so a quoted cell that spans two lines
        # is no cell: its first line is one field short of a row
        (2, "step", '"1\r\n"', "line 2 has 1 fields, expected 10"),
    ], ids=["float", "optional-float", "int", "step", "bool", "width",
            "quoted-cell"])
    def test_a_bad_cell_names_its_line(self, tmp_path, line, column, text,
                                       message):
        path = tmp_path / "trace.csv"
        write_trace_csv(record_for(0.0, steps=numbered_steps(4)), path)
        lines = path.read_bytes().split(b"\r\n")
        cells = lines[line - 1].split(b",")
        cells[TRACE_COLUMNS.index(column)] = text.encode()
        lines[line - 1] = b",".join(cells)
        path.write_bytes(b"\r\n".join(lines))
        with pytest.raises(ValueError, match=f"{message}$"):
            read_trace_csv(path)

    def test_a_trace_cut_short_never_reads_as_a_whole_one(self, tmp_path):
        """Every proper prefix of a trace is an error that names the file,
        or reads back as fewer leading rows; only the prefix that drops
        the last LF of the final CRLF reads back whole."""
        steps = numbered_steps(3) + [trace_row(4, 2.0, 1.0, 0.4)._replace(
            predicted_mg=0.1 + 0.2, cprime_gravity=1e-05,
            sim_time_s=12.300000000000001)]
        path = tmp_path / "trace.csv"
        write_trace_csv(record_for(0.0, steps=steps), path)
        data = path.read_bytes()
        for end in range(len(data)):
            path.write_bytes(data[:end])
            try:
                parsed = read_trace_csv(path)
            except ValueError as exc:
                assert str(exc).startswith(f"{path}: "), end
                continue
            if end == len(data) - 1:
                assert parsed == steps
            else:
                assert parsed == steps[:len(parsed)] != steps, end

    @pytest.mark.parametrize("end", [b"\r\n", b"\n", b"\r"],
                             ids=["crlf", "lf", "cr"])
    def test_a_byte_that_is_not_utf8_names_its_line(self, tmp_path, end):
        path = tmp_path / "trace.csv"
        write_trace_csv(record_for(0.0, steps=numbered_steps(4)), path)
        lines = path.read_bytes().split(b"\r\n")
        lines[3] = lines[3][:5] + b"\xe9" + lines[3][5:]
        path.write_bytes(end.join(lines))
        with pytest.raises(ValueError, match=(
                f"^{re.escape(str(path))}: line 4: byte 0xe9 is not UTF-8 "
                f"\\(invalid continuation byte\\)$")):
            read_trace_csv(path)


class TestFitCsvIo:
    """The fit CSV writer formats every line itself; this pins it to the
    csv module's output and to what csv.reader parses back."""

    @settings(max_examples=200, deadline=None)
    @given(points=st.lists(st.tuples(FLOAT_CELLS, FLOAT_CELLS), max_size=6),
           c_prime=st.none() | FLOAT_CELLS)
    def test_bytes_and_values_match_the_csv_module(self, points, c_prime):
        rows = [(x, delta, None if c_prime is None else c_prime * x)
                for x, delta in points]
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(("regressor", "measured_mg", "predicted_mg"))
        writer.writerows(rows)
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "fit.csv"
            write_fit_csv([x for x, _ in points],
                          [delta for _, delta in points], c_prime, path)
            assert path.read_bytes() == buffer.getvalue().encode()
            with open(path, newline="") as handle:
                parsed = list(csv.reader(handle))[1:]
        assert len(parsed) == len(rows)
        for cells, row in zip(parsed, rows):
            assert len(cells) == 3
            for cell, value in zip(cells, row):
                assert cell == "" if value is None \
                    else same_cell(float(cell), value), (cell, value)


CONDITION_STATS = st.builds(
    ConditionStats, powder=st.sampled_from(sorted(ARCHETYPES)),
    controller=st.sampled_from([MODEL_BASED, DIRECT_PID]),
    target_mg=FLOAT_CELLS, trials=st.integers(0, 2 ** 63),
    successes=st.integers(0, 2 ** 63), dropped_mean_mg=FLOAT_CELLS,
    dropped_std_mg=FLOAT_CELLS, steps_mean=FLOAT_CELLS,
    steps_std=FLOAT_CELLS, time_mean_s=FLOAT_CELLS, time_std_s=FLOAT_CELLS,
    degenerate_stats=st.booleans())


class TestSummaryCsvText:
    """summary_csv_text joins each row's cells with str() itself; this pins
    it to the csv module's output."""

    @settings(max_examples=200, deadline=None)
    @given(conditions=st.lists(CONDITION_STATS, max_size=6))
    @example(conditions=[
        ConditionStats(powder, controller, 50.0, 2, 1, 49.5, 0.5, 3.0, 0.0,
                       10.0, 1.0)
        for powder in sorted(ARCHETYPES)
        for controller in (MODEL_BASED, DIRECT_PID)])
    def test_bytes_match_the_csv_module(self, conditions):
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(SUMMARY_COLUMNS)
        writer.writerows([getattr(stats, name) for name in SUMMARY_COLUMNS]
                         for stats in conditions)
        assert artifacts.summary_csv_text(conditions) == buffer.getvalue()


class TestArtifacts:
    def test_summary_csv_schema(self, suite):
        _, summary, out = suite
        lines = (out / "summary.csv").read_text().splitlines()
        assert lines[0] == ",".join(SUMMARY_COLUMNS)
        assert len(lines) == 1 + len(summary.conditions)
        first = lines[1].split(",")
        assert first[0] == "glass-beads"
        assert first[1] == MODEL_BASED
        assert first[3] == "2"

    def test_trace_csv_schema(self, suite):
        _, summary, out = suite
        record = summary.trials[0]
        path = out / "trials" / f"{record.trial_id}.csv"
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(TRACE_COLUMNS)
        assert len(lines) == 1 + record.total_steps
        first = lines[1].split(",")
        # the first step is always an unpredicted probe with no fit yet
        assert first[TRACE_COLUMNS.index("predicted_mg")] == ""
        assert first[TRACE_COLUMNS.index("cprime_gravity")] == ""
        assert first[TRACE_COLUMNS.index("vibration")] == "0"

    def test_trace_roundtrip(self, suite):
        """Every trial's trace reads back as its in-memory steps, and each
        of those is a whole StepTrace whose fields hold what their names
        say: run_trial builds them from plain row tuples at the end of a
        trial, so a short or misordered row would show here."""
        config, summary, out = suite
        assert {r.controller for r in summary.trials} == {MODEL_BASED,
                                                          DIRECT_PID}
        for record in summary.trials:
            model = record.controller == MODEL_BASED
            rows = read_trace_csv(out / "trials" / f"{record.trial_id}.csv")
            assert len(rows) == len(record.steps) == record.total_steps > 0
            vibrated = False
            for number, (parsed, original) in enumerate(
                    zip(rows, record.steps), 1):
                assert type(original) is StepTrace
                assert len(original) == len(StepTrace._fields)
                assert original.step == number
                assert type(original.vibration) is type(original.probe) \
                    is bool
                # a model step is predicted unless it probes; a PID step
                # is neither, and runs at the fixed dwell
                assert (original.predicted_mg is None) \
                    == (original.probe or not model)
                if not model:
                    assert original.t_pose_s == \
                        config.pid_gains.t_pose_fixed_s
                    assert original.cprime_gravity is None
                # no vibration fit before a vibration step
                vibrated = vibrated or original.vibration
                assert original.cprime_vibration is None or vibrated
                for name in TRACE_COLUMNS:
                    key = {"step": "step", "L": "l_command"}.get(name, name)
                    assert getattr(parsed, key) == getattr(original, key)
            for before, after in zip(record.steps, record.steps[1:]):
                assert after.sim_time_s > before.sim_time_s
                assert after.measured_delta_mg == pytest.approx(
                    before.w_error_mg - after.w_error_mg, abs=1e-9)
            last = record.steps[-1]
            assert last.sim_time_s == record.total_sim_time_s
            assert last.w_error_mg == record.target_mg - record.final_mass_mg

    def test_summary_json_echoes_the_config(self, suite):
        config, summary, out = suite
        data = json.loads((out / "summary.json").read_text())
        assert data["config"] == config_to_dict(config)
        assert config_from_dict(data["config"]) == config
        assert len(data["trials"]) == len(summary.trials)
        for entry in data["trials"]:
            # the trace path is derived from the trial_id, not stored
            assert list(entry) == [field for field in TrialRecord._fields
                                   if field != "steps"]
            assert (out / "trials" / f"{entry['trial_id']}.csv").is_file()

    def test_rerun_is_byte_identical(self, suite, tmp_path):
        config, summary, out = suite
        again = tmp_path / "again"
        run_suite(config, out_dir=again)
        assert (again / "summary.csv").read_bytes() == \
            (out / "summary.csv").read_bytes()
        name = f"trials/{summary.trials[0].trial_id}.csv"
        assert (again / name).read_bytes() == (out / name).read_bytes()

    # Rerun over seed 12345, the traces and fit files shrink; over seed 1,
    # summary.csv, summary.json and the recomputed summary do.
    @pytest.mark.parametrize("other_seed", [12345, 1])
    def test_rerun_over_another_seed_equals_a_fresh_run(self, tmp_path,
                                                        other_seed):
        config = small_config(powder=["glass-beads", "msg"],
                              controller=[MODEL_BASED, DIRECT_PID],
                              targets_mg=[20, 500])
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        run_suite(dataclasses.replace(config, seed=other_seed),
                  out_dir=reused)
        assert build_report(reused).ok
        before = {path.relative_to(reused): path.stat().st_size
                  for path in reused.rglob("*") if path.is_file()}
        for out in (reused, fresh):
            run_suite(config, out_dir=out)
            assert build_report(out).ok
        expected = {path.relative_to(fresh): path.read_bytes()
                    for path in fresh.rglob("*") if path.is_file()}
        assert before.keys() == expected.keys()
        assert any(before[name] > len(data)
                   for name, data in expected.items())
        assert any(before[name] < len(data)
                   for name, data in expected.items())
        for name, data in expected.items():
            assert (reused / name).read_bytes() == data, name

    @pytest.mark.parametrize("stop", [0.5, 1.0],
                             ids=["halfway", "at-the-new-end"])
    @pytest.mark.parametrize("name", [
        "summary.json", "summary.csv",
        "trials/msg--model-based--t20--000.csv"])
    def test_report_rejects_new_bytes_over_an_old_tail(self, tmp_path, name,
                                                       stop):
        # What an in-place rewrite cut short can leave: the new bytes
        # written so far, then the rest of the longer old file. The old
        # file is another seed's, its bytes repeated until it is longer
        # than the new one whatever either run simulated.
        config = small_config(powder=["glass-beads", "msg"],
                              targets_mg=[20, 500])
        old, out = tmp_path / "old", tmp_path / "out"
        run_suite(dataclasses.replace(config, seed=1), out_dir=old)
        run_suite(config, out_dir=out)
        stale, data = (old / name).read_bytes(), (out / name).read_bytes()
        stale *= len(data) // len(stale) + 1
        assert len(stale) > len(data)
        cut = int(len(data) * stop)
        (out / name).write_bytes(data[:cut] + stale[cut:])
        assert not build_report(out).ok

    def test_report_removes_the_fit_files_of_a_dropped_powder(self,
                                                                tmp_path):
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        run_suite(small_config(powder=["glass-beads", "msg"]), out_dir=out)
        assert build_report(out).ok
        assert (out / "report" / f"fit_msg_{GRAVITY}.csv").is_file()
        for directory in (out, fresh):
            run_suite(small_config(), out_dir=directory)
            assert build_report(directory).ok
        report = {path.name: path.read_bytes()
                  for path in (out / "report").iterdir()}
        assert report == {path.name: path.read_bytes()
                          for path in (fresh / "report").iterdir()}
        # the dropped powder's traces stay, as the index no longer names them
        assert (out / "trials" / "msg--model-based--t50--000.csv").is_file()

    def test_report_recomputes_identically(self, suite):
        _, _, out = suite
        result = build_report(out)
        assert result.ok
        assert (result.report_dir / "summary_recomputed.csv").read_bytes() \
            == (out / "summary.csv").read_bytes()
        text = (result.report_dir / "report.txt").read_text()
        assert "glass-beads" in text
        fit_csv = result.report_dir / f"fit_glass-beads_{GRAVITY}.csv"
        assert fit_csv.read_text().splitlines()[0] \
            == "regressor,measured_mg,predicted_mg"

    @pytest.mark.parametrize("edit, message", [
        (lambda entry, trace: entry.pop("total_steps"),
         "missing key 'total_steps'"),
        (lambda entry, trace: entry.update(status="finished"),
         "unknown status 'finished'"),
        # a saved trial has ended, so it cannot still be running
        (lambda entry, trace: entry.update(status="running"),
         "trials[1]: unknown status 'running'"),
        (lambda entry, trace: trace.write_text(
            trace.read_text() + "99,5.0,0.0\n"),
         "has 3 fields, expected 10"),
        (lambda entry, trace: trace.write_text(""),
         "unexpected trace header ()"),
        (lambda entry, trace: widen_every_command(trace),
         "cannot refit the traces: trial glass-beads--model-based--t50--001 "
         "step 2: action L=999.0, t_pose_s=0.0 is outside the valve "
         "envelope"),
        # a delta that is not finite, on either side of the gate
        (lambda entry, trace: set_first_cell(trace, "measured_delta_mg",
                                             "inf"),
         "cannot refit the traces: trial glass-beads--model-based--t50--001 "
         "step 1: measured_delta_mg must be finite, got inf"),
        (lambda entry, trace: set_first_cell(trace, "measured_delta_mg",
                                             "nan"),
         "cannot refit the traces: trial glass-beads--model-based--t50--001 "
         "step 1: measured_delta_mg must be finite, got nan"),
        (lambda entry, trace: set_first_cell(trace, "measured_delta_mg",
                                             "-inf"),
         "cannot refit the traces: trial glass-beads--model-based--t50--001 "
         "step 1: measured_delta_mg must be finite, got -inf"),
        # finite deltas whose pooled fit leaves the float range
        (lambda entry, trace: set_first_cell(trace, "measured_delta_mg",
                                             "1e160"),
         "cannot refit the traces: pooled gravity fit of glass-beads: its "
         "sums overflow a float"),
        (lambda entry, trace: set_first_cell(trace, "measured_delta_mg",
                                             "1e308"),
         "cannot refit the traces: pooled gravity fit of glass-beads: "
         "ModeFit.c_prime must be finite and >= 0"),
        (lambda entry, trace: entry.update(powder="glass/beads"),
         "unknown powder 'glass/beads'"),
        (lambda entry, trace: set_first_cell(trace, "vibration", "2"),
         "line 2: vibration must be 0 or 1, got '2'"),
        (lambda entry, trace: set_first_cell(trace, "measured_delta_mg", "x"),
         "line 2: measured_delta_mg must be a number, got 'x'"),
        (lambda entry, trace: set_first_cell(trace, "step", "1.5"),
         "line 2: step must be an integer, got '1.5'"),
        # line 3's step 2 made 7: every cell still parses
        (lambda entry, trace: trace.write_bytes(
            trace.read_bytes().replace(b"\n2,", b"\n7,", 1)),
         "glass-beads--model-based--t50--001.csv: line 3: step must be 2, "
         "got '7'"),
        # a status far past what a message echoes whole
        (lambda entry, trace: entry.update(status="x" * 100_000),
         "trials[1]: unknown status '" + "x" * 59 + "... (100002 "
         "characters)\n"),
        # counts no suite reaches, echoed cut; the index's trial_id and
        # trace path would name a file too long to open
        (lambda entry, trace: renumber_trial(entry, int("1" * 3000)),
         "trials[1]: trial_index has the wrong type or value: " + "1" * 60
         + "... (3000 characters)\n"),
        (lambda entry, trace: entry.update(total_steps=10 ** 3000),
         "trials[1]: total_steps has the wrong type or value: 1" + "0" * 59
         + "... (3001 characters)\n"),
        (lambda entry, trace: renumber_trial(entry,
                                             config._MAX_RUN_STEPS + 1),
         "trials[1]: trial_index has the wrong type or value: 2000001\n"),
        (lambda entry, trace: entry.update(
            trial_id="glass-beads--model-based--t50--000"),
         "trial_id 'glass-beads--model-based--t50--000' does not match its "
         "condition, expected 'glass-beads--model-based--t50--001'"),
        (lambda entry, trace: entry.update(controller="bang-bang"),
         "unknown controller 'bang-bang'"),
        (lambda entry, trace: entry.update(final_mass_mg=10 ** 400),
         "final_mass_mg has the wrong type or value"),
        # an edit that returns bytes makes them the whole summary.json
        (lambda entry, trace: b"\xff\xfe{",
         "summary.json: 'utf-8' codec can't decode byte 0xff"),
        # arrays nested past the parser's recursion limit
        (lambda entry, trace: b"[" * 200_000 + b"]" * 200_000,
         "summary.json: maximum recursion depth exceeded"),
        # an integer of more digits than int() converts
        (lambda entry, trace: b'{"trials": ' + b"1" * 5000 + b"}",
         "summary.json: Exceeds the limit (4300"),
        # the trace's last line loses its final cell's tail and its CRLF
        (lambda entry, trace: trace.write_bytes(trace.read_bytes()[:-4]),
         "glass-beads--model-based--t50--001.csv: line 8 has no line end"),
        # one byte that is not UTF-8 after the final CRLF
        (lambda entry, trace: trace.write_bytes(trace.read_bytes()
                                                + b"\xff"),
         "glass-beads--model-based--t50--001.csv: line 9: byte 0xff is not "
         "UTF-8 (invalid start byte)"),
    ], ids=["missing-key", "unknown-status", "status-running", "short-row",
            "empty-trace",
            "command-beyond-l-max", "delta-cell-inf", "delta-cell-nan",
            "delta-cell-minus-inf", "delta-cell-1e160", "delta-cell-1e308", "powder-with-slash",
            "vibration-cell", "delta-cell-not-a-number",
            "step-cell-not-an-integer", "trace-step-renumbered",
            "status-100000-characters", "trial-index-3000-digits",
            "total-steps-3000-digits", "trial-index-past-the-step-budget",
            "trial-id-mismatch", "unknown-controller",
            "mass-beyond-float", "index-not-utf8", "index-nested-too-deep",
            "index-integer-past-the-digit-limit",
            "trace-cut-short", "trace-not-utf8"])
    def test_report_rejects_a_hand_edited_index(self, suite, tmp_path, capsys,
                                                edit, message):
        _, _, out = suite
        copy = tmp_path / "edited"
        shutil.copytree(out, copy)
        shutil.rmtree(copy / "report", ignore_errors=True)
        index = json.loads((copy / "summary.json").read_text())
        entry = index["trials"][1]
        raw = edit(entry, copy / EDITED_TRACE)
        (copy / "summary.json").write_bytes(
            raw if isinstance(raw, bytes) else json.dumps(index).encode())
        assert cli_main(["report", str(copy)]) == 1
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert max(map(len, err.splitlines())) <= 300
        if message.startswith("cannot refit the traces"):
            assert not (copy / "report").exists()  # nothing written

    # A trace path stored in the first trial entry, as an older index
    # stores one: its own trace, an outside file, and another trial's
    # trace by an absolute and by a relative path.
    @pytest.mark.parametrize("stored", [
        lambda root, entries: f"trials/{entries[0]['trial_id']}.csv",
        lambda root, entries: "../../etc/passwd",
        lambda root, entries: str(
            (root / "trials" / f"{entries[1]['trial_id']}.csv").resolve()),
        lambda root, entries: f"../edited/trials/{entries[1]['trial_id']}.csv",
    ], ids=["older-index", "etc-passwd", "absolute-trace-path",
            "parent-trace-path"])
    def test_report_reads_no_stored_trace_path(self, quick_run, tmp_path,
                                               capsys, stored):
        copy = tmp_path / "edited"
        shutil.copytree(quick_run, copy)
        shutil.rmtree(copy / "report")
        index = json.loads((copy / "summary.json").read_text())
        index["trials"][0]["trace_csv"] = stored(copy, index["trials"])
        (copy / "summary.json").write_text(json.dumps(index, indent=2))
        assert cli_main(["report", str(copy)]) == 0
        assert capsys.readouterr().err == ""
        report = {path.name: path.read_bytes()
                  for path in (copy / "report").iterdir()}
        assert report == {path.name: path.read_bytes()
                          for path in (quick_run / "report").iterdir()}

    @pytest.mark.parametrize("edit, message", [
        (lambda index, out: index["conditions"][0].update(successes=1),
         "conditions glass-beads / model-based / 50.0: successes stored 1, "
         "recomputed 2"),
        (lambda index, out: index["pooled_fits"][0].update(c_prime=0.5),
         "pooled_fits glass-beads / gravity: c_prime stored 0.5, "
         "recomputed 0.0471810"),
        (lambda index, out: (out / "summary.csv").write_text(
            (out / "summary.csv").read_text() + "glass-beads,x\n"),
         "summary.csv: does not match the summary recomputed"),
        (lambda index, out: index.pop("config"),
         "summary.json: no 'config' key"),
        (lambda index, out: index.update(trials=[]), "holds no trials"),
        (lambda index, out: index["config"].update(trials=0),
         "config echo invalid: trials: must be an integer >= 1"),
        (lambda index, out: index["pooled_fits"].pop(),
         "summary.json: pooled_fits does not hold the 1 entries recomputed "
         "from the traces"),
        (lambda index, out: index["conditions"].__setitem__(0, 5),
         "summary.json: conditions glass-beads / model-based / 50.0: not "
         "an object, stored 5\n"),
        (lambda index, out: index["pooled_fits"].__setitem__(0, [1, None]),
         "summary.json: pooled_fits glass-beads / gravity: not an object, "
         "stored [1, null]\n"),
        (lambda index, out: index["conditions"][0].pop("successes"),
         "summary.json: conditions glass-beads / model-based / 50.0: "
         "successes missing, recomputed 2\n"),
        (lambda index, out: index["conditions"][0].update(successes=None),
         "summary.json: conditions glass-beads / model-based / 50.0: "
         "successes stored null, recomputed 2\n"),
        # an edit that returns bytes makes them the whole summary.json
        (lambda index, out: json.dumps([index]).encode(),
         lambda copy: f"report: {shown_path(copy / 'summary.json')}: "
                      f"expected an object with a 'trials' list\n"),
        (lambda index, out: index.update(trials={}),
         lambda copy: f"report: {shown_path(copy / 'summary.json')}: "
                      f"expected an object with a 'trials' list\n"),
        (lambda index, out: index["trials"].__setitem__(1, [1]),
         lambda copy: f"report: {shown_path(copy / 'summary.json')}: "
                      f"trials[1]: entry is not an object\n"),
        # the trace's last whole line removed: every line still ends, so
        # only the step count in the index tells the trace was cut
        (lambda index, out: cut_last_line(out / EDITED_TRACE),
         f"report: trial {EDITED_TRIAL}: index says 7 steps, trace has 6\n"),
        (lambda index, out: (out / "summary.csv").unlink(),
         lambda copy: f"report: cannot read "
                      f"{shown_path(copy / 'summary.csv')}: "
                      f"{os.strerror(errno.ENOENT)}\n"),
        (lambda index, out: (out / EDITED_TRACE).unlink(),
         lambda copy: f"report: trial {EDITED_TRIAL}: "
                      f"{shown_path(copy / EDITED_TRACE)}: "
                      f"{os.strerror(errno.ENOENT)}\n"),
        # one byte that is not UTF-8 after the final CRLF
        (lambda index, out: (out / EDITED_TRACE).write_bytes(
            (out / EDITED_TRACE).read_bytes() + b"\xff"),
         lambda copy: f"report: trial {EDITED_TRIAL}: "
                      f"{shown_path(copy / EDITED_TRACE)}: line 9: byte "
                      f"0xff is not UTF-8 (invalid start byte)\n"),
    ], ids=["successes", "c-prime", "summary-csv-row", "no-config-echo",
            "no-trials", "config-echo-without-trials", "pooled-fit-missing",
            "condition-not-an-object", "pooled-fit-not-an-object",
            "condition-key-missing", "condition-key-null",
            "index-root-a-list", "trials-not-a-list",
            "trial-entry-not-an-object", "trace-last-line-removed",
            "summary-csv-deleted", "trace-deleted", "trace-not-utf8"])
    def test_report_checks_the_stored_summary(self, suite, tmp_path, capsys,
                                              edit, message):
        # The copy sits 600 characters deep, three nested names of 200,
        # so that every path a message echoes is one config.shown_path
        # cuts; a message that names a path is built from the copy's.
        _, _, out = suite
        copy = tmp_path.joinpath(*(letter * 200 for letter in "abc"))
        shutil.copytree(out, copy)
        index = json.loads((copy / "summary.json").read_text())
        raw = edit(index, copy)
        (copy / "summary.json").write_bytes(
            raw if isinstance(raw, bytes) else json.dumps(index).encode())
        assert cli_main(["report", str(copy)]) == 1
        err = capsys.readouterr().err
        assert (message(copy) if callable(message) else message) in err
        assert "Traceback" not in err
        assert max(map(len, err.splitlines())) <= 300

    def test_report_prints_each_config_echo_error_on_its_own_line(
            self, suite, tmp_path, capsys):
        _, _, out = suite
        copy = tmp_path / "edited"
        shutil.copytree(out, copy)
        index = json.loads((copy / "summary.json").read_text())
        index["config"].update({f"extra_{n:02d}": n for n in range(20)})
        (copy / "summary.json").write_text(json.dumps(index))
        assert cli_main(["report", str(copy)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"report: config echo invalid: unknown key 'extra_{n:02d}'"
            for n in range(20)]

    @pytest.mark.parametrize("extra", [
        {f"extra_{n:02d}": n for n in range(50)},
        {f"{n}" * 1200: "v" * 3000 for n in range(6)},
    ], ids=["50-short-keys", "6-long-keys"])
    def test_report_cuts_the_differing_keys_to_one_short_line(
            self, suite, tmp_path, capsys, extra):
        _, _, out = suite
        copy = tmp_path / "edited"
        shutil.copytree(out, copy)
        index = json.loads((copy / "summary.json").read_text())
        index["conditions"][0].update(extra)
        (copy / "summary.json").write_text(json.dumps(index))
        assert cli_main(["report", str(copy)]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        differences = ", ".join(f"{k} stored {json.dumps(v)}"
                                for k, v in extra.items())
        assert line == (
            "report: summary.json: conditions glass-beads / model-based / "
            f"50.0: {differences[:60]}... ({len(differences)} characters)")
        assert len(line) <= 300

    def test_report_computes_each_regressor_once(self, suite, tmp_path,
                                                 monkeypatch):
        _, _, out = suite
        copy = tmp_path / "copy"
        shutil.copytree(out, copy)
        calls = []
        original = identify.drop_regressor

        def counted(*args):
            calls.append(args)
            return original(*args)
        monkeypatch.setattr(identify, "drop_regressor", counted)
        result = build_report(copy)
        assert result.ok
        assert len(calls) == sum(f.n_points for f in result.fits) > 0

    # Each column's rule, as a bad cell's message names it
    @pytest.mark.parametrize("column, cell, rule", [
        ("step", "x", "an integer"), ("L", "x", "a number"),
        ("t_pose_s", "x", "a number"), ("vibration", "x", "0 or 1"),
        ("vibration", "2", "0 or 1"), ("predicted_mg", "x", "a number"),
        ("measured_delta_mg", "x", "a number"),
        ("cprime_gravity", "x", "a number"),
        ("cprime_vibration", "x", "a number"),
        ("w_error_mg", "x", "a number"), ("sim_time_s", "x", "a number"),
    ], ids=[*TRACE_COLUMNS[:4], "vibration-2", *TRACE_COLUMNS[4:]])
    def test_report_checks_every_trace_cell(self, suite, tmp_path, capsys,
                                            column, cell, rule):
        _, _, out = suite
        copy = tmp_path / "edited"
        shutil.copytree(out, copy)
        set_first_cell(copy / EDITED_TRACE, column, cell)
        assert cli_main(["report", str(copy)]) == 1
        err = capsys.readouterr().err
        assert (f"report: trial {EDITED_TRIAL}: "
                f"{shown_path(copy / EDITED_TRACE)}: line 2: {column} must "
                f"be {rule}, got {cell!r}\n") in err
        assert "Traceback" not in err

    def test_report_builds_no_step_rows(self, suite, tmp_path, monkeypatch):
        # the report reads each trace as columns: with read_trace_csv
        # raising and no StepTrace class to build rows of, it writes the
        # same report
        _, _, out = suite
        copy = tmp_path / "copy"
        shutil.copytree(out, copy)
        expected = build_report(out)

        def no_rows(path):
            raise AssertionError(f"read_trace_csv({path}) on the report path")
        monkeypatch.setattr(artifacts, "read_trace_csv", no_rows)
        monkeypatch.setattr(artifacts, "StepTrace", None)
        result = build_report(copy)
        assert result.ok
        assert (result.conditions, result.fits) \
            == (expected.conditions, expected.fits)
        report = {path.name: path.read_bytes()
                  for path in (copy / "report").iterdir()}
        assert report == {path.name: path.read_bytes()
                          for path in (out / "report").iterdir()}

    def test_report_without_artifacts_reports_errors(self, tmp_path):
        result = build_report(tmp_path / "nothing")
        assert not result.ok
        assert result.errors


class TestOutDirResolution:
    def test_precedence(self, monkeypatch):
        config = small_config(out_dir="from-config")
        monkeypatch.delenv("POWDERDOSE_OUT", raising=False)
        assert str(resolve_out_dir(config)) == "from-config"
        monkeypatch.setenv("POWDERDOSE_OUT", "from-env")
        assert str(resolve_out_dir(config)) == "from-env"
        assert str(resolve_out_dir(config, "from-flag")) == "from-flag"


@pytest.fixture(scope="module")
def cfg_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "cfg.json"
    path.write_text(json.dumps(SMALL))
    return path


def checkout_env(env_extra=None):
    """This process's environment with the checkout's src first on the
    import path and no POWDERDOSE_OUT, updated by env_extra."""
    env = dict(os.environ)
    env.pop("POWDERDOSE_OUT", None)
    env.update(env_extra or {})
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


class TestCli:
    def run_cli(self, *args, env_extra=None):
        return subprocess.run(
            [sys.executable, "-m", "powderdose.cli", *args],
            capture_output=True, text=True, env=checkout_env(env_extra))

    def test_report_does_not_import_numpy_random(self, tmp_path):
        # the plant imports numpy.random when it builds its first
        # Generator, so a process that only reads artifacts never does
        run_suite(small_config(), out_dir=tmp_path)
        code = ("import sys\n"
                "from powderdose.cli import main\n"
                "status = main(['report', sys.argv[1]])\n"
                "print(status, 'numpy.random' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                              capture_output=True, text=True,
                              env=checkout_env())
        assert proc.stdout.split()[-2:] == ["0", "False"]

    def test_report_reads_summary_csv_as_utf8_in_any_locale(self, suite,
                                                           tmp_path):
        # a hand-edited summary.csv holding a character past ASCII is one
        # that does not match, under a C locale too
        _, _, out = suite
        copy = tmp_path / "edited"
        shutil.copytree(out, copy)
        data = (copy / "summary.csv").read_bytes()
        (copy / "summary.csv").write_bytes(
            data.replace(b"glass-beads", "glass-beadé".encode(), 1))
        proc = self.run_cli("report", str(copy), env_extra={
            "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"})
        assert proc.returncode == 1
        assert proc.stderr == ("report: summary.csv: does not match the "
                               "summary recomputed from the traces\n")

    def test_validate_config_ok(self, cfg_path):
        proc = self.run_cli("validate-config", "--config", str(cfg_path))
        assert proc.returncode == 0
        assert "ok" in proc.stdout

    def test_validate_config_rejects_unknown_keys(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"bogus": 1}))
        proc = self.run_cli("validate-config", "--config", str(bad))
        assert proc.returncode == 2
        assert "config error" in proc.stderr

    def test_run_trial_needs_a_single_condition(self):
        proc = self.run_cli("run-trial")
        assert proc.returncode == 2
        assert "config error" in proc.stderr

    @pytest.mark.parametrize("controller", [MODEL_BASED, DIRECT_PID])
    def test_run_trial_writes_the_trace_of_its_suite_twin(
            self, suite, controller, tmp_path, capsys):
        config, summary, out = suite
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config_to_dict(config)))
        (record,) = [r for r in summary.trials
                     if r.controller == controller and r.trial_index == 1]
        assert cli_main(["run-trial", "--config", str(cfg), "--controller",
                         controller, "--trial-index", "1",
                         "--out", str(tmp_path / "one")]) == 0
        assert (tmp_path / "one" / record.trace_csv).read_bytes() \
            == (out / record.trace_csv).read_bytes()
        assert capsys.readouterr().out.startswith(
            f"{record.trial_id}: {record.status.value}, dispensed ")

    def test_run_trial_honours_out_flag_over_env(self, cfg_path, tmp_path):
        flag_dir = tmp_path / "flagged"
        proc = self.run_cli(
            "run-trial", "--config", str(cfg_path), "--out", str(flag_dir),
            env_extra={"POWDERDOSE_OUT": str(tmp_path / "ignored")})
        assert proc.returncode == 0
        traces = list((flag_dir / "trials").glob("*.csv"))
        assert len(traces) == 1
        assert not (tmp_path / "ignored").exists()

    def test_run_suite_honours_env_dir_and_report_reads_it(self, cfg_path,
                                                           tmp_path):
        env_dir = tmp_path / "from-env"
        proc = self.run_cli("run-suite", "--config", str(cfg_path),
                            env_extra={"POWDERDOSE_OUT": str(env_dir)})
        assert proc.returncode == 0
        assert (env_dir / "summary.csv").is_file()
        report = self.run_cli("report", str(env_dir))
        assert report.returncode == 0
        assert (env_dir / "report" / "report.txt").is_file()

    @pytest.mark.parametrize("command", ["run-suite", "run-trial"])
    def test_seed_flag_uses_the_config_seed_rule(self, command, cfg_path,
                                                 tmp_path, capsys):
        """--seed, and run-trial's condition flags, obey the config rules."""
        cases = [(["--seed", seed], "seed: must be an unsigned 64-bit integer")
                 for seed in ("99999999999999999999999", str(2 ** 64), "-1")]
        if command == "run-trial":
            cases += [
                (["--target", "-5"], "targets_mg: entries must be positive "
                                     "finite numbers, got -5.0"),
                (["--target", "nan"], "got nan"),
                (["--powder", "granite"],
                 "powder: unknown archetype 'granite'"),
                (["--controller", "bang-bang"], "controller: must be one of"),
                (["--trial-index", "-1"],
                 "trial_index: must be an integer >= 0"),
            ]
        for flags, message in cases:
            code = cli_main([command, "--config", str(cfg_path), *flags,
                             "--out", str(tmp_path)])
            assert code == 2
            assert message in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("data, code", [
        ({"controller": "direct-pid",
          "pid_gains": {"t_pose_fixed_s": 25.0}}, 2),
        ({"controller": "direct-pid", "kinematics": {"t_pose_max": 1.0}}, 2),
        ({"controller": "model-based", "kinematics": {"t_pose_max": 1.0}}, 0),
    ])
    def test_validate_config_checks_the_pid_dwell(self, data, code, tmp_path,
                                                  capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        assert cli_main(["validate-config", "--config", str(path)]) == code
        assert ("pid_gains.t_pose_fixed_s" in capsys.readouterr().err) \
            == (code == 2)

    @pytest.mark.parametrize("kinematics", [
        {"l_min": 0.1, "l_max": 15.099999999999998},
        {"t_pose_min": 0.1, "t_pose_max": 20.099999999999998},
    ], ids=["command", "dwell"])
    def test_run_suite_on_an_inexact_grid_span(self, kinematics, tmp_path):
        # (hi - lo) / step misses a whole count by a hair; the grid's last
        # command or dwell must still pass the plant's envelope check
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "powder": "glass-beads", "targets_mg": [3000], "trials": 1,
            "kinematics": kinematics}))
        proc = self.run_cli("run-suite", "--config", str(path),
                            "--out", str(tmp_path / "out"))
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command", ["validate-config", "run-suite"])
    def test_config_that_is_not_utf8_is_a_config_error(self, command,
                                                       tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_bytes(b'{"trials": 1\xff}')
        out = ["--out", str(tmp_path / "out")] if command == "run-suite" \
            else []
        assert cli_main([command, "--config", str(path), *out]) == 2
        err = capsys.readouterr().err
        assert "config error: config is not UTF-8 text" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["validate-config", "run-suite"])
    def test_config_nested_too_deep_is_a_config_error(self, command,
                                                      tmp_path, capsys):
        # the JSON parser gives up on arrays nested past the recursion
        # limit with RecursionError, which must not become a traceback
        path = tmp_path / "cfg.json"
        path.write_bytes(b"[" * 200_000 + b"]" * 200_000)
        out = ["--out", str(tmp_path / "out")] if command == "run-suite" \
            else []
        assert cli_main([command, "--config", str(path), *out]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: config is not valid JSON: maximum recursion depth "
            "exceeded while decoding a JSON array from a unicode string"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("data, message", [
        ({"powder": "p" * 5000},
         "powder: unknown archetype '" + "p" * 59 + "... (5002 characters)"),
        ({"plant": {"powders": {"k" * 3000: {}}}},
         "plant.powders: unknown powder '" + "k" * 59
         + "... (3002 characters)"),
        ({"tolerance_mg": 10 ** 300},
         "tolerance_mg: must be at most 1e+07 in magnitude, got "
         + "1" + "0" * 59 + "... (301 characters)"),
        ({"powder": "glass-beads", "targets_mg": [50], "max_steps": 1,
          "trials": 10 ** 100},
         "max_steps: powders x controllers x targets x trials x max_steps "
         "is 1" + "0" * 59 + "... (101 characters), more than 2000000"),
    ], ids=["powder-5000-characters", "override-key-3000-characters",
            "tolerance-301-digits", "run-steps-101-digits"])
    def test_a_long_value_is_echoed_cut(self, data, message, tmp_path,
                                        capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        assert cli_main(["validate-config", "--config", str(path)]) == 2
        assert capsys.readouterr().err.splitlines() \
            == [f"config error: {message}"]

    def test_an_integer_past_the_digit_limit_is_a_config_error(
            self, tmp_path, capsys):
        # json.load raises a ValueError that is no JSONDecodeError on an
        # integer of more digits than int() converts
        path = tmp_path / "cfg.json"
        path.write_text('{"trials": ' + "1" * 5000 + "}")
        assert cli_main(["validate-config", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: config is not valid JSON: ")
        assert "Traceback" not in err

    def test_run_suite_and_report_skip_an_aborted_trial(self, suite,
                                                        tmp_path, capsys):
        # no config in the domain aborts a trial, a hand-edited index does:
        # the report leaves the trial out of its statistics and its refit,
        # and says how they now differ from the stored summary
        _, _, out = suite
        copy = tmp_path / "edited"
        shutil.copytree(out, copy)
        index = json.loads((copy / "summary.json").read_text())
        entry = index["trials"][1]
        assert entry["controller"] == MODEL_BASED
        entry["status"] = TrialStatus.ABORTED.value
        (copy / "summary.json").write_text(json.dumps(index))
        assert cli_main(["report", str(copy)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "conditions glass-beads / model-based / 50.0: " in err
        assert "trials stored 2, recomputed 1" in err
        result = build_report(copy)
        trials = load_suite_records(copy)[0]
        kept = [(r, columns) for r, columns in trials
                if r.status is not TrialStatus.ABORTED]
        assert len(kept) == len(trials) - 1
        assert list(result.conditions) == compute_metrics(r for r, _ in kept)
        assert list(result.fits) == pooled_fits(pooled_points(
            [(r, zip(*columns[1:4], columns[5])) for r, columns in kept],
            small_config().rig))

    def test_trials_stalled_at_the_band_edge_are_no_success(self, tmp_path,
                                                            capsys):
        # both trials stall short of the band until the step limit, the
        # second at 48.0 mg, exactly 2 mg off: run-suite and report count
        # the status the stop rule gave, not a band of their own
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "powder": "glass-beads", "controller": "direct-pid",
            "targets_mg": [50], "trials": 2, "seed": 10}))
        out = tmp_path / "out"
        assert cli_main(["run-suite", "--config", str(cfg),
                         "--out", str(out)]) == 0
        index = json.loads((out / "summary.json").read_text())
        assert [(t["status"], t["final_mass_mg"]) for t in index["trials"]] \
            == [("step-limit-fail", 47.5), ("step-limit-fail", 48.0)]
        with (out / "summary.csv").open(newline="") as handle:
            (row,) = csv.DictReader(handle)
        assert (row["trials"], row["successes"]) == ("2", "0")
        assert "0/2 ok" in capsys.readouterr().out
        assert cli_main(["report", str(out)]) == 0
        (line,) = [line for line in (out / "report" / "report.txt")
                   .read_text().splitlines()
                   if line.startswith("glass-beads")]
        assert line.split()[3] == "0/2"

    @settings(max_examples=50, deadline=None)
    @given(corner=st.sampled_from(list(domain_corners())),
           powder=st.sampled_from(["glass-beads", "msg", "tio2"]))
    def test_configs_at_and_past_the_domain_corners(self, corner, powder):
        """A config at a corner of the domain runs and reports; one past
        it is one config error line that names the field."""
        path, value, inside = corner
        data = {"powder": powder, "controller": [MODEL_BASED, DIRECT_PID],
                "targets_mg": [50], "trials": 1, "max_steps": 20,
                **patch_at(path, value, powder)}
        if path == "max_steps":  # every trial stops at its tare
            data["tolerance_mg"] = 1e7
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as root, \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            cfg = Path(root) / "cfg.json"
            cfg.write_text(json.dumps(data))
            out = str(Path(root) / "out")
            code = cli_main(["run-suite", "--config", str(cfg), "--out", out])
            if code == 0:
                code = cli_main(["report", out])
                assert code == 0, err.getvalue()
        lines = err.getvalue().splitlines()
        if code == 0:
            assert inside and lines == []
        else:
            assert code == 2 and len(lines) == 1, lines
            assert lines[0].startswith("config error: ")
            assert inside or path.split(".")[-1] in lines[0]

    @pytest.mark.parametrize("data, message", [
        ({**SMALLEST_REGRESSOR, "kinematics": {"l_min": 1e-124}},
         "kinematics.l_min: must be 0 or 0.001 to 10000 in magnitude, got "
         "1e-124"),
        ({**SMALLEST_REGRESSOR,
          "kinematics": {"l_min": 1.0, "travel_rate": 3.54e302}},
         "kinematics.travel_rate: must be 0 or 0.001 to 1e+06 in magnitude, "
         "got 3.54e+302"),
    ], ids=["underflowing-regressor", "past-the-limit"])
    @pytest.mark.parametrize("command", ["validate-config", "run-suite"])
    def test_online_fit_past_the_float_range_is_a_config_error(
            self, command, data, message, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        out = ["--out", str(tmp_path / "out")] if command == "run-suite" \
            else []
        assert cli_main([command, "--config", str(path), *out]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"config error: {message}"]
        assert not (tmp_path / "out").exists()

    def test_run_suite_and_report_at_the_online_fit_limit(self, tmp_path,
                                                          capsys):
        # every pooled point of the 1e-3 command is noise over a regressor
        # of 3e-17, whose square 1e-33 keeps the fit's sums normal
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**SMALLEST_REGRESSOR, "trials": 3}))
        out = tmp_path / "out"
        assert cli_main(["run-suite", "--config", str(path),
                         "--out", str(out)]) == 0
        assert cli_main(["report", str(out)]) == 0
        smallest = regressor(
            config_from_dict(SMALLEST_REGRESSOR).rig("glass-beads"), 1e-3,
            0.0)
        fit = out / "report" / f"fit_glass-beads_{GRAVITY}.csv"
        xs = [float(line.split(",")[0])
              for line in fit.read_text().splitlines()[1:]]
        assert smallest in xs
        fits = json.loads((out / "summary.json").read_text())["pooled_fits"]
        assert fits and all(f["c_prime"] is not None for f in fits)
        assert "unfitted" not in capsys.readouterr().out

    def test_run_suite_and_report_a_hair_above_the_offset(self, tmp_path,
                                                          capsys):
        # the first rung's regressor, about 5e-32, is the smallest positive
        # one of this rig; noise over it seeds and refits without a
        # float past its range, and the report recomputes every fit
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(OFFSET_EDGE))
        config = config_from_dict(OFFSET_EDGE)
        rig = config.rig("glass-beads")
        assert 0.0 < 5.0 - rig.l_offset < 1.1e-12
        smallest = regressor(rig, 5.0, 0.0)
        assert 0.0 < smallest < 1e-31
        out = tmp_path / "out"
        assert cli_main(["run-suite", "--config", str(path),
                         "--out", str(out)]) == 0
        assert cli_main(["report", str(out)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        fit = out / "report" / f"fit_glass-beads_{GRAVITY}.csv"
        xs = [float(line.split(",")[0])
              for line in fit.read_text().splitlines()[1:]]
        assert smallest in xs

    def test_masses_past_a_million_mg_print_in_six_digits(self, suite,
                                                          tmp_path, capsys):
        # a config keeps every mass under about 1e7 mg; a hand-edited
        # final_mass_mg may hold any finite float
        _, _, out = suite
        copy = tmp_path / "edited"
        shutil.copytree(out, copy)
        index = json.loads((copy / "summary.json").read_text())
        for entry, final in zip(index["trials"],
                                (1.2345678e151, -3e149, 2.5e6, 7e150)):
            entry["final_mass_mg"] = final
        (copy / "summary.json").write_text(json.dumps(index))
        assert cli_main(["report", str(copy)]) == 1  # the stored summary
        printed = capsys.readouterr().out
        trials = load_suite_records(copy)[0]
        dropped = [f"{format_mass(c.dropped_mean_mg)} +/- "
                   f"{format_mass(c.dropped_std_mg)}"
                   for c in compute_metrics(r for r, _ in trials)]
        assert all("e+1" in text and len(text) < 30 for text in dropped)
        for text in dropped:
            assert f" {text} " in printed
        # the dropped column widens to its rows and keeps the header's edge
        lines = (copy / "report" / "report.txt").read_text().splitlines()
        header = next(line for line in lines if "dropped mg" in line)
        edge = header.index("dropped mg") + len("dropped mg")
        rows = [line for line in lines if line.startswith("glass-beads  ")]
        assert [row[:edge].endswith(text)
                for row, text in zip(rows, dropped)] == [True, True]

    def test_masses_below_a_million_mg_keep_two_decimals(self):
        assert format_mass(3000.0) == "3000.00"
        assert format_mass(-0.1) == "-0.10"
        assert format_mass(999999.994) == "999999.99"
        assert format_mass(1e6) == "1e+06"
        assert format_mass(-1.2345678e151) == "-1.23457e+151"

    def test_run_suite_on_readings_of_1e19_ticks(self, tmp_path,
                                                 monkeypatch):
        # at the domain's 1e-12 mg resolution a reading near the 1e7 mg
        # load is about 1e19 ticks, past the fast path's 1e10: each such
        # reading is rounded on the exact decimal path
        decimals, readings = [], []
        quantize = plant.quantize_reading

        def spy_decimal(text):
            decimals.append(text)
            return Decimal(text)

        def spy_quantize(value, resolution):
            readings.append(quantize(value, resolution))
            return readings[-1]
        monkeypatch.setattr(plant, "Decimal", spy_decimal)
        monkeypatch.setattr(plant, "quantize_reading", spy_quantize)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "plant": {"balance": {"resolution": 1e-12},
                      "powders": {"glass-beads": {"initial_load": 1e7}}},
            "trials": 1, "powder": "glass-beads", "targets_mg": [1e7]}))
        assert cli_main(["run-suite", "--config", str(path),
                         "--out", str(tmp_path / "out")]) == 0
        assert max(readings) > 1e6
        assert len(decimals) >= sum(abs(r) >= 0.01 for r in readings)
        for reading in readings:
            assert Decimal(repr(reading)) % Decimal("1e-12") == 0

    @pytest.mark.parametrize("noise", [past(100.0), 1e154, 1e307, 1e308],
                             ids=["just-past", "1e154", "1e307", "1e308"])
    def test_run_suite_on_noise_that_overflows_a_fit(self, noise, tmp_path):
        # noise past 100 mg is outside the domain; from about 1e154 mg it
        # overflowed the pooled fits, and from 1e307 mg the controller's
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "plant": {"balance": {"noise_sigma": noise}}, "trials": 10,
            "powder": ["msg", "glass-beads"], "targets_mg": [20, 3000]}))
        proc = self.run_cli("run-suite", "--config", str(path),
                            "--out", str(tmp_path / "out"))
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.splitlines() == [
            f"config error: plant.balance.noise_sigma: must be at most 100 "
            f"in magnitude, got {noise!r}"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seed", [1, 4])
    def test_run_suite_and_report_at_the_noise_bound(self, seed, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "plant": {"balance": {"noise_sigma": 100.0}}, "trials": 10,
            "powder": ["msg", "glass-beads"], "targets_mg": [20, 3000],
            "seed": seed}))
        out = tmp_path / "out"
        proc = self.run_cli("run-suite", "--config", str(path),
                            "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        report = self.run_cli("report", str(out))
        assert report.returncode == 0, report.stderr

    @pytest.mark.parametrize("command, blocked, kind", [
        ("run-suite", "out", "file"),
        ("run-trial", "out", "file"),
        ("run-suite", "out/summary.json", "dir"),
        ("report", "out/report", "file"),
        ("report", "out/report/summary_recomputed.csv", "dir"),
        ("run-suite", "out/trials/glass-beads--model-based--t50--000.csv",
         "dir"),
    ], ids=["suite-out-is-a-file", "trial-out-is-a-file",
            "summary-json-is-a-dir", "report-dir-is-a-file",
            "recomputed-csv-is-a-dir", "trace-is-a-dir"])
    def test_unwritable_output_path_is_an_error(self, command, blocked, kind,
                                                cfg_path, suite, tmp_path):
        out = tmp_path / "out"
        if command == "report":
            shutil.copytree(suite[2], out,
                            ignore=shutil.ignore_patterns("report"))
        path = tmp_path / blocked
        if kind == "file":
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("")
        else:
            path.mkdir(parents=True)
        args = {"run-suite": ["--config", str(cfg_path), "--out", str(out)],
                "run-trial": ["--powder", "tio2", "--controller", "model",
                              "--target", "50", "--out", str(out)],
                "report": [str(out)]}[command]
        proc = self.run_cli(command, *args)
        assert proc.returncode == 1
        assert str(path) in proc.stderr
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1

    @pytest.mark.parametrize("command, flag, value, code", [
        ("run-trial", "--seed", "1" * 5000, 2),
        ("run-trial", "--target", "1" + "x" * 400, 2),
        ("run-suite", "--out", "o" * 600, 1),
        ("report", None, "r" * 600, 1),
        ("run-trial", None, "s" * 5000, 2),
    ], ids=["5000-digit-seed", "long-bad-target", "long-out",
            "long-artifact-dir", "long-stray-argument"])
    def test_long_flag_values_are_echoed_bounded(self, command, flag, value,
                                                 code, cfg_path, tmp_path):
        # argparse's errors and the OS errors of a path too long to open
        # echo the value as config.shown_path bounds it
        if code == 1:                    # a path that cannot be opened
            value = str(tmp_path / value)
        args = [value] if flag is None else [flag, value]
        if command == "run-suite":
            args += ["--config", str(cfg_path)]
        proc = self.run_cli(command, *args)
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr
        assert max(map(len, proc.stderr.splitlines())) <= 300

    def test_report_on_empty_dir_fails(self, tmp_path):
        proc = self.run_cli("report", str(tmp_path / "empty"))
        assert proc.returncode == 1
        assert proc.stderr

    @pytest.mark.parametrize("make, reason", [
        (lambda index: index.parent.mkdir(), errno.ENOENT),
        (lambda index: index.mkdir(parents=True), errno.EISDIR),
    ], ids=["missing", "a-directory"])
    def test_report_names_why_summary_json_cannot_be_read(self, tmp_path,
                                                          make, reason):
        index = tmp_path / "out" / "summary.json"
        make(index)
        proc = self.run_cli("report", str(index.parent))
        assert proc.returncode == 1
        assert f"cannot read {index}: " in proc.stderr
        assert os.strerror(reason) in proc.stderr
        assert "Traceback" not in proc.stderr
