"""Benchmark harness: config parsing, trials, metrics, artifacts, CLI."""

import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powderdose import (
    GRAVITY,
    VIBRATION,
    BalanceModel,
    ConditionStats,
    ConfigError,
    ExperimentConfig,
    PooledFit,
    StepTrace,
    SuiteSummary,
    TrialRecord,
    TrialStatus,
    ValveKinematics,
    build_report,
    compute_metrics,
    config_from_dict,
    config_to_dict,
    load_config,
    pooled_fits,
    pooled_observations,
    read_trace_csv,
    run_suite,
    run_trial,
    write_suite_artifacts,
    write_trace_csv,
)
from powderdose import artifacts, control, harness, plant
from powderdose.artifacts import (
    SUMMARY_COLUMNS,
    TRACE_COLUMNS,
    load_suite_records,
    trial_id,
)
from powderdose.cli import main as cli_main
from powderdose.config import DIRECT_PID, MODEL_BASED, resolve_out_dir
from powderdose.identify import ObservationLog

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
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
        assert config_from_dict({"k_p": 1.0}).k_p_for("msg") == 1.0
        for bad in (0.0, 1.5, -0.2):
            with pytest.raises(ConfigError):
                config_from_dict({"k_p": bad})

    def test_k_p_per_powder(self):
        config = config_from_dict({"k_p": {"glass-beads": 0.8}})
        assert config.k_p_for("glass-beads") == 0.8
        assert config.k_p_for("msg") == 0.5
        with pytest.raises(ConfigError):
            config_from_dict({"k_p": {"glass-beads": 1.5}})
        with pytest.raises(ConfigError):
            config_from_dict({"k_p": {"granite": 0.5}})

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
    ], ids=["null-powder", "null-controller", "huge-target",
            "huge-tolerance", "huge-k_p", "huge-k_p-entry", "huge-l_max",
            "huge-override", "text-override", "bool-override"])
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
            k_p={"glass-beads": 0.7},
            plant={"powders": {"glass-beads": {"initial_load": 900.0}}})
        assert config_from_dict(config_to_dict(config)) == config


class TestComputeMetrics:
    def test_hand_computed_statistics(self):
        records = [record_for(499.0, index=0, total_steps=3, time=10.0),
                   record_for(503.0, index=1, total_steps=5, time=20.0)]
        (stats,) = compute_metrics(records)
        assert stats.trials == 2
        assert stats.successes == 1          # 503 misses the +/-2 band
        assert stats.dropped_mean_mg == 501.0
        assert stats.dropped_std_mg == 2.8284271247461903
        assert stats.steps_mean == 4.0
        assert stats.time_mean_s == 15.0
        assert not stats.degenerate_stats

    def test_success_band_is_inclusive(self):
        records = [record_for(498.0, index=0), record_for(502.0, index=1)]
        (stats,) = compute_metrics(records)
        assert stats.successes == 2

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
        pools = pooled_observations(records)
        assert len(pools["glass-beads"]) == 2    # pid record contributes none
        fits = pooled_fits(records, ValveKinematics())
        by_mode = {f.mode: f for f in fits}
        assert by_mode[GRAVITY].n_points == 1
        assert by_mode[VIBRATION].n_points == 1
        x = 50.0 ** 2.5 * (0.5 + 2.0)
        assert by_mode[GRAVITY].c_prime == pytest.approx(5.0 / x, rel=1e-12)
        assert by_mode[VIBRATION].c_prime == pytest.approx(7.0 / x, rel=1e-12)


class TestRunTrial:
    def test_is_deterministic(self):
        config = small_config()
        first = run_trial(config, 1)
        second = run_trial(config, 1)
        assert first == second
        assert first != run_trial(config, 0)

    def test_matches_in_suite_execution(self):
        config = small_config()
        summary = run_suite(config, write_artifacts=False)
        for index in range(config.trials):
            assert summary.trials[index] == run_trial(config, index)

    def test_requires_a_pinned_condition(self):
        with pytest.raises(ConfigError):
            run_trial(ExperimentConfig(), 0)
        record = run_trial(ExperimentConfig(), 0, powder="glass-beads",
                           controller="model", target_mg=50.0)
        assert record.controller == MODEL_BASED
        assert record.status is TrialStatus.SUCCESS

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


# Digest of each shipped config's in-memory suite, measured when the plant
# step was made cheaper. A change meant only to be faster must leave them;
# a change that moves the simulation on purpose updates them and says why.
GOLDEN_SUITE_DIGESTS = {
    "default.json": "2e394c572516d206",
    "noise-free.json": "a2a9ddc071764678",
    "pid-contrast.json": "077fb60cb88cf041",
    "quick.json": "c4b74740e8dbeade",
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


# Digest of every file that run-suite and report write for quick.json,
# report/ included, measured before the persisted formats moved into one
# module. A change to any artifact byte shows here.
GOLDEN_QUICK_TREE_DIGEST = "bcf060cb3f42f247"


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


def test_traced_names_see_every_unit_of_work(monkeypatch):
    """The names the benchmark tracer wraps stay on the hot path.

    One select_action call finds each model action that is not a probe,
    one quantize_reading call makes each balance reading, one
    ObservationLog.record call takes each ingested model step and two each
    confirmed first observation, and one harness fit_coefficient call
    makes each pooled fit.
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
    spy(harness, "fit_coefficient")
    spy(plant, "quantize_reading")
    spy(ObservationLog, "record")
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
    # end of a trial was confirmed once, from two recorded observations
    ingested = sum(not row.probe for r in model for row in r.steps[:-1])
    confirmed = sum((r.steps[-1].cprime_gravity is not None)
                    + (r.steps[-1].cprime_vibration is not None)
                    for r in model if r.steps)
    assert len(seen["record"]) == ingested + 2 * confirmed
    assert len(seen["fit_coefficient"]) == len(summary.pooled_fits) > 0


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    out = tmp_path_factory.mktemp("artifacts")
    config = small_config()
    summary = run_suite(config, out_dir=out)
    return config, summary, out


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
      "total_sim_time_s": 30.5,
      "trace_csv": "trials/glass-beads--model-based--t50--003.csv"
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
        assert load_suite_records(out)[::2] == ([record], [])


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
            parsed = read_trace_csv(path)
        assert len(parsed) == len(steps)
        for got, original in zip(parsed, steps):
            for _, attr, _ in artifacts._TRACE_FORMAT:
                assert same_cell(getattr(got, attr), getattr(original, attr)), \
                    (attr, getattr(got, attr), getattr(original, attr))
            assert (got.true_delta_mg, got.probe) == (0.0, False)

    def test_a_shorter_trace_replaces_a_longer_one(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace_csv(record_for(0.0, steps=numbered_steps(30)), path)
        short = record_for(0.0, steps=numbered_steps(3))
        write_trace_csv(short, path)
        assert path.read_bytes() == csv_writer_trace(short.steps)
        assert read_trace_csv(path) == list(short.steps)

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

    @pytest.mark.parametrize("column, text, message", [
        ("measured_delta_mg", "x",
         "line 5: measured_delta_mg must be a number, got 'x'"),
        ("cprime_gravity", "1e", "line 5: cprime_gravity must be a number, "
                                 "got '1e'"),
        ("step", "1.5", "line 5: step must be an integer, got '1.5'"),
        ("vibration", "2", "line 5: vibration must be 0 or 1, got '2'"),
        ("L", "1,2", "line 5 has 11 fields, expected 10"),
    ], ids=["float", "optional-float", "int", "bool", "width"])
    def test_a_bad_row_after_a_two_line_cell_names_its_line(
            self, tmp_path, column, text, message):
        path = tmp_path / "trace.csv"
        write_trace_csv(record_for(0.0, steps=numbered_steps(4)), path)
        lines = path.read_bytes().split(b"\r\n")
        # the first step's quoted step cell spans two lines, so the third
        # step is on line 5
        lines[1] = b'"1\r\n"' + lines[1][1:]
        cells = lines[3].split(b",")
        cells[TRACE_COLUMNS.index(column)] = text.encode()
        lines[3] = b",".join(cells)
        path.write_bytes(b"\r\n".join(lines))
        with pytest.raises(ValueError, match=f"{message}$"):
            read_trace_csv(path)


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
        _, summary, out = suite
        record = summary.trials[0]
        rows = read_trace_csv(out / "trials" / f"{record.trial_id}.csv")
        assert len(rows) == record.total_steps
        for parsed, original in zip(rows, record.steps):
            for name in TRACE_COLUMNS:
                key = {"step": "step", "L": "l_command"}.get(name, name)
                assert getattr(parsed, key) == getattr(original, key)

    def test_summary_json_echoes_the_config(self, suite):
        config, summary, out = suite
        data = json.loads((out / "summary.json").read_text())
        assert data["config"] == config_to_dict(config)
        assert config_from_dict(data["config"]) == config
        assert len(data["trials"]) == len(summary.trials)
        for entry in data["trials"]:
            assert (out / entry["trace_csv"]).is_file()

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
        (lambda entry, trace: trace.write_text(
            trace.read_text() + "99,5.0,0.0\n"),
         "has 3 fields, expected 10"),
        (lambda entry, trace: trace.write_text(""),
         "unexpected trace header ()"),
        (lambda entry, trace: widen_every_command(trace),
         "cannot refit the traces"),
        (lambda entry, trace: entry.update(powder="glass/beads"),
         "unknown powder 'glass/beads'"),
        (lambda entry, trace: set_first_cell(trace, "vibration", "2"),
         "line 2: vibration must be 0 or 1, got '2'"),
        (lambda entry, trace: set_first_cell(trace, "measured_delta_mg", "x"),
         "line 2: measured_delta_mg must be a number, got 'x'"),
        (lambda entry, trace: set_first_cell(trace, "step", "1.5"),
         "line 2: step must be an integer, got '1.5'"),
        # a valid trace, but named by a path the index rule does not give
        (lambda entry, trace: entry.update(trace_csv=str(trace.resolve())),
         "is not the trial's trace 'trials/glass-beads--model-based--t50--001"
         ".csv'"),
        (lambda entry, trace: entry.update(
            trace_csv="../edited/" + entry["trace_csv"]),
         "trace_csv '../edited/trials/"),
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
    ], ids=["missing-key", "unknown-status", "short-row", "empty-trace",
            "command-beyond-l-max", "powder-with-slash", "vibration-cell",
            "delta-cell-not-a-number", "step-cell-not-an-integer",
            "absolute-trace-path", "parent-trace-path", "trial-id-mismatch",
            "unknown-controller", "mass-beyond-float", "index-not-utf8"])
    def test_report_rejects_a_hand_edited_index(self, suite, tmp_path, capsys,
                                                edit, message):
        _, _, out = suite
        copy = tmp_path / "edited"
        shutil.copytree(out, copy)
        index = json.loads((copy / "summary.json").read_text())
        entry = index["trials"][1]
        raw = edit(entry, copy / entry["trace_csv"])
        (copy / "summary.json").write_bytes(
            raw if isinstance(raw, bytes) else json.dumps(index).encode())
        assert cli_main(["report", str(copy)]) == 1
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("edit, message", [
        (lambda index, out: index["conditions"][0].update(successes=1),
         "conditions glass-beads / model-based / 50.0: successes stored 1, "
         "recomputed 2"),
        (lambda index, out: index["pooled_fits"][0].update(c_prime=0.5),
         "pooled_fits glass-beads / gravity: c_prime stored 0.5, "
         "recomputed 0.0379"),
        (lambda index, out: (out / "summary.csv").write_text(
            (out / "summary.csv").read_text() + "glass-beads,x\n"),
         "summary.csv: does not match the summary recomputed"),
    ], ids=["successes", "c-prime", "summary-csv-row"])
    def test_report_checks_the_stored_summary(self, suite, tmp_path, capsys,
                                              edit, message):
        _, _, out = suite
        copy = tmp_path / "edited"
        shutil.copytree(out, copy)
        index = json.loads((copy / "summary.json").read_text())
        edit(index, copy)
        (copy / "summary.json").write_text(json.dumps(index))
        assert cli_main(["report", str(copy)]) == 1
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

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


class TestCli:
    def run_cli(self, *args, env_extra=None):
        env = dict(os.environ)
        env.pop("POWDERDOSE_OUT", None)
        env.update(env_extra or {})
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        return subprocess.run(
            [sys.executable, "-m", "powderdose.cli", *args],
            capture_output=True, text=True, env=env)

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

    @pytest.mark.parametrize("balance", [
        {"noise_sigma": 1e27}, {"resolution": 1e-300},
    ], ids=["noise", "resolution"])
    def test_run_suite_on_readings_of_1e28_ticks(self, balance, tmp_path):
        # tick counts past the 28 digits of the default decimal context
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "plant": {"balance": balance}, "trials": 1, "powder": "msg",
            "targets_mg": [20]}))
        proc = self.run_cli("run-suite", "--config", str(path),
                            "--out", str(tmp_path / "out"))
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("noise, seed", [(1e154, 1), (1e308, 4),
                                             (1e308, 1), (1e307, 1)],
                             ids=["pooled-r-squared", "pooled-delta",
                                  "controller-refit", "refit-at-1e307"])
    def test_run_suite_on_noise_that_overflows_a_fit(self, noise, seed,
                                                     tmp_path):
        # each overflowed a fit at this seed before noise_sigma was
        # bounded: the pooled R^2, an infinite pooled delta, and the
        # controller's own refit, at 1e308 and at 1e307, where every
        # reading is still finite
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "plant": {"balance": {"noise_sigma": noise}}, "trials": 10,
            "powder": ["msg", "glass-beads"], "targets_mg": [20, 3000],
            "seed": seed}))
        proc = self.run_cli("run-suite", "--config", str(path),
                            "--out", str(tmp_path / "out"))
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "plant.balance.noise_sigma: must be <= 1e+100" in proc.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seed", [1, 4])
    def test_run_suite_and_report_at_the_noise_bound(self, seed, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "plant": {"balance": {"noise_sigma": 1e100}}, "trials": 10,
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

    def test_report_on_empty_dir_fails(self, tmp_path):
        proc = self.run_cli("report", str(tmp_path / "empty"))
        assert proc.returncode == 1
        assert proc.stderr
