"""Benchmark harness: trial and suite runners and their metrics.

A suite is the cross product powders x controllers x targets with a fixed
number of trials per condition, run in that order. Every trial gets its
own pair of random substreams derived from (suite seed, condition
checksum, trial index), so a single trial rerun standalone reproduces its
in-suite twin bit for bit and reordering conditions never shifts anybody's
draws. run_suite seeds all of a suite's streams in one plant_states call:
every key (condition checksum, trial index) takes one 32-bit word per
element, as a CRC-32 and an index below the step budget do.

A trial alternates the controller's step and the plant's: the tare
reading, then one executed action and one settled reading per step, until
the controller returns a terminal status. Its record keeps every executed
step as a StepTrace.

A model-based trial's controller runs on its powder's identify.Rig,
which ExperimentConfig.rig builds: the kinematics and the powder's
Beverloo offset.

pooled_points gives, per (powder, mode), the regressors and measured
deltas of a suite's model-based steps that the controller's log would
keep, by identify.observed_regressor under the powder's Rig, as two
parallel lists; pooled_fits fits each pair through identify.fit_points,
and report writes the same lists to its fit CSVs. It reads each trial's
record and the (L, t_pose_s, vibration, measured_delta_mg) points of its
steps: run_suite takes them from its StepTraces, report zips them from a
trace's columns, and neither builds a row for the other. Both hand it
ExperimentConfig.rig, the builder of the controllers' Rigs, so the
refit and the controllers take one Rig a powder.

The config rules live in config, and the records run_suite returns and
the artifacts it writes in artifacts.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from dataclasses import replace
from itertools import repeat
from operator import itemgetter
from pathlib import Path

import numpy as np

from .artifacts import (ConditionStats, PooledFit, StepTrace, SuiteSummary,
                        TrialRecord, trial_id, write_suite_artifacts)
from .config import (MODEL_BASED, ConfigError, ExperimentConfig,
                     condition_checksum, is_count, shown)
from .control import DispensingController, PidBaselineController, TrialStatus
from .flow import MODES, PowderSpec, ValveKinematics
from .identify import Rig, fit_points, observed_regressor
from .plant import SimulatedPlant, plant_states


def _needs_vibration(spec: PowderSpec, kin: ValveKinematics) -> bool:
    return spec.critical_arch_diameter >= kin.opening_per_command * kin.l_max


def _stream_key(powder: str, controller: str, target: float,
                trial_index: int) -> tuple[int, int]:
    return condition_checksum(powder, controller, target), trial_index


def _listed(value: object, values: tuple) -> bool:
    """Whether value is one of a config's checked values, type and all."""
    return type(value) is type(values[0]) and value in values


def run_trial(config: ExperimentConfig, trial_index: int = 0, *,
              powder: str | None = None, controller: str | None = None,
              target_mg: float | None = None,
              states: np.ndarray | None = None) -> TrialRecord:
    """Run one closed-loop trial and return its full record.

    The overrides replace the config's lists, under the config's rules;
    the config must then pin exactly one powder, controller and target.
    An override that is one of the config's own values, as run_suite
    passes them, is already checked and rebuilds nothing. states, when
    given, are the trial's stream states as plant_states gives them for
    its stream key; run_suite computes every trial's in one call. Without
    them the plant computes its own.
    """
    if not ((powder is None or _listed(powder, config.powders))
            and (controller is None
                 or _listed(controller, config.controllers))
            and (target_mg is None
                 or _listed(target_mg, config.targets_mg))):
        config = replace(config, **{
            name: (pick,) for name, pick in (("powders", powder),
                                             ("controllers", controller),
                                             ("targets_mg", target_mg))
            if pick is not None})
        powder = controller = target_mg = None
    powders = config.powders if powder is None else (powder,)
    controllers = config.controllers if controller is None else (controller,)
    targets = config.targets_mg if target_mg is None else (target_mg,)
    if (count := len(powders) * len(controllers) * len(targets)) != 1:
        raise ConfigError([f"run_trial needs exactly one condition, config "
                           f"names {count}"])
    if not is_count(trial_index, 0):
        raise ConfigError([f"trial_index: must be an integer >= 0, "
                           f"got {shown(trial_index)}"])
    return _run_condition(config, powders[0], controllers[0], targets[0],
                          trial_index, states)


def _run_condition(config: ExperimentConfig, powder: str,
                   controller_name: str, target: float, trial_index: int,
                   states: np.ndarray | None) -> TrialRecord:
    """run_trial's trial, of a condition the config has checked."""
    spec = config.powder_spec(powder)
    kin = config.kinematics
    # the plant reads the stream key only when it is given no states
    plant = SimulatedPlant(
        spec, kin, config.balance, seed=config.seed,
        stream_key=() if states is not None else _stream_key(
            powder, controller_name, target, trial_index),
        states=states)
    if controller_name == MODEL_BASED:
        ctl: DispensingController | PidBaselineController = \
            DispensingController(
                target, config.rig(powder), k_p=config.k_p,
                tolerance=config.tolerance_mg, max_steps=config.max_steps)
    else:
        ctl = PidBaselineController(
            target, kin, gains=config.pid_gains,
            vibration=_needs_vibration(spec, kin),
            tolerance=config.tolerance_mg, max_steps=config.max_steps)
    # plant.depleted is remaining <= 0, which for finite floats is this
    initial_load = spec.initial_load
    model_based = controller_name == MODEL_BASED
    running = TrialStatus.RUNNING
    # the estimate whose coefficients c_gravity and c_vibration hold; a
    # refit replaces ctl.estimate, so they are read again only then
    estimate = c_gravity = c_vibration = None
    reading, _ = plant.read_balance(False)
    # one plain tuple per step in StepTrace field order; the StepTraces
    # are built once the trial has ended
    rows: list[tuple] = []
    while True:
        status, action, predicted, probe = ctl.step(
            reading, plant.dispensed_total >= initial_load)
        if status is not running:
            break
        l_command, t_pose_s, vibration = action
        true_delta, _ = plant.execute(l_command, t_pose_s, vibration)
        previous = reading
        reading, _ = plant.read_balance()
        if model_based and ctl.estimate is not estimate:
            estimate = ctl.estimate
            c_gravity = estimate.gravity.c_prime
            c_vibration = estimate.vibration.c_prime
        rows.append((ctl.step_count, l_command, t_pose_s, vibration,
                     predicted, reading - previous, c_gravity, c_vibration,
                     target - reading, plant.sim_clock, true_delta, probe))
    # tuple.__new__ builds the record and each StepTrace without a Python
    # call, as read_trace_csv does; the fields in TrialRecord order
    return tuple.__new__(TrialRecord, (
        trial_id(powder, controller_name, target, trial_index), powder,
        controller_name, target, trial_index, ctl.status, ctl.w_measured,
        ctl.step_count, plant.sim_clock,
        tuple(map(tuple.__new__, repeat(StepTrace), rows))))


def compute_metrics(records: Iterable[TrialRecord]) -> list[ConditionStats]:
    """Per-condition statistics over completed trials.

    A success is a trial whose status is SUCCESS: the controllers' stop
    rule, which alone reads the tolerance, is the one verdict. Aborted
    trials are excluded from the statistics.
    """
    grouped: dict[tuple[str, str, float], list[TrialRecord]] = {}
    for record in records:
        if record.status is TrialStatus.ABORTED:
            continue
        key = (record.powder, record.controller, record.target_mg)
        grouped.setdefault(key, []).append(record)
    out = []
    for (powder, controller, target), group in grouped.items():
        finals = [r.final_mass_mg for r in group]
        steps = [float(r.total_steps) for r in group]
        times = [r.total_sim_time_s for r in group]
        successes = sum(1 for r in group if r.status is TrialStatus.SUCCESS)
        out.append(ConditionStats(
            powder=powder, controller=controller, target_mg=target,
            trials=len(group), successes=successes,
            dropped_mean_mg=_mean(finals), dropped_std_mg=_sample_std(finals),
            steps_mean=_mean(steps), steps_std=_sample_std(steps),
            time_mean_s=_mean(times), time_std_s=_sample_std(times),
            degenerate_stats=len(group) < 2,
        ))
    return out


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _sample_std(values: list[float]) -> float:
    n = len(values)
    if n < 2:
        return 0.0
    m = _mean(values)
    try:
        variance = sum((v - m) ** 2 for v in values) / (n - 1)
    except OverflowError:
        variance = math.inf
    if variance != math.inf:
        return math.sqrt(variance)
    # a deviation past about 1e154 squares out of range; hypot scales
    return math.hypot(*(v - m for v in values)) / math.sqrt(n - 1)


# (powder, mode) -> (regressors, measured deltas), as pooled_points gives it
_Points = dict[tuple[str, str], tuple[list[float], list[float]]]
# A StepTrace's (l_command, t_pose_s, vibration, measured_delta_mg), the
# point of a step that pooled_points reads
_step_point = itemgetter(1, 2, 3, 5)


def pooled_points(trials: Iterable[tuple[TrialRecord, Iterable[tuple]]],
                  rig_for: Callable[[str], Rig]) -> _Points:
    """The data points of a suite-wide refit of the drop model.

    Takes (record, points) pairs: a trial's record, whose steps are not
    read, and the (L, t_pose_s, vibration, measured_delta_mg) point of
    each of its executed steps in step order; and rig_for, which gives a
    powder's Rig and is called once a powder (ExperimentConfig.rig). Maps
    each (powder, mode) to two parallel lists, the regressors and the
    measured deltas of the points of model-based trials that
    identify.observed_regressor keeps under the powder's Rig, the rule
    the controllers' logs apply, probe steps and regressors of 0
    included, in trial and step order; aborted trials, which end on a
    reading that is not finite, are left out, as compute_metrics leaves
    them out. Keys run by powder in order of first appearance, gravity
    before vibration. ValueError, naming the trial and the 1-based step,
    on a delta that is not finite or a kept step outside the valve
    envelope.
    """
    # powder -> its Rig and the (regressors, deltas) of gravity, then of
    # vibration
    pools: dict[str, tuple[Rig, tuple[tuple[list[float], list[float]],
                                      ...]]] = {}
    for record, points in trials:
        if record.controller != MODEL_BASED \
                or record.status is TrialStatus.ABORTED:
            continue
        powder = record.powder
        if powder not in pools:
            pools[powder] = (rig_for(powder), (([], []), ([], [])))
        rig, pairs = pools[powder]
        for step, (l_command, t_pose_s, vibration, delta) in enumerate(
                points, 1):
            try:
                x = observed_regressor(rig, l_command, t_pose_s, delta)
            except ValueError as exc:
                raise ValueError(f"trial {record.trial_id} step {step}: "
                                 f"{exc}") from None
            if x is not None:
                xs, deltas = pairs[vibration]
                xs.append(x)
                deltas.append(delta)
    return {(powder, mode): pair for powder, (_, pairs) in pools.items()
            for mode, pair in zip(MODES, pairs) if pair[0]}


def pooled_fits(points: _Points) -> list[PooledFit]:
    """One refit per (powder, mode) of the points pooled_points makes of
    a suite's records, in their order. ValueError, naming the powder and
    the mode, on a fit that leaves the float range."""
    fits = []
    for (powder, mode), (xs, deltas) in points.items():
        try:
            fit = fit_points(xs, deltas)
        except OverflowError:
            raise ValueError(f"pooled {mode} fit of {powder}: its sums "
                             f"overflow a float") from None
        except ValueError as exc:
            raise ValueError(f"pooled {mode} fit of {powder}: {exc}") \
                from None
        fits.append(PooledFit(powder, mode, fit.c_prime, fit.r_squared,
                              len(xs)))
    return fits


def run_suite(config: ExperimentConfig, *, out_dir: str | Path | None = None,
              write_artifacts: bool = True) -> SuiteSummary:
    """Run every (powder x controller x target) condition of the config.

    Trials run sequentially in a deterministic order; artifacts land under
    out_dir (default: the config's out_dir) unless write_artifacts is off.
    """
    conditions = config.conditions()
    trials = range(config.trials)
    # 32 bytes a stream; each trial builds its Generators from its rows
    checksums = [condition_checksum(*condition) for condition in conditions]
    states = plant_states(config.seed, [
        (checksum, index) for checksum in checksums for index in trials]
    ).reshape(len(conditions), len(trials), 2, 4)
    records: list[TrialRecord] = []
    for (powder, controller, target), condition_states in zip(conditions,
                                                              states):
        for index in trials:
            # run_trial takes the config's own values without rebuilding
            # it, and benchmarks/tracing.py times each trial at this call
            records.append(run_trial(
                config, index, powder=powder, controller=controller,
                target_mg=target, states=condition_states[index]))
    summary = SuiteSummary(
        config=config,
        conditions=tuple(compute_metrics(records)),
        pooled_fits=tuple(pooled_fits(pooled_points(
            [(record, map(_step_point, record.steps)) for record in records],
            config.rig))),
        trials=tuple(records),
    )
    if write_artifacts:
        write_suite_artifacts(summary, out_dir)
    return summary

