"""Benchmark harness: trial and suite runners and their metrics.

A suite is the cross product powders x controllers x targets with a fixed
number of trials per condition. Every trial gets its own pair of random
substreams derived from (suite seed, condition checksum, trial index), so
a single trial rerun standalone reproduces its in-suite twin bit for bit
and reordering conditions never shifts anybody's draws.

The config rules live in config, and the records run_suite returns and
the artifacts it writes in artifacts.
"""

from __future__ import annotations

import math
import zlib
from collections.abc import Iterable, Mapping
from dataclasses import replace
from pathlib import Path

from .artifacts import (ConditionStats, PooledFit, StepTrace, SuiteSummary,
                        TrialRecord, trial_id, write_suite_artifacts)
from .config import MODEL_BASED, ConfigError, ExperimentConfig, is_count
from .control import (DEFAULT_TOLERANCE_MG, DispensingController,
                      PidBaselineController, TrialStatus)
from .flow import GRAVITY, VIBRATION, PowderSpec, ValveKinematics
from .identify import (MIN_OBSERVABLE_MG, Observation, fit_coefficient,
                       select_mode)
from .plant import SimulatedPlant


def _condition_checksum(powder: str, controller: str, target_mg: float) -> int:
    return zlib.crc32(f"{powder}/{controller}/{target_mg:g}".encode())


def _needs_vibration(spec: PowderSpec, kin: ValveKinematics) -> bool:
    return spec.critical_arch_diameter >= kin.opening_per_command * kin.l_max


def run_trial(config: ExperimentConfig, trial_index: int = 0, *,
              powder: str | None = None, controller: str | None = None,
              target_mg: float | None = None) -> TrialRecord:
    """Run one closed-loop trial and return its full record.

    The overrides replace the config's lists, under the config's rules;
    the config must then pin exactly one powder, controller and target.
    """
    overrides = {name: (value,) for name, value in (
        ("powders", powder), ("controllers", controller),
        ("targets_mg", target_mg)) if value is not None}
    if overrides:
        config = replace(config, **overrides)
    conditions = config.conditions()
    if len(conditions) != 1:
        raise ConfigError([f"run_trial needs exactly one condition, config "
                           f"names {len(conditions)}"])
    if not is_count(trial_index, 0):
        raise ConfigError([f"trial_index: must be an integer >= 0, "
                           f"got {trial_index!r}"])
    ((powder, controller_name, target),) = conditions
    spec = config.powder_spec(powder)
    kin = config.kinematics
    plant = SimulatedPlant(
        spec, kin, config.balance, seed=config.seed,
        stream_key=(_condition_checksum(powder, controller_name, target),
                    trial_index))
    if controller_name == MODEL_BASED:
        ctl: DispensingController | PidBaselineController = \
            DispensingController(
                target, kin, k_p=config.k_p_for(powder),
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
    reading, _ = plant.read_balance(wait_settle=False)
    steps: list[StepTrace] = []
    while True:
        decision = ctl.step(
            reading, hopper_empty=plant.dispensed_total >= initial_load)
        if decision.status is not running:
            break
        action = decision.action
        true_delta, _ = plant.execute(action.l_command, action.t_pose_s,
                                      action.vibration)
        previous = reading
        reading, _ = plant.read_balance()
        if model_based:
            estimate = ctl.estimate
            c_gravity = estimate.gravity.c_prime
            c_vibration = estimate.vibration.c_prime
        else:
            c_gravity = c_vibration = None
        # positional, in StepTrace field order
        steps.append(StepTrace(
            len(steps) + 1, action.l_command, action.t_pose_s,
            action.vibration, decision.predicted_mg, reading - previous,
            c_gravity, c_vibration, target - reading, plant.sim_clock,
            true_delta, decision.probe))
    return TrialRecord(
        trial_id=trial_id(powder, controller_name, target, trial_index),
        powder=powder,
        controller=controller_name,
        target_mg=target,
        trial_index=trial_index,
        status=ctl.status,
        final_mass_mg=ctl.w_measured,
        total_steps=len(steps),
        total_sim_time_s=plant.sim_clock,
        steps=tuple(steps),
    )


def compute_metrics(records: Iterable[TrialRecord],
                    tolerance: float = DEFAULT_TOLERANCE_MG
                    ) -> list[ConditionStats]:
    """Per-condition statistics over completed trials.

    Success means the final dispensed reading landed within the tolerance
    band of the target. Aborted trials are excluded from the statistics.
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
        successes = sum(1 for f in finals if abs(f - target) <= tolerance)
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


def pooled_observations(records: Iterable[TrialRecord]
                        ) -> dict[str, list[Observation]]:
    """Measurable steps of model-based trials, pooled per powder.

    Every executed step whose measured delta clears the observability gate
    counts, probe steps included; the pool is what a suite-wide refit of
    the drop model sees.
    """
    pools: dict[str, list[Observation]] = {}
    for record in records:
        if record.controller != MODEL_BASED:
            continue
        for row in record.steps:
            if row.measured_delta_mg < MIN_OBSERVABLE_MG:
                continue
            # positional, in Observation field order
            pools.setdefault(record.powder, []).append(Observation(
                row.l_command, row.t_pose_s, row.vibration,
                row.measured_delta_mg))
    return pools


def pooled_fits(records: Iterable[TrialRecord]
                | Mapping[str, list[Observation]],
                kin: ValveKinematics) -> list[PooledFit]:
    """One refit per powder and mode of the pooled observations.

    records may also be the pools pooled_observations made of them, for a
    caller that needs the pools too.
    """
    pools = (records if isinstance(records, Mapping)
             else pooled_observations(records))
    fits = []
    for powder, observations in pools.items():
        for mode in (GRAVITY, VIBRATION):
            selected = select_mode(observations, mode)
            if not selected:
                continue
            fit = fit_coefficient(selected, kin, mode)
            fits.append(PooledFit(
                powder=powder, mode=mode, c_prime=fit.c_prime,
                r_squared=fit.r_squared, n_points=len(selected)))
    return fits


def run_suite(config: ExperimentConfig, *, out_dir: str | Path | None = None,
              write_artifacts: bool = True) -> SuiteSummary:
    """Run every (powder x controller x target) condition of the config.

    Trials run sequentially in a deterministic order; artifacts land under
    out_dir (default: the config's out_dir) unless write_artifacts is off.
    """
    records: list[TrialRecord] = []
    for powder, controller, target in config.conditions():
        condition = replace(config, powders=(powder,),
                            controllers=(controller,), targets_mg=(target,))
        for index in range(config.trials):
            records.append(run_trial(condition, index))
    summary = SuiteSummary(
        config=config,
        conditions=tuple(compute_metrics(records, config.tolerance_mg)),
        pooled_fits=tuple(pooled_fits(records, config.kinematics)),
        trials=tuple(records),
    )
    if write_artifacts:
        write_suite_artifacts(summary, out_dir)
    return summary

