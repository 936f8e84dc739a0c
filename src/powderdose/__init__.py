"""Closed-loop powder micro-dispensing: model, controllers, simulated rig.

The package has these layers, each importing only from those above it:

    flow       granular discharge model and the command-unit drop predictor
    identify   online least-squares estimation of the lumped coefficient
    control    model-based dispensing controller and a direct-PID baseline
    plant      stochastic simulated hopper, valve, vibrator and balance
    powders    the three archetype powders
    config     the experiment config, its rules and its JSON form
    artifacts  the persisted records and every artifact format: written,
               read and checked
    harness    trial and suite runners and their metrics
    report     rebuilds and checks summary tables from persisted artifacts
    cli        wires it all to the `powderdose` command
"""

from .artifacts import (ConditionStats, PooledFit, StepTrace, SuiteSummary,
                        TrialRecord, read_trace_csv, write_suite_artifacts,
                        write_trace_csv)
from .config import (CONTROLLER_ALIASES, DIRECT_PID, MODEL_BASED, ConfigError,
                     ExperimentConfig, config_from_dict, config_to_dict,
                     load_config, resolve_out_dir)
from .control import (DEFAULT_K_P, DEFAULT_MAX_STEPS, DEFAULT_TOLERANCE_MG,
                      ActionGrid, ActionSelection, DispensingController,
                      PidBaselineController, PidGains, StepDecision,
                      TrialStatus, ValveAction, select_action)
from .flow import (G_MM_S2, GRAVITY, MODES, VIBRATION, DispenseModel,
                   PowderSpec, ValveKinematics, beverloo_rate,
                   effective_coefficient, predicted_drop)
from .harness import (compute_metrics, pooled_fits, pooled_observations,
                      run_suite, run_trial)
from .identify import (MIN_OBSERVABLE_MG, CoefficientEstimate, ModeFit,
                       Observation, ObservationLog, fit_coefficient,
                       regressor)
from .plant import BalanceModel, SimulatedPlant, quantize_reading
from .powders import ARCHETYPES, GLASS_BEADS, MSG, TIO2, archetype
from .report import ReportResult, build_report

__version__ = "0.1.0"

__all__ = [
    "ARCHETYPES", "ActionGrid", "ActionSelection", "BalanceModel",
    "CONTROLLER_ALIASES", "CoefficientEstimate", "ConditionStats",
    "ConfigError", "DEFAULT_K_P", "DEFAULT_MAX_STEPS", "DEFAULT_TOLERANCE_MG",
    "DIRECT_PID", "DispenseModel", "DispensingController", "ExperimentConfig",
    "G_MM_S2", "GLASS_BEADS", "GRAVITY", "MIN_OBSERVABLE_MG", "MODEL_BASED",
    "MODES", "MSG", "ModeFit", "Observation", "ObservationLog",
    "PidBaselineController", "PidGains", "PooledFit", "PowderSpec",
    "ReportResult", "SimulatedPlant", "StepDecision", "StepTrace",
    "SuiteSummary", "TIO2", "TrialRecord", "TrialStatus", "VIBRATION",
    "ValveAction", "ValveKinematics", "archetype", "beverloo_rate",
    "build_report", "compute_metrics", "config_from_dict", "config_to_dict",
    "effective_coefficient", "fit_coefficient", "load_config", "pooled_fits",
    "pooled_observations", "predicted_drop", "quantize_reading",
    "read_trace_csv", "regressor", "resolve_out_dir", "run_suite", "run_trial",
    "select_action", "write_suite_artifacts", "write_trace_csv",
]
