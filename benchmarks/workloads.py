"""Workloads of the powderdose benchmark and the checks on their outputs.

Each workload is a closed-loop batch run in one process: trials run one
after another in config order, exactly as `run_suite` runs them. Inputs are
made from the benchmark seed, which goes into the config's `seed`; nothing
else about the inputs varies between runs.

The package is driven only through its public entry points:
`config_from_dict`, `run_suite`, `cli.main` and `build_report` (the latter
through `powderdose report`). They are looked up on their modules at call
time, so the traced run can wrap them without this file knowing.
"""

from __future__ import annotations

import hashlib
import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

# The paper's protocol, as in configs/default.json. It is copied here so
# that the benchmark's inputs cannot change with the repository's configs.
PAPER_PROTOCOL = {
    "powder": ["glass-beads", "msg", "tio2"],
    "targets_mg": [20, 50, 500, 3000],
    "tolerance_mg": 2.0,
    "max_steps": 100,
    "k_p": 0.5,
}

# The model-vs-PID contrast, as in configs/pid-contrast.json.
PID_CONTRAST_PROTOCOL = {
    "powder": "glass-beads",
    "controller": ["model-based", "direct-pid"],
    "targets_mg": [20, 500, 3000],
    "k_p": 0.5,
    "pid_gains": {
        "k_p": 0.5,
        "k_i": 0.01,
        "k_d": 1.0,
        "output_slope": 0.08,
        "t_pose_fixed_s": 2.0,
        "integral_limit": 9000.0,
    },
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    protocol: dict
    trials: int
    via_cli: bool

    def config_dict(self, seed: int) -> dict:
        return {**self.protocol, "trials": self.trials, "seed": seed}

    def warmup_dict(self, seed: int) -> dict:
        """One trial of the workload's first condition."""
        data = self.config_dict(seed)
        for key in ("powder", "controller", "targets_mg"):
            value = data.get(key)
            if isinstance(value, list):
                data[key] = value[:1]
        data["trials"] = 1
        return data


# Each workload runs 120 trials per pass: enough for a p90 trial time with
# >= 10 trials beyond it, and few enough that a pass takes about 0.25 s on
# a 2.1 GHz Xeon core, so that a run holds dozens of passes, each scaled
# by its own calibration (see calibration.py).
WORKLOADS = {w.name: w for w in (
    Workload("paper-suite",
             "paper protocol, model-based: select_action and the refit do "
             "the most work here",
             {**PAPER_PROTOCOL, "controller": "model-based"}, 10, False),
    Workload("pid-baseline",
             "same powders and targets with direct PID only: bypasses "
             "control and identify, so the plant dominates",
             {**PAPER_PROTOCOL, "controller": "direct-pid"}, 10, False),
    Workload("artifact-roundtrip",
             "pid-contrast protocol through the CLI: the only workload that "
             "writes trace artifacts and reads them back",
             PID_CONTRAST_PROTOCOL, 20, True),
)}


# ---------------------------------------------------------------------------
# outcomes

CONDITION_FIELDS = ("powder", "controller", "target_mg", "trials", "successes",
                    "dropped_mean_mg", "dropped_std_mg", "steps_mean",
                    "steps_std", "time_mean_s", "time_std_s")
FIT_FIELDS = ("powder", "mode", "c_prime", "r_squared", "n_points")
TRIAL_FIELDS = ("trial_id", "controller", "target_mg", "status",
                "final_mass_mg", "total_steps", "total_sim_time_s")


def _value(item, name):
    value = item[name] if isinstance(item, dict) else getattr(item, name)
    return getattr(value, "value", value)  # TrialStatus -> its string


def _rows(items, names) -> tuple[tuple, ...]:
    return tuple(tuple(_value(item, n) for n in names) for item in items)


@dataclass(frozen=True)
class Outcome:
    """The simulated result of one suite, in-memory or read from disk."""

    conditions: tuple[tuple, ...]
    fits: tuple[tuple, ...]
    trials: tuple[tuple, ...]  # TRIAL_FIELDS per trial

    @classmethod
    def from_summary(cls, summary) -> "Outcome":
        return cls(_rows(summary.conditions, CONDITION_FIELDS),
                   _rows(summary.pooled_fits, FIT_FIELDS),
                   _rows(summary.trials, TRIAL_FIELDS))

    @classmethod
    def from_payload(cls, payload: dict) -> "Outcome":
        """From a parsed summary.json."""
        return cls(_rows(payload["conditions"], CONDITION_FIELDS),
                   _rows(payload["pooled_fits"], FIT_FIELDS),
                   _rows(payload["trials"], TRIAL_FIELDS))

    @property
    def digest(self) -> str:
        """Hash over the condition stats, the pooled fits and each trial's
        status, step count and final mass. Floats enter as their repr, so
        any change in the last digit shows."""
        trials = [(t[0], t[3], t[5], t[4]) for t in self.trials]
        text = json.dumps([self.conditions, self.fits, trials])
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    @property
    def steps(self) -> int:
        return sum(t[5] for t in self.trials)

    def count_status(self, status: str) -> int:
        return sum(1 for t in self.trials if t[3] == status)

    def simulated_metrics(self) -> dict[str, float]:
        n = len(self.trials)
        return {
            "success_rate": self.count_status("success") / n,
            "steps_per_trial": self.steps / n,
            "sim_s_per_trial": sum(t[6] for t in self.trials) / n,
        }

    def band_disagreements(self, tolerance: float) -> int:
        """Trials where the controller's exclusive success band and the
        inclusive band of compute_metrics give different verdicts."""
        return sum(1 for t in self.trials
                   if (t[3] == "success") != (abs(t[4] - t[2]) <= tolerance))


# ---------------------------------------------------------------------------
# passes

@dataclass
class PassResult:
    suite_s: float
    report_s: float | None  # None when the pass ran no report
    outcome: Outcome
    attempted: int  # operations: the trials, plus the report if any
    problems: list[str] = field(default_factory=list)  # one per failure
    bytes_written: int = 0

    @property
    def wall_s(self) -> float:
        return self.suite_s + (self.report_s or 0.0)


def call_cli(argv: list[str]) -> tuple[int, str]:
    """Run `powderdose <argv>` in-process; returns (exit code, stderr)."""
    import powderdose.cli
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = powderdose.cli.main(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            code = exc.code if isinstance(exc.code, int) else 1
    return code, err.getvalue()


def check_report(out_dir: Path, code: int, stderr: str) -> list[str]:
    """Output checks on one `powderdose report` run."""
    problems = []
    if code != 0 or stderr:
        problems.append(f"report exited {code}: {stderr.strip()[:300]}")
    try:
        written = (out_dir / "summary.csv").read_bytes()
        rebuilt = (out_dir / "report" / "summary_recomputed.csv").read_bytes()
    except OSError as exc:
        problems.append(f"report round trip: {exc}")
    else:
        if written != rebuilt:
            problems.append("report round trip: summary.csv differs from "
                            "report/summary_recomputed.csv")
    return problems


def read_outcome(out_dir: Path) -> Outcome:
    with (out_dir / "summary.json").open() as handle:
        return Outcome.from_payload(json.load(handle))


def tree_bytes(root: Path, exclude: str) -> int:
    """Bytes in the files under root, skipping the subdirectory `exclude`."""
    return sum(p.stat().st_size for p in root.rglob("*")
               if p.is_file() and p.relative_to(root).parts[0] != exclude)


def _finish(result: PassResult) -> PassResult:
    result.attempted += len(result.outcome.trials)
    result.problems += [f"trial {t[0]} aborted"
                        for t in result.outcome.trials if t[3] == "aborted"]
    return result


def run_pass(workload: Workload, seed: int, work_dir: Path) -> PassResult:
    """One timed pass of the workload. Raises only on a program defect;
    the caller counts that as a failed operation."""
    if workload.via_cli:
        return _finish(_cli_pass(workload, seed, work_dir))
    import powderdose
    config = powderdose.config_from_dict(workload.config_dict(seed))
    start = time.perf_counter()
    summary = powderdose.run_suite(config, write_artifacts=False)
    suite_s = time.perf_counter() - start
    return _finish(PassResult(suite_s, None, Outcome.from_summary(summary),
                              0))


def _cli_pass(workload: Workload, seed: int, work_dir: Path) -> PassResult:
    # Every pass writes into the same directory, as repeated runs of one
    # config do (its out_dir is fixed). The files the checks compare are
    # removed first, so a pass can never pass on its predecessor's output.
    config_path = work_dir / "config.json"
    if not config_path.is_file():
        config_path.write_text(json.dumps(workload.config_dict(seed)))
    out_dir = work_dir / "artifacts"
    for checked in ("summary.json", "summary.csv",
                    "report/summary_recomputed.csv"):
        (out_dir / checked).unlink(missing_ok=True)
    start = time.perf_counter()
    code, stderr = call_cli(["run-suite", "--config", str(config_path),
                             "--out", str(out_dir)])
    suite_s = time.perf_counter() - start
    if code != 0 or stderr:
        raise RuntimeError(f"run-suite exited {code}: {stderr.strip()}")
    outcome = read_outcome(out_dir)
    bytes_written = tree_bytes(out_dir, exclude="report")
    report_s, problems = timed_report(out_dir)
    return PassResult(suite_s, report_s, outcome, 1, problems, bytes_written)


def write_report_artifacts(workload: Workload, seed: int,
                           work_dir: Path) -> tuple[Path, Outcome]:
    """Artifacts of a suite workload for `powderdose report` to read,
    written by run_suite, and the outcome they persist."""
    import powderdose
    out_dir = work_dir / "report-input"
    config = powderdose.config_from_dict(workload.config_dict(seed))
    powderdose.run_suite(config, out_dir=out_dir)
    return out_dir, read_outcome(out_dir)


def timed_report(out_dir: Path) -> tuple[float, list[str]]:
    """One timed `powderdose report` run and the problems it showed."""
    start = time.perf_counter()
    code, stderr = call_cli(["report", str(out_dir)])
    seconds = time.perf_counter() - start
    return seconds, check_report(out_dir, code, stderr)
