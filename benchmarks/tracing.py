"""Traced run: wraps the package's layer boundaries from outside.

A Tracer replaces module and class attributes of powderdose with wrappers
for the length of one pass and restores them afterwards. Three kinds of
boundary:

    span   start, end, parent span and trial id are kept in memory; self
           time is the span minus the time its child spans and leaves cover
    leaf   calls and total time only, charged to the enclosing span as
           child time (fine-grained functions called thousands of times)
    count  calls only (the cheapest wrapper, for the hottest functions)

`from .flow import travel_time` binds the name in each importing module,
so such a function is wrapped in every namespace that binds it. A boundary
none of whose locations exists any more, because a later change removed or
renamed the function, is recorded as absent and the run carries on.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import statistics
from pathlib import Path
from time import perf_counter

SPAN, LEAF, COUNT = "span", "leaf", "count"

# (boundary, kind, locations). A location is "module:attr" or
# "module:Class.attr" under powderdose; an empty module is the package.
BOUNDARIES = (
    ("cli.main", SPAN, ("cli:main",)),
    ("harness.config_from_dict", SPAN,
     (":config_from_dict", "harness:config_from_dict")),
    ("harness.run_suite", SPAN, (":run_suite", "harness:run_suite",
                                 "cli:run_suite")),
    ("harness.run_trial", SPAN, ("harness:run_trial",)),
    ("harness.write_suite_artifacts", SPAN,
     ("harness:write_suite_artifacts",)),
    ("harness.write_trace_csv", SPAN, ("harness:write_trace_csv",)),
    ("harness.pooled_fit", SPAN, ("harness:fit_coefficient",)),
    ("control.model_step", SPAN, ("control:DispensingController.step",)),
    ("control.pid_step", SPAN, ("control:PidBaselineController.step",)),
    ("control.select_action", SPAN, ("control:select_action",)),
    ("identify.fit_coefficient", SPAN, ("identify:fit_coefficient",)),
    ("identify.record", COUNT, ("identify:ObservationLog.record",)),
    ("plant.execute", SPAN, ("plant:SimulatedPlant.execute",)),
    ("plant.read_balance", SPAN, ("plant:SimulatedPlant.read_balance",)),
    ("plant.quantize_reading", LEAF, ("plant:quantize_reading",)),
    ("flow.travel_time", COUNT, ("flow:travel_time", "control:travel_time",
                                 "identify:travel_time", "plant:travel_time")),
    ("flow.predicted_drop", COUNT, ("control:predicted_drop",
                                    "identify:predicted_drop",
                                    "plant:predicted_drop")),
    ("report.build_report", SPAN, (":build_report", "report:build_report",
                                   "cli:build_report")),
    ("report.read_trace_csv", SPAN, ("report:read_trace_csv",)),
    ("report.pooled_fits", SPAN, ("report:pooled_fits",)),
)

# Per-layer metrics: (name, unit, better, exact). Exact metrics are counts
# or ratios of counts; they must repeat exactly from pass to pass and are
# unchanged by a change that only makes the program faster.
LAYER_METRICS = (
    ("control.select_action.calls", "count", "lower", True),
    ("control.select_action.self_s", "s", "lower", False),
    ("control.select_action.us_per_call", "us", "lower", False),
    ("control.model_step.calls", "count", "lower", True),
    ("control.model_step.self_s", "s", "lower", False),
    ("control.pid_step.calls", "count", "lower", True),
    ("control.pid_step.self_s", "s", "lower", False),
    ("control.probe_share", "share", "lower", True),
    ("control.latch_share", "share", "lower", True),
    ("identify.fit_coefficient.calls", "count", "lower", True),
    ("identify.fit_coefficient.self_s", "s", "lower", False),
    ("identify.fit_coefficient.us_per_call", "us", "lower", False),
    ("identify.obs_per_fit", "obs", "lower", True),
    ("identify.accepted_share", "share", "higher", True),
    ("flow.travel_time.calls", "count", "lower", True),
    ("flow.predicted_drop.calls", "count", "lower", True),
    ("plant.execute.calls", "count", "lower", True),
    ("plant.execute.self_s", "s", "lower", False),
    ("plant.execute.us_per_call", "us", "lower", False),
    ("plant.read_balance.calls", "count", "lower", True),
    ("plant.read_balance.self_s", "s", "lower", False),
    ("plant.quantize_reading.calls", "count", "lower", True),
    ("plant.quantize_reading.us_per_call", "us", "lower", False),
    ("plant.idle_step_share", "share", "lower", True),
    ("harness.trials", "count", "higher", True),
    ("harness.steps", "count", "lower", True),
    ("harness.run_trial.self_s", "s", "lower", False),
    ("harness.trial_ms_p50", "ms", "lower", False),
    ("harness.trial_ms_p90", "ms", "lower", False),
    ("harness.write_suite_artifacts.s", "s", "lower", False),
    ("harness.write_trace_csv.calls", "count", "lower", True),
    ("harness.write_trace_csv.us_per_call", "us", "lower", False),
    ("harness.bytes_written", "bytes", "lower", True),
    ("harness.pooled_fit.self_s", "s", "lower", False),
    ("harness.config_from_dict.s", "s", "lower", False),
    ("harness.success_band_disagreements", "count", "lower", True),
    ("report.build_report.s", "s", "lower", False),
    ("report.read_trace_csv.calls", "count", "lower", True),
    ("report.read_trace_csv.us_per_call", "us", "lower", False),
    ("report.pooled_fits.s", "s", "lower", False),
    ("report.bytes_read", "bytes", "lower", True),
    ("cli.main.self_s", "s", "lower", False),
    ("trace.overhead", "ratio", "lower", False),
    ("trace.absent_boundaries", "count", "lower", True),
)


class Stat:
    __slots__ = ("calls", "total", "self")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self = 0.0


class Tracer:
    """Spans and counters of one traced pass.

    Spans are tuples (name, start, end, parent index, trial id) in the
    order they closed; -1 marks no parent or no trial.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.stats = {name: Stat() for name, _, _ in BOUNDARIES}
        self.absent: list[str] = []
        self.unbound: list[str] = []
        self.hook_errors: dict[str, str] = {}
        self.trial = -1
        self._next_trial = 0
        self._stack: list[list] = []  # [span index, child seconds]
        self._patches: list[tuple] = []
        # behaviour counters, fed by the hooks below
        self.model_decisions = 0
        self.probe_decisions = 0
        self.model_trials: set[int] = set()
        self.latched_trials: set[int] = set()
        self.idle_steps = 0
        self.fit_observations = 0
        self.records_accepted = 0
        self.bytes_read = 0

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        hooks = {
            "control.model_step": self._on_model_step,
            "plant.execute": self._on_execute,
            "identify.fit_coefficient": self._on_fit,
            "identify.record": self._on_record,
            "report.build_report": self._on_build_report,
            "report.read_trace_csv": self._on_read_trace,
        }
        for name, kind, locations in BOUNDARIES:
            bound = 0
            for location in locations:
                owner, attr = _resolve(location)
                original = (None if owner is None
                            else _own_attribute(owner, attr))
                if not callable(original):
                    self.unbound.append(location)
                    continue
                wrapper = self._wrap(name, kind, original, hooks.get(name))
                setattr(owner, attr, wrapper)
                self._patches.append((owner, attr, original))
                bound += 1
            if not bound:
                self.absent.append(name)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, name, kind, fn, hook):
        stat = self.stats[name]
        stack = self._stack
        if kind == COUNT:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                stat.calls += 1
                result = fn(*args, **kwargs)
                if hook is not None:
                    self._run_hook(name, hook, args, result)
                return result
            return counted
        if kind == LEAF:
            @functools.wraps(fn)
            def leaf(*args, **kwargs):
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = perf_counter() - start
                    stat.calls += 1
                    stat.total += elapsed
                    if stack:
                        stack[-1][1] += elapsed
            return leaf
        spans = self.spans
        opens_trial = name == "harness.run_trial"

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if opens_trial:
                self.trial = self._next_trial
                self._next_trial += 1
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), 0.0]
            spans.append(None)  # placeholder, keeps parents' indices stable
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    self._run_hook(name, hook, args, result)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][1] += elapsed
                stat.calls += 1
                stat.total += elapsed
                stat.self += elapsed - frame[1]
                spans[frame[0]] = (name, start, end, parent, self.trial)
                if opens_trial:
                    self.trial = -1
        return span

    def _run_hook(self, name, hook, args, result) -> None:
        try:
            hook(args, result)
        except Exception as exc:  # a changed signature must not stop a run
            self.hook_errors.setdefault(name, repr(exc))

    # -- hooks -------------------------------------------------------------

    def _on_model_step(self, args, decision) -> None:
        self.model_trials.add(self.trial)
        action = getattr(decision, "action", None)
        if action is None:
            return
        self.model_decisions += 1
        if getattr(decision, "probe", False):
            self.probe_decisions += 1
        if getattr(action, "vibration", False):
            self.latched_trials.add(self.trial)

    def _on_execute(self, args, result) -> None:
        if result[0] == 0.0:
            self.idle_steps += 1

    def _on_fit(self, args, result) -> None:
        self.fit_observations += len(args[0])

    def _on_record(self, args, accepted) -> None:
        self.records_accepted += bool(accepted)

    def _on_build_report(self, args, result) -> None:
        self.bytes_read += (Path(args[0]) / "summary.json").stat().st_size

    def _on_read_trace(self, args, result) -> None:
        self.bytes_read += Path(args[0]).stat().st_size

    # -- results -----------------------------------------------------------

    def trial_ms(self) -> list[float]:
        return [(s[2] - s[1]) * 1e3 for s in self.spans
                if s[0] == "harness.run_trial"]

    def metrics(self, outcome, tolerance: float,
                bytes_written: int) -> dict[str, float]:
        """Per-layer metrics of this pass, except trace.overhead."""
        st = self.stats

        def per_call_us(name):
            s = st[name]
            return s.total / s.calls * 1e6 if s.calls else 0.0

        def share(part, whole):
            return part / whole if whole else 0.0

        trial_ms = self.trial_ms()
        execute = st["plant.execute"].calls
        fits = st["identify.fit_coefficient"].calls
        m = {}
        for name in ("control.select_action", "control.model_step",
                     "control.pid_step", "identify.fit_coefficient",
                     "plant.execute", "plant.read_balance"):
            m[f"{name}.calls"] = st[name].calls
            m[f"{name}.self_s"] = st[name].self
        for name in ("control.select_action", "identify.fit_coefficient",
                     "plant.execute", "plant.quantize_reading",
                     "harness.write_trace_csv", "report.read_trace_csv"):
            m[f"{name}.calls"] = st[name].calls
            m[f"{name}.us_per_call"] = per_call_us(name)
        for name in ("flow.travel_time", "flow.predicted_drop"):
            m[f"{name}.calls"] = st[name].calls
        for name in ("harness.write_suite_artifacts",
                     "harness.config_from_dict", "report.build_report",
                     "report.pooled_fits"):
            m[f"{name}.s"] = st[name].total
        m["control.probe_share"] = share(self.probe_decisions,
                                         self.model_decisions)
        m["control.latch_share"] = share(len(self.latched_trials),
                                         len(self.model_trials))
        m["identify.obs_per_fit"] = share(self.fit_observations, fits)
        m["identify.accepted_share"] = share(
            self.records_accepted, st["identify.record"].calls)
        m["plant.idle_step_share"] = share(self.idle_steps, execute)
        m["harness.trials"] = len(outcome.trials)
        m["harness.steps"] = outcome.steps
        m["harness.run_trial.self_s"] = st["harness.run_trial"].self
        m["harness.trial_ms_p50"] = (statistics.median(trial_ms)
                                     if trial_ms else 0.0)
        m["harness.trial_ms_p90"] = (
            statistics.quantiles(trial_ms, n=10, method="inclusive")[8]
            if len(trial_ms) >= 2 else 0.0)
        m["harness.bytes_written"] = bytes_written
        m["harness.pooled_fit.self_s"] = st["harness.pooled_fit"].self
        m["harness.success_band_disagreements"] = \
            outcome.band_disagreements(tolerance)
        m["report.bytes_read"] = self.bytes_read
        m["cli.main.self_s"] = st["cli.main"].self
        m["trace.absent_boundaries"] = len(self.absent)
        return m

    def write_spans(self, path: Path) -> None:
        """Spans as gzipped CSV, times in microseconds from the first."""
        closed = [(i, s) for i, s in enumerate(self.spans) if s is not None]
        origin = min((s[1] for _, s in closed), default=0.0)
        with gzip.open(path, "wt", newline="") as handle:
            handle.write("index,name,start_us,end_us,parent,trial\n")
            for index, (name, start, end, parent, trial) in closed:
                handle.write(f"{index},{name},{(start - origin) * 1e6:.1f},"
                             f"{(end - origin) * 1e6:.1f},{parent},{trial}\n")


def _resolve(location: str):
    """(object owning the attribute, attribute name), owner None if gone."""
    module_name, _, path = location.partition(":")
    try:
        owner = importlib.import_module(
            "powderdose" + (f".{module_name}" if module_name else ""))
    except ImportError:
        return None, path
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent, None)
        if owner is None:
            return None, attr
    return owner, attr


def _own_attribute(owner, attr: str):
    """The attribute as the owner itself defines it (a class's own function,
    not an inherited or bound one)."""
    if isinstance(owner, type):
        return owner.__dict__.get(attr)
    return getattr(owner, attr, None)
