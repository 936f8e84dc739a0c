"""Closed-loop dispensing controllers.

DispensingController implements the model-based loop. Each cycle it

1. reads the balance and updates the remaining error W_error,
2. stops on success (|W_error| below tolerance), overshoot, an empty
   hopper, or the step budget,
3. attributes the previous step's measured delta to the action that caused
   it and refits that mode's coefficient,
4. sets the per-step request W_target = K_p * W_error, or the whole
   W_error once it is within FINISH_FACTOR tolerances of the goal (the
   finish), picks the grid action whose predicted drop is nearest to it,
   and executes that pick's fastest cell: the least valve cycle
   2 * T(L) + t among the cells that predict at most the pick's drop and
   at least (1 - CYCLE_BAND) of it.

Before searching, the controller checks whether the gravity model at the
largest action could deliver W_target at all; if not it latches into
vibration mode for the rest of the trial and selects against the vibration
coefficient instead. The latch is one way, a trial never falls back to
gravity.

The controller runs on one identify.Rig: the valve kinematics and the
powder's Beverloo offset L0, which its log and the pooled refit of its
trials take too.

While a mode has no coefficient (its c_prime is None) the controller
walks a probe ladder: smallest productive command first, the first
command above L0, escalating one grid step at a time, so exploration
cannot overshoot even a 20 mg request. A probe opens a candidate first
observation only when it moves at least SEED_GATE_MG (1 mg, twice the
observability gate), and the candidate is accepted only after the log
accepts an immediate repeat of the same probe, by
identify.observed_regressor's rule (MIN_OBSERVABLE_MG); a
single noise spike on a quiet balance therefore cannot seed a phantom
model, and a seed is not a noise-level pair. When the gravity ladder
tops out with nothing measurable the controller latches vibration and
starts probing there, at the first productive command. When instead the
fitted gravity model cannot deliver the request even at the largest
action (the capacity latch), vibration's ladder starts one rung below
gravity's next one, at the rung that seeded gravity, not back at the
smallest command. DispensingController holds this seed protocol whole,
its rung counters and pending candidate included, and step runs all of
it.

The search runs over an action table built whole for the (Rig,
ActionGrid) pair in use, held in _table_for's memo of the last
_MAX_TABLES pairs, one a powder, and never changed after: every cell's
regressor x = max(L - L0, 0)**2.5 * (T(L) + t) from flow.drop_regressor,
the drop model's one definition, sorted ascending, the capacity and floor
regressors, every cell's ValveAction in each mode, each mode's probe
rungs, the minimum-dwell cells from the first command above L0 on, and
each cell's substitute, the fastest cell in its band. A prediction is
C' * x, the product the identification fits. For C' >= 0, fl(C' * x) is
non-decreasing in x, overflow and underflow included, so along the
sorted regressors |prediction - W_target| falls and then rises: a step
bisects at W_target / C' and scans each way until a prediction is
further from W_target than the best so far. Ties go to the smaller flat
index in dwell-major order, the smaller dwell, then the smaller command.
The pick, like a probe, is a plain index into the table.

The step executes the pick's fastest cell: among the cells whose x lies
in [(1 - CYCLE_BAND) * x_pick, x_pick], the least cycle 2 * (L / v) + t,
the time SimulatedPlant.execute charges a cycle, ties to the smaller flat
index. The band depends on the pick alone, so the table holds each
cell's substitute, found for all cells by one sliding-window minimum
over the sorted regressors when the table is built, and a step looks
the pick's up by its dwell and command in constant time. The band is
one-sided: the executed cell never predicts more than the pick, so it
overshoots no request the pick would not, and never takes a longer
cycle.

The table holds at most _MAX_GRID_CELLS cells, and ActionGrid.check,
which config runs too, refuses a larger grid before any axis is built.
The search checks nothing per step: the grid axes run over the valve
envelope's bounds and never past them, a coefficient is checked when
its ModeFit is built, and the plant puts every action it executes
through ValveKinematics.check, the one envelope test.

PidBaselineController is the comparison controller: a direct PID on the
weight error mapped linearly to the valve command, fixed dwell, no model
and no logging. Both controllers inherit one trial lifecycle (goal,
tolerance and step budget checks, trial state, stop rule), so they stop
by the same rule trial for trial.

The records a step emits or keeps, ValveAction, StepDecision,
ActionSelection and CoefficientEstimate, are immutable NamedTuples. A
refit replaces the estimate rather than changing it, so every controller
starts from one shared unfitted estimate and, unless given a grid,
searches one shared default ActionGrid. How the step path is kept cheap,
with the table memo, flags passed by position and records built with
tuple.__new__, is in README.md's "Performance notes".
"""

from __future__ import annotations

import functools
import gc
import math
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .flow import ValveKinematics, check_fields, drop_regressor
from .identify import (MIN_OBSERVABLE_MG, CoefficientEstimate,
                       ObservationLog, Rig, as_rig)

DEFAULT_K_P = 0.5
# Within FINISH_FACTOR tolerances of the goal a step requests the whole
# remaining error, not K_p of it, so a trial ends at the goal rather than
# on the first reading inside the band. 2 was picked on the default
# protocol's seeds 1-10 from {2, 3, 5}: a larger factor lets flow noise
# overshoot the final request.
FINISH_FACTOR = 2.0
# A search step executes the fastest cell whose regressor lies within
# CYCLE_BAND below the pick's. 0.1 was picked on the default protocol's
# seeds 1-10 from {0.05, 0.1, 0.2}: 0.1 and 0.2 land the most trials
# within +-2 mg (1188 of 1200, 0.05 1184), and 0.1 in fewer steps (33 305
# against 34 001).
CYCLE_BAND = 0.1
DEFAULT_TOLERANCE_MG = 2.0
DEFAULT_MAX_STEPS = 100

# The least delta of a probe that opens a seed candidate. A pair at the
# 0.5 mg gate sits at a 0.1 mg balance's noise level; a 2 mg gate fails
# acceptance criterion 1.
SEED_GATE_MG = 2 * MIN_OBSERVABLE_MG

# Every controller's starting estimate, both modes unfitted; shared, since
# a refit replaces the estimate rather than changing it.
_UNFITTED = CoefficientEstimate()

# The action table takes about 243 bytes a cell (tracemalloc, CPython
# 3.11: 0.43 MB at the default grid's 1763 cells, 24.3 MB at 100 000).
# A process holds at most _MAX_TABLES tables, _table_for's memo, so the
# cap keeps what the tables hold under 3 x 25 MB; it allows 57 times the
# default grid's cells.
_MAX_GRID_CELLS = 100_000


class ValveAction(NamedTuple):
    """One dispensing command: opening, dwell, vibration flag.

    An immutable NamedTuple that holds any values. Whether they lie in
    the valve envelope is ValveKinematics.check's to decide, and both
    consumers of an action, SimulatedPlant.execute and identify's
    regressors, run it.
    """

    l_command: float
    t_pose_s: float
    vibration: bool = False


@dataclass(frozen=True)
class ActionGrid:
    """Discretisation of the action space searched each step."""

    l_step: float = 5.0
    t_step: float = 0.5

    def __post_init__(self) -> None:
        check_fields(self, "> 0", "l_step", "t_step")

    def l_values(self, kin: ValveKinematics) -> list[float]:
        return _axis(kin.l_min, kin.l_max, self.l_step)

    def t_values(self, kin: ValveKinematics) -> list[float]:
        return _axis(kin.t_pose_min, kin.t_pose_max, self.t_step)

    def check(self, kin: ValveKinematics) -> None:
        """Raise ValueError, naming the count and the cap, when the grid
        holds more than _MAX_GRID_CELLS cells over kin's envelope. The
        cells are counted without building an axis, inf past the float
        range."""
        cells = (_axis_size(kin.l_min, kin.l_max, self.l_step)
                 * _axis_size(kin.t_pose_min, kin.t_pose_max, self.t_step))
        if cells > _MAX_GRID_CELLS:
            raise ValueError(
                f"the envelope holds {cells:.4g} cells of the model-based "
                f"controller's action grid, more than {_MAX_GRID_CELLS}; "
                f"its action table takes about 243 bytes a cell")


def _axis_size(lo: float, hi: float, step: float) -> float:
    # The 1e-9 keeps a bound that float steps miss by a hair on the axis.
    span = (hi - lo) / step + 1e-9
    return math.floor(span) + 1 if span < math.inf else math.inf


def _axis(lo: float, hi: float, step: float) -> list[float]:
    # The clamp puts a last value that float steps land a hair above hi
    # back on hi.
    return [min(lo + step * k, hi) for k in range(_axis_size(lo, hi, step))]


# Shared by every controller that takes the default grid; frozen.
_DEFAULT_GRID = ActionGrid()


class TrialStatus(str, Enum):
    RUNNING = "running"
    SUCCESS = "success"
    OVERSHOOT_FAIL = "overshoot-fail"
    STEP_LIMIT_FAIL = "step-limit-fail"
    DEPLETED_FAIL = "depleted-fail"
    ABORTED = "aborted"


# Bound once: each step tests and emits it, and every TrialStatus.RUNNING
# is a lookup on the enum class.
_RUNNING = TrialStatus.RUNNING

# A NamedTuple's own constructor is a Python-level __new__. The decisions,
# selections, PID actions and refitted estimates made on every step are
# built with tuple.__new__, every field given in order: an equal instance
# without that call.
_new = tuple.__new__


class StepDecision(NamedTuple):
    """Outcome of one controller step: either an action or a terminal status."""

    status: TrialStatus
    action: ValveAction | None = None
    predicted_mg: float | None = None
    probe: bool = False


class ActionSelection(NamedTuple):
    """Result of a grid search. action is None when the mode it needs,
    vibration if use_vibration else gravity, has no coefficient."""

    action: ValveAction | None
    predicted_mg: float | None
    use_vibration: bool


class _ActionTable(NamedTuple):
    """Everything a trial reads that depends only on the rig and the
    grid, built whole for one (Rig, ActionGrid) pair and never changed
    after.

    Cells are flattened dwell-major: cell j * commands + i is dwell j and
    command i, so the smallest flat index is the smallest dwell, then the
    smallest command. products holds every cell's regressor
    max(L - L0, 0)**2.5 * (T(L) + t) in ascending order, ties by flat
    index, and order the flat cell at each position of products. capacity
    is the regressor of the largest action and floor that of the smallest
    productive one, the first command above L0 at the least dwell, or
    None when no command lies above L0.
    cells holds every cell's ValveAction, gravity then vibration, indexed
    by the flattened cell. rungs holds each mode's probe ladder, which
    DispensingController climbs by index: the minimum-dwell cells from
    the first command above L0 on, the same objects as in cells, so a
    probe and a search pick of one cell are one ValveAction. Both are
    tuples, so no trial can change the actions that every trial on the
    table shares.
    faster[j][i] is the position in products of the cell a search step
    executes in place of a pick of cell (dwell j, command i): the least
    (cycle, flat index) among the cells whose regressor lies in
    [(1 - CYCLE_BAND) * x, x], x the pick's regressor. dwells and
    commands map each axis value to its index, so a step finds the
    pick's entry from the pick's own fields. An axis value that floats
    repeat maps to one of its indices, a cell of the same regressor and
    so of the same entry.
    """

    capacity: float
    floor: float | None
    products: list[float]
    order: list[int]
    cells: tuple[tuple[ValveAction, ...], tuple[ValveAction, ...]]
    rungs: tuple[tuple[ValveAction, ...], tuple[ValveAction, ...]]
    faster: list[list[int]]
    dwells: dict[float, int]
    commands: dict[float, int]


def _action_table(rig: Rig, grid: ActionGrid) -> _ActionTable:
    """Build the action table of (rig, grid); _table_for keeps it."""
    kin, offset = rig.kin, rig.l_offset
    grid.check(kin)
    l_vals = grid.l_values(kin)
    t_vals = grid.t_values(kin)
    products = [drop_regressor(kin, l_command, t_pose_s, offset)
                for t_pose_s in t_vals for l_command in l_vals]
    order = sorted(range(len(products)), key=products.__getitem__)
    # the commands at or below L0 dispense nothing; the axis is ascending
    first = sum(l_command <= offset for l_command in l_vals)
    # cell (first command, t_values[0]), and t_values[0] is t_pose_min
    floor = products[first] if first < len(l_vals) else None
    cells = tuple(tuple([_new(ValveAction, (l_command, t_pose_s, vibration))
                         for t_pose_s in t_vals for l_command in l_vals])
                  for vibration in (False, True))
    products = [products[k] for k in order]
    faster = _fastest_in_band(products, order, _cycles(kin, l_vals, t_vals))
    width = len(l_vals)
    return _ActionTable(
        drop_regressor(kin, kin.l_max, kin.t_pose_max, offset), floor,
        products, order, cells,
        tuple(mode[first:width] for mode in cells),
        [faster[start:start + width]
         for start in range(0, len(faster), width)],
        {t_pose_s: j for j, t_pose_s in enumerate(t_vals)},
        {l_command: i for i, l_command in enumerate(l_vals)})


def _cycles(kin: ValveKinematics, l_vals: list[float],
            t_vals: list[float]) -> list[float]:
    """Every cell's valve cycle, dwell-major: travel out, dwell, travel
    back, 2 * (L / v) + t, in SimulatedPlant.execute's operations, so
    each is the elapsed time the plant returns for the cell."""
    rate = kin.travel_rate
    return [2.0 * (l_command / rate) + t_pose_s
            for t_pose_s in t_vals for l_command in l_vals]


def _fastest_in_band(products: list[float], order: list[int],
                     cycles: list[float]) -> list[int]:
    """For each flat cell, the position in the ascending products of the
    least (cycle, flat index) among the cells whose regressor lies in
    [(1 - CYCLE_BAND) * x, x], x the cell's own regressor.

    Both ends of the band only move up as x does, so one pass up the
    products keeps the band's candidates in a deque, a sliding-window
    minimum: a cell enters at the back as its (cycle, flat index,
    position), after dropping every candidate behind it that it beats,
    and leaves at the front once its regressor falls below the band. The
    front is then the band's minimum; flat indices are distinct, so the
    position never decides a comparison.
    """
    n = len(products)
    window: deque[tuple[float, int, int]] = deque()
    faster = [0] * n
    top = 0         # the next position to enter the band
    for cell, x in zip(order, products):
        # the band's top end takes every regressor up to x, ties included
        while top < n and products[top] <= x:
            entering = order[top]
            key = (cycles[entering], entering, top)
            while window and window[-1] > key:
                window.pop()
            window.append(key)
            top += 1
        low = (1.0 - CYCLE_BAND) * x
        while products[window[0][2]] < low:
            window.popleft()
        faster[cell] = window[0][2]
    return faster


# The memo holds the tables of the last _MAX_TABLES (Rig, ActionGrid)
# pairs, keyed by equality: a suite runs its powders in turn, one Rig
# each, so a process that runs many passes of one config, as
# tools/outcomes.py and the benchmark do, builds each powder's table once,
# and a config rebuilt from the same values reuses them. A rebuild costs
# about 3 ms at the default grid.
_MAX_TABLES = 3


@functools.lru_cache(maxsize=_MAX_TABLES)
def _cached_table(rig: Rig, grid: ActionGrid) -> _ActionTable:
    # A build allocates several objects a cell and frees no cycle, so the
    # cyclic collector's passes during it find nothing to free; at the
    # cell cap they took a quarter of the build. The collector is paused
    # for the build, if it runs, and resumed however the build ends.
    running = gc.isenabled()
    if running:
        gc.disable()
    try:
        return _action_table(rig, grid)
    finally:
        if running:
            gc.enable()


# (rig, grid, table) of _table_for's last call. A trial passes the same
# two objects on every step, so an identity test of both decides almost
# every call without hashing a key. Holding the objects keeps their ids
# from being reused.
_last_table: tuple = (None, None, None)


def _table_for(rig: Rig, grid: ActionGrid) -> _ActionTable:
    """The action table of (rig, grid): the last call's when both are its
    objects, else the memo's, built on a miss."""
    global _last_table
    last_rig, last_grid, table = _last_table
    if rig is not last_rig or grid is not last_grid:
        table = _cached_table(rig, grid)
        _last_table = (rig, grid, table)
    return table


def select_action(estimate: CoefficientEstimate,
                  rig: Rig | ValveKinematics, w_target: float,
                  use_vibration: bool = False,
                  grid: ActionGrid | None = None) -> ActionSelection:
    """Pick the grid action whose predicted drop is nearest W_target.

    Predictions are C' * x under rig's drop model; a bare ValveKinematics
    is read as Rig(kin), whose L0 = 0 is the pure power law.

    Gravity mode first runs a capacity check: if even the largest action's
    predicted drop falls short of W_target, the selection switches to the
    vibration model (and reports that switch so the caller can latch it).
    W_target is floored at the predicted drop of the smallest productive
    grid action so the search never chases a sub-resolution request; in
    that regime the smallest action wins. Exact cost ties break toward the
    smaller dwell, then the smaller command.

    The search bisects the table's sorted regressors at W_target / c'
    and scans down, then up, computing each cell's prediction c' * x and
    |prediction - W_target|. Since c' * x never falls as x rises, that
    cost falls and then rises along the regressors, so a scan stops at the
    first cell whose cost exceeds the best so far; scanning down first
    gives the upward scan a finite bound where its predictions overflow.
    The pick is the (cost, flat index) minimum over every cell, as a full
    sweep finds it.
    """
    if not math.isfinite(w_target) or w_target <= 0:
        raise ValueError("w_target must be finite and > 0")
    table = _table_for(as_rig(rig),
                       grid if grid is not None else _DEFAULT_GRID)
    c = estimate[use_vibration].c_prime
    if c is None:
        return ActionSelection(None, None, use_vibration)
    if not use_vibration and c * table.capacity < w_target:
        use_vibration = True
        c = estimate.vibration.c_prime
        if c is None:
            return ActionSelection(None, None, True)
    if table.floor is not None and w_target < c * table.floor:
        w_target = c * table.floor
    products, order = table.products, table.order
    n = len(products)
    mid = bisect_left(products, w_target / c) if c > 0 else n
    best_cost, best, best_pred = math.inf, n, 0.0
    for scan in (range(mid - 1, -1, -1), range(mid, n)):    # down, then up
        for k in scan:
            pred = c * products[k]
            cost = abs(pred - w_target)
            if cost > best_cost:
                break
            cell = order[k]
            if cost < best_cost or cost == best_cost and cell < best:
                best_cost, best, best_pred = cost, cell, pred
    return _new(ActionSelection,
                (table.cells[use_vibration][best], best_pred, use_vibration))


class _TrialController:
    """Trial lifecycle shared by both controllers.

    Owns the goal, tolerance and step budget checks, the trial state and
    the stop rule. _stop() takes one balance reading and checks, in order:
    a finished trial (RuntimeError), a non-finite reading (aborted), then
    success (|W_error| < tolerance), overshoot, an empty hopper and the
    step budget. It returns the terminal decision, or counts one more step
    and returns None, in which case the caller emits that step's action.
    This is the package's one comparison of a mass error with the
    tolerance: the status it sets is the trial's verdict, and
    compute_metrics counts the SUCCESS statuses.
    """

    def __init__(self, w_goal: float, kin: ValveKinematics | None,
                 tolerance: float, max_steps: int) -> None:
        if not math.isfinite(w_goal) or w_goal <= 0:
            raise ValueError("w_goal must be finite and > 0")
        if not math.isfinite(tolerance) or tolerance <= 0:
            raise ValueError("tolerance must be > 0")
        if max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        self.w_goal = w_goal
        self.kin = kin if kin is not None else ValveKinematics()
        self.tolerance = tolerance
        self.max_steps = max_steps
        self.status = _RUNNING
        self.step_count = 0
        self.w_measured: float | None = None
        self.w_error: float | None = None

    def _stop(self, reading: float, hopper_empty: bool) -> StepDecision | None:
        status = self.status
        if status is not _RUNNING:
            raise RuntimeError(f"trial already ended: {status.value}")
        if not math.isfinite(reading):
            status = TrialStatus.ABORTED
        else:
            self.w_measured = reading
            self.w_error = w_error = self.w_goal - reading
            tolerance = self.tolerance
            if w_error < tolerance:
                # |W_error| < tolerance, else overshoot: w_error <= -tolerance
                status = (TrialStatus.SUCCESS if w_error > -tolerance
                          else TrialStatus.OVERSHOOT_FAIL)
            elif hopper_empty:
                status = TrialStatus.DEPLETED_FAIL
            elif (count := self.step_count) >= self.max_steps:
                status = TrialStatus.STEP_LIMIT_FAIL
            else:
                self.step_count = count + 1
                return None
        self.status = status
        return StepDecision(status)


class DispensingController(_TrialController):
    """Model-based closed-loop dispenser for a single trial.

    The controller runs on rig, by default Rig(ValveKinematics()), held
    as self.rig and its kinematics as self.kin, and on the action table
    of (rig, grid), held as _table. The seed protocol lives here whole.
    Each mode's probe rungs are the table's, and _next_rung counts from 0
    in them; both, like the log and the estimate, are indexed by the
    vibration flag. A probe whose delta
    reaches SEED_GATE_MG becomes the pending _candidate, and the very
    next step repeats that ValveAction in its own mode; the
    mode is seeded with both drops only if the log accepts the repeat.
    Either way the candidate is gone and the ladder moves on.
    """

    def __init__(self, w_goal: float, rig: Rig | None = None, *,
                 k_p: float = DEFAULT_K_P,
                 tolerance: float = DEFAULT_TOLERANCE_MG,
                 max_steps: int = DEFAULT_MAX_STEPS,
                 grid: ActionGrid | None = None) -> None:
        rig = rig if rig is not None else Rig(ValveKinematics())
        super().__init__(w_goal, rig.kin, tolerance, max_steps)
        if not 0 < k_p <= 1:
            raise ValueError("k_p must satisfy 0 < k_p <= 1")
        self.k_p = k_p
        self.rig = rig
        self.grid = grid if grid is not None else _DEFAULT_GRID
        self.log = ObservationLog(rig)
        self.use_vibration = False
        self.w_target: float | None = None
        # replaced whenever a refit changes one mode's fit, read every step
        self.estimate = _UNFITTED
        self._table = _table_for(rig, self.grid)
        self._next_rung = [0, 0]      # gravity, vibration
        self._candidate: tuple[ValveAction, float] | None = None
        self._last_action: ValveAction | None = None

    def _probe(self, vibration: bool) -> ValveAction | None:
        """The mode's next rung, or None when its rungs are spent."""
        rungs = self._table.rungs[vibration]
        rung = self._next_rung[vibration]
        if rung >= len(rungs):
            return None
        self._next_rung[vibration] = rung + 1
        return rungs[rung]

    def step(self, reading: float, hopper_empty: bool = False) -> StepDecision:
        """Consume one stabilised balance reading, emit the next action.

        The previous step's measured delta is attributed to the action that
        caused it and refits that mode; then the model's action is picked
        and its fastest cell in the band executed, predicting C' times
        that cell's regressor, or a probe while the mode it needs has no
        coefficient. The vibration latch is set here and nowhere else.
        Terminal statuses carry no action. Calling again after termination
        is an error; one controller drives exactly one trial.
        """
        previous = self.w_measured
        stop = self._stop(reading, hopper_empty)
        if stop is not None:
            return stop
        estimate = self.estimate
        if previous is not None:
            # a delta below MIN_OBSERVABLE_MG, a fall included, neither
            # reaches a fit nor opens a candidate
            delta = reading - previous
            action = self._last_action
            mode = action.vibration
            fit = None
            if estimate[mode].c_prime is not None:
                fit = self.log.record(action.l_command, action.t_pose_s,
                                      mode, delta)
            elif (candidate := self._candidate) is not None:
                # this step repeated the candidate: the log judges the
                # repeat, and the candidate follows only once it is
                # accepted; a mode's sum starts at 0.0, so its two terms
                # add alike in either order
                self._candidate = None
                fit = self.log.record(action.l_command, action.t_pose_s,
                                      mode, delta)
                if fit is not None:
                    first, first_delta = candidate
                    fit = self.log.record(first.l_command, first.t_pose_s,
                                          mode, first_delta)
            elif delta >= SEED_GATE_MG:
                self._candidate = (action, delta)
            if fit is not None:
                self.estimate = estimate = _new(
                    CoefficientEstimate,
                    (estimate.gravity, fit) if mode
                    else (fit, estimate.vibration))
        w_error = self.w_error
        self.w_target = w_target = (
            w_error if w_error <= FINISH_FACTOR * self.tolerance
            else self.k_p * w_error)
        vibration = self.use_vibration
        action = predicted = None
        if estimate[vibration].c_prime is not None:
            action, predicted, selected = select_action(
                estimate, self.rig, w_target, vibration, self.grid)
            if action is not None:
                # execute the pick's fastest cell in the band
                table = self._table
                fast = table.faster[table.dwells[action.t_pose_s]][
                    table.commands[action.l_command]]
                action = table.cells[selected][table.order[fast]]
                predicted = estimate[selected].c_prime * table.products[fast]
            if selected and not vibration:
                # The capacity latch: vibration's ladder starts no lower
                # than the rung that seeded gravity, one below gravity's
                # next, at an opening that already moved measurable powder.
                next_rung = self._next_rung
                next_rung[True] = max(next_rung[True], next_rung[False] - 1)
            vibration = selected
        probe = action is None
        if probe:
            if self._candidate is not None:
                action = self._candidate[0]
            else:
                action = self._probe(vibration)
                if action is None and not vibration:
                    # Nothing measurable across the whole gravity range:
                    # latch vibration and keep probing there.
                    vibration = True
                    action = self._probe(True)
            if action is None:
                # Both ladders spent with nothing measurable; push the most
                # aggressive action until a termination condition ends the
                # trial.
                action = ValveAction(self.kin.l_max, self.kin.t_pose_max,
                                     vibration=True)
        self.use_vibration = vibration
        self._last_action = action
        return _new(StepDecision, (_RUNNING, action, predicted, probe))


@dataclass(frozen=True)
class PidGains:
    """Frozen tuning profile for the direct PID baseline.

    output_slope maps the PID output (mg) to a valve command (units/mg).
    integral_limit bounds |sum of errors| for anti-windup, in mg*steps.
    The defaults were tuned once against the glass-beads 500 mg condition
    and frozen. The tuning sweep maximised success rate there, preferring
    the smallest integral gain among ties (least windup), then the fewest
    steps.
    """

    k_p: float = 0.5
    k_i: float = 0.01
    k_d: float = 1.0
    output_slope: float = 0.08
    t_pose_fixed_s: float = 2.0
    integral_limit: float = 9000.0

    def __post_init__(self) -> None:
        check_fields(self, None, "k_p", "k_i", "k_d")
        check_fields(self, "> 0", "output_slope")
        check_fields(self, ">= 0", "t_pose_fixed_s", "integral_limit")


class PidBaselineController(_TrialController):
    """Direct PID on the weight error, no model, no observation logging.

    The PID output u = k_p*e + k_i*sum(e) + k_d*(e - e_prev) is mapped
    through output_slope to a valve command and clamped to the kinematic
    range; the dwell is fixed. The trial lifecycle is the model-based
    controller's, so the two are comparable trial for trial.
    """

    def __init__(self, w_goal: float, kin: ValveKinematics | None = None, *,
                 gains: PidGains = PidGains(),
                 vibration: bool = False,
                 tolerance: float = DEFAULT_TOLERANCE_MG,
                 max_steps: int = DEFAULT_MAX_STEPS) -> None:
        super().__init__(w_goal, kin, tolerance, max_steps)
        if not (self.kin.t_pose_min <= gains.t_pose_fixed_s
                <= self.kin.t_pose_max):
            raise ValueError("PidGains.t_pose_fixed_s outside dwell bounds")
        self.gains = gains
        self.vibration = vibration
        self.integral = 0.0
        self.previous_error: float | None = None

    def action_for_error(self, w_error: float) -> ValveAction:
        """PID update for one error sample; mutates integral and history."""
        g = self.gains
        integral = self.integral + w_error
        limit = g.integral_limit
        if integral > limit:
            integral = limit
        elif integral < -limit:
            integral = -limit
        self.integral = integral
        previous = self.previous_error
        derivative = 0.0 if previous is None else w_error - previous
        self.previous_error = w_error
        u = g.k_p * w_error + g.k_i * integral + g.k_d * derivative
        l_command = g.output_slope * u
        kin = self.kin
        if l_command < kin.l_min:
            l_command = kin.l_min
        elif l_command > kin.l_max:
            l_command = kin.l_max
        return _new(ValveAction,
                    (l_command, g.t_pose_fixed_s, self.vibration))

    def step(self, reading: float, hopper_empty: bool = False) -> StepDecision:
        stop = self._stop(reading, hopper_empty)
        if stop is not None:
            return stop
        return _new(StepDecision,
                    (_RUNNING, self.action_for_error(self.w_error), None,
                     False))
