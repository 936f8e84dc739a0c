"""Action selection, bootstrap probing and both closed-loop controllers."""

import dataclasses
import gc
import inspect
import math
import pickle
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from powderdose import (
    ARCHETYPES,
    GRAVITY,
    MIN_OBSERVABLE_MG,
    ActionGrid,
    ActionSelection,
    CoefficientEstimate,
    ConditionStats,
    DispensingController,
    ModeFit,
    PidBaselineController,
    PidGains,
    PooledFit,
    StepDecision,
    StepTrace,
    TrialRecord,
    TrialStatus,
    ValveAction,
    ValveKinematics,
    load_config,
    run_suite,
)
from powderdose import control
from powderdose.control import SEED_GATE_MG, _action_table, select_action
from powderdose.identify import Rig, regressor
from powderdose.plant import SimulatedPlant
from powderdose.powders import archetype


def estimate(c_gravity=None, c_vibration=None):
    return CoefficientEstimate(
        gravity=(ModeFit(c_prime=c_gravity, n_obs=2)
                 if c_gravity is not None else ModeFit()),
        vibration=(ModeFit(c_prime=c_vibration, n_obs=2)
                   if c_vibration is not None else ModeFit()),
    )


def brute_select(c_gravity, c_vibration, kin, grid, w_target,
                 use_vibration=False):
    """Full-sweep reference for select_action: every cell's prediction
    C' * x, the regressor x = L**2.5 * (T(L) + t) with Python's **, then
    the first minimum of |prediction - W_target| in dwell-major order."""
    c, vibration = (c_vibration, True) if use_vibration else (c_gravity,
                                                              False)
    if not vibration and c * (kin.l_max ** 2.5 * (
            kin.l_max / kin.travel_rate + kin.t_pose_max)) < w_target:
        c, vibration = c_vibration, True
    if c is None:
        return None, None, vibration
    l_vals, t_vals = grid.l_values(kin), grid.t_values(kin)
    positive = [l_command for l_command in l_vals if l_command > 0]
    if positive:
        smallest = positive[0]
        floor = c * (smallest ** 2.5 * (smallest / kin.travel_rate
                                        + kin.t_pose_min))
        w_target = max(w_target, floor)
    pred = [c * (l_command ** 2.5 * (l_command / kin.travel_rate + t_pose_s))
            for t_pose_s in t_vals for l_command in l_vals]
    best = min(range(len(pred)), key=lambda k: abs(pred[k] - w_target))
    j, i = divmod(best, len(l_vals))
    return ValveAction(l_vals[i], t_vals[j], vibration), pred[best], vibration


def brute_fastest(kin, grid, x_pick, l_offset=0.0):
    """Full-sweep reference for the cell a search step executes in place
    of a pick whose regressor is x_pick: the least (cycle, flat index),
    the cycle 2 * (L / v) + t, among the cells whose regressor
    max(L - L0, 0)**2.5 * (T(L) + t) lies in
    [(1 - CYCLE_BAND) * x_pick, x_pick]. Returns (flat index, regressor)."""
    l_vals, t_vals = grid.l_values(kin), grid.t_values(kin)
    low = (1.0 - control.CYCLE_BAND) * x_pick
    band = []
    for cell, (t_pose_s, l_command) in enumerate(
            (t_pose_s, l_command) for t_pose_s in t_vals
            for l_command in l_vals):
        x = max(l_command - l_offset, 0.0) ** 2.5 * (
            l_command / kin.travel_rate + t_pose_s)
        if low <= x <= x_pick:
            band.append((2.0 * (l_command / kin.travel_rate) + t_pose_s,
                         cell, x))
    return min(band)[1:]


def exact_cell_prediction(c, kin, grid, cell):
    l_vals, t_vals = grid.l_values(kin), grid.t_values(kin)
    j, i = divmod(cell % (len(l_vals) * len(t_vals)), len(l_vals))
    return c * (l_vals[i] ** 2.5 * (l_vals[i] / kin.travel_rate + t_vals[j]))


@st.composite
def search_setups(draw):
    """Kinematics and grid: the defaults, a random envelope as in the
    acceptance oracle, or commands 1, 4, ..., 16 at T(L) = L, where
    L**2.5 is 1, 32 and 1024 and cells tie exactly: (1, 127 + 32 k) with
    (4, k), and (4, 508 + 32 k) with (16, k)."""
    family = draw(st.sampled_from(["default", "random", "tied"]))
    if family == "default":
        return ValveKinematics(), ActionGrid()
    if family == "tied":
        return (ValveKinematics(travel_rate=1.0, l_min=1.0, l_max=16.0,
                                t_pose_max=draw(st.sampled_from(
                                    [127.0, 640.0]))),
                ActionGrid(l_step=3.0,
                           t_step=draw(st.sampled_from([0.5, 1.0, 4.0]))))
    l_min = draw(st.just(0.0) | st.floats(0.0, 50.0))
    l_max = l_min + draw(st.floats(5.0, 300.0))
    t_min = draw(st.just(0.0) | st.floats(0.0, 3.0))
    t_max = t_min + draw(st.floats(0.5, 30.0))
    kin = ValveKinematics(travel_rate=draw(st.floats(10.0, 500.0)),
                          l_min=l_min, l_max=l_max,
                          t_pose_min=t_min, t_pose_max=t_max)
    return kin, ActionGrid(
        l_step=(l_max - l_min) / draw(st.integers(1, 100)),
        t_step=(t_max - t_min) / draw(st.integers(1, 100)))


coefficients = st.just(0.0) | st.builds(
    lambda mantissa, exponent: mantissa * 10.0 ** exponent,
    st.floats(1.0, 10.0), st.integers(-300, 299))


class TestActionGrid:
    def test_default_axes_cover_the_envelope(self):
        kin = ValveKinematics()
        grid = ActionGrid()
        l_vals = grid.l_values(kin)
        t_vals = grid.t_values(kin)
        assert len(l_vals) == 43 and l_vals[0] == 0.0 and l_vals[-1] == 210.0
        assert len(t_vals) == 41 and t_vals[0] == 0.0 and t_vals[-1] == 20.0

    def test_non_divisible_span_stops_inside(self):
        kin = ValveKinematics(l_max=7.0)
        assert list(ActionGrid(l_step=5.0).l_values(kin)) == [0.0, 5.0]

    @pytest.mark.parametrize("kin", [
        ValveKinematics(l_min=0.1, l_max=15.099999999999998),
        ValveKinematics(t_pose_min=0.1, t_pose_max=20.099999999999998),
    ], ids=["command", "dwell"])
    def test_last_value_stays_inside_the_envelope(self, kin):
        # (hi - lo) / step lands a hair below a whole count; the axis still
        # ends on the bound, not a hair above it
        grid = ActionGrid()
        l_vals, t_vals = grid.l_values(kin), grid.t_values(kin)
        assert l_vals[-1] == kin.l_max and t_vals[-1] == kin.t_pose_max
        for l_command in l_vals:
            kin.check(l_command, t_vals[-1])

    def test_rejects_bad_steps(self):
        with pytest.raises(ValueError):
            ActionGrid(l_step=0.0)
        with pytest.raises(ValueError):
            ActionGrid(t_step=-0.5)


class TestSelectAction:
    def test_four_candidate_example(self):
        # candidate predictions: 0.348, 0.664, 2.147, 3.935; nearest to 1.0
        # is (L=10, t=2)
        kin = ValveKinematics(l_min=10.0, l_max=20.0,
                              t_pose_min=1.0, t_pose_max=2.0)
        grid = ActionGrid(l_step=10.0, t_step=1.0)
        sel = select_action(estimate(c_gravity=0.001), kin, 1.0, grid=grid)
        assert sel.action == ValveAction(10.0, 2.0)
        assert sel.predicted_mg == pytest.approx(0.6640783086353597,
                                                 rel=1e-14)
        assert not sel.use_vibration

    def test_matches_brute_force_reference(self):
        rng = np.random.default_rng(97)
        for _ in range(300):
            l_min = float(rng.choice([0.0, rng.uniform(0.0, 50.0)]))
            l_max = l_min + float(rng.uniform(5.0, 300.0))
            t_min = float(rng.choice([0.0, rng.uniform(0.0, 3.0)]))
            t_max = t_min + float(rng.uniform(0.5, 30.0))
            kin = ValveKinematics(travel_rate=float(rng.uniform(10.0, 500.0)),
                                  l_min=l_min, l_max=l_max,
                                  t_pose_min=t_min, t_pose_max=t_max)
            grid = ActionGrid(
                l_step=(l_max - l_min) / int(rng.integers(1, 100)),
                t_step=(t_max - t_min) / int(rng.integers(1, 100)))
            c_grav = float(10.0 ** rng.uniform(-5.0, 0.0))
            c_vib = (c_grav * float(rng.uniform(1.0, 10.0))
                     if rng.random() < 0.5 else None)
            capacity = c_grav * (l_max ** 2.5 * (l_max / kin.travel_rate
                                                 + t_max))
            w_target = capacity * float(rng.uniform(0.001, 1.3))
            sel = select_action(estimate(c_grav, c_vib), kin, w_target,
                                grid=grid)
            action, predicted, vibration = brute_select(
                c_grav, c_vib, kin, grid, w_target)
            if action is None:
                assert sel.action is None
                assert sel.use_vibration
                continue
            assert sel.action == action
            assert sel.predicted_mg == pytest.approx(predicted, rel=1e-12)
            assert sel.use_vibration == vibration

    def test_each_kinematics_and_grid_object_gets_its_own_table(self):
        # select_action keeps the table of its last (kin, grid) pair; a
        # call that changes either object must not reuse it
        kin = ValveKinematics(l_min=10.0, l_max=20.0,
                              t_pose_min=1.0, t_pose_max=2.0)
        wide = ValveKinematics(l_min=10.0, l_max=40.0,
                               t_pose_min=1.0, t_pose_max=2.0)
        coarse = ActionGrid(l_step=10.0, t_step=1.0)
        fine = ActionGrid(l_step=5.0, t_step=0.5)
        picks = set()
        for k, g in ((kin, coarse), (kin, fine), (wide, fine), (wide, coarse),
                     (kin, coarse), (wide, fine)):
            for w_target in (1.0, 12.0):
                sel = select_action(estimate(0.001, 0.002), k, w_target,
                                    grid=g)
                action, predicted, vibration = brute_select(
                    0.001, 0.002, k, g, w_target)
                assert sel == (action, predicted, vibration)
                picks.add(sel.action)
        assert len(picks) >= 4

    @settings(max_examples=250, deadline=None)
    @given(setup=search_setups(), c_gravity=coefficients,
           c_vibration=st.none() | coefficients,
           use_vibration=st.booleans(),
           target=st.sampled_from(["cell", "near-cell", "below-floor",
                                   "above-capacity"]),
           cell=st.integers(0, 10 ** 6), scale=st.floats(0.5, 2.0))
    def test_matches_the_full_sweep_bit_for_bit(
            self, setup, c_gravity, c_vibration, use_vibration, target, cell,
            scale):
        kin, grid = setup
        assume(not (use_vibration and c_vibration is None))
        c = c_vibration if use_vibration else c_gravity
        w_target = {
            "cell": exact_cell_prediction(c, kin, grid, cell),
            "near-cell": exact_cell_prediction(c, kin, grid, cell) * scale,
            "below-floor": 5e-324,
            "above-capacity": 1e308,
        }[target]
        assume(0.0 < w_target < math.inf)
        sel = select_action(estimate(c_gravity, c_vibration), kin, w_target,
                            use_vibration=use_vibration, grid=grid)
        action, predicted, vibration = brute_select(
            c_gravity, c_vibration, kin, grid, w_target, use_vibration)
        assert sel.action == action
        assert sel.use_vibration == vibration
        if predicted is None:
            assert sel.predicted_mg is None
        else:
            assert sel.predicted_mg.hex() == predicted.hex()

    def test_all_tie_prefers_smallest_dwell_then_command(self):
        sel = select_action(estimate(c_vibration=0.0), ValveKinematics(), 5.0,
                            use_vibration=True)
        assert sel.action == ValveAction(0.0, 0.0, vibration=True)

    def test_exact_tie_prefers_smaller_dwell_over_smaller_command(self):
        # (L=1, t=31.75) and (L=4, t=0) both predict exactly 32 mg
        kin = ValveKinematics(travel_rate=4.0, l_min=1.0, l_max=4.0,
                              t_pose_max=31.75)
        grid = ActionGrid(l_step=3.0, t_step=31.75)
        sel = select_action(estimate(c_gravity=1.0), kin, 32.0, grid=grid)
        assert sel.action == ValveAction(4.0, 0.0)
        assert sel.predicted_mg == 32.0
        assert brute_select(1.0, None, kin, grid, 32.0)[0] == sel.action

    def test_capacity_boundary_is_strict(self):
        kin = ValveKinematics()
        est = estimate(c_gravity=0.001, c_vibration=0.01)
        capacity = 0.001 * (kin.l_max ** 2.5 * (kin.l_max / kin.travel_rate
                                                + kin.t_pose_max))
        at_cap = select_action(est, kin, capacity)
        assert not at_cap.use_vibration
        beyond = select_action(est, kin, math.nextafter(capacity, math.inf))
        assert beyond.use_vibration
        assert beyond.action.vibration

    def test_capacity_switch_without_vibration_fit_requests_bootstrap(self):
        kin = ValveKinematics()
        sel = select_action(estimate(c_gravity=1e-9), kin, 1000.0)
        assert sel.action is None
        assert sel.use_vibration

    def test_subresolution_target_floors_to_smallest_action(self):
        kin = ValveKinematics(l_min=10.0, t_pose_min=1.0)
        sel = select_action(estimate(c_gravity=0.01), kin, 1e-6)
        assert sel.action == ValveAction(10.0, 1.0)

    def test_unfitted_mode_requests_bootstrap(self):
        sel = select_action(estimate(), ValveKinematics(), 5.0)
        assert sel == ActionSelection(None, None, False)

    def test_rejects_bad_target(self):
        est = estimate(c_gravity=0.01)
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                select_action(est, ValveKinematics(), bad)


class TestFastestCell:
    """The cell a search step executes: the least cycle in the band
    [(1 - CYCLE_BAND) * x_pick, x_pick] of the pick's regressor."""

    @settings(max_examples=250, deadline=None)
    @given(setup=search_setups(),
           l_offset=st.just(0.0) | st.floats(0.0, 300.0) | st.just(math.inf),
           c=coefficients,
           positions=st.lists(st.integers(0, 10 ** 6), max_size=4))
    def test_matches_the_full_sweep(self, setup, l_offset, c, positions):
        kin, grid = setup
        table = _action_table(Rig(kin, l_offset), grid)
        products, n = table.products, len(table.products)
        assert len(table.faster) == len(grid.t_values(kin))
        assert {len(row) for row in table.faster} == {len(grid.l_values(kin))}
        for k in {0, n - 1, *(position % n for position in positions)}:
            # the pick at position k, looked up as a step looks it up
            pick = table.cells[False][table.order[k]]
            fast = table.faster[table.dwells[pick.t_pose_s]][
                table.commands[pick.l_command]]
            x, x_fast = products[k], products[fast]
            assert (table.order[fast], x_fast) == brute_fastest(
                kin, grid, x, l_offset)
            # never above the pick, never below (1 - CYCLE_BAND) of it;
            # C' * x never falls as x rises, so neither does a prediction
            assert (1.0 - control.CYCLE_BAND) * x <= x_fast <= x
            assert c * x_fast <= c * x

    def test_a_repeated_axis_value_finds_its_cells_substitute(self):
        # commands 1 + k * 1e-16 round to 1.0, 1.0, 1 + 2**-52 twice and
        # 1 + 2**-51: the commands dict holds one index for each repeated
        # value, whose cell has the pick's regressor and so its band
        kin = ValveKinematics(l_min=1.0, l_max=1.0 + 4e-16, t_pose_max=2.0)
        grid = ActionGrid(l_step=1e-16, t_step=0.5)
        assert len(set(grid.l_values(kin))) == 3
        table = _action_table(Rig(kin), grid)
        for k, cell in enumerate(table.order):
            pick = table.cells[False][cell]
            fast = table.faster[table.dwells[pick.t_pose_s]][
                table.commands[pick.l_command]]
            assert (table.order[fast], table.products[fast]) \
                == brute_fastest(kin, grid, table.products[k])

    def test_the_table_cycle_is_the_plants_elapsed_time(self):
        # one cycle formula: the cycles the table ranks are the elapsed
        # times SimulatedPlant.execute charges, bit for bit, cell by cell
        kin, grid = ValveKinematics(), ActionGrid()
        cycles = control._cycles(kin, grid.l_values(kin), grid.t_values(kin))
        cells = _action_table(Rig(kin), grid).cells[False]
        plant = SimulatedPlant(archetype("tio2"), kin, seed=3)
        for cycle, action in zip(cycles, cells, strict=True):
            _, elapsed = plant.execute(*action)
            assert cycle.hex() == elapsed.hex(), action


class TestStepRecords:
    @pytest.mark.parametrize("make", [
        lambda: StepDecision(TrialStatus.RUNNING, ValveAction(5.0, 0.5),
                             12.5, probe=True),
        lambda: ActionSelection(ValveAction(5.0, 0.5), 12.5, False),
        lambda: StepTrace(1, 5.0, 0.5, False, None, 1.5, 0.01, None, 18.5,
                          9.1, true_delta_mg=1.4, probe=True),
        lambda: ValveAction(5.0, 0.5, vibration=True),
        lambda: ModeFit(2.0, 3, 0.5),
        lambda: CoefficientEstimate(ModeFit(2.0, 3), ModeFit(0.0, 1)),
        lambda: TrialRecord(
            "glass-beads--model-based--t20--000", "glass-beads",
            "model-based", 20.0, 0, TrialStatus.SUCCESS, 19.5, 1, 9.1,
            (StepTrace(1, 5.0, 0.5, False, None, 19.5, 0.01, None, 0.5,
                       9.1),)),
        lambda: ConditionStats("glass-beads", "model-based", 20.0, 1, 1,
                               19.5, 0.0, 1.0, 0.0, 9.1, 0.0,
                               degenerate_stats=True),
        lambda: PooledFit("glass-beads", GRAVITY, 0.01, None, 1),
    ], ids=["StepDecision", "ActionSelection", "StepTrace", "ValveAction",
            "ModeFit", "CoefficientEstimate", "TrialRecord",
            "ConditionStats", "PooledFit"])
    def test_immutable_and_hashable(self, make):
        record = make()
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        with pytest.raises(AttributeError):
            record.extra = 1        # no __dict__ to take a new attribute
        assert record == make() and hash(record) == hash(make())
        again = pickle.loads(pickle.dumps(record))
        assert again == record and type(again) is type(record)

    def test_valve_action_defaults_and_repr(self):
        assert ValveAction(10.0, 4.0) == ValveAction(10.0, 4.0, False)
        assert repr(ValveAction(10.0, 4.0)) \
            == "ValveAction(l_command=10.0, t_pose_s=4.0, vibration=False)"

    def test_controllers_share_the_cached_probe_rungs(self):
        # equal kinematics and grids give one action table, so both
        # controllers hand out the very same prebuilt probe actions
        first = DispensingController(20.0, Rig(ValveKinematics()))
        second = DispensingController(50.0, Rig(ValveKinematics()),
                                      grid=ActionGrid())
        for _ in range(3):
            a, b = first.step(0.0), second.step(0.0)
            assert a.probe and b.probe
            assert a.action is b.action

    def test_a_trial_on_the_last_pair_hashes_nothing(self, table_builds,
                                                     monkeypatch):
        # a trial passes the same Rig and grid objects on every step; only
        # its controller's construction looks its table up in the memo, and
        # its steps find the table by identity
        ctl = DispensingController(50.0, Rig(ValveKinematics(),
                                             l_offset=0.56))
        monkeypatch.setattr(control, "_cached_table", None)  # a lookup raises
        ctl.estimate = estimate(2e-5, 2e-5)
        assert not ctl.step(0.0).probe
        assert not ctl.step(10.0).probe
        assert len(table_builds) == 1

    def test_an_equal_kinematics_reuses_the_table(self, table_builds):
        # the benchmark rebuilds its config on every pass: new kinematics
        # and grid objects, equal to the last ones
        kin = ValveKinematics(l_max=200.0)
        table = control._table_for(Rig(kin), ActionGrid())
        built = len(table_builds)
        again = ValveKinematics(**dataclasses.asdict(kin))
        assert again == kin and again is not kin
        assert control._table_for(Rig(again), ActionGrid()) is table
        ctl = DispensingController(20.0, Rig(ValveKinematics(l_max=200.0)))
        assert ctl._table is table
        assert len(table_builds) == built
        # a kinematics that differs builds anew
        control._table_for(Rig(ValveKinematics(l_max=190.0)), ActionGrid())
        assert len(table_builds) == built + 1

    def test_envelopes_in_turn_retain_at_most_three_tables(
            self, table_builds):
        # 400 x 50 down to 396 x 50 cells, some 4.7 MB a table: the memo
        # keeps the last three, one per archetype a suite can run, and a
        # fourth build evicts the least recently used
        grid = ActionGrid()
        rigs = [Rig(ValveKinematics(l_max=l_max, t_pose_max=24.5))
                for l_max in (1995.0, 1990.0, 1985.0, 1980.0, 1975.0)]
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            held = []
            for rig in rigs:
                control._table_for(rig, grid)
                held.append(tracemalloc.get_traced_memory()[0] - start)
        finally:
            tracemalloc.stop()
        assert table_builds == [(rig, grid) for rig in rigs]
        print("held after each build: "
              + ", ".join(f"{h / 1e6:.2f} MB" for h in held))
        one = held[0]
        assert one > 4e6
        assert control._MAX_TABLES == len(ARCHETYPES) == 3
        assert abs(held[2] - 3 * one) < 0.1 * one
        assert all(abs(h - held[2]) < 0.1 * one for h in held[3:])
        # the last three are held, equal Rigs find them
        for rig in rigs[2:]:
            control._table_for(Rig(rig.kin), grid)
        assert len(table_builds) == len(rigs)

    def test_a_pass_builds_one_table_per_powder_and_the_next_none(
            self, table_builds):
        # a rebuild costs about 3 ms, so a run of passes over an equal
        # config, as tools/outcomes.py and the benchmark make, builds each
        # powder's table once
        path = Path(__file__).resolve().parents[1] / "configs/default.json"
        config = load_config(path)
        run_suite(config, write_artifacts=False)
        assert table_builds == [(config.rig(powder), ActionGrid())
                                for powder in config.powders]
        assert len({rig.l_offset for rig, _ in table_builds}) == 3
        # config.rig hands every trial of a powder the same Rig, so only
        # a powder's first trial looks its table up in the memo
        assert control._cached_table.cache_info()[:2] == (0, 3)
        run_suite(load_config(path), write_artifacts=False)
        assert len(table_builds) == 3
        assert control._cached_table.cache_info()[:2] == (3, 3)

    def test_a_build_at_the_cell_cap_runs_no_full_collection(
            self, table_builds):
        # 2000 commands x 50 dwells
        rig = Rig(ValveKinematics(l_max=9995.0, t_pose_max=24.5))
        generations = []

        def seen(phase, info):
            if phase == "start":
                generations.append(info["generation"])

        assert gc.isenabled()
        gc.callbacks.append(seen)
        try:
            table = control._table_for(rig, ActionGrid())
        finally:
            gc.callbacks.remove(seen)
        assert len(table.products) == control._MAX_GRID_CELLS
        assert 2 not in generations
        assert gc.isenabled()

    @pytest.mark.parametrize("enabled", [True, False],
                             ids=["collector-on", "collector-off"])
    @pytest.mark.parametrize("fails", [False, True],
                             ids=["built", "raised"])
    def test_a_build_restores_the_collector_state(self, monkeypatch,
                                                  enabled, fails):
        build = control._action_table
        during = []

        def build_with_the_collector_seen(rig, grid):
            during.append(gc.isenabled())
            if fails:
                raise RuntimeError("build failed")
            return build(rig, grid)

        monkeypatch.setattr(control, "_action_table",
                            build_with_the_collector_seen)
        control._cached_table.cache_clear()
        monkeypatch.setattr(control, "_last_table", (None, None, None))
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            if fails:
                with pytest.raises(RuntimeError, match="build failed"):
                    control._table_for(Rig(ValveKinematics()), ActionGrid())
            else:
                control._table_for(Rig(ValveKinematics()), ActionGrid())
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
        assert during == [False]

    def test_every_cell_action_is_built_from_the_axes(self):
        kin, grid = ValveKinematics(), ActionGrid()
        table = _action_table(Rig(kin), grid)
        l_vals, t_vals = grid.l_values(kin), grid.t_values(kin)
        first = sum(l_command <= 0 for l_command in l_vals)
        for vibration in (False, True):
            cells = table.cells[vibration]
            assert type(cells) is tuple
            assert len(cells) == len(t_vals) * len(l_vals)
            for cell, action in enumerate(cells):
                j, i = divmod(cell, len(l_vals))   # dwell-major
                assert action == ValveAction(l_vals[i], t_vals[j], vibration)
                # Python floats, so traces write them by their float repr
                assert type(action.l_command) is float
                assert type(action.t_pose_s) is float
            # the probe rungs are the minimum-dwell cells from the first
            # positive command on, the very objects the search picks
            rungs = table.rungs[vibration]
            assert type(rungs) is tuple
            assert len(rungs) == len(l_vals) - first == 42
            assert rungs[0] == ValveAction(5.0, 0.0, vibration)
            for k, rung in enumerate(rungs):
                assert rung is cells[first + k]

    @pytest.mark.parametrize("powder", ["glass-beads", "tio2"])
    def test_a_trial_leaves_a_fresh_table_as_built(self, powder,
                                                   table_builds):
        # every slot is built with the table; a trial only reads it
        rig, grid = Rig(ValveKinematics()), ActionGrid()
        kin = rig.kin
        table = control._table_for(rig, grid)
        assert table_builds == [(rig, grid)]
        built = [list(mode) for mode in table.cells]
        assert all(action is not None for mode in built for action in mode)
        rungs = [list(mode) for mode in table.rungs]
        ctl = DispensingController(500.0, rig, grid=grid)
        plant = SimulatedPlant(archetype(powder), kin, seed=3)
        reading, _ = plant.read_balance(False)
        searched = 0
        while True:
            decision = ctl.step(reading, plant.depleted)
            if decision.status is not TrialStatus.RUNNING:
                break
            searched += not decision.probe
            a = decision.action
            plant.execute(a.l_command, a.t_pose_s, a.vibration)
            reading, _ = plant.read_balance()
        assert decision.status is TrialStatus.SUCCESS and searched > 0
        assert control._table_for(rig, grid) is table
        assert len(table_builds) == 1
        for now, then in zip(table.cells + table.rungs, built + rungs,
                             strict=True):
            assert len(now) == len(then)
            assert all(a is b for a, b in zip(now, then))

    def test_controllers_share_the_memoised_cell_actions(self):
        first = DispensingController(20.0, Rig(ValveKinematics()))
        second = DispensingController(50.0, Rig(ValveKinematics()),
                                      grid=ActionGrid())
        for ctl in (first, second):
            ctl.estimate = estimate(2e-5, 2e-5)
        a, b = first.step(0.0), second.step(30.0)   # the same 20 mg error
        assert not a.probe and not b.probe
        assert a.action is b.action
        # the step executes the pick's fastest cell in the band, and that
        # cell is the table's own ValveAction
        pick = select_action(estimate(2e-5, 2e-5), ValveKinematics(),
                             first.w_target).action
        cell, x = brute_fastest(ValveKinematics(), ActionGrid(),
                                regressor(Rig(ValveKinematics()),
                                          pick.l_command, pick.t_pose_s))
        table = control._table_for(first.rig, first.grid)
        assert a.action is table.cells[False][cell]
        assert a.action != pick
        assert a.predicted_mg == 2e-5 * x

    @pytest.mark.parametrize("vibration", [False, True],
                             ids=["gravity", "vibration"])
    def test_a_probe_and_a_search_pick_of_one_cell_are_one_action(
            self, vibration):
        ctl = DispensingController(20.0, Rig(ValveKinematics()))
        ctl.use_vibration = vibration    # probe this mode's ladder
        probe = ctl.step(0.0)
        assert probe.probe
        assert probe.action == ValveAction(5.0, 0.0, vibration)
        # a tiny request is floored to the smallest productive cell
        picked = select_action(estimate(2e-5, 2e-5), ValveKinematics(), 1e-6,
                               use_vibration=vibration)
        assert picked.action is probe.action


class TestTrialStatus:
    def test_wire_values(self):
        assert TrialStatus.SUCCESS.value == "success"
        assert TrialStatus.OVERSHOOT_FAIL.value == "overshoot-fail"
        assert TrialStatus.STEP_LIMIT_FAIL.value == "step-limit-fail"
        assert TrialStatus.DEPLETED_FAIL.value == "depleted-fail"
        assert TrialStatus.ABORTED.value == "aborted"


class TestControllerTermination:
    """Boundary behaviour shared between both controllers."""

    @pytest.mark.parametrize("make", [
        lambda: DispensingController(100.0),
        lambda: PidBaselineController(100.0),
    ], ids=["model-based", "direct-pid"])
    def test_tolerance_band_is_exclusive(self, make):
        assert make().step(98.1).status is TrialStatus.SUCCESS
        assert make().step(101.9).status is TrialStatus.SUCCESS
        assert make().step(98.0).status is TrialStatus.RUNNING
        assert make().step(102.0).status is TrialStatus.OVERSHOOT_FAIL

    @pytest.mark.parametrize("make", [
        lambda: DispensingController(100.0),
        lambda: PidBaselineController(100.0),
    ], ids=["model-based", "direct-pid"])
    def test_empty_hopper_and_bad_reading(self, make):
        ctl = make()
        assert ctl.step(50.0, hopper_empty=True).status \
            is TrialStatus.DEPLETED_FAIL
        assert make().step(float("nan")).status is TrialStatus.ABORTED

    @pytest.mark.parametrize("make", [
        lambda: DispensingController(100.0, max_steps=3),
        lambda: PidBaselineController(100.0, max_steps=3),
    ], ids=["model-based", "direct-pid"])
    def test_step_limit(self, make):
        ctl = make()
        for _ in range(3):
            assert ctl.step(0.0).status is TrialStatus.RUNNING
        assert ctl.step(0.0).status is TrialStatus.STEP_LIMIT_FAIL

    @pytest.mark.parametrize("make", [
        lambda: DispensingController(100.0),
        lambda: PidBaselineController(100.0),
    ], ids=["model-based", "direct-pid"])
    def test_stepping_a_finished_trial_is_an_error(self, make):
        ctl = make()
        ctl.step(100.5)
        assert ctl.status is TrialStatus.SUCCESS
        with pytest.raises(RuntimeError):
            ctl.step(100.5)

    def test_success_beats_empty_hopper(self):
        ctl = DispensingController(100.0)
        assert ctl.step(100.0, hopper_empty=True).status \
            is TrialStatus.SUCCESS


class TestBootstrapProbing:
    def test_ladder_climbs_then_confirms(self):
        ctl = DispensingController(20.0)
        first = ctl.step(0.0)
        assert first.probe and first.action == ValveAction(5.0, 0.0)
        second = ctl.step(0.0)           # nothing measurable: next rung
        assert second.action == ValveAction(10.0, 0.0)
        third = ctl.step(5.0)            # measurable once: repeat to confirm
        assert third.probe and third.action == ValveAction(10.0, 0.0)
        assert ctl.estimate.gravity.n_obs == 0
        fourth = ctl.step(10.0)          # confirmed: both observations land
        assert ctl.estimate.gravity.n_obs == 2
        x = 10.0 ** 2.5 * (10.0 / 100.0 + 0.0)
        assert ctl.estimate.gravity.c_prime == pytest.approx(5.0 / x,
                                                             rel=1e-12)
        assert ctl.w_target == 5.0       # k_p 0.5 * error 10
        assert not fourth.probe
        action, predicted, vibration = brute_select(
            5.0 / x, None, ctl.kin, ctl.grid, 5.0)
        assert fourth.action == action
        assert fourth.predicted_mg == pytest.approx(predicted, rel=1e-12)
        assert not vibration

    def test_failed_confirmation_discards_and_advances(self):
        ctl = DispensingController(20.0)
        recorded = []
        record = ctl.log.record
        ctl.log.record = lambda *args: recorded.append(args) or record(*args)
        ctl.step(0.0)                    # probe (5, 0)
        ctl.step(0.0)                    # probe (10, 0)
        ctl.step(5.0)                    # candidate, repeat (10, 0)
        assert recorded == []
        decision = ctl.step(5.3)         # repeat delta 0.3: below the gate
        # the log judges the repeat alone and drops it; the candidate
        # never reaches the log
        assert [args[:3] for args in recorded] == [(10.0, 0.0, False)]
        assert ctl.estimate.gravity.n_obs == 0
        assert ctl.estimate.gravity.c_prime is None
        assert decision.probe and decision.action == ValveAction(15.0, 0.0)

    def test_a_falling_reading_after_a_probe_opens_no_candidate(self):
        # a reading 3 mg below the last one is no drop: it fits neither
        # mode and opens no candidate, so the ladder moves on rather than
        # repeating (5, 0)
        ctl = DispensingController(20.0)
        ctl.step(5.0)                    # probe (5, 0)
        decision = ctl.step(2.0)
        assert ctl.estimate == CoefficientEstimate()
        assert decision.probe and decision.action == ValveAction(10.0, 0.0)

    def test_a_falling_reading_after_a_model_step_leaves_the_fit(self):
        ctl = DispensingController(100.0)
        ctl.step(0.0)                    # probe (5, 0)
        ctl.step(0.0)                    # probe (10, 0)
        ctl.step(5.0)                    # candidate, repeat (10, 0)
        decision = ctl.step(10.0)        # confirmed: a model step
        fitted = ctl.estimate
        assert fitted.gravity.n_obs == 2 and not decision.probe
        decision = ctl.step(7.0)         # 3 mg below the last reading
        assert ctl.estimate is fitted
        assert ctl.estimate.gravity.n_obs == 2
        assert not decision.probe

    def test_deltas_at_the_gate_confirm_and_land_in_the_log(self):
        # a probe opens a candidate at SEED_GATE_MG and not below it, and
        # a repeat confirms at the log's MIN_OBSERVABLE_MG: a probe of
        # exactly the seed gate and a repeat of exactly the observability
        # gate confirm, and the log keeps both
        ctl = DispensingController(20.0)
        ctl.step(0.0)                    # probe (5, 0)
        second = ctl.step(MIN_OBSERVABLE_MG)    # below the seed gate
        assert second.probe and second.action == ValveAction(10.0, 0.0)
        reading = MIN_OBSERVABLE_MG + SEED_GATE_MG
        third = ctl.step(reading)        # at the seed gate: repeat
        assert third.probe and third.action == ValveAction(10.0, 0.0)
        assert ctl.estimate.gravity.n_obs == 0
        fourth = ctl.step(reading + MIN_OBSERVABLE_MG)  # repeat confirmed
        assert ctl.estimate.gravity.n_obs == 2
        x = 10.0 ** 2.5 * (10.0 / 100.0 + 0.0)
        assert ctl.estimate.gravity.c_prime == pytest.approx(
            (SEED_GATE_MG / x + MIN_OBSERVABLE_MG / x) / 2, rel=1e-12)
        assert not fourth.probe

    def test_the_rig_sets_the_first_rung(self):
        # the ladder starts at the first command above L0, and the gates
        # are the same as without an offset
        ctl = DispensingController(20.0, Rig(ValveKinematics(),
                                             l_offset=8.4))
        assert ctl.step(0.0).action == ValveAction(10.0, 0.0)
        assert ctl.step(0.75).action == ValveAction(15.0, 0.0)  # below 1 mg
        repeat = ctl.step(1.75)                 # at the seed gate
        assert repeat.probe and repeat.action == ValveAction(15.0, 0.0)
        after = ctl.step(2.0)                   # a repeat below 0.5 mg
        assert after.action == ValveAction(20.0, 0.0)
        assert ctl.estimate.gravity.n_obs == 0

    def test_a_candidate_comes_back_on_the_very_next_step(self,
                                                          monkeypatch):
        # the controller compares no modes: a pending candidate is
        # repeated on the step right after it opened, in its own mode, so
        # each step that goes on past a pending candidate consumes it, and
        # the candidate is the action of the step just executed, the very
        # ValveAction object; checked over the shipped configs at their
        # balance noise and at a 0.5 mg one
        handed = []
        step = DispensingController.step

        def spy(ctl, *args):
            candidate, executed = ctl._candidate, ctl._last_action
            decision = step(ctl, *args)
            if candidate is not None and decision.action is not None:
                handed.append(ctl._candidate is None
                              and candidate[0] is executed)
            return decision

        monkeypatch.setattr(DispensingController, "step", spy)
        configs = Path(__file__).resolve().parents[1] / "configs"
        for path in sorted(configs.glob("*.json")):
            base = load_config(path)
            for noise_sigma in (base.balance.noise_sigma, 0.5):
                balance = dataclasses.replace(base.balance,
                                              noise_sigma=noise_sigma)
                for seed in (1, 2):
                    run_suite(dataclasses.replace(base, balance=balance,
                                                  seed=seed),
                              write_artifacts=False)
        assert len(handed) > 100 and all(handed)

    def test_gravity_exhaustion_latches_vibration_then_falls_back(self):
        ctl = DispensingController(3000.0)
        rungs = 42                        # positive commands 5..210 step 5
        for i in range(rungs):
            decision = ctl.step(0.0)
            assert decision.probe and not decision.action.vibration
            assert decision.action.t_pose_s == 0.0
        decision = ctl.step(0.0)          # gravity spent: switch modes
        assert ctl.use_vibration
        assert decision.action == ValveAction(5.0, 0.0, vibration=True)
        for _ in range(rungs - 1):
            decision = ctl.step(0.0)
            assert decision.action.vibration
        decision = ctl.step(0.0)          # both spent: most aggressive push
        assert decision.action == ValveAction(210.0, 20.0, vibration=True)
        while ctl.status is TrialStatus.RUNNING:
            decision = ctl.step(0.0)
        assert ctl.status is TrialStatus.STEP_LIMIT_FAIL
        assert ctl.step_count == 100

    def test_capacity_shortfall_mid_trial_switches_to_vibration_probing(self):
        # gravity fitted, but its whole-envelope capacity is far below the
        # target: the controller must latch vibration and start probing it
        kin = ValveKinematics(l_max=10.0, t_pose_max=1.0)
        ctl = DispensingController(3000.0, Rig(kin), k_p=1.0)
        ctl.step(0.0)                    # probe (5, 0)
        ctl.step(1.0)                    # candidate at (5, 0), repeat it
        decision = ctl.step(2.0)         # confirmed, and capacity falls short
        assert ctl.estimate.gravity.c_prime is not None
        assert ctl.use_vibration
        assert decision.probe
        assert decision.action == ValveAction(5.0, 0.0, vibration=True)

    def test_capacity_latch_starts_vibration_at_the_gravity_seed_rung(self):
        # gravity seeds at its fifth rung, (25, 0), and cannot reach the
        # target even at its largest action: the vibration ladder starts
        # one rung below gravity's next column, at (25, 0), not at (5, 0)
        kin = ValveKinematics(l_max=50.0, t_pose_max=1.0)
        ctl = DispensingController(3000.0, Rig(kin), k_p=1.0)
        for l in (5.0, 10.0, 15.0, 20.0, 25.0):
            decision = ctl.step(0.0)
            assert decision.probe and decision.action == ValveAction(l, 0.0)
        assert ctl.step(1.0).action == ValveAction(25.0, 0.0)  # repeat
        decision = ctl.step(2.0)         # confirmed; capacity falls short
        assert ctl.estimate.gravity.c_prime is not None
        assert ctl.use_vibration
        assert decision.probe
        assert decision.action == ValveAction(25.0, 0.0, vibration=True)
        assert ctl.step(2.0).action == ValveAction(30.0, 0.0, vibration=True)
        # a latch on an exhausted gravity ladder starts at the first rung
        ctl = DispensingController(3000.0, Rig(kin), k_p=1.0)
        for l in range(5, 55, 5):
            assert ctl.step(0.0).action == ValveAction(float(l), 0.0)
        decision = ctl.step(0.0)
        assert ctl.use_vibration and ctl.estimate.gravity.c_prime is None
        assert decision.action == ValveAction(5.0, 0.0, vibration=True)


class TestFinish:
    """Within control.FINISH_FACTOR tolerances of the goal a step requests
    the whole remaining error; further out, k_p of it."""

    @pytest.mark.parametrize("tolerance", [2.0, 0.5])
    def test_at_the_threshold_a_step_requests_the_whole_error(self,
                                                              tolerance):
        ctl = DispensingController(100.0, tolerance=tolerance)
        ctl.step(100.0 - control.FINISH_FACTOR * tolerance)
        assert ctl.w_error == control.FINISH_FACTOR * tolerance
        assert ctl.w_target == ctl.w_error

    @pytest.mark.parametrize("tolerance", [2.0, 0.5])
    def test_just_above_the_threshold_a_step_requests_k_p_of_it(self,
                                                                tolerance):
        ctl = DispensingController(100.0, tolerance=tolerance, k_p=0.7)
        ctl.step(math.nextafter(100.0 - control.FINISH_FACTOR * tolerance,
                                0.0))
        assert ctl.w_error > control.FINISH_FACTOR * tolerance
        assert ctl.w_target == 0.7 * ctl.w_error

    @staticmethod
    def trial(k_p):
        """A glass-beads 500 mg trial's decisions and requests."""
        ctl = DispensingController(500.0, k_p=k_p)
        plant = SimulatedPlant(archetype("glass-beads"), ctl.kin, seed=3)
        reading, _ = plant.read_balance(wait_settle=False)
        steps = []
        while (decision := ctl.step(reading, plant.depleted)).status \
                is TrialStatus.RUNNING:
            steps.append((decision, ctl.w_target))
            plant.execute(*decision.action)
            reading, _ = plant.read_balance()
        return steps, decision

    def test_at_k_p_1_the_finish_changes_nothing(self, monkeypatch):
        whole = self.trial(1.0)
        halving = self.trial(0.5)
        monkeypatch.setattr(control, "FINISH_FACTOR", 0.0)
        assert self.trial(1.0) == whole
        # the trial at k_p 0.5 reaches the finish, so turning it off shows
        assert self.trial(0.5) != halving


class TestControllerMatchesReference:
    # the cases in which some search step executes a faster cell than
    # its pick, so that they fail if the substitution is dropped; at
    # seed 3, glass-beads at 500 mg executes every pick as it is
    SUBSTITUTING = {("glass-beads", 3000.0), ("tio2", 500.0), ("msg", 500.0)}

    @pytest.mark.parametrize("powder, target", [
        ("glass-beads", 500.0), ("glass-beads", 3000.0), ("tio2", 500.0),
        ("msg", 500.0)])
    def test_every_model_step_picks_the_brute_force_action(self, powder,
                                                           target):
        # the reference: the nearest prediction in a full sweep, then the
        # fastest cell in that pick's band, also in a full sweep
        kin = ValveKinematics(travel_rate=80.0, l_max=180.0,
                              t_pose_min=0.5, t_pose_max=12.0)
        grid = ActionGrid(l_step=7.5, t_step=0.75)
        ctl = DispensingController(target, Rig(kin), grid=grid,
                                   k_p=0.6)
        plant = SimulatedPlant(archetype(powder), kin, seed=3)
        reading, _ = plant.read_balance(wait_settle=False)
        compared = substituted = 0
        while True:
            latched = ctl.use_vibration
            decision = ctl.step(reading, hopper_empty=plant.depleted)
            if decision.status is not TrialStatus.RUNNING:
                break
            if not decision.probe:
                est = ctl.estimate
                pick, _, vibration = brute_select(
                    est.gravity.c_prime, est.vibration.c_prime, kin, grid,
                    ctl.w_target,
                    use_vibration=latched or est.gravity.c_prime is None)
                cell, x = brute_fastest(kin, grid, pick.l_command ** 2.5 * (
                    pick.l_command / kin.travel_rate + pick.t_pose_s))
                j, i = divmod(cell, len(grid.l_values(kin)))
                assert decision.action == ValveAction(
                    grid.l_values(kin)[i], grid.t_values(kin)[j], vibration)
                c = est[vibration].c_prime
                assert decision.predicted_mg == pytest.approx(c * x,
                                                              rel=1e-12)
                assert ctl.use_vibration == vibration
                compared += 1
                substituted += decision.action != pick
            a = decision.action
            plant.execute(a.l_command, a.t_pose_s, a.vibration)
            reading, _ = plant.read_balance()
        assert compared >= 3
        if (powder, target) in self.SUBSTITUTING:
            assert substituted >= 1


class TestControllerValidation:
    def test_constructor_bounds(self):
        with pytest.raises(ValueError):
            DispensingController(0.0)
        with pytest.raises(ValueError):
            DispensingController(100.0, k_p=0.0)
        with pytest.raises(ValueError):
            DispensingController(100.0, k_p=1.1)
        with pytest.raises(ValueError):
            DispensingController(100.0, tolerance=0.0)
        with pytest.raises(ValueError):
            DispensingController(100.0, max_steps=0)

    # 5e-324 takes the command axis past the float range; 0.01 gives
    # 21 001 commands x 41 dwells, a table of about 0.2 GB were it built
    @pytest.mark.parametrize("l_step, cells", [(5e-324, "inf"),
                                               (0.01, "8.61e+05")],
                             ids=["past-the-float-range", "past-the-cap"])
    def test_a_grid_past_the_cell_cap_is_refused_before_any_axis(
            self, monkeypatch, l_step, cells):
        def no_axis(*args):
            raise AssertionError("an axis was built")

        monkeypatch.setattr(control, "_axis", no_axis)
        grid = ActionGrid(l_step=l_step)
        message = (f"the envelope holds {cells} cells of the model-based "
                   f"controller's action grid, more than 100000; its "
                   f"action table takes about 243 bytes a cell")
        with pytest.raises(ValueError) as refused:
            DispensingController(20.0, grid=grid)
        assert str(refused.value) == message
        with pytest.raises(ValueError) as refused:
            select_action(estimate(c_gravity=0.01), ValveKinematics(), 5.0,
                          grid=grid)
        assert str(refused.value) == message


class TestPidBaseline:
    def test_proportional_mapping(self):
        gains = PidGains(k_p=1.0, k_i=0.0, k_d=0.0, output_slope=0.1)
        ctl = PidBaselineController(1000.0, gains=gains)
        action = ctl.action_for_error(500.0)
        assert action.l_command == 50.0
        assert action.t_pose_s == 2.0
        assert not action.vibration

    def test_zero_error_closes_the_valve(self):
        ctl = PidBaselineController(1000.0, gains=PidGains())
        assert ctl.action_for_error(0.0).l_command == 0.0

    def test_output_clamped_to_valve_range(self):
        ctl = PidBaselineController(100000.0, gains=PidGains(output_slope=1.0))
        assert ctl.action_for_error(50000.0).l_command == 210.0

    def test_integral_accumulates_and_clamps(self):
        gains = PidGains(k_p=0.0, k_i=1.0, output_slope=1.0,
                         integral_limit=10.0)
        ctl = PidBaselineController(100.0, gains=gains)
        assert ctl.action_for_error(8.0).l_command == 8.0
        assert ctl.action_for_error(8.0).l_command == 10.0   # clamped at 16
        assert ctl.integral == 10.0

    def test_integral_clamps_an_overshoot_from_below(self):
        gains = PidGains(k_p=0.0, k_i=1.0, k_d=0.0, output_slope=1.0,
                         integral_limit=10.0)
        ctl = PidBaselineController(100.0, gains=gains)
        assert ctl.action_for_error(-8.0).l_command == 0.0   # valve floor
        assert ctl.action_for_error(-8.0).l_command == 0.0   # -16, clamped
        assert ctl.integral == -10.0
        # wound up only to -10, so the next error opens the valve at once
        assert ctl.action_for_error(15.0).l_command == 5.0
        assert ctl.integral == 5.0

    def test_derivative_kicks_in_from_second_sample(self):
        gains = PidGains(k_p=0.0, k_i=0.0, k_d=1.0, output_slope=1.0)
        ctl = PidBaselineController(100.0, gains=gains)
        assert ctl.action_for_error(30.0).l_command == 0.0   # no history yet
        assert ctl.action_for_error(20.0).l_command == 0.0   # derivative -10
        assert ctl.action_for_error(25.0).l_command == 5.0

    def test_vibration_flag_passthrough(self):
        ctl = PidBaselineController(100.0, vibration=True)
        assert ctl.step(0.0).action.vibration

    @pytest.mark.parametrize("vibration", [False, True],
                             ids=["gravity", "vibration"])
    def test_step_action_is_a_valve_action(self, vibration):
        gains = PidGains(k_p=1.0, k_i=0.0, k_d=0.0, output_slope=0.1)
        ctl = PidBaselineController(1000.0, gains=gains, vibration=vibration)
        action = ctl.step(500.0).action
        assert type(action) is ValveAction
        assert action == ValveAction(50.0, gains.t_pose_fixed_s, vibration)
        assert repr(action) == (f"ValveAction(l_command=50.0, t_pose_s=2.0, "
                                f"vibration={vibration})")

    def test_dwell_must_fit_the_valve(self):
        with pytest.raises(ValueError):
            PidBaselineController(100.0, gains=PidGains(t_pose_fixed_s=25.0))

    def test_gains_validation(self):
        with pytest.raises(ValueError):
            PidGains(output_slope=0.0)
        with pytest.raises(ValueError):
            PidGains(t_pose_fixed_s=-1.0)
        with pytest.raises(ValueError):
            PidGains(integral_limit=-5.0)
        with pytest.raises(ValueError):
            PidGains(k_p=float("inf"))

    def test_keeps_no_observation_log(self):
        ctl = PidBaselineController(100.0)
        assert not hasattr(ctl, "log")


# CPython 3.11 specialises no call to a function that declares a
# keyword-only parameter, nor a call that passes an argument by keyword,
# so the step path's entry points take their flags by position or by
# keyword, and the harness passes them by position.
STEP_PATH = (DispensingController.step, PidBaselineController.step,
             SimulatedPlant.read_balance, select_action)


class TestStepPathCallForms:
    @pytest.mark.parametrize("fn", STEP_PATH,
                             ids=lambda fn: fn.__qualname__)
    def test_no_keyword_only_parameter(self, fn):
        kinds = {p.name: p.kind
                 for p in inspect.signature(fn).parameters.values()}
        assert inspect.Parameter.KEYWORD_ONLY not in kinds.values(), kinds

    @pytest.mark.parametrize("make", [
        lambda kin: DispensingController(500.0, Rig(kin)),
        lambda kin: PidBaselineController(500.0, kin),
    ], ids=["model-based", "direct-pid"])
    def test_keyword_and_positional_trials_agree(self, make):
        """One trial driven with every flag by keyword and its twin with
        every flag by position take the same readings and decisions, and
        both end depleted when told that the hopper is empty."""
        kin = ValveKinematics()
        runs = []
        for by_keyword in (True, False):
            ctl = make(kin)
            plant = SimulatedPlant(archetype("glass-beads"), kin, seed=5)
            if by_keyword:
                reading = plant.read_balance(wait_settle=False)
            else:
                reading = plant.read_balance(False)
            seen = [reading]
            for _ in range(6):
                decision = (ctl.step(reading[0], hopper_empty=False)
                            if by_keyword else ctl.step(reading[0], False))
                seen.append(decision)
                if decision.status is not TrialStatus.RUNNING:
                    break
                plant.execute(*decision.action)
                reading = (plant.read_balance(wait_settle=True)
                           if by_keyword else plant.read_balance(True))
                seen.append(reading)
            else:
                seen.append(ctl.step(reading[0], hopper_empty=True)
                            if by_keyword else ctl.step(reading[0], True))
            seen.append((plant.sim_clock, plant.dispensed_total))
            runs.append(seen)
        assert runs[0] == runs[1]
        assert runs[0][-2].status is TrialStatus.DEPLETED_FAIL
        assert any(type(d) is StepDecision and d.action is not None
                   for d in runs[0])

    @pytest.mark.parametrize("use_vibration", [False, True])
    def test_select_action_keyword_and_positional_agree(self,
                                                        use_vibration):
        kin = ValveKinematics()
        grid = ActionGrid(l_step=2.5, t_step=0.25)
        est = estimate(1e-5, 3e-5)
        by_keyword = select_action(est, kin, 40.0,
                                   use_vibration=use_vibration, grid=grid)
        assert select_action(est, kin, 40.0, use_vibration, grid) \
            == by_keyword
        assert by_keyword.action.vibration is use_vibration
