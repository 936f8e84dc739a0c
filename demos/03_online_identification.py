#!/usr/bin/env python3
"""
Online identification of the lumped drop coefficient
====================================================

Every dispensing step yields one (regressor, measured drop) pair:

    W = C' * max(L - L0, 0)^2.5 * (L / v + t_pose)

where L0 = k * d / kappa is the powder's Beverloo offset in command
units, the plant's own. Within a trial the controller takes C' as the
mean of the pairs' ratios, drop over regressor, refreshed while the
trial is still running; across trials a least-squares line through the
origin pools them.  This script runs several noisy trials, tracks the
running estimate inside each trial, then pools all trials into a single
fit and compares against the coefficient the plant was actually built
with. Last, it refits the same points under the pure power law, L0 = 0.
"""

from powderdose import (
    ExperimentConfig,
    Rig,
    effective_coefficient,
    pooled_fits,
    pooled_points,
    run_trial,
)

cfg = ExperimentConfig(powders=["glass-beads"], controllers=["model-based"],
                       targets_mg=[500.0], trials=8, seed=3)
c_true = effective_coefficient(cfg.powder_spec("glass-beads"),
                               cfg.kinematics)
print(f"plant coefficient (gravity): {c_true:.6f}, Beverloo offset "
      f"L0 = {cfg.rig('glass-beads').l_offset:.2f} command units")
print()

# convergence inside a single trial
rec = run_trial(cfg, 0)
print("running estimate within trial 0:")
for row in rec.steps:
    if row.cprime_gravity is None:
        continue
    err_pct = 100.0 * (row.cprime_gravity - c_true) / c_true
    print(f"  step {row.step:2d}: C' = {row.cprime_gravity:.6f} ({err_pct:+6.2f} %)")


def step_points(records):
    """Each trial's record with the (L, t_pose, vibration, measured drop)
    of every step it executed, the pairs pooled_points reads."""
    return [(r, [(s.l_command, s.t_pose_s, s.vibration, s.measured_delta_mg)
                 for s in r.steps]) for r in records]


# pooled across trials the estimate tightens further; cfg.rig gives each
# powder the rig its controllers ran on, offset included
records = [run_trial(cfg, i) for i in range(cfg.trials)]
points = step_points(records)
print()
for f in pooled_fits(pooled_points(points, cfg.rig)):
    err_pct = 100.0 * (f.c_prime - c_true) / c_true
    print(f"pooled {f.powder}/{f.mode}: C' = {f.c_prime:.6f} ({err_pct:+.2f} %), "
          f"R^2 = {f.r_squared:.4f} over {f.n_points} points")

# The pure power law, L0 = 0, lacks the plant's k*d term: the same points
# fit a C' below the plant's, which absorbs the correction at the openings
# the controller used and mispredicts the smaller ones.
for f in pooled_fits(pooled_points(points, lambda powder: Rig(cfg.kinematics))):
    err_pct = 100.0 * (f.c_prime - c_true) / c_true
    print(f"pure power law (L0 = 0): C' = {f.c_prime:.6f} ({err_pct:+.2f} %), "
          f"R^2 = {f.r_squared:.4f} over {f.n_points} points")
