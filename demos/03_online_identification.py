#!/usr/bin/env python3
"""
Online identification of the lumped drop coefficient
====================================================

Every dispensing step yields one (regressor, measured drop) pair:

    W = C' * L^2.5 * (L / v + t_pose)

Within a trial the controller takes C' as the mean of the pairs'
ratios, drop over regressor, refreshed while the trial is still
running; across trials a least-squares line through the origin pools
them.  This script runs several noisy trials, tracks the running
estimate inside each trial, then pools all trials into a single fit
and compares against the coefficient the plant was actually built with.
"""

from powderdose import (
    ExperimentConfig,
    ValveKinematics,
    archetype,
    effective_coefficient,
    pooled_fits,
    pooled_points,
    run_trial,
)

kin = ValveKinematics()
c_true = effective_coefficient(archetype("glass-beads"), kin)
print(f"ideal coefficient (gravity, no particle correction): {c_true:.6f}")
print()

# The plant shrinks the opening by k*d before applying the power law;
# the lumped model has no such term, so the fitted C' comes out a bit
# below the ideal value. It absorbs the correction, which is the point:
# the controller needs the coefficient that predicts actual drops.
cfg = ExperimentConfig(powders=["glass-beads"], controllers=["model-based"],
                       targets_mg=[500.0], trials=8, seed=3)

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


# pooled across trials the estimate tightens further
records = [run_trial(cfg, i) for i in range(cfg.trials)]
fits = pooled_fits(pooled_points(step_points(records), kin))
print()
for f in fits:
    err_pct = 100.0 * (f.c_prime - c_true) / c_true
    print(f"pooled {f.powder}/{f.mode}: C' = {f.c_prime:.6f} ({err_pct:+.2f} %), "
          f"R^2 = {f.r_squared:.4f} over {f.n_points} points")

# with the particle correction switched off the plant matches the lumped
# model exactly, and the fit recovers the coefficient to within noise
clean = ExperimentConfig(powders=["glass-beads"], controllers=["model-based"],
                         targets_mg=[500.0], trials=8, seed=3,
                         powder_overrides={"glass-beads": {"particle_correction": 0.0}})
records = [run_trial(clean, i) for i in range(clean.trials)]
for f in pooled_fits(pooled_points(step_points(records), kin)):
    err_pct = 100.0 * (f.c_prime - c_true) / c_true
    print(f"no-correction plant:    C' = {f.c_prime:.6f} ({err_pct:+.2f} %), "
          f"R^2 = {f.r_squared:.4f} over {f.n_points} points")
