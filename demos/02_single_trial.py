#!/usr/bin/env python3
# Drive one closed-loop dispensing trial by hand: wire the controller
# to the simulated plant, print every step, and watch the coefficient
# estimate settle while the remaining error shrinks.

from powderdose import (
    BalanceModel,
    DispensingController,
    ExperimentConfig,
    SimulatedPlant,
    TrialStatus,
)

TARGET_MG = 500.0
SEED = 42

config = ExperimentConfig(powders=["glass-beads"])
spec = config.powder_spec("glass-beads")
plant = SimulatedPlant(spec, config.kinematics, BalanceModel(), seed=SEED)
# the controller's rig: the valve, the balance's gate and the powder's
# Beverloo offset, as run_suite gives it
ctl = DispensingController(TARGET_MG, config.rig("glass-beads"), k_p=0.5,
                           tolerance=2.0)

print(f"target {TARGET_MG} mg of {spec.name}, tolerance +/-2 mg")
print(f"{'step':>4} {'L':>7} {'t_pose':>7} {'vib':>4} {'pred mg':>9} "
      f"{'meas mg':>9} {'C_grav':>9} {'err mg':>8}")

reading, _ = plant.read_balance(wait_settle=False)  # tare
step = 0
while True:
    decision = ctl.step(reading, hopper_empty=plant.depleted)
    if decision.status is not TrialStatus.RUNNING:
        break
    a = decision.action
    plant.execute(a.l_command, a.t_pose_s, a.vibration)
    reading, _ = plant.read_balance()
    step += 1

    fit = ctl.estimate.gravity
    c_txt = f"{fit.c_prime:9.4f}" if fit.c_prime is not None else "        -"
    pred = decision.predicted_mg
    pred_txt = f"{pred:9.2f}" if pred is not None else "    probe"
    tag = "*" if decision.probe else " "
    print(f"{step:>4}{tag}{a.l_command:7.1f} {a.t_pose_s:7.2f} "
          f"{'y' if a.vibration else 'n':>4} {pred_txt} "
          f"{reading:9.2f} {c_txt} {TARGET_MG - reading:8.2f}")

print()
print(f"finished: {decision.status.value} after {step} steps")
print(f"dispensed {reading:.2f} mg (error {reading - TARGET_MG:+.2f} mg)")
print("rows marked * are probe actions taken before the model was fitted")
