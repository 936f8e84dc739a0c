"""The outcome ledger: what the simulation achieves, as OUTCOMES.json holds it.

    PYTHONPATH=src python tools/outcomes.py            print the ledger
    PYTHONPATH=src python tools/outcomes.py --write    rewrite OUTCOMES.json

Each profile runs configs/default.json's protocol over a fixed range of
seeds, in one process with no artifacts, and is never moved after a
result has been seen:

    shipped, seeds 1-10    the config as it is, at its tuning seeds
    shipped, seeds 11-60   the same, held out
    sigma_b 0.5, ...       the balance's noise_sigma at 0.5 mg
    flow 0.3, ...          every powder's flow_noise_sigma at 0.3

A profile holds one row over all its trials ("all") and one per powder.
Every error is on the true mass, the sum of a trace's true_delta_mg, the
mass the plant dispensed; final_mass_mg is only the balance reading the
controller stopped on. A row holds the trial count; the counts within
+-2 mg and +-1 mg and past 20 mg; the worst |error| and the median signed
error; the total steps and the total rig time (total_sim_time_s); and
the trials whose status is success while their true mass misses +-2 mg.
Floats are held as their repr, so a compare is exact.

A change that moves simulated outcomes rewrites the file, and its diff is
that change's before and after. The ledger bounds nothing.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import statistics
from pathlib import Path

from powderdose import ExperimentConfig, TrialStatus, load_config, run_suite

ROOT = Path(__file__).resolve().parent.parent
LEDGER = ROOT / "OUTCOMES.json"


def profiles() -> dict:
    """Each profile's name, its config and its seeds, in ledger order."""
    shipped = load_config(ROOT / "configs" / "default.json")
    noisy_flow = {powder: {"flow_noise_sigma": 0.3}
                  for powder in shipped.powders}
    noisy_balance = dataclasses.replace(shipped.balance, noise_sigma=0.5)
    return {
        "shipped, seeds 1-10": (shipped, range(1, 11)),
        "shipped, seeds 11-60": (shipped, range(11, 61)),
        "sigma_b 0.5, seeds 21-60": (
            dataclasses.replace(shipped, balance=noisy_balance),
            range(21, 61)),
        "flow 0.3, seeds 11-60": (
            dataclasses.replace(shipped, powder_overrides=noisy_flow),
            range(11, 61)),
    }


def outcome_row(records: list) -> dict:
    """The ledger row of a list of TrialRecords."""
    errors = [sum(step.true_delta_mg for step in record.steps)
              - record.target_mg for record in records]
    within = [abs(error) <= 2.0 for error in errors]
    return {
        "trials": len(records),
        "within_2_mg": sum(within),
        "within_1_mg": sum(abs(error) <= 1.0 for error in errors),
        "past_20_mg": sum(abs(error) > 20.0 for error in errors),
        "worst_abs_error_mg": repr(max(map(abs, errors))),
        "median_signed_error_mg": repr(statistics.median(errors)),
        "steps": sum(record.total_steps for record in records),
        "sim_time_s": repr(sum(record.total_sim_time_s
                               for record in records)),
        "success_outside_2_mg": sum(
            not hit and record.status is TrialStatus.SUCCESS
            for record, hit in zip(records, within)),
    }


def profile_rows(config: ExperimentConfig, seeds: range) -> dict:
    """A profile's rows: "all", then one per powder in the config's order."""
    records = [record for seed in seeds
               for record in run_suite(dataclasses.replace(config, seed=seed),
                                       write_artifacts=False).trials]
    rows = {"all": outcome_row(records)}
    for powder in config.powders:
        rows[powder] = outcome_row([record for record in records
                                    if record.powder == powder])
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help=f"rewrite {LEDGER.name} instead of printing")
    write = parser.parse_args().write
    text = json.dumps({name: profile_rows(config, seeds)
                       for name, (config, seeds) in profiles().items()},
                      indent=2) + "\n"
    if write:
        LEDGER.write_text(text)
    else:
        print(text, end="")


if __name__ == "__main__":
    main()
