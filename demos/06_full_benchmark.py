#!/usr/bin/env python3
# End-to-end benchmark: load a config file, run the whole suite, write
# the artifact tree, then rebuild the report from disk alone to show
# the artifacts are self-contained.

import sys
import tempfile
from pathlib import Path

from powderdose import build_report, config_from_dict, load_config, run_suite

HERE = Path(__file__).resolve().parent
CFG = HERE.parent / "configs" / "quick.json"

if CFG.exists():
    cfg = load_config(CFG)
    print(f"loaded {CFG}")
else:
    cfg = config_from_dict({"powder": "glass-beads", "targets_mg": [50, 500],
                            "trials": 3})
    print("configs/quick.json not found, using inline fallback")

with tempfile.TemporaryDirectory(prefix="powderdose-demo-") as tmp:
    out = Path(tmp)
    summary = run_suite(cfg, out_dir=out)

    print(f"\nran {len(summary.trials)} trials "
          f"({len(summary.conditions)} conditions) into {out}")
    for p in sorted(out.rglob("*")):
        if p.is_file():
            print(f"  {p.relative_to(out)}  ({p.stat().st_size} bytes)")

    for c in summary.conditions:
        print(f"\n{c.powder} / {c.controller} @ {c.target_mg:g} mg: "
              f"{c.successes}/{c.trials} in tolerance, "
              f"{c.dropped_mean_mg:.1f} mg mean, "
              f"{c.steps_mean:.1f} steps mean")

    for f in summary.pooled_fits:
        r2 = f"{f.r_squared:.4f}" if f.r_squared is not None else "n/a"
        print(f"pooled fit {f.powder}/{f.mode}: C' = {f.c_prime:.5f}, "
              f"R^2 = {r2}")

    # a fresh report built purely from the files on disk must agree
    report = build_report(out)
    if report.errors:
        print("report errors:", report.errors, file=sys.stderr)
        sys.exit(1)
    print(f"\nreport rebuilt from disk: {len(report.conditions)} conditions, "
          f"{len(report.fits)} pooled fits, written to {report.report_dir}")
