"""Benchmark of the powderdose package, end to end and layer by layer.

Run from the root of a powderdose checkout:

    python3 benchmarks/run.py --workload paper-suite --seed 7 \
        --seconds 10 --trace 0

Workloads are defined in workloads.py. With --trace 0 nothing is wrapped
and the end-to-end metrics are measured; with --trace 1 the workload runs
alternately bare and wrapped by tracing.py, and the per-layer metrics are
reported together with the tracing overhead.

Readable lines come first on standard output; the last line is one JSON
object {"correct", "attempted", "failed", "metrics"}. A fuller record
(environment, samples, outcome digest) goes to
benchmarks/results/<workload>-seed<seed>-trace<t>.json and the traced
run's spans to benchmarks/results/spans-<workload>.csv.gz.

Exit status: 0 when every output check passed, 1 when one failed or the
workload could not run, 2 when the package source is not there.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from tracing import LAYER_METRICS, Tracer
from workloads import (WORKLOADS, run_pass, timed_report,
                       write_report_artifacts)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"

# End-to-end metrics and their units. Host times are wall time of this
# process; simulated ones are what the modelled rig would take.
END_TO_END = (
    ("setup_s", "s"),
    ("suite_s", "s"),
    ("us_per_step", "us/step"),
    ("report_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "share"),
    ("steps_per_trial", "steps"),
    ("sim_s_per_trial", "sim_s"),
)
LAYER_UNITS = {name: unit for name, unit, _, _ in LAYER_METRICS}
LAYER_EXACT = {name for name, _, _, exact in LAYER_METRICS if exact}

SETUP_EVERY = 3      # timed passes per set-up timed in a fresh process
MIN_SETUPS = 5
MIN_PASSES = 3       # timed passes, however short --seconds is
MIN_TRACED_PAIRS = 2


class Tally:
    """Operations attempted and failed, with what went wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.problems: list[str] = []  # one per failed operation

    @property
    def failed(self) -> int:
        return len(self.problems)

    def add(self, attempted: int, problems: list[str]) -> None:
        self.attempted += attempted
        self.problems.extend(problems)

    def exception(self, what: str) -> None:
        self.add(1, [f"{what} raised:\n{traceback.format_exc()}"])


def set_up(workload, seed: int) -> dict:
    """What a user pays before the first suite: import, config, one trial."""
    start = perf_counter()
    import powderdose
    import powderdose.cli  # noqa: F401  (artifact-roundtrip drives it)
    imported = perf_counter()
    powderdose.config_from_dict(workload.config_dict(seed))
    configured = perf_counter()
    powderdose.run_suite(
        powderdose.config_from_dict(workload.warmup_dict(seed)),
        write_artifacts=False)
    done = perf_counter()
    source = Path(powderdose.__file__).resolve()
    if not source.is_relative_to(SRC):
        raise RuntimeError(f"imported powderdose from {source}, not {SRC}")
    return {"import_s": imported - start, "config_s": configured - imported,
            "warmup_s": done - configured, "setup_s": done - start}


def setup_in_child(workload, seed: int) -> dict:
    """set_up timed in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-child",
         "--workload", workload.name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"setup process failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def timed_run(workload, seed: int, seconds: float, work_dir: Path,
              tally: Tally) -> dict:
    from calibration import REFERENCE_KERNEL_S, kernel_seconds
    set_up(workload, seed)
    kernel_seconds()  # first call pays numpy's and Decimal's warm-up
    # Suite workloads write no artifacts in their timed pass; each pass is
    # followed by a timed `powderdose report` of artifacts written here.
    report_input = persisted = None
    if not workload.via_cli:
        report_input, persisted = write_report_artifacts(workload, seed,
                                                         work_dir)
    passes, digests, setup = [], [], []
    reference = None
    attempts = 0
    start = perf_counter()
    while attempts < MIN_PASSES or perf_counter() - start < seconds:
        # Set-ups are spread over the run, so that they see the same
        # spells of host load as the passes do.
        if attempts % SETUP_EVERY == 0:
            setup.append(setup_in_child(workload, seed))
        gc.collect()
        attempts += 1
        kernel_s = kernel_seconds()
        try:
            result = run_pass(workload, seed, work_dir)
            if report_input is not None:
                result.report_s, problems = timed_report(report_input)
                result.attempted += 1
                result.problems += problems
        except Exception:
            tally.exception(f"pass {attempts}")
            continue
        tally.add(result.attempted, result.problems)
        digests.append(result.outcome.digest)
        if reference is None:
            reference = result.outcome
        elif digests[-1] != reference.digest:
            tally.add(0, [f"pass {attempts}: outcome digest {digests[-1]} "
                          f"differs from the first pass's {reference.digest}"])
        passes.append({"kernel_s": kernel_s, "suite_s": result.suite_s,
                       "report_s": result.report_s})
    if reference is None:
        raise RuntimeError("no pass completed")
    while len(setup) < MIN_SETUPS:
        setup.append(setup_in_child(workload, seed))
    if persisted is not None and persisted.digest != reference.digest:
        tally.add(1, [f"summary.json digest {persisted.digest} differs from "
                      f"the in-memory suite's {reference.digest}"])

    def at_reference_speed(samples, key):
        return [s[key] * REFERENCE_KERNEL_S / s["kernel_s"] for s in samples]

    suite = at_reference_speed(passes, "suite_s")
    report = at_reference_speed(passes, "report_s")
    suite_s = statistics.median(suite)
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in setup),
        "suite_s": suite_s,
        "us_per_step": suite_s / reference.steps * 1e6,
        "report_s": statistics.median(report),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        **reference.simulated_metrics(),
    }
    return {
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in END_TO_END},
        "samples": {"setup": setup, "suite_s": suite, "report_s": report,
                    "passes": passes},
        "work": {"trials": len(reference.trials), "steps": reference.steps,
                 "passes": len(passes)},
        "digest": reference.digest,
        "digests_matching": sum(d == reference.digest for d in digests),
        "reference_kernel_s": REFERENCE_KERNEL_S,
    }


def traced_run(workload, seed: int, seconds: float, work_dir: Path,
               tally: Tally) -> dict:
    import powderdose
    set_up(workload, seed)
    tolerance = powderdose.config_from_dict(
        workload.config_dict(seed)).tolerance_mg
    bare, wrapped, per_pass = [], [], []
    reference = tracer = None
    attempts = 0
    start = perf_counter()
    while attempts < MIN_TRACED_PAIRS or perf_counter() - start < seconds:
        attempts += 1
        try:
            gc.collect()
            plain = run_pass(workload, seed, work_dir)
            gc.collect()
            pass_tracer = Tracer()
            pass_tracer.install()
            try:
                traced = run_pass(workload, seed, work_dir)
            finally:
                pass_tracer.uninstall()
        except Exception:
            tally.exception(f"pair {attempts}")
            continue
        tracer = pass_tracer
        tally.add(plain.attempted + traced.attempted,
                  plain.problems + traced.problems)
        if reference is None:
            reference = plain.outcome
        for label, result in (("bare", plain), ("traced", traced)):
            if result.outcome.digest != reference.digest:
                tally.add(0, [f"pair {attempts}: {label} outcome digest "
                              f"{result.outcome.digest} differs from "
                              f"{reference.digest}"])
        bare.append(plain.wall_s)
        wrapped.append(traced.wall_s)
        per_pass.append(tracer.metrics(traced.outcome, tolerance,
                                       traced.bytes_written))
    if reference is None:
        raise RuntimeError("no traced pair completed")
    metrics = {}
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        if name in LAYER_EXACT:
            if any(v != values[0] for v in values):
                tally.add(0, [f"{name} did not repeat: {values}"])
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    metrics["trace.overhead"] = (statistics.median(wrapped)
                                 / statistics.median(bare))
    RESULTS_DIR.mkdir(exist_ok=True)
    tracer.write_spans(RESULTS_DIR / f"spans-{workload.name}.csv.gz")
    return {
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in LAYER_UNITS.items()},
        "samples": {"bare_wall_s": bare, "traced_wall_s": wrapped},
        "work": {"trials": len(reference.trials), "steps": reference.steps,
                 "pairs": len(bare), "spans": len(tracer.spans)},
        "digest": reference.digest,
        # p90 is the highest percentile with >= 10 trials beyond it
        # while a pass runs 100 to 999 trials.
        "trial_ms": {"n": len(tracer.trial_ms()),
                     "p50": metrics["harness.trial_ms_p50"],
                     "p90": metrics["harness.trial_ms_p90"]},
        "absent_boundaries": tracer.absent,
        "unbound_locations": tracer.unbound,
        "hook_errors": tracer.hook_errors,
    }


def environment() -> dict:
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def print_summary(args, record: dict, tally: Tally) -> None:
    env = record["env"]
    print(f"powderdose benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} seconds={args.seconds}")
    print(f"env: python {env['python']}, numpy {env['numpy']}, "
          f"nproc {env['nproc']} ({env['cpus_usable']} usable), "
          f"commit {env['commit'][:12]}")
    work = record["work"]
    print("work: " + ", ".join(f"{k} {v}" for k, v in work.items()))
    samples = record["samples"]
    for name, entry in record["metrics"].items():
        line = f"  {name:<38} {entry['value']:<14.6g} {entry['unit']}"
        values = samples.get(name)
        if values:
            line += f"   median of n={len(values)}" + _spread(values)
        print(line)
    if "setup" in samples:
        parts = {k: statistics.median(s[k] for s in samples["setup"])
                 for k in ("import_s", "config_s", "warmup_s")}
        print("  setup_s parts (medians, n=%d): %s" % (
            len(samples["setup"]),
            ", ".join(f"{k} {v:.4f}" for k, v in parts.items())))
    if "passes" in samples:
        passes = samples["passes"]
        raw = {key: statistics.median(p[key] for p in passes)
               for key in ("suite_s", "report_s", "kernel_s")}
        print(f"  raw wall medians: suite {raw['suite_s']:.4f} s, report "
              f"{raw['report_s']:.4f} s; calibration kernel "
              f"{raw['kernel_s'] * 1e3:.2f} ms (reference "
              f"{record['reference_kernel_s'] * 1e3:.2f} ms)")
    if "trial_ms" in record:
        print(f"  trial ms: {record['trial_ms']}")
    if record.get("absent_boundaries"):
        print(f"  absent boundaries: {record['absent_boundaries']}")
    if record.get("hook_errors"):
        print(f"  counters left out by changed signatures: "
              f"{record['hook_errors']}")
    share = tally.failed / tally.attempted if tally.attempted else 0.0
    print(f"  {'failed_share':<38} {share:<14.6g} share   "
          f"({tally.failed} of {tally.attempted} operations)")
    print(f"outcome digest: {record['digest']}" + (
        f" ({record['digests_matching']} of {work['passes']} passes match)"
        if "digests_matching" in record else ""))
    for problem in tally.problems:
        print(f"problem: {problem}", file=sys.stderr)


def _spread(values: list[float]) -> str:
    if len(values) < 2:
        return ""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (f", q1 {q1:.6g}, q3 {q3:.6g}, min {min(values):.6g}, "
            f"max {max(values):.6g}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7,
                        help="workload seed, the config's seed (default 7)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long the timed passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 64:
        parser.error("--seed must be an unsigned 64-bit integer")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # One process and no extra threads: keep numpy's BLAS pool from starting.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "powderdose" / "__init__.py").is_file():
        print(f"benchmark: no package source at {SRC / 'powderdose'}; run it "
              f"from a powderdose checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    if args.setup_child:
        print(json.dumps(set_up(workload, args.seed)))
        return 0
    work_dir = BENCH_DIR / ".work" / f"{workload.name}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    tally = Tally()
    run = traced_run if args.trace else timed_run
    try:
        record = run(workload, args.seed, args.seconds, work_dir, tally)
    except Exception:
        traceback.print_exc()
        for problem in tally.problems:
            print(f"problem: {problem}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    record = {"workload": workload.name, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds,
              "env": environment(), **record,
              "correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "problems": tally.problems}
    print_summary(args, record, tally)
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / (f"{workload.name}-seed{args.seed}"
                          f"-trace{args.trace}.json")
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({key: record[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
