"""End-to-end hindsight-logging benchmark: one workload per invocation.

Run from the repository root::

    python3 perfbench/run.py --workload pretrain-dense --seed 1 --seconds 45 --trace 0

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs the same
workload twice with a fixed amount of work, untraced and then with the
per-layer ledger installed, and prints the per-layer metrics, each
phase's unattributed time and the tracing overhead (traced minus untraced).

Report lines go to stdout first; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every answer matched a vanilla execution of its probe script, 1 when
one did not, and 2 when the benchmark could not run at all.  All scratch
files live under ``.perfbench_work/`` in the repository root and are
removed at exit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("pretrain-dense", "finetune-restore",
                  "serve-while-recording")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the untraced run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark under {src}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=work))
    # Keep every file the program or its children write inside the checkout.
    for name in ("TMPDIR", "SQLITE_TMPDIR"):
        os.environ[name] = str(scratch)
    tempfile.tempdir = str(scratch)
    os.environ["FLOR_HOME"] = str(scratch / "default-home")
    sys.path[:0] = [str(src), str(HERE)]
    try:
        return run(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            work.rmdir()
        except OSError:
            pass  # another run still uses it


def run(args: argparse.Namespace, scratch: Path) -> int:
    start = time.monotonic()
    import repro
    import_seconds = time.monotonic() - start
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported repro from {repro.__file__}, not from the "
              "checkout", file=sys.stderr)
        return 2

    import workflow
    from ledger import Ledger

    workflow.become_subreaper()
    common = dict(root=ROOT, work=scratch, workload=args.workload,
                  seed=args.seed, seconds=args.seconds,
                  import_seconds=import_seconds)
    if args.trace:
        untraced = workflow.run_pass(**common, fixed=True, setup_reps=2)
        ledger = Ledger(scratch / "spans").install()
        try:
            traced = workflow.run_pass(**common, fixed=True, setup_reps=1,
                                       ledger=ledger)
        finally:
            ledger.uninstall()
        metrics = workflow.per_layer(traced, untraced, ledger)
        benches = [untraced, traced]
        for name in ledger.missing:
            print(f"missing boundary: {name} (its metrics read 0)")
    else:
        bench = workflow.run_pass(**common, fixed=False, setup_reps=3)
        values = workflow.end_to_end(bench)
        metrics = {name: (values[name], unit)
                   for name, unit in workflow.E2E_UNITS.items()}
        benches = [bench]
        report_end_to_end(bench, values, workflow.E2E_REPORTED,
                          workflow.PAPER_EPSILON)

    attempted = sum(bench.tally.attempted for bench in benches)
    failed = sum(len(bench.tally.failed_ops) for bench in benches)
    wrong = sum(bench.tally.wrong for bench in benches)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"failed_ops = {failed}/{attempted}"
          f" = {failed / max(1, attempted):.4f}")
    for bench in benches:
        for failure in bench.tally.failures:
            print(f"failed: {failure}")
    print("environment: " + json.dumps({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "config": workflow.describe_config(benches[-1].config_used)}))

    correct = wrong == 0 and all(math.isfinite(value)
                                 for value, _unit in metrics.values())
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value if math.isfinite(value) else 0.0,
                           "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


def report_end_to_end(bench, values: dict[str, float],
                      reported: dict[str, str], epsilon: float) -> None:
    """Sample counts, the unbounded service figures, the vanilla baseline
    and the ε check, as report lines."""
    for name, samples in sorted(bench.samples.items()):
        print(f"samples {name}: n={len(samples)}")
    for name, unit in reported.items():
        print(f"{name} = {values[name]:.6g} {unit} (reported, not bounded)")
    vanilla = bench.samples.get("vanilla_s") or [float("nan")]
    print(f"vanilla_s = {statistics.median(vanilla):.6g} s")
    overhead = values["record_vs_vanilla"] - 1.0
    verdict = "within" if overhead <= epsilon else "exceeds"
    print(f"record_overhead = {overhead:+.4f} ({verdict} the paper's "
          f"epsilon {epsilon:.4f}; reported, not a gate)")


if __name__ == "__main__":
    sys.exit(main())
