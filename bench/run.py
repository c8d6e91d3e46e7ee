"""hardylogic benchmark: four workloads, end-to-end metrics, a layer-traced run.

Run from the root of a source checkout; the package is imported from
./src, so nothing needs installing:

    python3 bench/run.py --workload eval_reuse --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all                  # every workload, one process

Workloads: cli_walkthrough, hardy_search, eval_reuse, audit_churn (see
bench/hlbench/workloads.py for what each stresses and why).  With
--trace 0 the last line of output is a JSON object holding the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
traced run, whose spans are written to .bench_run/trace-<workload>.csv.
Every op is checked against an independent reference; mismatches are
printed and counted in `failed`.  Times are scaled to a reference
machine speed by a calibration computation timed between ops (see
bench/hlbench/measure.py); the raw wall-clock figures are printed too.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"

from hlbench.measure import Run, import_package  # noqa: E402
from hlbench.workloads import WORKLOADS, CliWalkthrough  # noqa: E402


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _bootstrap() -> None:
    """Import the package from this checkout's src, and from nowhere else."""
    if not (SRC / "hardylogic" / "__init__.py").is_file():
        _fail(f"no package source at {SRC / 'hardylogic'}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    hl = import_package()
    if Path(hl.cli.__file__).resolve().parent.parent != SRC:
        _fail(f"hardylogic imported from {hl.cli.__file__}, not from {SRC}")


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_one(name: str, seed: int, seconds: float, trace: bool) -> tuple[Run, dict]:
    workdir = RUN_DIR / f"{name}-{os.getpid()}"
    if name == "cli_walkthrough":
        workload = CliWalkthrough(seed, workdir, SRC)
    else:
        workload = WORKLOADS[name](seed)
    print(f"== {name}  seed {seed}  seconds {seconds:g}  trace {int(trace)}")
    print(f"   why: {workload.why}")
    for key, value in workload.properties().items():
        print(f"   inputs.{key}: {_fmt(value) if not isinstance(value, list) else value}")
    run = Run(workload, seconds, trace)
    try:
        run.execute()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    e2e = run.end_to_end()
    print(
        f"   {run.passes} timed passes + 1 warm-up; {run.attempted} ops checked, "
        f"{run.failed} failed; first timed op {run.first_op_s:.3f} s after start"
    )
    for line in run.mismatches:
        print(f"   MISMATCH {line}")
    if run.failed > len(run.mismatches):
        print(f"   ... {run.failed - len(run.mismatches)} more mismatches not shown")
    raw_ops = statistics.median(run.throughput[False])
    notes = {
        "setup_s": f"median of {len(run.setup_times)} set-ups; "
        f"raw {statistics.median(run.raw_setup_times):.6g}",
        "ops_per_s": f"inputs / sum of their times; raw median of "
        f"{len(run.throughput[False])} passes {raw_ops:.6g}",
        "op_ms.p50": f"over {len(run.samples[False][0])} inputs, each the median of "
        f"{len(run.samples[False])} passes",
        "op_ms.tail": f"p{run.tail_pct:g} of {len(run.tail_samples())} samples",
        "peak_rss_mb": "child processes" if workload.in_children else "this process",
    }
    rows = dict(e2e)
    rows["fail_ratio"] = (run.failed / run.attempted, "1")
    notes["fail_ratio"] = f"{run.failed} of {run.attempted}"
    for metric, (value, unit) in rows.items():
        print(f"   {metric:<12} {_fmt(value):>12} {unit:<4} ({notes[metric]})")
    if not trace:
        return run, e2e

    layers = run.per_layer()
    path = RUN_DIR / f"trace-{name}.csv"
    run.tracer.write_csv(path)
    print(f"   traced: {len(run.tracer.name)} spans written to {path.relative_to(ROOT)}")
    for metric, (value, unit) in layers.items():
        print(f"   {metric:<40} {_fmt(value):>12} {unit}")
    if isinstance(workload, CliWalkthrough):
        print("   start-up split per command:")
        for row in workload.split_rows():
            print(f"   {row}")
    return run, layers


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _bootstrap()
    RUN_DIR.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    t0 = time.perf_counter()
    for name in names:
        run, values = run_one(name, args.seed, args.seconds, bool(args.trace))
        attempted += run.attempted
        failed += run.failed
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + m: {"value": v, "unit": u} for m, (v, u) in values.items()})
    if len(names) > 1:
        elapsed = time.perf_counter() - t0
        print(f"== all workloads in {elapsed:.1f} s; peak RSS is the process peak so far")
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
