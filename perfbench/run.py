"""Serving benchmark: churn-tick latency and query throughput per backend.

Run from the root of a checkout::

    python3 perfbench/run.py --workload pool-nodechurn --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with the program untouched;
``--trace 1`` measures the per-layer metrics (an untraced reference pass,
then a traced pass over the same ticks).  Both print a summary and, as the
last stdout line, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  Full results (host, tuning, calibration score, layer self
times) and, for traced runs, a Chrome trace land in ``.perfbench_out/``.
Workloads are listed in ``perfbench/workloads.py`` and explained in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# Hermetic runs: drop every REPRO_* knob before the program is imported, so
# this process and every worker it starts run the program's defaults.
for _name in [k for k in os.environ if k.startswith("REPRO_")]:
    del os.environ[_name]

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: program sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import bench
    from workloads import SPECS

    spec = SPECS.get(args.workload)
    if spec is None:
        print(f"perfbench: unknown workload {args.workload!r} (want {sorted(SPECS)})", file=sys.stderr)
        return 2

    stem = f"{spec.name}-seed{args.seed}"
    OUT.mkdir(exist_ok=True)
    if args.trace:
        passes, metrics, tracer = bench.run_traced(spec, args.seed, args.seconds)
        tracer.write_chrome_trace(OUT / f"{stem}.trace.json")
        detail = {"layer_self_ms": tracer.self_ms(), "ticks": len(tracer.tick_walls)}
    else:
        p, metrics = bench.run_untraced(spec, args.seed, args.seconds)
        passes = (p,)
        detail = {"setup_runs_s": p.setup_s, "ticks": len(p.tick_s)}
    detail["episodes"] = passes[-1].episodes
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    failures = [why for p in passes for why in p.failures]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}

    doc = {"workload": spec.__dict__, "seed": args.seed, "host": bench.host_info(),
           "result": result, "failures": failures, **detail}
    (OUT / f"{stem}.{'layers' if args.trace else 'e2e'}.json").write_text(json.dumps(doc, indent=1))
    print(
        f"{spec.name} seed={args.seed} trace={args.trace} "
        f"episodes={detail['episodes']} ticks={detail['ticks']}"
    )
    for why in failures[:10]:
        print(f"  FAILED: {why}")
    for name, m in metrics.items():
        print(f"  {name:<34} {m['value']:>14.4f} {m['unit']}")
    print(json.dumps(result))
    return 0


def reap_children() -> None:
    """Stop and wait for every process this run started.

    Pool workers are joined by the backends' ``close``; this also covers a
    path out that skipped it.  The shared-memory resource tracker is a
    plain child that would otherwise outlive this process by a moment (it
    exits on EOF once we are gone), so it is stopped and waited for here —
    after the workers, which hold its pipe too.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
    for child in multiprocessing.active_children():
        child.join()
    resource_tracker._resource_tracker._stop()


if __name__ == "__main__":
    try:
        code = main()
    finally:
        reap_children()
    sys.exit(code)
