#!/usr/bin/env python
"""Paired A/B perfbench runs: the parent commit (HEAD) against the working tree.

Runs ``perfbench/run.py`` (untraced) on a temporary checkout of HEAD and
on the working tree, one seed per pair (seeds 1..N), alternating which
side runs first so drift in host speed lands on both sides alike.  For
every end-to-end metric ``BENCHMARK.json`` declares it reports:

* the median and IQR (as a share of the median) of each side;
* the median of the per-pair ratios (change / base);
* k/N wins: pairs where the change is better in the metric's direction;
* a verdict: ``unresolved`` when the base's IQR exceeds the metric's
  bound (the runs spread too widely to tell) and neither side's runs all
  beat the other's; else ``gain`` (at least 9/10 of the pairs won and the
  medians differ by more than the base's IQR), ``worse`` (the median
  moved against the metric by more than its bound) or ``flat``.

Usage, from the root of a checkout with the change uncommitted::

    python3 scripts/ab.py --workload actors-mobility --pairs 10 --seconds 40

The base checkout is extracted with ``git archive`` into a temporary
directory (``--workdir`` picks where) and removed on every way out,
interrupts included.  Nothing under ``perfbench/`` is modified: each side
runs its own copy of the harness against its own sources.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

#: The share of won pairs a ``gain`` verdict needs.
GAIN_WINS = 0.9


def _declared() -> "tuple[list[str], list[dict]]":
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [w["name"] for w in spec["workloads"]], spec["end_to_end"]


def _extract(into: Path) -> Path:
    """The committed tree of HEAD, unpacked under *into*."""
    out = into / "base"
    out.mkdir()
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", "HEAD"],
        check=True,
        capture_output=True,
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(out)], input=archive, check=True)
    return out


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run; its closing JSON line as a dict."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout,
        env=env,
        capture_output=True,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"perfbench failed in {checkout} ({workload}, seed {seed}): {proc.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def _spread(values: "list[float]") -> "tuple[float, float]":
    """Median and IQR as a share of the median."""
    med = float(np.median(values))
    q1, q3 = np.percentile(values, [25, 75])
    return med, float((q3 - q1) / abs(med)) if med else float("inf")


def summarize(base_runs: "list[dict]", head_runs: "list[dict]", declared: "list[dict]") -> dict:
    """Per-metric medians, IQRs, ratio, wins and verdict over paired runs."""
    out = {}
    for metric in declared:
        name, higher = metric["name"], metric["better"] == "higher"
        pairs = [
            (b["metrics"][name]["value"], h["metrics"][name]["value"])
            for b, h in zip(base_runs, head_runs)
            if name in b["metrics"] and name in h["metrics"]
        ]
        if not pairs:
            continue
        base, head = [b for b, _ in pairs], [h for _, h in pairs]
        base_med, base_iqr = _spread(base)
        head_med, head_iqr = _spread(head)
        wins = sum((h > b) if higher else (h < b) for b, h in pairs)
        separated = min(head) > max(base) or max(head) < min(base)
        ratio = float(np.median([h / b for b, h in pairs if b])) if any(base) else float("nan")
        change = (head_med - base_med) / abs(base_med) if base_med else 0.0
        worse_by = -change if higher else change
        if base_iqr > metric["bound"] and not separated:
            verdict = "unresolved"
        elif wins >= GAIN_WINS * len(pairs) and -worse_by > base_iqr:
            verdict = "gain"
        elif worse_by > metric["bound"]:
            verdict = "worse"
        else:
            verdict = "flat"
        out[name] = {
            "base_median": base_med,
            "base_iqr_frac": base_iqr,
            "head_median": head_med,
            "head_iqr_frac": head_iqr,
            "median_ratio": ratio,
            "wins": wins,
            "pairs": len(pairs),
            "verdict": verdict,
        }
    return out


def _print(workload: str, table: dict, failed: "list[str]") -> None:
    print(f"\n{workload}")
    print(f"  {'metric':<14} {'base':>11} {'iqr':>6} {'change':>11} {'iqr':>6} "
          f"{'ratio':>7} {'wins':>6}  verdict")
    for name, row in table.items():
        print(
            f"  {name:<14} {row['base_median']:>11.4g} {row['base_iqr_frac']:>6.1%} "
            f"{row['head_median']:>11.4g} {row['head_iqr_frac']:>6.1%} "
            f"{row['median_ratio']:>7.3f} {row['wins']:>3}/{row['pairs']:<2}  {row['verdict']}"
        )
    for why in failed:
        print(f"  FAILED: {why}")


def _terminate(signum, _frame):
    raise SystemExit(128 + signum)  # unwind through the cleanup below


def main(argv=None) -> int:
    workloads, declared = _declared()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=workloads,
                        help="repeatable; default: every workload in BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=10, help="pairs, seeds 1..N")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--workdir", help="where the base checkout is unpacked")
    args = parser.parse_args(argv)
    seeds = list(range(1, args.pairs + 1))

    signal.signal(signal.SIGTERM, _terminate)
    tmp = Path(tempfile.mkdtemp(prefix="ab-", dir=args.workdir))
    try:
        sides = {"base": _extract(tmp), "head": ROOT}
        failed_any = False
        for workload in args.workload or workloads:
            runs = {"base": [], "head": []}
            for i, seed in enumerate(seeds):
                order = ("base", "head") if i % 2 == 0 else ("head", "base")
                for side in order:
                    runs[side].append(_run(sides[side], workload, seed, args.seconds))
                print(f"{workload} seed {seed}: done ({'/'.join(order)})", flush=True)
            failed = [
                f"{side} seed {seed}: correct={r['correct']} failed={r['failed']}"
                for side in ("base", "head")
                for seed, r in zip(seeds, runs[side])
                if not r["correct"] or r["failed"]
            ]
            _print(workload, summarize(runs["base"], runs["head"], declared), failed)
            failed_any = failed_any or bool(failed)
        return 1 if failed_any else 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
