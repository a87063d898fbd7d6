#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

Run from the repository root::

    python3 perfbench/repeat.py --seeds 1-10 [--workloads fig-pair,clicks-1e6]
                                [--trace 0] [--out summary.json]

Each (workload, seed) pair is one ``perfbench/run.py`` process with the
``run_seconds`` of ``BENCHMARK.json``.  For every metric the summary
gives the median, the quartiles of ``statistics.quantiles(n=4)``, the
spread, (Q3 - Q1) / median, and the largest deviation of one run from the
median, as a share of the median; a spread above a third of the metric's
bound, or a deviation above the bound, is flagged.  With a single seed
the summary holds each metric's value only.  This is how the figures in
``perfbench/baseline.json`` and ``perfbench/baseline_layers.json`` were
made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarise(values: list[float]) -> dict:
    """Median, quartiles, spread and largest deviation of two or more values."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    share = (lambda x: x / median) if median else (lambda x: 0.0)
    return {"median": median, "q1": q1, "q3": q3, "spread": share(q3 - q1),
            "max_deviation": share(max(abs(v - median) for v in values)),
            "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary_of = summarise if len(args.seeds) > 1 else (lambda values: values[0])
    summary = {"facts": None, "workloads": {}}
    for workload in args.workloads.split(","):
        results, durations = [], []
        for seed in args.seeds:
            start = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            durations.append(time.monotonic() - start)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            lines = proc.stdout.splitlines()
            results.append(json.loads(lines[-1]))
            summary["facts"] = summary["facts"] or json.loads(lines[-2].split("facts: ", 1)[1])
        entry = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "run_seconds_taken": summary_of(durations),
            "metrics": {name: summary_of([r["metrics"][name]["value"] for r in results])
                        for name in results[0]["metrics"]},
        }
        summary["workloads"][workload] = entry
        print(f"{workload}: correct={entry['correct']} attempted={entry['attempted']} "
              f"failed={entry['failed']} seconds/run={max(durations):.1f} at most")
        for name, stats in entry["metrics"].items():
            if not isinstance(stats, dict):
                print(f"  {name:44s} {stats:12.6g}")
                continue
            bound = bounds.get(name)
            flags = [text for text, over in (
                ("spread above bound/3", bound and stats["spread"] > bound / 3),
                ("a run beyond the bound", bound and stats["max_deviation"] > bound)) if over]
            print(f"  {name:44s} median {stats['median']:12.6g}  "
                  f"spread {stats['spread']:7.2%}  max dev {stats['max_deviation']:7.2%}  "
                  f"bound {bound}{'  <-- ' + '; '.join(flags) if flags else ''}")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
