"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/repeat.py --workloads toy-1q,encoder-1q,wide-12q \
        --seeds 1-10 --seconds 35 --trace 0 --out results.json

Runs one seed at a time (never in parallel, which would skew the times)
and records, per workload and metric, every value with its median, the
quartiles from statistics.quantiles(n=4) and the spread (Q3 - Q1) /
median, and whether every run gave the same value: repeat one seed in
a traced run (`--seeds 3,3 --trace 1`) and every count must be identical.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).with_name("run.py")


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    context = next((json.loads(line[len("context "):]) for line in lines
                    if line.startswith("context ")), None)
    return {"seed": seed, "context": context, **json.loads(lines[-1])}


def summarize(runs: list[dict]) -> dict:
    metrics: dict[str, dict] = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        entry = {"unit": runs[0]["metrics"][name]["unit"], "values": values,
                 "median": median, "identical": len(set(values)) == 1}
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry.update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else None)
        metrics[name] = entry
    return {
        "seeds": [r["seed"] for r in runs],
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "context": runs[0]["context"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True, help="comma-separated workload names")
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,3")
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the summary JSON here")
    args = parser.parse_args(argv)

    summary = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            runs.append(run_once(workload, seed, args.seconds, args.trace))
            print(f"{workload} seed {seed}: correct={runs[-1]['correct']}", file=sys.stderr)
        summary[workload] = summarize(runs)
        print(f"{workload}: {len(runs)} runs, failed ops {summary[workload]['failed']}")
        for name, m in summary[workload]["metrics"].items():
            spread = m.get("spread")
            spread_text = f"{spread:.3f}" if spread is not None else "-"
            print(f"  {name:<44} median {m['median']:>14.6g} {m['unit']:<6} spread {spread_text}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0 if all(s["correct"] for s in summary.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
