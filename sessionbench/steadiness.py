"""Steadiness report: run one workload k times and summarise each metric.

    python3 sessionbench/steadiness.py --workload demo_session --runs 10 --first-seed 1

Each run is a separate ``run.py`` process with its own seed. Per metric the
report gives the median, the quartiles (``statistics.quantiles(n=4)``), the
spread (quartile distance as a share of the median), the min/max ratio, the
metric's bound from ``BENCHMARK.json`` and whether the spread fits it. The
per-run details files (stamp, kernel brackets, work counts) stay in
``sessionbench/out/``; the report is written beside them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def summarise(values: list[float], bound: float | None) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else 0.0
    low, high = min(values), max(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": spread,
        "min_max": low / high if high else 1.0,
        "bound": bound,
        "fits": None if bound is None else spread <= bound,
        "fits_third": None if bound is None else spread <= bound / 3,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {metric["name"]: metric.get("bound") for metric in spec["end_to_end"] + spec["per_layer"]}
    seconds = str(spec["run_seconds"])
    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        out = subprocess.run(
            ["python3", str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", seconds, "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        if out.returncode != 0:
            print(out.stderr, file=sys.stderr)
            return out.returncode
        result = json.loads(out.stdout.strip().splitlines()[-1])
        details = json.loads((HERE / "out" / f"{args.workload}-seed{seed}-trace{args.trace}.json").read_text())
        results.append({"seed": seed, "work": details["work"], "k_run": details["k_run"], **result})
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}", flush=True)

    names = list(results[0]["metrics"])
    report = {
        "workload": args.workload,
        "seeds": [r["seed"] for r in results],
        "all_correct": all(r["correct"] for r in results),
        # fixed work: every seed must have run exactly the same operations
        "same_work": all(r["work"] == results[0]["work"] for r in results),
        "metrics": {
            name: summarise([r["metrics"][name]["value"] for r in results], bounds.get(name))
            for name in names
        },
        "runs": results,
    }
    print(f"{'metric':36} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'min/max':>8} {'bound':>6} fits")
    for name, row in report["metrics"].items():
        bound = "" if row["bound"] is None else f"{row['bound']:.2f}"
        fits = "" if row["fits"] is None else ("yes" if row["fits_third"] else ("within" if row["fits"] else "NO"))
        print(f"{name:36} {row['median']:12.4f} {row['q1']:12.4f} {row['q3']:12.4f} "
              f"{row['spread']:8.3f} {row['min_max']:8.3f} {bound:>6} {fits}")
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"steadiness-{args.workload}-trace{args.trace}-seeds{args.first_seed}-{args.first_seed + args.runs - 1}.json"
    path.write_text(json.dumps(report, indent=1))
    print(f"same work on every seed: {report['same_work']}; all correct: {report['all_correct']}")
    print(f"report: {path.relative_to(ROOT)}")
    return 0 if report["all_correct"] and report["same_work"] else 1


if __name__ == "__main__":
    sys.exit(main())
