"""One cold start, in a fresh interpreter: ``import repro`` plus the world.

Run by ``run.py`` several times per run; prints one JSON line with the raw
seconds from before ``import repro`` to the first ready session, and the
reference kernel's time in this process (minimum of reps taken before the
import and after the build).

    python3 sessionbench/cold_start.py --workload demo_session --seed 1 --root DIR
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import refkernel  # noqa: E402  (imports nothing from repro)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--root", required=True)
    args = parser.parse_args()
    k_before = refkernel.measure()
    start = time.perf_counter()
    import workloads

    workload = workloads.make(args.workload, args.root)
    workload.build(args.seed)
    raw = time.perf_counter() - start
    k_after = refkernel.measure()
    workload.close()
    print(json.dumps({"raw_s": raw, "k": min(k_before, k_after)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
