"""Record the golden outputs the benchmark's output checks compare against.

    python3 perfbench/record_golden.py [--seeds 0 1 ...]

Runs one untraced repetition of every workload per seed and writes the
final records, CSV digests and rate-fit slopes to ``perfbench/golden.json``.
Record only at a commit whose outputs are known good: the file is the
reference that later changes are checked against.  A repetition that fails
a check is not recorded, and an existing ``golden.json`` is checked against
too, so delete it first to record afresh.
"""

from __future__ import annotations

import argparse
import json
import sys

import checks
import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(10)))
    args = parser.parse_args()
    golden: dict[str, dict] = {}
    for workload in run.WORKLOADS:
        for seed in args.seeds:
            rep = run.run_rep(workload, seed, traced=False, index=0, budget_s=run.RUN_LIMIT_S)
            if "error" in rep or rep["failures"]:
                print(f"{workload} seed {seed}: not recorded: {rep['failures']}", file=sys.stderr)
                return 1
            golden.setdefault(workload, {})[str(seed)] = rep["golden"]
            print(f"{workload} seed {seed}: recorded {len(rep['golden']['traces'])} traces")
    checks.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
