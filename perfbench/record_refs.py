"""Record the reference outputs that the benchmark's output check compares
against.

    python3 perfbench/record_refs.py --workload toy-cv --seeds 0-39

Run it from the repository root at the commit whose outputs are the
reference.  Each seed's canonical pass output is stored in
``perfbench/refs/<workload>.json``; existing seeds are overwritten, others
kept.  BLAS threads are pinned to one, as in the benchmark, because the
thread count can change floating-point rounding.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from workloads import WORKLOADS  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seeds", required=True, help="one seed or a range a-b")
    args = ap.parse_args()
    workload = WORKLOADS[args.workload]
    path = os.path.join(HERE, "refs", f"{args.workload}.json")
    refs = {}
    if os.path.exists(path):
        with open(path) as fh:
            refs = json.load(fh)
    for seed in parse_seeds(args.seeds):
        result = workload.run_pass(workload.setup(seed))
        refs[str(seed)] = result.text
        print(f"{args.workload} seed {seed}: accuracy {result.accuracy:.6f}",
              flush=True)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(dict(sorted(refs.items(), key=lambda kv: int(kv[0]))), fh,
                      indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
