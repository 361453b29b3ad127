"""The ssdr benchmark.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the repository root.  Each workload runs in its own fresh process
with BLAS pinned to one thread.  With ``--trace 0`` it prints the end-to-end
metrics named in BENCHMARK.json, with ``--trace 1`` the per-layer metrics of
a traced pass.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the full record,
with the environment it ran in, goes to ``perfbench/results/``.  The exit
code is non-zero when an output differs from its reference or a workload
process fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 4     # extra fresh processes that only set up, for setup_s
DEADLINE_S = 170.0   # a workload run must end within 180 s


def run_worker(args: list, deadline: float) -> dict:
    """Run ``worker.py`` with pinned threads; return its last JSON line."""
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    timeout = max(deadline - time.monotonic(), 1.0)
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")] + args,
                          cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(raw: dict, setup_samples: list) -> dict:
    ops = raw["attempted"]
    return {"wall_s": statistics.median(raw["pass_scaled_s"]),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": raw["peak_rss_mb"],
            "accuracy": raw["accuracy"],
            "ok_frac": (ops - raw["failed"]) / ops}


def per_layer(layers: dict, names: list) -> dict:
    values = {}
    for name in names:
        if name in layers:
            values[name] = layers[name]
        elif name.endswith((".calls", ".self_s", ".peak_n2")):
            values[name] = 0   # the function is not called (or no longer exists)
        else:
            raise KeyError(f"the traced run did not produce {name}")
    return values


def run_workload(name: str, seed: int, seconds: float, trace: int, spec: dict) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{name}-seed{seed}-trace{trace}")
    argv = ["--workload", name, "--seed", str(seed)]
    raw = run_worker(argv + ["--seconds", str(seconds), "--trace", str(trace),
                             "--spans-out", stem + ".spans.jsonl"], deadline)
    if trace:
        values = per_layer(raw["layers"], [m["name"] for m in spec["per_layer"]])
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        setups = [raw["setup_scaled_s"]] + [
            run_worker(argv + ["--setup-only"], deadline)["setup_scaled_s"]
            for _ in range(SETUP_PROBES)]
        raw["setup_samples"] = setups
        values = end_to_end(raw, setups)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    result = {"correct": raw["correct"], "attempted": raw["attempted"],
              "failed": raw["failed"],
              "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}}
    with open(stem + ".json", "w") as fh:
        json.dump({"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
                   "result": result, "raw": raw}, fh, indent=1)
    print(f"{name}\tenvironment\t{json.dumps(raw['environment'])}")
    if not raw["reference"]:
        print(f"{name}: no reference recorded for seed {seed}; "
              "checked that the passes agree", file=sys.stderr)
    return result


def main() -> int:
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "ssdr", "__init__.py")) \
            or not os.path.isfile(spec_path):
        print(f"no ssdr source tree or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)
    workloads = tuple(w["name"] for w in spec["workloads"])

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    names = workloads if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace, spec)
        except (RuntimeError, subprocess.TimeoutExpired, KeyError) as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        for metric, v in results[name]["metrics"].items():
            print(f"{name}\t{metric}\t{v['value']:.6g}\t{v['unit']}")
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": v for w, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
