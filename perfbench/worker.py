"""One workload in one fresh process; ``run.py`` starts it.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

The last line of standard output is a JSON record of the raw measurements.
Untraced: passes repeat while one more pass (at its median time so far,
calibration included) still fits in ``--seconds``; there is always at
least one.  The calibration loop of ``calibrate.py`` runs after the set-up
and between passes, so that every timing comes with the host's speed at
that moment.  Traced: two untraced passes, then two passes with every public
layer function wrapped (see ``tracer.py``): the first times the spans, the
second adds ``tracemalloc`` for the memory peaks, whose cost would distort
the times.  The spans are written next to the record.  Every pass output is
compared with the reference recorded for the seed; for a seed without a
reference the passes must at least agree with each other.
"""
import time

_T0 = time.perf_counter()   # set-up time counts from here: imports included

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402

SETUP_LOOPS = 5   # calibration loops timed after the set-up; their median scales it
GAP_LOOPS = 4     # calibration loops timed between two passes
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

# Warnings the library emits for skipped and failed work, counted from outside.
WARNING_COUNTS = {
    "harness.cv.folds_skipped": re.compile(r"^fold \d+: .*fold skipped$"),
    "harness.cv.folds_failed": re.compile(r"^fold \d+ failed for "),
    "solver.fit.eps_fallbacks": re.compile(r"falling back to epsilon"),
}


def environment() -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": len(os.sched_getaffinity(0)),
            "threads": {v: os.environ.get(v) for v in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def run_counted(workload, inputs):
    """One pass, with the library's warnings turned into counts."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        result = workload.run_pass(inputs)
        elapsed = time.perf_counter() - start
    counts = dict.fromkeys(WARNING_COUNTS, 0)
    for w in caught:
        msg = str(w.message)
        key = next((k for k, rx in WARNING_COUNTS.items() if rx.search(msg)),
                   "other_warnings")
        counts[key] = counts.get(key, 0) + 1
    return result, elapsed, counts


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out", help="where the traced run writes its spans")
    args = ap.parse_args()

    import ssdr
    if os.path.dirname(os.path.abspath(ssdr.__file__)) != os.path.join(SRC, "ssdr"):
        sys.exit(f"ssdr was imported from {ssdr.__file__}, not from {SRC}")
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    inputs = workload.setup(args.seed)
    setup_s = time.perf_counter() - _T0
    from calibrate import Calibrator
    calibrator = Calibrator()
    setup_loop_s = statistics.median(calibrator.time() for _ in range(SETUP_LOOPS))
    timings = {"setup_s": setup_s, "setup_loop_s": setup_loop_s,
             "setup_scaled_s": calibrator.scale(setup_s, setup_loop_s)}
    if args.setup_only:
        print(json.dumps(timings))
        return 0

    with open(os.path.join(HERE, "refs", f"{args.workload}.json")) as fh:
        reference = json.load(fh).get(str(args.seed))

    counts = dict.fromkeys(("realizations", "realizations_failed", "fold_evals",
                            "checks", "mismatches", *WARNING_COUNTS), 0)
    pass_s, outputs, accuracies = [], [], []

    def record(result, elapsed, warned):
        for key, count in warned.items():
            counts[key] = counts.get(key, 0) + count
        pass_s.append(elapsed)
        accuracies.append(result.accuracy)
        counts["realizations"] += result.realizations
        counts["realizations_failed"] += result.realizations_failed
        counts["fold_evals"] += result.fold_evals
        counts["checks"] += 1
        expected = reference if reference is not None else (outputs or [result.text])[0]
        if result.text != expected:
            counts["mismatches"] += 1
            print(f"output mismatch on {args.workload} seed {args.seed}:\n"
                  f"expected:\n{expected}got:\n{result.text}", file=sys.stderr)
        outputs.append(result.text)

    layers = {}
    if args.trace:
        from tracer import Tracer
        for _ in range(2):   # the first warms up; the second is the untraced time
            record(*run_counted(workload, inputs))
        runs = []
        for memory in (False, True):
            tracer = Tracer(memory=memory)
            tracer.install()
            try:
                result, elapsed, warned = run_counted(workload, workload.setup(args.seed))
            finally:
                tracer.uninstall()
            record(result, elapsed, warned)
            runs.append((tracer, elapsed))
        (timed, traced_s), (with_memory, _) = runs
        layers = timed.layer_metrics()
        layers.update((k, v) for k, v in with_memory.layer_metrics().items()
                      if k.endswith(".peak_n2"))
        layers.update(warned)
        layers["harness.realizations_failed"] = result.realizations_failed
        layers["trace.wall_s"] = traced_s
        layers["trace.overhead_s"] = traced_s - pass_s[1]
        if args.spans_out:
            timed.write_spans(args.spans_out, peaks_from=with_memory)
    else:
        # A pass is scaled by the median loop time of the gaps before and after it.
        gaps, cycle_s = [[calibrator.time() for _ in range(GAP_LOOPS)]], []
        start = time.perf_counter()
        while not pass_s or (time.perf_counter() - start
                             + statistics.median(cycle_s) <= args.seconds):
            cycle_start = time.perf_counter()
            record(*run_counted(workload, inputs))
            gaps.append([calibrator.time() for _ in range(GAP_LOOPS)])
            cycle_s.append(time.perf_counter() - cycle_start)
        timings["loop_s"] = gaps
        timings["pass_scaled_s"] = [
            calibrator.scale(t, statistics.median(a + b), workload.speed_exponent)
            for t, a, b in zip(pass_s, gaps, gaps[1:])]

    failed = (counts["realizations_failed"] + counts["harness.cv.folds_skipped"]
              + counts["harness.cv.folds_failed"] + counts["mismatches"])
    attempted = counts["realizations"] + counts["fold_evals"] + counts["checks"]
    print(json.dumps({
        **timings, "pass_s": pass_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "accuracy": statistics.mean(accuracies), "attempted": attempted,
        "failed": failed, "correct": counts["mismatches"] == 0,
        "reference": reference is not None, "counts": counts, "layers": layers,
        "environment": environment()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
