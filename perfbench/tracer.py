"""Outside-in tracer for the ssdr layers.

The library has no span timer of its own, so the benchmark wraps every
public function of the layer modules and rebinds the wrapper wherever the
original was imported by name (``solver`` imports costs functions, ``harness``
and ``kpca`` import ``fit`` and ``embed``, the package re-exports them).
Each call becomes a span with name, start, end and parent; spans stay in
memory and are written out when the traced pass ends.  With ``memory`` on,
``tracemalloc`` gives each span the peak of traced bytes above its starting
level; a child resets the peak counter only after folding the running peak
into its parent, so nesting never hides a parent's peak.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
import tracemalloc
from collections import defaultdict

import numpy as np

from ssdr import CostMatrix, Dataset

LAYERS = ("dataset", "costs", "solver", "kpca", "knn", "harness")


def public_functions(layer: str) -> dict:
    """Public functions defined (not merely imported) in ``ssdr.<layer>``."""
    mod = importlib.import_module(f"ssdr.{layer}")
    return {name: obj for name, obj in vars(mod).items()
            if not name.startswith("_") and inspect.isfunction(obj)
            and obj.__module__ == mod.__name__}


def _infer_n(args) -> int | None:
    """Number of examples a call works on, read from its first argument
    that carries it."""
    for i, a in enumerate(args):
        if isinstance(a, (Dataset, CostMatrix)):
            return a.n
        if isinstance(a, np.ndarray) and a.ndim in (1, 2):
            return a.shape[-1]
        if i == 0 and isinstance(a, int) and not isinstance(a, bool):
            return a
    return None


def _dense_square(out, n: int) -> int:
    """Dense n x n arrays in a return value (CostMatrix, array or tuple)."""
    if isinstance(out, tuple):
        return sum(_dense_square(o, n) for o in out)
    if isinstance(out, CostMatrix):
        out = out.entries
    return int(isinstance(out, np.ndarray) and out.shape == (n, n))


class Tracer:
    def __init__(self, memory: bool):
        self.memory = memory
        self.spans = []   # [name, start, end, parent, self_s, peak_bytes, n]
        self._stack = []  # per open span: [index, child_s, peak, base]
        self.dense_nxn_out = 0
        self.knn_queries = 0
        self._restore = []

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            for name, fn in public_functions(layer).items():
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for modname, mod in list(sys.modules.items()):
            if modname != "ssdr" and not modname.startswith("ssdr."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._restore.append((mod, attr, val))
        if self.memory:
            tracemalloc.start()

    def uninstall(self) -> None:
        if self.memory:
            tracemalloc.stop()
        for mod, attr, val in reversed(self._restore):
            setattr(mod, attr, val)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        is_cost = name.startswith("costs.")
        is_knn = name == "knn.knn_classify"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            n = _infer_n(args)
            self._enter(name, n)
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                self._exit()
                if is_cost and n is not None:
                    self.dense_nxn_out += _dense_square(out, n)
                if is_knn:
                    z = np.asarray(args[1])
                    self.knn_queries += 1 if z.ndim == 1 else z.shape[1]
        return traced

    # -- spans ------------------------------------------------------------
    def _enter(self, name: str, n) -> None:
        base = 0
        if self.memory:
            base, peak = tracemalloc.get_traced_memory()
            if self._stack:
                parent = self._stack[-1]
                parent[2] = max(parent[2], peak)
            tracemalloc.reset_peak()
        parent_idx = self._stack[-1][0] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent_idx, 0.0, 0, n])
        self._stack.append([len(self.spans) - 1, 0.0, base, base])
        self.spans[-1][1] = time.perf_counter()

    def _exit(self) -> None:
        end = time.perf_counter()
        idx, child_s, peak, base = self._stack.pop()
        span = self.spans[idx]
        dur = end - span[1]
        span[2] = end
        span[4] = dur - child_s
        if self._stack:
            self._stack[-1][1] += dur
        if self.memory:
            peak = max(peak, tracemalloc.get_traced_memory()[1])
            span[5] = peak - base
            if self._stack:
                self._stack[-1][2] = max(self._stack[-1][2], peak)

    # -- results ----------------------------------------------------------
    def layer_metrics(self) -> dict:
        """``<layer>.<function>.calls`` / ``.self_s`` / ``.peak_n2`` plus
        the counts taken at the layer boundaries."""
        calls, self_s, peak_n2 = defaultdict(int), defaultdict(float), defaultdict(float)
        cv_evals = 0
        for name, _, _, parent, s, peak, n in self.spans:
            calls[name] += 1
            self_s[name] += s
            if n:
                peak_n2[name] = max(peak_n2[name], peak / (8.0 * n * n))
            if name == "knn.knn_classify":
                while parent >= 0 and self.spans[parent][0] != "harness.cross_validate":
                    parent = self.spans[parent][3]
                cv_evals += parent >= 0
        out = {"costs.dense_nxn_out": self.dense_nxn_out,
               "knn.queries": self.knn_queries,
               "harness.cv.evals": cv_evals}
        for name in calls:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
            if self.memory:
                out[f"{name}.peak_n2"] = peak_n2[name]
        return out

    def write_spans(self, path, peaks_from: "Tracer | None" = None) -> None:
        """One JSON line per span.  ``peaks_from`` is a memory-traced run of
        the same pass; its peaks are copied when the two call sequences
        match span for span."""
        peaks = [s[5] for s in self.spans]
        if peaks_from is not None and \
                [s[0] for s in peaks_from.spans] == [s[0] for s in self.spans]:
            peaks = [s[5] for s in peaks_from.spans]
        with open(path, "w") as fh:
            for i, (name, start, end, parent, s, _, n) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "self_s": s,
                                     "peak_bytes": peaks[i], "n": n}) + "\n")
