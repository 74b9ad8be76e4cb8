"""Span tracing of ufmlab from outside the package, and the per-layer metrics.

`Tracer.install` wraps every public function of each layer module, under
every name a ufmlab module binds it to (so `from .core import ufm_loss` in
`descent` is wrapped too), plus NumPy's dense eigensolvers.  `remove` puts
the originals back.  A span is (function, start, end, parent span); spans
are kept in memory and summarised after each traced pass.

Two kinds of time come out of a pass:
- a layer's `self_s` is the time its spans cover minus the time of every
  traced call they make, summed over the layer's spans;
- a function's time (`<layer>.<fn>_self_s`, `cli.*_s`) is its spans' time
  minus the time of calls into other layers, so it includes the same-layer
  helpers it calls and may overlap another metric of the same layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("core", "descent", "nc_metrics", "closed_form", "spectral", "calibration", "cli")
# Dense eigensolvers, traced as layer "linalg" wherever ufmlab calls them.
EIGENSOLVERS = ("eigvalsh", "eigh")

# name -> (unit, kind); kind "count" values must repeat exactly for a seed.
PER_LAYER = {
    "core.loss_calls": ("count", "count"),
    "core.loss_self_s": ("s", "time"),
    "core.grad_calls": ("count", "count"),
    "core.grad_self_s": ("s", "time"),
    "core.softmax_calls": ("count", "count"),
    "core.softmax_self_s": ("s", "time"),
    "core.one_hot_calls": ("count", "count"),
    "core.self_s": ("s", "time"),
    "core.gflop_per_s": ("GFLOP/s", "time"),
    "descent.runs": ("count", "count"),
    "descent.iters": ("count", "count"),
    "descent.self_s": ("s", "time"),
    "descent.us_per_iter": ("us", "time"),
    "descent.converged_ratio": ("ratio", "count"),
    "descent.grad_per_iter": ("ratio", "count"),
    "nc_metrics.rows": ("count", "count"),
    "nc_metrics.class_statistics_calls": ("count", "count"),
    "nc_metrics.class_statistics_per_row": ("ratio", "count"),
    "nc_metrics.self_s": ("s", "time"),
    "nc_metrics.ms_per_row": ("ms", "time"),
    "closed_form.optimal_loss_calls": ("count", "count"),
    "closed_form.self_s": ("s", "time"),
    "spectral.assemble_calls": ("count", "count"),
    "spectral.assemble_per_check": ("ratio", "count"),
    "spectral.assemble_self_s": ("s", "time"),
    "spectral.eig_self_s": ("s", "time"),
    "spectral.compare_self_s": ("s", "time"),
    "spectral.self_s": ("s", "time"),
    "spectral.hessian_dim": ("count", "count"),
    "spectral.hessian_mb": ("MB", "count"),
    "calibration.nll_calls": ("count", "count"),
    "calibration.nll_self_s": ("s", "time"),
    "calibration.softmax_passes": ("ratio", "count"),
    "calibration.fit_self_s": ("s", "time"),
    "calibration.bins_self_s": ("s", "time"),
    "calibration.self_s": ("s", "time"),
    "cli.load_config_s": ("s", "time"),
    "cli.read_matrix_s": ("s", "time"),
    "cli.read_mb_per_s": ("MB/s", "time"),
    "cli.write_report_s": ("s", "time"),
    "cli.cmd_self_s": ("s", "time"),
    "cli.self_s": ("s", "time"),
    "trace.overhead_ratio": ("ratio", "time"),
}


def _cfg_size(args, kwargs) -> int:
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    return cfg.K * cfg.d * cfg.N


def _count_loss(counters, args, kwargs, result):
    counters["core.flop"] += 2 * _cfg_size(args, kwargs)  # logits W^T H


def _count_grad(counters, args, kwargs, result):
    counters["core.flop"] += 6 * _cfg_size(args, kwargs)  # logits, H dZ^T, W dZ


def _count_run(counters, args, kwargs, result):
    counters["descent.iters"] += result.rows[-1].iter
    counters["descent.converged"] += bool(result.converged)


def _count_read(counters, args, kwargs, result):
    counters["cli.read_bytes"] += os.path.getsize(args[0] if args else kwargs["path"])


def _count_hessian(counters, args, kwargs, result):
    counters["spectral.hessian_dim"] = max(counters["spectral.hessian_dim"], result.shape[0])


# Post-call hooks that count work from a call's arguments or result.
HOOKS = {
    "core.ufm_loss": _count_loss,
    "core.ufm_gradient": _count_grad,
    "descent.run": _count_run,
    "cli.read_matrix": _count_read,
    "spectral.numeric_hessian_classifier": _count_hessian,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self.spans: list = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._plan = self._patch_plan()

    def _wrap(self, fn, name: str):
        index = len(self.names)
        self.names.append(name)
        self.layers.append(name.split(".", 1)[0])
        spans, stack, counters, clock = self.spans, self._stack, self.counters, time.perf_counter
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            slot = len(spans)
            spans.append(None)
            stack.append(slot)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[slot] = (index, t0, t1, parent)
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        return traced

    def _patch_plan(self) -> list[tuple[object, str, object, object]]:
        """(namespace, attribute, original, wrapper) for every traced name."""
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"ufmlab.{layer}")
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[id(fn)] = (fn, self._wrap(fn, f"{layer}.{attr}"))
        plan = []
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "ufmlab" or mod_name.startswith("ufmlab."):
                for attr, value in vars(mod).items():
                    if id(value) in wrappers:
                        plan.append((mod, attr, *wrappers[id(value)]))
        for attr in EIGENSOLVERS:
            fn = getattr(np.linalg, attr)
            plan.append((np.linalg, attr, fn, self._wrap(fn, f"linalg.{attr}")))
        return plan

    def install(self):
        for obj, attr, _, wrapper in self._plan:
            setattr(obj, attr, wrapper)

    def remove(self):
        for obj, attr, original, _ in self._plan:
            setattr(obj, attr, original)

    def reset(self):
        self.spans.clear()
        self.counters.clear()

    def write_spans(self, path):
        """Write the current spans as CSV: index, name, start, end, parent index."""
        with open(path, "w") as fh:
            fh.write("span,name,start_s,end_s,parent\n")
            for i, (f, t0, t1, parent) in enumerate(self.spans):
                fh.write(f"{i},{self.names[f]},{t0:.9f},{t1:.9f},{parent}\n")

    def summarize(self) -> dict:
        """Per-pass counts and times from the spans recorded since `reset`."""
        spans, layers, names = self.spans, self.layers, self.names
        n = len(spans)
        child = [0.0] * n  # time of all traced children
        same = [0.0] * n   # function time of same-layer children
        count, fn_time, incl = Counter(), defaultdict(float), defaultdict(float)
        layer_self = defaultdict(float)
        # Children are appended after their parent, so walking backwards
        # finishes every child before its parent.
        for i in range(n - 1, -1, -1):
            f, t0, t1, parent = spans[i]
            dur = t1 - t0
            own = dur - child[i]
            local = own + same[i]
            name, layer = names[f], layers[f]
            count[name] += 1
            incl[name] += dur
            fn_time[name] += local
            layer_self[layer] += own
            if parent >= 0:
                child[parent] += dur
                if layers[spans[parent][0]] == layer:
                    same[parent] += local
        # Softmax passes made on behalf of the calibration layer.
        under_cal = [False] * n
        for i, (f, _, _, parent) in enumerate(spans):
            if parent >= 0:
                under_cal[i] = under_cal[parent] or layers[spans[parent][0]] == "calibration"
            if under_cal[i] and names[f] == "core.softmax_cols":
                count["calibration.softmax_cols"] += 1
        return {"count": count, "fn_time": fn_time, "incl": incl,
                "layer_self": layer_self, "counters": Counter(self.counters)}

    def layer_metrics(self) -> dict:
        return layer_metrics(self.summarize())


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(s: dict) -> dict:
    """Per-layer metric values of one traced pass; 0 where a layer did no work."""
    c, t, incl, ls, k = s["count"], s["fn_time"], s["incl"], s["layer_self"], s["counters"]
    iters, rows = k["descent.iters"], c["nc_metrics.nc1"]
    checks = c["spectral.compare_to_analytic"]
    assemble = c["spectral.numeric_hessian_classifier"] + c["spectral.numeric_hessian_features"]
    loss_grad_s = t["core.ufm_loss"] + t["core.ufm_gradient"]
    cmd_s = sum(v for name, v in t.items() if name.startswith("cli.cmd_"))
    dim = k["spectral.hessian_dim"]
    return {
        "core.loss_calls": c["core.ufm_loss"],
        "core.loss_self_s": t["core.ufm_loss"],
        "core.grad_calls": c["core.ufm_gradient"],
        "core.grad_self_s": t["core.ufm_gradient"],
        "core.softmax_calls": c["core.softmax_cols"],
        "core.softmax_self_s": t["core.softmax_cols"],
        "core.one_hot_calls": c["core.one_hot_labels"],
        "core.self_s": ls["core"],
        # Computed from matrix sizes: only the products, not the elementwise work.
        "core.gflop_per_s": _ratio(k["core.flop"], loss_grad_s) / 1e9,
        "descent.runs": c["descent.run"],
        "descent.iters": iters,
        "descent.self_s": ls["descent"],
        "descent.us_per_iter": _ratio(incl["descent.run"], iters) * 1e6,
        "descent.converged_ratio": _ratio(k["descent.converged"], c["descent.run"]),
        "descent.grad_per_iter": _ratio(c["core.ufm_gradient"], iters),
        "nc_metrics.rows": rows,
        "nc_metrics.class_statistics_calls": c["nc_metrics.class_statistics"],
        "nc_metrics.class_statistics_per_row": _ratio(c["nc_metrics.class_statistics"], rows),
        "nc_metrics.self_s": ls["nc_metrics"],
        "nc_metrics.ms_per_row": _ratio(ls["nc_metrics"], rows) * 1e3,
        "closed_form.optimal_loss_calls": c["closed_form.optimal_loss"],
        "closed_form.self_s": ls["closed_form"],
        "spectral.assemble_calls": assemble,
        "spectral.assemble_per_check": _ratio(assemble, checks),
        "spectral.assemble_self_s": (t["spectral.numeric_hessian_classifier"]
                                     + t["spectral.numeric_hessian_features"]),
        "spectral.eig_self_s": sum(t[f"linalg.{e}"] for e in EIGENSOLVERS),
        "spectral.compare_self_s": t["spectral.compare_to_analytic"],
        "spectral.self_s": ls["spectral"],
        "spectral.hessian_dim": dim,
        "spectral.hessian_mb": dim * dim * 8 / 1e6,  # computed: dense float64
        "calibration.nll_calls": c["calibration.nll"],
        "calibration.nll_self_s": t["calibration.nll"],
        "calibration.softmax_passes": _ratio(c["calibration.softmax_cols"],
                                             c["calibration.calibration_report"]),
        "calibration.fit_self_s": t["calibration.fit_temperature"],
        "calibration.bins_self_s": (t["calibration.reliability_bins"]
                                    + t["calibration.ece_from_bins"]),
        "calibration.self_s": ls["calibration"],
        "cli.load_config_s": t["cli.load_config"],
        "cli.read_matrix_s": t["cli.read_matrix"],
        "cli.read_mb_per_s": _ratio(k["cli.read_bytes"], t["cli.read_matrix"]) / 1e6,
        "cli.write_report_s": t["cli.write_report"],
        "cli.cmd_self_s": cmd_s,
        "cli.self_s": ls["cli"],
    }
