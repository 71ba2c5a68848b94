"""Layer tracer: times calls into the library's public functions from outside.

Installing it replaces module attributes of `spatial_pricing` with timing
wrappers; the library's files are not touched.  A name imported into
another module (`eval_cost` into model_one, model_two, nash and ctransform;
`load_scenario` into cli) is replaced there too, and the `eval_batch` and
`feasible` callbacks that the solvers pass into the `_search` routines are
wrapped on the way in.

Every call becomes a span: instance id, name, layer, start, end, self time,
whether it is the outermost span of its layer, and a size.  Self time is
the duration minus the time covered by direct child spans, so a layer that
calls another (`assignment` calls `eval_cost`) is not charged for it.
Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import inspect
import json
import time
from pathlib import Path

import numpy as np

import spatial_pricing
from spatial_pricing import _search, cli, ctransform, geometry, model_one, model_two, nash, scenario

MODULES = (spatial_pricing, _search, cli, ctransform, geometry, model_one, model_two, nash, scenario)
SEARCHES = ("exhaustive_product", "coordinate_ascent")

# (rows, columns) of the cost slice each solver's batched objective scans;
# the eval_batch spans nested in the solver use it to count cells.
SOLVER_SHAPE = {
    "model_one.solve_general": lambda b: (b["region"].size, b["region"].size),
    "model_two.solve_w_search": lambda b: (b["ctx"].region.size, b["ctx"].free.size),
    "model_two.solve_boundary_control": lambda b: (b["ctx"].region.size, b["ctx"].free.size),
}
# work count of a span, from (args, result, rows, columns)
SIZES = {
    "geometry.eval_cost": lambda a, out, n, m: out.shape[0],
    "nash.best_response": lambda a, out, n, m: out.diagnostics["evaluations"],
    "nash.best_response_dynamics": lambda a, out, n, m: len(out.rounds),
}


def _layer(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


def _public_functions(module) -> list[str]:
    return [name for name in module.__all__ if inspect.isfunction(getattr(module, name))]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [layer, child_s, rows, columns] per open span
        self._instance = None
        self._taken = 0

    def _wrap(self, fn, name: str, layer: str, size=None, shape=None):
        """Wrapper recording each call of fn as a span."""
        tracer = self
        sig = inspect.signature(fn) if shape is not None else None

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            outer = all(frame[0] != layer for frame in stack)
            if sig is not None:
                n, m = shape(sig.bind(*args, **kwargs).arguments)
            else:
                n, m = (stack[-1][2], stack[-1][3]) if stack else (0, 0)
            frame = [layer, 0.0, n, m]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
            info = size(args, out, n, m) if size is not None else None
            tracer.spans.append((tracer._instance, name, layer, t0, t1, t1 - t0 - frame[1], outer, info))
            return out

        return wrapper

    def _wrap_search(self, fn, owner: str):
        """Wrap a `_search` routine as called from `owner`, and the callbacks passed into it."""
        sig = inspect.signature(fn)
        batch = self._wrap(lambda f, c: f(c), f"{owner}.eval_batch", f"{owner}.eval_batch",
                           size=lambda a, out, n, m: (len(a[1]), len(a[1]) * n * m))
        feas = self._wrap(lambda f, c: f(c), "_search.feasible", "_search.feasible",
                          size=lambda a, out, n, m: (len(a[1]), int(np.count_nonzero(out))))

        def search(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            eval_batch = bound.arguments["eval_batch"]
            bound.arguments["eval_batch"] = lambda c: batch(eval_batch, c)
            feasible = bound.arguments.get("feasible")
            if feasible is not None:
                bound.arguments["feasible"] = lambda c: feas(feasible, c)
            return fn(*bound.args, **bound.kwargs)

        return self._wrap(search, f"_search.{fn.__name__}", "_search")

    def install(self) -> None:
        """Replace the library's public functions by wrappers, everywhere they are bound."""
        targets = [(geometry, "eval_cost"), (scenario, "load_scenario"), (cli, "run")]
        targets += [(ctransform, k) for k, v in vars(ctransform).items() if k.endswith("_table") and inspect.isfunction(v)]
        targets += [(m, name) for m in (ctransform, model_one, model_two, nash) for name in _public_functions(m)]
        wrappers = {}
        for module, name in targets:
            key = f"{_layer(module)}.{name}"
            wrappers[id(getattr(module, name))] = self._wrap(
                getattr(module, name), key, _layer(module), size=SIZES.get(key), shape=SOLVER_SHAPE.get(key)
            )
        for module in MODULES:
            for name, value in list(vars(module).items()):
                if id(value) in wrappers:
                    setattr(module, name, wrappers[id(value)])
        for owner in (model_one, model_two):
            for name in SEARCHES:
                setattr(owner, name, self._wrap_search(getattr(_search, name), _layer(owner)))
        for cls, layer in ((model_two.PartitionContext, "model_two"), (nash.GameContext, "nash")):
            cls.build = classmethod(self._wrap(cls.build.__func__, f"{layer}.{cls.__name__}.build", layer))

    def begin_instance(self, instance_id: str) -> None:
        self._instance = instance_id

    def end_instance(self) -> None:
        self._instance = None

    def take_pass(self) -> dict:
        """Per-layer counters of the spans recorded since the last call."""
        spans = self.spans[self._taken:]
        self._taken = len(self.spans)
        return counters(spans)

    def write_spans(self, path: Path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as fh:
            for inst, name, layer, t0, t1, self_s, outer, info in self.spans:
                fh.write(json.dumps({"instance": inst, "name": name, "layer": layer, "start": t0, "end": t1,
                                     "self_s": self_s, "outermost": outer, "size": info}) + "\n")


def counters(spans: list[tuple]) -> dict:
    """Per-layer metrics of a list of spans (times in seconds, sizes as counted)."""
    c: dict = {}

    def add(key, value):
        c[key] = c.get(key, 0) + value

    for _inst, name, layer, t0, t1, self_s, outer, info in spans:
        # per name: every call; per layer: self time, and duration of outermost spans only
        add(("calls", name), 1)
        add(("dur", name), t1 - t0)
        add(("self", name), self_s)
        add(("layer_calls", layer), 1)
        add(("layer_self", layer), self_s)
        if outer:
            add(("layer_dur", layer), t1 - t0)
        if name == "geometry.eval_cost":
            add("eval_cost_mb", info * info * 8 / 2**20)
        elif layer.endswith(".eval_batch"):
            add(("cands", layer), info[0])
            add("cells", info[1])
        elif layer == "_search.feasible":
            add("tested", info[0])
            add("kept", info[1])
        elif name == "nash.best_response":
            add("evals", info)
        elif name == "nash.best_response_dynamics":
            add("rounds", info)

    g = c.get
    out = {
        "geometry.eval_cost.calls": g(("calls", "geometry.eval_cost"), 0),
        "geometry.eval_cost.s": g(("dur", "geometry.eval_cost"), 0.0),
        "geometry.eval_cost.mb": g("eval_cost_mb", 0.0),
        "ctransform.calls": g(("layer_calls", "ctransform"), 0),
        "ctransform.s": g(("layer_dur", "ctransform"), 0.0),
        "ctransform.self_s": g(("layer_self", "ctransform"), 0.0),
    }
    batches = 0
    for owner in ("model_one", "model_two"):
        layer = f"{owner}.eval_batch"
        cands, secs = g(("cands", layer), 0), g(("layer_dur", layer), 0.0)
        batches += g(("layer_calls", layer), 0)
        out[f"{layer}.calls"] = g(("layer_calls", layer), 0)
        out[f"{layer}.cands"] = cands
        out[f"{layer}.s"] = secs
        out[f"{layer}.us_per_cand"] = 1e6 * secs / cands if cands else 0.0
        out[f"{owner}.self_s"] = g(("layer_self", owner), 0.0)
    cands = out["model_one.eval_batch.cands"] + out["model_two.eval_batch.cands"]
    tested, evals = g("tested", 0), g("evals", 0)
    br_s = g(("dur", "nash.best_response"), 0.0)
    out.update(
        {
            "search.s": g(("layer_dur", "_search"), 0.0),
            "search.self_s": g(("layer_self", "_search"), 0.0),
            "search.batch_mean": cands / batches if batches else 0.0,
            "search.cells": g("cells", 0),
            "search.feasible.s": g(("layer_dur", "_search.feasible"), 0.0),
            "search.feasible.keep_ratio": g("kept", 0) / tested if tested else 0.0,
            "nash.best_response.calls": g(("calls", "nash.best_response"), 0),
            "nash.best_response.s": br_s,
            "nash.evals": evals,
            "nash.us_per_eval": 1e6 * br_s / evals if evals else 0.0,
            "nash.payoffs.s": g(("dur", "nash.payoffs"), 0.0),
            "nash.dynamics.self_s": g(("self", "nash.best_response_dynamics"), 0.0),
            "nash.rounds": g("rounds", 0),
            "scenario.load.s": g(("dur", "scenario.load_scenario"), 0.0),
            "cli.run.s": g(("dur", "cli.run"), 0.0),
            "cli.self_s": g(("layer_self", "cli"), 0.0),
        }
    )
    return out
