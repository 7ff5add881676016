"""Spans around the public functions of every triwitness module, from outside.

`Tracer.install` wraps each public function of the seven layer modules at
every place a triwitness module binds it (``triwitness.qubit.projector``
and ``triwitness.scenario.projector`` alike, since the modules import
each other by name), plus the ``minimize`` that `triwitness.explore` calls,
whose objective argument is wrapped too. `Tracer.uninstall` puts the
originals back. No file of the package changes.

A span is (name, parent, start, end), kept in flat arrays in memory and
written out with `save` when the run ends. A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("qubit", "channel", "scenario", "witness", "randomness", "explore", "cli")
OP = "op"  # root span of one benchmark operation


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.success = array("b")  # per minimize call: did it report convergence
        self._stack = [-1]
        self._patches: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(ends)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def _wrap_minimize(self, minimize):
        traced_minimize = self.wrap("explore.minimize", minimize)

        def minimize_with_objective(fun, x0, *args, **kwargs):
            res = traced_minimize(self.wrap("explore.objective", fun), x0, *args, **kwargs)
            self.success.append(bool(res.success))
            return res

        return minimize_with_objective

    def install(self) -> None:
        import triwitness.cli  # noqa: F401  (loads every layer)

        sites = [m for n, m in sorted(sys.modules.items()) if n == "triwitness" or n.startswith("triwitness.")]
        originals = []
        for layer in LAYERS:
            mod = sys.modules[f"triwitness.{layer}"]
            originals += [
                (f"{layer}.{attr}", fn)
                for attr, fn in vars(mod).items()
                if not attr.startswith("_") and inspect.isfunction(fn) and fn.__module__ == mod.__name__
            ]
        for name, fn in originals:
            wrapper = self.wrap(name, fn)
            for mod in sites:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, attr, wrapper)
        explore = sys.modules["triwitness.explore"]
        self._patch(explore, "minimize", self._wrap_minimize(explore.minimize))

    def _patch(self, mod, attr: str, value) -> None:
        self._patches.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, value)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def op(self, fn, arg):
        """Run one benchmark operation under a root span."""
        return self.wrap(OP, fn)(arg)

    def spans(self) -> dict:
        return {
            "names": np.array(self.names, dtype=str),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "success": np.frombuffer(self.success, dtype=np.int8).copy(),
        }

    def save(self, path, **extra) -> None:
        np.savez(path, **self.spans(), **extra)


def merge(parts: list) -> dict:
    """Concatenate span sets from several processes into one."""
    names = sorted({str(n) for p in parts for n in p["names"]})
    index = {n: i for i, n in enumerate(names)}
    out = {"names": np.array(names, dtype=str), "name": [], "parent": [], "start": [], "end": [], "success": []}
    offset = 0
    for p in parts:
        remap = np.array([index[str(n)] for n in p["names"]], dtype=np.int32)
        out["name"].append(remap[p["name"]] if len(p["name"]) else p["name"])
        out["parent"].append(np.where(p["parent"] >= 0, p["parent"] + offset, -1))
        for key in ("start", "end", "success"):
            out[key].append(p[key])
        offset += len(p["name"])
    for key in ("name", "parent", "start", "end", "success"):
        out[key] = np.concatenate(out[key]) if out[key] else np.zeros(0)
    out["name"] = out["name"].astype(np.int32)
    out["parent"] = out["parent"].astype(np.int64)
    return out


#: Per-layer metrics: name -> (unit, better). The order is the print order.
LAYER_METRICS = {
    "qubit.projector.calls_per_op": ("count", "lower"),
    "qubit.projector.self_ms_per_op": ("ms", "lower"),
    "qubit.tensor.calls_per_op": ("count", "lower"),
    "qubit.tensor.self_ms_per_op": ("ms", "lower"),
    "qubit.partial_trace.calls_per_op": ("count", "lower"),
    "qubit.bloch_to_density.calls_per_op": ("count", "lower"),
    "qubit.self_ms_per_op": ("ms", "lower"),
    "channel.evolve_joint.calls_per_op": ("count", "lower"),
    "channel.evolve_joint.self_ms_per_op": ("ms", "lower"),
    "channel.marginal.calls_per_op": ("count", "lower"),
    "channel.self_ms_per_op": ("ms", "lower"),
    "scenario.build_table.calls_per_op": ("count", "lower"),
    "scenario.build_table.p50_us": ("us", "lower"),
    "scenario.build_table.self_ms_per_op": ("ms", "lower"),
    "scenario.oracle.calls_per_op": ("count", "lower"),
    "scenario.self_ms_per_op": ("ms", "lower"),
    "witness.calls_per_op": ("count", "lower"),
    "witness.self_ms_per_op": ("ms", "lower"),
    "randomness.calls_per_op": ("count", "lower"),
    "randomness.self_ms_per_op": ("ms", "lower"),
    "explore.objective.evals_per_op": ("count", "lower"),
    "explore.objective.self_ms_per_op": ("ms", "lower"),
    "explore.minimize.calls_per_op": ("count", "lower"),
    "explore.minimize.self_ms_per_op": ("ms", "lower"),
    "explore.evals_per_restart": ("count", "lower"),
    "explore.converged_ratio": ("ratio", "higher"),
    "explore.window.tables_per_call": ("count", "lower"),
    "explore.self_ms_per_op": ("ms", "lower"),
    "cli.import_ms": ("ms", "lower"),
    "cli.import_scipy_ms": ("ms", "lower"),
    "cli.process_overhead_ms": ("ms", "lower"),
    "cli.main.self_ms_per_op": ("ms", "lower"),
    "cli.output_bytes_per_op": ("bytes", "lower"),
    "trace.overhead_ratio": ("ratio", "higher"),
    "trace.traced_ops_per_s": ("1/s", "higher"),
    "trace.untraced_ops_per_s": ("1/s", "higher"),
}


def layer_metrics(spans: dict) -> dict:
    """The span-derived per-layer metrics, normalised per root ``op`` span.

    ``calls_per_op`` of a function counts every call; ``calls_per_op`` of a
    whole layer (witness, randomness) counts entries into the layer from
    outside it. A layer's self time sums the self time of its spans;
    ``explore`` leaves out scipy's ``minimize``, which has its own metric.
    """
    names = [str(n) for n in spans["names"]]
    ids = {n: i for i, n in enumerate(names)}
    nm, par = spans["name"], spans["parent"]
    dur = spans["end"] - spans["start"]
    has_parent = par >= 0
    child = np.bincount(par[has_parent], weights=dur[has_parent], minlength=len(nm))
    self_time = dur - child
    calls = np.bincount(nm, minlength=len(names))
    self_ms = np.bincount(nm, weights=self_time, minlength=len(names)) * 1e3
    ops = int(calls[ids[OP]]) if OP in ids else 0
    if ops == 0:
        raise ValueError("no operation spans recorded")

    def count(*fns) -> int:
        return int(sum(calls[ids[f]] for f in fns if f in ids))

    def ms(*fns) -> float:
        return float(sum(self_ms[ids[f]] for f in fns if f in ids))

    def layer(name: str, exclude=()) -> list:
        return [n for n in names if n.split(".")[0] == name and n not in exclude]

    layer_of = np.array([LAYERS.index(n.split(".")[0]) if n != OP else -1 for n in names], dtype=np.int64)
    span_layer = layer_of[nm] if len(nm) else np.zeros(0, dtype=np.int64)
    parent_layer = np.where(has_parent, span_layer[np.maximum(par, 0)], -1) if len(nm) else span_layer

    def entries(name: str) -> int:
        lid = LAYERS.index(name)
        return int(((span_layer == lid) & (parent_layer != lid)).sum())

    tables = nm == ids.get("scenario.build_table", -1)
    window = ids.get("explore.find_violation_window", -1)
    window_tables = int((tables & has_parent & (nm[np.maximum(par, 0)] == window)).sum())
    minimize_calls = count("explore.minimize")
    evals = count("explore.objective")
    return {
        "qubit.projector.calls_per_op": count("qubit.projector") / ops,
        "qubit.projector.self_ms_per_op": ms("qubit.projector") / ops,
        "qubit.tensor.calls_per_op": count("qubit.tensor") / ops,
        "qubit.tensor.self_ms_per_op": ms("qubit.tensor") / ops,
        "qubit.partial_trace.calls_per_op": count("qubit.partial_trace") / ops,
        "qubit.bloch_to_density.calls_per_op": count("qubit.bloch_to_density") / ops,
        "qubit.self_ms_per_op": ms(*layer("qubit")) / ops,
        "channel.evolve_joint.calls_per_op": count("channel.evolve_joint") / ops,
        "channel.evolve_joint.self_ms_per_op": ms("channel.evolve_joint") / ops,
        "channel.marginal.calls_per_op": count("channel.bob_state", "channel.charlie_state") / ops,
        "channel.self_ms_per_op": ms(*layer("channel")) / ops,
        "scenario.build_table.calls_per_op": count("scenario.build_table") / ops,
        "scenario.build_table.p50_us": float(np.median(dur[tables]) * 1e6) if tables.any() else 0.0,
        "scenario.build_table.self_ms_per_op": ms("scenario.build_table") / ops,
        "scenario.oracle.calls_per_op": count("scenario.p_bob_plus_closed_form", "scenario.p_charlie_plus_closed_form")
        / ops,
        "scenario.self_ms_per_op": ms(*layer("scenario")) / ops,
        "witness.calls_per_op": entries("witness") / ops,
        "witness.self_ms_per_op": ms(*layer("witness")) / ops,
        "randomness.calls_per_op": entries("randomness") / ops,
        "randomness.self_ms_per_op": ms(*layer("randomness")) / ops,
        "explore.objective.evals_per_op": evals / ops,
        "explore.objective.self_ms_per_op": ms("explore.objective") / ops,
        "explore.minimize.calls_per_op": minimize_calls / ops,
        "explore.minimize.self_ms_per_op": ms("explore.minimize") / ops,
        "explore.evals_per_restart": evals / minimize_calls if minimize_calls else 0.0,
        "explore.converged_ratio": float(spans["success"].mean()) if len(spans["success"]) else 0.0,
        "explore.window.tables_per_call": window_tables / count("explore.find_violation_window")
        if count("explore.find_violation_window")
        else 0.0,
        "explore.self_ms_per_op": ms(*layer("explore", exclude=("explore.minimize",))) / ops,
        "cli.main.self_ms_per_op": ms(*layer("cli")) / ops,
    }
