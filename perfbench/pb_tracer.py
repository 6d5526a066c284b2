"""Outside-in tracer for the hypercnot layers.

The library is not instrumented. ``Tracer.install`` wraps every public
function of each layer module, plus a few methods, and rebinds the wrapper
wherever the original is bound by name: in the defining module and in every
``hypercnot`` namespace that imported it (``protocols``, ``optics`` and
``cavity`` each hold their own ``apply_operator``). ``uninstall`` puts every
original back.

Each call records a span (name, parent, start, end, op) in flat arrays kept
in memory; ``save`` writes them out at the end. A span's self time is its
duration minus the durations of its direct children; calls are strictly
nested on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("hilbert", "cavity", "optics", "protocols", "analysis", "cli")

METHODS = {
    "hilbert": (("StateVector", "__post_init__"),),
    "cavity": (("ReflectionPair", "from_params"), ("ReflectionPair", "ideal")),
}

# traced name -> reporting group; names not listed fall back to LAYER_GROUP
GROUPS = {
    "hilbert.apply_operator": "hilbert.apply_operator",
    "hilbert.StateVector.__post_init__": "hilbert.state_build",
    "hilbert.measure": "hilbert.measure",
    "hilbert.measure_all_branches": "hilbert.measure",
    "hilbert.outcome_weights": "hilbert.measure",
    "hilbert.discard_register": "hilbert.measure",
    "hilbert.normalize": "hilbert.measure",
    "hilbert.fidelity_up_to_global_phase": "hilbert.fidelity",
    "protocols.spatial_stage_matrix": "protocols.stage_matrix",
    "protocols.polarization_stage_matrix": "protocols.stage_matrix",
    "protocols.hyper_cnot_state": "protocols.gate",
    "protocols.hyper_cnot": "protocols.gate",
    "protocols.hyper_cnot_checkpoints": "protocols.gate",
    "protocols.cz_stage": "protocols.gate",
    "protocols.feed_forward": "protocols.gate",
    "analysis.formula_performance": "analysis.formula",
    "analysis.reference_check": "analysis.formula",
    "analysis.efficiency_oracle": "analysis.formula",
    "analysis.simulated_performance": "analysis.simulate",
    "analysis.sweep": "analysis.sweep",
    "analysis.performance_point": "analysis.sweep",
}
LAYER_GROUP = {
    "hilbert": "hilbert.other",
    "cavity": "cavity",
    "optics": "optics",
    "protocols": "protocols.apps",
    "analysis": "analysis.other",
    "cli": "cli",
}


def group_of(name: str) -> str:
    return GROUPS.get(name, LAYER_GROUP[name.split(".", 1)[0]])


def _is_ideal_gate_run(args, kwargs) -> bool:
    reflection = args[1] if len(args) > 1 else kwargs.get("reflection")
    return reflection is None


# traced name -> predicate on the call's arguments, counted into Tracer.flagged
FLAGGED_CALLS = {"protocols.hyper_cnot_state": _is_ideal_gate_run}


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Duration of each span minus the summed durations of its direct children."""
    nested = parent >= 0
    children = np.bincount(
        parent[nested], weights=duration[nested], minlength=len(duration)
    )
    return duration - children


def _namespaces(package: str) -> list:
    return [m for n, m in sorted(sys.modules.items()) if n == package or n.startswith(package + ".")]


class Tracer:
    """Spans and counts of calls into the layer modules of one package."""

    def __init__(self, package: str = "hypercnot") -> None:
        self.package = package
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.op = array("q")
        self.current_op = -1
        self.flagged: dict[str, int] = {name: 0 for name in FLAGGED_CALLS}
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- patching ------------------------------------------------------

    def _wrap(self, fn, name: str):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        name_id, parent, start, end, op, stack = (
            self.name_id, self.parent, self.start, self.end, self.op, self._stack
        )
        clock = time.perf_counter_ns
        flag = FLAGGED_CALLS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if flag is not None and flag(args, kwargs):
                tracer.flagged[name] += 1
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            op.append(tracer.current_op)
            start.append(0)
            end.append(0)
            stack.append(i)
            start[i] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {layer: importlib.import_module(f"{self.package}.{layer}") for layer in LAYERS}
        namespaces = _namespaces(self.package)
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or isinstance(obj, type)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__
                ):
                    continue
                wrapper = self._wrap(obj, f"{layer}.{attr}")
                for ns in namespaces:
                    for bound_name, value in list(vars(ns).items()):
                        if value is obj:
                            self._patch(ns, bound_name, wrapper)
            for cls_name, meth in METHODS.get(layer, ()):
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                name = f"{layer}.{cls_name}.{meth}"
                if isinstance(raw, classmethod):
                    self._patch(cls, meth, classmethod(self._wrap(raw.__func__, name)))
                else:
                    self._patch(cls, meth, self._wrap(raw, name))
        return self

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results -------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.array(self.name_id, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "start_ns": np.array(self.start, dtype=np.int64),
            "end_ns": np.array(self.end, dtype=np.int64),
            "op": np.array(self.op, dtype=np.int64),
        }

    def summary(self) -> dict[str, dict[str, dict[str, float]]]:
        """Call count and self time in seconds, per group and per traced name.

        ``root`` totals the spans entered directly from outside the package.
        """
        spans = self.arrays()
        duration = (spans["end_ns"] - spans["start_ns"]).astype(float)
        own = self_times(spans["parent"], duration)
        calls = np.bincount(spans["name_id"], minlength=len(self.names))
        self_ns = np.bincount(spans["name_id"], weights=own, minlength=len(self.names))
        functions = {
            name: {"calls": int(calls[nid]), "self_s": float(self_ns[nid]) / 1e9}
            for nid, name in enumerate(self.names)
        }
        groups: dict[str, dict[str, float]] = {}
        for name, entry in functions.items():
            total = groups.setdefault(group_of(name), {"calls": 0, "self_s": 0.0})
            total["calls"] += entry["calls"]
            total["self_s"] += entry["self_s"]
        roots = spans["parent"] < 0
        root = {"calls": int(roots.sum()), "self_s": float(duration[roots].sum()) / 1e9}
        return {"groups": groups, "functions": functions, "root": root}

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())
