"""Spans and counts around the calls into each qnlab layer.

The wrappers are installed from outside the program: every module
attribute or class attribute that holds one of the callables below is
replaced by a wrapper for the traced rounds and restored afterwards.
Spans nest; a span's self time is its duration minus the durations of
the spans opened inside it.  Recording happens only while an op runs
(`Tracer.active`), so input building and checking leave no trace.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

# (module, attribute, layer, counter).  An attribute "Cls.meth" is patched
# on the class; a plain name is patched in every qnlab module that holds
# the same function object.  The counter names what a call adds to.
_GAUGE_FUNCS = ("eval_gauge", "eval_vector_gauge", "gauge_values_rows", "luxemburg",
                "convexify", "builtin_phi")
_CONVEXITY = ("aoki_exponent", "p_envelope", "lattice_constant_probe", "l_convexity_probe",
              "mii_check", "mii_sweep", "leveling_constant_probe")
_MAXIMAL = ("cube_average", "default_scales", "hl_maximal", "vector_maximal",
            "differentiation_report", "weak11_constant", "series_domination_report")
_INTEGRATION = ("integrate_simple", "simple_to_tensor", "integrate_series",
                "representation_independence_check", "rolewicz_counterexample")
_MEASURE = ("counting_space", "uniform_probability_space", "trivial_partition",
            "distribution_mass", "decreasing_rearrangement", "weak_l1_value",
            "conditional_expectation", "integral", "product_space", "restrict")
_SERIALIZE = ("dumps_json", "dumps_csv", "flatten_for_csv", "load_payload", "parse_measure",
              "parse_scalar_field", "parse_partition", "parse_target", "parse_gauge",
              "parse_tensor_rep")

SPECS: List[Tuple[str, str, str, Optional[str]]] = (
    [("qnlab.gauges", f"{c}._value_rows", "gauges.kernel", "kernel")
     for c in ("Lp", "WeakL1", "Convexified", "Intersect")]
    + [("qnlab.gauges", "Orlicz._value_rows", "gauges.orlicz", "kernel"),
       ("qnlab.gauges", "OrliczFunction.__call__", None, "phi")]
    + [("qnlab.gauges", f, "gauges.kernel", None) for f in _GAUGE_FUNCS]
    + [("qnlab.gauges", f, "gauges.search", "search")
       for f in ("intersect_eval", "dual_gauge", "concavity_modulus_probe")]
    + [("qnlab.spaces", "QuasiNormedSpace.norm", "spaces", "norm"),
       ("qnlab.spaces", "QuasiNormedSpace.norms", "spaces", "norms")]
    + [("qnlab.spaces", f, "spaces", None)
       for f in ("lq_space", "weak_l1_space", "weak_l1_vector_norm")]
    + [("qnlab.convexity", f, "convexity", "convexity") for f in _CONVEXITY]
    + [("qnlab.galb_tensor", "galb_gauge_estimate", "galb_tensor.galb", "galb"),
       ("qnlab.galb_tensor", "galbs_check", "galb_tensor.galb", None),
       ("qnlab.galb_tensor", "tensor_norm_estimate", "galb_tensor.tensor", "tensor")]
    + [("qnlab.galb_tensor", f, "galb_tensor.tensor", None)
       for f in ("j_map", "i_map", "i_map_termwise", "profile_value", "tensor_from_terms")]
    + [("qnlab.maximal", f, "maximal", "maximal") for f in _MAXIMAL]
    + [("qnlab.integration", f, "integration", None) for f in _INTEGRATION]
    + [("qnlab.measure", f, "measure", None) for f in _MEASURE]
    + [("qnlab.cli", "main", "cli", "cli")]
    + [("qnlab.serialize", f, "serialize", "bytes" if f.startswith("dumps") else None)
       for f in _SERIALIZE]
)

LAYERS = sorted({s[2] for s in SPECS if s[2] is not None})

# the per-layer metrics, in BENCHMARK.json order
METRICS = (
    ("gauges.kernel.calls", "count"), ("gauges.kernel.rows", "count"),
    ("gauges.kernel.rows_per_call", "rows"), ("gauges.kernel.self_s", "s"),
    ("gauges.orlicz.self_s", "s"), ("gauges.lux.phi_calls", "count"),
    ("gauges.lux.phi_points", "count"), ("gauges.search.calls", "count"),
    ("gauges.search.self_s", "s"), ("spaces.norm.calls", "count"),
    ("spaces.norms.calls", "count"), ("spaces.norms.rows", "count"),
    ("spaces.self_s", "s"), ("convexity.calls", "count"), ("convexity.self_s", "s"),
    ("galb_tensor.tensor.calls", "count"), ("galb_tensor.tensor.cost_evals", "count"),
    ("galb_tensor.tensor.self_s", "s"), ("galb_tensor.galb.calls", "count"),
    ("galb_tensor.galb.norm_evals", "count"), ("galb_tensor.galb.self_s", "s"),
    ("maximal.calls", "count"), ("maximal.self_s", "s"), ("integration.self_s", "s"),
    ("measure.self_s", "s"), ("cli.calls", "count"), ("cli.self_s", "s"),
    ("serialize.self_s", "s"), ("serialize.bytes", "bytes"), ("trace.overhead_s", "s"),
)


class Tracer:
    """Installs the wrappers and keeps every span and count in memory."""

    def __init__(self) -> None:
        self.active = False
        self.stack: List[list] = []     # open spans: [layer index, start, child time, id]
        self.spans: List[tuple] = []    # (round, op, id, parent id, layer index, start, end)
        self.round = 0
        self.op = 0
        self.counts: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self._open = {"tensor": 0, "galb": 0}
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- per-op bookkeeping ---------------------------------------------------

    def begin(self, round_no: int, op_no: int) -> None:
        self.round, self.op = round_no, op_no
        self.counts = defaultdict(int)
        self.self_s = defaultdict(float)
        self.active = True

    def end(self) -> Tuple[Dict[str, int], Dict[str, float]]:
        self.active = False
        self.stack.clear()
        self._open = {"tensor": 0, "galb": 0}
        return dict(self.counts), dict(self.self_s)

    # -- wrappers ---------------------------------------------------------------

    def _wrap(self, fn, layer: Optional[str], counter: Optional[str]):
        tr = self
        layer_no = LAYERS.index(layer) if layer is not None else -1

        if layer is None:  # count-only: phi is called too often for a span
            @functools.wraps(fn)
            def count_only(phi_self, t):
                if tr.active:
                    tr.counts["phi_calls"] += 1
                    tr.counts["phi_points"] += int(np.size(t))
                return fn(phi_self, t)
            return count_only

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            c = tr.counts
            if counter == "kernel":
                c["kernel_calls"] += 1
                c["kernel_rows"] += int(np.shape(args[2])[0])
            elif counter == "norm" or counter == "norms":
                c[f"{counter}_calls"] += 1
                if counter == "norms":
                    c["norms_rows"] += int(np.shape(args[1])[0])
                if tr._open["tensor"]:
                    c["tensor_cost_evals"] += 1
                if tr._open["galb"]:
                    c["galb_norm_evals"] += 1
            elif counter is not None and counter != "bytes":
                c[f"{counter}_calls"] += 1
            if counter in tr._open:
                tr._open[counter] += 1
            sid = len(tr.spans)
            parent = tr.stack[-1][3] if tr.stack else -1
            frame = [layer_no, 0.0, 0.0, sid]
            tr.spans.append(None)  # reserve the id; filled in on exit
            tr.stack.append(frame)
            frame[1] = t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                if counter in tr._open:
                    tr._open[counter] -= 1
                tr.stack.pop()
                dur = t1 - t0
                tr.self_s[layer] += dur - frame[2]
                if tr.stack:
                    tr.stack[-1][2] += dur
                tr.spans[sid] = (tr.round, tr.op, sid, parent, layer_no, t0, t1)
            if counter == "bytes":
                c["serialize_bytes"] += len(result.encode("utf-8"))
            return result

        return wrapper

    def install(self) -> None:
        mods = {name: m for name, m in sys.modules.items()
                if name == "qnlab" or name.startswith("qnlab.")}
        for modname, attr, layer, counter in SPECS:
            mod = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._set(cls, meth, self._wrap(orig, layer, counter))
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(orig, layer, counter)
            for m in mods.values():
                for name, value in list(vars(m).items()):
                    if value is orig:
                        self._set(m, name, wrapped)

    def _set(self, owner: Any, name: str, value: Any) -> None:
        self._undo.append((owner, name, getattr(owner, name) if not isinstance(owner, type)
                           else owner.__dict__[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._undo):
            setattr(owner, name, orig)
        self._undo.clear()

    def write(self, path: str, op_names: List[str]) -> None:
        """Write every span recorded in this run (JSON, one span per line)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"layers": LAYERS, "ops": op_names,
                                 "fields": ["round", "op", "id", "parent", "layer",
                                            "start", "end"]}) + "\n")
            for s in self.spans:
                if s is not None:
                    fh.write(json.dumps(s) + "\n")


def layer_metrics(counts: Dict[str, int], self_s: Dict[str, float]) -> Dict[str, float]:
    """Fold raw per-round counts and self times into the metric names."""
    c = defaultdict(int, counts)
    t = defaultdict(float, self_s)
    calls = c["kernel_calls"]
    return {
        "gauges.kernel.calls": c["kernel_calls"],
        "gauges.kernel.rows": c["kernel_rows"],
        "gauges.kernel.rows_per_call": c["kernel_rows"] / calls if calls else 0.0,
        "gauges.kernel.self_s": t["gauges.kernel"] + t["gauges.orlicz"],
        "gauges.orlicz.self_s": t["gauges.orlicz"],
        "gauges.lux.phi_calls": c["phi_calls"],
        "gauges.lux.phi_points": c["phi_points"],
        "gauges.search.calls": c["search_calls"],
        "gauges.search.self_s": t["gauges.search"],
        "spaces.norm.calls": c["norm_calls"],
        "spaces.norms.calls": c["norms_calls"],
        "spaces.norms.rows": c["norms_rows"],
        "spaces.self_s": t["spaces"],
        "convexity.calls": c["convexity_calls"],
        "convexity.self_s": t["convexity"],
        "galb_tensor.tensor.calls": c["tensor_calls"],
        "galb_tensor.tensor.cost_evals": c["tensor_cost_evals"],
        "galb_tensor.tensor.self_s": t["galb_tensor.tensor"],
        "galb_tensor.galb.calls": c["galb_calls"],
        "galb_tensor.galb.norm_evals": c["galb_norm_evals"],
        "galb_tensor.galb.self_s": t["galb_tensor.galb"],
        "maximal.calls": c["maximal_calls"],
        "maximal.self_s": t["maximal"],
        "integration.self_s": t["integration"],
        "measure.self_s": t["measure"],
        "cli.calls": c["cli_calls"],
        "cli.self_s": t["cli"],
        "serialize.self_s": t["serialize"],
        "serialize.bytes": c["serialize_bytes"],
    }
