"""Deterministic JSON / CSV emission and strict input parsing.

Output is byte-reproducible: object keys are sorted, floats always print
with 17 significant digits, and every document ends in a single LF.  One
rule (`_shape`) gives a qnlab object its JSON shape: a scalar field is
written by its values, a vector field by its vectors, a tensor
representation by its xs and fs, and any other dataclass (witnesses,
partitions, reports) by its fields; anything else is an InputError.  The
parsers accept either inline JSON or ``@path`` file references and raise
InputError on anything malformed, which the command line maps to exit
code 2.
"""
from __future__ import annotations

import dataclasses
import json
import math
import sys
from typing import Any, Dict, Iterable, List, Sequence, Tuple

import numpy as np

from .errors import InputError
from .galb_tensor import TensorRep
from .gauges import (
    Convexified,
    Gauge,
    Intersect,
    Lp,
    Orlicz,
    WeakL1,
    builtin_phi,
)
from .measure import MeasureSpace, Partition, ScalarField, VectorField
from .spaces import QuasiNormedSpace, lq_space

# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def _fmt_float(x: float) -> str:
    if not np.isfinite(x):
        raise InputError("refusing to serialize a non-finite number")
    return format(float(x), ".17g")


def _shape(obj: Any) -> Dict[str, Any]:
    """The JSON object standing for a qnlab object (see the module docstring)."""
    if isinstance(obj, ScalarField):
        return {"values": obj.values}
    if isinstance(obj, VectorField):
        return {"vectors": obj.vectors}
    if isinstance(obj, TensorRep):
        return {"xs": obj.xs, "fs": obj.fs}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    raise InputError(f"cannot serialize object of type {type(obj).__name__}")


def _dump(obj: Any, out: List[str]) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_fmt_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj, key=str)):
            if i:
                out.append(",")
            out.append(json.dumps(str(key)))
            out.append(":")
            _dump(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)) or isinstance(obj, np.ndarray):
        items = obj.tolist() if isinstance(obj, np.ndarray) else obj
        out.append("[")
        for i, item in enumerate(items):
            if i:
                out.append(",")
            _dump(item, out)
        out.append("]")
    else:
        _dump(_shape(obj), out)


def dumps_json(obj: Any) -> str:
    out: List[str] = []
    _dump(obj, out)
    out.append("\n")
    return "".join(out)


def _csv_cell(x: Any) -> str:
    if isinstance(x, str):
        s = x
    elif isinstance(x, (bool, np.bool_)):
        s = "true" if x else "false"
    elif isinstance(x, (int, np.integer)):
        s = str(int(x))
    elif isinstance(x, (float, np.floating)):
        s = _fmt_float(float(x))
    elif x is None:
        s = ""
    else:
        raise InputError(f"cannot put a {type(x).__name__} in a CSV cell")
    if any(c in s for c in ',"\n\r'):
        s = '"' + s.replace('"', '""') + '"'
    return s


def dumps_csv(rows: Iterable[Sequence[Any]]) -> str:
    return "".join(",".join(_csv_cell(c) for c in row) + "\n" for row in rows)


# the nodes flatten_for_csv writes as they are; _csv_cell judges them
_LEAF = (float, int, str, type(None), np.generic)


def flatten_for_csv(payload: Any) -> List[Tuple[str, Any]]:
    """Depth-first (sorted-key) flattening into (dotted path, leaf) rows."""
    rows: List[Tuple[str, Any]] = []

    def walk(node: Any, path: str) -> None:
        if isinstance(node, _LEAF):
            rows.append((path, node))
        elif isinstance(node, dict):
            for key in sorted(node, key=str):
                walk(node[key], f"{path}.{key}" if path else str(key))
        elif isinstance(node, (list, tuple)) or isinstance(node, np.ndarray):
            items = node.tolist() if isinstance(node, np.ndarray) else node
            for i, item in enumerate(items):
                walk(item, f"{path}.{i}" if path else str(i))
        else:
            walk(_shape(node), path)

    walk(payload, "")
    return rows


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def load_payload(text: str) -> Any:
    """Inline JSON, or the contents of a file when prefixed with '@'."""
    if text.startswith("@"):
        try:
            with open(text[1:], "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read {text[1:]}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON: {exc}") from exc


def _require(obj: Any, key: str, where: str) -> Any:
    if not isinstance(obj, dict):
        raise InputError(f"{where} must be a JSON object")
    if key not in obj:
        raise InputError(f"{where} is missing the {key!r} key")
    return obj[key]


def _number(obj: Any, key: str, where: str, integer: bool = False) -> Any:
    """obj[key] as a finite float, or as an int when integer is set (an
    integral float is accepted, a bool never); InputError otherwise."""
    return _as_number(_require(obj, key, where), f"{where} {key!r}", integer)


def _as_number(value: Any, what: str, integer: bool = False) -> Any:
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    x = float(value) if number and abs(value) <= sys.float_info.max else math.nan
    if not math.isfinite(x) or (integer and not x.is_integer()):
        kind = "an integer" if integer else "a finite number"
        raise InputError(f"{what} must be {kind}, got {value!r}")
    return int(x) if integer else x


def _number_array(data: Any, where: str, ndim: int) -> np.ndarray:
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{where} must be numeric: {exc}") from exc
    if arr.ndim != ndim:
        raise InputError(f"{where} must be {ndim}-dimensional")
    if not np.all(np.isfinite(arr)):  # JSON NaN, Infinity, or a number like 1e400
        raise InputError(f"{where} entries must be finite numbers")
    return arr


def parse_measure(obj: Any) -> MeasureSpace:
    return MeasureSpace(_number_array(_require(obj, "weights", "measure"), "weights", 1))


def parse_scalar_field(obj: Any) -> ScalarField:
    values = _number_array(_require(obj, "values", "field"), "values", 1)
    signed = obj.get("signed", False)
    if not isinstance(signed, bool):
        raise InputError(f"field 'signed' must be true or false, got {signed!r}")
    return ScalarField(values, signed=signed)


def parse_partition(obj: Any) -> Partition:
    blocks = _require(obj, "blocks", "partition")
    if not isinstance(blocks, list) or not all(isinstance(b, list) for b in blocks):
        raise InputError("partition blocks must be a list of lists")
    return Partition(tuple(
        tuple(_as_number(i, "partition block entry", integer=True) for i in b)
        for b in blocks
    ))


def parse_target(obj: Any) -> QuasiNormedSpace:
    """{"kind": "lq", "q": q, "dim": d} is l_q^d; any other kind is a gauge
    (see parse_gauge) on R^d, e.g. {"kind": "orlicz", "phi": "loglog", "dim": d}."""
    kind = _require(obj, "kind", "target space")
    dim = _number(obj, "dim", "target space", integer=True)
    if kind == "lq":
        return lq_space(dim, _number(obj, "q", "lq target"))
    gauge = parse_gauge(obj)
    return QuasiNormedSpace(dim, gauge, name=f"{gauge.label()}^{dim}")


def parse_gauge(obj: Any) -> Gauge:
    kind = _require(obj, "kind", "gauge")
    if kind == "lp":
        return Lp(_number(obj, "p", "lp gauge"))
    if kind == "weak_l1":
        return WeakL1()
    if kind == "orlicz":
        name = _require(obj, "phi", "orlicz gauge")
        p = None if obj.get("p") is None else _number(obj, "p", "orlicz gauge")
        phi = builtin_phi(str(name), p)
        if "tol" in obj:
            return Orlicz(phi, tol=_number(obj, "tol", "orlicz gauge"))
        return Orlicz(phi)
    if kind == "convexified":
        return Convexified(parse_gauge(_require(obj, "base", "convexified gauge")),
                           _number(obj, "r", "convexified gauge"))
    if kind == "intersect":
        g1 = parse_gauge(_require(obj, "g1", "intersect gauge"))
        g2 = parse_gauge(_require(obj, "g2", "intersect gauge"))
        if "budget" in obj:
            budget = _number(obj, "budget", "intersect gauge", integer=True)
            return Intersect(g1, g2, budget=budget)
        return Intersect(g1, g2)
    raise InputError(f"unknown gauge kind {kind!r}")


def parse_tensor_rep(obj: Any) -> TensorRep:
    xs = _number_array(_require(obj, "xs", "tensor representation"), "xs", 2)
    fs = _number_array(_require(obj, "fs", "tensor representation"), "fs", 2)
    target = parse_target(_require(obj, "target", "tensor representation"))
    lam = parse_gauge(_require(obj, "lam", "tensor representation"))
    return TensorRep(xs=xs, fs=fs, target=target, lam=lam)
