"""The op record, result fingerprints and shared helpers for the workloads."""
from __future__ import annotations

import csv
import dataclasses
import enum
import hashlib
import io
import json
import math
import os
import struct
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

import qnlab as q
import qnlab.cli  # noqa: F401  (the cli workloads call q.cli.main)

from . import refs

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


class CheckFailed(Exception):
    """An op's result disagrees with the independent computation."""


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def close(got: float, want: float, rtol: float, what: str) -> None:
    err = refs.rel_err(got, want)
    expect(err <= rtol, f"{what}: got {got!r}, want {want!r} (rel err {err:.3g} > {rtol:g})")


@dataclasses.dataclass
class Op:
    """One call into qnlab with its check.

    run          the timed call; returns the raw result
    check        raises CheckFailed when the (collected) result is wrong
    collect      turns the raw result into what is checked and fingerprinted
                 (the cli ops read back the file they wrote); untimed
    known_fault  set on the one op that fails because of a known program fault
    """

    name: str
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    collect: Optional[Callable[[Any], Any]] = None
    known_fault: str = ""


# ---------------------------------------------------------------------------
# fingerprints: a repeated op must give bitwise-identical results
# ---------------------------------------------------------------------------

def _feed(obj: Any, h) -> None:
    if obj is None:
        h.update(b"N")
    elif isinstance(obj, (bool, np.bool_)):
        h.update(b"B1" if obj else b"B0")
    elif isinstance(obj, (int, np.integer)):
        h.update(b"I" + str(int(obj)).encode())
    elif isinstance(obj, (float, np.floating)):
        h.update(b"F" + struct.pack("<d", float(obj)))
    elif isinstance(obj, str):
        h.update(b"S" + obj.encode())
    elif isinstance(obj, bytes):
        h.update(b"Y" + obj)
    elif isinstance(obj, np.ndarray):
        h.update(b"A" + str(obj.dtype).encode() + str(obj.shape).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, enum.Enum):
        h.update(b"E" + str(obj.value).encode())
    elif dataclasses.is_dataclass(obj):
        h.update(b"D" + type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            h.update(f.name.encode())
            _feed(getattr(obj, f.name), h)
    elif isinstance(obj, dict):
        h.update(b"M" + str(len(obj)).encode())
        for k in sorted(obj, key=repr):
            _feed(k, h)
            _feed(obj[k], h)
    elif isinstance(obj, (list, tuple)):
        h.update(b"L" + str(len(obj)).encode())
        for item in obj:
            _feed(item, h)
    elif isinstance(obj, BaseException):
        h.update(b"X" + repr(obj).encode())
    elif callable(obj):
        h.update(b"C" + getattr(obj, "__qualname__", type(obj).__name__).encode())
    else:
        raise TypeError(f"cannot fingerprint {type(obj).__name__}")


def fingerprint(obj: Any) -> str:
    h = hashlib.sha256()
    _feed(obj, h)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# input helpers
# ---------------------------------------------------------------------------

def sub_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def spread_rows(rng: np.random.Generator, m: int, n: int, expo: int) -> np.ndarray:
    """Strictly positive (m, n) rows, each at its own magnitude 10^e, |e| <= expo.

    Within a row the entries span three decades.  When m >= 2 the second
    half of the rows repeats the first half scaled by a power of ten that
    keeps them within the same range, so homogeneity can be checked.
    """
    base = rng.uniform(1e-3, 1.0, size=(m, n))
    e = rng.integers(-expo, expo + 1, size=m)
    half = m // 2
    if half:
        shift = rng.integers(-expo, expo + 1, size=half)
        e[half : 2 * half] = shift
        base[half : 2 * half] = base[:half]
    return base * 10.0 ** e[:, None].astype(float)


def homogeneity_ok(rows: np.ndarray, vals: np.ndarray, rtol: float) -> None:
    """Rows of spread_rows' second half repeat the first half scaled: check g(c f) = c g(f).

    Each value is divided by its row's first entry, so no scale factor is
    formed (it may exceed the float range).
    """
    half = rows.shape[0] // 2
    a = np.abs(rows[:, 0])
    ratio = np.asarray(vals, dtype=float) / a
    err = np.abs(ratio[half : 2 * half] - ratio[:half]) / ratio[:half]
    if half:
        i = int(np.argmax(err))
        expect(float(err[i]) <= rtol, f"homogeneity rows {i}, {half + i}: rel err {err[i]:.3g}")


def sample_rows(m: int, k: int) -> List[int]:
    """k row indices spread evenly over range(m), both ends included."""
    if m <= k:
        return list(range(m))
    return sorted({int(round(x)) for x in np.linspace(0, m - 1, k)})


def family_rows(fields: Sequence[Any]) -> np.ndarray:
    return np.array([np.asarray(f.values, dtype=float) for f in fields])


# ---------------------------------------------------------------------------
# tensor representations
# ---------------------------------------------------------------------------

def rep_cost(xs: np.ndarray, fs: np.ndarray, w: np.ndarray, lam: refs.RefGauge,
             tkind: str, tq: float) -> float:
    """lam((||x_j|| * sum_w |f_j|)_j) over counting measure on the terms."""
    prof = np.array([refs.vec_norm(x, tkind, tq) * math.fsum((w * np.abs(f)).tolist())
                     for x, f in zip(xs, fs)])
    return lam(prof, np.ones(prof.size))


@refs.memoized
def bochner(xs: np.ndarray, fs: np.ndarray, w: np.ndarray, tkind: str, tq: float) -> float:
    """sum_omega w ||J(omega)||, the exact tensor norm for lam = L1 and Banach targets."""
    jm = np.einsum("ka,kd->ad", fs, xs)
    return math.fsum(float(w[a]) * refs.vec_norm(jm[a], tkind, tq) for a in range(jm.shape[0]))


def contraction(xs: np.ndarray, fs: np.ndarray) -> np.ndarray:
    return np.einsum("ka,kd->ad", fs, xs)


# ---------------------------------------------------------------------------
# cli ops
# ---------------------------------------------------------------------------

def flatten(obj: Any, path: str = "") -> Dict[str, Any]:
    """Dotted-path leaves of a parsed JSON document."""
    out: Dict[str, Any] = {}
    if isinstance(obj, dict):
        for k, v in obj.items():
            out.update(flatten(v, f"{path}.{k}" if path else str(k)))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            out.update(flatten(v, f"{path}.{i}" if path else str(i)))
    else:
        out[path] = obj
    return out


class Doc:
    """A cli output read back as dotted-path leaves, from JSON or CSV."""

    def __init__(self, leaves: Dict[str, Any]) -> None:
        self.leaves = leaves

    def num(self, key: str) -> float:
        expect(key in self.leaves, f"output lacks {key!r}")
        return float(self.leaves[key])

    def text(self, key: str) -> str:
        expect(key in self.leaves, f"output lacks {key!r}")
        v = self.leaves[key]
        if isinstance(v, bool):
            return "true" if v else "false"
        return str(v)

    def array(self, prefix: str) -> np.ndarray:
        """Rebuild a 1-d or 2-d numeric array stored under prefix.i(.j)."""
        keys = [k for k in self.leaves if k.startswith(prefix + ".")]
        expect(bool(keys), f"output lacks {prefix!r}")
        idx = [tuple(int(t) for t in k[len(prefix) + 1 :].split(".")) for k in keys]
        shape = tuple(max(i[d] for i in idx) + 1 for d in range(len(idx[0])))
        out = np.zeros(shape)
        for k, i in zip(keys, idx):
            out[i] = float(self.leaves[k])
        return out

    def has(self, key: str) -> bool:
        return key in self.leaves


def read_doc(path: str, fmt: str) -> Doc:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        text = fh.read()
    expect(text.endswith("\n"), "output does not end in a newline")
    if fmt == "json":
        return Doc(flatten(json.loads(text)))
    rows = list(csv.reader(io.StringIO(text)))
    expect(rows[0] == ["key", "value"], "csv header is not key,value")
    expect(all(len(r) == 2 for r in rows), "csv row without exactly two cells")
    leaves: Dict[str, Any] = {}
    for k, v in rows[1:]:
        leaves[k] = v
    return Doc(leaves)


def cli_op(name: str, kind: str, argv: List[str], fmt: str,
           check: Callable[[Doc], None], workload: str) -> Op:
    """`qnlab <argv> --format fmt --out <file>` run in-process through cli.main."""
    path = os.path.join(OUT_DIR, workload, f"{name}.{fmt}")
    full = list(argv) + ["--format", fmt, "--out", path]

    def run() -> int:
        return q.cli.main(full)

    def collect(code: int):
        with open(path, "rb") as fh:
            return code, fh.read()

    def verify(res) -> None:
        code, _ = res
        expect(code == 0, f"exit code {code}")
        check(read_doc(path, fmt))

    return Op(name, kind, run, verify, collect=collect)


def ensure_out_dir(workload: str) -> None:
    os.makedirs(os.path.join(OUT_DIR, workload), exist_ok=True)


def dumps(obj: Any) -> str:
    """Inline JSON argument for the cli."""
    def conv(o):
        if isinstance(o, np.ndarray):
            return o.tolist()
        raise TypeError(type(o).__name__)
    return json.dumps(obj, default=conv)
