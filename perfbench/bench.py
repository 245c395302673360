"""Set-up, interleaved timed rounds, checks and metrics for one workload run."""
from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional

from . import cli_report, kernel_bulk, orlicz_probes, tensor_galb
from .ops import OUT_DIR, CheckFailed, Op, ensure_out_dir, fingerprint
from .tracer import METRICS, Tracer, layer_metrics

WORKLOADS = {m.NAME: m for m in (orlicz_probes, tensor_galb, kernel_bulk, cli_report)}
MIN_ROUNDS = 3
SETUP_CHILDREN = 4       # extra fresh-process set-ups; setup_s is the median of all
CHILD_TIMEOUT_S = 60


def set_up(workload: str, seed: int) -> List[Op]:
    """Build the inputs (which constructs the Orlicz kernels) and run one
    untimed warm-up op of each kind."""
    ensure_out_dir(workload)
    ops = WORKLOADS[workload].build(seed)
    names = [op.name for op in ops]
    if len(set(names)) != len(names):
        raise SystemExit("perfbench: duplicate op names")
    seen = set()
    for op in ops:
        if op.kind not in seen:
            seen.add(op.kind)
            try:
                op.run()
            except Exception:  # a failing op is counted in the timed rounds
                pass
    return ops


def _child_setup(child_cmd: List[str], cwd: str) -> float:
    """Set-up time of a fresh process, waited for to its end."""
    res = subprocess.run(child_cmd, cwd=cwd, capture_output=True, text=True,
                         timeout=CHILD_TIMEOUT_S, check=False)
    if res.returncode != 0:
        raise SystemExit(f"perfbench: set-up child failed: {res.stderr.strip()[-500:]}")
    return float(json.loads(res.stdout.strip().splitlines()[-1])["setup_s"])


class Rounds:
    """Runs the ops in interleaved rounds and keeps what the metrics need.

    An op fails in a round if it raises, if its check rejects the result,
    if the result differs bitwise from the first round, or (traced rounds)
    if its layer counts differ from the first traced round.
    """

    def __init__(self, workload: str, seed: int, ops: List[Op], trace: bool) -> None:
        self.build = lambda: WORKLOADS[workload].build(seed)
        self.ops = ops
        self.tracer = Tracer() if trace else None
        n = len(ops)
        # traced? -> per-op fastest time
        self.best: Dict[bool, List[float]] = {False: [float("inf")] * n,
                                              True: [float("inf")] * n}
        self.prints: List[Optional[str]] = [None] * n
        self.first_counts: List[Optional[dict]] = [None] * n
        self.layers: List[tuple] = []      # per traced round: (counts, self times)
        self.failures: Dict[int, str] = {}
        self.attempted = self.failed = self.rounds = 0

    def run(self, seconds: float, between: Callable[[float], None]) -> None:
        """Rounds until `seconds` would be exceeded; `between(elapsed)` runs
        after each round, outside the timed ops."""
        start, last = time.perf_counter(), 0.0
        min_rounds = MIN_ROUNDS + (1 if self.tracer else 0)
        while self.rounds < min_rounds or time.perf_counter() - start + last <= seconds:
            t = time.perf_counter()
            if self.rounds > 0:
                self.ops = None  # let the previous round's inputs go first
                self.ops = self.build()
            traced = self.tracer is not None and self.rounds % 2 == 1
            self._check_round(*self._time_round(traced), traced)
            last = time.perf_counter() - t
            self.rounds += 1
            between(time.perf_counter() - start)

    def _time_round(self, traced: bool):
        tr = self.tracer
        if traced:
            tr.install()
        gc.collect()
        results, times, op_counts = [], [], []
        total_counts: Dict[str, int] = {}
        total_self: Dict[str, float] = {}
        for i, op in enumerate(self.ops):
            if traced:
                tr.begin(self.rounds, i)
            t = time.perf_counter()
            try:
                res = op.run()
            except Exception as exc:  # recorded as a failed op
                res = exc
            times.append(time.perf_counter() - t)
            results.append(res)
            if traced:
                counts, selfs = tr.end()
                op_counts.append(counts)
                for k, v in counts.items():
                    total_counts[k] = total_counts.get(k, 0) + v
                for k, v in selfs.items():
                    total_self[k] = total_self.get(k, 0.0) + v
        if traced:
            tr.uninstall()
            self.layers.append((total_counts, total_self))
        return results, times, op_counts

    def _check_round(self, results, times, op_counts, traced: bool) -> None:
        for i, op in enumerate(self.ops):
            self.attempted += 1
            self.best[traced][i] = min(self.best[traced][i], times[i])
            try:
                if isinstance(results[i], Exception):
                    raise CheckFailed(f"raised {type(results[i]).__name__}: {results[i]}")
                value = op.collect(results[i]) if op.collect else results[i]
                op.check(value)
                fp = fingerprint(value)
                if self.prints[i] is None:
                    self.prints[i] = fp
                elif fp != self.prints[i]:
                    raise CheckFailed("result differs bitwise from the first round")
                if traced:
                    if self.first_counts[i] is None:
                        self.first_counts[i] = op_counts[i]
                    elif op_counts[i] != self.first_counts[i]:
                        raise CheckFailed("layer counts differ from the first traced round")
            except Exception as exc:  # any check error fails this op in this round
                self.failed += 1
                self.failures.setdefault(i, f"{type(exc).__name__}: {exc}")

    def correct(self) -> bool:
        """True when every failed op is the known fault."""
        known = {i for i, op in enumerate(self.ops) if op.known_fault}
        for i, why in sorted(self.failures.items()):
            note = " (known fault)" if i in known else ""
            sys.stderr.write(f"FAILED {self.ops[i].name}{note}: {why}\n")
        return set(self.failures) <= known

    def end_to_end(self, setups: List[float]) -> Dict[str, float]:
        best = sorted(self.best[False])
        return {
            "setup_s": statistics.median(setups),
            "work_s": sum(best),
            "op_p50_ms": statistics.median(best) * 1e3,
            "op_p90_ms": statistics.quantiles(best, n=10)[-1] * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def per_layer(self) -> Dict[str, float]:
        keys = set().union(*(selfs for _, selfs in self.layers))
        selfs = {k: statistics.median(s.get(k, 0.0) for _, s in self.layers) for k in keys}
        values = layer_metrics(self.layers[0][0], selfs)
        # the per-op fastest times repeat far better than round walls do
        values["trace.overhead_s"] = sum(self.best[True]) - sum(self.best[False])
        return values


def main(workload: str, seed: int, seconds: float, trace: bool, t0: float,
         child_cmd: List[str], cwd: str) -> None:
    ops = set_up(workload, seed)
    setups = [time.perf_counter() - t0]
    # the fresh-process set-ups are spread over the run, so that setup_s
    # samples the shared machine's speed over as long a time as the rounds do
    due = [] if trace else [seconds * (j + 0.5) / SETUP_CHILDREN for j in range(SETUP_CHILDREN)]

    def between(elapsed: float) -> None:
        while due and elapsed >= due[0]:
            due.pop(0)
            setups.append(_child_setup(child_cmd, cwd))

    rounds = Rounds(workload, seed, ops, trace)
    rounds.run(seconds, between)
    between(float("inf"))  # the set-ups a run shorter than its rounds left over
    correct = rounds.correct()
    if trace:
        values = rounds.per_layer()
        units = dict(METRICS)
        rounds.tracer.write(os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.jsonl"),
                            [op.name for op in rounds.ops])
    else:
        values = rounds.end_to_end(setups)
        units = {"setup_s": "s", "work_s": "s", "op_p50_ms": "ms",
                 "op_p90_ms": "ms", "peak_rss_mb": "MB"}
    with open(os.path.join(OUT_DIR, f"ops-{workload}-seed{seed}-trace{int(trace)}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"rounds": rounds.rounds,
                   "ops": [{"name": op.name, "kind": op.kind, "best_s": b}
                           for op, b in zip(rounds.ops, rounds.best[False])]}, fh, indent=1)
    sys.stderr.write(f"{workload}: {len(ops)} ops x {rounds.rounds} rounds, "
                     f"{time.perf_counter() - t0:.1f} s in all\n")
    print(json.dumps({"correct": correct, "attempted": rounds.attempted,
                      "failed": rounds.failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}))
