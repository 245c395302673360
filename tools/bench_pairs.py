"""Benchmark a change against its parent commit in alternating pairs of runs.

    python3 tools/bench_pairs.py --pr N [--base HEAD]

Run from the repository root.  The base commit's tree is exported with
`git archive` into a temporary directory (the repository itself is left
as it is); the change side is the working tree.  The workloads, the run
length and the direction of each end-to-end metric come from
BENCHMARK.json.  For pair i of each workload both sides run

    python3 perfbench/run.py --workload W --seed 901+i --seconds S --trace 0

one after the other, the side that runs first alternating from pair to
pair, so slow spells of a shared machine hit both sides alike.  Each side
then makes one `--trace 1` run per workload for the per-layer counts, at
the seed after the last pair.

Writes BENCH_<pr>.json at the repository root: per workload, every run
of each side, the median and quartiles of each end-to-end metric on each
side, the relative change of the medians, in how many pairs the change side
was better, whether a claimed gain on that metric would hold
(`claim_rule_met`: better in at least 9 of 10 pairs, and the medians apart
by more than the parent's interquartile range, in the better direction),
whether it regressed by the mirror rule (`regression_rule_met`: worse in at
least 9 of 10 pairs, and the medians apart by more than the parent's
interquartile range, in the worse direction), the median per-op fastest
times of each side with the pairs in which the op was slower on the change
side (at all, and by more than 3 %), and the traced per-layer metrics; then
machine information and the `tools/src_lines.py` totals of both trees.
On stderr it lists the ops more than 3 % slower in at least 8 of 10 pairs.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
import src_lines  # noqa: E402

PAIRS = 10
SLOWER = 1.03  # an op this many times its parent's time counts as slower
TRACED_SECONDS = 15
SEED0 = 901


def export_tree(rev: str, dest: Path) -> None:
    """Unpack the tree of rev (as `git archive` gives it) into dest."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, filter="data")


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run in tree: its result object plus its per-op fastest times."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    res = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=False)
    if res.returncode != 0:
        raise SystemExit(f"bench_pairs: {' '.join(cmd)} in {tree} failed:\n{res.stderr[-2000:]}")
    out = json.loads(res.stdout.strip().splitlines()[-1])
    ops_file = tree / "perfbench" / "out" / f"ops-{workload}-seed{seed}-trace{trace}.json"
    ops = json.loads(ops_file.read_text(encoding="utf-8"))["ops"]
    out["seed"] = seed
    out["ops_best_s"] = {op["name"]: op["best_s"] for op in ops}
    return out


def quartiles(xs: list) -> tuple:
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def summarize(parent: list, change: list, lower_is_better: set) -> dict:
    """Medians, quartiles, relative change and pairs won, per end-to-end metric and per op."""
    metrics = {}
    for name in parent[0]["metrics"]:
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        mp, mc = statistics.median(p), statistics.median(c)
        lower = name in lower_is_better
        better = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
        worse = sum((b > a) if lower else (b < a) for a, b in zip(p, c))
        gain = mp - mc if lower else mc - mp
        q1, q3 = quartiles(p)
        metrics[name] = {"unit": parent[0]["metrics"][name]["unit"],
                         "parent_median": mp, "change_median": mc,
                         "parent_quartiles": (q1, q3), "change_quartiles": quartiles(c),
                         "relative_change": (mc - mp) / mp if mp else None,
                         "change_better_pairs": better, "change_worse_pairs": worse,
                         "pairs": len(p),
                         "claim_rule_met": better >= 0.9 * len(p) and gain > q3 - q1,
                         "regression_rule_met": worse >= 0.9 * len(p) and -gain > q3 - q1}
    ops = {}
    for name in parent[0]["ops_best_s"]:
        p = [r["ops_best_s"][name] for r in parent]
        c = [r["ops_best_s"][name] for r in change]
        ops[name] = {"parent_median_s": statistics.median(p),
                     "change_median_s": statistics.median(c),
                     "change_slower_pairs": sum(b > a for a, b in zip(p, c)),
                     "change_slower_3pct_pairs": sum(b > SLOWER * a for a, b in zip(p, c))}
    return {"metrics": metrics, "ops": ops,
            "correct": all(r["correct"] for r in parent + change),
            "failed": {"parent": [r["failed"] for r in parent],
                       "change": [r["failed"] for r in change]}}


def machine() -> dict:
    info = {"platform": platform.platform(), "python": platform.python_version(),
            "cpu_count": os.cpu_count(), "numpy": numpy.__version__}
    for path, key, field in (("/proc/cpuinfo", "cpu_model", "model name"),
                             ("/proc/meminfo", "memory", "MemTotal")):
        try:
            for line in Path(path).read_text(encoding="utf-8").splitlines():
                if line.startswith(field):
                    info[key] = line.split(":", 1)[1].strip()
                    break
        except OSError:
            pass
    return info


def line_totals(package: Path) -> dict:
    raw = code = 0
    for path in sorted(package.glob("*.py")):
        r, c = src_lines.count(path)
        raw, code = raw + r, code + c
    return {"raw": raw, "code": code}


def main(argv: list) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pr", required=True, help="names the output file BENCH_<pr>.json")
    ap.add_argument("--base", default="HEAD", help="the parent commit (default HEAD)")
    args = ap.parse_args(argv[1:])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    lower = {m["name"] for m in bench["end_to_end"] if m["better"] == "lower"}
    base = subprocess.run(["git", "rev-parse", args.base], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()
    result = {"base": base, "pairs": PAIRS, "seconds": seconds,
              "command": "python3 perfbench/run.py --workload W --seed N "
                         f"--seconds {seconds:g} --trace 0", "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent_tree = Path(tmp)
        export_tree(base, parent_tree)
        sides = {"parent": parent_tree, "change": ROOT}
        for w in (wl["name"] for wl in bench["workloads"]):
            runs = {"parent": [], "change": []}
            for i in range(PAIRS):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    runs[side].append(run_once(sides[side], w, SEED0 + i, seconds, 0))
                    m = runs[side][-1]["metrics"]
                    sys.stderr.write(f"{w} pair {i} {side}: work_s {m['work_s']['value']:.4f}\n")
            entry = summarize(runs["parent"], runs["change"], lower)
            entry["runs"] = {side: [{k: v for k, v in r.items() if k != "ops_best_s"} for r in rs]
                             for side, rs in runs.items()}
            entry["traced"] = {side: run_once(sides[side], w, SEED0 + PAIRS,
                                              TRACED_SECONDS, 1)["metrics"]
                               for side in ("parent", "change")}
            result["workloads"][w] = entry
        result["src_lines"] = {"parent": line_totals(parent_tree / "src" / "qnlab"),
                               "change": line_totals(ROOT / "src" / "qnlab")}
    result["machine"] = machine()
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    for w, entry in result["workloads"].items():
        for name, m in entry["metrics"].items():
            sys.stderr.write(f"{w} {name}: {m['parent_median']:.4g} -> {m['change_median']:.4g} "
                             f"(better in {m['change_better_pairs']}/{m['pairs']}, "
                             f"claim rule met: {m['claim_rule_met']}, "
                             f"regression rule met: {m['regression_rule_met']})\n")
        for name, op in entry["ops"].items():
            if op["change_slower_3pct_pairs"] >= 0.8 * PAIRS:
                sys.stderr.write(f"{w} op {name} more than 3 % slower in "
                                 f"{op['change_slower_3pct_pairs']}/{PAIRS} pairs: "
                                 f"{op['parent_median_s'] * 1e3:.4g} -> "
                                 f"{op['change_median_s'] * 1e3:.4g} ms\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
