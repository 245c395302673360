"""Time the Luxemburg float solver against the vector code, by row count.

    python3 tools/lux_crossover.py [--rows 10-24] [--widths 2,6,16,128]
                                   [--repeat 7] [--number 20]

Run from the repository root; qnlab is imported from ./src.  For each row
width n and row count m, one batch of m loglog rows and one of m rational
rows, with entries drawn from e^+-3, are solved by `gauges._lux_rows` at the
Orlicz default tol, once with the switch `gauges._LUX_FEW` at m (every row
goes to the float solver) and once at 0 (the vector code), alternating
between the two.  The switch is set on this process's copy of the module
only.  A time is the best of --repeat runs of --number solves of both
batches.  Both solvers must give the same bits on every batch.

Prints float time over vector time per width and row count, then the
largest row count at which the float solver was faster at every width (a
value for `_LUX_FEW`).
"""
from __future__ import annotations

import argparse
import sys
import timeit
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from qnlab import gauges  # noqa: E402


def _batches(m: int, n: int, seed: int):
    rng = np.random.default_rng([seed, m, n])
    return [(phi, np.exp(rng.uniform(-3.0, 3.0, size=(m, n))))
            for phi in (gauges.builtin_phi("loglog"), gauges.builtin_phi("rational"))]


def _time(batches, w, few: int, number: int) -> float:
    gauges._LUX_FEW = few
    return timeit.timeit(lambda: [gauges._lux_rows(phi, rows, w, gauges.DEFAULT_LUX_TOL)
                                  for phi, rows in batches], number=number) / number


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rows", default="10-24", help="row counts, as lo-hi")
    ap.add_argument("--widths", default="2,6,16,128", help="row widths n")
    ap.add_argument("--repeat", type=int, default=7)
    ap.add_argument("--number", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    lo, hi = (int(v) for v in args.rows.split("-"))
    counts = range(lo, hi + 1)
    widths = [int(v) for v in args.widths.split(",")]

    faster = {m: True for m in counts}
    for n in widths:
        w = np.ones(n)
        ratios = []
        for m in counts:
            batches = _batches(m, n, args.seed)
            bits = []
            for few in (m, 0):
                gauges._LUX_FEW = few
                bits.append([gauges._lux_rows(phi, rows, w, gauges.DEFAULT_LUX_TOL).tobytes()
                             for phi, rows in batches])
            if bits[0] != bits[1]:
                sys.exit(f"lux_crossover: the solvers differ at n = {n}, m = {m}")
            best = [float("inf"), float("inf")]
            for _ in range(args.repeat):
                for i, few in enumerate((m, 0)):
                    best[i] = min(best[i], _time(batches, w, few, args.number))
            ratios.append(best[0] / best[1])
            faster[m] = faster[m] and best[0] < best[1]
        print(f"n = {n:4d}: " + ", ".join(f"{m}: {r:.2f}" for m, r in zip(counts, ratios)))
    below = [m for m in counts if all(faster[k] for k in range(lo, m + 1))]
    print(f"float solver faster at every width up to {below[-1] if below else lo - 1} rows")


if __name__ == "__main__":
    main()
