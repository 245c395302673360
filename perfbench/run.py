"""Run one qnlab benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload orlicz-probes --seed 1 --seconds 55 --trace 0

Run from the repository root; qnlab is imported from ./src.  Every op
runs in interleaved rounds until --seconds have passed; each round
rebuilds its inputs from the seed, times every op, then checks every
result.  An op's time is its fastest round.  --trace 0 prints the
end-to-end metrics, --trace 1 alternates untraced and traced rounds and
prints the per-layer metrics.  The last line of standard output is the
result object.  See README.md.
"""
import time

T0 = time.perf_counter()

import os  # noqa: E402

# one BLAS / OpenMP thread, fixed before numpy loads (children inherit it)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("orlicz-probes", "tensor-galb", "kernel-bulk", "cli-report")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up time and exit (the setup_s samples)")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "qnlab", "__init__.py")):
        sys.exit(f"perfbench: no qnlab sources under {SRC}")
    sys.path[:0] = [SRC, ROOT]
    import qnlab
    if os.path.dirname(os.path.abspath(qnlab.__file__)) != os.path.join(SRC, "qnlab"):
        sys.exit(f"perfbench: imported qnlab from {qnlab.__file__}, not from {SRC}")
    from perfbench import bench

    if args.setup_only:
        bench.set_up(args.workload, args.seed)
        print(json.dumps({"setup_s": time.perf_counter() - T0}))
        return
    child = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    bench.main(args.workload, args.seed, args.seconds, bool(args.trace), T0, child, ROOT)


if __name__ == "__main__":
    main()
