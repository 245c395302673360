"""Compare the `qnlab` command line of a base commit and of the working tree, byte for byte.

    python3 tools/cli_bytediff.py [--base HEAD]

Run from the repository root.  The base commit's tree is exported with
`git archive` into a temporary directory (the repository itself is left
as it is); the change side is the working tree.  Each invocation below runs
as `python3 -m qnlab.cli ARGS` in a fresh process on both sides, with the
side's `src` first on PYTHONPATH.  The single-quantity commands and the
suites run in json and in csv; the malformed inputs and the help texts run
once.  An invocation is the same when its exit code, stdout and stderr are
equal bytes on both sides.  Prints one line per invocation and, for one
that differs, the first differing lines of each stream; exits 1 when any
invocation differs.
"""
from __future__ import annotations

import argparse
import difflib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
from bench_pairs import export_tree  # noqa: E402

W3 = '{"weights": [0.5, 1.0, 2.0]}'
F3 = '{"values": [0.3, -1.7, 2.9], "signed": true}'
LP = '{"kind": "lp", "p": 0.5}'
LOGLOG = '{"kind": "orlicz", "phi": "loglog"}'
RATIONAL = '{"kind": "orlicz", "phi": "rational"}'
W2 = '{"weights": [1.0, 2.0]}'
REP = ('{"xs": [[1, 0.5], [-0.3, 2]], "fs": [[1, 2, 0.5], [0.2, -1, 3]],'
       ' "target": {"kind": "lq", "dim": 2, "q": 0.5}, "lam": {"kind": "lp", "p": 1}}')

# every proposal of this search merges: all vectors of a dim-1 target are colinear
REP_DIM1 = ('{"xs": [[1], [-0.5], [2]], "fs": [[1, 2, 0.5], [0.2, -1, 3], [0.7, 0.1, -0.4]],'
            ' "target": {"kind": "lq", "dim": 1, "q": 0.5}, "lam": {"kind": "weak_l1"}}')
# a rank-one representation, whose colinear terms merge into one
REP_RANK1 = ('{"xs": [[1, 2], [-0.5, -1], [3, 6]], "fs": [[1, 2, 0.5], [0.2, -1, 3], [0.7, 0.1, -0.4]],'
             ' "target": {"kind": "lq", "dim": 2, "q": 0.5}, "lam": {"kind": "lp", "p": 0.5}}')


def _eval(gauge: str) -> list:
    return ["eval", "--gauge", gauge, "--space", W3, "--field", F3]


# (name, argv) of the commands run in json and in csv
COMMANDS = [
    ("eval-lp", _eval(LP)),
    ("eval-weak", _eval('{"kind": "weak_l1"}')),
    ("eval-loglog", _eval(LOGLOG)),
    ("eval-rational", _eval('{"kind": "orlicz", "phi": "rational", "tol": 1e-9}')),
    ("eval-power", _eval('{"kind": "orlicz", "phi": "power", "p": 0.5}')),
    # a row whose Luxemburg solve bisects to the step cap (52 phi calls)
    ("eval-rational-fallback", ["eval", "--gauge", RATIONAL, "--space", '{"weights": [1.0, 1.0]}',
                                "--field", '{"values": [1.0, 1.58e-4]}']),
    ("eval-convexified-lp", _eval('{"kind": "convexified", "base": %s, "r": 2}' % LP)),
    ("eval-convexified-loglog", _eval('{"kind": "convexified", "base": %s, "r": 1.5}' % LOGLOG)),
    ("eval-intersect", _eval('{"kind": "intersect", "g1": %s, "g2": {"kind": "weak_l1"},'
                             ' "budget": 4}' % LP)),
    # Luxemburg rows in the splitting search, at the default budget
    ("eval-intersect-loglog", _eval('{"kind": "intersect", "g1": %s, "g2": %s}' % (LP, LOGLOG))),
    ("eval-vectors", ["eval", "--gauge", LOGLOG, "--space", '{"weights": [1.0, 1.0]}',
                      "--vectors", "[[3.0, 4.0], [1.0, 0.0]]",
                      "--target", '{"kind": "lq", "dim": 2, "q": 0.5}']),
    ("rolewicz", ["rolewicz", "--p", "0.5", "--n", "16"]),
    ("mii", ["mii", "--gauge-a", '{"kind": "lp", "p": 2}', "--gauge-b", '{"kind": "lp", "p": 1}',
             "--dims", "4x4,3x5", "--trials", "20", "--bound", "1.000000001"]),
    ("mii-violated", ["mii", "--gauge-a", '{"kind": "lp", "p": 1}', "--gauge-b", LP,
                      "--dims", "3x3", "--trials", "10", "--bound", "0.5", "--seed", "4"]),
    ("galb-lq", ["galb-estimate", "--target", '{"kind": "lq", "dim": 4, "q": 0.5}',
                 "--coefficients", "[1.0, 0.5, 0.25]", "--budget", "200", "--seed", "3"]),
    ("galb-loglog", ["galb-estimate", "--target", '{"kind": "orlicz", "phi": "loglog", "dim": 3}',
                     "--coefficients", '{"values": [1.0, 0.5]}', "--budget", "100",
                     "--no-analytic"]),
    ("tensor-norm", ["tensor-norm", "--rep", REP, "--space", W3, "--budget", "50", "--seed", "2"]),
    ("tensor-norm-dim1", ["tensor-norm", "--rep", REP_DIM1, "--space", W3, "--budget", "200"]),
    ("tensor-norm-rank1", ["tensor-norm", "--rep", REP_RANK1, "--space", W3, "--budget", "200"]),
    ("envelope-loglog", ["envelope", "--gauge", LOGLOG, "--p", "0.5", "--space", W3,
                         "--field", F3, "--budget", "6"]),
    ("envelope-rational", ["envelope", "--gauge", RATIONAL, "--p", "0.5", "--space", W2,
                           "--field", '{"values": [0.3, 1.7]}', "--budget", "6"]),
    ("envelope-lp", ["envelope", "--gauge", LP, "--p", "0.5", "--space", W3, "--field", F3]),
    ("dual-loglog", ["dual", "--gauge", LOGLOG, "--space", W3, "--field", F3, "--budget", "20"]),
    # 20 one-row Luxemburg solves in the hill climb
    ("dual-rational", ["dual", "--gauge", RATIONAL, "--space", W3, "--field", F3, "--budget", "20"]),
    ("dual-lp", ["dual", "--gauge", '{"kind": "lp", "p": 3}', "--space", W3, "--field", F3]),
    ("ftc", ["ftc", "--cells", "32", "--samples", "0,5,31", "--scales", "0.25,0.125,2"]),
    ("suite-amenability", ["suite", "--name", "amenability", "--trials", "5"]),
    ("suite-counterexample", ["suite", "--name", "counterexample"]),
    ("suite-ftc", ["suite", "--name", "ftc", "--cells", "64"]),
    ("suite-galb", ["suite", "--name", "galb", "--trials", "2", "--budget", "30"]),
    ("suite-leveling", ["suite", "--name", "leveling", "--trials", "9"]),
    ("suite-mii", ["suite", "--name", "mii", "--trials", "2"]),
    ("suite-orlicz-concavity", ["suite", "--name", "orlicz-concavity", "--trials", "2"]),
    ("suite-tensor-oracle", ["suite", "--name", "tensor-oracle", "--trials", "2",
                             "--budget", "10"]),
    ("report", ["report", "--trials", "1", "--budget", "10", "--cells", "64"]),
]

# (name, argv) run once: malformed inputs (exit 2) and help texts
ONCE = [
    ("bad-kind", ["eval", "--gauge", '{"kind": "nope"}', "--space", W3, "--field", F3]),
    ("bad-json", ["eval", "--gauge", "{not json", "--space", W3, "--field", F3]),
    ("bad-tol", ["eval", "--gauge", '{"kind": "orlicz", "phi": "loglog", "tol": 0}',
                 "--space", W3, "--field", F3]),
    ("bad-weights", ["eval", "--gauge", LP, "--space", '{"weights": [1.0, -1.0, 1.0]}',
                     "--field", F3]),
    ("short-field", ["eval", "--gauge", LP, "--space", W3, "--field", '{"values": [1.0]}']),
    ("no-field", ["eval", "--gauge", LP, "--space", W3]),
    ("no-target", ["eval", "--gauge", LP, "--space", W3, "--vectors", "[[1.0]]"]),
    ("bad-rolewicz", ["rolewicz", "--p", "1.5", "--n", "4"]),
    ("bad-dims", ["mii", "--gauge-a", LP, "--gauge-b", LP, "--dims", "4by4"]),
    ("zero-dims", ["mii", "--gauge-a", LP, "--gauge-b", LP, "--dims", "0x3"]),
    ("nan-bound", ["mii", "--gauge-a", LP, "--gauge-b", LP, "--bound", "nan"]),
    ("intersect-target", ["galb-estimate", "--target", '{"kind": "intersect", "g1": %s,'
                          ' "g2": %s, "dim": 2}' % (LP, LP), "--coefficients", "[1.0]"]),
    ("inf-coefficient", ["galb-estimate", "--target", '{"kind": "lq", "dim": 2, "q": 2}',
                         "--coefficients", "[1e400]", "--budget", "10"]),
    ("bad-budget", ["galb-estimate", "--target", '{"kind": "lq", "dim": 2, "q": 2}',
                    "--coefficients", "[1.0]", "--budget", "-1"]),
    ("nan-p", ["envelope", "--gauge", LP, "--p", "nan", "--space", W3, "--field", F3]),
    ("zero-scale", ["ftc", "--cells", "16", "--scales", "0.5,0"]),
    ("inf-scale", ["ftc", "--cells", "16", "--scales", "inf"]),
    ("zero-cells", ["suite", "--name", "ftc", "--cells", "0"]),
    ("nan-tol", ["report", "--tol", "nan"]),
    ("help", ["--help"]),
    ("help-suite", ["suite", "--help"]),
    ("help-report", ["report", "--help"]),
    ("help-eval", ["eval", "--help"]),
]


def run(tree: Path, argv: list) -> tuple:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    res = subprocess.run([sys.executable, "-m", "qnlab.cli"] + argv, cwd=tree, env=env,
                         capture_output=True, check=False)
    return res.returncode, res.stdout, res.stderr


def _diff(name: str, a: bytes, b: bytes) -> list:
    lines = difflib.unified_diff(a.decode(errors="replace").splitlines(),
                                 b.decode(errors="replace").splitlines(),
                                 f"base {name}", f"change {name}", n=0, lineterm="")
    return list(lines)[:12]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", default="HEAD")
    args = ap.parse_args()
    cases = ([(f"{n}-json", a) for n, a in COMMANDS]
             + [(f"{n}-csv", a + ["--format", "csv"]) for n, a in COMMANDS] + ONCE)
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        export_tree(args.base, base)
        for name, argv in cases:
            old, new = run(base, argv), run(ROOT, argv)
            same = old == new
            differ += not same
            codes = f"exit {old[0]}" if old[0] == new[0] else f"exit {old[0]} -> {new[0]}"
            print(f"{'same   ' if same else 'DIFFERS'} {name} ({codes})")
            for stream, a, b in (("stdout", old[1], new[1]), ("stderr", old[2], new[2])):
                if a != b:
                    print("\n".join("    " + line for line in _diff(stream, a, b)))
    print(f"{len(cases) - differ} of {len(cases)} invocations byte-identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
