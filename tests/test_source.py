"""Source hygiene checks over the modules of src/qnlab."""
import ast
import importlib.util
import subprocess
import sys
from pathlib import Path

import qnlab

PACKAGE = Path(qnlab.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def _unused_imports(tree: ast.AST) -> list:
    """Names a module imports but never reads (__future__ imports aside)."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py re-exports what it imports, so it is left out
    found = {
        path.name: _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert {name: unused for name, unused in found.items() if unused} == {}


def test_importing_qnlab_loads_no_scipy_module():
    # a fresh interpreter, so modules the test run imported do not count
    code = ("import sys, qnlab, qnlab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=PACKAGE.parent)
    assert out.stdout.strip() == "[]"


def test_cli_eval_on_an_orlicz_gauge_adds_under_16_mb_of_peak_rss():
    # a fresh interpreter, whose kernel check of loglog runs inside the eval.
    # Its peak RSS is read as VmHWM, the peak of its own address space: the
    # ru_maxrss of a process started from this one would keep this one's peak
    code = (
        "import contextlib, io, qnlab.cli\n"
        "def peak_kib():\n"
        "    with open('/proc/self/status') as f:\n"
        "        return next(int(l.split()[1]) for l in f if l.startswith('VmHWM:'))\n"
        "before = peak_kib()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = qnlab.cli.main(['eval', '--gauge', '{\"kind\": \"orlicz\", \"phi\": \"loglog\"}',\n"
        "                           '--space', '{\"weights\": [1.0, 2.0, 0.5]}',\n"
        "                           '--field', '{\"values\": [1.0, 0.25, 3.0]}'])\n"
        "print(code, peak_kib() - before)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=PACKAGE.parent)
    code, grown_kib = map(int, out.stdout.split())
    assert code == 0
    assert grown_kib < 16 * 1024


def test_every_name_the_benchmark_tracer_wraps_exists():
    # the tracer looks each name up when it installs its wrappers, a method
    # in its class's own __dict__, so a traced run fails on a name that is gone
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for modname, attr, _, _ in tracer.SPECS:
        mod = importlib.import_module(modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name, None)
            found = cls is not None and meth in vars(cls)
        else:
            found = callable(getattr(mod, attr, None))
        if not found:
            missing.append(f"{modname}.{attr}")
    assert missing == []


def _tool(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, cwd=ROOT)


def test_src_lines_totals_every_module_of_the_package():
    out = _tool("tools/src_lines.py", "src/qnlab")
    assert out.returncode == 0, out.stderr
    *files, total = [line.split() for line in out.stdout.splitlines()]
    assert [f[2] for f in files] == sorted(p.name for p in (ROOT / "src" / "qnlab").glob("*.py"))
    assert total[2] == "total"
    assert [int(v) for v in total[:2]] == [sum(int(f[i]) for f in files) for i in (0, 1)]
    assert 0 < int(total[1]) < int(total[0])


def test_lux_crossover_runs_and_both_solvers_give_the_same_bits():
    # it exits non-zero when the float and vector solvers differ in bits;
    # width 6000 takes the two-round start read (12 m n > 2^16)
    out = _tool("tools/lux_crossover.py", "--rows", "1-2", "--widths", "2,6000",
                "--repeat", "1", "--number", "1")
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1].startswith("float solver faster at every width up to")
