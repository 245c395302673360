import csv
import dataclasses
import io
import json

import numpy as np
import pytest

from qnlab import (
    CounterexampleReport,
    Decomposition,
    DifferentiationReport,
    GalbWitness,
    InputError,
    Lp,
    MeasureSpace,
    Orlicz,
    Partition,
    ScalarField,
    TensorRep,
    VectorField,
    Weak11Report,
    WeakL1,
    builtin_phi,
    checks,
    cli,
    counting_space,
    eval_gauge,
    lq_space,
    rolewicz_counterexample,
    weak11_constant,
    GridSpace,
)
from qnlab.cli import build_parser, main
from qnlab.integration import _ROLEWICZ_MAX_N
from qnlab.serialize import dumps_json, flatten_for_csv, parse_partition, parse_scalar_field

REPORT_ARGS = ["report", "--trials", "8", "--budget", "300", "--cells", "256"]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# single-quantity commands against the API
# ---------------------------------------------------------------------------

def test_eval_matches_direct_api(capsys):
    code, out, err = run(capsys, [
        "eval",
        "--gauge", '{"kind": "lp", "p": 0.5}',
        "--space", '{"weights": [2.0, 0.5, 1.0]}',
        "--field", '{"values": [1.0, 4.0, 0.25]}',
    ])
    assert code == 0 and err == ""
    payload = json.loads(out)
    want = eval_gauge(Lp(0.5), MeasureSpace(np.array([2.0, 0.5, 1.0])),
                      ScalarField(np.array([1.0, 4.0, 0.25]))).value
    assert payload["value"] == want
    assert payload["tag"] == "exact"
    assert payload["gauge"] == "L0.5"
    assert out.endswith("\n")


def test_eval_vector_field_route(capsys):
    code, out, _ = run(capsys, [
        "eval",
        "--gauge", '{"kind": "weak_l1"}',
        "--space", '{"weights": [1.0, 1.0]}',
        "--vectors", '{"vectors": [[3.0, 4.0], [1.0, 0.0]]}',
        "--target", '{"kind": "lq", "dim": 2, "q": 1.0}',
    ])
    assert code == 0
    payload = json.loads(out)
    space = MeasureSpace(np.ones(2))
    want = eval_gauge(WeakL1(), space,
                      ScalarField(np.array([7.0, 1.0]))).value
    assert payload["value"] == want


def test_rolewicz_matches_direct_api(capsys):
    code, out, _ = run(capsys, ["rolewicz", "--p", "0.5", "--n", "16"])
    assert code == 0
    payload = json.loads(out)
    rep = rolewicz_counterexample(0.5, 16)
    assert payload["blowup_ratio"] == rep.blowup_ratio == 16.0
    assert payload["sup_part_norm"] == rep.sup_part_norm
    assert payload["riemann_sum_norm"] == 1.0


# (p, n) whose part norm n^(1 - 1/p) underflows, so that the ratio n^(1/p - 1)
# is beyond the float range: to 0 at p = 1e-300, subnormal at p = 0.0009756
@pytest.mark.parametrize("p,n", [("1e-300", "2"), ("0.0009756", "2"), ("5e-324", "3")])
def test_rolewicz_refuses_a_part_norm_that_underflows(capsys, p, n):
    code, out, err = run(capsys, ["rolewicz", "--p", p, "--n", n])
    assert code == 2 and out == ""
    assert err.startswith("error: the part norm n^(1 - 1/p) underflows")


@pytest.mark.parametrize("n", [_ROLEWICZ_MAX_N + 1, 10**5])
def test_rolewicz_refuses_too_many_atoms_before_building_the_parts(capsys, monkeypatch, n):
    # the n x n part matrix is never built: n = 10^5 would take 80 GB
    monkeypatch.setattr(np, "eye", None)
    code, out, err = run(capsys, ["rolewicz", "--p", "0.5", "--n", str(n)])
    assert code == 2 and out == ""
    assert err == f"error: the blow-up family takes 1 to {_ROLEWICZ_MAX_N} atoms, got {n}\n"


def test_a_failed_library_self_check_exits_one_with_an_error_line(capsys, monkeypatch):
    # as rolewicz_counterexample(0.02, 2250) fails its 1e-12 check, without its 40 MB matrix
    def fails(p, n):
        raise AssertionError("blow-up family disagrees with closed form: "
                             "1.0000000000012768 vs 1.0")

    monkeypatch.setattr(cli, "rolewicz_counterexample", fails)
    for fmt in ("json", "csv"):
        code, out, err = run(capsys, ["rolewicz", "--p", "0.02", "--n", "2250", "--format", fmt])
        assert code == 1 and out == ""
        assert err == ("error: blow-up family disagrees with closed form: "
                       "1.0000000000012768 vs 1.0\n")


def test_ftc_reports_the_measured_constant(capsys):
    code, out, _ = run(capsys, ["ftc", "--cells", "64"])
    assert code == 0
    payload = json.loads(out)
    g = GridSpace(1, 64)
    f = np.zeros(64)
    f[32] = 1.0
    want = weak11_constant(g, f).constant
    assert payload["weak11"]["constant"] == pytest.approx(want, rel=1e-15)


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_report_is_deterministic_and_green(capsys):
    code1, out1, _ = run(capsys, REPORT_ARGS)
    code2, out2, _ = run(capsys, REPORT_ARGS)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["passed"] is True
    assert sorted(payload["suites"]) == [
        "amenability", "counterexample", "ftc", "galb", "leveling",
        "mii", "orlicz-concavity", "tensor-oracle",
    ]
    assert all(sub["passed"] for sub in payload["suites"].values())


def test_csv_format_is_deterministic(capsys):
    argv = REPORT_ARGS + ["--format", "csv"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2


# ---------------------------------------------------------------------------
# exit-code contract
# ---------------------------------------------------------------------------

def test_violated_bound_exits_one_with_witness(capsys):
    code, out, _ = run(capsys, [
        "mii",
        "--gauge-a", '{"kind": "lp", "p": 1.0}',
        "--gauge-b", '{"kind": "lp", "p": 2.0}',
        "--dims", "4x4",
        "--trials", "5",
        "--bound", "1.0",
    ])
    assert code == 1
    payload = json.loads(out)
    assert payload["max_ratio"] >= 2.0 - 1e-12  # identity matrix reaches sqrt(4)
    assert payload["bound"] == 1.0
    assert "witness" in payload
    wit = np.asarray(payload["witness"], dtype=float)
    assert wit.shape == tuple(payload["witness_shape"])


def test_satisfied_bound_exits_zero(capsys):
    code, out, _ = run(capsys, [
        "mii",
        "--gauge-a", '{"kind": "lp", "p": 2.0}',
        "--gauge-b", '{"kind": "lp", "p": 1.0}',
        "--dims", "4x4,8x8",
        "--trials", "20",
        "--bound", "1.000000001",
    ])
    assert code == 0
    payload = json.loads(out)
    assert payload["max_ratio"] <= 1.000000001
    assert "witness" not in payload


# array inputs with a JSON number beyond the float range, NaN or Infinity
NON_FINITE_ARRAYS = (
    ["galb-estimate", "--target", '{"kind": "lq", "dim": 2, "q": 2}',
     "--coefficients", "[1e400]", "--budget", "10"],
    ["galb-estimate", "--target", '{"kind": "lq", "dim": 2, "q": 2}',
     "--coefficients", '{"values": [1.0, NaN]}'],
    ["galb-estimate", "--target", '{"kind": "lq", "dim": 2, "q": 2}',
     "--coefficients", "[-Infinity]"],
    ["eval", "--gauge", '{"kind": "lp", "p": 1.0}', "--space", '{"weights": [1.0, 1e400]}',
     "--field", '{"values": [1.0, 1.0]}'],
    ["eval", "--gauge", '{"kind": "lp", "p": 1.0}', "--space", '{"weights": [1.0]}',
     "--field", '{"values": [NaN]}'],
    ["eval", "--gauge", '{"kind": "lp", "p": 1.0}', "--space", '{"weights": [1.0]}',
     "--vectors", "[[Infinity]]", "--target", '{"kind": "lq", "dim": 1, "q": 1}'],
    ["tensor-norm", "--rep", '{"xs": [[1e400]], "fs": [[1.0]], "target": {"kind": "lq",'
     ' "dim": 1, "q": 1}, "lam": {"kind": "lp", "p": 1}}', "--space", '{"weights": [1.0]}'],
)


def test_malformed_inputs_exit_two(capsys):
    cases = (
        ["eval", "--gauge", '{"kind": "nope"}', "--space", '{"weights": [1.0]}',
         "--field", '{"values": [1.0]}'],
        ["eval", "--gauge", "{not json", "--space", '{"weights": [1.0]}',
         "--field", '{"values": [1.0]}'],
        ["eval", "--gauge", "@/no/such/file.json", "--space",
         '{"weights": [1.0]}', "--field", '{"values": [1.0]}'],
        ["rolewicz", "--p", "1.5", "--n", "4"],
        ["eval", "--gauge", '{"kind": "orlicz", "phi": "loglog", "tol": 0}',
         "--space", '{"weights": [1.0]}', "--field", '{"values": [1.0]}'],
        ["eval", "--gauge", '{"kind": "orlicz", "phi": "loglog", "tol": NaN}',
         "--space", '{"weights": [1.0]}', "--field", '{"values": [1.0]}'],
        ["eval", "--gauge", '{"kind": "lp", "p": 1.0}',
         "--space", '{"weights": [1.0, -1.0]}', "--field",
         '{"values": [1.0, 1.0]}'],
        ["mii", "--gauge-a", '{"kind": "lp", "p": 1.0}',
         "--gauge-b", '{"kind": "lp", "p": 1.0}', "--dims", "4by4"],
        # malformed numbers in JSON fields
        ["galb-estimate", "--target", '{"kind": "lq", "dim": "x", "q": 2}',
         "--coefficients", "[1.0]"],
        ["galb-estimate", "--target", '{"kind": "lq", "dim": 2.7, "q": 2}',
         "--coefficients", "[1.0]"],
        ["galb-estimate", "--target", '{"kind": "lq", "dim": true, "q": 2}',
         "--coefficients", "[1.0]"],
        ["eval", "--gauge", '{"kind": "lp", "p": "abc"}',
         "--space", '{"weights": [1.0]}', "--field", '{"values": [1.0]}'],
        ["eval", "--gauge", '{"kind": "lp", "p": null}',
         "--space", '{"weights": [1.0]}', "--field", '{"values": [1.0]}'],
        ["eval", "--gauge", '{"kind": "intersect", "g1": {"kind": "lp", "p": 1},'
         ' "g2": {"kind": "lp", "p": 2}, "budget": "x"}',
         "--space", '{"weights": [1.0]}', "--field", '{"values": [1.0]}'],
        ["eval", "--gauge", '{"kind": "lp", "p": 1.0}', "--space", '{"weights": [1.0]}',
         "--vectors", '[["a"]]', "--target", '{"kind": "lq", "dim": 1, "q": 1}'],
        ["eval", "--gauge", '{"kind": "lp", "p": 1.0}', "--space", '{"weights": [1.0]}',
         "--field", '{"values": [1.0], "signed": "no"}'],
        # a target norm must be exact
        ["galb-estimate", "--target", '{"kind": "intersect", "g1": {"kind": "lp", "p": 1},'
         ' "g2": {"kind": "lp", "p": 2}, "dim": 2}', "--coefficients", "[1.0]"],
        ["suite", "--name", "ftc", "--cells", "0"],
        # a halfwidth beyond the float range, and an empty dimension
        ["ftc", "--cells", "16", "--scales", "inf"],
        ["ftc", "--cells", "16", "--scales", "0.25,1e400"],
        ["mii", "--gauge-a", '{"kind": "lp", "p": 1.0}',
         "--gauge-b", '{"kind": "lp", "p": 1.0}', "--dims", "0x3"],
        # more matrix entries than one mii dimension pair may draw, refused
        # before any is allocated (the first would take 74.5 GiB)
        ["mii", "--gauge-a", '{"kind": "lp", "p": 1.0}',
         "--gauge-b", '{"kind": "lp", "p": 1.0}', "--dims", "100000x100000", "--trials", "1"],
        ["mii", "--gauge-a", '{"kind": "lp", "p": 1.0}',
         "--gauge-b", '{"kind": "lp", "p": 1.0}', "--dims", "4x4,4097x4097", "--trials", "1"],
    ) + NON_FINITE_ARRAYS
    for argv in cases:
        code, out, err = run(capsys, argv)
        assert code == 2, argv
        assert err.startswith("error:"), argv
    # a non-finite array entry is refused where it is parsed, naming its key
    for argv in NON_FINITE_ARRAYS:
        code, out, err = run(capsys, argv)
        assert out == "" and err.endswith("entries must be finite numbers\n"), argv
    # an empty battery or a non-finite tolerance is refused before any check runs
    flag_cases = (
        ["suite", "--name", "orlicz-concavity", "--trials", "0"],
        ["suite", "--name", "leveling", "--trials", "-1"],
        ["report", "--trials", "0"],
        ["mii", "--gauge-a", '{"kind": "lp", "p": 2.0}',
         "--gauge-b", '{"kind": "lp", "p": 1.0}', "--trials", "0"],
        ["suite", "--name", "mii", "--tol", "nan"],
        ["report", "--tol", "inf"],
        # a search budget: positive for the batteries, non-negative where 0
        # means the closed form alone
        ["suite", "--name", "tensor-oracle", "--budget", "0"],
        ["suite", "--name", "galb", "--budget", "-5", "--trials", "2"],
        ["report", "--budget", "0"],
        ["galb-estimate", "--target", '{"kind": "lq", "dim": 2, "q": 2}',
         "--coefficients", "[1.0]", "--budget", "-1"],
        ["tensor-norm", "--rep", "{}", "--space", "{}", "--budget", "-1"],
        ["envelope", "--gauge", '{"kind": "lp", "p": 1.0}', "--p", "0.5", "--space",
         '{"weights": [1.0]}', "--field", '{"values": [1.0]}', "--budget", "-2"],
        ["dual", "--gauge", '{"kind": "lp", "p": 1.0}', "--space", '{"weights": [1.0]}',
         "--field", '{"values": [1.0]}', "--budget", "x"],
        # a bound or an exponent that is not a finite number
        ["mii", "--gauge-a", '{"kind": "lp", "p": 2.0}',
         "--gauge-b", '{"kind": "lp", "p": 1.0}', "--bound", "nan"],
        ["envelope", "--gauge", '{"kind": "lp", "p": 1.0}', "--p", "nan", "--space",
         '{"weights": [1.0]}', "--field", '{"values": [1.0]}'],
        ["envelope", "--gauge", '{"kind": "lp", "p": 1.0}', "--p", "inf", "--space",
         '{"weights": [1.0]}', "--field", '{"values": [1.0]}'],
    )
    for argv in flag_cases:
        code, out, err = run(capsys, argv)
        assert code == 2 and out == "", argv
        assert "error: argument --" in err, argv


def test_partition_and_field_parsers_are_strict():
    # block entries follow the integer rule of every other JSON count
    for blocks in ([[0.7, 1.9]], [[True, False]], [[0, None]], [["0"]], [1], "x"):
        with pytest.raises(InputError):
            parse_partition({"blocks": blocks})
    assert parse_partition({"blocks": [[0, 1.0], [2]]}).blocks == ((0, 1), (2,))
    for signed in ("no", "true", 1, 0, None):
        with pytest.raises(InputError):
            parse_scalar_field({"values": [1.0], "signed": signed})
    assert parse_scalar_field({"values": [-1.0], "signed": True}).signed is True
    assert parse_scalar_field({"values": [1.0]}).signed is False


def test_orlicz_target_from_cli_json(capsys):
    code, out, err = run(capsys, [
        "galb-estimate",
        "--target", '{"kind": "orlicz", "phi": "loglog", "dim": 3}',
        "--coefficients", "[1.0, 0.5]",
        "--budget", "200",
    ])
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["target"] == "Orlicz[loglog]^3"
    assert payload["tag"] == "lower" and payload["value"] > 1.5


def test_no_arguments_is_a_usage_error(capsys):
    code, _, _ = run(capsys, [])
    assert code == 2


def test_parser_built_once_keeps_calls_apart(capsys):
    # one parser serves every in-process call; no call leaves state in it
    assert build_parser() is build_parser()
    good = ["eval", "--gauge", '{"kind": "intersect", "g1": {"kind": "lp", "p": 1},'
            ' "g2": {"kind": "lp", "p": 0.5}, "budget": 3}',
            "--space", '{"weights": [1.0, 2.0, 0.5]}', "--field", '{"values": [1.0, 0.25, 3.0]}',
            "--format", "csv"]
    first = run(capsys, good)
    assert first[0] == 0 and first[2] == ""
    for _ in range(2):
        assert run(capsys, good) == first
    code, out, err = run(capsys, ["eval", "--gauge", '{"kind": "lp", "p": 1}', "--format", "xml"])
    assert code == 2 and out == "" and "usage: qnlab eval" in err
    assert run(capsys, [])[0] == 2
    assert run(capsys, good) == first


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def test_csv_round_trips_through_the_csv_module(capsys):
    code, out, _ = run(capsys, [
        "eval",
        "--gauge", '{"kind": "lp", "p": 1.0}',
        "--space", '{"weights": [1.0, 2.0]}',
        "--field", '{"values": [3.0, 0.5]}',
        "--format", "csv",
    ])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["key", "value"]
    table = {k: v for k, v in rows[1:]}
    assert float(table["value"]) == 4.0
    assert table["tag"] == "exact"
    assert table["command"] == "eval"


def test_out_file_matches_stdout(tmp_path, capsys):
    argv = ["rolewicz", "--p", "0.5", "--n", "4"]
    _, out, _ = run(capsys, argv)
    target = tmp_path / "payload.json"
    code, piped, _ = run(capsys, argv + ["--out", str(target)])
    assert code == 0
    assert piped == ""  # everything went into the file
    assert target.read_text(encoding="utf-8") == out


def test_json_is_sorted_and_lf_terminated(capsys):
    _, out, _ = run(capsys, ["rolewicz", "--p", "0.5", "--n", "4"])
    assert out.endswith("\n") and not out.endswith("\r\n")
    payload = json.loads(out)
    assert list(payload) == sorted(payload)


# the JSON shape of each report and witness: exactly its fields
REPORTS = (
    (CounterexampleReport(p=0.5, n=4, sup_part_norm=0.25, riemann_sum_norm=1.0,
                          blowup_ratio=4.0),
     {"p": 0.5, "n": 4, "sup_part_norm": 0.25, "riemann_sum_norm": 1.0, "blowup_ratio": 4.0}),
    (Weak11Report(weak_norm=2.0, input_size=1.0, constant=2.0),
     {"weak_norm": 2.0, "input_size": 1.0, "constant": 2.0}),
    (DifferentiationReport(per_scale=((0.25, 0.0), (0.125, 1.5)), max_error=1.5),
     {"per_scale": [[0.25, 0.0], [0.125, 1.5]], "max_error": 1.5}),
    (GalbWitness(coefficients=np.array([1.0, 0.5]), vectors=np.array([[1.0, 0.0], [0.0, 0.5]]),
                 value=1.5),
     {"coefficients": [1.0, 0.5], "vectors": [[1.0, 0.0], [0.0, 0.5]], "value": 1.5}),
    (Decomposition((ScalarField(np.array([1.0, 2.0])), ScalarField(np.array([0.5, 0.0])))),
     {"parts": [{"values": [1.0, 2.0]}, {"values": [0.5, 0.0]}]}),
    (Partition(((0, 2), (1,))), {"blocks": [[0, 2], [1]]}),
)


@pytest.mark.parametrize("obj,want", REPORTS, ids=[type(obj).__name__ for obj, _ in REPORTS])
def test_reports_and_witnesses_are_written_by_their_fields(obj, want):
    assert set(want) == {f.name for f in dataclasses.fields(obj)}
    assert json.loads(dumps_json(obj)) == want
    assert flatten_for_csv(obj) == flatten_for_csv(want)


# fields and tensor representations: their arrays, without signed, target or lam
ARRAYS = (
    (ScalarField(np.array([-1.0, 2.0]), signed=True), {"values": [-1.0, 2.0]}),
    (VectorField(np.array([[1.0, 2.0], [0.0, -3.0]]), lq_space(2, 0.5)),
     {"vectors": [[1.0, 2.0], [0.0, -3.0]]}),
    (TensorRep(xs=np.array([[1.0, 0.5]]), fs=np.array([[2.0, -1.0, 0.0]]),
               target=lq_space(2, 0.5), lam=Lp(1.0)),
     {"xs": [[1.0, 0.5]], "fs": [[2.0, -1.0, 0.0]]}),
)


@pytest.mark.parametrize("obj,want", ARRAYS, ids=[type(obj).__name__ for obj, _ in ARRAYS])
def test_fields_and_tensor_representations_are_written_by_their_arrays(obj, want):
    assert json.loads(dumps_json(obj)) == want
    assert flatten_for_csv(obj) == flatten_for_csv(want)


def test_a_numpy_bool_in_check_details_is_written_as_true(capsys, monkeypatch):
    monkeypatch.setitem(checks.CHECKS, "counterexample",
                        lambda: (np.bool_(True), {"flag": np.bool_(True)}))
    code, out, _ = run(capsys, ["suite", "--name", "counterexample"])
    assert code == 0
    assert json.loads(out)["details"] == {"flag": True}
    assert '"flag":true' in out
    code, out, _ = run(capsys, ["suite", "--name", "counterexample", "--format", "csv"])
    assert code == 0 and "details.flag,true\n" in out


def test_a_detail_with_no_json_shape_exits_two(capsys, monkeypatch):
    monkeypatch.setitem(checks.CHECKS, "counterexample", lambda: (True, {"what": object()}))
    for fmt in ("json", "csv"):
        code, out, err = run(capsys, ["suite", "--name", "counterexample", "--format", fmt])
        assert code == 2 and out == ""
        assert err == "error: cannot serialize object of type object\n"


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def test_single_suite_runs_green(capsys):
    code, out, _ = run(capsys, ["suite", "--name", "counterexample"])
    assert code == 0
    payload = json.loads(out)
    assert payload["suite"] == "counterexample"
    assert payload["passed"] is True
    assert set(payload["details"]["sizes"]) == {"4", "16", "64", "256", "1024"}


def test_suite_rejects_unknown_name(capsys):
    code, _, _ = run(capsys, ["suite", "--name", "not-a-suite"])
    assert code == 2


def test_suite_failure_exits_one(capsys):
    code, out, _ = run(capsys, ["suite", "--name", "ftc", "--cells", "3"])
    assert code == 1
    payload = json.loads(out)
    assert payload["passed"] is False
    assert payload["details"]["weak11_constant"] == 1.5


def test_report_fails_only_the_failing_suite(capsys):
    code, out, _ = run(capsys, ["report", "--trials", "1", "--budget", "10", "--cells", "3"])
    assert code == 1
    payload = json.loads(out)
    assert payload["passed"] is False
    assert [name for name, sub in payload["suites"].items() if not sub["passed"]] == ["ftc"]


def test_violated_concavity_witnesses_re_evaluate_to_their_constants(capsys):
    code, out, _ = run(capsys, ["suite", "--name", "orlicz-concavity",
                                "--trials", "5", "--tol", "-1"])
    assert code == 1
    payload = json.loads(out)
    assert payload["passed"] is False
    space = counting_space(6)
    gauges = {"loglog": Orlicz(builtin_phi("loglog")),
              "rational": Orlicz(builtin_phi("rational")),
              "power(0.5)": Orlicz(builtin_phi("power", 0.5))}
    assert set(payload["details"]["kernels"]) == set(gauges)
    for label, entry in payload["details"]["kernels"].items():
        assert entry["violated"] is True
        parts = [np.array(part["values"]) for part in entry["witness"]]
        assert len(parts) >= 2
        g = gauges[label]
        # concave ratio: sum of the parts' gauges over the gauge of their sum
        ratio = (sum(eval_gauge(g, space, ScalarField(f)).value for f in parts)
                 / eval_gauge(g, space, ScalarField(np.sum(parts, axis=0))).value)
        assert ratio == pytest.approx(entry["constant"], rel=1e-12), label


# each acceptance criterion's flags, and the parameters it passes to its check
CRITERION_FLAGS = (
    ("counterexample", [], {}),
    ("orlicz-concavity", ["--trials", "1000"], dict(trials=1000, tol=1e-9, seed=0)),
    ("leveling", ["--trials", "2000"], dict(trials=2000, tol=1e-9, seed=0)),
    ("ftc", ["--cells", "4096", "--trials", "100", "--seed", "10001"],
     dict(trials=100, cells=4096, seed=10001)),
)


@pytest.mark.parametrize("name,flags,params", CRITERION_FLAGS)
def test_suite_reproduces_its_acceptance_criterion(capsys, name, flags, params):
    code, out, _ = run(capsys, ["suite", "--name", name] + flags)
    passed, details = checks.CHECKS[name](**params)
    payload = json.loads(out)
    assert code == 0 and payload["passed"] is passed is True
    assert payload["details"] == json.loads(dumps_json(details))
