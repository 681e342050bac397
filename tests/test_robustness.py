"""Malformed CLI input and unwritable output exit 2, the solvers reject
invalid inputs, verify checks a report's stored claims, gen builds no report,
sweep's draws respect --max-dim, and the block decomposition has its own
retry budget and names why it ran out."""

import base64
import importlib
import json
import math

import numpy as np
import pytest

from povmround import (
    BlockAlgebra,
    SolverError,
    ValidationError,
    decompose_generated_algebra,
    orthogonalize,
    orthogonalize_symmetry_preserving,
    repair,
)
from povmround.generators import gen_instance, random_hermitian, rotated_pvm_pair
from povmround.cli import _sweep_config, main
from povmround.io import dumps, load_instance

from conftest import mixed_pvm, trace_two_state, v1_document

orthogonalize_module = importlib.import_module("povmround.orthogonalize")


@pytest.fixture
def majorant_report(tmp_path):
    inst_path = tmp_path / "fun.json"
    report_path = tmp_path / "maj.json"
    assert main([
        "gen", "--kind", "random_functionals", "--seed", "4",
        "--param", "dims=2", "--param", "n=2", "--out", str(inst_path),
    ]) == 0
    assert main(["majorant", "--in", str(inst_path), "--out", str(report_path)]) == 0
    return report_path


def _verify_edited(tmp_path, report_path, edit, *flags):
    doc = json.loads(report_path.read_text())
    edit(doc)
    path = tmp_path / "edited.json"
    path.write_text(dumps(doc))
    return main(["verify", "--in", str(path), *flags])


class TestMalformedValues:
    def test_tolerance_value_not_a_number(self, majorant_report, capsys):
        inst_path = majorant_report.with_name("fun.json")
        assert main(["majorant", "--in", str(inst_path), "--tol", "gap_tol=abc"]) == 2
        assert "gap_tol" in capsys.readouterr().err

    def test_gen_param_not_an_integer(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        assert main([
            "gen", "--kind", "random_functionals", "--param", "n=x", "--out", str(out),
        ]) == 2
        assert "'n'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["gap_tol=nan", "gap_tol=inf", "cert_tol=inf"])
    def test_tolerance_not_finite(self, majorant_report, capsys, flag):
        inst_path = majorant_report.with_name("fun.json")
        assert main(["majorant", "--in", str(inst_path), "--tol", flag]) == 2
        assert flag.split("=")[0] in capsys.readouterr().err

    @pytest.mark.parametrize("kind,params,named", [
        ("linfty2_family", ["c=2"], "c must"),
        ("paper_counterexample", ["delta=0.5"], "delta must"),
        ("rotated_pvm_pair", ["canonical=true", "dims=3"], "canonical pair"),
        ("random_functionals", ["n=0"], "n must"),
        ("random_povm_near_pvm", ["dim=8"], "no parameter ['dim']; its keys are ['dims', 'n',"),
        ("random_functionals", ["theta=0.3"], "no parameter ['theta']; its keys are ['dims', 'n', 'diagonal']"),
        ("random_povm_near_pvm", ["state_rank=0"], "state_rank must"),
        ("random_povm_near_pvm", ["state_rank=-3"], "state_rank must"),
        ("rotated_pvm_pair", ["n_p=17"], "n_p must"),
        ("random_functionals", ["diagonal=maybe"], "'diagonal'"),
    ])
    def test_gen_param_mistake(self, tmp_path, capsys, kind, params, named):
        out = tmp_path / "g.json"
        argv = ["gen", "--kind", kind, "--out", str(out)]
        for item in params:
            argv += ["--param", item]
        assert main(argv) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_gen_takes_no_tol(self, tmp_path):
        out = tmp_path / "g.json"
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--kind", "linfty2_family", "--out", str(out), "--tol", "gap_tol=1e-3"])
        assert exc.value.code == 2
        assert not out.exists()


    @pytest.mark.parametrize("flags,named", [
        (["--count", "0"], "--count"),
        (["--max-dim", "0"], "--max-dim"),
        (["--max-outputs", "1"], "--max-outputs"),
        (["--max-outputs", "17"], "--max-outputs"),
    ])
    def test_sweep_flag_out_of_range(self, capsys, flags, named):
        assert main(["sweep", "--count", "1", *flags]) == 2
        assert named in capsys.readouterr().err


    @pytest.mark.parametrize("argv", [
        ["gen", "--kind", "random_povm_near_pvm", "--seed", "-1", "--out", "{out}"],
        ["sweep", "--count", "2", "--seed", "-5", "--out", "{out}"],
    ], ids=["gen", "sweep"])
    def test_negative_seed(self, tmp_path, capsys, argv):
        out = tmp_path / "g.json"
        assert main([item.format(out=out) for item in argv]) == 2
        assert "seed must be non-negative" in capsys.readouterr().err
        assert not out.exists()


def test_gen_writes_no_report(tmp_path, monkeypatch):
    def no_digest(path):
        raise AssertionError("gen read back its own output")

    monkeypatch.setattr("povmround.io._read_json", no_digest)
    out = tmp_path / "g.json"
    assert main(["gen", "--kind", "linfty2_family", "--out", str(out)]) == 0
    assert out.exists()


def test_sweep_draws_stay_within_max_dim():
    for max_dim in range(1, 9):
        for seed in range(200):
            assert sum(_sweep_config(seed, max_dim, 5)[0]) <= max_dim, (seed, max_dim)


class TestVerifyRejects:
    def test_verify_report_is_not_verifiable(self, majorant_report, tmp_path):
        verify_path = tmp_path / "ver.json"
        assert main(["verify", "--in", str(majorant_report), "--out", str(verify_path)]) == 0
        assert main(["verify", "--in", str(verify_path)]) == 2

    @pytest.mark.parametrize("field", ["instance", "z", "t"])
    def test_missing_field(self, majorant_report, tmp_path, capsys, field):
        assert _verify_edited(tmp_path, majorant_report, lambda d: d["result"].pop(field)) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("field,value", [
        ("instance", 5),
        ("instance", {"format": "povmround/instance", "version": 1}),
        ("z", "not a matrix"),
        ("z", [[[[1.0, 0.0]]]]),
        ("t", [[[[[1.0, 0.0]]]]]),
    ])
    def test_malformed_field(self, majorant_report, tmp_path, field, value):
        def edit(doc):
            doc["result"][field] = value
        assert _verify_edited(tmp_path, majorant_report, edit) == 2


_NON_FINITE_CASES = [
    ("random_povm_near_pvm", {"dims": [4], "n": 3}, "state", "orthogonalize"),
    ("random_povm_near_pvm", {"dims": [4], "n": 3}, "povm", "orthogonalize"),
    ("random_functionals", {"dims": [3], "n": 2}, "functionals", "majorant"),
]
_NON_FINITE_IDS = ["state", "povm", "functionals"]


def _never_called(*args, **kwargs):
    raise AssertionError("b64decode reached")


def _run_v2_edited(tmp_path, edit) -> int:
    """Exit code of orthogonalize on a version-2 file whose state string, the
    first element decoded, is replaced by ``edit(string)``."""
    doc = gen_instance("random_povm_near_pvm", 0, {"dims": [2, 1], "n": 2}).to_json()
    doc["state"] = edit(doc["state"])
    path = tmp_path / "inst.json"
    path.write_text(dumps(doc))
    return main(["orthogonalize", "--in", str(path)])


class TestMalformedFiles:
    @pytest.mark.parametrize("content", [
        [],
        {"format": "povmround/instance", "version": 1},
        {"format": "povmround/instance", "version": 1, "dims": [2], "povm": [[[[1, 0]]]]},
        {"format": "povmround/instance", "version": 1, "dims": [1], "povm": [[[[10**400, 0]]]]},
    ], ids=["not-an-object", "no-dims", "matrix-not-pairs", "instance-entry-huge-int"])
    def test_instance_file(self, tmp_path, capsys, content):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(content))
        assert main(["orthogonalize", "--in", str(path)]) == 2
        assert "povmround: " in capsys.readouterr().err

    def test_boolean_matrix_entry(self, tmp_path, capsys):
        # A version-1 linfty2_family file with its 1.0 entries written as [true, false].
        path = tmp_path / "lin.json"
        text = json.dumps(v1_document(gen_instance("linfty2_family", 0, {"c": 0.1})))
        assert "[1.0, 0.0]" in text
        path.write_text(text.replace("[1.0, 0.0]", "[true, false]"))
        assert main(["orthogonalize", "--in", str(path)]) == 2
        assert "boolean" in capsys.readouterr().err

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "1e309"])
    @pytest.mark.parametrize("kind,params,key,command", _NON_FINITE_CASES, ids=_NON_FINITE_IDS)
    def test_non_finite_matrix_entry(self, tmp_path, capsys, token, kind, params, key, command):
        # json.loads reads NaN and Infinity tokens, and 1e309 as inf.
        doc = v1_document(gen_instance(kind, 0, params))
        entry = doc[key][0][0][1] if key == "state" else doc[key][0][0][0][1]
        entry[0] = 0.125
        path = tmp_path / "inst.json"
        path.write_text(dumps(doc).replace("0.125", token, 1))
        assert main([command, "--in", str(path)]) == 2
        assert "not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    @pytest.mark.parametrize("kind,params,key,command", _NON_FINITE_CASES, ids=_NON_FINITE_IDS)
    def test_non_finite_v2_entry(self, tmp_path, capsys, value, kind, params, key, command):
        doc = gen_instance(kind, 0, params).to_json()
        text = doc[key] if key == "state" else doc[key][0]
        flat = np.frombuffer(base64.b64decode(text), "<c16").copy()
        flat[-1] = value
        edited = base64.b64encode(flat.tobytes()).decode("ascii")
        if key == "state":
            doc[key] = edited
        else:
            doc[key][0] = edited
        path = tmp_path / "inst.json"
        path.write_text(dumps(doc))
        assert main([command, "--in", str(path)]) == 2
        assert "not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        lambda s: s + "AAAA",
        lambda s: s[:-4],
        lambda s: s * 1000,
        lambda s: "",
    ], ids=["one-entry-long", "truncated", "huge", "empty"])
    def test_v2_element_of_wrong_length(self, tmp_path, capsys, monkeypatch, edit):
        # the length is checked before anything is decoded
        monkeypatch.setattr(base64, "b64decode", _never_called)
        assert _run_v2_edited(tmp_path, edit) == 2
        assert "base64 string of" in capsys.readouterr().err

    def test_v2_huge_dims_allocate_nothing(self, tmp_path, capsys, monkeypatch):
        # a few bytes claiming one 10^6 x 10^6 block fail on the string length
        monkeypatch.setattr(base64, "b64decode", _never_called)
        path = tmp_path / "inst.json"
        path.write_text(dumps({"format": "povmround/instance", "version": 2,
                               "dims": [10**6], "state": "AAAA", "povm": ["AAAA"]}))
        assert main(["orthogonalize", "--in", str(path)]) == 2
        assert "base64 string of" in capsys.readouterr().err

    @pytest.mark.parametrize("char", ["!", "-", "_", " ", "\n", "é"])
    def test_v2_element_with_non_alphabet_byte(self, tmp_path, capsys, char):
        assert _run_v2_edited(tmp_path, lambda s: char + s[1:]) == 2
        assert "povmround: malformed instance" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [
        [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        None,
        5,
        ["AAAA"],
    ], ids=["v1-matrix", "null", "number", "list"])
    def test_v2_element_not_a_string(self, tmp_path, capsys, value):
        assert _run_v2_edited(tmp_path, lambda s: value) == 2
        assert "base64 string of" in capsys.readouterr().err

    @pytest.mark.parametrize("version", [0, 3, "2", None])
    def test_unsupported_instance_version(self, tmp_path, capsys, version):
        doc = gen_instance("random_povm_near_pvm", 0, {"dims": [2], "n": 2}).to_json()
        doc["version"] = version
        path = tmp_path / "inst.json"
        path.write_text(dumps(doc))
        assert main(["orthogonalize", "--in", str(path)]) == 2
        assert "unsupported instance version" in capsys.readouterr().err

    def test_directory_as_input(self, tmp_path):
        assert main(["orthogonalize", "--in", str(tmp_path)]) == 2

    def test_verify_report_not_an_object(self, tmp_path):
        path = tmp_path / "rep.json"
        path.write_text("[]")
        assert main(["verify", "--in", str(path)]) == 2

    @pytest.mark.parametrize("matrix", [
        [[1, 0], [0, -0.5]],
        [[1, 0.3], [0, 0.5]],
    ], ids=["functional-not-positive", "functional-not-hermitian"])
    def test_invalid_functional(self, tmp_path, capsys, matrix):
        path = tmp_path / "fun.json"
        element = [[[[v, 0.0] for v in row] for row in matrix]]
        path.write_text(json.dumps(
            {"format": "povmround/instance", "version": 1, "dims": [2], "functionals": [element]}
        ))
        assert main(["majorant", "--in", str(path)]) == 2
        assert "functional 0 is not" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["orthogonalize", "--in", "{lin}", "--out", "{dir}"],
    ["orthogonalize", "--in", "{lin}", "--out", "{dir}/missing/x.json"],
    ["gen", "--kind", "linfty2_family", "--out", "{dir}"],
    ["sweep", "--count", "1", "--csv", "{dir}"],
    ["sweep", "--count", "1", "--out", "{dir}"],
], ids=["report-to-directory", "report-to-missing-directory", "gen-to-directory",
        "csv-to-directory", "sweep-report-to-directory"])
def test_unwritable_output(tmp_path, capsys, argv):
    lin = tmp_path / "lin.json"
    assert main(["gen", "--kind", "linfty2_family", "--param", "c=0.1", "--out", str(lin)]) == 0
    capsys.readouterr()
    assert main([arg.format(lin=lin, dir=tmp_path) for arg in argv]) == 2
    assert capsys.readouterr().err.startswith("povmround: ")


class TestVerifyStoredClaims:
    def test_false_claims_fail(self, majorant_report, tmp_path, capsys):
        assert main(["verify", "--in", str(majorant_report)]) == 0

        def edit(doc):
            doc["result"]["gap"] = -5.0
            doc["result"]["primal"] = 123.0
            doc["result"]["residuals"]["slackness"] = 99.0
        capsys.readouterr()
        assert _verify_edited(tmp_path, majorant_report, edit) == 1
        failed = json.loads(capsys.readouterr().out)["failed"]
        assert failed == ["stored_primal", "stored_gap", "stored_slackness"]

    @pytest.mark.parametrize("edit", [
        lambda d: d["result"].pop("gap"),
        lambda d: d["result"].update(dual="1.0"),
        lambda d: d["result"]["residuals"].pop("feasibility"),
        lambda d: d["result"].update(residuals=None),
        lambda d: d["result"].update(gap=10**400),
    ], ids=["gap-missing", "dual-string", "feasibility-missing", "residuals-null", "gap-huge-int"])
    def test_malformed_claim(self, majorant_report, tmp_path, edit):
        assert _verify_edited(tmp_path, majorant_report, edit) == 2


def test_verify_validates_embedded_instance_with_its_tol(tmp_path, capsys):
    # Smallest eigenvalue -5e-8: positive within psd_tol=1e-6, not within the default.
    inst_path = tmp_path / "fun.json"
    report_path = tmp_path / "maj.json"
    matrices = [[[1.0, 0.0], [0.0, -5e-8]], [[0.5, 0.2], [0.2, 0.8]]]
    inst_path.write_text(json.dumps({
        "format": "povmround/instance", "version": 1, "dims": [2],
        "functionals": [[[[[v, 0.0] for v in row] for row in m]] for m in matrices],
    }))
    loose = ["--tol", "psd_tol=1e-6"]
    assert main(["majorant", "--in", str(inst_path), "--out", str(report_path)] + loose) == 0
    assert main(["verify", "--in", str(report_path)] + loose) == 0
    capsys.readouterr()
    assert main(["verify", "--in", str(report_path)]) == 2
    assert "functional 0 is not positive" in capsys.readouterr().err


@pytest.fixture
def functionals_s3(tmp_path):
    inst_path = tmp_path / "fun.json"
    assert main([
        "gen", "--kind", "random_functionals", "--seed", "3",
        "--param", "dims=3", "--param", "n=3", "--out", str(inst_path),
    ]) == 0
    return inst_path


def test_input_tolerance_does_not_loosen_stored_claims(functionals_s3, tmp_path, capsys):
    # cert_tol says how far an input may be from its invariant; an edited
    # primal and gap still fail at the fixed claim threshold.
    report_path = tmp_path / "maj.json"
    assert main(["majorant", "--in", str(functionals_s3), "--out", str(report_path)]) == 0

    def edit(doc):
        doc["result"]["primal"] += 1e-3
        doc["result"]["gap"] += 1e-3
    capsys.readouterr()
    assert _verify_edited(tmp_path, report_path, edit, "--tol", "cert_tol=1e-3") == 1
    assert json.loads(capsys.readouterr().out)["failed"] == ["stored_primal", "stored_gap"]


def test_input_tolerance_does_not_loosen_majorant_positivity(functionals_s3, tmp_path):
    report_path = tmp_path / "maj.json"
    argv = ["majorant", "--in", str(functionals_s3), "--out", str(report_path)]
    assert main(argv + ["--tol", "psd_tol=1e-3"]) == 0
    scale = load_instance(functionals_s3).functionals.scale()
    thresholds = {c["name"]: c["threshold"] for c in json.loads(report_path.read_text())["checks"]}
    assert thresholds["feasibility"] == -1e-9 * scale
    assert thresholds["dual_positivity"] == -1e-9 * scale


def test_decomposition_names_the_last_failure(monkeypatch):
    # With every intertwiner block read as zero, the two copies of M_2 cannot
    # be linked, and each attempt finds 2 pieces for a 4-dimensional commutant.
    calls = []
    once = orthogonalize_module._decompose_once

    def counted(*args):
        calls.append(args)
        return once(*args)

    monkeypatch.setattr(orthogonalize_module, "_HOM_CUTOFF", math.inf)
    monkeypatch.setattr(orthogonalize_module, "_decompose_once", counted)
    rng = np.random.default_rng(8)
    alg = BlockAlgebra((4,))
    gens = [alg.element([np.kron(random_hermitian(rng, 2), np.eye(2))]) for _ in range(2)]
    with pytest.raises(SolverError, match="pieces do not account for the commutant"):
        decompose_generated_algebra(gens)
    assert len(calls) == orthogonalize_module.DECOMPOSE_ATTEMPTS


class TestSolverInputGates:
    """The library solvers reject the inputs they read with ValidationError."""

    @pytest.mark.parametrize("solver", [orthogonalize, orthogonalize_symmetry_preserving])
    def test_rounding_rejects_trace_two_state(self, solver):
        inst = gen_instance("random_povm_near_pvm", 9, {"dims": [4], "n": 3, "delta": 0.2})
        with pytest.raises(ValidationError, match="not a valid state"):
            solver(inst.algebra, trace_two_state(inst.state), inst.povm)

    def test_repair_rejects_trace_two_state(self):
        _, phi, p, q = rotated_pvm_pair(0.1, (4,), 3, 2, np.random.default_rng(1))
        with pytest.raises(ValidationError, match="not a valid state"):
            repair(trace_two_state(phi), p, q)

    @pytest.mark.parametrize("which", [0, 1], ids=["p", "q"])
    def test_repair_rejects_povm_that_is_not_projective(self, which):
        _, phi, *pair = rotated_pvm_pair(0.1, (4,), 3, 2, np.random.default_rng(1))
        pair[which] = mixed_pvm(pair[which])
        with pytest.raises(ValidationError, match=f"input {'pq'[which]} is not a valid PVM"):
            repair(phi, *pair)
