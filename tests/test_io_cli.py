"""Serialization exactness, generator determinism, and the CLI surface."""

import base64
import dataclasses
import json

import numpy as np
import pytest

from povmround import (
    AlgebraElement,
    BlockAlgebra,
    FunctionalFamily,
    Povm,
    Tolerances,
    ValidationError,
    validate_povm,
    validate_pvm,
    validate_state,
)
from povmround.cli import build_tolerances, main
from povmround.generators import gen_instance
from povmround.io import (
    Instance,
    _encode_matrix,
    decode_element,
    dumps,
    encode_element,
    load_instance,
    load_report,
    save_instance,
)

from conftest import mixed_pvm, per_entry_encode_oracle, trace_two_state, v1_document


class TestSerialization:
    def test_matrix_entries_roundtrip_exactly(self, tmp_path):
        inst = gen_instance("random_povm_near_pvm", 17, {"dims": [3, 2], "n": 3, "delta": 0.3})
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        loaded = load_instance(path)
        for a, b in zip(inst.povm.elements, loaded.povm.elements):
            for x, y in zip(a.blocks, b.blocks):
                assert np.array_equal(x, y)
        for x, y in zip(inst.state.densities, loaded.state.densities):
            assert np.array_equal(x, y)
        assert loaded.metadata == inst.metadata

    def test_storage_is_re_im_pairs_row_major(self, tmp_path):
        # Version 1, which reports still use for their matrices.
        inst = gen_instance("linfty2_family", 0, {"c": 0.1})
        path = tmp_path / "inst.json"
        path.write_text(dumps(v1_document(inst)))
        doc = json.loads(path.read_text())
        assert doc["povm"][0][0] == [[[1.0, 0.0]]]
        assert doc["dims"] == [1, 1]

    def test_storage_is_base64_complex128_in_block_order(self, tmp_path):
        inst = gen_instance("random_povm_near_pvm", 4, {"dims": [2, 3, 2, 1, 3], "n": 3})
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        doc = json.loads(path.read_text())
        assert doc["version"] == 2 and doc["dims"] == [2, 3, 2, 1, 3]
        elements = [("state", doc["state"], inst.state.rho)]
        elements += [("povm", s, e) for s, e in zip(doc["povm"], inst.povm.elements)]
        for key, text, element in elements:
            flat = np.frombuffer(base64.b64decode(text), "<c16")
            ends = np.cumsum([d * d for d in doc["dims"]])
            blocks = [b.reshape(d, d) for b, d in zip(np.split(flat, ends[:-1]), doc["dims"])]
            assert len(flat) == ends[-1], key
            for got, want in zip(blocks, element.blocks):
                assert got.tobytes() == want.tobytes(), key

    def test_loaded_objects_are_not_validated(self, tmp_path):
        # Loading only decodes; the solver that reads the POVM rejects it.
        inst = gen_instance("linfty2_family", 0, {"c": 0.1})
        doc = v1_document(inst)
        doc["povm"][0][0][0][0] = [5.0, 0.0]  # breaks the sum-to-identity invariant
        path = tmp_path / "bad.json"
        path.write_text(dumps(doc))
        loaded = load_instance(path)
        assert loaded.povm.elements[0].blocks[0][0, 0] == 5.0
        assert not validate_povm(loaded.algebra, loaded.povm).is_valid

    def test_loaded_v2_objects_are_not_validated(self, tmp_path):
        inst = gen_instance("linfty2_family", 0, {"c": 0.1})
        doc = inst.to_json()
        flat = np.frombuffer(base64.b64decode(doc["povm"][0]), "<c16").copy()
        flat[0] = 5.0  # breaks the sum-to-identity invariant
        doc["povm"][0] = base64.b64encode(flat.tobytes()).decode("ascii")
        path = tmp_path / "bad.json"
        path.write_text(dumps(doc))
        loaded = load_instance(path)
        assert loaded.povm.elements[0].blocks[0][0, 0] == 5.0
        assert not validate_povm(loaded.algebra, loaded.povm).is_valid

    def test_parse_error_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError):
            load_instance(path)


def _complex(re, im):
    """The complex matrix with exactly these real and imaginary parts (keeps -0.0)."""
    return np.stack([re, im], axis=-1).view(complex)[..., 0]


_EXTREMES = np.array([[-0.0, 5e-324], [1.7976931348623157e308, -5e-324]])
_GENERIC = np.random.default_rng(3).standard_normal((4, 3, 2)).view(complex)[..., 0]


class TestEncoder:
    @pytest.mark.parametrize("m", [
        _GENERIC,
        _GENERIC.T,
        np.asfortranarray(_GENERIC),
        _GENERIC[::2, ::-1],
        np.arange(6.0).reshape(2, 3),
        np.array([[0.25 - 0.5j]]),
        np.array([[-0.0]]),
        _EXTREMES,
        _complex(_EXTREMES, _EXTREMES.T),
        _complex(_EXTREMES.T, _EXTREMES).T,
    ], ids=["generic", "transposed", "fortran", "strided", "real", "1x1", "1x1-negzero",
            "extremes-real", "extremes-complex", "extremes-transposed"])
    def test_matches_per_entry_oracle_text(self, m):
        # Text, not ==: -0.0 == 0.0, but the files must keep the sign.
        assert json.dumps(_encode_matrix(m)) == json.dumps(per_entry_encode_oracle(m))

    def test_extreme_entries_roundtrip_bitwise(self):
        m = _complex(_EXTREMES, _EXTREMES.T)
        alg = BlockAlgebra((2,))
        back = decode_element(alg, json.loads(dumps(encode_element(AlgebraElement(alg, [m])))))
        assert back.blocks[0].tobytes() == m.tobytes()
        assert np.signbit(back.blocks[0].real[0, 0]) and np.signbit(back.blocks[0].imag[0, 0])


class TestLayout:
    def test_saved_files_are_one_line(self, tmp_path):
        inst_path = tmp_path / "inst.json"
        report_path = tmp_path / "report.json"
        save_instance(gen_instance("random_povm_near_pvm", 5, {"dims": [3, 2], "n": 3}), inst_path)
        assert main(["orthogonalize", "--in", str(inst_path), "--out", str(report_path)]) == 0
        for path in (inst_path, report_path):
            text = path.read_text()
            assert text.count("\n") == 1 and text.endswith("\n")

    def test_stdout_summary_is_one_json_line(self, tmp_path, capsys):
        inst_path = tmp_path / "inst.json"
        assert main([
            "gen", "--kind", "linfty2_family", "--seed", "0",
            "--param", "c=0.1", "--out", str(inst_path),
        ]) == 0
        capsys.readouterr()
        assert main(["orthogonalize", "--in", str(inst_path)]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 1 and out.endswith("\n")
        summary = json.loads(out)
        assert summary["command"] == "orthogonalize" and summary["pass"] is True


def _indented_copy(path, out):
    """The file at ``path`` rewritten in the indented layout of older releases."""
    out.write_text(json.dumps(json.loads(path.read_text()), sort_keys=True, indent=2) + "\n")
    return out


class TestIndentedFilesStillLoad:
    @pytest.mark.parametrize("kind,seed,params,commands", [
        ("linfty2_family", 1, ["c=0.1"], ["orthogonalize", "orthogonalize-sym"]),
        ("random_povm_near_pvm", 9, ["dims=4", "n=3", "delta=0.2"],
         ["orthogonalize", "orthogonalize-sym"]),
        ("rotated_pvm_pair", 2, ["theta=0.1", "canonical=true"], ["repair", "fourier"]),
        ("random_functionals", 3, ["dims=3", "n=3"], ["majorant"]),
    ])
    def test_same_results_as_compact(self, tmp_path, kind, seed, params, commands):
        compact = tmp_path / "compact.json"
        gen = ["gen", "--kind", kind, "--seed", str(seed), "--out", str(compact)]
        assert main(gen + [arg for p in params for arg in ("--param", p)]) == 0
        indented = _indented_copy(compact, tmp_path / "indented.json")
        assert indented.read_text().count("\n") > 1
        assert load_instance(indented).to_json() == load_instance(compact).to_json()

        def digests(command, paths):
            """The canonical JSON of each report's result and checks."""
            out = []
            for i, path in enumerate(paths):
                report = tmp_path / f"{command}.{i}.json"
                assert main([command, "--in", str(path), "--out", str(report)]) == 0
                doc = load_report(report)
                out.append(json.dumps([doc["result"], doc["checks"]], sort_keys=True))
            return out

        for command in commands:
            first, second = digests(command, (compact, indented))
            assert first == second
        if commands == ["majorant"]:  # verify reads a report: indent that too
            report = tmp_path / "majorant.0.json"
            first, second = digests(
                "verify", (report, _indented_copy(report, tmp_path / "indented.majorant.json"))
            )
            assert first == second


def _elements(inst) -> list[AlgebraElement]:
    pvms = list(inst.pvm_pair or ())
    return ([inst.state.rho] if inst.state is not None else []) + [
        e for family in (inst.povm, *pvms, inst.functionals) if family is not None
        for e in family.elements
    ]


def _extremes_instance() -> Instance:
    alg = BlockAlgebra((2, 1, 2))
    m = _complex(_EXTREMES, _EXTREMES.T)
    elements = [AlgebraElement(alg, [m, [[-0.0]], m.T]), AlgebraElement(alg, [m.T, [[5e-324]], m])]
    # a functional family keeps its matrices as given; a Povm would hermitize them
    return Instance(algebra=alg, functionals=FunctionalFamily(elements))


_MIXED = [2, 3, 2, 1, 3]


class TestVersionsAgree:
    """A version-1 and a version-2 file of one instance are the same input."""

    @pytest.mark.parametrize("make", [
        lambda: gen_instance("random_povm_near_pvm", 6, {"dims": _MIXED, "n": 3}),
        lambda: gen_instance("rotated_pvm_pair", 6, {"theta": 0.2, "dims": _MIXED, "n_p": 3, "n_q": 2}),
        lambda: gen_instance("random_functionals", 6, {"dims": _MIXED, "n": 3}),
        _extremes_instance,
    ], ids=["povm-mixed", "pair-mixed", "functionals-mixed", "extremes"])
    def test_load_to_bitwise_equal_stacks(self, tmp_path, make):
        inst = make()
        v1, v2 = tmp_path / "v1.json", tmp_path / "v2.json"
        v1.write_text(dumps(v1_document(inst)))
        save_instance(inst, v2)
        assert json.loads(v2.read_text())["version"] == 2
        first, second = _elements(load_instance(v1)), _elements(load_instance(v2))
        assert len(first) == len(second) == len(_elements(inst))
        for x, y, z in zip(first, second, _elements(inst)):
            for a, b, c in zip(x.stacks, y.stacks, z.stacks):
                assert a.tobytes() == b.tobytes() == c.tobytes()

    @pytest.mark.parametrize("kind,params,commands", [
        ("random_povm_near_pvm", {"dims": _MIXED, "n": 3}, ["orthogonalize", "orthogonalize-sym"]),
        ("rotated_pvm_pair", {"theta": 0.1, "dims": _MIXED, "n_p": 3, "n_q": 2}, ["repair", "fourier"]),
        ("random_functionals", {"dims": [3, 2], "n": 3}, ["majorant"]),
    ])
    def test_every_command_writes_the_same_result(self, tmp_path, kind, params, commands):
        inst = gen_instance(kind, 5, params)
        paths = tmp_path / "v1.json", tmp_path / "v2.json"
        paths[0].write_text(dumps(v1_document(inst)))
        save_instance(inst, paths[1])
        for command in commands:
            texts = []
            for path in paths:
                report = path.with_suffix(f".{command}.json")
                assert main([command, "--in", str(path), "--out", str(report)]) == 0
                doc = load_report(report)
                # a majorant report embeds its instance in version 2 from either file
                texts.append(json.dumps([doc["result"], doc["checks"]], sort_keys=True))
            assert texts[0] == texts[1], command
        if commands == ["majorant"]:
            verified = []
            for path in paths:
                report = path.with_suffix(".majorant.json")
                assert main(["verify", "--in", str(report), "--out", str(report) + ".v"]) == 0
                doc = load_report(str(report) + ".v")
                assert doc["result"].pop("verified_input") == load_report(report)["input_digest"]
                verified.append(json.dumps([doc["result"], doc["checks"]], sort_keys=True))
            assert verified[0] == verified[1]

    def test_verify_reads_a_version_1_embedded_instance(self, tmp_path):
        # majorant reports written before version 2 embed a version-1 instance
        inst_path, report = tmp_path / "fun.json", tmp_path / "maj.json"
        save_instance(gen_instance("random_functionals", 3, {"dims": [3, 2], "n": 3}), inst_path)
        assert main(["majorant", "--in", str(inst_path), "--out", str(report)]) == 0
        doc = json.loads(report.read_text())
        doc["result"]["instance"] = v1_document(load_instance(inst_path))
        older = tmp_path / "older.json"
        older.write_text(dumps(doc))
        texts = []
        for path in (report, older):
            out = path.with_suffix(".verify.json")
            assert main(["verify", "--in", str(path), "--out", str(out)]) == 0
            verified = load_report(out)
            texts.append(json.dumps([verified["result"], verified["checks"]], sort_keys=True))
        assert texts[0] == texts[1]


class TestGenerators:
    def test_same_seed_byte_identical(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        save_instance(gen_instance("random_povm_near_pvm", 7, {"dims": [4], "n": 3}), a)
        save_instance(gen_instance("random_povm_near_pvm", 7, {"dims": [4], "n": 3}), b)
        assert a.read_bytes() == b.read_bytes()

    def test_different_seeds_differ(self):
        x = gen_instance("random_povm_near_pvm", 1, {"dims": [4], "n": 3})
        y = gen_instance("random_povm_near_pvm", 2, {"dims": [4], "n": 3})
        assert any(
            not np.array_equal(a.blocks[0], b.blocks[0])
            for a, b in zip(x.povm.elements, y.povm.elements)
        )

    @pytest.mark.parametrize("kind,params", [
        ("random_povm_near_pvm", {"dims": [3, 2], "n": 4, "delta": 0.4}),
        ("random_povm_near_pvm", {"dims": [5], "n": 2, "delta": 0.0}),
        ("random_state", {"dims": [4], "state_rank": 1}),
        ("paper_counterexample", {"delta": 0.01}),
        ("linfty2_family", {"c": 0.3}),
        ("rotated_pvm_pair", {"theta": 0.2, "dims": [4], "n_p": 3, "n_q": 2}),
        ("rotated_pvm_pair", {"theta": 0.1, "canonical": True}),
        ("random_functionals", {"dims": [3], "n": 3}),
    ])
    def test_outputs_pass_validators(self, kind, params):
        inst = gen_instance(kind, 11, params)
        if inst.state is not None:
            assert validate_state(inst.algebra, inst.state).is_valid
        if inst.povm is not None:
            assert validate_povm(inst.algebra, inst.povm).is_valid
        if inst.pvm_pair is not None:
            for pvm in inst.pvm_pair:
                assert validate_pvm(inst.algebra, pvm).is_valid
        if inst.functionals is not None:
            inst.functionals.validate()

    def test_counterexample_matches_formula(self):
        inst = gen_instance("paper_counterexample", 0, {"delta": 0.01})
        f = 1.0 / 1.06
        assert inst.povm.elements[0].blocks[0][0, 0] == pytest.approx(f * 1.04, abs=1e-15)
        assert inst.povm.elements[1].blocks[0][1, 1] == pytest.approx(f * 1.03, abs=1e-15)

    def test_unknown_kind_rejected(self):
        with pytest.raises(Exception):
            gen_instance("bogus_kind", 0, {})

    def test_param_ranges_checked(self):
        with pytest.raises(Exception):
            gen_instance("paper_counterexample", 0, {"delta": 0.5})
        with pytest.raises(Exception):
            gen_instance("rotated_pvm_pair", 0, {"theta": 2.0})


class TestCli:
    def test_gen_then_orthogonalize(self, tmp_path, capsys):
        inst_path = tmp_path / "inst.json"
        report_path = tmp_path / "report.json"
        assert main([
            "gen", "--kind", "linfty2_family", "--seed", "1",
            "--param", "c=0.1", "--out", str(inst_path),
        ]) == 0
        assert main([
            "orthogonalize", "--in", str(inst_path), "--out", str(report_path),
        ]) == 0
        doc = load_report(report_path)
        assert doc["pass"] is True
        assert doc["result"]["defect"] == pytest.approx(0.05, abs=1e-12)
        assert doc["result"]["error"] == pytest.approx(0.05, abs=1e-10)
        assert doc["input_digest"]
        assert doc["tolerances"]["cert_tol"] == 1e-9

    def test_gen_determinism_through_cli(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            assert main([
                "gen", "--kind", "random_functionals", "--seed", "7",
                "--param", "dims=3", "--param", "n=2", "--out", str(path),
            ]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_orthogonalize_sym_command(self, tmp_path):
        inst_path = tmp_path / "inst.json"
        report_path = tmp_path / "rep.json"
        assert main([
            "gen", "--kind", "random_povm_near_pvm", "--seed", "9",
            "--param", "dims=4", "--param", "n=3", "--param", "delta=0.2",
            "--out", str(inst_path),
        ]) == 0
        assert main([
            "orthogonalize-sym", "--in", str(inst_path), "--out", str(report_path),
        ]) == 0
        doc = load_report(report_path)
        assert doc["pass"] is True
        assert doc["result"]["symmetry_residual"] <= 1e-8
        assert sum(
            d * m for d, m in zip(doc["result"]["sub_dims"], doc["result"]["multiplicities"])
        ) == 4

    def test_repair_and_fourier_commands(self, tmp_path):
        inst_path = tmp_path / "pair.json"
        assert main([
            "gen", "--kind", "rotated_pvm_pair", "--seed", "2",
            "--param", "theta=0.1", "--param", "canonical=true",
            "--out", str(inst_path),
        ]) == 0
        assert main(["repair", "--in", str(inst_path)]) == 0
        assert main(["fourier", "--in", str(inst_path)]) == 0

    def test_majorant_verify_and_tampering(self, tmp_path, capsys):
        inst_path = tmp_path / "fun.json"
        report_path = tmp_path / "maj.json"
        assert main([
            "gen", "--kind", "random_functionals", "--seed", "3",
            "--param", "dims=3", "--param", "n=3", "--out", str(inst_path),
        ]) == 0
        assert main([
            "majorant", "--in", str(inst_path), "--out", str(report_path),
        ]) == 0
        assert main(["verify", "--in", str(report_path)]) == 0

        doc = json.loads(report_path.read_text())
        for row in doc["result"]["z"][0]:  # halve the majorant diagonal
            for entry in row:
                entry[0] *= 0.5
        tampered = tmp_path / "tampered.json"
        tampered.write_text(dumps(doc))
        capsys.readouterr()
        assert main(["verify", "--in", str(tampered)]) == 1
        err = capsys.readouterr().err
        assert "feasibility" in err

    def test_sweep_csv_columns(self, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        assert main([
            "sweep", "--count", "3", "--seed", "5", "--csv", str(csv_path),
        ]) == 0
        header = csv_path.read_text().splitlines()[0]
        assert header == "seed,dims,n,defect,error,ratio,bound_9eps_margin,runtime_ms"
        assert len(csv_path.read_text().splitlines()) == 4

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["orthogonalize", "--in", str(tmp_path / "nope.json")]) == 2

    def test_invalid_instance_exit_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["orthogonalize", "--in", str(path)]) == 2

    def test_wrong_payload_exit_2(self, tmp_path):
        inst_path = tmp_path / "state_only.json"
        assert main([
            "gen", "--kind", "random_state", "--seed", "0",
            "--param", "dims=3", "--out", str(inst_path),
        ]) == 0
        assert main(["orthogonalize", "--in", str(inst_path)]) == 2

    @pytest.mark.parametrize("dim", [1.7, True, "2"])
    def test_non_integer_block_dimension_exit_2(self, tmp_path, dim):
        # int() would read 1.7 and true as 1 and solve a (1, 1) instance.
        path = tmp_path / "linfty2.json"
        assert main([
            "gen", "--kind", "linfty2_family", "--seed", "0",
            "--param", "c=0.1", "--out", str(path),
        ]) == 0
        doc = json.loads(path.read_text())
        assert doc["dims"] == [1, 1]
        doc["dims"] = [dim, 1]
        path.write_text(json.dumps(doc))
        assert main(["orthogonalize", "--in", str(path)]) == 2

    def test_tol_flag_propagates(self, tmp_path):
        inst_path = tmp_path / "fun.json"
        report_path = tmp_path / "maj.json"
        assert main([
            "gen", "--kind", "random_functionals", "--seed", "4",
            "--param", "dims=2", "--param", "n=2", "--out", str(inst_path),
        ]) == 0
        assert main([
            "majorant", "--in", str(inst_path), "--out", str(report_path),
            "--tol", "gap_tol=1e-5",
        ]) == 0
        doc = load_report(report_path)
        assert doc["tolerances"]["gap_tol"] == 1e-5
        assert set(doc["tolerances"]) == {f.name for f in dataclasses.fields(Tolerances)}


class TestToleranceOverrides:
    def test_environment_is_not_read(self, tmp_path, monkeypatch):
        inst_path = tmp_path / "fun.json"
        report_path = tmp_path / "maj.json"
        assert main([
            "gen", "--kind", "random_functionals", "--seed", "4",
            "--param", "dims=2", "--param", "n=2", "--out", str(inst_path),
        ]) == 0
        monkeypatch.setenv("POVMROUND_TOL_OVERRIDES", "gap_tol=abc")
        assert main(["majorant", "--in", str(inst_path), "--out", str(report_path)]) == 0
        assert load_report(report_path)["tolerances"]["gap_tol"] == 1e-6

    def test_malformed_override_rejected(self):
        with pytest.raises(ValidationError):
            build_tolerances(["gap_tol"])

    def test_unknown_key_is_cli_parse_error(self, tmp_path):
        inst_path = tmp_path / "inst.json"
        assert main([
            "gen", "--kind", "linfty2_family", "--seed", "0",
            "--param", "c=0.1", "--out", str(inst_path),
        ]) == 0
        removed = ("cluster_tol", "rank_tol", "mu_shrink", "newton_tol", "max_iters")
        for flag in ("bogus=1", "mu0_scale=2", *(f"{key}=1" for key in removed)):
            assert main(["orthogonalize", "--in", str(inst_path), "--tol", flag]) == 2


class TestInvalidObjectsExit2:
    """Each command rejects an invalid object it reads with exit 2 and names it.
    The functional cases are test_robustness.py's test_invalid_functional (majorant)
    and test_verify_validates_embedded_instance_with_its_tol (verify)."""

    @staticmethod
    def _run(tmp_path, command, inst):
        path = tmp_path / "edited.json"
        save_instance(inst, path)
        return main([command, "--in", str(path)])

    @pytest.mark.parametrize("command", ["orthogonalize", "orthogonalize-sym"])
    @pytest.mark.parametrize("edit,named", [
        (lambda i: {"povm": Povm(i.algebra, [2.0 * e for e in i.povm.elements])},
         "input is not a valid POVM"),
        (lambda i: {"state": trace_two_state(i.state)}, "input is not a valid state"),
    ], ids=["povm", "trace-2-state"])
    def test_rounding_input(self, tmp_path, capsys, command, edit, named):
        inst = gen_instance("random_povm_near_pvm", 9, {"dims": [4], "n": 3, "delta": 0.2})
        assert self._run(tmp_path, command, dataclasses.replace(inst, **edit(inst))) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["repair", "fourier"])
    @pytest.mark.parametrize("which", [0, 1], ids=["p", "q"])
    def test_pvm_pair_input(self, tmp_path, capsys, command, which):
        inst = gen_instance("rotated_pvm_pair", 2, {"theta": 0.1, "canonical": True})
        pair = list(inst.pvm_pair)
        pair[which] = mixed_pvm(pair[which])
        assert self._run(tmp_path, command, dataclasses.replace(inst, pvm_pair=tuple(pair))) == 2
        err = capsys.readouterr().err
        assert "not a valid PVM" in err
        if command == "repair":
            assert f"input {'pq'[which]} is not" in err


class TestValidationPasses:
    """Each input is validated once per CLI job, in the solver that reads it."""

    @staticmethod
    def _eigvalsh_calls(monkeypatch, tmp_path, command, inst):
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        calls = []
        original = np.linalg.eigvalsh

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        assert main([command, "--in", str(path)]) == 0
        return len(calls)

    def test_orthogonalize_job(self, monkeypatch, tmp_path):
        # State gate K and POVM gate nK; OrthReport.checks reads stored certificates.
        inst = gen_instance("random_povm_near_pvm", 3, {"dims": [2, 3, 1], "n": 3, "delta": 0.2})
        n, k = inst.povm.n, inst.algebra.num_blocks
        assert self._eigvalsh_calls(monkeypatch, tmp_path, "orthogonalize", inst) == (n + 1) * k

    def test_majorant_job(self, monkeypatch, tmp_path):
        # Family gate nK, then feasibility and dual positivity of the certificate nK each.
        inst = gen_instance("random_functionals", 3, {"dims": [3, 2], "n": 3})
        n, k = inst.functionals.n, inst.algebra.num_blocks
        assert self._eigvalsh_calls(monkeypatch, tmp_path, "majorant", inst) == 3 * n * k
