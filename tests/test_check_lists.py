"""Pinned check lists: ordered names and thresholds of every instance command.

The thresholds are written out here as literals, independently of the
package, so a bound that drifts in the solvers or the CLI fails this test.
"""

import pytest

from povmround.cli import main
from povmround.io import load_instance, load_report

POVM = ["--kind", "random_povm_near_pvm", "--seed", "5",
        "--param", "dims=3,2", "--param", "n=3", "--param", "delta=0.2"]
PAIR = ["--kind", "rotated_pvm_pair", "--seed", "2",
        "--param", "theta=0.1", "--param", "dims=4", "--param", "n_p=3", "--param", "n_q=2"]
FUNCTIONALS = ["--kind", "random_functionals", "--seed", "3",
               "--param", "dims=3,2", "--param", "n=3"]


def _rounding(prefix, result):
    return [
        (prefix + "error_vs_9defect", 9.0 * result["defect"] + 1e-7),
        (prefix + "selection_value", 1.0 - result["defect"] - 1e-9),
        (prefix + "rank_sum_defect", 0.0),
        (prefix + "selection_commutation", 1e-6),
        (prefix + "pvm_idempotency", 1e-9),
        (prefix + "pvm_sum_residual", 1e-9),
        (prefix + "midpoint_identity", 1e-7),
        (prefix + "converse_bound", -1e-7),
    ]


def _orthogonalize(result, inst):
    return _rounding("", result)


def _orthogonalize_sym(result, inst):
    return _rounding("inner_", result["inner"]) + [
        ("symmetry_residual", 1e-8),
        ("error_vs_9defect", 9.0 * result["defect"] + 1e-7),
    ]


def _repair(result, inst):
    return [
        ("error_vs_10defect", 10.0 * result["epsilon_c"] + 1e-7),
        ("identity_residual", 1e-10),
        ("output_commutators", 1e-9),
    ] + _rounding("inner_", result["inner"])


def _fourier(result, inst):
    return [
        ("roundtrip_residual", 1e-10),
        ("repaired_commutator", 1e-9),
        ("rhs_vs_10lhs", 10.0 * result["lhs"] + 1e-7),
    ]


def _majorant(result, inst):
    scale = max(1.0, sum(e.trace().real for e in inst.functionals.elements))
    return [
        ("feasibility", -1e-9 * scale),
        ("dual_positivity", -1e-9 * scale),
        ("povm_sum", 1e-8 * scale),
        ("gap", 1e-6 * scale),
        ("slackness", 1e-4 * scale),
        ("reconstruction", 1e-4 * scale),
    ]


@pytest.mark.parametrize("command,gen,expected", [
    ("orthogonalize", POVM, _orthogonalize),
    ("orthogonalize-sym", POVM, _orthogonalize_sym),
    ("repair", PAIR, _repair),
    ("fourier", PAIR, _fourier),
    ("majorant", FUNCTIONALS, _majorant),
])
def test_ordered_names_and_thresholds(tmp_path, command, gen, expected):
    inst_path = tmp_path / "inst.json"
    report_path = tmp_path / "report.json"
    assert main(["gen", *gen, "--out", str(inst_path)]) == 0
    assert main([command, "--in", str(inst_path), "--out", str(report_path)]) == 0
    doc = load_report(report_path)
    assert doc["pass"] is True
    got = [(c["name"], c["threshold"]) for c in doc["checks"]]
    assert got == expected(doc["result"], load_instance(inst_path))
