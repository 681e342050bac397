"""Independent check of a certified job's report, in plain numpy.

Recomputes each certified bound from the instance the benchmark generated
and the matrices the report emitted, at the thresholds of the acceptance
suite (tests/test_acceptance.py).  Nothing here calls the package's solvers,
validators or certificate code.
"""

from __future__ import annotations

import numpy as np

PVM_TOL = 1e-8           # idempotency, Hermiticity and sum-to-identity of an output PVM
BOUND_SLACK = 1e-7       # additive slack on the 9x rounding and 10x repair bounds
REPAIR_COMM_TOL = 1e-9   # ||[p'_i, q_j]||_F after repair
SYMMETRY_TOL = 1e-8      # ||[p_i, 1 (x) X]||_F in symmetry mode
MAJ_FEAS_TOL = 1e-8      # lambda_min(z - a_i) and lambda_min(t_i), absolute
MAJ_SUM_TOL = 1e-8       # ||sum_i t_i - 1||_F
MAJ_GAP_TOL = 1e-6       # duality gap over scale
MAJ_WEAK_TOL = 1e-9      # gap may undershoot zero by this much over scale


def decode(element) -> list[np.ndarray]:
    """Report element (blocks of rows of [re, im] pairs) to complex blocks."""
    out = []
    for block in element:
        arr = np.asarray(block, dtype=float).reshape(len(block), len(block), 2)
        out.append(arr[..., 0] + 1j * arr[..., 1])
    return out


def _blocks(elements) -> list[list[np.ndarray]]:
    return [list(e.blocks) for e in elements]


def _expect(rho: list[np.ndarray], x: list[np.ndarray]) -> float:
    return float(sum(np.trace(r @ b).real for r, b in zip(rho, x)))


def _phi_norm_sq(rho, x) -> float:
    return _expect(rho, [b.conj().T @ b for b in x])


def _pvm_failures(p: list[list[np.ndarray]], dims, tag: str) -> list[str]:
    fails = []
    for i, e in enumerate(p):
        for b in e:
            if np.linalg.norm(b - b.conj().T) > PVM_TOL:
                fails.append(f"{tag}_hermitian[{i}]")
            if np.linalg.norm(b @ b - b) > PVM_TOL:
                fails.append(f"{tag}_idempotent[{i}]")
    for k, d in enumerate(dims):
        if np.abs(sum(e[k] for e in p) - np.eye(d)).max() > PVM_TOL:
            fails.append(f"{tag}_sum[{k}]")
    return fails


def _rounding_failures(inst, p) -> list[str]:
    rho = list(inst.state.densities)
    a = _blocks(inst.povm.elements)
    dims = inst.algebra.dims
    if len(p) != len(a):
        return ["output_count"]
    fails = _pvm_failures(p, dims, "pvm")
    eps0 = 1.0 - sum(_expect(rho, [b @ b for b in ai]) for ai in a)
    error = sum(
        _phi_norm_sq(rho, [x - y for x, y in zip(ai, pi)]) for ai, pi in zip(a, p)
    )
    if not error <= 9.0 * eps0 + BOUND_SLACK:
        fails.append("error_vs_9defect")
    return fails


def _symmetry_failures(p, dims, factor: int) -> list[str]:
    fails = []
    for d in dims:
        eye = np.eye(d // factor)
        for u in range(factor):
            for v in range(factor):
                unit = np.zeros((factor, factor))
                unit[u, v] = 1.0
                x = np.kron(eye, unit)
                for i, e in enumerate(p):
                    if any(np.linalg.norm(b @ x - x @ b) > SYMMETRY_TOL for b in e):
                        fails.append(f"symmetry[{i}]")
    return fails


def _repair_failures(inst, result) -> list[str]:
    rho = list(inst.state.densities)
    p_in, q_in = inst.pvm_pair
    p = _blocks(p_in.elements)
    q = _blocks(q_in.elements)
    repaired = [decode(e) for e in result["pvm_repaired"]]
    fails = _pvm_failures(repaired, inst.algebra.dims, "repaired")
    if len(repaired) != len(p):
        return fails + ["output_count"]
    eps_c = sum(
        _phi_norm_sq(rho, [x @ y - y @ x for x, y in zip(pi, qj)]) for pi in p for qj in q
    )
    for i, ri in enumerate(repaired):
        for qj in q:
            comm = np.sqrt(sum(np.linalg.norm(x @ y - y @ x) ** 2 for x, y in zip(ri, qj)))
            if comm > REPAIR_COMM_TOL:
                fails.append(f"commutator[{i}]")
    error = sum(
        _phi_norm_sq(rho, [x - y for x, y in zip(pi, ri)]) for pi, ri in zip(p, repaired)
    )
    if not error <= 10.0 * eps_c + BOUND_SLACK:
        fails.append("error_vs_10defect")
    return fails


def _majorant_failures(inst, result) -> list[str]:
    a = _blocks(inst.functionals.elements)
    dims = inst.algebra.dims
    z = decode(result["z"])
    t = [decode(e) for e in result["t"]]
    if len(t) != len(a):
        return ["dual_count"]
    scale = max(1.0, sum(np.trace(b).real for ai in a for b in ai))
    fails = []
    for k in range(len(dims)):
        feas = min(np.linalg.eigvalsh((z[k] - ai[k] + (z[k] - ai[k]).conj().T) / 2).min() for ai in a)
        if feas < -MAJ_FEAS_TOL:
            fails.append(f"primal_feasibility[{k}]")
        dual_min = min(np.linalg.eigvalsh((ti[k] + ti[k].conj().T) / 2).min() for ti in t)
        if dual_min < -MAJ_FEAS_TOL:
            fails.append(f"dual_feasibility[{k}]")
        if np.linalg.norm(sum(ti[k] for ti in t) - np.eye(dims[k])) > MAJ_SUM_TOL:
            fails.append(f"dual_sum[{k}]")
    primal = sum(np.trace(b).real for b in z)
    dual = sum(np.trace(x @ y).real for ai, ti in zip(a, t) for x, y in zip(ai, ti))
    gap = (primal - dual) / scale
    if not -MAJ_WEAK_TOL <= gap <= MAJ_GAP_TOL:
        fails.append("gap")
    return fails


def report_failures(command: str, inst, doc: dict, tensor_factor: int = 0) -> list[str]:
    """Names of the checks the report misses; empty when it is certified."""
    if doc.get("pass") is not True:
        return ["report_pass"]
    result = doc["result"]
    if command == "orthogonalize":
        return _rounding_failures(inst, [decode(e) for e in result["pvm"]])
    if command == "orthogonalize-sym":
        p = [decode(e) for e in result["pvm"]]
        return _rounding_failures(inst, p) + _symmetry_failures(p, inst.algebra.dims, tensor_factor)
    if command == "repair":
        return _repair_failures(inst, result)
    if command == "majorant":
        return _majorant_failures(inst, result)
    raise ValueError(f"no check for command {command!r}")
