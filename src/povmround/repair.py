"""Repair of almost-commuting projective measurements.

Two PVMs (p_i) and (q_j) with small commutation defect
eps_c = sum_ij ||p_i q_j - q_j p_i||_phi^2 admit a repaired PVM (p'_i) that
commutes with every q_j exactly and stays within 10 * eps_c of p in squared
phi-norm.  The route: pinch p through q to get the POVM a_i = sum_j q_j p_i q_j.
Pinching is the conditional expectation onto the block-diagonal commutant of
(q_j), so a is p compressed into that commutant.  The exact identity

    eps_c = sum_i ||p_i - a_i||_phi^2 + (1 - phi(sum_i a_i^2))

splits the defect into the pinching cost and the orthogonality defect of a,
and rounding a inside the commutant spends at most 9x the second piece.

The Fourier correspondence between PVMs with n outputs and unitaries of
order n transfers the statement to pairs of finite-order unitaries.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .algebra import (
    AlgebraElement,
    BlockAlgebra,
    BoundCheck,
    Povm,
    PreconditionError,
    Pvm,
    State,
    SubAlgebra,
    Tolerances,
    DEFAULT_TOL,
    check_leq,
    commutator_phi_norm_sq,
    defect,
    max_commutator,
    phi_distance_sq,
    phi_norm_sq,
    require_valid,
    validate_pvm,
    validate_state,
)
from .orthogonalize import BOUND_SLACK, OrthReport, orthogonalize

# Thresholds of the certified repair bounds.
IDENTITY_TOL = 1e-10          # exact commutation-defect identity
OUTPUT_COMMUTATOR_TOL = 1e-9  # [p'_i, q_j] residual after repair
ROUNDTRIP_TOL = 1e-10         # PVM -> unitary -> PVM round trip


def _ten_defect_check(name: str, error: float, eps_c: float) -> BoundCheck:
    """The repair bound: error <= 10 * commutation defect."""
    return check_leq(name, error, 10.0 * eps_c + BOUND_SLACK)


def commutant_of_pvm(q: Pvm) -> SubAlgebra:
    """Block algebra of all elements commuting with every q_j, for a valid PVM q.

    Per ambient block, the ranges of the q_j (eigenvalues above 1/2, one
    batched eigh per q_j and block size) are stacked into one unitary basis;
    each nonzero range is one sub-block of multiplicity 1.
    """
    alg = q.algebra
    eigs = [[np.linalg.eigh(s) for s in e.stacks] for e in q.elements]
    dims = []
    ambient_block = []
    offsets = []
    bases = []
    for k, (d, (g, c)) in enumerate(zip(alg.dims, alg.slots)):
        # The indexed view is F-ordered; products expect C order.
        ranges = [v[c][:, w[c] > 0.5].copy() for w, v in (e[g] for e in eigs)]
        offset = 0
        for basis in ranges:
            r = basis.shape[1]
            if r:
                dims.append(r)
                ambient_block.append(k)
                offsets.append(offset)
                offset += r
        if offset != d:
            raise PreconditionError(
                f"ranks of the reference projections sum to {offset} in block {k}, expected {d}"
            )
        bases.append(np.hstack(ranges))
    return SubAlgebra(
        alg, BlockAlgebra(tuple(dims)), (1,) * len(dims), tuple(ambient_block), tuple(offsets), bases
    )


def commutation_defect(phi: State, p: Pvm, q: Pvm) -> float:
    """sum_ij ||p_i q_j - q_j p_i||_phi^2."""
    if p.algebra.dims != q.algebra.dims:
        raise PreconditionError("measurements belong to different algebras")
    return sum(
        commutator_phi_norm_sq(phi, pi, qj) for pi in p.elements for qj in q.elements
    )


@dataclass
class CompressedPovm:
    commutant: SubAlgebra
    povm: Povm                 # a_i = sum_j q_j p_i q_j in commutant coordinates
    phi_restricted: State
    epsilon_c: float
    pinch_cost: float          # sum_i ||p_i - a_i||_phi^2 in the ambient algebra
    compressed_defect: float   # 1 - phi(sum_i a_i^2)
    identity_residual: float   # |eps_c - pinch_cost - compressed_defect|


def compress_povm(p: Pvm, q: Pvm, phi: State, tol: Tolerances = DEFAULT_TOL) -> CompressedPovm:
    """Pinch p through q and certify the exact commutation-defect identity."""
    require_valid(validate_state(p.algebra, phi, tol), "input is not a valid state")
    for name, x in (("p", p), ("q", q)):
        require_valid(validate_pvm(x.algebra, x, tol), f"input {name} is not a valid PVM")
    comm = commutant_of_pvm(q)
    eps_c = commutation_defect(phi, p, q)

    # Compressing p_i is compressing its pinching: V_j^H p_i V_j = V_j^H a_i V_j.
    phi_restricted, compressed = comm.restrict(phi, p.elements)
    phi_restricted._valid_at = compressed._valid_at = tol  # restrictions of validated inputs
    pinch_cost = phi_distance_sq(phi, p.elements, [comm.embed(c) for c in compressed.elements])
    compressed_defect = defect(phi_restricted, compressed)
    identity_residual = abs(eps_c - pinch_cost - compressed_defect)
    return CompressedPovm(
        comm, compressed, phi_restricted, eps_c, pinch_cost, compressed_defect, identity_residual
    )


@dataclass
class RepairReport:
    epsilon_c: float
    inner: OrthReport            # rounding of the pinched POVM in the commutant
    pvm_repaired: Pvm
    error: float                 # sum_i ||p_i - p'_i||_phi^2
    identity_residual: float
    max_commutator: float        # max_ij ||[p'_i, q_j]||_F

    def checks(self) -> list[BoundCheck]:
        """The 10x repair bound, the pinching identity, exact commutation,
        and every bound of the inner rounding, names prefixed ``inner_``."""
        return [
            _ten_defect_check("error_vs_10defect", self.error, self.epsilon_c),
            check_leq("identity_residual", self.identity_residual, IDENTITY_TOL),
            check_leq("output_commutators", self.max_commutator, OUTPUT_COMMUTATOR_TOL),
        ] + self.inner.checks(prefix="inner_")


def repair(phi: State, p: Pvm, q: Pvm, tol: Tolerances = DEFAULT_TOL) -> RepairReport:
    """Produce a PVM commuting with q within 10 * eps_c of p."""
    compressed = compress_povm(p, q, phi, tol)
    inner = orthogonalize(
        compressed.commutant.sub, compressed.phi_restricted, compressed.povm, tol
    )
    repaired = compressed.commutant.embed_pvm(inner.pvm)
    error = phi_distance_sq(phi, p.elements, repaired.elements)
    max_comm = max_commutator(repaired.elements, q.elements)
    return RepairReport(
        compressed.epsilon_c, inner, repaired, error, compressed.identity_residual, max_comm
    )


def pvm_to_unitary(p: Pvm, tol: Tolerances = DEFAULT_TOL) -> AlgebraElement:
    """Unitary of order n attached to an n-output PVM: u = sum_k w^k p_k
    with w the primitive n-th root of unity."""
    require_valid(validate_pvm(p.algebra, p, tol), "input is not a valid PVM")
    n = p.n
    u = p.algebra.zero()
    for k, e in enumerate(p.elements, start=1):
        u = u + cmath.exp(2j * cmath.pi * k / n) * e
    return u


def _powers(u: AlgebraElement, n: int) -> list[AlgebraElement]:
    """[1, u, u^2, ..., u^n]."""
    powers = [u.algebra.identity()]
    for _ in range(n):
        powers.append(powers[-1] @ u)
    return powers


def _spectral(u: AlgebraElement, n: int, tol: Tolerances) -> tuple[Pvm, list[AlgebraElement]]:
    """Spectral PVM of a unitary of order n, and the powers [1, u, ..., u^n] it sums."""
    if n < 1:
        raise PreconditionError("order must be a positive integer")
    alg = u.algebra
    unitary_residual = (u.H @ u - alg.identity()).norm_fro()
    if unitary_residual > max(tol.cert_tol, 1e-12 * alg.total_dim):
        raise PreconditionError(f"input is not unitary (residual {unitary_residual:.3e})")
    powers = _powers(u, n)
    order_residual = (powers[n] - alg.identity()).norm_fro()
    if order_residual > max(tol.cert_tol, 1e-12 * n * alg.total_dim):
        raise PreconditionError(
            f"unitary does not have order {n} (residual {order_residual:.3e})"
        )
    elements = []
    for j in range(1, n + 1):
        acc = alg.zero()
        for k in range(1, n + 1):
            acc = acc + cmath.exp(-2j * cmath.pi * j * k / n) * powers[k]
        elements.append((1.0 / n) * acc)
    return Pvm(alg, elements), powers


def unitary_to_pvm(u: AlgebraElement, n: int, tol: Tolerances = DEFAULT_TOL) -> Pvm:
    """Spectral PVM of a unitary of order n: p_j = (1/n) sum_k w^{-jk} u^k."""
    return _spectral(u, n, tol)[0]


@dataclass
class UnitaryRepairReport:
    v_repaired: AlgebraElement
    lhs: float                   # (1/nm) sum_ij ||u^i v^j - v^j u^i||_phi^2
    rhs_error: float             # (1/m) sum_j ||v^j - v'^j||_phi^2
    commutator_norm: float       # ||[v', u]||_F
    pvm_report: RepairReport
    spectral: tuple[Pvm, Pvm]    # spectral PVMs of v and of u

    def roundtrip_residual(self, p: Pvm, q: Pvm) -> float:
        """max_i ||x_i - x'_i||_F over x = p and x = q, where x' is the
        spectral PVM of the unitary of x (v for p, u for q)."""
        back = self.spectral[0].elements + self.spectral[1].elements
        return max((a - b).norm_fro() for a, b in zip(p.elements + q.elements, back))

    def checks(self, roundtrip: float) -> list[BoundCheck]:
        """Bounds of the unitary repair; ``roundtrip`` is the
        ``roundtrip_residual`` of the input PVMs."""
        return [
            check_leq("roundtrip_residual", roundtrip, ROUNDTRIP_TOL),
            check_leq("repaired_commutator", self.commutator_norm, OUTPUT_COMMUTATOR_TOL),
            _ten_defect_check("rhs_vs_10lhs", self.rhs_error, self.lhs),
        ]


def repair_unitary_pair(
    phi: State,
    u: AlgebraElement,
    n: int,
    v: AlgebraElement,
    m: int,
    tol: Tolerances = DEFAULT_TOL,
) -> UnitaryRepairReport:
    """Given unitaries u^n = 1 and v^m = 1, produce v' commuting with u with
    (1/m) sum_j ||v^j - v'^j||_phi^2 <= 10 * (1/nm) sum_ij ||[u^i, v^j]||_phi^2."""
    q, u_powers = _spectral(u, n, tol)
    p, v_powers = _spectral(v, m, tol)
    report = repair(phi, p, q, tol)
    v_repaired = pvm_to_unitary(report.pvm_repaired, tol)

    lhs = sum(
        phi_norm_sq(phi, u_powers[i].commutator(v_powers[j]))
        for i in range(1, n + 1)
        for j in range(1, m + 1)
    ) / (n * m)
    rhs_error = phi_distance_sq(phi, v_powers[1:], _powers(v_repaired, m)[1:]) / m
    comm_norm = v_repaired.commutator(u).norm_fro()
    return UnitaryRepairReport(v_repaired, lhs, rhs_error, comm_norm, report, (p, q))
