"""Adversarial corners: degenerate spectra, rank-deficient polar parts,
higher multiplicities, scaled and trivial majorant families, determinism."""

import numpy as np
import pytest

from povmround import (
    BlockAlgebra,
    FunctionalFamily,
    Povm,
    Pvm,
    State,
    minimal_majorant,
    orthogonalize,
    orthogonalize_symmetry_preserving,
    repair,
    validate_pvm,
    verify_majorant_certificate,
)
from povmround.generators import gen_instance, haar_unitary, random_pvm
from povmround.orthogonalize import CLUSTER_TOL

from conftest import commuting_majorant_oracle


def two_output_povm_with_spectrum(eigs, rng):
    """POVM (a, 1 - a) where a has the prescribed spectrum in a random frame."""
    d = len(eigs)
    alg = BlockAlgebra((d,))
    u = haar_unitary(rng, d)
    a = (u * np.asarray(eigs)) @ u.conj().T
    return alg, Povm(alg, [alg.element([a]), alg.element([np.eye(d) - a])])


class TestClusteringStress:
    def test_gaps_below_threshold_merge_and_bound_holds(self):
        # Eigenvalue pairs split by 3e-9 sit below CLUSTER_TOL = 1e-8: the
        # clusters merge and the commutation residual degrades to the
        # within-cluster spread, well inside the certified 10 * CLUSTER_TOL.
        rng = np.random.default_rng(0)
        alg, a = two_output_povm_with_spectrum(
            [0.7, 0.7 + 3e-9, 0.3, 0.3 - 3e-9], rng
        )
        phi = State(alg, [np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)])
        rep = orthogonalize(alg, phi, a)
        assert rep.error <= 9 * rep.defect + 1e-7
        assert rep.selection.commutation_residual <= 10 * CLUSTER_TOL
        assert validate_pvm(alg, rep.pvm).is_valid

    def test_gaps_above_threshold_stay_split(self):
        rng = np.random.default_rng(1)
        alg, a = two_output_povm_with_spectrum(
            [0.7, 0.7 + 1e-6, 0.3, 0.3 - 1e-6], rng
        )
        phi = State(alg, [np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)])
        rep = orthogonalize(alg, phi, a)
        assert rep.error <= 9 * rep.defect + 1e-7
        assert rep.selection.commutation_residual <= 1e-12

    def test_exactly_degenerate_spectrum(self):
        rng = np.random.default_rng(2)
        alg, a = two_output_povm_with_spectrum([0.6, 0.6, 0.4, 0.4], rng)
        phi = State(alg, [np.diag([0.25] * 4).astype(complex)])
        rep = orthogonalize(alg, phi, a)
        assert rep.error <= 9 * rep.defect + 1e-7
        for k, d in enumerate(alg.dims):
            assert sum(rep.selection.ranks[k]) == d


class TestRankDeficientPolar:
    def test_zero_output_with_rank_one_state(self):
        # The zero output receives a selected slot through the all-zero score
        # ties, the column map drops rank, and the kernel completion still
        # produces the exact PVM with zero error (the defect is zero here).
        alg = BlockAlgebra((2,))
        a = Povm(alg, [alg.zero(), alg.identity()])
        phi = State(alg, [np.diag([1.0, 0.0]).astype(complex)])
        rep = orthogonalize(alg, phi, a)
        assert rep.defect == pytest.approx(0.0, abs=1e-14)
        assert rep.error <= 1e-12
        assert validate_pvm(alg, rep.pvm).is_valid
        total = rep.selection.ranks[0]
        assert sum(total) == 2

    def test_many_zero_outputs(self):
        alg = BlockAlgebra((3,))
        rng = np.random.default_rng(3)
        p = random_pvm(alg, 2, rng)
        a = Povm(alg, list(p.elements) + [alg.zero(), alg.zero()])
        g = rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1))
        rho = g @ g.conj().T
        phi = State(alg, [rho / np.trace(rho).real])
        rep = orthogonalize(alg, phi, a)
        assert rep.error <= 9 * rep.defect + 1e-7
        assert rep.certificates.pvm_sum_residual <= 1e-8


class TestHigherMultiplicities:
    def test_multiplicity_three(self):
        inst = gen_instance("random_povm_near_pvm", 31, {"dims": [2], "n": 3, "delta": 0.15})
        small = inst.povm
        alg6 = BlockAlgebra((6,))
        big = Povm(
            alg6, [alg6.element([np.kron(e.blocks[0], np.eye(3))]) for e in small.elements]
        )
        rng = np.random.default_rng(32)
        g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        rho = g @ g.conj().T
        phi = State(alg6, [rho / np.trace(rho).real])
        sym = orthogonalize_symmetry_preserving(alg6, phi, big)
        assert all(m == 3 for m in sym.decomposition.multiplicities)
        assert sym.symmetry_residual <= 1e-8
        assert sym.error <= 9 * sym.defect + 1e-7

    def test_mixed_multiplicity_two_blocks(self):
        # Ambient [4, 2]: the first block carries a doubled copy of an M_2
        # problem, the second a plain one.
        inst = gen_instance("random_povm_near_pvm", 33, {"dims": [2], "n": 2, "delta": 0.2})
        small = inst.povm
        alg = BlockAlgebra((4, 2))
        big = Povm(
            alg,
            [
                alg.element([np.kron(e.blocks[0], np.eye(2)), e.blocks[0]])
                for e in small.elements
            ],
        )
        rng = np.random.default_rng(34)
        dens = []
        for d in alg.dims:
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            dens.append(g @ g.conj().T)
        total = sum(np.trace(r).real for r in dens)
        phi = State(alg, [r / total for r in dens])
        sym = orthogonalize_symmetry_preserving(alg, phi, big)
        assert sym.symmetry_residual <= 1e-8
        assert sym.error <= 9 * sym.defect + 1e-7
        assert sum(
            d * m for d, m in zip(sym.decomposition.sub.dims, sym.decomposition.multiplicities)
        ) == 6


class TestRepairStress:
    def test_fine_reference_many_blocks(self):
        # Reference PVM with d outputs pinches to a fully abelian commutant.
        rng = np.random.default_rng(41)
        alg = BlockAlgebra((5,))
        frame = haar_unitary(rng, 5)
        q = Pvm(
            alg,
            [alg.element([np.outer(frame[:, j], frame[:, j].conj())]) for j in range(5)],
        )
        p = random_pvm(alg, 3, rng)
        g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        rho = g @ g.conj().T
        phi = State(alg, [rho / np.trace(rho).real])
        rep = repair(phi, p, q)
        assert rep.error <= 10 * rep.epsilon_c + 1e-7
        assert rep.max_commutator <= 1e-9
        assert rep.identity_residual <= 1e-10


class TestMajorantStress:
    def test_scaled_family_certificates(self):
        inst = gen_instance("random_functionals", 51, {"dims": [4], "n": 3})
        fam = FunctionalFamily([1e3 * e for e in inst.functionals.elements])
        sol = minimal_majorant(inst.algebra, fam)
        diag = verify_majorant_certificate(inst.algebra, fam, sol)
        assert all(c.passed for c in diag), [c.name for c in diag if not c.passed]
        scale = fam.scale()
        assert sol.gap <= 1e-6 * scale

    def test_all_zero_family(self):
        alg = BlockAlgebra((3,))
        fam = FunctionalFamily([alg.zero(), alg.zero(), alg.zero()])
        sol = minimal_majorant(alg, fam)
        assert 0.0 <= sol.primal <= 1e-6
        diag = verify_majorant_certificate(alg, fam, sol)
        assert all(c.passed for c in diag), [c.name for c in diag if not c.passed]

    def test_scaled_diagonal_matches_oracle(self):
        inst = gen_instance("random_functionals", 52, {"dims": [3], "n": 3, "diagonal": True})
        fam = FunctionalFamily([250.0 * e for e in inst.functionals.elements])
        sol = minimal_majorant(inst.algebra, fam)
        oracle = commuting_majorant_oracle(inst.algebra, fam)
        assert abs(sol.primal - oracle.primal) <= 1e-6 * fam.scale()

    def test_repeated_functional(self):
        # Identical functionals: any convex split of t across the copies is
        # optimal; the certificates must still close.
        alg = BlockAlgebra((3,))
        rng = np.random.default_rng(53)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        a = alg.element([g @ g.conj().T / 3])
        fam = FunctionalFamily([a, a, a])
        sol = minimal_majorant(alg, fam)
        diag = verify_majorant_certificate(alg, fam, sol)
        assert all(c.passed for c in diag), [c.name for c in diag if not c.passed]
        assert abs(sol.primal - a.trace().real) <= 1e-6 * fam.scale()


class TestDeterminism:
    def test_orthogonalize_bitwise_reproducible(self):
        inst = gen_instance("random_povm_near_pvm", 61, {"dims": [3, 2], "n": 3, "delta": 0.3})
        rep1 = orthogonalize(inst.algebra, inst.state, inst.povm)
        rep2 = orthogonalize(inst.algebra, inst.state, inst.povm)
        for p1, p2 in zip(rep1.pvm.elements, rep2.pvm.elements):
            for b1, b2 in zip(p1.blocks, p2.blocks):
                assert np.array_equal(b1, b2)
        assert rep1.error == rep2.error

    def test_symmetry_mode_reproducible(self):
        inst = gen_instance("random_povm_near_pvm", 62, {"dims": [4], "n": 2, "delta": 0.2})
        s1 = orthogonalize_symmetry_preserving(inst.algebra, inst.state, inst.povm)
        s2 = orthogonalize_symmetry_preserving(inst.algebra, inst.state, inst.povm)
        for p1, p2 in zip(s1.pvm.elements, s2.pvm.elements):
            assert np.array_equal(p1.blocks[0], p2.blocks[0])

    def test_majorant_reproducible(self):
        inst = gen_instance("random_functionals", 63, {"dims": [4], "n": 3})
        sol1 = minimal_majorant(inst.algebra, inst.functionals)
        sol2 = minimal_majorant(inst.algebra, inst.functionals)
        assert np.array_equal(sol1.majorant.blocks[0], sol2.majorant.blocks[0])
        assert sol1.primal == sol2.primal
