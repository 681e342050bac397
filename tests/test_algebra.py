"""Core data model: validators, state seminorm, defect, clusters."""

import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import povmround
from povmround import (
    AlgebraElement,
    BlockAlgebra,
    Povm,
    Pvm,
    ShapeMismatchError,
    State,
    Tolerances,
    ValidationError,
    commutator_phi_norm_sq,
    defect,
    phi_norm_sq,
    spectral_clusters,
    validate_povm,
    validate_pvm,
    validate_state,
)
from povmround.algebra import hermitian_eigh, hermitian_sqrt
from povmround.generators import counterexample_triple, linfty2_family
from povmround.orthogonalize import complete_polar

from conftest import (
    TupleElementOracle,
    per_block_eigh_oracle,
    per_block_clusters_oracle,
    per_block_expect_oracle,
    per_block_polar_oracle,
    per_block_sqrt_oracle,
    random_density,
    random_element,
    rng_for,
)


def reconstruct(sc, alg):
    """The Hermitian element sum_c value_c * basis_c basis_c^H of per-block clusters."""
    mats = []
    for d, clusters in zip(alg.dims, sc):
        m = np.zeros((d, d), dtype=complex)
        for value, basis in clusters:
            m += value * (basis @ basis.conj().T)
        mats.append(m)
    return AlgebraElement(alg, mats)


def labelled_clusters(alg, h, cluster_tol=1e-8):
    """Per-block (value, basis) clusters, in block order, that
    spectral_clusters' per-size labels give for h: each label's eigenvector
    columns and the mean of its eigenvalues.  Each must equal
    per_block_clusters_oracle's bit for bit."""
    sc = spectral_clusters(alg, hermitian_eigh(h), cluster_tol)
    assert [labels.shape for _, _, labels in sc] == [s[:2] for s in alg.shapes]
    got = alg.per_block([
        [[(float(wb[lab == c].mean()), vb[:, lab == c]) for c in range(lab[-1] + 1)]
         for wb, vb, lab in zip(w, v, labels)]
        for w, v, labels in sc
    ])
    want = per_block_clusters_oracle(per_block_eigh_oracle(h), cluster_tol)
    assert [len(c) for c in got] == [len(c) for c in want]
    for clusters, oracle in zip(got, want):
        for (value, basis), (ovalue, obasis) in zip(clusters, oracle):
            assert value == ovalue and np.array_equal(basis, obasis)
    return got


class TestBlockAlgebra:
    def test_dims_must_be_positive(self):
        with pytest.raises(ValidationError):
            BlockAlgebra((0,))
        with pytest.raises(ValidationError):
            BlockAlgebra(())

    def test_dims_must_be_integers(self):
        assert BlockAlgebra((np.int64(2), 3)).dims == (2, 3)
        for dims in ((1.7, 1), (True, 1), (np.bool_(True), 1), ("2", 1), 3):
            with pytest.raises(ValidationError):
                BlockAlgebra(dims)

    def test_identity_and_total_dim(self):
        alg = BlockAlgebra((2, 3))
        assert alg.total_dim == 5
        ident = alg.identity()
        assert all(np.allclose(b, np.eye(d)) for b, d in zip(ident.blocks, alg.dims))

    def test_block_shape_checked(self):
        alg = BlockAlgebra((2, 3))
        with pytest.raises(ShapeMismatchError):
            alg.element([np.eye(2), np.eye(2)])
        with pytest.raises(ShapeMismatchError):
            alg.element([np.eye(2)])


class TestValidatePovm:
    def test_exact_pvm_is_valid(self, m2):
        a = Povm(m2, [m2.diagonal([[1, 0]]), m2.diagonal([[0, 1]])])
        diag = validate_povm(m2, a)
        assert diag.is_valid
        assert diag.max_negativity == 0.0
        assert diag.sum_residual == 0.0
        assert diag.hermiticity_residual == 0.0

    def test_repeated_projection_fails_sum(self, m2):
        e11 = m2.diagonal([[1, 0]])
        diag = validate_povm(m2, Povm(m2, [e11, e11]))
        assert not diag.is_valid
        assert diag.sum_residual == pytest.approx(1.0)

    def test_counterexample_triple_is_valid(self):
        alg, _, a = counterexample_triple(0.01)
        assert validate_povm(alg, a).is_valid

    def test_shape_mismatch_raises(self, m2):
        a = Povm(m2, [m2.identity()])
        with pytest.raises(ShapeMismatchError):
            validate_povm(BlockAlgebra((3,)), a)

    def test_hermitization_is_recorded(self, m2):
        skew = np.array([[0.5, 0.3], [0.0, 0.5]])
        a = Povm(m2, [m2.element([skew]), m2.element([np.eye(2) - (skew + skew.conj().T) / 2])])
        assert a.hermitization_residual > 0.1
        assert not validate_povm(m2, a).is_valid


class TestNonFiniteInput:
    """One NaN entry is a ValidationError, not an eigensolver failure."""

    def test_state(self, m2):
        rho = np.eye(2, dtype=complex) / 2
        rho[0, 1] = np.nan
        with pytest.raises(ValidationError, match="state has a non-finite entry"):
            validate_state(m2, State(m2, [rho]))

    def test_povm(self, m2):
        e11 = np.diag([1.0, 0.0]).astype(complex)
        e11[1, 1] = np.nan
        a = Povm(m2, [m2.element([e11]), m2.diagonal([[0, 1]])])
        with pytest.raises(ValidationError, match="POVM element 0 has a non-finite entry"):
            validate_povm(m2, a)


class TestPhiNorm:
    def test_zero_element(self, m2, trace_state_m2):
        assert phi_norm_sq(trace_state_m2, m2.zero()) == 0.0

    def test_projection_under_trace(self, m2, trace_state_m2):
        assert phi_norm_sq(trace_state_m2, m2.diagonal([[1, 0]])) == pytest.approx(0.5)

    def test_weighted_indicator(self):
        alg, phi, _ = linfty2_family(0.1)
        x = alg.diagonal([[0.0], [1.0]])
        assert phi_norm_sq(phi, x) == pytest.approx(0.1)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_triangle_inequality(self, seed):
        rng = rng_for(seed)
        alg = BlockAlgebra((int(rng.integers(1, 5)), int(rng.integers(1, 4))))
        phi = random_density(alg, rng)
        x = random_element(alg, rng)
        y = random_element(alg, rng)
        lhs = phi_norm_sq(phi, x + y)
        rhs = (math.sqrt(phi_norm_sq(phi, x)) + math.sqrt(phi_norm_sq(phi, y))) ** 2
        assert lhs <= rhs + 1e-10 * max(1.0, rhs)


class TestDefect:
    def test_exact_pvm_zero(self, m2, trace_state_m2):
        p = Povm(m2, [m2.diagonal([[1, 0]]), m2.diagonal([[0, 1]])])
        assert abs(defect(trace_state_m2, p)) <= 1e-15

    def test_linfty2_value(self):
        # phi(a1^2 + a2^2) = (1-c) + c/2, so the defect is c/2.
        for c in (0.02, 0.1, 0.5):
            alg, phi, a = linfty2_family(c)
            assert defect(phi, a) == pytest.approx(c / 2, abs=1e-15)

    def test_counterexample_closed_form(self):
        # Tr(sum a_i^2)/2 evaluates to (1 + 7d + 24d^2) / (1 + 6d)^2.
        for d in (0.001, 0.01):
            alg, phi, a = counterexample_triple(d)
            expected = (5 * d + 12 * d * d) / (1 + 12 * d + 36 * d * d)
            assert defect(phi, a) == pytest.approx(expected, abs=1e-14)
            assert defect(phi, a) <= 6 * d

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_defect_range_random(self, seed):
        from povmround.generators import random_povm_near_pvm, random_state

        rng = rng_for(seed)
        alg = BlockAlgebra((int(rng.integers(1, 5)),))
        n = int(rng.integers(1, 5))
        a = random_povm_near_pvm(alg, n, float(rng.uniform(0, 0.4)), rng)
        phi = random_state(alg, rng)
        eps = defect(phi, a)
        assert -1e-9 <= eps <= 1.0 + n * 1e-9

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_pvm_defect_vanishes(self, seed):
        from povmround.generators import random_pvm, random_state

        rng = rng_for(seed)
        alg = BlockAlgebra((int(rng.integers(1, 6)),))
        n = int(rng.integers(1, 5))
        p = random_pvm(alg, n, rng)
        phi = random_state(alg, rng)
        assert abs(defect(phi, p)) <= n * 1e-9


class TestSpectralClusters:
    def test_identity_single_cluster(self):
        alg = BlockAlgebra((3,))
        (clusters,) = labelled_clusters(alg, alg.identity())
        assert len(clusters) == 1
        value, basis = clusters[0]
        assert value == pytest.approx(1.0)
        assert basis.shape == (3, 3)

    def test_distinct_eigenvalues_split(self):
        alg = BlockAlgebra((3,))
        (clusters,) = labelled_clusters(alg, alg.diagonal([[1.0, 0.5, 0.0]]))
        assert [value for value, _ in clusters] == pytest.approx([1.0, 0.5, 0.0])

    def test_gap_below_tolerance_merges(self):
        alg = BlockAlgebra((3,))
        (clusters,) = labelled_clusters(alg, alg.diagonal([[1.0, 1.0 + 1e-12, 0.0]]))
        values = [value for value, _ in clusters]
        assert len(values) == 2
        assert values == pytest.approx([1.0, 0.0], abs=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_reconstruction(self, seed):
        rng = rng_for(seed)
        alg = BlockAlgebra((int(rng.integers(1, 7)),))
        h = random_element(alg, rng, herm=True)
        sc = labelled_clusters(alg, h)
        diff = reconstruct(sc, alg) - h
        bound = max(1e-8 * alg.dims[0], 1e-8)
        assert diff.norm_fro() <= bound
        for clusters in sc:
            # bases jointly orthonormal and spanning
            basis = np.hstack([b for _, b in clusters])
            assert np.allclose(basis.conj().T @ basis, np.eye(basis.shape[1]), atol=1e-12)
            vals = [value for value, _ in clusters]
            assert all(a - b > 1e-8 for a, b in zip(vals, vals[1:]))


class TestHermitianSqrt:
    def test_root_squares_back_and_reports_clip(self):
        alg = BlockAlgebra((2, 1))
        x = alg.element([np.array([[0.5, 0.25j], [-0.25j, 0.5]]), np.array([[-1e-3]])])
        root, clip = hermitian_sqrt(alg, hermitian_eigh(x))
        assert clip == pytest.approx(1e-3, abs=1e-15)
        assert np.allclose(root.blocks[0] @ root.blocks[0], x.blocks[0], atol=1e-14)
        assert root.blocks[1][0, 0] == 0.0

    def test_eigh_reads_the_hermitian_part(self):
        alg = BlockAlgebra((2,))
        x = alg.element([np.array([[1.0, 2.0], [0.0, 1.0]])])
        for (w, v), (w_h, v_h) in zip(hermitian_eigh(x), hermitian_eigh(x.hermitized()[0])):
            assert np.array_equal(w, w_h) and np.array_equal(v, v_h)
        assert hermitian_eigh(x)[0][0][0] == pytest.approx([0.0, 2.0])  # block 0 of the size-2 stack


class TestCommutatorNorm:
    def test_commuting_diagonals(self, m2, trace_state_m2):
        x = m2.diagonal([[1, 2]])
        y = m2.diagonal([[3, 4]])
        assert commutator_phi_norm_sq(trace_state_m2, x, y) == 0.0

    def test_projection_against_hadamard(self, m2, trace_state_m2):
        # [e11, (1/2)ones] = (1/2) [[0, 1], [-1, 0]], squared norm under tr/2 is 1/4.
        x = m2.diagonal([[1, 0]])
        y = m2.element([0.5 * np.ones((2, 2))])
        assert commutator_phi_norm_sq(trace_state_m2, x, y) == pytest.approx(0.25)

    def test_self_commutator_zero(self, m2, trace_state_m2):
        x = random_element(m2, rng_for(5))
        assert commutator_phi_norm_sq(trace_state_m2, x, x) <= 1e-28


class TestPvmValidation:
    def test_pvm_for_exact_projections(self, m2):
        p = Pvm(m2, [m2.diagonal([[1, 0]]), m2.diagonal([[0, 1]])])
        diag = validate_pvm(m2, p)
        assert diag.is_valid and diag.idempotency_residual == 0.0

    def test_povm_that_is_not_projective(self):
        alg, _, a = linfty2_family(0.2)
        diag = validate_pvm(alg, Pvm(alg, list(a.elements)))
        assert not diag.is_valid
        assert diag.idempotency_residual > 0.1


class TestTolerances:
    def test_defaults_positive(self):
        tol = Tolerances()
        assert tol.cert_tol == 1e-9 and tol.psd_tol == 1e-9
        assert tol.gap_tol == 1e-6

    def test_fields_are_the_per_run_tolerances(self):
        names = [f.name for f in dataclasses.fields(Tolerances)]
        assert names == ["psd_tol", "cert_tol", "gap_tol"]

    def test_every_field_is_read(self):
        # A field that no module of the package reads as tol.<field> is a dead knob.
        source = "\n".join(p.read_text() for p in Path(povmround.__file__).parent.glob("*.py"))
        unread = [
            f.name for f in dataclasses.fields(Tolerances)
            if not re.search(rf"\btol\.{f.name}\b", source)
        ]
        assert unread == []

    def test_replace_touches_barrier(self):
        tol = Tolerances().replace(gap_tol=1e-8, cert_tol=1e-10)
        assert tol.gap_tol == 1e-8
        assert tol.cert_tol == 1e-10
        assert tol.psd_tol == 1e-9

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError):
            Tolerances().replace(bogus=1.0)

    @pytest.mark.parametrize("name,value", [
        ("psd_tol", True),
        ("gap_tol", False),
        ("cert_tol", np.True_),
    ])
    def test_boolean_tolerance_rejected(self, name, value):
        # bool is an int subclass: True would otherwise pass as 1 or 1.0.
        with pytest.raises(ValidationError, match=name):
            Tolerances(**{name: value})


# Sizes interleave and repeat out of order, so every per-size stack and the
# map from block index to (stack, slot) are exercised; every workload of the
# benchmark uses a single block size.
MIXED_DIMS = (2, 3, 2, 1, 3, 5, 2)


def _same_blocks(x, blocks) -> bool:
    return len(x.blocks) == len(blocks) and all(
        a.shape == b.shape and np.array_equal(a, b) for a, b in zip(x.blocks, blocks)
    )


class TestStackedAgainstPerBlockOracle:
    """Every stacked operation is bitwise the per-block loop it replaced."""

    @pytest.fixture
    def case(self):
        alg = BlockAlgebra(MIXED_DIMS)
        rng = rng_for(2024)
        x, y = random_element(alg, rng), random_element(alg, rng)
        ox, oy = TupleElementOracle(x.blocks), TupleElementOracle(y.blocks)
        return alg, rng, x, y, ox, oy

    def test_layout(self, case):
        alg, _, x, _, _, _ = case
        assert alg.sizes == (2, 3, 1, 5)
        assert alg.members == ((0, 2, 6), (1, 4), (3,), (5,))
        assert [s.shape for s in x.stacks] == [(3, 2, 2), (2, 3, 3), (1, 1, 1), (1, 5, 5)]
        assert all(np.shares_memory(b, x.stacks[g]) for b, (g, _) in zip(x.blocks, alg.slots))
        values = [np.arange(len(ks)) * 10 + g for g, ks in enumerate(alg.members)]
        assert alg.per_block(values) == [0, 1, 10, 2, 11, 3, 20]
        assert alg.block_sum([0.1 * v for v in values]) == sum(0.1 * v for v in alg.per_block(values))

    def test_element_operations(self, case):
        _, _, x, y, ox, oy = case
        for got, want in [
            (x + y, ox + oy), (x - y, ox - oy), (x @ y, ox @ oy), (x.H, ox.H),
            (x.commutator(y), ox.commutator(oy)), (2.5 * x, ox * 2.5),
            (x * (0.3 - 1.7j), ox * (0.3 - 1.7j)),
        ]:
            assert _same_blocks(got, want.blocks)
        for got, want in [
            (x.trace(), ox.trace()), (x.norm_fro(), ox.norm_fro()),
            (x.skew_norm(), ox.skew_norm()),
        ]:
            assert got == want and type(got) is type(want)
        h, residual = x.hermitized()
        oh, oresidual = ox.hermitized()
        assert _same_blocks(h, oh.blocks) and residual == oresidual
        stacked = x.algebra.per_block(x.eigvals())
        assert all(np.array_equal(a, b) for a, b in zip(stacked, ox.eigvals()))

    def test_state_expectation(self, case):
        alg, rng, x, _, _, _ = case
        phi = random_density(alg, rng)
        for e in (x, x @ x.H, alg.identity()):
            assert phi.expect(e) == per_block_expect_oracle(phi.densities, e)

    def test_eigh_and_sqrt(self, case):
        alg, _, x, _, _, _ = case
        h = x @ x.H
        stacked, oracle = hermitian_eigh(h), per_block_eigh_oracle(h)
        for (w, v), (ow, ov) in zip(
            zip(alg.per_block([w for w, _ in stacked]), alg.per_block([v for _, v in stacked])),
            oracle,
        ):
            assert np.array_equal(w, ow) and np.array_equal(v, ov)
        for lo, hi in ((0.0, np.inf), (0.5, 2.0)):
            root, clip = hermitian_sqrt(alg, stacked, lo, hi)
            oroot, oclip = per_block_sqrt_oracle(alg, oracle, lo, hi)
            assert _same_blocks(root, oroot.blocks) and clip == oclip

    def test_complete_polar(self, case):
        alg, _, x, _, _, _ = case
        stacked = complete_polar(x.stacks)
        oracle = per_block_polar_oracle(x.blocks)
        assert all(np.array_equal(a, b) for a, b in zip(alg.per_block(stacked), oracle))

    def test_spectral_clusters(self, case):
        alg, _, x, _, _, _ = case
        # Repeated eigenvalues in some blocks, so clusters of several sizes occur.
        h = alg.element([np.diag(np.round(np.diag(b).real, 0)) for b in (x @ x.H).blocks])
        h = h + 1e-12 * (x + x.H)
        stacked = labelled_clusters(alg, h)
        assert any(b.shape[1] > 1 for c in stacked for _, b in c)

    def test_spectral_clusters_reject_per_block_eigenpairs(self, case):
        alg, _, x, _, _, _ = case
        with pytest.raises(ShapeMismatchError):
            spectral_clusters(alg, per_block_eigh_oracle(x), 1e-8)
