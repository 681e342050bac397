"""Projection selection, polar completion, POVM rounding, symmetry mode."""

import dataclasses
import importlib
import itertools
import math
import warnings

import numpy as np
import pytest

from povmround import (
    BlockAlgebra,
    Povm,
    PreconditionError,
    Pvm,
    State,
    Tolerances,
    complete_polar,
    decompose_generated_algebra,
    defect,
    orthogonalize,
    orthogonalize_symmetry_preserving,
    phi_norm_sq,
    select_projections,
    validate_pvm,
)
from povmround.algebra import (
    hermitian_eigh,
    hermitian_sqrt,
    idempotency_residual,
    spectral_clusters,
)
from povmround.generators import (
    counterexample_triple,
    gen_instance,
    haar_unitary,
    linfty2_family,
    random_hermitian,
    random_povm_near_pvm,
    random_state,
)
from povmround.orthogonalize import CLUSTER_TOL, _commutant_basis, _safe_ratio

from conftest import (
    kernel_completion_oracle,
    kron_null_space_oracle,
    per_block_clusters_oracle,
    per_block_eigh_oracle,
    per_block_item_selection_oracle,
    per_cluster_eigh_selection_oracle,
    projection_range,
    random_density,
    range_basis_polar_oracle,
    rng_for,
)

orthogonalize_module = importlib.import_module("povmround.orthogonalize")


def enumerate_abelian_pvms(alg, n):
    """All PVMs with n outputs on a fully diagonal algebra: every coordinate is
    assigned to exactly one output."""
    total = alg.total_dim
    for assignment in itertools.product(range(n), repeat=total):
        entries = [[[] for _ in alg.dims] for _ in range(n)]
        pos = 0
        for k, d in enumerate(alg.dims):
            for _ in range(d):
                for i in range(n):
                    entries[i][k].append(1.0 if assignment[pos] == i else 0.0)
                pos += 1
        yield Pvm(alg, [alg.diagonal(rows) for rows in entries])


def min_abelian_error(alg, phi, a):
    """Brute-force minimum of sum_i phi(|a_i - p_i|^2) over all abelian PVMs."""
    return min(
        sum(phi_norm_sq(phi, e - p) for e, p in zip(a.elements, pvm.elements))
        for pvm in enumerate_abelian_pvms(alg, a.n)
    )


def _select_with_warnings(alg, phi, a):
    """Selection at psd_tol 1e-3 and the clipped-score warnings it emits."""
    with pytest.warns(RuntimeWarning) as record:
        sel = select_projections(alg, phi, a, Tolerances(psd_tol=1e-3))
    messages = [str(w.message) for w in record]
    assert all(m.startswith("selection score") for m in messages)
    return sel, messages


def _recorded(call, *args):
    """call(*args) and the messages of every warning it emits."""
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        result = call(*args)
    return result, [str(w.message) for w in record]


def _count_decompositions(monkeypatch, alg, phi, a):
    """The eigh and eigvalsh calls of one orthogonalize run."""
    calls = {"eigh": 0, "eigvalsh": 0}
    for name in calls:
        original = getattr(np.linalg, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    orthogonalize(alg, phi, a)
    return calls


def _count_random(monkeypatch, dims):
    """Counts on a random n = 3 POVM, whose clusters are all 1 x 1.

    One batched eigh runs per (output, block size), shared by the spectral
    clusters and a_i^(1/2), and one per block size for the modulus; eigvalsh
    runs only in the input validation, once per (output, block size) for the
    POVM and once per block size for the state.
    """
    rng = rng_for(5)
    alg = BlockAlgebra(dims)
    a = random_povm_near_pvm(alg, 3, 0.2, rng)
    calls = _count_decompositions(monkeypatch, alg, random_density(alg, rng), a)
    n, sizes = a.n, len(alg.sizes)
    assert calls == {"eigh": n * sizes + sizes, "eigvalsh": n * sizes + sizes}
    return calls


class TestSelectProjections:
    def test_exact_pvm_selects_itself(self, m2, trace_state_m2):
        a = Povm(m2, [m2.diagonal([[1, 0]]), m2.diagonal([[0, 1]])])
        sel = select_projections(m2, trace_state_m2, a)
        assert sel.value == pytest.approx(1.0)
        assert np.allclose(sel.projections[0].blocks[0], np.diag([1, 0]))
        assert np.allclose(sel.projections[1].blocks[0], np.diag([0, 1]))

    def test_linfty2_scores_and_tiebreak(self):
        # Item scores: (output 1, coord 1) 0.9; (1, 2) 0.05; (2, 1) 0; (2, 2) 0.05.
        # The coord-2 slot ties at 0.05 and goes to the lower output index.
        alg, phi, a = linfty2_family(0.1)
        sel = select_projections(alg, phi, a)
        assert sel.value == pytest.approx(0.95, abs=1e-12)
        assert sel.lp_value == pytest.approx(0.95, abs=1e-12)
        assert np.allclose(sel.projections[0].blocks[0], [[1.0]])
        assert np.allclose(sel.projections[0].blocks[1], [[1.0]])
        assert sel.projections[1].norm_fro() == 0.0
        assert sel.ranks == [[1, 0], [1, 0]]

    def test_linfty2_value_is_enumeration_optimum(self):
        # Exhaustive check over all rank-constrained selections in the
        # two-coordinate abelian algebra: one item per coordinate.
        alg, phi, a = linfty2_family(0.1)
        scores = {
            (i, k): a.elements[i].blocks[k][0, 0].real * phi.densities[k][0, 0].real
            for i in range(2)
            for k in range(2)
        }
        best = max(
            scores[(i1, 0)] + scores[(i2, 1)] for i1 in range(2) for i2 in range(2)
        )
        sel = select_projections(alg, phi, a)
        assert sel.value == pytest.approx(best, abs=1e-12)
        assert best == pytest.approx(1.0 - defect(phi, a), abs=1e-12)

    def test_counterexample_needs_two_projections(self):
        alg, phi, a = counterexample_triple(0.01)
        sel = select_projections(alg, phi, a)
        eps0 = defect(phi, a)
        assert sel.value >= 1.0 - eps0 - 1e-9
        nonzero = [q for q in sel.projections if q.norm_fro() > 1e-8]
        assert len(nonzero) >= 2
        assert max(phi.expect(e).real for e in a.elements) <= 0.5 + 1e-12

    def test_rank_sums_and_feasibility_random(self):
        for seed in range(25):
            rng = rng_for(seed)
            alg = BlockAlgebra(tuple(int(d) for d in rng.integers(1, 5, size=2)))
            n = int(rng.integers(1, 5))
            a = random_povm_near_pvm(alg, n, float(rng.uniform(0, 0.4)), rng)
            phi = random_state(alg, rng)
            sel = select_projections(alg, phi, a)
            for k, d in enumerate(alg.dims):
                assert sum(sel.ranks[k]) == d
                for i, v in enumerate(sel.bases[k]):
                    assert v.shape == (d, sel.ranks[k][i])
                    assert np.linalg.norm(v.conj().T @ v - np.eye(v.shape[1])) <= 1e-12
                    assert np.array_equal(v @ v.conj().T, sel.projections[i].blocks[k])
            feas = sum(phi.expect(e @ e).real for e in a.elements)
            assert sel.lp_value >= feas - 1e-9
            assert sel.value >= 1.0 - defect(phi, a) - 1e-9
            assert sel.commutation_residual <= 1e-6
            assert idempotency_residual(sel.projections) <= 1e-9

    @pytest.mark.parametrize("delta", [0.0, 1e-9, 1e-7, 0.2])
    def test_matches_per_cluster_eigh_oracle(self, delta):
        # delta = 0 gives exact PVMs, whose clusters have multiplicity up to d.
        # 1e-9 moves the eigenvalues by less than CLUSTER_TOL, so the same
        # clusters stay merged; 1e-7 splits every one into near-degenerate
        # 1 x 1 clusters.  Of the 74 (output, block) label rows, this many
        # have only simple clusters:
        simple_rows = {0.0: 20, 1e-9: 20, 1e-7: 74, 0.2: 74}[delta]
        rows = []
        for seed in range(12):
            rng = rng_for(300 + seed)
            alg = BlockAlgebra(tuple(int(d) for d in rng.integers(1, 6, size=2)))
            a = random_povm_near_pvm(alg, int(rng.integers(2, 5)), delta, rng)
            for e in a.elements:
                for _, v, labels in spectral_clusters(alg, hermitian_eigh(e), CLUSTER_TOL):
                    rows += (labels[:, -1] == v.shape[-1] - 1).tolist()
            phi = random_density(alg, rng)
            sel = select_projections(alg, phi, a)
            bases, lp_value = per_cluster_eigh_selection_oracle(alg, phi, a)
            assert sel.lp_value == pytest.approx(lp_value, rel=1e-14, abs=1e-15)
            for row, oracle_row in zip(sel.bases, bases):
                for v, u in zip(row, oracle_row):
                    assert v.shape == u.shape
                    assert np.linalg.norm(v @ v.conj().T - u @ u.conj().T) <= 1e-12
        assert (len(rows), sum(rows)) == (74, simple_rows)

    @pytest.mark.parametrize("delta", [0.0, 1e-9, 0.2])
    def test_matches_per_block_item_oracle_on_mixed_sizes(self, delta):
        # Interleaved block sizes.  The M_5 block has zero weight, so its
        # scores all tie at 0; output 0 is shifted down by 5e-4 and output 1
        # up, so some scores are clipped.
        alg = BlockAlgebra((2, 3, 2, 1, 3, 5, 2))
        checked = clipped = 0
        for seed in range(6):
            rng = rng_for(700 + seed)
            a = random_povm_near_pvm(alg, int(rng.integers(2, 5)), delta, rng)
            shift = 5e-4 * alg.identity()
            a = Povm(alg, [a.elements[0] - shift, a.elements[1] + shift, *a.elements[2:]])
            rho = [r * (k != 5) for k, r in enumerate(random_density(alg, rng).densities)]
            phi = State(alg, [r / sum(np.trace(x).real for x in rho) for r in rho])
            sel, messages = _recorded(select_projections, alg, phi, a, Tolerances(psd_tol=1e-3))
            (ranks, vectors, lp_value), oracle_messages = _recorded(
                per_block_item_selection_oracle, alg, phi, a
            )
            assert sel.ranks == ranks and sel.lp_value == lp_value
            assert messages == oracle_messages
            clipped += len(messages)
            clusters = [per_block_clusters_oracle(per_block_eigh_oracle(e), CLUSTER_TOL)
                        for e in a.elements]
            for k, (u, v) in enumerate(zip(sel.vectors.blocks, vectors)):
                if all(b.shape[1] == 1 for c in clusters for _, b in c[k]):
                    assert np.array_equal(u, v)
                    checked += 1
                else:
                    assert np.linalg.norm(u @ u.conj().T - v @ v.conj().T) <= 1e-12
        # Every M_1 block is simple; at delta = 0.2 every block is.
        blocks = 6 * alg.num_blocks
        assert (checked == blocks) if delta == 0.2 else (6 <= checked < blocks)
        assert clipped > 0 or delta == 0.2

    def test_tied_scores_break_like_the_per_block_item_oracle(self):
        # Diagonal entries in quarters under the normalized trace: many items
        # of a block tie, within and across outputs and clusters, in rows of
        # 20 items, past numpy's insertion-sort cutoff.
        alg = BlockAlgebra((5, 2, 5))
        entries = rng_for(9).multinomial(4, [0.25] * 4, size=alg.total_dim).T / 4
        cuts = np.cumsum(alg.dims)[:-1]
        a = Povm(alg, [alg.diagonal(np.split(row, cuts)) for row in entries])
        phi = State.normalized_trace(alg)
        sel = select_projections(alg, phi, a)
        ranks, vectors, lp_value = per_block_item_selection_oracle(alg, phi, a)
        assert sel.ranks == ranks and sel.lp_value == lp_value
        assert all(np.array_equal(u, v) for u, v in zip(sel.vectors.blocks, vectors))

    def test_clipped_score_warns_on_a_simple_eigenvalue(self, m2, trace_state_m2):
        a = Povm(m2, [m2.diagonal([[-5e-4, 1.0]]), m2.diagonal([[1.0 + 5e-4, 0.0]])])
        sel, messages = _select_with_warnings(m2, trace_state_m2, a)
        assert len(messages) == 1
        assert messages[0].startswith("selection score -2.500e-04 ")
        assert sel.lp_value == pytest.approx((1.0 + 5e-4) / 2 + 1.0 / 2, abs=1e-15)

    def test_clipped_scores_warn_on_a_double_eigenvalue(self):
        alg = BlockAlgebra((3,))
        a = Povm(alg, [
            alg.diagonal([[-5e-4, -5e-4, 1.0]]), alg.diagonal([[1.0 + 5e-4, 1.0 + 5e-4, 0.0]])
        ])
        sel, messages = _select_with_warnings(alg, State.normalized_trace(alg), a)
        assert len(messages) == 2
        assert sel.lp_value == pytest.approx((2 * (1.0 + 5e-4) + 1.0) / 3, abs=1e-15)

    def test_picked_clipped_score_counts_zero(self, m2):
        # rho = diag(1, 0): the output-0 item at e_1 scores -1e-4, ties at 0
        # with the zero-weight items and wins the tie on its larger eigenvalue,
        # so it is picked and adds 0, not -1e-4, to the linear program.
        phi = State(m2, [np.diag([1.0, 0.0])])
        a = Povm(m2, [m2.diagonal([[-1e-4, -5e-4]]), m2.diagonal([[1.0 + 1e-4, 1.0 + 5e-4]])])
        sel, messages = _select_with_warnings(m2, phi, a)
        assert len(messages) == 1
        assert sel.ranks == [[1, 1]]
        assert np.allclose(np.abs(sel.bases[0][0][:, 0]), [1.0, 0.0])
        assert sel.lp_value == 1.0 + 1e-4


def _selected_column_maps(alg, a, projections):
    """The tall column maps with rows q_i a_i^(1/2) that the oracles take."""
    roots = [hermitian_sqrt(alg, hermitian_eigh(e), 0.0, 1.0)[0] for e in a.elements]
    return [
        np.vstack([q.blocks[k] @ r.blocks[k] for q, r in zip(projections, roots)])
        for k in range(alg.num_blocks)
    ]


def _selected_square_maps(alg, a, sel):
    """The square maps with rows V_ki^H a_i^(1/2) that orthogonalize builds."""
    roots = [hermitian_sqrt(alg, hermitian_eigh(e), 0.0, 1.0)[0] for e in a.elements]
    return [
        np.vstack([v.conj().T @ r.blocks[k] for v, r in zip(sel.bases[k], roots)])
        for k in range(alg.num_blocks)
    ]


def _stacked_basis(bases, d):
    """The isometry Q with n*d rows and the bases V_i at the block offsets of output i."""
    n = len(bases)
    q_basis = np.zeros((n * d, sum(v.shape[1] for v in bases)), dtype=complex)
    col = 0
    for i, v in enumerate(bases):
        q_basis[i * d : (i + 1) * d, col : col + v.shape[1]] = v
        col += v.shape[1]
    return q_basis


def _map_with_singular_values(singular, rng):
    """M_3 targets q_1, q_2 of ranks 2 and 1, the stacked basis Q of their
    ranges and a square map y with the given singular values; the column map
    is x = Q y.  Returns (alg, targets, Q, y)."""
    alg = BlockAlgebra((3,))
    targets = []
    for diag in ([1.0, 1.0, 0.0], [1.0, 0.0, 0.0]):
        v = haar_unitary(rng, 3)
        targets.append(alg.element([v @ np.diag(diag) @ v.conj().T]))
    q_basis = _stacked_basis([projection_range(q.blocks[0]) for q in targets], 3)
    y = haar_unitary(rng, 3) @ np.diag(singular) @ haar_unitary(rng, 3)
    return alg, targets, q_basis, y


def _diag_targets(targets, k):
    """diag(q_1, ..., q_n) of block k."""
    d = targets[0].algebra.dims[k]
    out = np.zeros((len(targets) * d, len(targets) * d), dtype=complex)
    for i, q in enumerate(targets):
        out[i * d : (i + 1) * d, i * d : (i + 1) * d] = q.blocks[k]
    return out


class TestCompletePolar:
    def test_unitary_input_returned(self):
        rng = rng_for(7)
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        q, _ = np.linalg.qr(g)
        w = complete_polar([q])
        assert np.allclose(w[0], q, atol=1e-12)

    def test_zero_on_one_dim_block(self):
        w = complete_polar([np.zeros((1, 1))])
        assert np.allclose(w[0], [[1.0]])

    def test_rank_deficient_diagonal(self):
        # Hand SVD of diag(0.6, 0): the unitary polar factor is the identity.
        w = complete_polar([np.diag([0.6, 0.0]).astype(complex)])
        assert np.allclose(w[0], np.eye(2), atol=1e-12)

    def test_isometry_and_range_properties(self):
        # In the selected eigenvectors the column map is x = Q y, so Q w is
        # the isometric polar part of x with range diag(q_i).
        rng = rng_for(11)
        alg = BlockAlgebra((3,))
        phi = random_density(alg, rng)
        a = random_povm_near_pvm(alg, 3, 0.2, rng)
        sel = select_projections(alg, phi, a)
        x = _selected_column_maps(alg, a, sel.projections)[0]
        y = _selected_square_maps(alg, a, sel)[0]
        q_basis = _stacked_basis(sel.bases[0], 3)
        assert np.allclose(x, q_basis @ y, atol=1e-12)
        u = q_basis @ complete_polar([y])[0]
        assert np.allclose(u.conj().T @ u, np.eye(3), atol=1e-10)
        assert np.allclose(u @ u.conj().T, _diag_targets(sel.projections, 0), atol=1e-10)

    @pytest.mark.parametrize("d, n", list(itertools.product(range(3, 9), range(2, 5))))
    def test_full_rank_matches_kernel_completion_oracle(self, d, n):
        # The polar factor of a full-rank map is unique, so the PVM p_i = w_i^H w_i
        # agrees with p_i = u_i^H q_i u_i from both tall-map constructions.
        rng = rng_for(100 * d + n)
        alg = BlockAlgebra((d,))
        a = random_povm_near_pvm(alg, n, 0.2, rng)
        phi = random_density(alg, rng)
        sel = select_projections(alg, phi, a)
        cols = _selected_column_maps(alg, a, sel.projections)
        assert np.linalg.svd(cols[0], compute_uv=False)[-1] > 1e-3
        pvm = orthogonalize(alg, phi, a).pvm
        for oracle in (kernel_completion_oracle, range_basis_polar_oracle):
            u = oracle(alg, cols, sel.projections)[0]
            for i, q in enumerate(sel.projections):
                ui = u[i * d : (i + 1) * d, :]
                expected = ui.conj().T @ q.blocks[0] @ ui
                assert np.linalg.norm(pvm.elements[i].blocks[0] - expected) <= 1e-10

    @pytest.mark.parametrize(
        "singular", [(1.0, 0.5, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, 0.0), (1.0, 1e-11, 1e-13)]
    )
    def test_rank_deficient_isometry_like_oracle(self, singular):
        alg, targets, q_basis, y = _map_with_singular_values(singular, rng_for(17))
        w = complete_polar([y])[0]
        assert np.linalg.norm(w.conj().T @ w - np.eye(3)) <= 1e-12
        assert np.linalg.norm(w @ w.conj().T - np.eye(3)) <= 1e-12
        target = _diag_targets(targets, 0)
        x = q_basis @ y
        for u in (
            q_basis @ w,
            kernel_completion_oracle(alg, [x], targets)[0],
            range_basis_polar_oracle(alg, [x], targets)[0],
        ):
            assert np.linalg.norm(u.conj().T @ u - np.eye(3)) <= 1e-12
            assert np.linalg.norm(u @ u.conj().T - target) <= 1e-12

    def test_polar_identity_exact_without_cutoff(self):
        # Singular values far below rank_tol still satisfy y = w|y|.
        _, _, _, y = _map_with_singular_values((1.0, 1e-11, 1e-13), rng_for(21))
        _, s, vh = np.linalg.svd(y)
        modulus = vh.conj().T @ np.diag(s) @ vh
        w = complete_polar([y])[0]
        assert np.linalg.norm(y - w @ modulus) <= 1e-14

    def test_svd_operands_are_square(self, monkeypatch):
        rng = rng_for(23)
        alg = BlockAlgebra((4, 2, 1))
        a = random_povm_near_pvm(alg, 3, 0.2, rng)
        phi = random_density(alg, rng)
        shapes = []
        svd = np.linalg.svd

        def recording_svd(m, *args, **kwargs):
            shapes.append(np.shape(m))
            return svd(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        orthogonalize(alg, phi, a)
        # One batched SVD per block size, of that size's (count, d, d) stack.
        assert shapes == [(len(ks), d, d) for d, ks in zip(alg.sizes, alg.members)]

    def test_rank_sum_violation_raises(self):
        # Bases of total rank 1 on a 2-dimensional block give a wide map; the
        # tall (n*d, d) column map of the projections is not square either.
        for shape in [(1, 2), (4, 2), (2,)]:
            with pytest.raises(PreconditionError, match="square"):
                complete_polar([np.eye(2, dtype=complex), np.zeros(shape)])


class TestOrthogonalize:
    def test_pvm_fixed_point(self):
        rng = rng_for(3)
        alg = BlockAlgebra((4,))
        phi = random_density(alg, rng)
        from povmround.generators import random_pvm

        p = random_pvm(alg, 3, rng)
        rep = orthogonalize(alg, phi, p)
        assert rep.error <= 1e-12
        assert max(
            (x - y).norm_fro() for x, y in zip(rep.pvm.elements, p.elements)
        ) <= 1e-7

    def test_linfty2_saturates_lower_bound(self):
        alg, phi, a = linfty2_family(0.1)
        rep = orthogonalize(alg, phi, a)
        assert rep.defect == pytest.approx(0.05, abs=1e-12)
        assert rep.error == pytest.approx(0.05, abs=1e-10)
        assert rep.ratio == pytest.approx(1.0, abs=1e-8)
        # The rounding is exactly the exhaustive optimum over abelian PVMs.
        assert min_abelian_error(alg, phi, a) == pytest.approx(rep.error, abs=1e-10)

    @pytest.mark.parametrize("c", [0.02, 0.1, 0.5])
    def test_linfty2_family_sweep(self, c):
        alg, phi, a = linfty2_family(c)
        rep = orthogonalize(alg, phi, a)
        assert rep.defect == pytest.approx(c / 2, abs=1e-12)
        assert rep.error == pytest.approx(c / 2, abs=1e-10)
        assert min_abelian_error(alg, phi, a) >= c / 2 - 1e-12

    def test_counterexample_bound(self):
        alg, phi, a = counterexample_triple(0.01)
        rep = orthogonalize(alg, phi, a)
        assert rep.defect <= 0.06
        assert rep.error <= 9 * rep.defect + 1e-7
        assert validate_pvm(alg, rep.pvm).is_valid

    def test_random_suite_certificates(self):
        for seed in range(40):
            rng = rng_for(1000 + seed)
            alg = BlockAlgebra(tuple(int(d) for d in rng.integers(1, 5, size=2)))
            n = int(rng.integers(2, 6))
            a = random_povm_near_pvm(alg, n, float(rng.uniform(0, 0.45)), rng)
            phi = random_state(alg, rng)
            rep = orthogonalize(alg, phi, a)
            certs = rep.certificates
            assert rep.error <= 9 * rep.defect + 1e-7
            assert certs.midpoint_residual <= 1e-7
            assert certs.pvm_idempotency <= 1e-8
            assert certs.pvm_sum_residual <= 1e-8
            assert max(certs.term_unselected, certs.term_modulus,
                       certs.term_selected_nonproj) <= rep.defect + 1e-7
            # Converse estimate from the triangle inequality.
            assert 1.0 - rep.defect >= (1.0 - math.sqrt(rep.error)) ** 2 - 1e-7
            diag = validate_pvm(alg, rep.pvm)
            assert diag.is_valid or diag.idempotency_residual <= 1e-8

    def test_rounding_beats_brute_force_within_9eps(self):
        # On small abelian instances the rounding error is within 9x defect of
        # the exhaustive optimum (and in practice matches it).
        rng = rng_for(77)
        alg = BlockAlgebra((1, 1, 1))
        for _ in range(5):
            raw = rng.uniform(0, 1, size=(2, 3))
            total = raw.sum(axis=0)
            a = Povm(alg, [alg.diagonal([[v] for v in raw[i] / total]) for i in range(2)])
            weights = rng.uniform(0.05, 1, size=3)
            weights /= weights.sum()
            phi = State(alg, [np.array([[w]]) for w in weights])
            rep = orthogonalize(alg, phi, a)
            best = min_abelian_error(alg, phi, a)
            assert best - 1e-12 <= rep.error <= 9 * rep.defect + 1e-7

    def test_no_projection_is_diagonalized_again(self, monkeypatch):
        # Every cluster here is 1 x 1 and no q_i block is decomposed.
        assert _count_random(monkeypatch, (2, 2, 3, 1)) == {"eigh": 12, "eigvalsh": 12}

    def test_each_element_is_diagonalized_once(self, monkeypatch):
        assert _count_random(monkeypatch, (4,) * 10) == {"eigh": 4, "eigvalsh": 4}

    def test_each_multiple_cluster_adds_one_eigh(self, monkeypatch):
        # An exact PVM of ranks (2, 1) on M_3: two clusters of multiplicity 2
        # (the eigenvalue 1 of a_1 and 0 of a_2) add one eigh each.
        alg = BlockAlgebra((3,))
        a = Povm(alg, [alg.diagonal([[1.0, 1.0, 0.0]]), alg.diagonal([[0.0, 0.0, 1.0]])])
        calls = _count_decompositions(monkeypatch, alg, State.normalized_trace(alg), a)
        assert calls == {"eigh": 2 + 2 + 1, "eigvalsh": 2 + 1}

    def test_stored_pvm_gate_agrees_with_validate_pvm(self):
        # The stored idempotency and sum residuals are the whole PVM gate of
        # OrthReport.checks: they pass exactly where validate_pvm does, also
        # on an output moved to an idempotency residual in (1e-9, 1e-8], which
        # the former 1e-8 gate let through.
        rng = rng_for(11)
        alg = BlockAlgebra((3, 2))
        phi = random_density(alg, rng)
        rep = orthogonalize(alg, phi, random_povm_near_pvm(alg, 3, 0.2, rng))

        def gate(report):
            checks = {c.name: c.passed for c in report.checks()}
            return checks["pvm_idempotency"] and checks["pvm_sum_residual"]

        assert gate(rep) and validate_pvm(alg, rep.pvm).is_valid

        # p_0 -> (1 + t) p_0 and p_1 -> p_1 - t p_0 keep the sum and give both
        # elements the idempotency residual (t + t^2) ||p_0||_F.
        p0, p1, p2 = rep.pvm.elements
        t = 4e-9 / p0.norm_fro()
        moved = Pvm(alg, [(1.0 + t) * p0, p1 - t * p0, p2])
        certs = dataclasses.replace(
            rep.certificates,
            pvm_idempotency=idempotency_residual(moved.elements),
            pvm_sum_residual=moved.sum_residual(),
        )
        moved_rep = dataclasses.replace(rep, pvm=moved, certificates=certs)
        assert 1e-9 < certs.pvm_idempotency <= 1e-8
        assert certs.pvm_sum_residual <= 1e-9
        assert not gate(moved_rep)
        assert not validate_pvm(alg, moved).is_valid

    def test_ratio_inf_safe(self, m2, trace_state_m2):
        assert _safe_ratio(0.0, 0.0) == 0.0
        assert _safe_ratio(1e-3, 0.0) == math.inf
        assert _safe_ratio(-1e-18, 0.0) == 0.0
        assert _safe_ratio(2.0, 4.0) == 0.5
        p = Povm(m2, [m2.diagonal([[1, 0]]), m2.diagonal([[0, 1]])])
        rep = orthogonalize(m2, trace_state_m2, p)
        assert rep.defect == rep.error == rep.ratio == 0.0


class TestDecomposeGeneratedAlgebra:
    def test_distinct_diagonal(self, m2):
        d = decompose_generated_algebra([m2.diagonal([[1.0, 2.0]])])
        assert d.sub.dims == (1, 1)
        assert d.multiplicities == (1, 1)
        # W is the identity up to column phases
        assert np.allclose(np.abs(d.basis[0]), np.eye(2), atol=1e-12)

    def test_identity_generates_scalars(self, m2):
        d = decompose_generated_algebra([m2.identity()])
        assert d.sub.dims == (1,)
        assert d.multiplicities == (2,)

    def test_projection_tensor_identity(self):
        alg = BlockAlgebra((4,))
        gen = alg.element([np.kron(np.diag([1.0, 0.0]), np.eye(2))])
        d = decompose_generated_algebra([gen])
        assert d.sub.dims == (1, 1)
        assert d.multiplicities == (2, 2)

    def test_full_matrix_algebra(self):
        rng = rng_for(4)
        alg = BlockAlgebra((3,))
        gens = [random_density(alg, rng).densities[0] for _ in range(2)]
        d = decompose_generated_algebra([alg.element([g]) for g in gens])
        assert d.sub.dims == (3,)
        assert d.multiplicities == (1,)
        assert d.residual <= 1e-10

    def test_embed_compress_roundtrip(self):
        # One Hermitian generator spans an abelian algebra: its two eigenspaces,
        # each doubled by the tensor factor.
        rng = rng_for(13)
        alg = BlockAlgebra((4,))
        a2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        a2 = (a2 + a2.conj().T) / 2
        gen = alg.element([np.kron(a2, np.eye(2))])
        d = decompose_generated_algebra([gen])
        assert d.sub.dims == (1, 1)
        assert d.multiplicities == (2, 2)
        assert (d.embed(d.compress(gen)) - gen).norm_fro() <= 1e-10
        # compressed state keeps unit trace
        phi = random_density(alg, rng)
        sub_phi = d.compress_state(phi)
        assert sub_phi.total_trace() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_conjugated_summands_are_one_piece(self, seed):
        # A_i + V^H A_i V: the summands are equivalent through the Haar unitary V.
        rng = rng_for(seed)
        fam = [random_hermitian(rng, 5) for _ in range(3)]
        v = haar_unitary(rng, 5)
        d = decompose_generated_algebra(_direct_sums(fam, [v.conj().T @ a @ v for a in fam]))
        assert d.sub.dims == (5,)
        assert d.multiplicities == (2,)
        assert d.residual <= 1e-10

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_inequivalent_summands_stay_apart(self, seed):
        rng = rng_for(seed)
        fam_a = [random_hermitian(rng, 5) for _ in range(3)]
        fam_b = [random_hermitian(rng, 5) for _ in range(3)]
        d = decompose_generated_algebra(_direct_sums(fam_a, fam_b))
        assert d.sub.dims == (5, 5)
        assert d.multiplicities == (1, 1)

    def test_equivalent_summands(self):
        alg = BlockAlgebra((7,))
        fam = _equivalent_sum_family(rng_for(3), 3)
        d = decompose_generated_algebra([alg.element([a]) for a in fam])
        assert sorted(zip(d.sub.dims, d.multiplicities)) == [(2, 2), (3, 1)]
        assert len(d.commutant) == 5

    def test_pieces_ignore_cluster_tol(self, monkeypatch):
        # CLUSTER_TOL clusters the selection's eigenvalues only: a coarse value
        # must not merge the three copies of M_4.
        monkeypatch.setattr(orthogonalize_module, "CLUSTER_TOL", 0.5)
        rng = rng_for(6)
        alg = BlockAlgebra((12,))
        gens = [alg.element([np.kron(random_hermitian(rng, 4), np.eye(3))]) for _ in range(3)]
        d = decompose_generated_algebra(gens)
        assert d.sub.dims == (4,)
        assert d.multiplicities == (3,)

    def test_one_svd_links_the_pieces(self, monkeypatch):
        # M_2 (x) 1_3: the commutant solve is the only SVD; the generic
        # commutant element it yields also links the three pieces.
        rng = rng_for(9)
        alg = BlockAlgebra((6,))
        gens = [alg.element([np.kron(random_hermitian(rng, 2), np.eye(3))]) for _ in range(2)]
        calls = []
        svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            calls.append(args)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        d = decompose_generated_algebra(gens)
        assert (d.sub.dims, d.multiplicities) == ((2,), (3,))
        assert len(calls) == 1


def _direct_sums(fam_a, fam_b):
    """The generators a_i + b_i on one block of dimension dim(a) + dim(b)."""
    p, q = fam_a[0].shape[0], fam_b[0].shape[0]
    alg = BlockAlgebra((p + q,))
    out = []
    for a, b in zip(fam_a, fam_b):
        block = np.zeros((p + q, p + q), dtype=complex)
        block[:p, :p] = a
        block[p:, p:] = b
        out.append(alg.element([block]))
    return out


class TestSymmetryPreserving:
    def test_diagonal_family_stays_diagonal(self):
        alg = BlockAlgebra((2,))
        a = Povm(alg, [alg.diagonal([[0.9, 0.2]]), alg.diagonal([[0.1, 0.8]])])
        phi = State(alg, [np.diag([0.3, 0.7]).astype(complex)])
        sym = orthogonalize_symmetry_preserving(alg, phi, a)
        assert sym.symmetry_residual <= 1e-10
        for p in sym.pvm.elements:
            off = p.blocks[0] - np.diag(np.diagonal(p.blocks[0]))
            assert np.abs(off).max() <= 1e-10

    def test_single_output_identity(self):
        alg = BlockAlgebra((3,))
        a = Povm(alg, [alg.identity()])
        phi = State.normalized_trace(alg)
        sym = orthogonalize_symmetry_preserving(alg, phi, a)
        assert (sym.pvm.elements[0] - alg.identity()).norm_fro() <= 1e-10
        assert sym.symmetry_residual <= 1e-10

    @pytest.mark.parametrize("seed", [3, 5, 9])
    def test_tensor_block_structure(self, seed):
        # a_i = A_i tensor 1_2: output must be P_i tensor 1_2 where P_i solves
        # the compressed problem with the partial-traced state.
        inst = gen_instance("random_povm_near_pvm", seed, {"dims": [2], "n": 2, "delta": 0.2})
        small = inst.povm
        alg4 = BlockAlgebra((4,))
        big = Povm(alg4, [alg4.element([np.kron(e.blocks[0], np.eye(2))]) for e in small.elements])
        rng = rng_for(100 + seed)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        phi4 = State(alg4, [rho])
        sym = orthogonalize_symmetry_preserving(alg4, phi4, big)
        assert sym.symmetry_residual <= 1e-8
        assert sym.error <= 9 * sym.defect + 1e-7

        rho2 = rho[0::2, 0::2] + rho[1::2, 1::2]
        alg2 = BlockAlgebra((2,))
        plain = orthogonalize(alg2, State(alg2, [rho2]), small)
        diff = max(
            (sym.pvm.elements[i]
             - alg4.element([np.kron(plain.pvm.elements[i].blocks[0], np.eye(2))])).norm_fro()
            for i in range(small.n)
        )
        assert diff <= 1e-8

    def test_matches_plain_on_compressed_data(self):
        inst = gen_instance("random_povm_near_pvm", 21, {"dims": [3], "n": 3, "delta": 0.15})
        alg = inst.algebra
        sym = orthogonalize_symmetry_preserving(alg, inst.state, inst.povm)
        d = sym.decomposition
        plain = orthogonalize(
            d.sub,
            d.compress_state(inst.state),
            Povm(d.sub, [d.compress(e) for e in inst.povm.elements]),
        )
        diff = max(
            (sym.pvm.elements[i] - d.embed(plain.pvm.elements[i])).norm_fro()
            for i in range(inst.povm.n)
        )
        assert diff <= 1e-8


def _null_projector(null, size):
    """Orthogonal projector onto the span of the row-major vectorized basis."""
    if not null:
        return np.zeros((size, size), dtype=complex)
    cols = np.stack([y.reshape(-1) for y in null], axis=1)
    return cols @ cols.conj().T


def _tensor_family(rng, k, m, n):
    return [np.kron(random_hermitian(rng, k), np.eye(m)) for _ in range(n)]


def _equivalent_sum_family(rng, n):
    # A_i + A_i + B_i, conjugated by a Haar unitary: commutant M_2 + C.
    u = haar_unitary(rng, 7)
    fam = []
    for _ in range(n):
        a, b = random_hermitian(rng, 2), random_hermitian(rng, 3)
        block = np.zeros((7, 7), dtype=complex)
        block[:2, :2] = block[2:4, 2:4] = a
        block[4:, 4:] = b
        fam.append(u @ block @ u.conj().T)
    return fam


def _exact_pvm_family(seed):
    alg = BlockAlgebra((9,))
    pvm = random_povm_near_pvm(alg, 3, 0.0, rng_for(seed))
    return [e.blocks[0] for e in pvm.elements]


def _close_gap_diagonal():
    # Eigenvalue gaps of 1e-9, 1e-8, 1e-7 and 1e-6, all inside one run.
    values = 1.0 + np.concatenate([[0.0], np.cumsum([1e-9, 1e-8, 1e-7, 1e-6])])
    return [np.diag(values).astype(complex)]


def _complement_pair(seed):
    # n = 2 with a_2 = 1 - a_1: every restricted column is already null.
    a = random_hermitian(rng_for(seed), 6)
    return [a, np.eye(6) - a]


COMMUTANT_FAMILIES = {
    "tensor_M3_x_1_2": (lambda: _tensor_family(rng_for(1), 3, 2, 3), 4),
    "tensor_M2_x_1_3": (lambda: _tensor_family(rng_for(2), 2, 3, 2), 9),
    "equivalent_summands": (lambda: _equivalent_sum_family(rng_for(3), 3), 5),
    "exact_pvm": (lambda: _exact_pvm_family(4), None),
    "diagonal_close_gaps": (_close_gap_diagonal, 5),
    "complement_pair": (lambda: _complement_pair(5), 6),
}


class TestRestrictedNullSpace:
    """The restricted solve against the dense Kronecker SVD it replaced."""

    @pytest.mark.parametrize("name", sorted(COMMUTANT_FAMILIES))
    def test_commutant_matches_kron_oracle(self, name):
        make, dim = COMMUTANT_FAMILIES[name]
        fam = make()
        d = fam[0].shape[0]
        null = _commutant_basis(fam, 1e-10)
        oracle = kron_null_space_oracle([(a, a) for a in fam], 1e-10)
        if dim is not None:
            assert len(oracle) == dim
        assert len(null) == len(oracle)
        cols = np.stack([y.reshape(-1) for y in null], axis=1)
        assert np.abs(cols.conj().T @ cols - np.eye(len(null))).max() <= 1e-12
        gap = _null_projector(null, d * d) - _null_projector(oracle, d * d)
        assert np.abs(gap).max() <= 1e-10

    def test_exact_pvm_commutant_is_sum_of_rank_blocks(self):
        fam = _exact_pvm_family(4)
        ranks = [round(float(np.trace(p).real)) for p in fam]
        assert len(_commutant_basis(fam, 1e-10)) == sum(r * r for r in ranks)


def test_symmetry_mode_forms_no_d2_by_d2_operand(monkeypatch):
    # M_12 (x) 1_2 at d = 24: no SVD operand with d^2 columns, no kron of d^4 entries.
    rng = rng_for(7)
    small = random_povm_near_pvm(BlockAlgebra((12,)), 3, 0.2, rng)
    alg = BlockAlgebra((24,))
    povm = Povm(alg, [alg.element([np.kron(e.blocks[0], np.eye(2))]) for e in small.elements])
    phi = random_state(alg, rng)
    svd_columns, kron_sizes = [], []
    svd, kron = np.linalg.svd, np.kron

    def counting_svd(a, *args, **kwargs):
        svd_columns.append(np.shape(a)[-1])
        return svd(a, *args, **kwargs)

    def counting_kron(a, b):
        out = kron(a, b)
        kron_sizes.append(out.size)
        return out

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(np, "kron", counting_kron)
    sym = orthogonalize_symmetry_preserving(alg, phi, povm)
    assert sym.decomposition.sub.dims == (12,)
    assert sym.decomposition.multiplicities == (2,)
    assert all(c.passed for c in sym.checks())
    assert svd_columns and 24 * 24 not in svd_columns
    assert 24**4 not in kron_sizes


def test_decomposition_calls_do_not_grow_with_block_count(monkeypatch):
    # Blocks of one size share one LAPACK call per decomposition, so 32 and
    # 128 blocks of M_2 make the same number of eigh, eigvalsh and svd calls.
    counts = []
    for blocks in (32, 128):
        rng = rng_for(blocks)
        alg = BlockAlgebra((2,) * blocks)
        a = random_povm_near_pvm(alg, 4, 0.05, rng)
        phi = random_state(alg, rng)
        calls = dict.fromkeys(("eigh", "eigvalsh", "svd"), 0)
        for name in calls:
            def counting(*args, _name=name, _original=getattr(np.linalg, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        assert all(c.passed for c in orthogonalize(alg, phi, a).checks())
        monkeypatch.undo()
        counts.append(calls)
    assert counts[0] == counts[1] == {"eigh": 5, "eigvalsh": 5, "svd": 1}


def test_cluster_refinement_calls_do_not_grow_with_block_count(monkeypatch):
    # Exact PVMs have eigenvalue clusters of multiplicity 2 in most blocks of
    # M_2; their score matrices share one eigh per (block size, output,
    # multiplicity), so 32 and 128 blocks make the same number of eigh calls.
    counts = []
    for blocks in (32, 128):
        rng = rng_for(blocks)
        alg = BlockAlgebra((2,) * blocks)
        a = random_povm_near_pvm(alg, 4, 0.0, rng)
        counts.append(_count_decompositions(monkeypatch, alg, random_state(alg, rng), a)["eigh"])
        monkeypatch.undo()
    # 5 eigh calls when every cluster is simple (see _count_random); one more per output here.
    assert counts == [9, 9]
