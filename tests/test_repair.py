"""Almost-commuting PVM repair and the finite-order unitary correspondence."""

import importlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from povmround import (
    BlockAlgebra,
    PreconditionError,
    Povm,
    Pvm,
    State,
    ValidationError,
    commutation_defect,
    compress_povm,
    phi_norm_sq,
    pvm_to_unitary,
    repair,
    orthogonalize,
    orthogonalize_symmetry_preserving,
    repair_unitary_pair,
    select_projections,
    unitary_to_pvm,
    validate_povm,
    validate_pvm,
    validate_state,
)
from povmround.generators import gen_instance, random_povm_near_pvm, random_pvm, rotated_pvm_pair
from povmround.repair import commutant_of_pvm

from conftest import (
    ambient_pinching_oracle,
    random_density,
    random_element,
    rng_for,
    trace_two_state,
)

VALIDATORS = ("validate_state", "validate_povm", "validate_pvm")


def _count_validations(monkeypatch, job) -> dict:
    """The validate_* calls one job makes from the solver modules."""
    counts = dict.fromkeys(VALIDATORS, 0)
    for module in ("povmround.orthogonalize", "povmround.repair"):
        module = importlib.import_module(module)
        for name in VALIDATORS:
            if hasattr(module, name):
                def counting(*args, _name=name, _original=getattr(module, name), **kwargs):
                    counts[_name] += 1
                    return _original(*args, **kwargs)

                monkeypatch.setattr(module, name, counting)
    job()
    return counts


class TestEachInputValidatedOnce:
    """A solver validates its inputs once; the inner rounding of symmetry mode
    and of repair does not check the compressions it is handed again."""

    def test_symmetry_mode(self, monkeypatch):
        rng = rng_for(31)
        small = random_povm_near_pvm(BlockAlgebra((2,)), 3, 0.2, rng)
        alg = BlockAlgebra((4,))
        a = Povm(alg, [alg.element([np.kron(e.blocks[0], np.eye(2))]) for e in small.elements])
        phi = random_density(alg, rng)
        counts = _count_validations(
            monkeypatch, lambda: orthogonalize_symmetry_preserving(alg, phi, a)
        )
        assert counts == {"validate_state": 1, "validate_povm": 1, "validate_pvm": 0}

    def test_repair(self, monkeypatch):
        alg, phi, p, q = rotated_pvm_pair(0.1, (4, 4), n_p=3, n_q=3, rng=rng_for(32))
        counts = _count_validations(monkeypatch, lambda: repair(phi, p, q))
        assert counts == {"validate_state": 1, "validate_povm": 0, "validate_pvm": 2}

    def test_public_entries_still_validate(self):
        alg, phi, p, q = rotated_pvm_pair(0.1, (4, 4), n_p=3, n_q=3, rng=rng_for(33))
        a = random_povm_near_pvm(alg, 3, 0.1, rng_for(34))
        repair(phi, p, q)  # validates phi at the default tolerances
        for solve in (orthogonalize, select_projections, orthogonalize_symmetry_preserving):
            with pytest.raises(ValidationError, match="not a valid state"):
                solve(alg, trace_two_state(phi), a)
            with pytest.raises(ValidationError, match="not a valid POVM"):
                solve(alg, phi, Povm(alg, [2.0 * e for e in a.elements]))

    def test_inputs_changed_after_validation_are_rejected(self):
        # validate_* leaves no mark on the caller's objects, so an input
        # changed in place after it passed is checked again by every solver.
        alg = BlockAlgebra((2, 3, 2))
        rng = rng_for(35)
        a = random_povm_near_pvm(alg, 3, 0.1, rng)
        phi = random_density(alg, rng)
        assert validate_state(alg, phi).is_valid and validate_povm(alg, a).is_valid
        solvers = (orthogonalize, select_projections, orthogonalize_symmetry_preserving)
        phi.rho.stacks[0][...] *= 2.0
        for solve in solvers:
            with pytest.raises(ValidationError, match="not a valid state"):
                solve(alg, phi, a)
        phi.rho.stacks[0][...] /= 2.0
        a.elements[0].stacks[1][...] *= 2.0
        for solve in solvers:
            with pytest.raises(ValidationError, match="not a valid POVM"):
                solve(alg, phi, a)


def rotated_pair(theta):
    return rotated_pvm_pair(theta, (2,), canonical=True)


def imag_residual(comp, phi, p):
    """|Im sum_i phi(a_i p_i)|, with a_i the pinched POVM embedded back."""
    ambient_a = [comp.commutant.embed(c) for c in comp.povm.elements]
    return abs(sum(phi.expect(ai @ pi) for ai, pi in zip(ambient_a, p.elements)).imag)


class TestCommutationDefect:
    def test_commuting_diagonals(self, m2, trace_state_m2):
        p = Pvm(m2, [m2.diagonal([[1, 0]]), m2.diagonal([[0, 1]])])
        assert commutation_defect(trace_state_m2, p, p) == 0.0

    def test_single_output_reference(self, m2, trace_state_m2):
        p = Pvm(m2, [m2.diagonal([[1, 0]]), m2.diagonal([[0, 1]])])
        q = Pvm(m2, [m2.identity()])
        assert commutation_defect(trace_state_m2, p, q) == 0.0

    def test_rotated_pair_closed_form(self):
        # Each of the four commutators has squared norm cos^2 sin^2 under tr/2,
        # so the defect is 4 c^2 s^2 = sin^2(2 theta).
        alg, phi, p, q = rotated_pair(0.1)
        assert commutation_defect(phi, p, q) == pytest.approx(math.sin(0.2) ** 2, abs=1e-14)


class TestCompressPovm:
    def test_self_pinching_is_identity(self, m2, trace_state_m2):
        p = Pvm(m2, [m2.diagonal([[1, 0]]), m2.diagonal([[0, 1]])])
        comp = compress_povm(p, p, trace_state_m2)
        assert comp.epsilon_c == pytest.approx(0.0, abs=1e-15)
        assert comp.identity_residual <= 1e-12
        assert comp.compressed_defect == pytest.approx(0.0, abs=1e-12)

    def test_trivial_reference_keeps_povm(self, m2, trace_state_m2):
        p = Pvm(m2, [m2.diagonal([[1, 0]]), m2.diagonal([[0, 1]])])
        q = Pvm(m2, [m2.identity()])
        comp = compress_povm(p, q, trace_state_m2)
        back = [comp.commutant.embed(e) for e in comp.povm.elements]
        assert max((a - b).norm_fro() for a, b in zip(back, p.elements)) <= 1e-12

    def test_rotated_identity_in_closed_form(self):
        # Both sides in closed form: pinching cost 2 c^2 s^2 and compressed
        # defect 2 c^2 s^2 sum to the commutation defect sin^2(2 theta).
        theta = 0.1
        alg, phi, p, q = rotated_pair(theta)
        comp = compress_povm(p, q, phi)
        c2s2 = (math.cos(theta) * math.sin(theta)) ** 2
        assert comp.identity_residual <= 1e-12
        assert comp.pinch_cost == pytest.approx(2 * c2s2, abs=1e-13)
        assert comp.compressed_defect == pytest.approx(2 * c2s2, abs=1e-13)
        assert imag_residual(comp, phi, p) <= 1e-13

    def test_commutant_is_a_sub_algebra(self):
        rng = rng_for(21)
        alg = BlockAlgebra((4, 3))
        q = random_pvm(alg, 3, rng)
        comm = commutant_of_pvm(q)
        assert comm.multiplicities == (1,) * comm.sub.num_blocks
        x = random_element(alg, rng)
        pinched = alg.zero()
        for qj in q.elements:
            pinched = pinched + qj @ x @ qj
        assert (comm.embed(comm.compress(x)) - pinched).norm_fro() <= 1e-12
        phi = random_density(alg, rng)
        assert comm.compress_state(phi).total_trace() == pytest.approx(1.0, abs=1e-12)

    def test_restrict_then_embed_pvm_returns_q(self):
        rng = rng_for(22)
        alg = BlockAlgebra((4, 3))
        q = random_pvm(alg, 3, rng)
        comm = commutant_of_pvm(q)
        phi_sub, q_sub = comm.restrict(random_density(alg, rng), q.elements)
        assert phi_sub.total_trace() == pytest.approx(1.0, abs=1e-12)
        back = comm.embed_pvm(q_sub)
        assert back.algebra.dims == alg.dims
        assert max((a - b).norm_fro() for a, b in zip(back.elements, q.elements)) <= 1e-12

    @pytest.mark.parametrize("seed,theta", [(0, 0.1), (1, 0.4), (2, 0.65)])
    def test_matches_ambient_pinching_oracle(self, seed, theta):
        # Block 1 is 1 x 1, so at least three of the four q_j are empty there.
        alg, phi, p, q = rotated_pvm_pair(theta, (1, 3, 2), 5, 4, rng_for(seed))
        assert any(
            not np.any(qj.blocks[k]) for qj in q.elements for k in range(alg.num_blocks)
        )
        comp = compress_povm(p, q, phi)
        pinched = ambient_pinching_oracle(p, q)
        comm = comp.commutant
        assert max(
            (a - comm.compress(b)).norm_fro() for a, b in zip(comp.povm.elements, pinched)
        ) <= 1e-13
        pinch_cost = sum(phi_norm_sq(phi, x - b) for x, b in zip(p.elements, pinched))
        compressed_defect = 1.0 - sum(phi.expect(b @ b).real for b in pinched)
        assert comp.pinch_cost == pytest.approx(pinch_cost, abs=1e-14)
        assert comp.compressed_defect == pytest.approx(compressed_defect, abs=1e-14)

    def test_compressed_defect_is_the_inner_defect(self):
        alg, phi, p, q = rotated_pvm_pair(0.3, (1, 3, 2), 5, 4, rng_for(3))
        comp = compress_povm(p, q, phi)
        rep = repair(phi, p, q)
        assert rep.inner.defect == comp.compressed_defect

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_exact_identity_random_pairs(self, seed):
        rng = rng_for(seed)
        alg = BlockAlgebra((int(rng.integers(2, 6)),))
        p = random_pvm(alg, int(rng.integers(2, 5)), rng)
        q = random_pvm(alg, int(rng.integers(2, 5)), rng)
        phi = random_density(alg, rng)
        comp = compress_povm(p, q, phi)
        assert comp.identity_residual <= 1e-10

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_imaginary_part_vanishes_for_tracial_state(self, seed):
        # Im sum_i phi(a_i p_i) is zero only when phi is a trace; for general
        # states it survives, which is why the identity takes a real part.
        rng = rng_for(seed)
        alg = BlockAlgebra((int(rng.integers(2, 6)),))
        p = random_pvm(alg, int(rng.integers(2, 5)), rng)
        q = random_pvm(alg, int(rng.integers(2, 5)), rng)
        phi = State.normalized_trace(alg)
        comp = compress_povm(p, q, phi)
        assert imag_residual(comp, phi, p) <= 1e-12
        assert comp.identity_residual <= 1e-10


class TestRepair:
    def test_commuting_pair_unchanged(self, m2, trace_state_m2):
        p = Pvm(m2, [m2.diagonal([[1, 0]]), m2.diagonal([[0, 1]])])
        rep = repair(trace_state_m2, p, p)
        assert rep.error <= 1e-12
        assert max((a - b).norm_fro() for a, b in zip(rep.pvm_repaired.elements, p.elements)) <= 1e-7

    def test_trivial_reference(self, m2, trace_state_m2):
        p = Pvm(m2, [m2.diagonal([[1, 0]]), m2.diagonal([[0, 1]])])
        q = Pvm(m2, [m2.identity()])
        rep = repair(trace_state_m2, p, q)
        assert rep.error <= 1e-12

    def test_rotated_pair_closed_form(self):
        theta = 0.1
        alg, phi, p, q = rotated_pair(theta)
        rep = repair(phi, p, q)
        assert rep.epsilon_c == pytest.approx(math.sin(2 * theta) ** 2, abs=1e-12)
        assert rep.error == pytest.approx(2 * math.sin(theta) ** 2, abs=1e-12)
        assert rep.error <= 10 * rep.epsilon_c + 1e-7
        assert rep.max_commutator <= 1e-9
        assert np.allclose(rep.pvm_repaired.elements[0].blocks[0], np.diag([1.0, 0.0]), atol=1e-10)

    def test_rotated_pair_is_brute_force_optimum(self):
        # Among the four diagonal PVMs, {e11, e22} minimizes the distance to
        # the rotated pair; the repair finds exactly that optimum.
        theta = 0.1
        alg, phi, p, q = rotated_pair(theta)
        best = math.inf
        for assignment in itertools.product(range(2), repeat=2):
            cand = [np.diag([1.0 if assignment[c] == i else 0.0 for c in range(2)]) for i in range(2)]
            if any(np.trace(m) < 0 for m in cand):
                continue
            val = sum(
                phi_norm_sq(phi, p.elements[i] - alg.element([cand[i]])) for i in range(2)
            )
            best = min(best, val)
        rep = repair(phi, p, q)
        assert rep.error == pytest.approx(best, abs=1e-12)

    def test_random_pairs_bound_and_commutation(self):
        for seed in range(30):
            inst = gen_instance(
                "rotated_pvm_pair", seed,
                {"theta": 0.05 + 0.25 * (seed % 5) / 4, "dims": [4], "n_p": 3, "n_q": 2},
            )
            p, q = inst.pvm_pair
            rep = repair(inst.state, p, q)
            assert rep.error <= 10 * rep.epsilon_c + 1e-7
            assert rep.max_commutator <= 1e-9
            assert rep.identity_residual <= 1e-10
            assert rep.inner.error <= 9 * rep.inner.defect + 1e-7
            assert validate_pvm(inst.algebra, rep.pvm_repaired).is_valid
            assert all(c.passed for c in rep.checks())

    def test_multi_block_ambient_algebra(self):
        for seed in (0, 1, 2):
            inst = gen_instance(
                "rotated_pvm_pair", 500 + seed,
                {"theta": 0.2, "dims": [3, 2], "n_p": 2, "n_q": 3},
            )
            p, q = inst.pvm_pair
            rep = repair(inst.state, p, q)
            assert rep.error <= 10 * rep.epsilon_c + 1e-7
            assert rep.max_commutator <= 1e-9
            assert rep.identity_residual <= 1e-10
            # Commutant block dimensions tile each ambient block.
            comm = rep.inner.pvm.algebra
            assert sum(comm.dims) == inst.algebra.total_dim


class TestFourierCorrespondence:
    def test_single_output(self, m2):
        p = Pvm(m2, [m2.identity()])
        u = pvm_to_unitary(p)
        assert np.allclose(u.blocks[0], np.eye(2))

    def test_two_outputs_signs(self, m2):
        p = Pvm(m2, [m2.diagonal([[1, 0]]), m2.diagonal([[0, 1]])])
        u = pvm_to_unitary(p)
        assert np.allclose(u.blocks[0], np.diag([-1.0, 1.0]))

    def test_four_outputs_powers_of_i(self):
        alg = BlockAlgebra((4,))
        p = Pvm(alg, [
            alg.element([np.diag([1.0 if j == i else 0.0 for j in range(4)])])
            for i in range(4)
        ])
        u = pvm_to_unitary(p)
        assert np.allclose(u.blocks[0], np.diag([1j, -1.0, -1j, 1.0]))

    def test_unitary_to_pvm_trivial_character(self):
        alg = BlockAlgebra((2,))
        p = unitary_to_pvm(alg.identity(), 3)
        assert np.allclose(p.elements[2].blocks[0], np.eye(2))
        assert p.elements[0].norm_fro() <= 1e-12
        assert p.elements[1].norm_fro() <= 1e-12

    def test_roundtrip_diag(self, m2):
        u = m2.diagonal([[-1.0, 1.0]])
        p = unitary_to_pvm(u, 2)
        assert np.allclose(p.elements[0].blocks[0], np.diag([1.0, 0.0]), atol=1e-12)
        assert np.allclose(p.elements[1].blocks[0], np.diag([0.0, 1.0]), atol=1e-12)

    def test_order_violation_rejected(self, m2):
        u = m2.diagonal([[1.0, np.exp(0.3j)]])
        with pytest.raises(PreconditionError):
            unitary_to_pvm(u, 2)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 6))
    def test_roundtrip_random(self, seed, n):
        rng = rng_for(seed)
        alg = BlockAlgebra((int(rng.integers(1, 6)),))
        p = random_pvm(alg, n, rng)
        u = pvm_to_unitary(p)
        assert (u.H @ u - alg.identity()).norm_fro() <= 1e-10
        power = alg.identity()
        for _ in range(n):
            power = power @ u
        assert (power - alg.identity()).norm_fro() <= 1e-10
        back = unitary_to_pvm(u, n)
        assert max(
            (a - b).norm_fro() for a, b in zip(p.elements, back.elements)
        ) <= 1e-10
        for e in back.elements:
            assert (e @ e - e).norm_fro() <= 1e-9
            assert e.skew_norm() <= 1e-9


class TestRepairUnitaryPair:
    def test_commuting_pair(self, m2, trace_state_m2):
        u = m2.diagonal([[-1.0, 1.0]])
        v = m2.diagonal([[1.0, -1.0]])
        rep = repair_unitary_pair(trace_state_m2, u, 2, v, 2)
        assert rep.lhs <= 1e-14
        assert rep.rhs_error <= 1e-12
        assert (rep.v_repaired - v).norm_fro() <= 1e-7

    def test_trivial_u(self, m2, trace_state_m2):
        theta = 0.2
        c, s = math.cos(theta), math.sin(theta)
        rot = np.array([[c, -s], [s, c]])
        proj = rot @ np.diag([1.0, 0.0]) @ rot.T
        v = m2.element([np.eye(2) - 2 * proj])
        rep = repair_unitary_pair(trace_state_m2, m2.identity(), 1, v, 2)
        assert (rep.v_repaired - v).norm_fro() <= 1e-7

    def test_reflection_pair_reduces_to_pvm_case(self, m2, trace_state_m2):
        # u = diag(-1, 1) and v the reflection across the theta-rotated axis:
        # identical to the rotated PVM pair through the 2-output correspondence.
        theta = 0.1
        c, s = math.cos(theta), math.sin(theta)
        rot = np.array([[c, -s], [s, c]])
        proj = rot @ np.diag([1.0, 0.0]) @ rot.T
        u = m2.diagonal([[-1.0, 1.0]])
        v = m2.element([np.eye(2) - 2 * proj])
        rep = repair_unitary_pair(trace_state_m2, u, 2, v, 2)
        assert rep.lhs == pytest.approx(math.sin(2 * theta) ** 2, abs=1e-12)
        assert rep.rhs_error == pytest.approx(2 * math.sin(theta) ** 2, abs=1e-12)
        assert rep.commutator_norm <= 1e-9
        assert rep.rhs_error <= 10 * rep.lhs + 1e-7

    def test_top_powers_contribute_zero(self, m2, trace_state_m2):
        # The i = n and j = m terms of the double sum vanish since u^n = v^m = 1.
        theta = 0.15
        c, s = math.cos(theta), math.sin(theta)
        rot = np.array([[c, -s], [s, c]])
        proj = rot @ np.diag([1.0, 0.0]) @ rot.T
        u = m2.diagonal([[-1.0, 1.0]])
        v = m2.element([np.eye(2) - 2 * proj])
        n = m = 2
        u_pows = [m2.identity(), u, u @ u]
        v_pows = [m2.identity(), v, v @ v]
        total = sum(
            phi_norm_sq(trace_state_m2, u_pows[i].commutator(v_pows[j]))
            for i in range(1, n + 1)
            for j in range(1, m + 1)
        )
        top_terms = sum(
            phi_norm_sq(trace_state_m2, u_pows[n].commutator(v_pows[j]))
            for j in range(1, m + 1)
        ) + sum(
            phi_norm_sq(trace_state_m2, u_pows[i].commutator(v_pows[m]))
            for i in range(1, n + 1)
        )
        assert top_terms <= 1e-26
        rep = repair_unitary_pair(trace_state_m2, u, n, v, m)
        assert rep.lhs * n * m == pytest.approx(total, abs=1e-12)


class TestUnitaryRepairSpectra:
    """The unitary form keeps the spectral PVMs it builds and reuses them."""

    @pytest.fixture
    def pair(self):
        inst = gen_instance("rotated_pvm_pair", 5, {"dims": [6], "n_p": 3, "n_q": 4})
        p, q = inst.pvm_pair
        return inst.state, p, q, pvm_to_unitary(p), pvm_to_unitary(q)

    def test_spectral_pvms_are_those_of_v_and_u(self, pair):
        phi, p, q, v, u = pair
        rep = repair_unitary_pair(phi, u, q.n, v, p.n)
        for kept, fresh in zip(rep.spectral, (unitary_to_pvm(v, p.n), unitary_to_pvm(u, q.n))):
            assert kept.n == fresh.n
            for a, b in zip(kept.elements, fresh.elements):
                assert all(np.array_equal(x, y) for x, y in zip(a.blocks, b.blocks))

    def test_roundtrip_residual_matches_a_fresh_round_trip(self, pair):
        phi, p, q, v, u = pair
        rep = repair_unitary_pair(phi, u, q.n, v, p.n)
        expected = max(
            (a - b).norm_fro()
            for x in (p, q)
            for a, b in zip(x.elements, unitary_to_pvm(pvm_to_unitary(x), x.n).elements)
        )
        assert rep.roundtrip_residual(p, q) == expected
        assert expected <= 1e-10
