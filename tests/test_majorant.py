"""Minimal trace majorant: barrier solver, duality certificates, oracles."""

import math

import numpy as np
import pytest

from povmround import (
    AlgebraElement,
    BlockAlgebra,
    FunctionalFamily,
    PreconditionError,
    SolverError,
    Tolerances,
    ValidationError,
    minimal_majorant,
    verify_majorant_certificate,
)
from povmround import majorant as majorant_module
from povmround.cli import main
from povmround.generators import gen_instance, random_functionals
from povmround.io import save_instance
from povmround.majorant import NEWTON_TOL, PATH_TOL, _assemble_hessian

from conftest import (
    commuting_majorant_oracle,
    per_block_barrier_oracle,
    per_block_newton_oracle,
    rng_for,
)

# Two rank-one projections at 45 degrees.  The dual problem maximizes
# 1 + tr((P1 - P2) t1) over 0 <= t1 <= 1, attained at the positive spectral
# projection of P1 - P2, whose positive eigenvalue is 1/sqrt(2).
HALF_ANGLE_OPTIMUM = 1.0 + 1.0 / math.sqrt(2.0)


def half_angle_family(alg):
    a1 = alg.element([np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)])
    a2 = alg.element([0.5 * np.ones((2, 2), dtype=complex)])
    return FunctionalFamily([a1, a2])


def grid_oracle_half_angle(refinements=8, points=21):
    """Exhaustive refining grid over Hermitian 2x2 matrices z = [[x, u+iv], [u-iv, y]]
    with eigenvalue feasibility checks; independent of the barrier solver.

    Feasible grid points upper-bound the optimum; the resolution is a few
    times 1e-3 because the optimum sits exactly on the feasibility boundary.
    """
    a_list = [
        (1.0, 0.0, 0.0),   # (a00, a11, a01) for e11
        (0.5, 0.5, 0.5),   # for the half-angle projection
    ]
    lo = np.array([0.0, 0.0, -1.0, -1.0])
    hi = np.array([2.0, 2.0, 1.0, 1.0])
    best_val = math.inf
    best = None
    for _ in range(refinements):
        axes = [np.linspace(lo[i], hi[i], points) for i in range(4)]
        x, y, u, v = np.meshgrid(*axes, indexing="ij")
        feasible = np.ones_like(x, dtype=bool)
        for a00, a11, a01 in a_list:
            m00 = x - a00
            m11 = y - a11
            re = u - a01
            feasible &= (m00 >= -1e-12) & (m11 >= -1e-12)
            feasible &= m00 * m11 - (re**2 + v**2) >= -1e-12
        trace = np.where(feasible, x + y, np.inf)
        idx = np.unravel_index(np.argmin(trace), trace.shape)
        best_val = float(trace[idx])
        best = np.array([axes[i][idx[i]] for i in range(4)])
        span = 2 * (hi - lo) / (points - 1)
        lo = np.maximum(best - span, [0.0, 0.0, -1.0, -1.0])
        hi = best + span
    return best_val, best


class TestMinimalMajorant:
    def test_single_functional(self):
        alg = BlockAlgebra((3,))
        rng = rng_for(2)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        a1 = alg.element([g @ g.conj().T / 3])
        fam = FunctionalFamily([a1])
        sol = minimal_majorant(alg, fam)
        scale = fam.scale()
        assert abs(sol.primal - a1.trace().real) <= 1e-6 * scale
        assert (sol.dual_povm[0] - alg.identity()).norm_fro() <= 1e-6
        assert sol.gap <= 1e-6 * scale

    def test_orthogonal_diagonal_pair(self):
        alg = BlockAlgebra((2,))
        fam = FunctionalFamily([alg.diagonal([[1.0, 0.0]]), alg.diagonal([[0.0, 1.0]])])
        sol = minimal_majorant(alg, fam)
        assert abs(sol.primal - 2.0) <= 2e-6
        assert np.allclose(sol.majorant.blocks[0], np.eye(2), atol=1e-4)
        assert np.allclose(sol.dual_povm[0].blocks[0], np.diag([1.0, 0.0]), atol=1e-3)

    def test_half_angle_pair_against_grid_oracle(self):
        alg = BlockAlgebra((2,))
        fam = half_angle_family(alg)
        sol = minimal_majorant(alg, fam)
        oracle_val, _ = grid_oracle_half_angle()
        # Bracketing: the dual value of the returned feasible POVM is a lower
        # bound on the optimum, the feasible grid point an upper bound.
        assert sol.dual - 1e-9 <= oracle_val
        assert sol.dual - 1e-9 <= sol.primal
        assert sol.primal <= oracle_val + 1e-9
        assert oracle_val - sol.dual <= 6e-3
        assert abs(sol.primal - HALF_ANGLE_OPTIMUM) <= 1e-5
        assert abs(oracle_val - HALF_ANGLE_OPTIMUM) <= 6e-3

    def test_central_path_identities(self):
        alg = BlockAlgebra((2, 3))
        inst = gen_instance("random_functionals", 5, {"dims": [2, 3], "n": 3})
        fam = inst.functionals
        sol = minimal_majorant(alg, fam)
        mu = sol.mu_final
        n = fam.n
        # Stationarity: sum_i mu (z - a_i)^{-1} close to the identity.
        raw = []
        for i in range(n):
            blocks = [
                mu * np.linalg.inv((sol.majorant - fam.elements[i]).blocks[k])
                for k in range(alg.num_blocks)
            ]
            raw.append(AlgebraElement(alg, blocks))
        ident = alg.identity()
        stat = (sum(raw[1:], raw[0]) - ident).norm_fro()
        assert stat <= NEWTON_TOL
        recon = sol.majorant - sum(
            (raw[i] @ fam.elements[i] for i in range(1, n)), raw[0] @ fam.elements[0]
        )
        for k, d in enumerate(alg.dims):
            assert np.linalg.norm(recon.blocks[k] - n * mu * np.eye(d)) <= 10 * NEWTON_TOL

    def test_residual_scalings(self):
        for seed in (0, 1, 2, 3):
            inst = gen_instance("random_functionals", seed, {"dims": [4], "n": 4})
            fam = inst.functionals
            sol = minimal_majorant(inst.algebra, fam)
            scale = fam.scale()
            n = fam.n
            assert sol.residuals.feasibility >= -1e-8
            assert sol.residuals.povm_sum <= 1e-8 * scale
            assert sol.residuals.slackness <= math.sqrt(n * sol.mu_final * sol.primal) + 1e-9
            assert sol.residuals.reconstruction <= n * sol.mu_final * math.sqrt(inst.algebra.total_dim) + 1e-9
            assert -1e-9 <= sol.gap <= 1e-6 * scale

    def test_weak_duality_random_povms(self):
        inst = gen_instance("random_functionals", 9, {"dims": [3], "n": 3})
        fam = inst.functionals
        alg = inst.algebra
        sol = minimal_majorant(alg, fam)
        rng = rng_for(99)
        for _ in range(100):
            raw = []
            for _ in range(fam.n):
                g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                raw.append(g @ g.conj().T)
            total = sum(raw)
            w, v = np.linalg.eigh(total)
            inv_root = (v / np.sqrt(w)) @ v.conj().T
            duals = [inv_root @ t @ inv_root for t in raw]
            value = sum(
                np.trace(fam.elements[i].blocks[0] @ duals[i]).real for i in range(fam.n)
            )
            assert value <= sol.primal + 1e-9

    def test_non_psd_rejected(self):
        alg = BlockAlgebra((2,))
        fam = FunctionalFamily([alg.diagonal([[1.0, -0.5]])])
        with pytest.raises(ValidationError):
            minimal_majorant(alg, fam)

    def test_validate_diagonalizes_each_functional_once(self, monkeypatch):
        # The negativity slack scales with the spectral radius, read from the
        # same eigenvalues as the minimum: 1e6 * psd_tol = 1e-3.
        alg = BlockAlgebra((2, 1))
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counting_eigvalsh(*args, **kwargs):
            calls.append(args)
            return eigvalsh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        FunctionalFamily([alg.diagonal([[1e6, -1e-4], [1.0]]), alg.identity()]).validate()
        assert len(calls) == 2 * alg.num_blocks
        with pytest.raises(ValidationError, match="not positive"):
            FunctionalFamily([alg.diagonal([[1e6, -1e-2], [1.0]])]).validate()

    def test_nan_entry_rejected(self):
        alg = BlockAlgebra((3,))
        block = np.eye(3, dtype=complex)
        block[1, 2] = np.nan
        fam = FunctionalFamily([alg.identity(), alg.element([block])])
        with pytest.raises(ValidationError, match="functional 1 has a non-finite entry"):
            minimal_majorant(alg, fam)


def positive_part(m):
    w, v = np.linalg.eigh(m)
    return (v * np.maximum(w, 0.0)) @ v.conj().T


@pytest.mark.parametrize("d", [3, 6, 12, 16])
def test_two_functionals_against_closed_form(d):
    # For n = 2 the minimal majorant is unique: z = a_2 + (a_1 - a_2)_+.
    # d = 3, 6 take the dense Newton step and d = 12, 16 the CG step.
    alg = BlockAlgebra((d,))
    f = random_functionals(alg, 2, rng_for(100 + d))
    a1, a2 = (e.blocks[0] for e in f.elements)
    exact = a2 + positive_part(a1 - a2)
    sol = minimal_majorant(alg, f)
    assert all(c.passed for c in sol.checks(f))
    assert abs(sol.primal - np.trace(exact).real) <= sol.gap
    assert np.linalg.norm(sol.majorant.blocks[0] - exact) <= 1e-5


@pytest.mark.parametrize("d", [6, 12])
def test_dense_and_cg_steps_agree(monkeypatch, d):
    # The same family solved with each Newton step, whichever one the
    # block size selects by default.
    alg = BlockAlgebra((d,))
    f = random_functionals(alg, 3, rng_for(200 + d))
    primals = []
    for cutoff in (d, d - 1):  # dense, then CG
        monkeypatch.setattr(majorant_module, "DENSE_STEP_MAX_DIM", cutoff)
        sol = minimal_majorant(alg, f)
        assert all(c.passed for c in sol.checks(f))
        assert all(c.passed for c in verify_majorant_certificate(alg, f, sol))
        primals.append(sol.primal)
    assert abs(primals[0] - primals[1]) <= Tolerances().gap_tol * f.scale()


class TestLinalgCalls:
    """Per Newton round of the blocks of one size: one stacked inverse of the
    matrices z - a_i of every block still centering (and, on the CG path,
    one inverse of their mean per block for the preconditioner); per barrier
    evaluation: one stacked Cholesky factorisation."""

    @staticmethod
    def _count(monkeypatch, dims, n):
        alg = BlockAlgebra(dims)
        f = random_functionals(alg, n, rng_for(sum(dims)))
        calls = {"inv": [], "cholesky": [], "solve": [], "barrier": 0, "stages": 0, "hessian": 0}
        for name in ("inv", "cholesky", "solve"):
            original = getattr(np.linalg, name)

            def shape_recording(a, *args, _name=name, _original=original, **kwargs):
                calls[_name].append(np.shape(a))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, shape_recording)
        for name, key in (("_barrier", "barrier"), ("_newton_center", "stages"),
                          ("_assemble_hessian", "hessian")):
            original = getattr(majorant_module, name)

            def counting(*args, _key=key, _original=original, **kwargs):
                calls[_key] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(majorant_module, name, counting)
        sol = minimal_majorant(alg, f)
        assert all(c.passed for c in sol.checks(f))
        return calls, sol.newton_iterations

    def test_dense_blocks(self, monkeypatch):
        dims, n = (4, 4), 3
        calls, steps = self._count(monkeypatch, dims, n)
        k = len(dims)
        # Every call stacks the blocks still centering.  Per block: a gradient
        # per step, one more per centering that ends it, and the dual recovery.
        assert all(s[1:] == (n, 4, 4) and 1 <= s[0] <= k for s in calls["inv"])
        assert sum(s[0] for s in calls["inv"]) == steps + calls["stages"] * k + k
        assert all(s[1:] == (n, 4, 4) for s in calls["cholesky"])
        assert len(calls["cholesky"]) == calls["barrier"]
        assert all(s[1:] == (16, 16) for s in calls["solve"])
        assert sum(s[0] for s in calls["solve"]) == steps
        assert calls["hessian"] == len(calls["solve"]) < steps

    def test_cg_block_makes_no_dense_solve(self, monkeypatch):
        # A block above DENSE_STEP_MAX_DIM is centred alone; only the dual
        # recovery stacks the blocks of its size.
        n = 3
        calls, steps = self._count(monkeypatch, (16,), n)
        stacked = [s for s in calls["inv"] if s == (n, 16, 16)]
        assert len(stacked) == steps + calls["stages"]
        assert calls["inv"].count((1, n, 16, 16)) == 1
        assert calls["inv"].count((16, 16)) == steps
        assert len(calls["inv"]) == len(stacked) + 1 + steps
        assert calls["cholesky"] == [(n, 16, 16)] * calls["barrier"]
        assert calls["solve"] == []
        assert calls["hessian"] == 0


class TestVerifyCertificate:
    def test_self_application(self):
        for seed in (0, 4, 8):
            inst = gen_instance("random_functionals", seed, {"dims": [2, 2], "n": 3})
            sol = minimal_majorant(inst.algebra, inst.functionals)
            diag = verify_majorant_certificate(inst.algebra, inst.functionals, sol)
            assert all(c.passed for c in diag), [c.name for c in diag if not c.passed]

    def test_shrunk_majorant_fails_feasibility(self):
        alg = BlockAlgebra((2,))
        fam = FunctionalFamily([alg.diagonal([[1.0, 0.0]]), alg.diagonal([[0.0, 1.0]])])
        sol = minimal_majorant(alg, fam)
        sol.majorant = 0.5 * sol.majorant
        diag = verify_majorant_certificate(alg, fam, sol)
        assert "feasibility" in [c.name for c in diag if not c.passed]

    def test_halved_duals_fail_povm_sum(self):
        alg = BlockAlgebra((2,))
        fam = FunctionalFamily([alg.diagonal([[1.0, 0.0]]), alg.diagonal([[0.0, 1.0]])])
        sol = minimal_majorant(alg, fam)
        sol.dual_povm = [0.5 * t for t in sol.dual_povm]
        diag = verify_majorant_certificate(alg, fam, sol)
        assert "povm_sum" in [c.name for c in diag if not c.passed]
        failing = [c for c in diag if c.name == "povm_sum"][0]
        assert failing.value == pytest.approx(0.5 * math.sqrt(2), abs=1e-6)


class TestCommutingOracle:
    def test_orthogonal_pair(self):
        alg = BlockAlgebra((2,))
        fam = FunctionalFamily([alg.diagonal([[1.0, 0.0]]), alg.diagonal([[0.0, 1.0]])])
        sol = commuting_majorant_oracle(alg, fam)
        assert sol.primal == 2.0
        assert np.allclose(sol.dual_povm[0].blocks[0], np.diag([1.0, 0.0]))
        assert sol.gap == 0.0

    def test_coordinatewise_max(self):
        alg = BlockAlgebra((2,))
        fam = FunctionalFamily([alg.diagonal([[3.0, 1.0]]), alg.diagonal([[2.0, 2.0]])])
        sol = commuting_majorant_oracle(alg, fam)
        assert sol.primal == 5.0
        assert np.allclose(sol.majorant.blocks[0], np.diag([3.0, 2.0]))
        assert np.allclose(sol.dual_povm[0].blocks[0], np.diag([1.0, 0.0]))
        assert np.allclose(sol.dual_povm[1].blocks[0], np.diag([0.0, 1.0]))

    def test_single_functional(self):
        alg = BlockAlgebra((3,))
        fam = FunctionalFamily([alg.diagonal([[0.5, 1.5, 0.25]])])
        sol = commuting_majorant_oracle(alg, fam)
        assert sol.primal == pytest.approx(2.25)
        assert (sol.dual_povm[0] - alg.identity()).norm_fro() == 0.0

    def test_rejects_non_diagonal(self):
        alg = BlockAlgebra((2,))
        fam = FunctionalFamily([alg.element([0.5 * np.ones((2, 2))])])
        with pytest.raises(PreconditionError):
            commuting_majorant_oracle(alg, fam)

    def test_solver_agrees_with_oracle(self):
        for seed in range(6):
            inst = gen_instance(
                "random_functionals", seed, {"dims": [3, 2], "n": 3, "diagonal": True}
            )
            fam = inst.functionals
            sol = minimal_majorant(inst.algebra, fam)
            oracle = commuting_majorant_oracle(inst.algebra, fam)
            scale = fam.scale()
            assert abs(sol.primal - oracle.primal) <= 1e-6 * scale
            assert (sol.majorant - oracle.majorant).norm_fro() <= 1e-4


@pytest.mark.parametrize("d", [1, 2, 4, 16])
def test_hessian_assembly_is_bitwise_kron(d):
    # The in-place Hessian must equal the allocating kron expression exactly,
    # which keeps every Newton iterate, and so every majorant report, unchanged.
    rng = rng_for(d)
    ws = []
    for _ in range(3):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        ws.append(np.linalg.inv(g @ g.conj().T + np.eye(d)))
    mu = 0.37
    out = np.empty((d * d, d * d), dtype=complex)
    _assemble_hessian(ws, mu, out, np.empty_like(out))
    assert np.array_equal(out, mu * sum(np.kron(w, w.T) for w in ws))


def test_majorant_makes_no_kron_call(monkeypatch):
    alg = BlockAlgebra((8,))
    f = random_functionals(alg, 3, rng_for(8))
    calls = []
    kron = np.kron

    def counting_kron(a, b):
        calls.append((np.shape(a), np.shape(b)))
        return kron(a, b)

    monkeypatch.setattr(np, "kron", counting_kron)
    sol = minimal_majorant(alg, f)
    assert all(c.passed for c in sol.checks(f))
    assert calls == []


def test_batched_centering_matches_per_block_oracle(monkeypatch):
    # Blocks of sizes 4 and 3 take the dense step in one batch per size, the
    # d = 11 block the CG step; the stacked run must reproduce the
    # block-at-a-time centering exactly, iterates, duals and step count.
    alg = BlockAlgebra((4, 3, 4, 11, 3))
    f = random_functionals(alg, 3, rng_for(43))
    batched = minimal_majorant(alg, f)

    def per_block(z, fam, mu, blocks, stop):
        z_blocks, iters = per_block_newton_oracle(list(z), list(fam), mu, stop)
        z[...] = np.stack(z_blocks)
        return iters

    # The first, intermediate stage alone, from minimal_majorant's start at its mu.
    mu = f.validate() + 1.0
    fam = [np.stack(s, axis=1) for s in zip(*(e.stacks for e in f.elements))]
    for fg, ks in zip(fam, alg.members):
        z = mu * np.broadcast_to(np.eye(fg.shape[-1], dtype=complex), (len(ks), *fg.shape[-2:]))
        z_batched, z_oracle = z.copy(), z.copy()
        iters = majorant_module._newton_center(z_batched, fg, mu, ks, PATH_TOL)
        assert iters > 0
        assert iters == per_block(z_oracle, fg, mu, ks, PATH_TOL)
        assert np.array_equal(z_batched, z_oracle)

    monkeypatch.setattr(majorant_module, "_newton_center", per_block)
    oracle = minimal_majorant(alg, f)
    assert all(c.passed for c in batched.checks(f))
    assert batched.newton_iterations == oracle.newton_iterations
    assert all(np.array_equal(a, b) for a, b in zip(batched.majorant.blocks, oracle.majorant.blocks))
    for t, u in zip(batched.dual_povm, oracle.dual_povm):
        assert all(np.array_equal(a, b) for a, b in zip(t.blocks, u.blocks))


def test_barrier_factors_each_block_when_only_the_stacked_cholesky_fails(monkeypatch):
    # eigvalsh finds every block interior, yet the stacked Cholesky failed: each
    # block is then factored on its own, and the stacked branch is not entered again.
    count, n, d, mu = 5, 3, 4, 0.3
    rng = rng_for(61)
    g = rng.standard_normal((count, n, d, d)) + 1j * rng.standard_normal((count, n, d, d))
    fam = (g + g.conj().swapaxes(-1, -2)) / 2
    z = (np.linalg.eigvalsh(fam).max() + 1.0) * np.broadcast_to(np.eye(d), (count, d, d))
    cholesky, barrier, shapes = np.linalg.cholesky, majorant_module._barrier, []

    def stacked_fails(x, *args, **kwargs):
        if np.ndim(x) == 4:
            raise np.linalg.LinAlgError("stacked factorisation refused")
        return cholesky(x, *args, **kwargs)

    def recording(z, fam, mu):
        shapes.append(np.shape(z))
        return barrier(z, fam, mu)

    monkeypatch.setattr(np.linalg, "cholesky", stacked_fails)
    monkeypatch.setattr(majorant_module, "_barrier", recording)
    values = barrier(z, fam, mu)
    monkeypatch.undo()
    assert shapes == [(d, d)] * count
    assert values.tolist() == [per_block_barrier_oracle(zk, fk, mu) for zk, fk in zip(z, fam)]


def test_only_the_final_stage_centres_tightly(monkeypatch):
    # Every stage before the one at mu_target stops at PATH_TOL, and that one
    # at NEWTON_TOL.  At d = 16, n = 3 the CG iterations (two vdot calls each)
    # fell from 1,859 with every stage at NEWTON_TOL to 583.
    inst = gen_instance("random_functionals", 1, {"dims": [16], "n": 3})
    center, vdot = majorant_module._newton_center, np.vdot
    stages, vdots = [], []

    def recorded(z, fam, mu, blocks, stop):
        iters = center(z, fam, mu, blocks, stop)
        grad = np.eye(z.shape[-1]) - mu * np.sum(np.linalg.inv(z[:, None] - fam), axis=1)
        stages.append((mu, stop, np.linalg.norm(grad, axis=(1, 2)).max()))
        return iters

    def counted(a, b):
        vdots.append(None)
        return vdot(a, b)

    monkeypatch.setattr(majorant_module, "_newton_center", recorded)
    monkeypatch.setattr(np, "vdot", counted)
    sol = minimal_majorant(inst.algebra, inst.functionals)
    monkeypatch.undo()
    assert all(c.passed for c in sol.checks(inst.functionals))
    assert len(vdots) // 2 <= 700
    *path, (mu, stop, gnorm) = stages
    assert mu == sol.mu_final and stop == NEWTON_TOL and gnorm <= NEWTON_TOL
    assert len(path) >= 10
    assert all(stop == PATH_TOL and gnorm <= PATH_TOL for _, stop, gnorm in path)


class TestReachableGap:
    """gap_tol is reachable down to about 3e-8 of the family's scale.  At 1e-8
    some families miss the gap check (seed 1 here) and others pass it (seed
    3); near 1e-9 the centering stalls in double precision and the solver
    says so."""

    @staticmethod
    def _instance(seed=3):
        return gen_instance("random_functionals", seed, {"dims": [3], "n": 3})

    def test_3e8_is_reached_on_40_seeded_families(self):
        tol = Tolerances(gap_tol=3e-8)
        for seed in range(10):
            for dims in ([3], [4, 4], [2, 3], [2, 2, 3]):
                inst = gen_instance("random_functionals", seed, {"dims": dims, "n": 2 + seed % 3})
                sol = minimal_majorant(inst.algebra, inst.functionals, tol)
                assert all(c.passed for c in sol.checks(inst.functionals, tol)), (seed, dims)

    def test_gap_1e8_is_reached(self):
        inst = self._instance()
        tol = Tolerances(gap_tol=1e-8)
        sol = minimal_majorant(inst.algebra, inst.functionals, tol)
        assert sol.newton_iterations == 49
        assert all(c.passed for c in sol.checks(inst.functionals, tol))

    def test_gap_1e8_missed_on_another_family_but_3e8_reached(self):
        inst = self._instance(seed=1)
        for gap_tol, failed in ((1e-8, ["gap"]), (3e-8, [])):
            tol = Tolerances(gap_tol=gap_tol)
            sol = minimal_majorant(inst.algebra, inst.functionals, tol)
            assert [c.name for c in sol.checks(inst.functionals, tol) if not c.passed] == failed

    def test_gap_1e9_raises_named_solver_error(self):
        inst = self._instance()
        with pytest.raises(SolverError, match="Newton did not reach tolerance in block 0 at mu="):
            minimal_majorant(inst.algebra, inst.functionals, Tolerances(gap_tol=1e-9))

    def test_cli_exit_codes(self, tmp_path, capsys):
        path = tmp_path / "fun.json"
        save_instance(self._instance(), path)
        assert main(["majorant", "--in", str(path), "--tol", "gap_tol=1e-8"]) == 0
        capsys.readouterr()
        assert main(["majorant", "--in", str(path), "--tol", "gap_tol=1e-9"]) == 1
        assert "Newton did not reach tolerance in block 0" in capsys.readouterr().err
