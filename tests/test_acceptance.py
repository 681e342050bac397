"""Acceptance suite: every certified bound at its stated tolerance.

Each criterion prints one PASS/FAIL line (visible with pytest -s); the
assertions carry the same thresholds, so a red test is a failed criterion.
Run: pytest -s tests/test_acceptance.py
"""

import itertools
import math
import time

import numpy as np
import pytest

from povmround import (
    BlockAlgebra,
    Povm,
    State,
    defect,
    minimal_majorant,
    orthogonalize,
    orthogonalize_symmetry_preserving,
    phi_norm_sq,
    pvm_to_unitary,
    repair,
    repair_unitary_pair,
    select_projections,
    unitary_to_pvm,
    validate_povm,
    validate_pvm,
)
from povmround.generators import (
    counterexample_triple,
    gen_instance,
    linfty2_family,
    random_pvm,
    rotated_pvm_pair,
)

from conftest import commuting_majorant_oracle


def report(criterion, passed, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line)
    assert passed, line


def suite_config(seed):
    rng = np.random.default_rng(10_000 + seed)
    k = int(rng.integers(1, 4))
    caps = {1: [8], 2: [6, 6], 3: [4, 4, 4]}[k]
    dims = []
    remaining = 12
    for cap in caps:
        d = int(rng.integers(1, min(cap, max(1, remaining - (len(caps) - len(dims) - 1))) + 1))
        dims.append(d)
        remaining -= d
    n = int(rng.integers(2, 6))
    delta = float(rng.uniform(0.005, 0.45))
    state_mode = seed % 4
    params = {"dims": dims, "n": n, "delta": delta}
    if state_mode == 0:
        params["state_rank"] = 1
    elif state_mode == 1:
        params["state_rank"] = 2
    elif state_mode == 2:
        params["single_block"] = True
    return params


@pytest.fixture(scope="module")
def random_suite():
    """500 seeded rounding instances shared by criteria 1, 2, and 4."""
    start = time.perf_counter()
    rows = []
    for seed in range(500):
        inst = gen_instance("random_povm_near_pvm", seed, suite_config(seed))
        rep = orthogonalize(inst.algebra, inst.state, inst.povm)
        pvm_ok = (
            validate_povm(inst.algebra, rep.pvm).is_valid
            and validate_pvm(inst.algebra, rep.pvm).idempotency_residual <= 1e-8
        )
        rows.append((inst, rep, pvm_ok))
    return rows, time.perf_counter() - start


def test_criterion_1_main_bound(random_suite):
    rows, runtime = random_suite
    violations = [
        (inst.metadata["seed"], rep.error - (9 * rep.defect + 1e-7))
        for inst, rep, pvm_ok in rows
        if rep.error > 9 * rep.defect + 1e-7 or not pvm_ok
    ]
    worst_ratio = max(
        (rep.ratio for _, rep, _ in rows if math.isfinite(rep.ratio)), default=0.0
    )
    report(
        "1 main 9x-defect bound",
        not violations and runtime < 30.0,
        f"500 instances, runtime {runtime:.1f}s, max finite error/defect {worst_ratio:.3f}, "
        f"violations {violations[:3]}",
    )


def test_criterion_2_selection_certificates(random_suite):
    rows, _ = random_suite
    ok = True
    worst_value_margin = math.inf
    worst_comm = 0.0
    for inst, rep, _ in rows:
        sel = rep.selection
        for k, d in enumerate(inst.algebra.dims):
            ok &= sum(sel.ranks[k]) == d
        margin = sel.value - (1.0 - rep.defect - 1e-9)
        worst_value_margin = min(worst_value_margin, margin)
        worst_comm = max(worst_comm, sel.commutation_residual)
        ok &= margin >= 0.0
        ok &= sel.commutation_residual <= 1e-6
    report(
        "2 selection certificates",
        ok,
        f"rank sums exact, min value margin {worst_value_margin:.2e}, "
        f"max commutation {worst_comm:.2e}",
    )


def test_criterion_3_optimality_family():
    ok = True
    details = []
    for c in (0.02, 0.1, 0.5):
        alg, phi, a = linfty2_family(c)
        rep = orthogonalize(alg, phi, a)
        ok &= abs(rep.defect - c / 2) <= 1e-12
        ok &= abs(rep.error - c / 2) <= 1e-10
        # Exhaustive enumeration over all abelian two-output PVMs.
        best = math.inf
        for assignment in itertools.product(range(2), repeat=2):
            p = [alg.diagonal([[1.0 if assignment[k] == i else 0.0] for k in range(2)])
                 for i in range(2)]
            best = min(best, sum(phi_norm_sq(phi, a.elements[i] - p[i]) for i in range(2)))
        ok &= best >= c / 2 - 1e-12
        ok &= abs(rep.error - best) <= 1e-10
        details.append(f"c={c}: err {rep.error:.6f} enum {best:.6f}")
    report("3 optimality family error = defect", ok, "; ".join(details))


def test_criterion_4_converse(random_suite):
    rows, _ = random_suite
    worst = math.inf
    for inst, rep, _ in rows:
        mass = 1.0 - rep.defect
        lower = (1.0 - math.sqrt(max(rep.error, 0.0))) ** 2 - 1e-7
        worst = min(worst, mass - lower)
    report("4 converse mass bound", worst >= 0.0, f"min margin {worst:.2e}")


def test_criterion_5_counterexample():
    ok = True
    details = []
    for delta in (0.001, 0.01):
        alg, phi, a = counterexample_triple(delta)
        diag = validate_povm(alg, a)
        eps0 = defect(phi, a)
        sel = select_projections(alg, phi, a)
        max_mass = max(phi.expect(e).real for e in a.elements)
        nonzero = [q for q in sel.projections if q.norm_fro() > 1e-8]
        distinct = all(
            (x - y).norm_fro() > 1e-8
            for i, x in enumerate(nonzero)
            for y in nonzero[i + 1:]
        )
        ok &= diag.is_valid
        ok &= max_mass <= 0.5 + 1e-12
        ok &= eps0 <= 6 * delta
        ok &= len(nonzero) >= 2 and distinct
        details.append(
            f"delta={delta}: defect {eps0:.5f} <= {6*delta}, mass {max_mass:.4f}, "
            f"{len(nonzero)} distinct nonzero projections"
        )
    report("5 rank-constraint counterexample", ok, "; ".join(details))


def test_criterion_6_repair():
    ok = True
    worst_margin = math.inf
    worst_comm = 0.0
    worst_ident = 0.0
    for seed in range(200):
        rng = np.random.default_rng(20_000 + seed)
        theta = float(rng.uniform(0.02, 0.3))
        dims = [int(rng.integers(2, 7))]
        n_p = int(rng.integers(2, 5))
        n_q = int(rng.integers(2, 5))
        inst = gen_instance(
            "rotated_pvm_pair", seed,
            {"theta": theta, "dims": dims, "n_p": n_p, "n_q": n_q},
        )
        p, q = inst.pvm_pair
        rep = repair(inst.state, p, q)
        worst_margin = min(worst_margin, 10 * rep.epsilon_c + 1e-7 - rep.error)
        worst_comm = max(worst_comm, rep.max_commutator)
        worst_ident = max(worst_ident, rep.identity_residual)
    ok &= worst_margin >= 0 and worst_comm <= 1e-9 and worst_ident <= 1e-10

    alg, phi, p, q = rotated_pvm_pair(0.1, (2,), canonical=True)
    rep = repair(phi, p, q)
    closed_eps = abs(rep.epsilon_c - math.sin(0.2) ** 2)
    closed_err = abs(rep.error - 2 * math.sin(0.1) ** 2)
    ok &= closed_eps <= 1e-12 and closed_err <= 1e-12
    report(
        "6 commutation repair 10x bound",
        ok,
        f"200 pairs, min margin {worst_margin:.2e}, max commutator {worst_comm:.2e}, "
        f"max identity residual {worst_ident:.2e}, closed form offsets "
        f"{closed_eps:.1e}/{closed_err:.1e}",
    )


def test_criterion_7_fourier():
    ok = True
    worst_round = 0.0
    for seed in range(30):
        rng = np.random.default_rng(30_000 + seed)
        n = int(rng.integers(1, 7))
        alg = BlockAlgebra((int(rng.integers(1, 5)),))
        p = random_pvm(alg, n, rng)
        u = pvm_to_unitary(p)
        back = unitary_to_pvm(u, n)
        worst_round = max(
            worst_round,
            max((a - b).norm_fro() for a, b in zip(p.elements, back.elements)),
        )
        again = pvm_to_unitary(back)
        worst_round = max(worst_round, (again - u).norm_fro())
    ok &= worst_round <= 1e-10

    worst_comm = 0.0
    worst_margin = math.inf
    for seed in range(100):
        rng = np.random.default_rng(40_000 + seed)
        inst = gen_instance(
            "rotated_pvm_pair", seed,
            {
                "theta": float(rng.uniform(0.02, 0.3)),
                "dims": [int(rng.integers(2, 6))],
                "n_p": int(rng.integers(2, 5)),
                "n_q": int(rng.integers(2, 5)),
            },
        )
        p, q = inst.pvm_pair
        rep = repair_unitary_pair(
            inst.state, pvm_to_unitary(q), q.n, pvm_to_unitary(p), p.n
        )
        worst_comm = max(worst_comm, rep.commutator_norm)
        worst_margin = min(worst_margin, 10 * rep.lhs + 1e-7 - rep.rhs_error)
    ok &= worst_comm <= 1e-9 and worst_margin >= 0
    report(
        "7 finite-order unitary correspondence",
        ok,
        f"roundtrip {worst_round:.2e}, 100 pairs: max [v',u] {worst_comm:.2e}, "
        f"min 10x margin {worst_margin:.2e}",
    )


def test_criterion_8_duality():
    ok = True
    worst_gap = 0.0
    worst_feas = 0.0
    worst_povm = 0.0
    worst_slack = 0.0
    worst_recon = 0.0
    worst_weak = -math.inf
    oracle_diff = 0.0
    for seed in range(200):
        rng = np.random.default_rng(50_000 + seed)
        k = int(rng.integers(1, 3))
        dims = [int(d) for d in rng.integers(1, 5 if k == 2 else 9, size=k)]
        n = int(rng.integers(1, 6))
        diagonal = seed % 5 == 0
        inst = gen_instance(
            "random_functionals", seed, {"dims": dims, "n": n, "diagonal": diagonal}
        )
        fam = inst.functionals
        alg = inst.algebra
        sol = minimal_majorant(alg, fam)
        scale = fam.scale()
        worst_gap = max(worst_gap, sol.gap / scale)
        worst_feas = min(worst_feas, sol.residuals.feasibility)
        worst_povm = max(worst_povm, sol.residuals.povm_sum)
        worst_slack = max(worst_slack, sol.residuals.slackness / scale)
        worst_recon = max(worst_recon, sol.residuals.reconstruction / scale)
        if diagonal:
            oracle = commuting_majorant_oracle(alg, fam)
            oracle_diff = max(oracle_diff, abs(sol.primal - oracle.primal) / scale)
        for _ in range(100):
            raw = []
            for _ in range(n):
                blocks = []
                for d in alg.dims:
                    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                    blocks.append(g @ g.conj().T)
                raw.append(blocks)
            duals = []
            for kk, d in enumerate(alg.dims):
                total = sum(r[kk] for r in raw)
                w, v = np.linalg.eigh(total)
                inv_root = (v / np.sqrt(np.maximum(w, 1e-300))) @ v.conj().T
                for i in range(n):
                    raw[i][kk] = inv_root @ raw[i][kk] @ inv_root
            value = sum(
                np.trace(fam.elements[i].blocks[kk] @ raw[i][kk]).real
                for i in range(n)
                for kk in range(len(alg.dims))
            )
            worst_weak = max(worst_weak, value - sol.primal)
    ok &= worst_gap <= 1e-6
    ok &= worst_feas >= -1e-8
    ok &= worst_povm <= 1e-8
    ok &= worst_slack <= 1e-4
    ok &= worst_recon <= 1e-4
    ok &= oracle_diff <= 1e-6
    ok &= worst_weak <= 1e-9
    report(
        "8 majorant duality",
        ok,
        f"200 families: gap/scale {worst_gap:.2e}, feas {worst_feas:.2e}, "
        f"povm {worst_povm:.2e}, slack {worst_slack:.2e}, recon {worst_recon:.2e}, "
        f"oracle diff {oracle_diff:.2e}, weak-duality excess {worst_weak:.2e}",
    )


def test_criterion_9_symmetry_preservation():
    ok = True
    worst_sym = 0.0
    worst_match = 0.0
    for seed in range(50):
        inst = gen_instance(
            "random_povm_near_pvm", 60_000 + seed,
            {"dims": [int(np.random.default_rng(seed).integers(2, 4))],
             "n": int(np.random.default_rng(1000 + seed).integers(2, 4)),
             "delta": 0.2},
        )
        small = inst.povm
        d_small = inst.algebra.dims[0]
        alg_big = BlockAlgebra((2 * d_small,))
        big = Povm(
            alg_big,
            [alg_big.element([np.kron(e.blocks[0], np.eye(2))]) for e in small.elements],
        )
        rng = np.random.default_rng(70_000 + seed)
        g = rng.standard_normal((2 * d_small, 2 * d_small)) + 1j * rng.standard_normal(
            (2 * d_small, 2 * d_small)
        )
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        phi = State(alg_big, [rho])
        sym = orthogonalize_symmetry_preserving(alg_big, phi, big)
        worst_sym = max(worst_sym, sym.symmetry_residual)

        d = sym.decomposition
        plain = orthogonalize(
            d.sub,
            d.compress_state(phi),
            Povm(d.sub, [d.compress(e) for e in big.elements]),
        )
        match = max(
            (sym.pvm.elements[i] - d.embed(plain.pvm.elements[i])).norm_fro()
            for i in range(big.n)
        )
        worst_match = max(worst_match, match)
    ok &= worst_sym <= 1e-8 and worst_match <= 1e-8
    report(
        "9 symmetry preservation",
        ok,
        f"50 tensor instances: max commutant residual {worst_sym:.2e}, "
        f"max mismatch vs compressed rounding {worst_match:.2e}",
    )
