import warnings
from typing import Sequence

import numpy as np
import pytest

from povmround import (
    AlgebraElement,
    BlockAlgebra,
    FunctionalFamily,
    MajorantSolution,
    Povm,
    PreconditionError,
    Pvm,
    SolverError,
    State,
)
from povmround.algebra import hermitian_part
from povmround.io import encode_element
from povmround.majorant import (
    DENSE_STEP_MAX_DIM,
    MAX_NEWTON_STEPS,
    _assemble_hessian,
    _cg_step,
    majorant_certificate,
)
from povmround.orthogonalize import CLUSTER_TOL, COMMUTANT_RANK_TOL, SCORE_CLIP_TOL


def rng_for(seed):
    return np.random.default_rng(seed)


def projection_range(block: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the range of a projection block."""
    w, v = np.linalg.eigh(block)
    return v[:, w > 0.5].copy()  # the indexed view is F-ordered; products expect C order


# The per-block loops that the stacked primitives in algebra.py,
# orthogonalize.py and majorant.py replaced; used as differential oracles,
# which the stacked code must match bit for bit.


class TupleElementOracle:
    """An algebra element as a tuple of blocks, every operation a loop over
    them: the data model that the per-size stacks of AlgebraElement replaced."""

    def __init__(self, blocks):
        self.blocks = tuple(np.ascontiguousarray(b, dtype=complex) for b in blocks)

    def __add__(self, other):
        return TupleElementOracle([a + b for a, b in zip(self.blocks, other.blocks)])

    def __sub__(self, other):
        return TupleElementOracle([a - b for a, b in zip(self.blocks, other.blocks)])

    def __mul__(self, scalar):
        return TupleElementOracle([scalar * a for a in self.blocks])

    def __matmul__(self, other):
        return TupleElementOracle([a @ b for a, b in zip(self.blocks, other.blocks)])

    @property
    def H(self):
        return TupleElementOracle([a.conj().T for a in self.blocks])

    def commutator(self, other):
        return self @ other - other @ self

    def trace(self) -> complex:
        return complex(sum(np.trace(a) for a in self.blocks))

    def norm_fro(self) -> float:
        return float(np.sqrt(sum(np.linalg.norm(a) ** 2 for a in self.blocks)))

    def skew_norm(self) -> float:
        return float(
            np.sqrt(sum(np.linalg.norm((a - a.conj().T) / 2) ** 2 for a in self.blocks))
        )

    def hermitized(self):
        return TupleElementOracle([hermitian_part(a) for a in self.blocks]), self.skew_norm()

    def eigvals(self) -> list[np.ndarray]:
        return [np.linalg.eigvalsh(hermitian_part(a)) for a in self.blocks]


def per_block_expect_oracle(densities, x) -> complex:
    """phi(x) = sum_k Tr(rho_k x_k), one product and trace per block."""
    return complex(sum(np.trace(r @ a) for r, a in zip(densities, x.blocks)))


def per_block_eigh_oracle(x: AlgebraElement) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-block eigenpairs (w ascending, v) of the Hermitian part."""
    return [np.linalg.eigh(hermitian_part(a)) for a in x.blocks]


def per_block_clusters_oracle(eigs, cluster_tol: float) -> list[list[tuple[float, np.ndarray]]]:
    """Per-block (value, basis) clusters of per-block eigenpairs, values
    descending, split by one comparison per adjacent pair of eigenvalues."""
    clusters = []
    for w, v in eigs:
        w, v = w[::-1], v[:, ::-1]
        runs, start = [], 0
        for j in range(1, len(w) + 1):
            if j == len(w) or (w[j - 1] - w[j]) > cluster_tol:
                runs.append((float(w[start:j].mean()), v[:, start:j].copy()))
                start = j
        clusters.append(runs)
    return clusters


def per_block_sqrt_oracle(alg, eigs, lo=0.0, hi=np.inf) -> tuple[AlgebraElement, float]:
    """PSD square root from per-block eigenpairs, eigenvalues clipped to [lo, hi]."""
    roots = []
    clip = 0.0
    for w, v in eigs:
        wc = np.clip(w, lo, hi)
        clip = max(clip, float(np.abs(w - wc).max()))
        roots.append((v * np.sqrt(wc)) @ v.conj().T)
    return AlgebraElement(alg, roots), clip


def per_block_polar_oracle(maps: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Unitary polar factor w = U V^H of each square map, one SVD per map."""
    factors = []
    for y in maps:
        w, _, vh = np.linalg.svd(np.asarray(y, dtype=complex))
        factors.append(w @ vh)
    return factors


def per_block_barrier_oracle(z, fam, mu):
    """Tr(z) - mu * sum_i log det(z - a_i) of one block, fam its (n, d, d) stack."""
    c = np.linalg.cholesky(hermitian_part(z - fam))
    logdets = 2.0 * np.sum(np.log(np.real(np.diagonal(c, axis1=-2, axis2=-1))), axis=-1)
    return float(np.trace(z).real) - mu * float(sum(logdets))


def per_block_newton_oracle(z_blocks, fam_blocks, mu, stop):
    """Damped Newton minimization of the barrier at fixed mu, to gradient
    norm stop, one block at a time; each fam_blocks[k] is the (n, d, d) stack
    of the functionals' k-th blocks.  Returns (z_blocks, per-block steps)."""
    iters = 0
    for k, z in enumerate(z_blocks):
        fam = fam_blocks[k]
        d = z.shape[0]
        eye = np.eye(d)
        dense = d <= DENSE_STEP_MAX_DIM
        if dense:
            hess = np.empty((d * d, d * d), dtype=complex)
            term = np.empty_like(hess)
        current = per_block_barrier_oracle(z, fam, mu)
        for _ in range(MAX_NEWTON_STEPS):
            inverses = np.linalg.inv(hermitian_part(z - fam))
            grad = eye - mu * np.sum(inverses, axis=0)
            if np.linalg.norm(grad) <= stop:
                break
            if dense:
                _assemble_hessian(inverses, mu, hess, term)
                step = np.linalg.solve(hess, -grad.reshape(-1)).reshape(d, d)
            else:
                step = _cg_step(inverses, grad, mu)
            step = hermitian_part(step)

            t = 1.0
            for _ in range(60):
                cand = z + t * step
                try:
                    value = per_block_barrier_oracle(cand, fam, mu)
                except np.linalg.LinAlgError:
                    t *= 0.5
                    continue
                if value <= current + 1e-12 * max(1.0, abs(current)):
                    z, current = cand, value
                    break
                t *= 0.5
            else:
                raise SolverError(f"line search stalled in block {k} at mu={mu:.3e}")
            iters += 1
        else:
            raise SolverError(f"Newton did not reach tolerance in block {k} at mu={mu:.3e}")
        z_blocks[k] = z
    return z_blocks, iters


def random_element(alg, rng, herm=False):
    blocks = []
    for d in alg.dims:
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        if herm:
            g = (g + g.conj().T) / 2
        blocks.append(g)
    return AlgebraElement(alg, blocks)


def random_density(alg, rng, rank=None):
    densities = []
    for d in alg.dims:
        r = rank or d
        g = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
        densities.append(g @ g.conj().T)
    total = sum(np.trace(m).real for m in densities)
    return State(alg, [m / total for m in densities])


def trace_two_state(phi: State) -> State:
    """phi scaled by 2: positive, but not a state."""
    return State(phi.algebra, [2.0 * r for r in phi.densities])


def mixed_pvm(p: Pvm) -> Pvm:
    """p_i -> 0.8 p_i + 0.2 p_{n-1-i}: still a POVM, no longer a PVM."""
    return Pvm(p.algebra, [0.8 * x + 0.2 * y for x, y in zip(p.elements, reversed(p.elements))])


def commuting_majorant_oracle(alg: BlockAlgebra, f: FunctionalFamily) -> MajorantSolution:
    """Exact solution for entrywise-diagonal families: z is the coordinatewise
    maximum and t_i indicates where functional i attains it (ties to the
    lowest index).  Independent of the barrier solver; used as a test oracle."""
    if f.algebra.dims != alg.dims:
        raise PreconditionError("functional family does not match the algebra")
    n = f.n
    for i, e in enumerate(f.elements):
        for b in e.blocks:
            if np.abs(b - np.diag(np.diagonal(b))).max() > 1e-12 * max(1.0, np.abs(b).max()):
                raise PreconditionError(f"functional {i} is not diagonal")

    z_blocks = []
    t_blocks = [[] for _ in range(n)]
    for k, d in enumerate(alg.dims):
        table = np.array(
            [np.real(np.diagonal(f.elements[i].blocks[k])) for i in range(n)]
        )
        zmax = table.max(axis=0)
        winner = table.argmax(axis=0)  # argmax returns the lowest winning index
        z_blocks.append(np.diag(zmax.astype(complex)))
        for i in range(n):
            t_blocks[i].append(np.diag((winner == i).astype(complex)))

    z = AlgebraElement(alg, z_blocks)
    return majorant_certificate(f, z, [AlgebraElement(alg, blocks) for blocks in t_blocks])


def kron_null_space_oracle(pairs, rank_tol: float, floor: float = 0.0) -> list[np.ndarray]:
    """Basis of {y : a y = y b for every pair (a, b)}: the null space of the
    stacked row-major operators kron(a, 1) - kron(1, b^T), cut at singular
    values max(rank_tol * smax, floor).  The dense O(n d^6) solve the
    restricted one in orthogonalize.py replaced; used as a test oracle."""
    d = pairs[0][0].shape[0]
    eye = np.eye(d)
    _, s, vh = np.linalg.svd(np.vstack([np.kron(a, eye) - np.kron(eye, b.T) for a, b in pairs]))
    smax = float(s[0]) if s.size and s[0] > 0 else 1.0
    cutoff = max(rank_tol * smax, floor)
    # Null vectors of A = U S V^H are the conjugated rows of V^H at zero s.
    return [vh[j].conj().reshape(d, d) for j in range(len(s)) if s[j] <= cutoff]


def _phase_fix_columns(b: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real positive."""
    out = b.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        idx = int(np.argmax(np.abs(col)))
        mag = abs(col[idx])
        if mag > 0:
            out[:, j] = col * (col[idx].conjugate() / mag)
    return out


def _pivoted_orthonormal(m: np.ndarray, count: int, floor: float = 1e-12) -> np.ndarray:
    """Greedy-pivoted Gram-Schmidt basis of the column span, `count` columns."""
    work = m.astype(complex).copy()
    rows = work.shape[0]
    basis = np.zeros((rows, count), dtype=complex)
    for j in range(count):
        norms = np.linalg.norm(work, axis=0)
        pick = int(np.argmax(norms))
        if norms[pick] <= floor:
            raise SolverError(
                f"orthonormal completion found only {j} of {count} directions"
            )
        col = work[:, pick] / norms[pick]
        basis[:, j] = col
        work -= np.outer(col, col.conj() @ work)
    return basis


def kernel_completion_oracle(
    alg: BlockAlgebra,
    columns: Sequence[np.ndarray],
    targets: Sequence[AlgebraElement],
) -> list[np.ndarray]:
    """Polar part of a tall block column map, completed to an exact isometry.

    ``columns[k]`` is the (n*d_k, d_k) matrix of block rows landing in the
    ranges of the target projections; per block the returned u satisfies
    u^H u = 1 and u u^H = diag(q_1, ..., q_n), with x = u |x| up to the
    singular values below the rank cutoff.

    The completion pairs a pivoted orthonormal basis of the domain kernel
    with one of range(diag q) minus range(x); bases are phase-normalized so
    the pairing is deterministic.  This is the tall-SVD completion that the
    square polar factor in orthogonalize.py replaced; used as a test oracle.
    """
    n = len(targets)
    isometries = []
    for k, d in enumerate(alg.dims):
        x = np.asarray(columns[k], dtype=complex)
        if x.shape != (n * d, d):
            raise PreconditionError(
                f"block {k}: column map has shape {x.shape}, expected {(n * d, d)}"
            )
        # Orthonormal basis of range(diag(q_i)), stacked at the block offsets.
        range_cols = []
        rank_sum = 0
        for i, q in enumerate(targets):
            basis = projection_range(q.blocks[k])
            r = basis.shape[1]
            rank_sum += r
            if r:
                emb = np.zeros((n * d, r), dtype=complex)
                emb[i * d : (i + 1) * d, :] = basis
                range_cols.append(emb)
        if rank_sum != d:
            raise PreconditionError(
                f"block {k}: target ranks sum to {rank_sum}, expected {d}"
            )
        q_basis = np.hstack(range_cols) if range_cols else np.zeros((n * d, 0), dtype=complex)

        out_of_range = x - q_basis @ (q_basis.conj().T @ x)
        scale = max(1.0, float(np.linalg.norm(x)))
        if np.linalg.norm(out_of_range) > 1e-7 * scale:
            raise PreconditionError(
                f"block {k}: columns leave the target range by "
                f"{np.linalg.norm(out_of_range):.3e}"
            )

        u_left, s, vh = np.linalg.svd(x, full_matrices=False)
        cutoff = COMMUTANT_RANK_TOL * (float(s[0]) if s.size and s[0] > 0 else 1.0)
        r = int(np.sum(s > cutoff))
        u0 = u_left[:, :r] @ vh[:r, :]

        v_kernel = _phase_fix_columns(vh[r:, :].conj().T)          # (d, d-r)
        residue = q_basis - u_left[:, :r] @ (u_left[:, :r].conj().T @ q_basis)
        w_kernel = (
            _phase_fix_columns(_pivoted_orthonormal(residue, d - r))
            if d - r
            else np.zeros((n * d, 0), dtype=complex)
        )
        isometries.append(u0 + w_kernel @ v_kernel.conj().T)
    return isometries


def range_basis_polar_oracle(
    alg: BlockAlgebra,
    columns: Sequence[np.ndarray],
    targets: Sequence[AlgebraElement],
) -> list[np.ndarray]:
    """Isometric polar part of a tall block column map.

    ``columns[k]`` is the (n*d_k, d_k) matrix of block rows landing in the
    ranges of the target projections, whose ranks sum to d_k.  With Q an
    orthonormal basis of range(diag(q_1, ..., q_n)), x = Q y for the square
    y = Q^H x, and u = Q W for the unitary polar factor W of y.  Per block u
    satisfies u^H u = 1, u u^H = diag(q_1, ..., q_n) and x = u |x| exactly,
    with no rank cutoff: W stays unitary when y is singular.

    This decodes the targets again through an orthonormal range basis; the
    square map in the selected eigenvectors replaced it.  Used as a test oracle.
    """
    n = len(targets)
    if len(columns) != alg.num_blocks:
        raise PreconditionError(
            f"{len(columns)} column maps for an algebra of {alg.num_blocks} blocks"
        )
    for i, q in enumerate(targets):
        if q.algebra.dims != alg.dims:
            raise PreconditionError(
                f"target {i} has block dimensions {q.algebra.dims}, expected {alg.dims}"
            )
    isometries = []
    for k, d in enumerate(alg.dims):
        x = np.asarray(columns[k], dtype=complex)
        if x.shape != (n * d, d):
            raise PreconditionError(
                f"block {k}: column map has shape {x.shape}, expected {(n * d, d)}"
            )
        # Orthonormal basis of range(diag(q_i)), stacked at the block offsets.
        range_cols = []
        rank_sum = 0
        for i, q in enumerate(targets):
            basis = projection_range(q.blocks[k])
            r = basis.shape[1]
            rank_sum += r
            if r:
                emb = np.zeros((n * d, r), dtype=complex)
                emb[i * d : (i + 1) * d, :] = basis
                range_cols.append(emb)
        if rank_sum != d:
            raise PreconditionError(
                f"block {k}: target ranks sum to {rank_sum}, expected {d}"
            )
        q_basis = np.hstack(range_cols)

        y = q_basis.conj().T @ x
        out_of_range = np.linalg.norm(x - q_basis @ y)
        if out_of_range > 1e-7 * max(1.0, float(np.linalg.norm(x))):
            raise PreconditionError(
                f"block {k}: columns leave the target range by {out_of_range:.3e}"
            )
        w, _, vh = np.linalg.svd(y)
        isometries.append(q_basis @ (w @ vh))
    return isometries


def per_cluster_eigh_selection_oracle(
    alg: BlockAlgebra, phi: State, a: Povm
) -> tuple[list[list[np.ndarray]], float]:
    """The projection selection with one decomposition per cluster.

    Each element is diagonalised on its own, its eigenvalues are clustered at
    CLUSTER_TOL * max(1, spectral radius), and every cluster, 1 x 1 ones
    included, gets its own eigh of the score matrix lambda * B^H rho B; a
    score below -SCORE_CLIP_TOL counts as 0.  Returns (bases, lp_value) with
    bases[k][i] as in SelectionResult.  This is the selection that the shared
    per-element decomposition in orthogonalize.py replaced; used as a test
    oracle.
    """
    radii = [max(float(np.abs(np.linalg.eigvalsh(b)).max()) for b in e.blocks) for e in a.elements]
    bases = []
    lp_value = 0.0
    for k, d in enumerate(alg.dims):
        rho = phi.densities[k]
        items = []  # (score, output, -eigenvalue, vec_index, vector)
        for i, e in enumerate(a.elements):
            w, v = np.linalg.eigh(hermitian_part(e.blocks[k]))
            w, v = w[::-1], v[:, ::-1]
            gap = CLUSTER_TOL * max(1.0, radii[i])
            start = 0
            for end in range(1, d + 1):
                if end < d and w[end - 1] - w[end] <= gap:
                    continue
                lam = float(w[start:end].mean())
                basis = v[:, start:end].copy()
                sw, sv = np.linalg.eigh(hermitian_part(lam * (basis.conj().T @ rho @ basis)))
                sw, sv = sw[::-1], sv[:, ::-1]
                for j in range(len(sw)):
                    score = 0.0 if sw[j] < -SCORE_CLIP_TOL else float(sw[j])
                    items.append((score, i, -lam, j, basis @ sv[:, j]))
                start = end
        items.sort(key=lambda it: (-it[0], it[1], it[2], it[3]))
        picked = [[] for _ in range(a.n)]
        for score, i, _, _, vec in items[:d]:
            picked[i].append(vec)
            lp_value += score
        bases.append([
            np.stack(vecs, axis=1) if vecs else np.zeros((d, 0), dtype=complex)
            for vecs in picked
        ])
    return bases, lp_value


def per_block_item_selection_oracle(
    alg: BlockAlgebra, phi: State, a: Povm
) -> tuple[list[list[int]], list[np.ndarray], float]:
    """The projection selection as one sorted list of items per block.

    An item is a tuple (score, output, -eigenvalue, index in cluster,
    vector).  A cluster (lambda, B) of multiplicity 1 is one item scored
    lambda v^H rho v; a multiple one gives the eigenpairs of lambda B^H rho B,
    largest first.  A score below -SCORE_CLIP_TOL warns, as the selection
    does, and counts as 0.  The top d_k items of each sorted list are picked.
    Returns (ranks, vectors, lp_value): vectors[k] holds the picked vectors of
    block k side by side, grouped by output and in pick order within one, and
    lp_value adds the picked scores left to right in block order.  This is
    the selection that the one item array per block size in orthogonalize.py
    replaced; used as a test oracle.
    """
    eigs = [per_block_eigh_oracle(e) for e in a.elements]
    clusters = [per_block_clusters_oracle(x, CLUSTER_TOL) for x in eigs]
    ranks, vectors, lp_value = [], [], 0.0
    for k, (d, rho) in enumerate(zip(alg.dims, phi.densities)):
        items = []
        for i in range(a.n):
            w, v = eigs[i][k]
            scores = (w * np.sum((v.conj().T @ rho) * v.T, axis=-1).real)[::-1]
            column = 0
            for lam, basis in clusters[i][k]:
                if basis.shape[1] == 1:
                    pairs = [(scores[column], basis[:, 0])]
                else:
                    sw, sv = np.linalg.eigh(hermitian_part(lam * (basis.conj().T @ rho @ basis)))
                    pairs = [(sw[j], basis @ sv[:, j]) for j in reversed(range(len(sw)))]
                column += basis.shape[1]
                for j, (s, vec) in enumerate(pairs):
                    s = float(s)
                    if s < -SCORE_CLIP_TOL:
                        warnings.warn(
                            f"selection score {s:.3e} below -{SCORE_CLIP_TOL:g} clipped to 0 "
                            f"(block {k}, output {i})",
                            RuntimeWarning,
                        )
                        s = 0.0
                    items.append((s, i, -lam, j, vec))
        items.sort(key=lambda it: (-it[0], it[1], it[2], it[3]))
        ranks.append([0] * a.n)
        for s, i, *_ in items[:d]:
            lp_value += s
            ranks[k][i] += 1
        vectors.append(np.array([it[4] for it in sorted(items[:d], key=lambda it: it[1])]).T)
    return ranks, vectors, lp_value


def ambient_pinching_oracle(p: Pvm, q: Pvm) -> list[AlgebraElement]:
    """The pinched POVM a_i = sum_j q_j p_i q_j, formed in the ambient algebra.

    This is how compress_povm built the pinched POVM before it compressed p
    into the commutant of q directly; used as a test oracle.
    """
    pinched = []
    for pi in p.elements:
        acc = p.algebra.zero()
        for qj in q.elements:
            acc = acc + (qj @ pi @ qj)
        pinched.append(acc)
    return pinched


def per_entry_encode_oracle(m: np.ndarray) -> list:
    """A complex matrix as nested row-major [re, im] pairs, one Python float
    per entry.  The per-entry encoder that io.py's one ``tolist`` replaced;
    used as a test oracle."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


def v1_document(inst) -> dict:
    """``inst`` as a version-1 instance document, every matrix as row-major
    [re, im] pairs: what ``Instance.to_json`` wrote before version 2."""
    doc = {**inst.to_json(), "version": 1}
    if inst.state is not None:
        doc["state"] = encode_element(inst.state.rho)
    if inst.povm is not None:
        doc["povm"] = [encode_element(e) for e in inst.povm.elements]
    if inst.pvm_pair is not None:
        doc["pvm_pair"] = {k: [encode_element(e) for e in pvm.elements]
                           for k, pvm in zip("pq", inst.pvm_pair)}
    if inst.functionals is not None:
        doc["functionals"] = [encode_element(e) for e in inst.functionals.elements]
    return doc


@pytest.fixture
def m2():
    return BlockAlgebra((2,))


@pytest.fixture
def trace_state_m2(m2):
    return State.normalized_trace(m2)
