import numpy as np
import pytest

from povmround import (
    AlgebraElement,
    BlockAlgebra,
    FunctionalFamily,
    MajorantSolution,
    PreconditionError,
    State,
)
from povmround.majorant import majorant_certificate


def rng_for(seed):
    return np.random.default_rng(seed)


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


@pytest.fixture
def m2():
    return BlockAlgebra((2,))


@pytest.fixture
def trace_state_m2(m2):
    return State.normalized_trace(m2)
