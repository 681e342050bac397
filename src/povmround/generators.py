"""Seeded, reproducible instance generators.

All randomness flows through numpy's PCG64 generator seeded per instance, so
the same (kind, seed, params) always produces byte-identical files.  Fixed
instances (the two-block optimality family and the rank-constraint
counterexample triple in M_2) are built from exact formulas.
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import (
    AlgebraElement,
    BlockAlgebra,
    Povm,
    PreconditionError,
    Pvm,
    State,
    ValidationError,
    dagger,
    element_sum,
    hermitian_eigh,
    hermitian_part,
)
from .io import Instance
from .majorant import FunctionalFamily

GENERATOR_NAME = "numpy-pcg64"

# The parameter keys each instance kind reads; gen_instance rejects any other.
KIND_KEYS = {
    "random_povm_near_pvm": ("dims", "n", "delta", "state_rank", "single_block"),
    "random_state": ("dims", "state_rank", "single_block"),
    "paper_counterexample": ("delta",),
    "linfty2_family": ("c",),
    "rotated_pvm_pair": ("theta", "canonical", "dims", "n_p", "n_q"),
    "random_functionals": ("dims", "n", "diagonal"),
}
KINDS = tuple(KIND_KEYS)


def _parse_flag(val: str) -> bool:
    """1/true/yes or 0/false/no, in any case; anything else is a ValueError."""
    key = val.lower()
    if key in ("1", "true", "yes"):
        return True
    if key in ("0", "false", "no"):
        return False
    raise ValueError(f"not a flag: {val!r}")


# How a ``key=val`` string of the CLI's ``gen --param`` becomes each key's value.
PARAM_PARSERS = {
    "dims": lambda val: [int(x) for x in val.replace("+", ",").split(",")],
    "n": int,
    "n_p": int,
    "n_q": int,
    "state_rank": int,
    "delta": float,
    "theta": float,
    "c": float,
    "canonical": _parse_flag,
    "diagonal": _parse_flag,
    "single_block": _parse_flag,
}


def _rng(seed: int) -> np.random.Generator:
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")
    return np.random.default_rng(int(seed))


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r).copy()
    phases = phases / np.abs(phases)
    return q * phases


def random_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    h = hermitian_part(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    norm = np.linalg.norm(h, 2)
    return h / norm if norm > 0 else h


def random_state(alg: BlockAlgebra, rng: np.random.Generator, rank: int | None = None,
                 single_block: bool = False) -> State:
    """Random density blocks, jointly normalized to unit total trace."""
    densities = []
    active = rng.integers(alg.num_blocks) if single_block else None
    for k, d in enumerate(alg.dims):
        if active is not None and k != active:
            densities.append(np.zeros((d, d), dtype=complex))
            continue
        r = d if rank is None else max(1, min(rank, d))
        g = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
        densities.append(g @ g.conj().T)
    total = sum(np.trace(r).real for r in densities)
    return State(alg, [r / total for r in densities])


def random_pvm(alg: BlockAlgebra, n: int, rng: np.random.Generator) -> Pvm:
    """PVM from a Haar-random frame and a random assignment of basis slots."""
    elements = [[] for _ in range(n)]
    for d in alg.dims:
        u = haar_unitary(rng, d)
        labels = rng.integers(0, n, size=d)
        for i in range(n):
            sel = u[:, labels == i]
            elements[i].append(sel @ sel.conj().T)
    return Pvm(alg, [AlgebraElement(alg, blocks) for blocks in elements])


def random_povm_near_pvm(
    alg: BlockAlgebra, n: int, delta: float, rng: np.random.Generator
) -> Povm:
    """Random PVM perturbed by delta times random Hermitian noise, then
    renormalized so the output is always a valid POVM."""
    pvm = random_pvm(alg, n, rng)
    perturbed = [
        e + AlgebraElement(alg, [delta * random_hermitian(rng, d) for d in alg.dims])
        for e in pvm.elements
    ]
    gamma = max(0.0, *(float(-w.min()) for e in perturbed for w in e.eigvals()))
    shifted = [e + gamma * alg.identity() for e in perturbed]
    eigs = hermitian_eigh(element_sum(shifted))
    inv_root = AlgebraElement.from_stacks(alg, [(v / np.sqrt(w)[:, None]) @ dagger(v) for w, v in eigs])
    return Povm(alg, [inv_root @ e @ inv_root for e in shifted])


def counterexample_triple(delta: float) -> tuple[BlockAlgebra, State, Povm]:
    """Three-output POVM in M_2 with no common eigenvector: every output has
    normalized trace at most 1/2, yet the orthogonality defect is O(delta)."""
    if not (0.0 < delta <= 0.1):
        raise ValidationError("delta must lie in (0, 0.1]")
    alg = BlockAlgebra((2,))
    f = 1.0 / (1.0 + 6.0 * delta)
    s3 = math.sqrt(3.0) * delta
    a1 = f * np.array([[1.0 + 4.0 * delta, 0.0], [0.0, 0.0]], dtype=complex)
    a2 = f * np.array([[delta, s3], [s3, 1.0 + 3.0 * delta]], dtype=complex)
    a3 = f * np.array([[delta, -s3], [-s3, 3.0 * delta]], dtype=complex)
    povm = Povm(alg, [AlgebraElement(alg, [m]) for m in (a1, a2, a3)])
    phi = State.normalized_trace(alg)
    return alg, phi, povm


def linfty2_family(c: float) -> tuple[BlockAlgebra, State, Povm]:
    """Two-output POVM on the diagonal algebra C + C that saturates the
    rounding error at exactly half the weight c of the second coordinate:
    a_1 = (1, 1/2), a_2 = (0, 1/2), phi = (1 - c, c)."""
    if not (0.0 < c < 1.0):
        raise ValidationError("c must lie in (0, 1)")
    alg = BlockAlgebra((1, 1))
    a1 = alg.diagonal([[1.0], [0.5]])
    a2 = alg.diagonal([[0.0], [0.5]])
    phi = State(alg, [np.array([[1.0 - c]]), np.array([[c]])])
    return alg, phi, Povm(alg, [a1, a2])


def rotated_pvm_pair(
    theta: float,
    dims: tuple[int, ...],
    n_p: int = 2,
    n_q: int = 2,
    rng: np.random.Generator | None = None,
    canonical: bool = False,
) -> tuple[BlockAlgebra, State, Pvm, Pvm]:
    """Almost-commuting PVM pair: q and a copy of p0 diagonal in the same
    frame, with p = exp(theta K) p0 exp(-theta K) for an anti-Hermitian K.

    ``canonical`` gives the closed-form two-dimensional pair: q the standard
    basis split, p its Givens rotation by theta, state the normalized trace.
    """
    if not (0.0 < theta <= math.pi / 4):
        raise ValidationError("theta must lie in (0, pi/4]")
    alg = BlockAlgebra(tuple(dims))
    if canonical:
        if tuple(dims) != (2,) or (n_p, n_q) != (2, 2):
            raise ValidationError("canonical pair is defined for dims=(2,) with 2+2 outputs")
        c, s = math.cos(theta), math.sin(theta)
        rot = np.array([[c, -s], [s, c]], dtype=complex)
        q = Pvm(alg, [alg.diagonal([[1.0, 0.0]]), alg.diagonal([[0.0, 1.0]])])
        p = Pvm(alg, [AlgebraElement(alg, [rot @ e.blocks[0] @ rot.conj().T]) for e in q.elements])
        return alg, State.normalized_trace(alg), p, q
    if rng is None:
        raise PreconditionError("non-canonical pairs need a seeded generator")
    # q and p0 diagonal in one shared Haar frame, so they commute exactly;
    # p is p0 rotated by exp(i theta h) for a random Hermitian generator h.
    q_blocks = [[] for _ in range(n_q)]
    p_blocks = [[] for _ in range(n_p)]
    for d in alg.dims:
        frame = haar_unitary(rng, d)
        q_labels = rng.integers(0, n_q, size=d)
        p_labels = rng.integers(0, n_p, size=d)
        h = random_hermitian(rng, d)
        w, v = np.linalg.eigh(h)
        rot = (v * np.exp(1j * theta * w)) @ v.conj().T
        for j in range(n_q):
            sel = frame[:, q_labels == j]
            q_blocks[j].append(sel @ sel.conj().T)
        for i in range(n_p):
            sel = rot @ frame[:, p_labels == i]
            p_blocks[i].append(sel @ sel.conj().T)
    q = Pvm(alg, [AlgebraElement(alg, blocks) for blocks in q_blocks])
    p = Pvm(alg, [AlgebraElement(alg, blocks) for blocks in p_blocks])
    phi = random_state(alg, rng)
    return alg, phi, p, q


def random_functionals(
    alg: BlockAlgebra, n: int, rng: np.random.Generator, diagonal: bool = False
) -> FunctionalFamily:
    elements = []
    for _ in range(n):
        blocks = []
        for d in alg.dims:
            if diagonal:
                blocks.append(np.diag(rng.uniform(0.0, 2.0, size=d)).astype(complex))
            else:
                g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                blocks.append((g @ g.conj().T) / d)
        elements.append(AlgebraElement(alg, blocks))
    return FunctionalFamily(elements)


def _require(cond: bool, message: str):
    if not cond:
        raise ValidationError(message)


def gen_instance(kind: str, seed: int, params: dict | None = None) -> Instance:
    """Build one instance deterministically from (kind, seed, params)."""
    params = dict(params or {})
    if kind not in KIND_KEYS:
        raise PreconditionError(f"unknown instance kind {kind!r}; choose one of {KINDS}")
    unknown = sorted(set(params) - set(KIND_KEYS[kind]))
    if unknown:
        raise ValidationError(
            f"kind {kind!r} reads no parameter {unknown}; its keys are {list(KIND_KEYS[kind])}"
        )
    meta = {
        "kind": kind,
        "seed": int(seed),
        "params": params,
        "generator": GENERATOR_NAME,
    }
    rng = _rng(seed)

    if kind == "random_povm_near_pvm":
        dims = tuple(int(x) for x in params.get("dims", (4,)))
        n = int(params.get("n", 3))
        delta = float(params.get("delta", 0.05))
        _require(all(1 <= d <= 16 for d in dims), "dims must lie in 1..16")
        _require(1 <= n <= 16, "n must lie in 1..16")
        _require(0.0 <= delta <= 0.5, "delta must lie in [0, 0.5]")
        rank = params.get("state_rank")
        _require(rank is None or 1 <= rank <= 16, "state_rank must lie in 1..16")
        alg = BlockAlgebra(dims)
        povm = random_povm_near_pvm(alg, n, delta, rng)
        phi = random_state(alg, rng, rank=rank, single_block=bool(params.get("single_block", False)))
        return Instance(alg, state=phi, povm=povm, metadata=meta)

    if kind == "random_state":
        dims = tuple(int(x) for x in params.get("dims", (4,)))
        _require(all(1 <= d <= 16 for d in dims), "dims must lie in 1..16")
        rank = params.get("state_rank")
        _require(rank is None or 1 <= rank <= 16, "state_rank must lie in 1..16")
        alg = BlockAlgebra(dims)
        phi = random_state(alg, rng, rank=rank,
                           single_block=bool(params.get("single_block", False)))
        return Instance(alg, state=phi, metadata=meta)

    if kind == "paper_counterexample":
        delta = float(params.get("delta", 0.01))
        alg, phi, povm = counterexample_triple(delta)
        return Instance(alg, state=phi, povm=povm, metadata=meta)

    if kind == "linfty2_family":
        c = float(params.get("c", 0.1))
        alg, phi, povm = linfty2_family(c)
        return Instance(alg, state=phi, povm=povm, metadata=meta)

    if kind == "rotated_pvm_pair":
        theta = float(params.get("theta", 0.1))
        canonical = bool(params.get("canonical", False))
        dims = tuple(int(x) for x in params.get("dims", (2,)))
        _require(all(1 <= d <= 16 for d in dims), "dims must lie in 1..16")
        n_p = int(params.get("n_p", 2))
        n_q = int(params.get("n_q", 2))
        _require(1 <= n_p <= 16, "n_p must lie in 1..16")
        _require(1 <= n_q <= 16, "n_q must lie in 1..16")
        alg, phi, p, q = rotated_pvm_pair(
            theta, dims, n_p=n_p, n_q=n_q, rng=rng, canonical=canonical
        )
        return Instance(alg, state=phi, pvm_pair=(p, q), metadata=meta)

    if kind == "random_functionals":
        dims = tuple(int(x) for x in params.get("dims", (4,)))
        n = int(params.get("n", 3))
        _require(all(1 <= d <= 16 for d in dims), "dims must lie in 1..16")
        _require(1 <= n <= 16, "n must lie in 1..16")
        alg = BlockAlgebra(dims)
        fam = random_functionals(alg, n, rng, diagonal=bool(params.get("diagonal", False)))
        return Instance(alg, functionals=fam, metadata=meta)
