"""Block matrix algebras, states, POVMs, and the numerical primitives on them.

The ambient object everywhere in this package is a finite direct sum of full
complex matrix algebras M_{d_1} + ... + M_{d_K}.  Elements are tuples of
square complex blocks, states are tuples of PSD density blocks with unit
total trace, and a POVM is a tuple of positive elements summing to the
identity.  This module holds the data model plus the small set of numerical
primitives the rounding/repair/majorant solvers are built from: validation,
the state seminorm, the orthogonality defect, and the per-block eigenpairs
that square roots and eigenvalue clusters are both read from.
``BoundCheck`` is the one record every solver report uses for its certified
bounds, and ``SubAlgebra`` the one sub-algebra type (repair's commutant,
symmetry mode's generated algebra).
"""

from __future__ import annotations

import dataclasses
import math
import operator
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np


class PovmRoundError(Exception):
    """Base class for errors raised by this package."""


class ShapeMismatchError(PovmRoundError):
    """Structural mismatch between an element and its owning algebra."""


class ValidationError(PovmRoundError):
    """Input violates a mathematical invariant beyond tolerance."""


class PreconditionError(PovmRoundError):
    """An operation's precondition does not hold."""


class SolverError(PovmRoundError):
    """An iterative solver failed to converge."""


@dataclass
class BoundCheck:
    """One certified bound: measured value against its threshold."""

    name: str
    value: float
    threshold: float
    passed: bool

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "value": self.value,
            "threshold": self.threshold,
            "pass": bool(self.passed),
        }


def check_leq(name: str, value: float, threshold: float) -> BoundCheck:
    return BoundCheck(name, float(value), float(threshold), bool(value <= threshold))


def check_geq(name: str, value: float, threshold: float) -> BoundCheck:
    return BoundCheck(name, float(value), float(threshold), bool(value >= threshold))


@dataclass(frozen=True)
class Tolerances:
    """The three tolerances a caller may set per run.

    psd_tol and cert_tol say how far an input may be from its invariant:
    psd_tol bounds the negativity of a state, POVM element or functional,
    cert_tol the residual of an input identity (trace one, sum to the
    identity, Hermiticity, idempotency, and the unitarity and order of
    repair's unitaries).  No output gate reads either, so loosening them
    admits more inputs but never a weaker certificate.  gap_tol is the
    duality gap, relative to the family's scale, that minimal_majorant aims
    for and its gap check accepts.  Solver internals are constants beside
    their solver: orthogonalize.CLUSTER_TOL, SCORE_CLIP_TOL and
    COMMUTANT_RANK_TOL, and majorant.MU_SHRINK, NEWTON_TOL, MAX_NEWTON_STEPS
    and MAX_STAGES.
    """

    psd_tol: float = 1e-9
    cert_tol: float = 1e-9
    gap_tol: float = 1e-6

    def __post_init__(self):
        for f in fields(self):  # bool is an int subclass: True would pass as 1.0
            value = getattr(self, f.name)
            if isinstance(value, (bool, np.bool_)):
                raise ValidationError(f"{f.name} must be a number, not a boolean")
            if not 0 < value < math.inf:  # false for NaN too
                raise ValidationError(f"{f.name} must be finite and positive")

    def replace(self, **kwargs) -> "Tolerances":
        unknown = set(kwargs) - {f.name for f in fields(self)}
        if unknown:
            raise ValidationError(f"unknown tolerance keys: {sorted(unknown)}")
        return dataclasses.replace(self, **kwargs)

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


DEFAULT_TOL = Tolerances()


@dataclass(frozen=True)
class BlockAlgebra:
    """A direct sum of full matrix algebras, given by its block dimensions."""

    dims: tuple[int, ...]

    def __post_init__(self):
        message = "block dimensions must be a nonempty list of positive integers"
        try:
            dims = tuple(self.dims)
            if any(isinstance(d, (bool, np.bool_)) for d in dims):
                raise ValidationError(message)
            # Unlike int, operator.index rejects 1.7 and "2"; numpy integers pass.
            dims = tuple(operator.index(d) for d in dims)
        except TypeError:
            raise ValidationError(message) from None
        if len(dims) < 1 or any(d < 1 for d in dims):
            raise ValidationError(message)
        object.__setattr__(self, "dims", dims)

    @property
    def num_blocks(self) -> int:
        return len(self.dims)

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def element(self, blocks) -> "AlgebraElement":
        return AlgebraElement(self, blocks)

    def identity(self) -> "AlgebraElement":
        return AlgebraElement(self, [np.eye(d, dtype=complex) for d in self.dims])

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, [np.zeros((d, d), dtype=complex) for d in self.dims])

    def diagonal(self, entries: Sequence[Sequence[float]]) -> "AlgebraElement":
        """Element with the given per-block diagonal entries."""
        return AlgebraElement(self, [np.diag(np.asarray(e, dtype=complex)) for e in entries])


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(a + a^H) / 2 of a square matrix, or of each matrix of an (n, d, d) stack."""
    return (a + a.conj().swapaxes(-1, -2)) / 2


def require_finite(blocks, what: str) -> None:
    """Raise ValidationError unless every entry of every block is finite."""
    if not all(np.isfinite(b).all() for b in blocks):
        raise ValidationError(f"{what} has a non-finite entry")


def _as_block(mat, dim: int) -> np.ndarray:
    b = np.asarray(mat, dtype=complex)
    if b.shape != (dim, dim):
        raise ShapeMismatchError(f"block has shape {b.shape}, expected ({dim}, {dim})")
    return np.ascontiguousarray(b)


class AlgebraElement:
    """An element of a block algebra: one complex square matrix per block."""

    __slots__ = ("algebra", "blocks")

    def __init__(self, algebra: BlockAlgebra, blocks):
        blocks = list(blocks)
        if len(blocks) != algebra.num_blocks:
            raise ShapeMismatchError(
                f"element has {len(blocks)} blocks, algebra has {algebra.num_blocks}"
            )
        self.algebra = algebra
        self.blocks = tuple(_as_block(b, d) for b, d in zip(blocks, algebra.dims))

    def _check_same(self, other: "AlgebraElement"):
        if self.algebra.dims != other.algebra.dims:
            raise ShapeMismatchError("elements belong to different algebras")

    def __add__(self, other):
        self._check_same(other)
        return AlgebraElement(self.algebra, [a + b for a, b in zip(self.blocks, other.blocks)])

    def __sub__(self, other):
        self._check_same(other)
        return AlgebraElement(self.algebra, [a - b for a, b in zip(self.blocks, other.blocks)])

    def __mul__(self, scalar):
        return AlgebraElement(self.algebra, [scalar * a for a in self.blocks])

    __rmul__ = __mul__

    def __matmul__(self, other):
        self._check_same(other)
        return AlgebraElement(self.algebra, [a @ b for a, b in zip(self.blocks, other.blocks)])

    @property
    def H(self) -> "AlgebraElement":
        return AlgebraElement(self.algebra, [a.conj().T for a in self.blocks])

    def commutator(self, other: "AlgebraElement") -> "AlgebraElement":
        return self @ other - other @ self

    def trace(self) -> complex:
        return complex(sum(np.trace(a) for a in self.blocks))

    def norm_fro(self) -> float:
        return float(np.sqrt(sum(np.linalg.norm(a) ** 2 for a in self.blocks)))

    def skew_norm(self) -> float:
        """Frobenius norm of the anti-Hermitian part."""
        return float(
            np.sqrt(sum(np.linalg.norm((a - a.conj().T) / 2) ** 2 for a in self.blocks))
        )

    def hermitized(self) -> tuple["AlgebraElement", float]:
        """Symmetrized copy together with the removed residual, never silent."""
        residual = self.skew_norm()
        h = AlgebraElement(self.algebra, [hermitian_part(a) for a in self.blocks])
        return h, residual

    def eigvals(self) -> list[np.ndarray]:
        """Per-block eigenvalues of the Hermitian part, ascending."""
        return [np.linalg.eigvalsh(hermitian_part(a)) for a in self.blocks]

    def spectral_radius(self) -> float:
        return max(float(np.abs(w).max()) for w in self.eigvals())

    def __repr__(self):
        return f"AlgebraElement(dims={self.algebra.dims})"


def element_sum(xs: Sequence[AlgebraElement]) -> AlgebraElement:
    """xs[0] + xs[1] + ..., added left to right, so the result is bitwise
    reproducible."""
    total = xs[0]
    for x in xs[1:]:
        total = total + x
    return total


def hermitian_eigh(x: AlgebraElement) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-block eigenpairs (w ascending, v) of the Hermitian part: the one
    decomposition of an element that its square root and its spectral
    clusters both read."""
    return [np.linalg.eigh(hermitian_part(a)) for a in x.blocks]


def hermitian_sqrt(
    alg: BlockAlgebra, eigs: Sequence[tuple[np.ndarray, np.ndarray]],
    lo: float = 0.0, hi: float = np.inf,
) -> tuple[AlgebraElement, float]:
    """PSD square root from per-block eigenpairs, eigenvalues clipped to [lo, hi].

    Returns the root and the largest clip applied to any eigenvalue.
    """
    roots = []
    clip = 0.0
    for w, v in eigs:
        wc = np.clip(w, lo, hi)
        clip = max(clip, float(np.abs(w - wc).max()))
        roots.append((v * np.sqrt(wc)) @ v.conj().T)
    return AlgebraElement(alg, roots), clip


def projection_range(block: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the range of a projection block."""
    w, v = np.linalg.eigh(block)
    return v[:, w > 0.5].copy()  # the indexed view is F-ordered; products expect C order


class State:
    """Normal state phi(x) = sum_k Tr(rho_k x_k) given by density blocks.

    Densities are symmetrized on construction; the removed anti-Hermitian
    residual is kept in ``hermitization_residual``.
    """

    __slots__ = ("algebra", "densities", "hermitization_residual")

    def __init__(self, algebra: BlockAlgebra, densities):
        densities = list(densities)
        if len(densities) != algebra.num_blocks:
            raise ShapeMismatchError(
                f"state has {len(densities)} density blocks, algebra has {algebra.num_blocks}"
            )
        h, residual = AlgebraElement(algebra, densities).hermitized()
        self.algebra = algebra
        self.densities = h.blocks
        self.hermitization_residual = residual

    @classmethod
    def normalized_trace(cls, algebra: BlockAlgebra) -> "State":
        n = algebra.total_dim
        return cls(algebra, [np.eye(d, dtype=complex) / n for d in algebra.dims])

    def expect(self, x: AlgebraElement) -> complex:
        if x.algebra.dims != self.algebra.dims:
            raise ShapeMismatchError("element and state belong to different algebras")
        return complex(sum(np.trace(r @ a) for r, a in zip(self.densities, x.blocks)))

    def total_trace(self) -> float:
        return float(sum(np.trace(r).real for r in self.densities))

    def min_eigenvalue(self) -> float:
        return min(float(np.linalg.eigvalsh(r).min()) for r in self.densities)

    def __repr__(self):
        return f"State(dims={self.algebra.dims}, trace={self.total_trace():.6f})"


@dataclass
class StateDiagnostics:
    is_valid: bool
    min_eigenvalue: float
    trace_residual: float
    hermiticity_residual: float


def validate_state(alg: BlockAlgebra, phi: State, tol: Tolerances = DEFAULT_TOL) -> StateDiagnostics:
    if phi.algebra.dims != alg.dims:
        raise ShapeMismatchError("state does not match the algebra")
    require_finite(phi.densities, "state")
    min_eig = phi.min_eigenvalue()
    trace_residual = abs(phi.total_trace() - 1.0)
    ok = (
        min_eig >= -tol.psd_tol
        and trace_residual <= tol.cert_tol
        and phi.hermitization_residual <= tol.cert_tol
    )
    return StateDiagnostics(ok, min_eig, trace_residual, phi.hermitization_residual)


class Povm:
    """Tuple of positive elements summing to the identity.

    Elements are symmetrized on construction, with the residual recorded.
    """

    __slots__ = ("algebra", "elements", "hermitization_residual")

    def __init__(self, algebra: BlockAlgebra, elements):
        elements = list(elements)
        if not elements:
            raise ValidationError("a POVM needs at least one output")
        residual = 0.0
        fixed = []
        for e in elements:
            if not isinstance(e, AlgebraElement):
                e = AlgebraElement(algebra, e)
            if e.algebra.dims != algebra.dims:
                raise ShapeMismatchError("POVM element does not match the algebra")
            h, r = e.hermitized()
            residual = max(residual, r)
            fixed.append(h)
        self.algebra = algebra
        self.elements = tuple(fixed)
        self.hermitization_residual = residual

    @property
    def n(self) -> int:
        return len(self.elements)

    def sum_residual(self) -> float:
        """Largest entry of |sum_i a_i - 1| over all blocks."""
        total = element_sum(self.elements)
        return max(float(np.abs(b - np.eye(d)).max()) for b, d in zip(total.blocks, self.algebra.dims))

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n}, dims={self.algebra.dims})"


class Pvm(Povm):
    """A POVM whose elements are projections."""


@dataclass
class PovmDiagnostics:
    is_valid: bool
    max_negativity: float
    max_excess: float
    sum_residual: float
    hermiticity_residual: float


def validate_povm(alg: BlockAlgebra, a: Povm, tol: Tolerances = DEFAULT_TOL) -> PovmDiagnostics:
    """Check the POVM invariants; residuals are exact maxima over blocks."""
    if a.algebra.dims != alg.dims:
        raise ShapeMismatchError("POVM does not match the algebra")
    neg = 0.0
    excess = 0.0
    for i, e in enumerate(a.elements):
        require_finite(e.blocks, f"POVM element {i}")
        for w in e.eigvals():
            neg = max(neg, float(max(0.0, -w.min())))
            excess = max(excess, float(max(0.0, w.max() - 1.0)))
    sum_residual = a.sum_residual()
    herm = a.hermitization_residual
    ok = (
        neg <= tol.psd_tol
        and excess <= tol.psd_tol
        and sum_residual <= tol.cert_tol
        and herm <= tol.cert_tol
    )
    return PovmDiagnostics(ok, neg, excess, sum_residual, herm)


@dataclass
class PvmDiagnostics(PovmDiagnostics):
    idempotency_residual: float = 0.0


def validate_pvm(alg: BlockAlgebra, p: Povm, tol: Tolerances = DEFAULT_TOL) -> PvmDiagnostics:
    base = validate_povm(alg, p, tol)
    idem = idempotency_residual(p.elements)
    ok = base.is_valid and idem <= tol.cert_tol
    return PvmDiagnostics(
        ok, base.max_negativity, base.max_excess, base.sum_residual,
        base.hermiticity_residual, idem,
    )


def require_valid(diag, what: str, error: type[PovmRoundError] = ValidationError):
    """Raise ``error("<what>: <diag>")`` unless the diagnostics are valid."""
    if not diag.is_valid:
        raise error(f"{what}: {diag}")


def idempotency_residual(elements: Sequence[AlgebraElement]) -> float:
    """max_i ||x_i^2 - x_i||_F."""
    return max(float((e @ e - e).norm_fro()) for e in elements)


def max_commutator(xs: Sequence[AlgebraElement], ys: Sequence[AlgebraElement]) -> float:
    """max over x in xs, y in ys of ||xy - yx||_F (0 when either is empty)."""
    return max((x.commutator(y).norm_fro() for x in xs for y in ys), default=0.0)


def phi_norm_sq(phi: State, x: AlgebraElement) -> float:
    """Squared state seminorm phi(x* x)."""
    return phi.expect(x.H @ x).real


def phi_distance_sq(phi: State, xs: Sequence[AlgebraElement], ys: Sequence[AlgebraElement]) -> float:
    """sum_i phi(|x_i - y_i|^2), the rounding error of ys against xs."""
    return sum(phi_norm_sq(phi, x - y) for x, y in zip(xs, ys))


def defect(phi: State, a: Povm) -> float:
    """Orthogonality defect 1 - phi(sum_i a_i^2); zero exactly for PVMs a.e."""
    total = sum(phi.expect(e @ e).real for e in a.elements)
    return 1.0 - total


def commutator_phi_norm_sq(phi: State, x: AlgebraElement, y: AlgebraElement) -> float:
    """phi-seminorm squared of the commutator xy - yx."""
    return phi_norm_sq(phi, x.commutator(y))


def split_at_gaps(w: np.ndarray, v: np.ndarray, gap: float) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split eigenpairs (w descending, v's columns alongside) into runs: a new
    run starts wherever w[j - 1] - w[j] exceeds gap.  Returns (values, basis
    columns) per run; each caller sets its own order and gap."""
    runs = []
    start = 0
    for j in range(1, len(w) + 1):
        if j == len(w) or (w[j - 1] - w[j]) > gap:
            runs.append((w[start:j], v[:, start:j].copy()))
            start = j
    return runs


def spectral_clusters(
    eigs: Sequence[tuple[np.ndarray, np.ndarray]], cluster_tol: float
) -> list[list[tuple[float, np.ndarray]]]:
    """Per-block (value, basis) clusters of per-block eigenpairs, values descending.

    A new cluster starts whenever the gap to the previous eigenvalue exceeds
    cluster_tol; the value is the mean of the cluster's eigenvalues and the
    basis its (d, multiplicity) orthonormal eigenvector columns.
    """
    return [
        [(float(vals.mean()), basis)
         for vals, basis in split_at_gaps(w[::-1], v[:, ::-1], cluster_tol)]
        for w, v in eigs
    ]


@dataclass
class SubAlgebra:
    """A block algebra carried inside an ambient one by a unitary basis per ambient block.

    Sub-block s uses the d_s * m_s columns of ``basis[ambient_block[s]]`` from
    ``offsets[s]`` on, where y reads y tensor 1_m (column alpha * m + u is copy
    u of vector alpha).  ``compress`` and ``compress_state`` share one partial
    trace over the multiplicity; ``embed`` maps back.  A solver applied inside
    the sub-algebra starts from ``restrict`` and ends with ``embed_pvm``.
    """

    ambient: BlockAlgebra
    sub: BlockAlgebra
    multiplicities: tuple[int, ...]
    ambient_block: tuple[int, ...]
    offsets: tuple[int, ...]
    basis: list[np.ndarray]

    @property
    def algebra(self) -> BlockAlgebra:
        """Read-only alias of ``sub``; perfbench's tracer reads
        ``compress_povm(...).commutant.algebra.num_blocks``."""
        return self.sub

    def _columns(self, s: int) -> tuple[int, np.ndarray, int, int]:
        k, d, m = self.ambient_block[s], self.sub.dims[s], self.multiplicities[s]
        return k, self.basis[k][:, self.offsets[s] : self.offsets[s] + d * m], d, m

    def _partial_traces(self, mats: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Per sub-block, w^H x_k w summed over the multiplicity index."""
        out = []
        for s in range(self.sub.num_blocks):
            k, w, d, m = self._columns(s)
            conj = w.conj().T @ mats[k] @ w
            acc = np.zeros((d, d), dtype=complex)
            for u in range(m):
                acc += conj[u::m, u::m]
            out.append(acc)
        return out

    def compress(self, x: AlgebraElement) -> AlgebraElement:
        """Conditional expectation onto the sub-algebra, in sub coordinates."""
        traces = self._partial_traces(x.blocks)
        return AlgebraElement(self.sub, [t / m for t, m in zip(traces, self.multiplicities)])

    def compress_state(self, phi: State) -> State:
        """Restriction of the state: partial trace over the multiplicity."""
        return State(self.sub, self._partial_traces(phi.densities))

    def embed(self, y: AlgebraElement) -> AlgebraElement:
        """Map sub-algebra elements back into the ambient algebra."""
        mats = [np.zeros((d, d), dtype=complex) for d in self.ambient.dims]
        for s, block in enumerate(y.blocks):
            k, w, _, m = self._columns(s)
            if m > 1:  # at m = 1 kron(y, 1) is y, and np.kron is slow on small blocks
                block = np.kron(block, np.eye(m))
            mats[k] += w @ block @ w.conj().T
        return AlgebraElement(self.ambient, mats)

    def restrict(self, phi: State, elements: Sequence[AlgebraElement]) -> tuple[State, Povm]:
        """The state and the POVM (a_i) carried into sub coordinates."""
        return self.compress_state(phi), Povm(self.sub, [self.compress(e) for e in elements])

    def embed_pvm(self, pvm: Pvm) -> Pvm:
        """A PVM of the sub-algebra as a PVM of the ambient algebra."""
        return Pvm(self.ambient, [self.embed(p) for p in pvm.elements])
