"""Block matrix algebras, states, POVMs, and the numerical primitives on them.

The ambient object everywhere in this package is a finite direct sum of full
complex matrix algebras M_{d_1} + ... + M_{d_K}.  An element holds its
blocks as one (count, d, d) stack per distinct block size d, so every
operation is one numpy or LAPACK call per size, not per block; a sum over
blocks that reaches a report is still added left to right in block order.
States are PSD density elements of unit trace, and a POVM is a tuple of
positive elements summing to the identity.  This module holds the data
model plus the small set of numerical primitives the rounding/repair/majorant
solvers are built from: validation, the state seminorm, the orthogonality
defect, and the stacked eigenpairs that square roots and eigenvalue clusters
are both read from.  ``BoundCheck`` is the one record every solver report
uses for its certified bounds, and ``SubAlgebra`` the one sub-algebra type
(repair's commutant, symmetry mode's generated algebra).
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
    for and its gap check accepts; it is reachable down to about 3e-8, where
    all 40 seeded random_functionals families of the tests pass.  At 1e-8, 5
    of the 40 miss the gap check, and near 1e-9 the centering stalls in
    double precision with a SolverError.  Solver internals are module
    constants (orthogonalize.CLUSTER_TOL, majorant.NEWTON_TOL, ...).
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
    """A direct sum of full matrix algebras, given by its block dimensions.

    ``sizes`` are the distinct block sizes in order of first appearance,
    ``members[g]`` the blocks of size ``sizes[g]`` and ``shapes[g]`` the
    shape of their stack; block k is slot ``slots[k] = (g, j)``.
    """

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
        sizes = tuple(dict.fromkeys(dims))
        members = tuple(tuple(k for k, d in enumerate(dims) if d == s) for s in sizes)
        slots = {k: (g, j) for g, ks in enumerate(members) for j, k in enumerate(ks)}
        for name, value in (
            ("dims", dims), ("sizes", sizes), ("members", members),
            ("slots", [slots[k] for k in range(len(dims))]),
            ("shapes", [(len(ks), d, d) for d, ks in zip(sizes, members)]),
        ):
            object.__setattr__(self, name, value)

    @property
    def num_blocks(self) -> int:
        return len(self.dims)

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def per_block(self, per_size: Sequence) -> list:
        """Entries of per-size sequences, each indexed by slot, in block order."""
        return [per_size[g][j] for g, j in self.slots]

    def block_sum(self, per_size: Sequence[np.ndarray]):
        """Sum of per-block values, added left to right in block order."""
        values = [s.tolist() for s in per_size]
        return sum(values[0] if len(values) == 1 else self.per_block(values))

    def element(self, blocks) -> "AlgebraElement":
        return AlgebraElement(self, blocks)

    def identity(self) -> "AlgebraElement":
        eyes = [np.broadcast_to(np.eye(d), s) for d, s in zip(self.sizes, self.shapes)]
        return AlgebraElement.from_stacks(self, eyes)

    def zero(self) -> "AlgebraElement":
        return AlgebraElement.from_stacks(self, [np.zeros(s) for s in self.shapes])

    def diagonal(self, entries: Sequence[Sequence[float]]) -> "AlgebraElement":
        """Element with the given per-block diagonal entries."""
        return AlgebraElement(self, [np.diag(np.asarray(e, dtype=complex)) for e in entries])


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return a.conj().swapaxes(-1, -2)


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(a + a^H) / 2 of a square matrix, or of each matrix of a stack."""
    return (a + dagger(a)) / 2


def frobenius_norms(a: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each matrix of a C-contiguous (..., d, d) stack,
    bitwise: the same strided BLAS dots of the real and imaginary parts."""
    flat = np.ascontiguousarray(a).reshape(*a.shape[:-2], 1, -1)
    re, im = flat.real, flat.imag
    return np.sqrt((re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[..., 0, 0])


def require_finite(x: "AlgebraElement", what: str) -> None:
    """Raise ValidationError unless every entry of the element is finite."""
    if not all(np.isfinite(s).all() for s in x.stacks):
        raise ValidationError(f"{what} has a non-finite entry")


class AlgebraElement:
    """An element of a block algebra, held in ``stacks``: per entry of
    ``algebra.sizes``, one contiguous (count, d, d) complex array of the
    blocks of that size.  ``blocks`` is the tuple of per-block views into
    the stacks, in block order; no other copy is kept.
    """

    __slots__ = ("algebra", "stacks", "_blocks")

    def __init__(self, algebra: BlockAlgebra, blocks):
        blocks = [np.asarray(b, dtype=complex) for b in blocks]
        if [b.shape for b in blocks] != [(d, d) for d in algebra.dims]:
            raise ShapeMismatchError(f"block shapes {[b.shape for b in blocks]} do not fit {algebra}")
        self.algebra, self._blocks = algebra, None
        self.stacks = tuple(np.stack([blocks[k] for k in ks]) for ks in algebra.members)

    @classmethod
    def from_stacks(cls, algebra: BlockAlgebra, stacks) -> "AlgebraElement":
        """The element with the given per-size (count, d, d) stacks."""
        stacks = [np.ascontiguousarray(s, dtype=complex) for s in stacks]
        if [s.shape for s in stacks] != algebra.shapes:
            raise ShapeMismatchError(f"stacks do not fit {algebra}: {[s.shape for s in stacks]}")
        return cls._wrap(algebra, stacks)

    @classmethod
    def _wrap(cls, algebra: BlockAlgebra, stacks) -> "AlgebraElement":
        x = cls.__new__(cls)  # stacks already contiguous complex of the algebra's shapes
        x.algebra, x.stacks, x._blocks = algebra, tuple(stacks), None
        return x

    @property
    def blocks(self) -> tuple[np.ndarray, ...]:
        if self._blocks is None:
            self._blocks = tuple(self.algebra.per_block(self.stacks))
        return self._blocks

    def _map(self, fn, *others: "AlgebraElement") -> "AlgebraElement":
        for other in others:
            if other.algebra is not self.algebra and self.algebra.dims != other.algebra.dims:
                raise ShapeMismatchError("elements belong to different algebras")
        stacks = zip(self.stacks, *(o.stacks for o in others))
        return AlgebraElement._wrap(self.algebra, [fn(*s) for s in stacks])

    def __add__(self, other):
        return self._map(np.add, other)

    def __sub__(self, other):
        return self._map(np.subtract, other)

    def __mul__(self, scalar):
        return self._map(lambda a: scalar * a)

    __rmul__ = __mul__

    def __matmul__(self, other):
        return self._map(np.matmul, other)

    @property
    def H(self) -> "AlgebraElement":
        return self._map(lambda a: np.ascontiguousarray(dagger(a)))

    def commutator(self, other: "AlgebraElement") -> "AlgebraElement":
        return self @ other - other @ self

    def trace(self) -> complex:
        return complex(self.algebra.block_sum([np.trace(a, axis1=-2, axis2=-1) for a in self.stacks]))

    def norm_fro(self) -> float:
        return float(np.sqrt(self.algebra.block_sum([frobenius_norms(a) ** 2 for a in self.stacks])))

    def skew_norm(self) -> float:
        """Frobenius norm of the anti-Hermitian part."""
        return (self - self.H).norm_fro() / 2

    def hermitized(self) -> tuple["AlgebraElement", float]:
        """Symmetrized copy together with the removed residual, never silent."""
        return self._map(hermitian_part), self.skew_norm()

    def eigvals(self) -> list[np.ndarray]:
        """Per-size (count, d) stacks of the Hermitian part's eigenvalues, ascending."""
        return [np.linalg.eigvalsh(hermitian_part(a)) for a in self.stacks]

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
    """Per-size stacked eigenpairs (w ascending, v) of the Hermitian part, one
    eigh per block size: the one decomposition of an element that
    hermitian_sqrt and spectral_clusters both read."""
    return [np.linalg.eigh(hermitian_part(a)) for a in x.stacks]


def hermitian_sqrt(
    alg: BlockAlgebra, eigs: Sequence[tuple[np.ndarray, np.ndarray]],
    lo: float = 0.0, hi: float = np.inf,
) -> tuple[AlgebraElement, float]:
    """PSD square root from stacked eigenpairs, eigenvalues clipped to [lo, hi].

    Returns the root and the largest clip applied to any eigenvalue.
    """
    clipped = [np.clip(w, lo, hi) for w, _ in eigs]
    roots = [(v * np.sqrt(wc)[..., None, :]) @ dagger(v) for (_, v), wc in zip(eigs, clipped)]
    clip = max(float(np.abs(w - wc).max()) for (w, _), wc in zip(eigs, clipped))
    return AlgebraElement.from_stacks(alg, roots), clip


class State:
    """Normal state phi(x) = sum_k Tr(rho_k x_k) given by a density element rho.

    The densities (an element, or its blocks) are symmetrized on construction,
    the removed anti-Hermitian residual kept in ``hermitization_residual``.
    ``_valid_at`` is set only by a solver, to the tolerances of the inputs it
    validated, on a restriction of them that it builds and hands its inner
    rounding, which then does not check it again.
    """

    __slots__ = ("algebra", "rho", "hermitization_residual", "_valid_at")

    def __init__(self, algebra: BlockAlgebra, densities):
        if not isinstance(densities, AlgebraElement):
            densities = AlgebraElement(algebra, densities)
        if densities.algebra.dims != algebra.dims:
            raise ShapeMismatchError("state does not match the algebra")
        self.algebra = algebra
        self.rho, self.hermitization_residual = densities.hermitized()
        self._valid_at = None

    @property
    def densities(self) -> tuple[np.ndarray, ...]:
        return self.rho.blocks

    @classmethod
    def normalized_trace(cls, algebra: BlockAlgebra) -> "State":
        n = algebra.total_dim
        return cls(algebra, [np.eye(d, dtype=complex) / n for d in algebra.dims])

    def expect(self, x: AlgebraElement) -> complex:
        if x.algebra.dims != self.algebra.dims:
            raise ShapeMismatchError("element and state belong to different algebras")
        return complex(self.algebra.block_sum(
            [np.trace(r @ a, axis1=-2, axis2=-1) for r, a in zip(self.rho.stacks, x.stacks)]
        ))

    def total_trace(self) -> float:
        return float(self.rho.trace().real)

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
    require_finite(phi.rho, "state")
    min_eig = min(float(np.linalg.eigvalsh(r).min()) for r in phi.rho.stacks)
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
    ``_valid_at`` is as for a State.
    """

    __slots__ = ("algebra", "elements", "hermitization_residual", "_valid_at")

    def __init__(self, algebra: BlockAlgebra, elements):
        elements = [e if isinstance(e, AlgebraElement) else algebra.element(e) for e in elements]
        if not elements:
            raise ValidationError("a POVM needs at least one output")
        if any(e.algebra.dims != algebra.dims for e in elements):
            raise ShapeMismatchError("POVM element does not match the algebra")
        fixed = [e.hermitized() for e in elements]
        self.algebra, self._valid_at = algebra, None
        self.elements = tuple(h for h, _ in fixed)
        self.hermitization_residual = max(0.0, *(r for _, r in fixed))

    @property
    def n(self) -> int:
        return len(self.elements)

    def sum_residual(self) -> float:
        """Largest entry of |sum_i a_i - 1| over all blocks."""
        excess = element_sum(self.elements) - self.algebra.identity()
        return max(float(np.abs(s).max()) for s in excess.stacks)

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
        require_finite(e, f"POVM element {i}")
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


def split_at_gaps(w: np.ndarray, gap: float) -> np.ndarray:
    """Integer run labels of eigenvalues w, descending along the last axis,
    for any leading shape: label 0 from the first, and a new run wherever
    w[..., j - 1] - w[..., j] exceeds gap.  Each caller sets its own gap."""
    new = np.cumsum(w[..., :-1] - w[..., 1:] > gap, axis=-1)
    return np.concatenate([np.zeros_like(new, shape=w.shape[:-1] + (1,)), new], axis=-1)


def spectral_clusters(
    alg: BlockAlgebra, eigs: Sequence[tuple[np.ndarray, np.ndarray]], cluster_tol: float
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per block size, the stacked eigenpairs that hermitian_eigh returns in
    descending order, (w, v) with v's columns alongside, and their (count, d)
    cluster labels.

    A new cluster starts whenever the gap to the previous eigenvalue exceeds
    cluster_tol; a cluster's value is the mean of its eigenvalues and its
    basis the orthonormal eigenvector columns that carry its label.
    """
    if [v.shape for _, v in eigs] != alg.shapes:
        raise ShapeMismatchError(f"eigenpairs do not fit {alg}: {[v.shape for _, v in eigs]}")
    return [(w[:, ::-1], v[..., ::-1], split_at_gaps(w[:, ::-1], cluster_tol)) for w, v in eigs]


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
        """Per sub-block, w^H x_k w traced over the multiplicity index."""
        out = []
        for s in range(self.sub.num_blocks):
            k, w, d, m = self._columns(s)
            out.append((w.conj().T @ mats[k] @ w).reshape(d, m, d, m).trace(axis1=1, axis2=3))
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
            if m > 1:  # kron(y, 1) is y; kept, as one broadcast for every m ran repair 9% slower
                block = np.kron(block, np.eye(m))
            mats[k] += w @ block @ w.conj().T
        return AlgebraElement(self.ambient, mats)

    def restrict(self, phi: State, elements: Sequence[AlgebraElement]) -> tuple[State, Povm]:
        """The state and the POVM (a_i) carried into sub coordinates."""
        return self.compress_state(phi), Povm(self.sub, [self.compress(e) for e in elements])

    def embed_pvm(self, pvm: Pvm) -> Pvm:
        """A PVM of the sub-algebra as a PVM of the ambient algebra."""
        return Pvm(self.ambient, [self.embed(p) for p in pvm.elements])
