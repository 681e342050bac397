"""Rounding an almost-orthogonal POVM to an exact PVM with certified error.

Given a POVM (a_i) and a state phi with small orthogonality defect
eps0 = 1 - phi(sum_i a_i^2), the rounding proceeds in two stages:

1. ``select_projections``: pick projections q_i commuting with a_i whose
   blockwise ranks sum to the block dimension and which carry almost all of
   the state mass, phi(sum_i q_i a_i) >= 1 - eps0.  This is a decoupled
   linear program over eigenspace items, solved exactly by a greedy top-d
   selection per central block.  The items come from one eigendecomposition
   of each a_i, which the next step reuses for a_i^(1/2).

2. ``complete_polar``: the selection picks eigenvectors V_ki spanning each
   q_i, r_ki of them with sum_i r_ki = d_k, so in those vectors the block
   column x with rows q_i a_i^(1/2) is the square map y with rows
   V_ki^H a_i^(1/2).  Its unitary polar factor w satisfies y = w |y| with
   |y| = |x|, and with w_i the r_ki rows of w that belong to output i the
   rounded projections are p_i = w_i^H w_i, which sum to the identity by
   construction.

The output PVM satisfies sum_i phi(|a_i - p_i|^2) <= 9 * eps0, and the
report carries the residuals that certify each step of that bound.

``orthogonalize_symmetry_preserving`` first decomposes the algebra generated
by the POVM, runs the rounding inside it, and embeds the result back, so the
output commutes with every operator that commutes with all inputs.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import (
    AlgebraElement,
    BlockAlgebra,
    BoundCheck,
    Povm,
    PreconditionError,
    Pvm,
    SolverError,
    State,
    SubAlgebra,
    Tolerances,
    DEFAULT_TOL,
    check_geq,
    check_leq,
    dagger,
    defect,
    frobenius_norms,
    hermitian_eigh,
    hermitian_part,
    hermitian_sqrt,
    idempotency_residual,
    max_commutator,
    phi_distance_sq,
    require_valid,
    spectral_clusters,
    split_at_gaps,
    validate_povm,
    validate_state,
)

_GENERIC_SEED = 0x5EED
# Fresh generic draws tried before the block decomposition gives up; every
# decomposition in the tests and the benchmark succeeds on the first draw.
DECOMPOSE_ATTEMPTS = 8
# A draw is accepted when its compress/embed round trip moves no generator by
# more than DECOMPOSE_RESIDUAL_TOL * max(1, largest spectral radius).
DECOMPOSE_RESIDUAL_TOL = 1e-8
# Relative eigenvalue gap at which the null-space solve splits the spectrum of
# its generic combination.  Eigenvalues closer than this share a run and only
# add unknowns; runs this far apart keep eigenvector errors near 1e-12.
_NULL_SPLIT_GAP = 1e-4
# Absolute eigenvalue gap at which the unit-norm Hermitian part of the
# generic commutant element splits into irreducible pieces.
_PIECE_SPLIT_GAP = 1e-7
# Relative size, against the generic element, below which the block it has
# between two pieces counts as zero: the pieces are then inequivalent.
_HOM_CUTOFF = 1e-8

# Thresholds of the certified rounding bounds (repair reuses BOUND_SLACK).
BOUND_SLACK = 1e-7           # additive slack on the 9x and 10x error bounds
SELECTION_SLACK = 1e-9       # slack on the selection value lower bound
COMMUTATION_TOL = 1e-6       # [q_i, a_i] residual
IDEMPOTENCY_TOL = 1e-9       # output PVM idempotency
SUM_TOL = 1e-9               # output PVM sum-to-identity residual
SYMMETRY_TOL = 1e-8          # [commutant basis, p_i] residual


@dataclass
class SelectionResult:
    """Commuting projections q_i with blockwise ranks summing to d_k."""

    projections: list[AlgebraElement]  # q_i, with blocks bases[k][i] bases[k][i]^H
    bases: list[list[np.ndarray]]  # bases[k][i]: d_k x r_ki orthonormal columns spanning q_i
    vectors: AlgebraElement      # block k: bases[k][0], bases[k][1], ... side by side; bases views it
    eigenpairs: list[list[tuple[np.ndarray, np.ndarray]]]  # eigenpairs[i]: hermitian_eigh(a_i)
    value: float                 # phi(sum_i q_i a_i), evaluated exactly
    lp_value: float              # optimum of the selection linear program
    ranks: list[list[int]]       # ranks[k][i] = rank of q_i in block k
    commutation_residual: float  # max_i ||[q_i, a_i]||_F


@dataclass
class OrthCertificates:
    pvm_idempotency: float
    pvm_sum_residual: float
    midpoint_residual: float      # max_i || |x| p_i |x| - q_i a_i ||_F
    polar_residual: float         # max block || y - w |y| ||_F of the square map
    sqrt_clip: float              # largest eigenvalue clip applied before sqrt
    term_unselected: float        # sum_i phi((1 - q_i) a_i^2)
    term_modulus: float           # phi((1 - |x|)^2)
    term_selected_nonproj: float  # sum_i phi(q_i (a_i - a_i^2))


@dataclass
class OrthReport:
    defect: float
    pvm: Pvm
    error: float                  # sum_i phi(|a_i - p_i|^2)
    ratio: float                  # error / defect, inf-safe
    selection: SelectionResult
    certificates: OrthCertificates

    def checks(self, prefix: str = "") -> list[BoundCheck]:
        """The certified bounds of this rounding, names prefixed by ``prefix``.

        The output is exactly Hermitian, and ||p^2 - p||_F bounds each
        eigenvalue's distance below 0 or above 1, so the stored idempotency
        and sum residuals are the whole PVM gate."""
        rank_defects = sum(
            abs(sum(row) - d) for row, d in zip(self.selection.ranks, self.pvm.algebra.dims)
        )
        certs = self.certificates
        return [
            nine_defect_check(self, prefix + "error_vs_9defect"),
            check_geq(
                prefix + "selection_value",
                self.selection.value,
                1.0 - self.defect - SELECTION_SLACK,
            ),
            check_leq(prefix + "rank_sum_defect", rank_defects, 0.0),
            check_leq(
                prefix + "selection_commutation", self.selection.commutation_residual, COMMUTATION_TOL
            ),
            check_leq(prefix + "pvm_idempotency", certs.pvm_idempotency, IDEMPOTENCY_TOL),
            check_leq(prefix + "pvm_sum_residual", certs.pvm_sum_residual, SUM_TOL),
            check_leq(prefix + "midpoint_identity", certs.midpoint_residual, BOUND_SLACK),
            check_geq(
                prefix + "converse_bound",
                (1.0 - self.defect) - (1.0 - math.sqrt(max(self.error, 0.0))) ** 2,
                -BOUND_SLACK,
            ),
        ]


def nine_defect_check(report, name: str = "error_vs_9defect") -> BoundCheck:
    """The main bound of a rounding report: error <= 9 * defect."""
    return check_leq(name, report.error, 9.0 * report.defect + BOUND_SLACK)


def _safe_ratio(error: float, eps0: float) -> float:
    if eps0 > 0.0:
        return error / eps0
    return 0.0 if error <= 0.0 else math.inf


# The selection clusters each POVM element's eigenvalues at the absolute gap
# CLUSTER_TOL, and clips a score below -SCORE_CLIP_TOL to 0 with a warning.
CLUSTER_TOL = 1e-8
SCORE_CLIP_TOL = 1e-9


def _require_inputs(alg: BlockAlgebra, phi: State, a: Povm, tol: Tolerances) -> None:
    """Validate the inputs, unless a solver built them from inputs it
    validated at tol (``_valid_at``)."""
    if phi._valid_at != tol:
        require_valid(validate_state(alg, phi, tol), "input is not a valid state")
    if a._valid_at != tol:
        require_valid(validate_povm(alg, a, tol), "input is not a valid POVM")


def _range_projections(alg: BlockAlgebra, bases: Sequence[np.ndarray]) -> AlgebraElement:
    """The element with blocks v_k v_k^H, one product per block size and rank r_k."""
    stacks = [np.empty(shape, dtype=complex) for shape in alg.shapes]
    for q, ks in zip(stacks, alg.members):
        ranks = np.array([bases[k].shape[1] for k in ks])
        for r in set(ranks.tolist()):
            at = np.flatnonzero(ranks == r)
            v = np.stack([bases[ks[c]] for c in at])
            q[at] = v @ dagger(v)
    return AlgebraElement.from_stacks(alg, stacks)


def select_projections(
    alg: BlockAlgebra, phi: State, a: Povm, tol: Tolerances = DEFAULT_TOL
) -> SelectionResult:
    """Maximize phi(sum_i x_i a_i) over 0 <= x_i <= 1 commuting with a_i,
    subject to the blockwise trace constraint sum_i Tr(x_i) = d_k.

    The feasible set decouples per central block into eigenspace items with
    scores lambda * (w^H rho w), capped at mass 1 each, with total mass d_k.
    The greedy top-d_k selection is therefore the exact optimum, and since
    the tuple (a_1, ..., a_n) itself is feasible, the optimum is at least
    phi(sum_i a_i^2) = 1 - defect.
    """
    _require_inputs(alg, phi, a, tol)

    # Per block size, one (count, n, d) array of items: for output i and
    # descending position p, eigenvector p of a_i, scored lambda v^H rho v.
    # The vectors of a cluster (lambda, B) of multiplicity m > 1 are turned to
    # the eigenvectors of lambda B^H rho B, scored by its eigenvalues, with
    # one eigh per (output, m).
    eigenpairs = [hermitian_eigh(e) for e in a.elements]
    clusters = [spectral_clusters(alg, eigs, CLUSTER_TOL) for eigs in eigenpairs]
    vector_stacks, rank_stacks, picked, clipped = [], [], [], []
    for g, (d, ks, rho) in enumerate(zip(alg.sizes, alg.members, phi.rho.stacks)):
        scores = np.stack([  # descending, as the clusters
            (w * np.sum((dagger(v) @ rho) * v.swapaxes(-1, -2), axis=-1).real)[:, ::-1]
            for w, v in (eigs[g] for eigs in eigenpairs)
        ], axis=1)
        rows = np.stack([v.swapaxes(-1, -2) for _, v, _ in (c[g] for c in clusters)], axis=1)
        blocks = np.arange(len(ks))[:, None]
        for i, (w, _, labels) in enumerate(c[g] for c in clusters):
            flat = (labels + d * blocks).ravel()  # nondecreasing: one label per cluster
            sizes = np.bincount(flat)
            for m in set(sizes[sizes > 1].tolist()):
                b, first = np.divmod(np.searchsorted(flat, np.flatnonzero(sizes == m)), d)
                at = (b[:, None], i, first[:, None] + np.arange(m))
                basis = rows[at].swapaxes(-1, -2)
                lam = w[at[0], at[2]].mean(axis=-1)[:, None, None]
                sw, sv = np.linalg.eigh(hermitian_part(lam * (dagger(basis) @ rho[b] @ basis)))
                scores[at], rows[at] = sw[:, ::-1], (basis @ sv[..., ::-1]).swapaxes(-1, -2)
        low = scores < -SCORE_CLIP_TOL
        clipped += [(ks[b], i, p, float(scores[b, i, p])) for b, i, p in zip(*np.nonzero(low))]
        scores[low] = 0.0

        # Items lie by output, then by descending cluster value, then by index
        # in the cluster, so a stable sort on descending score orders them by
        # (-score, output, -lambda, index): the top d of each block are picked.
        scores = scores.reshape(len(ks), -1)
        top = np.argsort(-scores, axis=-1, kind="stable")[:, :d]
        picked.append(scores[blocks, top])
        rank_stacks.append(np.sum(top[..., None] // d == np.arange(a.n), axis=1))
        # Grouped by output; the sort is stable, so in pick order within one.
        top = top[blocks, np.argsort(top // d, axis=-1, kind="stable")]
        vector_stacks.append(rows.reshape(len(ks), -1, d)[blocks, top].swapaxes(-1, -2))
    for k, i, _, s in sorted(clipped):  # one warning per clipped item, in block order
        warnings.warn(f"selection score {s:.3e} below -{SCORE_CLIP_TOL:g} clipped to 0 "
                      f"(block {k}, output {i})", RuntimeWarning)

    vectors = AlgebraElement.from_stacks(alg, vector_stacks)
    ranks = alg.per_block([r.tolist() for r in rank_stacks])
    lp_value = sum(itertools.chain.from_iterable(alg.per_block([s.tolist() for s in picked])))
    bases = [[u[:, e - r : e] for r, e in zip(row, itertools.accumulate(row))]
             for u, row in zip(vectors.blocks, ranks)]
    projections = [_range_projections(alg, [row[i] for row in bases]) for i in range(a.n)]
    value = sum(phi.expect(q @ e).real for q, e in zip(projections, a.elements))
    comm = max((q.commutator(e)).norm_fro() for q, e in zip(projections, a.elements))
    return SelectionResult(projections, bases, vectors, eigenpairs, value, lp_value, ranks, comm)


def complete_polar(maps: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Unitary polar factor of each square map, or of each map of a stack.

    ``maps[g]`` is a d x d matrix y, or a (count, d, d) stack of them (one
    batched SVD); the returned w = U V^H from the SVD y = U S V^H is unitary
    and satisfies y = w |y| exactly, with no rank cutoff: w stays unitary
    when y is singular (Higham 1986).
    """
    factors = []
    for g, y in enumerate(maps):
        y = np.asarray(y, dtype=complex)
        if y.ndim < 2 or y.shape[-2] != y.shape[-1]:
            raise PreconditionError(f"entry {g}: map has shape {y.shape}, expected square matrices")
        w, _, vh = np.linalg.svd(y)
        factors.append(w @ vh)
    return factors


def orthogonalize(
    alg: BlockAlgebra, phi: State, a: Povm, tol: Tolerances = DEFAULT_TOL
) -> OrthReport:
    """Round a POVM to the certified nearby PVM.

    In the selected eigenvectors V_ki the column map with rows q_i a_i^(1/2)
    is the square map y_k with rows V_ki^H a_i^(1/2).  With w its unitary
    polar factor and w_i the r_ki rows of w that belong to output i, the
    output is p_i = w_i^H w_i.  The error satisfies
    sum_i phi(|a_i - p_i|^2) <= 9 * defect up to certificate tolerance.
    """
    eps0 = defect(phi, a)
    sel = select_projections(alg, phi, a, tol)

    roots, clips = zip(*(hermitian_sqrt(alg, eigs, 0.0, 1.0) for eigs in sel.eigenpairs))
    clip = max(clips)

    # Row r of the square map of a block is u_r^H a_i^(1/2), for the
    # selected column u_r and its output i.
    maps, owners = [], []
    for g, (d, ks) in enumerate(zip(alg.sizes, alg.members)):
        ends = np.cumsum([sel.ranks[k] for k in ks], axis=1)[:, None, :]
        owners.append(np.sum(np.arange(d)[:, None] >= ends, axis=-1))  # the output of each column
        rows = np.stack([dagger(sel.vectors.stacks[g]) @ r.stacks[g] for r in roots])
        maps.append(np.take_along_axis(rows, owners[g][None, :, :, None], axis=0)[0])
    w = complete_polar(maps)
    pvm = Pvm(alg, [  # p_i = w_i^H w_i, the rows of w of output i
        AlgebraElement.from_stacks(
            alg, [hermitian_part(dagger(x * (o == i)[..., None]) @ x) for x, o in zip(w, owners)]
        )
        for i in range(a.n)
    ])

    error = phi_distance_sq(phi, a.elements, pvm.elements)

    # Certificates of the construction identities and of the three bound terms.
    gram = AlgebraElement.from_stacks(alg, [dagger(y) @ y for y in maps])
    modulus, _ = hermitian_sqrt(alg, hermitian_eigh(gram))
    polar_residual = max(
        float(frobenius_norms(y - wk @ mod).max()) for y, wk, mod in zip(maps, w, modulus.stacks)
    )
    midpoint = max(
        float(frobenius_norms(s).max())
        for p, q, e in zip(pvm.elements, sel.projections, a.elements)
        for s in (modulus @ p @ modulus - q @ e).stacks
    )

    ident = alg.identity()
    one_minus_mod = ident - modulus
    term_unselected = sum(
        phi.expect((ident - q) @ e @ e).real
        for q, e in zip(sel.projections, a.elements)
    )
    term_modulus = phi.expect(one_minus_mod @ one_minus_mod).real
    term_selected = sum(
        phi.expect(q @ (e - e @ e)).real for q, e in zip(sel.projections, a.elements)
    )

    certs = OrthCertificates(
        pvm_idempotency=idempotency_residual(pvm.elements),
        pvm_sum_residual=pvm.sum_residual(),
        midpoint_residual=midpoint,
        polar_residual=polar_residual,
        sqrt_clip=clip,
        term_unselected=term_unselected,
        term_modulus=term_modulus,
        term_selected_nonproj=term_selected,
    )
    return OrthReport(eps0, pvm, error, _safe_ratio(error, eps0), sel, certs)


@dataclass
class GeneratedAlgebra(SubAlgebra):
    """The algebra generated by a Hermitian family, as a sub-algebra whose
    basis conjugates every generator into direct-sum form
    basis^H a basis = sum over sub-blocks of (compressed block) tensor 1_m."""

    commutant: list[AlgebraElement]     # orthonormal basis of the commutant of the family
    residual: float                     # max_i block-diagonalization residual


def _runs(v: np.ndarray, labels: np.ndarray) -> list[np.ndarray]:
    """The columns of v that share a run label, as one C-ordered copy per run."""
    return [u.copy() for u in np.split(v, np.flatnonzero(np.diff(labels)) + 1, axis=1)]


def _commutant_basis(family: list[np.ndarray], rank_tol: float) -> list[np.ndarray]:
    """Frobenius-orthonormal basis of {y : a y = y a for every Hermitian a in
    the family}, cut at singular values rank_tol * scale with
    scale = sqrt(sum_i (2 ||a_i||_2)^2), a bound on the norm of the stacked
    operator y -> (a_i y - y a_i)_i that does not depend on how many of its
    directions the restriction below keeps.

    Every such y also commutes with one seeded generic real combination
    g = sum_i c_i a_i, so in its eigenbasis y maps each eigenspace of g into
    itself.  The unknowns are therefore only the diagonal blocks of the
    eigenvalue runs, sum_j p_j^2 of them (d for a simple spectrum), and every
    constraint is imposed on those alone.  Runs split at relative gaps above
    _NULL_SPLIT_GAP; closer eigenvalues only add unknowns.
    """
    coeffs = np.random.default_rng(_GENERIC_SEED).standard_normal(len(family))
    w, v = np.linalg.eigh(hermitian_part(sum(c * f for c, f in zip(coeffs, family))))
    w, v = w[::-1], v[:, ::-1]
    runs = _runs(v, split_at_gaps(w, _NULL_SPLIT_GAP * float(np.abs(w).max())))

    # Column (r, s) of run u stacks a_i u_r u_s^H - u_r u_s^H a_i over i,
    # row-major, with u_r u_s^H a_i = u_r (a_i^H u_s)^H.
    stack = np.stack(family)
    stack_h = stack.conj().transpose(0, 2, 1)
    columns = []
    for u in runs:
        left = (stack @ u)[:, :, None, :, None] * u.conj()[None, None, :, None, :]
        right = u[None, :, None, :, None] * (stack_h @ u).conj()[:, None, :, None, :]
        columns.append((left - right).reshape(-1, u.shape[1] ** 2))
    _, s, vh = np.linalg.svd(np.hstack(columns), full_matrices=False)

    scale = math.sqrt(sum((2.0 * np.linalg.norm(a, 2)) ** 2 for a in family))
    # A null vector of the restricted operator holds the blocks x_j of
    # y = sum_j u_j x_j u_j^H, which keeps its Frobenius norm.
    splits = np.cumsum([u.shape[1] ** 2 for u in runs])[:-1]
    null = []
    for j in np.flatnonzero(s <= rank_tol * scale):
        pieces = np.split(vh[j].conj(), splits)
        null.append(sum(
            u @ x.reshape(u.shape[1], u.shape[1]) @ u.conj().T
            for u, x in zip(runs, pieces)
        ))
    return null


def _intertwiner(left: np.ndarray, generic: np.ndarray, right: np.ndarray, cut: float):
    """Unitary T with A_i T = T B_i, where A_i and B_i are the family
    compressed to the pieces spanned by ``left`` and ``right``, or None when
    the pieces are inequivalent.

    By Schur's lemma, left^H generic right for a generic commutant element is
    zero between inequivalent pieces and a nonzero multiple of the
    unique-up-to-phase unitary intertwiner between equivalent ones.  The phase
    makes the largest-magnitude entry of T real positive.
    """
    d = left.shape[1]
    if right.shape[1] != d:
        return None
    x = left.conj().T @ generic @ right
    gram = x.conj().T @ x
    scale = float(np.trace(gram).real) / d
    if math.sqrt(scale) <= cut:
        return None
    if np.linalg.norm(gram - scale * np.eye(d)) > 1e-7 * max(scale, 1.0):
        raise SolverError("intertwiner block is not a multiple of a unitary")
    t = x / math.sqrt(scale)
    ref = t.flat[int(np.argmax(np.abs(t)))]
    return t * (ref.conj() / abs(ref))


def decompose_generated_algebra(elements: Sequence[AlgebraElement]) -> GeneratedAlgebra:
    """Identify the algebra generated by a Hermitian family with a direct sum
    of full matrix blocks carrying multiplicities.

    Per ambient block, ``_commutant_basis`` finds the commutant of the family
    without forming a d^2 x d^2 operator.  One seeded generic commutant
    element y does the rest: the eigenspaces of its Hermitian part are the
    irreducible pieces, and the block of y between two pieces is zero when
    they are inequivalent and a multiple of the unitary intertwiner that
    aligns them when they are equivalent (``_intertwiner``).  A draw whose
    pieces do not account for the commutant (sum of m^2 over the sub-blocks)
    or do not reproduce the family is retried with a fresh seed, at most
    ``DECOMPOSE_ATTEMPTS`` times.
    """
    if not elements:
        raise PreconditionError("need at least one generating element")
    alg = elements[0].algebra
    herm = []
    for e in elements:
        if e.algebra.dims != alg.dims:
            raise PreconditionError("generators belong to different algebras")
        h, res = e.hermitized()
        if res > 1e-8 * max(1.0, e.norm_fro()):
            raise PreconditionError(f"generator is not Hermitian (residual {res:.3e})")
        herm.append(h)

    scale = max(1.0, max(h.spectral_radius() for h in herm))
    bound = DECOMPOSE_RESIDUAL_TOL * scale
    last_failure = ""
    for attempt in range(DECOMPOSE_ATTEMPTS):
        rng = np.random.default_rng(_GENERIC_SEED + attempt)
        try:
            result = _decompose_once(alg, herm, rng)
        except SolverError as exc:
            last_failure = str(exc)
            continue
        if result.residual <= bound:
            return result
        last_failure = f"residual {result.residual:.3e} above {bound:.3e}"
    raise SolverError(
        f"block decomposition failed after {DECOMPOSE_ATTEMPTS} attempts; last: {last_failure}"
    )


COMMUTANT_RANK_TOL = 1e-10  # relative singular-value cutoff of the commutant solve


def _decompose_once(alg, herm, rng) -> GeneratedAlgebra:
    sub_dims = []
    mults = []
    ambient_of = []
    offsets = []
    bases = []
    commutant_elements: list[AlgebraElement] = []

    for k, d in enumerate(alg.dims):
        family = [h.blocks[k] for h in herm]
        comm = _commutant_basis(family, COMMUTANT_RANK_TOL)
        for y in comm:
            blocks = [np.zeros((dd, dd), dtype=complex) for dd in alg.dims]
            nrm = np.linalg.norm(y)
            blocks[k] = y / (nrm if nrm > 0 else 1.0)
            commutant_elements.append(AlgebraElement(alg, blocks))

        coeffs = rng.standard_normal(len(comm)) + 1j * rng.standard_normal(len(comm))
        generic = sum(c * y for c, y in zip(coeffs, comm))
        g = hermitian_part(generic)
        gn = np.linalg.norm(g)
        if gn > 0:
            g = g / gn
        w, v = np.linalg.eigh(g)
        order = np.argsort(-w)
        w = w[order]
        v = v[:, order]

        spaces = _runs(v, split_at_gaps(w, _PIECE_SPLIT_GAP))

        # Group equivalent eigenspaces, aligning each to its group representative.
        cut = _HOM_CUTOFF * float(np.linalg.norm(generic))
        groups: list[list[int]] = []
        aligned: dict[int, np.ndarray] = {}
        for r, space in enumerate(spaces):
            for grp in groups:
                t = _intertwiner(spaces[grp[0]], generic, space, cut)
                if t is not None:
                    grp.append(r)
                    aligned[r] = space @ t.conj().T
                    break
            else:
                groups.append([r])
                aligned[r] = space
        # The commutant of the sum of M_dk (x) 1_m is the sum of M_m.
        count = sum(len(grp) ** 2 for grp in groups)
        if count != len(comm):
            raise SolverError(
                f"block {k}: pieces do not account for the commutant "
                f"({count} of {len(comm)} dimensions)"
            )

        # Deterministic group order: dominant ambient coordinate, then size.
        def support_key(grp):
            proj = sum(aligned[r] @ aligned[r].conj().T for r in grp)
            diagv = np.real(np.diagonal(proj))
            return (int(np.argmax(diagv)), -len(grp))

        groups.sort(key=support_key)

        w_cols = []
        offset = 0
        for grp in groups:
            dk = spaces[grp[0]].shape[1]
            m = len(grp)
            # Column alpha * m + u is column alpha of the group's u-th piece.
            w_cols.append(np.stack([aligned[r] for r in grp], axis=2).reshape(d, dk * m))
            sub_dims.append(dk)
            mults.append(m)
            ambient_of.append(k)
            offsets.append(offset)
            offset += dk * m
        bases.append(np.hstack(w_cols))

    sub = BlockAlgebra(tuple(sub_dims))
    result = GeneratedAlgebra(
        ambient=alg,
        sub=sub,
        multiplicities=tuple(mults),
        ambient_block=tuple(ambient_of),
        offsets=tuple(offsets),
        basis=bases,
        commutant=commutant_elements,
        residual=0.0,
    )
    residual = 0.0
    for h in herm:
        diff = result.embed(result.compress(h)) - h
        residual = max(residual, diff.norm_fro())
    result.residual = residual
    return result


@dataclass
class SymmetricOrthReport:
    """Rounding report that also certifies commutant preservation."""

    defect: float
    pvm: Pvm                       # ambient output
    error: float                   # ambient sum_i phi(|a_i - p_i|^2)
    ratio: float
    inner: OrthReport              # rounding inside the generated algebra
    decomposition: GeneratedAlgebra
    symmetry_residual: float       # max over commutant basis b of ||[b, p_i]||_F

    def checks(self) -> list[BoundCheck]:
        """The inner rounding's bounds, symmetry preservation, and the ambient 9x bound."""
        return self.inner.checks(prefix="inner_") + [
            check_leq("symmetry_residual", self.symmetry_residual, SYMMETRY_TOL),
            nine_defect_check(self),
        ]


def orthogonalize_symmetry_preserving(
    alg: BlockAlgebra, phi: State, a: Povm, tol: Tolerances = DEFAULT_TOL
) -> SymmetricOrthReport:
    """Round inside the algebra generated by the POVM, so that the output
    commutes with everything commuting with all inputs."""
    _require_inputs(alg, phi, a, tol)
    decomp = decompose_generated_algebra(list(a.elements))
    inner_phi, inner_a = decomp.restrict(phi, a.elements)
    inner_phi._valid_at = inner_a._valid_at = tol  # restrictions of validated inputs
    inner = orthogonalize(decomp.sub, inner_phi, inner_a, tol)
    pvm = decomp.embed_pvm(inner.pvm)

    eps0 = defect(phi, a)
    error = phi_distance_sq(phi, a.elements, pvm.elements)
    symmetry = max_commutator(decomp.commutant, pvm.elements)
    return SymmetricOrthReport(
        eps0, pvm, error, _safe_ratio(error, eps0), inner, decomp, symmetry
    )
