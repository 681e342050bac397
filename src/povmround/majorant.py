"""Minimal trace majorant of a family of positive functionals, with duals.

The primal problem is min Tr(z) over Hermitian z with z >= a_i for every
functional matrix a_i; its dual is max sum_i Tr(a_i t_i) over POVMs (t_i).
Both optima coincide and every optimal pair satisfies the slackness
relations t_i (z - a_i) = 0 and z = sum_i t_i a_i.

The solver follows the log-det barrier central path: minimize
Tr(z) - mu * sum_i log det(z - a_i) by damped Newton steps per central
block, with the dual iterate t_i = mu * (z - a_i)^{-1}.  At a Newton
stationary point sum_i t_i = 1 and z - sum_i t_i a_i = n * mu * 1 hold
identically, so n * mu * dim certifies the duality gap, and mu is shrunk
by MU_SHRINK per stage until that certificate meets gap_tol.  Each stage
centres every block to gradient norm NEWTON_TOL.

The Newton system of a block of size d is mu * sum_i W_i S W_i = -G with
W_i = (z - a_i)^{-1} and G the barrier gradient.  Up to DENSE_STEP_MAX_DIM
it is solved exactly, as the dense d^2 x d^2 matrix mu * sum_i
kron(W_i, W_i^T); that solve costs O(d^6).  Above it, preconditioned
conjugate gradients give an inexact step (Eisenstat and Walker 1996) at
2n products of d x d matrices per iteration, and no d^2 x d^2 array is
formed.  Either way the certificate is recomputed from (z, t) alone, so an
inexact step cannot pass silently.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .algebra import (
    AlgebraElement,
    BlockAlgebra,
    BoundCheck,
    PreconditionError,
    SolverError,
    Tolerances,
    DEFAULT_TOL,
    ValidationError,
    check_geq,
    check_leq,
    element_sum,
    hermitian_part,
    require_finite,
)

# Thresholds of the certified optimality bounds, relative to FunctionalFamily.scale();
# the gap's upper end is the run's gap_tol.
EXACT_TOL = 1e-9             # -lambda_min(z - a_i), -lambda_min(t_i), -gap, |stored - recomputed|
POVM_SUM_TOL = 1e-8          # ||sum_i t_i - 1||_F
SLACKNESS_TOL = 1e-4         # max_i ||t_i (z - a_i)||_F and ||z - sum_i t_i a_i||_F

# Largest block size that takes the exact dense Newton step: the crossover
# of the two steps.  Per job at n = 3 (one BLAS thread, 2-vCPU VM), dense
# against CG: 10.9 / 29.4 ms at d = 4, 30.4 / 50.5 ms at d = 10,
# 44.5 / 38.7 ms at d = 11 and 100.9 / 56.0 ms at d = 14.
DENSE_STEP_MAX_DIM = 10


@dataclass
class FunctionalFamily:
    """Positive functionals phi_i(x) = sum_k Tr((a_i)_k x_k), one PSD matrix each."""

    elements: list[AlgebraElement]

    def __post_init__(self):
        if not self.elements:
            raise PreconditionError("functional family must be nonempty")
        dims = self.elements[0].algebra.dims
        for e in self.elements:
            if e.algebra.dims != dims:
                raise PreconditionError("functionals belong to different algebras")

    @property
    def n(self) -> int:
        return len(self.elements)

    @property
    def algebra(self) -> BlockAlgebra:
        return self.elements[0].algebra

    def scale(self) -> float:
        return max(1.0, sum(e.trace().real for e in self.elements))

    def validate(self, tol: Tolerances = DEFAULT_TOL) -> float:
        """Raise ValidationError unless each a_i is finite, Hermitian and PSD;
        return the top eigenvalue."""
        top = -np.inf
        for i, e in enumerate(self.elements):
            require_finite(e.blocks, f"functional {i}")
            if e.skew_norm() > tol.cert_tol * max(1.0, e.norm_fro()):
                raise ValidationError(f"functional {i} is not Hermitian")
            eigs = e.eigvals()
            low = min(float(w.min()) for w in eigs)
            radius = max(float(np.abs(w).max()) for w in eigs)
            if low < -tol.psd_tol * max(1.0, radius):
                raise ValidationError(
                    f"functional {i} is not positive (min eigenvalue {low:.3e})"
                )
            top = max(top, max(float(w.max()) for w in eigs))
        return top


@dataclass
class MajorantResiduals:
    feasibility: float      # min_i lambda_min(z - a_i)
    dual_positivity: float  # min_i lambda_min(t_i)
    povm_sum: float         # ||sum_i t_i - 1||_F
    slackness: float        # max_i ||t_i (z - a_i)||_F
    reconstruction: float   # ||z - sum_i t_i a_i||_F


@dataclass
class MajorantSolution:
    majorant: AlgebraElement
    dual_povm: list[AlgebraElement]
    primal: float
    dual: float
    gap: float
    mu_final: float
    newton_iterations: int
    residuals: MajorantResiduals

    def checks(self, f: FunctionalFamily, tol: Tolerances = DEFAULT_TOL) -> list[BoundCheck]:
        """The certified optimality bounds of this solution for the family f."""
        scale = f.scale()
        res = self.residuals
        gap_bound = tol.gap_tol * scale
        return [
            check_geq("feasibility", res.feasibility, -EXACT_TOL * scale),
            check_geq("dual_positivity", res.dual_positivity, -EXACT_TOL * scale),
            check_leq("povm_sum", res.povm_sum, POVM_SUM_TOL * scale),
            BoundCheck("gap", self.gap, gap_bound, -EXACT_TOL * scale <= self.gap <= gap_bound),
            check_leq("slackness", res.slackness, SLACKNESS_TOL * scale),
            check_leq("reconstruction", res.reconstruction, SLACKNESS_TOL * scale),
        ]

    def claims(self) -> dict:
        """The objective values and residuals a report states, in its layout."""
        res = self.residuals
        return {
            "primal": self.primal,
            "dual": self.dual,
            "gap": self.gap,
            "residuals": {
                "feasibility": res.feasibility,
                "povm_sum": res.povm_sum,
                "slackness": res.slackness,
                "reconstruction": res.reconstruction,
            },
        }

    def claim_checks(self, stored: dict, f: FunctionalFamily) -> list[BoundCheck]:
        """Each value of ``claims()`` as ``stored`` (a report's result) states it,
        against this solution's own: |stored - value| <= EXACT_TOL * f.scale().
        A stored claim that is missing or not a number is a ValidationError."""
        own = self.claims()
        res = stored.get("residuals") if isinstance(stored.get("residuals"), dict) else {}
        pairs = [(key, own[key], stored.get(key)) for key in ("primal", "dual", "gap")]
        pairs += [(key, value, res.get(key)) for key, value in own["residuals"].items()]
        checks = []
        for key, value, claim in pairs:
            try:
                if isinstance(claim, bool) or not isinstance(claim, (int, float)):
                    raise TypeError(claim)
                claim = float(claim)  # a JSON integer too large for a float overflows here
            except (TypeError, OverflowError):
                raise ValidationError(f"report claim {key!r} is missing or not a number") from None
            checks.append(check_leq(f"stored_{key}", abs(claim - value), EXACT_TOL * f.scale()))
        return checks


def majorant_certificate(
    f: FunctionalFamily, z: AlgebraElement, duals: list[AlgebraElement]
) -> MajorantSolution:
    """Objective values and residuals of a candidate pair (z, t), computed from
    the pair alone, so no solver state can leak into its certificate."""
    primal = z.trace().real
    dual_value = sum((a @ t).trace().real for a, t in zip(f.elements, duals))
    residuals = MajorantResiduals(
        feasibility=min(float(w.min()) for e in f.elements for w in (z - e).eigvals()),
        dual_positivity=min(float(w.min()) for t in duals for w in t.eigvals()),
        povm_sum=(element_sum(duals) - z.algebra.identity()).norm_fro(),
        slackness=max((t @ (z - a)).norm_fro() for t, a in zip(duals, f.elements)),
        reconstruction=(z - element_sum([t @ a for t, a in zip(duals, f.elements)])).norm_fro(),
    )
    return MajorantSolution(
        majorant=z,
        dual_povm=duals,
        primal=primal,
        dual=dual_value,
        gap=primal - dual_value,
        mu_final=0.0,
        newton_iterations=0,
        residuals=residuals,
    )


def _barrier(z, fam, mu):
    """Tr(z) - mu * sum_i log det(z - a_i) for the (n, d, d) stack fam, by one
    stacked Cholesky factorisation; raises LinAlgError when not interior."""
    c = np.linalg.cholesky(hermitian_part(z - fam))
    logdets = 2.0 * np.sum(np.log(np.real(np.diagonal(c, axis1=-2, axis2=-1))), axis=-1)
    # Python's left-to-right sum: numpy's pairwise sum would reorder n >= 8 terms.
    return float(np.trace(z).real) - mu * float(sum(logdets))


def _assemble_hessian(inverses, mu, out, term):
    """Write mu * sum_i kron(w_i, w_i^T) into out, with term as scratch; both
    are (d^2, d^2).  Each term is np.kron's own product, summed in the same
    order, so the result is bitwise that of the allocating expression."""
    d = inverses[0].shape[0]
    first, *rest = inverses
    np.multiply(first[:, None, :, None], first.T[None, :, None, :], out=out.reshape(d, d, d, d))
    for w in rest:
        np.multiply(w[:, None, :, None], w.T[None, :, None, :], out=term.reshape(d, d, d, d))
        out += term
    out *= mu
    return out


def _cg_step(inverses, grad, mu):
    """Inexact Newton step: preconditioned conjugate gradients on
    mu * sum_i W_i S W_i = -grad, stopped at relative residual
    min(0.1, ||grad||) or after d^2 iterations, the exact-arithmetic bound.
    The preconditioner is S -> Wbar^{-1} S Wbar^{-1} / (mu * n), the inverse
    of the operator with every W_i replaced by their mean Wbar."""
    n, d, _ = inverses.shape
    wbar_inv = np.linalg.inv(hermitian_part(np.mean(inverses, axis=0)))
    scale = 1.0 / (mu * n)

    def precondition(r):
        return scale * (wbar_inv @ r @ wbar_inv)

    gnorm = np.linalg.norm(grad)
    target = min(0.1, gnorm) * gnorm
    step = np.zeros_like(grad)
    residual = -grad
    y = precondition(residual)
    direction = y
    ry = np.vdot(residual, y).real
    for _ in range(d * d):
        h = mu * np.sum(inverses @ direction @ inverses, axis=0)
        alpha = ry / np.vdot(direction, h).real
        step += alpha * direction
        residual -= alpha * h
        if np.linalg.norm(residual) <= target:
            break
        y = precondition(residual)
        ry, ry_prev = np.vdot(residual, y).real, ry
        direction = y + (ry / ry_prev) * direction
    return step


# Centering ends at gradient norm NEWTON_TOL, or fails after MAX_NEWTON_STEPS steps.
NEWTON_TOL = 1e-7
MAX_NEWTON_STEPS = 200


def _newton_center(z_blocks, fam_blocks, mu):
    """Damped Newton minimization of the barrier at fixed mu, per block; each
    fam_blocks[k] is the (n, d, d) stack of the functionals' k-th blocks."""
    iters = 0
    for k, z in enumerate(z_blocks):
        fam = fam_blocks[k]
        d = z.shape[0]
        eye = np.eye(d)
        dense = d <= DENSE_STEP_MAX_DIM
        # Hessian and scratch buffers, reused by every dense Newton step of the block.
        if dense:
            hess = np.empty((d * d, d * d), dtype=complex)
            term = np.empty_like(hess)
        current = _barrier(z, fam, mu)
        for _ in range(MAX_NEWTON_STEPS):
            inverses = np.linalg.inv(hermitian_part(z - fam))
            grad = eye - mu * np.sum(inverses, axis=0)
            if np.linalg.norm(grad) <= NEWTON_TOL:
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
                    value = _barrier(cand, fam, mu)
                except np.linalg.LinAlgError:
                    t *= 0.5
                    continue
                if value <= current + 1e-12 * max(1.0, abs(current)):
                    z, current = cand, value
                    break
                t *= 0.5
            else:
                raise SolverError(
                    f"line search stalled in block {k} at mu={mu:.3e}, "
                    f"gradient norm {np.linalg.norm(grad):.3e}"
                )
            iters += 1
        else:
            raise SolverError(
                f"Newton did not reach tolerance in block {k} at mu={mu:.3e}, "
                f"gradient norm {np.linalg.norm(grad):.3e}"
            )
        z_blocks[k] = z
    return z_blocks, iters


# mu shrinks by MU_SHRINK per stage, for at most MAX_STAGES stages.
MU_SHRINK = 0.25
MAX_STAGES = 200


def minimal_majorant(
    alg: BlockAlgebra, f: FunctionalFamily, tol: Tolerances = DEFAULT_TOL
) -> MajorantSolution:
    """Solve min Tr(z), z >= a_i for all i, with dual POVM and certificates."""
    if f.algebra.dims != alg.dims:
        raise PreconditionError("functional family does not match the algebra")
    top = f.validate(tol)
    n = f.n
    dim = alg.total_dim
    scale = f.scale()
    gap_target = tol.gap_tol * scale

    fam_blocks = [np.stack([e.blocks[k] for e in f.elements]) for k in range(alg.num_blocks)]
    z_blocks = [(top + 1.0) * np.eye(d, dtype=complex) for d in alg.dims]

    # Land just inside the certified-gap target: shrinking mu further only
    # makes the nearly-active blocks of z - a_i more singular for no benefit.
    mu_target = 0.5 * gap_target / (n * dim)
    mu = max(top + 1.0, mu_target)
    total_iters = 0
    for _ in range(MAX_STAGES):
        z_blocks, it = _newton_center(z_blocks, fam_blocks, mu)
        total_iters += it
        if mu <= mu_target:
            break
        mu = max(mu * MU_SHRINK, mu_target)
    else:
        raise SolverError(f"barrier loop ran {MAX_STAGES} stages without reaching gap_tol")

    z = AlgebraElement(alg, z_blocks)
    stacks = [
        hermitian_part(mu * np.linalg.inv(hermitian_part(zk - fam)))
        for zk, fam in zip(z_blocks, fam_blocks)
    ]
    raw_duals = [AlgebraElement(alg, [t[i] for t in stacks]) for i in range(n)]

    # Restore exact dual feasibility: spread the stationarity residual evenly.
    residual = alg.identity() - element_sum(raw_duals)
    duals = [t + (1.0 / n) * residual for t in raw_duals]
    return replace(majorant_certificate(f, z, duals), mu_final=mu, newton_iterations=total_iters)


def verify_majorant_certificate(
    alg: BlockAlgebra,
    f: FunctionalFamily,
    sol: MajorantSolution,
    tol: Tolerances = DEFAULT_TOL,
) -> list[BoundCheck]:
    """Recompute every optimality certificate of a solution from its z and t alone."""
    if sol.majorant.algebra.dims != alg.dims:
        raise PreconditionError("solution does not match the algebra")
    return majorant_certificate(f, sol.majorant, sol.dual_povm).checks(f, tol)

