"""Minimal trace majorant of a family of positive functionals, with duals.

The primal problem is min Tr(z) over Hermitian z with z >= a_i for every
functional matrix a_i; its dual is max sum_i Tr(a_i t_i) over POVMs (t_i).
Both optima coincide and every optimal pair satisfies the slackness
relations t_i (z - a_i) = 0 and z = sum_i t_i a_i.

The solver follows the log-det barrier central path: minimize
Tr(z) - mu * sum_i log det(z - a_i) by damped Newton steps, all blocks of
one size at once, with the dual iterate t_i = mu * (z - a_i)^{-1}.  At a
Newton stationary point sum_i t_i = 1 and z - sum_i t_i a_i = n * mu * 1
hold identically, so n * mu * dim certifies the duality gap, and mu is
shrunk by MU_SHRINK per stage until that certificate meets gap_tol.  Only
the final stage's (z, t) is read, so only it centres every block to gradient
norm NEWTON_TOL; each earlier stage stops at the loose PATH_TOL.

The Newton system of a block of size d is mu * sum_i W_i S W_i = -G with
W_i = (z - a_i)^{-1} and G the barrier gradient.  Up to DENSE_STEP_MAX_DIM
it is solved exactly, as the dense d^2 x d^2 matrix mu * sum_i kron(W_i,
W_i^T), one batched O(d^6) solve per size.  Above it, preconditioned
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
    frobenius_norms,
    hermitian_part,
    require_finite,
)

# Thresholds of the certified optimality bounds, relative to FunctionalFamily.scale();
# the gap's upper end is the run's gap_tol.
EXACT_TOL = 1e-9             # -lambda_min(z - a_i), -lambda_min(t_i), -gap, |stored - recomputed|
POVM_SUM_TOL = 1e-8          # ||sum_i t_i - 1||_F
SLACKNESS_TOL = 1e-4         # max_i ||t_i (z - a_i)||_F and ||z - sum_i t_i a_i||_F

# Largest block size that takes the exact dense Newton step: the crossover
# of the two steps.  Per job at n = 3 (one BLAS thread, 2-vCPU VM, median of
# 32 alternated runs over 8 seeds), dense against CG: 7.5 / 9.6 ms at d = 4,
# 27.2 / 26.0 ms at d = 9, 28.5 / 22.2 ms at d = 10, 46.2 / 27.3 ms at
# d = 11 and 104.3 / 41.6 ms at d = 14.
DENSE_STEP_MAX_DIM = 9


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
            require_finite(e, f"functional {i}")
            if e.skew_norm() > tol.cert_tol * max(1.0, e.norm_fro()):
                raise ValidationError(f"functional {i} is not Hermitian")
            w = np.concatenate([x.ravel() for x in e.eigvals()])
            low, radius = float(w.min()), float(np.abs(w).max())
            if low < -tol.psd_tol * max(1.0, radius):
                raise ValidationError(
                    f"functional {i} is not positive (min eigenvalue {low:.3e})"
                )
            top = max(top, float(w.max()))
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
    """Tr(z) - mu * sum_i log det(z - a_i) of one block z, fam its (n, d, d)
    functionals, or per block of a (count, d, d) stack z, fam (count, n, d, d),
    by one stacked Cholesky factorisation; inf where some z - a_i is not PD."""
    x = hermitian_part(z[..., None, :, :] - fam)
    try:
        c = np.linalg.cholesky(x)
    except np.linalg.LinAlgError:
        if z.ndim == 2 or len(z) == 1:
            return np.full(z.shape[:-2], np.inf)
        # One eigvalsh call finds the blocks that are not interior, and the rest are factored
        # again together; if it finds none, one at a time.  Kept: without this screen the
        # many-small-blocks majorant ran 5% slower (paired runs, 1/30 won).
        inside = np.linalg.eigvalsh(x).min(axis=(1, 2)) > 0
        if inside.all():
            return np.array([_barrier(zk, fk, mu) for zk, fk in zip(z, fam)])
        out = np.full(len(z), np.inf)
        if inside.any():
            out[inside] = _barrier(z[inside], fam[inside], mu)
        return out
    logdets = 2.0 * np.sum(np.log(np.real(np.diagonal(c, axis1=-2, axis2=-1))), axis=-1)
    # Summed left to right over i: numpy's pairwise sum would reorder n >= 8 terms.
    return np.trace(z, axis1=-2, axis2=-1).real - mu * np.add.accumulate(logdets, axis=-1)[..., -1]


def _assemble_hessian(inverses, mu, out, term):
    """Write mu * sum_i kron(w_i, w_i^T) into out, with term as scratch, for
    inverses of shape (..., n, d, d) and out, term of shape (..., d^2, d^2).
    Each term is np.kron's own product, summed in the same order, so the
    result is bitwise that of the allocating expression."""
    inverses = np.asarray(inverses)
    shape = out.shape[:-2] + inverses.shape[-1:] * 4
    for i, w in enumerate(np.moveaxis(inverses, -3, 0)):
        np.multiply(w[..., :, None, :, None], w.swapaxes(-1, -2)[..., None, :, None, :],
                    out=(term if i else out).reshape(shape))
        if i:
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


# Centering ends at gradient norm NEWTON_TOL at the final stage and PATH_TOL at
# every earlier one, whose iterate only starts the next (Boyd and Vandenberghe,
# Convex Optimization 11.3-11.5), or fails after MAX_NEWTON_STEPS steps.
NEWTON_TOL = 1e-7
PATH_TOL = 1e-2
MAX_NEWTON_STEPS = 200


def _stalled(what: str, k: int, mu: float, gnorm: float) -> SolverError:
    return SolverError(f"{what} in block {k} at mu={mu:.3e}, gradient norm {gnorm:.3e}")


def _center_block(z, fam, mu, k, stop):
    """_newton_center for block k alone, by CG steps: z is its (d, d) view in
    the stack, updated in place, fam its (n, d, d) functionals."""
    eye = np.eye(len(z))
    current = _barrier(z, fam, mu)
    for steps in range(MAX_NEWTON_STEPS):
        inverses = np.linalg.inv(hermitian_part(z - fam))
        grad = eye - mu * np.sum(inverses, axis=0)
        if np.linalg.norm(grad) <= stop:
            return steps
        step = hermitian_part(_cg_step(inverses, grad, mu))
        t = 1.0
        for _ in range(60):
            cand = z + t * step
            value = _barrier(cand, fam, mu)
            if value <= current + 1e-12 * max(1.0, abs(current)):
                z[...], current = cand, value
                break
            t *= 0.5
        else:
            raise _stalled("line search stalled", k, mu, np.linalg.norm(grad))
    raise _stalled("Newton did not reach tolerance", k, mu, np.linalg.norm(grad))


def _newton_center(z, fam, mu, blocks, stop):
    """Damped Newton minimization of the barrier at fixed mu, to gradient norm
    stop, for the blocks ``blocks`` of one size: z their (count, d, d) stack,
    updated in place, fam their (count, n, d, d) functionals.  Up to
    DENSE_STEP_MAX_DIM they step together, each with its own step length and
    stop; larger ones take CG steps one at a time (_center_block).  Returns
    the per-block step count."""
    d = z.shape[-1]
    if d > DENSE_STEP_MAX_DIM:  # kept: folded into the loop below, a d = 16 majorant ran 6% slower
        return sum(_center_block(zk, fk, mu, k, stop) for zk, fk, k in zip(z, fam, blocks))
    eye = np.eye(d)
    # Hessian and scratch buffers, reused by every Newton step.
    hess = np.empty((len(z), d * d, d * d), dtype=complex)
    term = np.empty_like(hess)
    slots = np.arange(len(z))  # the blocks still centering, and their stacks
    zs, fs = z, fam
    current = _barrier(zs, fs, mu)
    iters = 0
    for _ in range(MAX_NEWTON_STEPS):
        inverses = np.linalg.inv(hermitian_part(zs[:, None] - fs))
        grad = eye - mu * np.sum(inverses, axis=1)
        gnorm = frobenius_norms(grad)
        if min(gnorm.tolist()) <= stop:
            going = gnorm > stop
            z[slots] = zs
            slots, zs, fs, current, inverses, grad, gnorm = (
                x[going] for x in (slots, zs, fs, current, inverses, grad, gnorm)
            )
            if not len(slots):
                return iters
        m = len(slots)
        _assemble_hessian(inverses, mu, hess[:m], term[:m])
        step = hermitian_part(np.linalg.solve(hess[:m], -grad.reshape(m, -1, 1)).reshape(m, d, d))

        # Backtracking per block: the first of t = 1, 1/2, ... that does not raise the barrier.
        todo, t = np.arange(m), 1.0
        for _ in range(60):
            cand = zs[todo] + t * step[todo]
            value = _barrier(cand, fs[todo], mu)
            ok = value <= current[todo] + 1e-12 * np.maximum(1.0, np.abs(current[todo]))
            zs[todo[ok]], current[todo[ok]] = cand[ok], value[ok]
            todo = todo[~ok]
            if not len(todo):
                break
            t *= 0.5
        else:
            raise _stalled("line search stalled", blocks[slots[todo[0]]], mu, gnorm[todo[0]])
        iters += m
    raise _stalled("Newton did not reach tolerance", blocks[slots[0]], mu, gnorm[0])


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

    fam = [np.stack(s, axis=1) for s in zip(*(e.stacks for e in f.elements))]
    z = [(top + 1.0) * s for s in alg.identity().stacks]

    # Land just inside the certified-gap target: shrinking mu further only
    # makes the nearly-active blocks of z - a_i more singular for no benefit.
    mu_target = 0.5 * gap_target / (n * dim)
    mu = max(top + 1.0, mu_target)
    total_iters = 0
    for _ in range(MAX_STAGES):
        stop = NEWTON_TOL if mu <= mu_target else PATH_TOL
        for zg, fg, ks in zip(z, fam, alg.members):
            total_iters += _newton_center(zg, fg, mu, ks, stop)
        if mu <= mu_target:
            break
        mu = max(mu * MU_SHRINK, mu_target)
    else:
        raise SolverError(f"barrier loop ran {MAX_STAGES} stages without reaching gap_tol")

    ts = [hermitian_part(mu * np.linalg.inv(hermitian_part(x[:, None] - f))) for x, f in zip(z, fam)]
    z = AlgebraElement.from_stacks(alg, z)
    raw_duals = [AlgebraElement.from_stacks(alg, [t[:, i] for t in ts]) for i in range(n)]

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

