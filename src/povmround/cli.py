"""Command-line front end.

    povmround <command> --in <file> [--out <file>] [--tol key=val ...]
    povmround gen --kind <kind> [--seed N] [--param key=val ...] --out <file>
    povmround sweep [--count N] [--seed N] [--csv <file>] [--out <file>]

Commands: orthogonalize, orthogonalize-sym, repair, fourier, majorant,
verify (majorant reports only), gen, sweep.  Exit code 0 means every
certified bound passed, 1 a bound failed (the failing certificate is named
on stderr), 2 the input could not be read, parsed or validated, or the output
could not be written.  Every check comes from the solver report's own
``checks()``; this module only solves and formats.
"""

from __future__ import annotations

import argparse
import csv as csv_module
import dataclasses
import math
import sys
import time

import numpy as np

from .algebra import DEFAULT_TOL, PovmRoundError, Tolerances, ValidationError, check_geq
from .generators import KINDS, PARAM_PARSERS, gen_instance
from .io import (
    Instance,
    decode_element,
    decode_elements,
    dumps,
    encode_element,
    load_instance,
    make_report,
    read_report,
    save_instance,
    save_report,
)
from .majorant import majorant_certificate, minimal_majorant
from .orthogonalize import nine_defect_check, orthogonalize, orthogonalize_symmetry_preserving
from .repair import pvm_to_unitary, repair, repair_unitary_pair


def _json_ratio(ratio):
    # strict JSON has no Infinity; an exact-PVM input reports a null ratio
    return ratio if math.isfinite(ratio) else None


def _orth_result(report) -> dict:
    return {
        "defect": report.defect,
        "error": report.error,
        "ratio": _json_ratio(report.ratio),
        "selection_value": report.selection.value,
        "ranks": report.selection.ranks,
        "pvm": [encode_element(p) for p in report.pvm.elements],
        "certificates": dataclasses.asdict(report.certificates),
    }


def _cmd_orthogonalize(inst: Instance, tol: Tolerances):
    if inst.state is None or inst.povm is None:
        raise ValidationError("instance must provide a state and a POVM")
    report = orthogonalize(inst.algebra, inst.state, inst.povm, tol)
    return _orth_result(report), report.checks()


def _cmd_orthogonalize_sym(inst: Instance, tol: Tolerances):
    if inst.state is None or inst.povm is None:
        raise ValidationError("instance must provide a state and a POVM")
    sym = orthogonalize_symmetry_preserving(inst.algebra, inst.state, inst.povm, tol)
    result = {
        "defect": sym.defect,
        "error": sym.error,
        "ratio": _json_ratio(sym.ratio),
        "symmetry_residual": sym.symmetry_residual,
        "sub_dims": list(sym.decomposition.sub.dims),
        "multiplicities": list(sym.decomposition.multiplicities),
        "pvm": [encode_element(p) for p in sym.pvm.elements],
        "inner": _orth_result(sym.inner),
    }
    return result, sym.checks()


def _cmd_repair(inst: Instance, tol: Tolerances):
    if inst.state is None or inst.pvm_pair is None:
        raise ValidationError("instance must provide a state and a PVM pair")
    p, q = inst.pvm_pair
    rep = repair(inst.state, p, q, tol)
    result = {
        "epsilon_c": rep.epsilon_c,
        "error": rep.error,
        "identity_residual": rep.identity_residual,
        "max_commutator": rep.max_commutator,
        "pvm_repaired": [encode_element(e) for e in rep.pvm_repaired.elements],
        "inner": _orth_result(rep.inner),
    }
    return result, rep.checks()


def _cmd_fourier(inst: Instance, tol: Tolerances):
    if inst.state is None or inst.pvm_pair is None:
        raise ValidationError("instance must provide a state and a PVM pair")
    p, q = inst.pvm_pair
    v = pvm_to_unitary(p, tol)
    u = pvm_to_unitary(q, tol)
    rep = repair_unitary_pair(inst.state, u, q.n, v, p.n, tol)
    roundtrip = rep.roundtrip_residual(p, q)
    result = {
        "lhs": rep.lhs,
        "rhs_error": rep.rhs_error,
        "commutator_norm": rep.commutator_norm,
        "roundtrip_residual": roundtrip,
        "v_repaired": encode_element(rep.v_repaired),
    }
    return result, rep.checks(roundtrip)


def _cmd_majorant(inst: Instance, tol: Tolerances):
    if inst.functionals is None:
        raise ValidationError("instance must provide a functional family")
    sol = minimal_majorant(inst.algebra, inst.functionals, tol)
    result = {
        **sol.claims(),
        "mu_final": sol.mu_final,
        "newton_iterations": sol.newton_iterations,
        "z": encode_element(sol.majorant),
        "t": [encode_element(t) for t in sol.dual_povm],
        "instance": inst.to_json(),
    }
    return result, sol.checks(inst.functionals, tol)


def _cmd_verify(doc: dict, tol: Tolerances):
    """Recompute a majorant report's checks from its embedded instance, z and t,
    and check the objective values and residuals the report states."""
    if doc.get("command") != "majorant":
        raise ValidationError("verify expects a majorant report file")
    stored = doc.get("result")
    missing = [k for k in ("instance", "z", "t") if not isinstance(stored, dict) or k not in stored]
    if missing:
        raise ValidationError(f"majorant report has no result field(s) {missing}")
    inst = Instance.from_json(stored["instance"])
    z = decode_element(inst.algebra, stored["z"])
    duals = decode_elements(inst.algebra, stored["t"])
    f = inst.functionals
    if f is None:
        raise ValidationError("embedded instance has no functional family")
    f.validate(tol)
    if len(duals) != f.n:
        raise ValidationError(f"report has {len(duals)} dual elements for {f.n} functionals")
    sol = majorant_certificate(f, z, duals)
    result = {
        "primal": sol.primal,
        "dual": sol.dual,
        "gap": sol.gap,
        "verified_input": doc.get("input_digest", ""),
    }
    return result, sol.checks(f, tol) + sol.claim_checks(stored, f)


def _sweep_config(seed: int, max_dim: int, max_outputs: int):
    """Seeded (dims, n, delta) with 1..2 blocks of total dimension at most max_dim."""
    rng = np.random.default_rng(seed)
    num_blocks = int(rng.integers(1, 3))
    dims = []
    remaining = max_dim
    for _ in range(num_blocks):
        d = int(rng.integers(1, min(8, remaining) + 1))
        dims.append(d)
        remaining -= d
        if remaining < 1:
            break
    n = int(rng.integers(2, max_outputs + 1))
    delta = float(rng.uniform(0.01, 0.4))
    return tuple(dims), n, delta


def _cmd_sweep(args, tol: Tolerances):
    if args.count < 1:
        raise ValidationError("--count must be at least 1")
    if args.seed < 0:
        raise ValidationError(f"--seed must be non-negative, got {args.seed}")
    if args.max_dim < 1:
        raise ValidationError("--max-dim must be at least 1")
    if not 2 <= args.max_outputs <= 16:
        raise ValidationError("--max-outputs must lie in 2..16")
    rows = []
    checks = []
    for offset in range(args.count):
        seed = args.seed + offset
        dims, n, delta = _sweep_config(seed, args.max_dim, args.max_outputs)
        inst = gen_instance(
            "random_povm_near_pvm", seed, {"dims": list(dims), "n": n, "delta": delta}
        )
        start = time.perf_counter()
        report = orthogonalize(inst.algebra, inst.state, inst.povm, tol)
        runtime_ms = (time.perf_counter() - start) * 1e3
        bound = nine_defect_check(report)
        margin = bound.threshold - bound.value
        rows.append({
            "seed": seed,
            "dims": "+".join(str(d) for d in dims),
            "n": n,
            "defect": report.defect,
            "error": report.error,
            "ratio": _json_ratio(report.ratio),
            "bound_9eps_margin": margin,
            "runtime_ms": runtime_ms,
        })
        checks.append(check_geq(f"seed_{seed}_bound_margin", margin, 0.0))
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv_module.DictWriter(
                fh,
                fieldnames=[
                    "seed", "dims", "n", "defect", "error", "ratio",
                    "bound_9eps_margin", "runtime_ms",
                ],
            )
            writer.writeheader()
            writer.writerows(rows)
    worst = min((r["bound_9eps_margin"] for r in rows), default=None)
    result = {
        "count": len(rows),
        "worst_bound_margin": worst,
        "max_ratio": max((r["ratio"] for r in rows if r["ratio"] is not None), default=0.0),
        "rows": rows,
    }
    return result, checks


def _parse_items(items, what: str, types: dict) -> dict:
    """key=val strings to a dict, converting each value by ``types`` (default float)."""
    parsed = {}
    for item in items:
        if "=" not in item:
            raise ValidationError(f"{what} {item!r} is not key=val")
        key, val = (part.strip() for part in item.split("=", 1))
        try:
            parsed[key] = types.get(key, float)(val)
        except ValueError as exc:
            raise ValidationError(f"{what} {key!r}: cannot parse {val!r}") from exc
    return parsed


def build_tolerances(tol_flags) -> Tolerances:
    return DEFAULT_TOL.replace(**_parse_items(tol_flags or [], "tolerance override", {}))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="povmround",
        description="Round POVMs to projective measurements, repair almost-commuting "
        "PVM pairs, and solve minimal trace majorants, with certified bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_in=True):
        if needs_in:
            p.add_argument("--in", dest="input", required=True, help="instance file")
        p.add_argument("--out", dest="output", help="write the JSON report here")
        p.add_argument("--tol", action="append", default=[], metavar="KEY=VAL",
                       help="tolerance override, repeatable")

    for name in ("orthogonalize", "orthogonalize-sym", "repair", "fourier", "majorant"):
        common(sub.add_parser(name))

    p_verify = sub.add_parser("verify", help="re-verify a majorant report")
    common(p_verify)

    p_gen = sub.add_parser("gen", help="generate a seeded instance")
    p_gen.add_argument("--kind", required=True, choices=KINDS)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--param", action="append", default=[], metavar="KEY=VAL")
    p_gen.add_argument("--out", dest="output", required=True)

    p_sweep = sub.add_parser("sweep", help="batch of seeded rounding instances")
    p_sweep.add_argument("--count", type=int, default=20)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--max-dim", type=int, default=8, dest="max_dim")
    p_sweep.add_argument("--max-outputs", type=int, default=5, dest="max_outputs")
    p_sweep.add_argument("--csv", help="write per-instance rows here")
    p_sweep.add_argument("--out", dest="output")
    p_sweep.add_argument("--tol", action="append", default=[], metavar="KEY=VAL")
    return parser


_INSTANCE_COMMANDS = {
    "orthogonalize": _cmd_orthogonalize,
    "orthogonalize-sym": _cmd_orthogonalize_sym,
    "repair": _cmd_repair,
    "fourier": _cmd_fourier,
    "majorant": _cmd_majorant,
}


def run_command(args) -> tuple[dict, int]:
    """Dispatch one parsed command; returns (report document, exit code).
    ``gen`` writes an instance, not a report, so its document holds only the
    fields of the summary line."""
    tol = build_tolerances(getattr(args, "tol", []))
    start = time.perf_counter()

    if args.command == "gen":
        params = _parse_items(args.param, "parameter", PARAM_PARSERS)
        save_instance(gen_instance(args.kind, args.seed, params), args.output)
        return {"command": "gen", "pass": True, "checks": []}, 0

    if args.command == "sweep":
        result, checks = _cmd_sweep(args, tol)
        doc = make_report(
            "sweep", "", tol, result, checks, time.perf_counter() - start,
            metadata={"seed": args.seed, "count": args.count},
        )
        return doc, 0 if all(c.passed for c in checks) else 1

    if args.command == "verify":
        report, digest = read_report(args.input)
        result, checks = _cmd_verify(report, tol)
        doc = make_report(
            "verify", digest, tol, result, checks,
            time.perf_counter() - start,
        )
        return doc, 0 if all(c.passed for c in checks) else 1

    handler = _INSTANCE_COMMANDS[args.command]
    inst = load_instance(args.input)
    result, checks = handler(inst, tol)
    doc = make_report(
        args.command, inst.digest, tol, result, checks,
        time.perf_counter() - start, metadata=inst.metadata,
    )
    return doc, 0 if all(c.passed for c in checks) else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        doc, code = run_command(args)
        if getattr(args, "output", None) and args.command != "gen":
            save_report(doc, args.output)
    except ValidationError as exc:
        print(f"povmround: {exc}", file=sys.stderr)
        return 2
    except PovmRoundError as exc:
        print(f"povmround: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # an unwritable --out, --csv or gen output
        print(f"povmround: {exc}", file=sys.stderr)
        return 2

    failed = [c["name"] for c in doc["checks"] if not c["pass"]]
    summary = {
        "command": doc["command"],
        "pass": doc["pass"],
        "checks": len(doc["checks"]),
        "failed": failed,
    }
    print(dumps(summary), end="")
    if failed:
        print("failed certificates: " + ", ".join(failed), file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
