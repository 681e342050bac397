#!/usr/bin/env python3
"""Digest of every report the CLI writes for a fixed set of instances.

Usage: python scripts/result_digest.py [--repo CHECKOUT] > digest.txt

Runs, in process, ``povmround.cli.main([command, "--in", instance, "--out",
report])`` on:

- every command of every benchmark workload, on the instances that
  ``perfbench/workloads.generate`` makes for seed 0;
- the small ``gen`` instances of tests/test_io_cli.py, through every
  instance command that applies to them;

and then ``verify`` on every majorant report.  For each report it prints one
line: command, instance, exit code, ``pass``, and the sha256 of the
canonical JSON of ``result`` and of ``checks``; wall-clock fields such as
``duration_s`` sit outside both.  Two fields of ``result`` depend on how
instance files are encoded, not on what was solved, so they are hashed in a
form that every instance version shares: a majorant report's embedded
``instance`` by its decoded matrices as [re, im] text, and ``verify``'s
``verified_input`` (the sha256 of an instance file) by the name of the
instance whose file has that digest.

``--repo`` imports ``povmround`` (from ``src/``) and the workloads (from
``perfbench/``) of another checkout, so the outputs of two trees compare
with one ``diff`` of their digests.  BLAS runs single-threaded.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

# The gen instances of tests/test_io_cli.py: (name, kind, seed, params, extra flags).
GEN_CASES = (
    ("linfty2-s0", "linfty2_family", 0, {"c": "0.1"}, []),
    ("linfty2-s1", "linfty2_family", 1, {"c": "0.1"}, []),
    ("near-pvm-s9", "random_povm_near_pvm", 9, {"dims": "4", "n": "3", "delta": "0.2"}, []),
    ("pair-s2", "rotated_pvm_pair", 2, {"theta": "0.1", "canonical": "true"}, []),
    ("fun-s3", "random_functionals", 3, {"dims": "3", "n": "3"}, []),
    ("fun-s4", "random_functionals", 4, {"dims": "2", "n": "2"}, []),
    ("fun-s4-gap", "random_functionals", 4, {"dims": "2", "n": "2"}, ["--tol", "gap_tol=1e-5"]),
    ("fun-s7", "random_functionals", 7, {"dims": "3", "n": "2"}, []),
)


def _sha(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def _text_instance(embedded: dict, instance_type, encode_element) -> dict:
    """An embedded instance as its dims, metadata and decoded matrices in text."""
    inst = instance_type.from_json(embedded)
    families = [inst.povm, *(inst.pvm_pair or ()), inst.functionals]
    elements = ([inst.state.rho] if inst.state is not None else []) + [
        e for family in families if family is not None for e in family.elements
    ]
    return {"dims": list(inst.algebra.dims), "metadata": inst.metadata,
            "elements": [encode_element(e) for e in elements]}


def _commands_for(inst) -> list[str]:
    if inst.functionals is not None:
        return ["majorant"]
    if inst.pvm_pair is not None:
        return ["repair", "fourier"]
    return ["orthogonalize", "orthogonalize-sym"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repo", default=str(Path(__file__).resolve().parent.parent),
                        help="checkout whose src/ and perfbench/ are digested")
    args = parser.parse_args()
    repo = Path(args.repo).resolve()
    sys.path[:0] = [str(repo / "src"), str(repo / "perfbench")]

    from povmround.cli import main as cli_main
    from povmround.io import Instance, encode_element, load_instance, save_instance
    from workloads import WORKLOADS, generate

    lines = []
    file_names = {}  # sha256 of an instance file -> instance name

    def comparable(result):
        if not isinstance(result, dict):
            return result
        result = dict(result)
        if isinstance(result.get("instance"), dict):
            result["instance"] = _text_instance(result["instance"], Instance, encode_element)
        if "verified_input" in result:
            result["verified_input"] = file_names.get(result["verified_input"], "unknown")
        return result

    def run(command: str, name: str, path: Path, out: Path, extra=()) -> dict:
        if command != "verify":
            file_names[hashlib.sha256(path.read_bytes()).hexdigest()] = name
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli_main([command, "--in", str(path), "--out", str(out), *extra])
        doc = json.loads(out.read_text()) if out.exists() else {}
        lines.append(" ".join([
            command, name, str(code), str(doc.get("pass")),
            _sha(comparable(doc.get("result"))), _sha(doc.get("checks")),
        ]))
        return doc

    def run_with_verify(command: str, name: str, path: Path, work: Path, extra=()) -> None:
        out = work / f"{name}.{command}.json"
        if run(command, name, path, out, extra) and command == "majorant":
            run("verify", name, out, work / f"{name}.verify.json", extra)

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for wname, workload in WORKLOADS.items():
            for cmd, pool in zip(workload.commands, generate(workload, 0)):
                for i, inst in enumerate(pool):
                    name = f"{wname}.{cmd.name}.{i}"
                    path = work / f"{name}.instance.json"
                    save_instance(inst, path)
                    run_with_verify(cmd.name, name, path, work)
        for name, kind, seed, params, extra in GEN_CASES:
            path = work / f"{name}.instance.json"
            gen = ["gen", "--kind", kind, "--seed", str(seed), "--out", str(path)]
            for key, val in params.items():
                gen += ["--param", f"{key}={val}"]
            with contextlib.redirect_stdout(io.StringIO()):
                if cli_main(gen) != 0:
                    raise SystemExit(f"gen failed for {name}")
            for command in _commands_for(load_instance(path)):
                run_with_verify(command, name, path, work, extra)

    print("\n".join(lines))
    passed = sum(line.split()[3] == "True" for line in lines)
    print(f"{len(lines)} reports, {passed} pass", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
