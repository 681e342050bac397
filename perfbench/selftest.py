"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Run from the root of a checkout.  It runs one tiny job per command through
the same in-process CLI call and independent checker the benchmark uses,
checks that the checker rejects a report with one projection perturbed by
1e-3 and a majorant report with halved duals, checks that the tracer records
spans and restores every name it patched, and checks that BENCHMARK.json
lists the workloads and metrics this benchmark produces.  Exits 1 on any
failure.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import povmround  # noqa: E402
from povmround.io import save_instance  # noqa: E402

from check import report_failures  # noqa: E402
from tracing import PER_LAYER, Tracer  # noqa: E402
from worker import END_TO_END, run_job  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    majorant_instance,
    repair_instance,
    rounding_instance,
    tensor_rounding_instance,
)

TINY = {
    "orthogonalize": (lambda rng: rounding_instance(rng, (4,), 3, 0.05), 0),
    "orthogonalize-sym": (lambda rng: tensor_rounding_instance(rng, 2, 2, 3, 0.2), 2),
    "repair": (lambda rng: repair_instance(rng, (4,), 2, 2, 0.1), 0),
    "majorant": (lambda rng: majorant_instance(rng, (3,), 3), 0),
}

results: list[tuple[str, bool]] = []


def expect(name: str, ok: bool) -> None:
    results.append((name, ok))
    print(f"{'PASS' if ok else 'FAIL'} {name}")


def tiny_job(workdir: Path, command: str):
    """Run one tiny job; return (instance, report document, exit code)."""
    make, _ = TINY[command]
    inst = make(np.random.default_rng(7))
    path = workdir / f"{command}.json"
    out = workdir / f"{command}.report.json"
    save_instance(inst, path)
    _, _, code, exc, _, _ = run_job([command, "--in", str(path), "--out", str(out)])
    if exc is not None:
        return inst, None, None
    return inst, json.loads(out.read_text()), code


def check_jobs(workdir: Path) -> dict:
    docs = {}
    for command, (_, factor) in TINY.items():
        inst, doc, code = tiny_job(workdir, command)
        ok = code == 0 and doc is not None and not report_failures(command, inst, doc, factor)
        expect(f"tiny {command} job passes the checker", ok)
        docs[command] = (inst, doc)
    return docs


def check_tampering(docs: dict) -> None:
    inst, doc = docs["orthogonalize"]
    bad = copy.deepcopy(doc)
    bad["result"]["pvm"][0][0][0][0][0] += 1e-3  # real part of entry (0, 0) of p_0
    expect("perturbed projection is rejected", bool(report_failures("orthogonalize", inst, bad)))

    inst, doc = docs["majorant"]
    bad = copy.deepcopy(doc)
    bad["result"]["t"] = [
        [[[[0.5 * re, 0.5 * im] for re, im in row] for row in block] for block in t]
        for t in bad["result"]["t"]
    ]
    expect("majorant report with halved duals is rejected", bool(report_failures("majorant", inst, bad)))


def check_tracer(workdir: Path) -> None:
    originals = (np.linalg.eigh, np.kron, povmround.repair, sys.modules["povmround.repair"].orthogonalize)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.active = True
        tiny_job(workdir, "repair")
        tracer.active = False
    finally:
        tracer.uninstall()
    spans = tracer.summary()
    recorded = all(
        spans[name]["calls"] >= 1
        for name in ("cli.main", "repair.repair", "orthogonalize.orthogonalize", "linalg.eigh")
    )
    expect("tracer records spans in the namespaces that look names up", recorded and not tracer.absent)
    restored = originals == (
        np.linalg.eigh, np.kron, povmround.repair, sys.modules["povmround.repair"].orthogonalize
    )
    expect("tracer restores every patched name", restored)


def check_declaration() -> None:
    decl = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect(
        "BENCHMARK.json workloads match workloads.py",
        {(w["name"], w["why"]) for w in decl["workloads"]} == {(w.name, w.why) for w in WORKLOADS.values()},
    )
    expect(
        "BENCHMARK.json end_to_end matches the run",
        [(m["name"], m["unit"], m["better"]) for m in decl["end_to_end"]] == list(END_TO_END),
    )
    expect(
        "BENCHMARK.json per_layer matches the traced run",
        [(m["name"], m["unit"], m["better"]) for m in decl["per_layer"]] == list(PER_LAYER),
    )


def main() -> int:
    workdir = HERE / ".work" / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        check_tampering(check_jobs(workdir))
        check_tracer(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    check_declaration()
    failed = [name for name, ok in results if not ok]
    print(f"{len(results) - len(failed)}/{len(results)} self-test checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
