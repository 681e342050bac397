"""Spans around the package's public functions and numpy's dense kernels.

The tracer patches names from outside the program: each wrapped function is
replaced in every ``povmround`` module namespace that binds it, because
callers look names up in their own module globals (``povmround.repair``
calls the ``orthogonalize`` bound in ``povmround.repair``).  Modules are
resolved through ``importlib``: the package ``__init__`` rebinds
``povmround.orthogonalize`` and ``povmround.repair`` to functions.

Spans (name, parent, start, end, job) are kept in memory and written out by
``save``.  A span's self time is its duration minus that of its direct child
spans.  A name a later version of the package no longer defines is reported
as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

# (module under povmround, function) -> span name "<module>.<function>"
PACKAGE_SPANS = {
    "cli": ("main",),
    "io": ("load_instance", "save_report"),
    "orthogonalize": (
        "orthogonalize",
        "orthogonalize_symmetry_preserving",
        "select_projections",
        "complete_polar",
        "decompose_generated_algebra",
    ),
    "algebra": ("hermitian_sqrt", "spectral_clusters", "validate_povm", "validate_pvm", "validate_state"),
    "repair": ("repair", "compress_povm"),
    "majorant": ("minimal_majorant", "verify_majorant_certificate"),
}
LINALG_SPANS = ("eigh", "eigvalsh", "svd", "solve", "cholesky", "inv")


def _complex_factor(*arrays) -> float:
    # a complex flop is about four real ones
    return 4.0 if any(np.iscomplexobj(a) for a in arrays) else 1.0


def svd_gflop(args, kwargs, result) -> float:
    """Golub-Van Loan operation counts for the SVD with vectors (computed)."""
    a = np.asarray(args[0])
    m, n = a.shape[-2:]
    m, n = max(m, n), min(m, n)
    full = kwargs.get("full_matrices", args[1] if len(args) > 1 else True)
    flops = 4 * m * m * n + 22 * n**3 if full else 6 * m * n * n + 20 * n**3
    return _complex_factor(a) * flops * 1e-9


def solve_gflop(args, kwargs, result) -> float:
    """LU factorisation plus triangular solves (computed)."""
    a, b = np.asarray(args[0]), np.asarray(args[1])
    n = a.shape[-1]
    rhs = 1 if b.ndim == 1 else b.shape[-1]
    return _complex_factor(a, b) * (2.0 / 3.0 * n**3 + 2.0 * n * n * rhs) * 1e-9


def kron_mb(args, kwargs, result) -> float:
    return result.nbytes * 1e-6


def commutant_blocks(args, kwargs, result) -> float:
    return float(result.commutant.algebra.num_blocks)


MEASURES = {
    "linalg.svd": ("linalg.svd.gflop", svd_gflop),
    "linalg.solve": ("linalg.solve.gflop", solve_gflop),
    "numpy.kron": ("numpy.kron.mb", kron_mb),
    "repair.compress_povm": ("repair.commutant_blocks", commutant_blocks),
}


class Tracer:
    """Span recorder; records only while ``active`` is set."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self.active = False
        self.job = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        measure = MEASURES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.span_name)
            self.span_name.append(nid)
            self.span_parent.append(self._stack[-1] if self._stack else -1)
            self.span_job.append(self.job)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            self._stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.span_start[idx] = start
                self.span_end[idx] = end
            if measure is not None:
                self.counters[measure[0]] += measure[1](args, kwargs, result)
            return result

        return wrapper

    def _patch(self, namespace, attr: str, value) -> None:
        self._patches.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, value)

    def install(self) -> None:
        package = [m for n, m in list(sys.modules.items()) if n == "povmround" or n.startswith("povmround.")]
        for module_name, functions in PACKAGE_SPANS.items():
            try:
                module = importlib.import_module(f"povmround.{module_name}")
            except ImportError:
                self.absent.extend(f"{module_name}.{f}" for f in functions)
                continue
            for fname in functions:
                original = getattr(module, fname, None)
                if not callable(original):
                    self.absent.append(f"{module_name}.{fname}")
                    continue
                wrapper = self._wrap(f"{module_name}.{fname}", original)
                for mod in package:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapper)
        for fname in LINALG_SPANS:
            self._patch(np.linalg, fname, self._wrap(f"linalg.{fname}", getattr(np.linalg, fname)))
        self._patch(np, "kron", self._wrap("numpy.kron", np.kron))

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._patches):
            setattr(namespace, attr, original)
        self._patches.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, self seconds."""
        dur = np.array(self.span_end) - np.array(self.span_start)
        parent = np.array(self.span_parent)
        name = np.array(self.span_name)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        out = {}
        for nid, n in enumerate(self.names):
            sel = name == nid
            out[n] = {
                "calls": int(sel.sum()),
                "total_s": float(dur[sel].sum()),
                "self_s": float(own[sel].sum()),
            }
        return out

    def save(self, path, meta: dict) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.array(self.span_name),
            parent=np.array(self.span_parent),
            job=np.array(self.span_job),
            start=np.array(self.span_start),
            end=np.array(self.span_end),
            meta=np.array(json.dumps(meta)),
        )


# Per-layer metrics of a traced run: (name, unit, better).  Times, calls and
# computed volumes are per job of the workload; the repair and majorant
# counts are per job of that command.
SELF_MS_SPANS = (
    "cli.main",
    "io.load_instance",
    "io.save_report",
    "orthogonalize.orthogonalize",
    "orthogonalize.orthogonalize_symmetry_preserving",
    "orthogonalize.select_projections",
    "orthogonalize.complete_polar",
    "algebra.hermitian_sqrt",
    "algebra.spectral_clusters",
    "repair.repair",
    "repair.compress_povm",
    "majorant.minimal_majorant",
    "majorant.verify_majorant_certificate",
    "linalg.eigh",
    "linalg.svd",
    "linalg.solve",
)
VALIDATE_SPANS = ("algebra.validate_povm", "algebra.validate_pvm", "algebra.validate_state")
CALL_SPANS = (
    "linalg.eigh",
    "linalg.eigvalsh",
    "linalg.svd",
    "linalg.solve",
    "linalg.cholesky",
    "linalg.inv",
    "numpy.kron",
)
PER_LAYER = (
    [(f"{s}.self_ms", "ms", "lower") for s in SELF_MS_SPANS]
    + [
        ("algebra.validate.self_ms", "ms", "lower"),
        ("orthogonalize.decompose_generated_algebra.total_ms", "ms", "lower"),
    ]
    + [(f"{s}.calls", "count", "lower") for s in CALL_SPANS]
    + [
        ("linalg.svd.gflop", "GFLOP", "lower"),
        ("linalg.solve.gflop", "GFLOP", "lower"),
        ("numpy.kron.mb", "MB", "lower"),
        ("io.report_kb", "KB", "lower"),
        ("repair.commutant_blocks", "count", "lower"),
        ("majorant.newton_iterations", "count", "lower"),
        ("majorant.cholesky_per_newton", "ratio", "lower"),
        ("orthogonalize.clipped_scores", "count", "lower"),
        ("trace.overhead_frac", "frac", "lower"),
    ]
)


def span_metrics(spans: dict, counters: dict, jobs: int, repair_jobs: int) -> dict[str, float]:
    """The per-layer metrics taken from spans and their counters; absent
    spans read as zero."""
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def get(name):
        return spans.get(name, empty)

    out = {f"{s}.self_ms": 1e3 * get(s)["self_s"] / jobs for s in SELF_MS_SPANS}
    out["algebra.validate.self_ms"] = 1e3 * sum(get(s)["self_s"] for s in VALIDATE_SPANS) / jobs
    out["orthogonalize.decompose_generated_algebra.total_ms"] = (
        1e3 * get("orthogonalize.decompose_generated_algebra")["total_s"] / jobs
    )
    out.update({f"{s}.calls": get(s)["calls"] / jobs for s in CALL_SPANS})
    for key in ("linalg.svd.gflop", "linalg.solve.gflop", "numpy.kron.mb"):
        out[key] = counters.get(key, 0.0) / jobs
    out["repair.commutant_blocks"] = (
        counters.get("repair.commutant_blocks", 0.0) / repair_jobs if repair_jobs else 0.0
    )
    return out
