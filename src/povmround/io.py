"""Instance and report files: versioned JSON with exact float round-trips.

Complex matrices are stored as nested row-major arrays of [re, im] pairs.
A file is one compact JSON line, which CPython's C encoder writes.  Floats
are emitted in Python's shortest round-trip decimal form, so
load(save(x)) reproduces every matrix entry bit for bit.  This module only
decodes.  An unreadable path or a malformed document (not an object, a missing
key, a matrix not of [re, im] rows, a non-finite entry) is a ``ValidationError``,
raised here; the solver that reads a decoded object checks its invariants.
"""

from __future__ import annotations

import cmath
import hashlib
import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .algebra import (
    AlgebraElement,
    BlockAlgebra,
    BoundCheck,
    Povm,
    Pvm,
    ShapeMismatchError,
    State,
    Tolerances,
    ValidationError,
)
from .majorant import FunctionalFamily

INSTANCE_FORMAT = "povmround/instance"
REPORT_FORMAT = "povmround/report"
FORMAT_VERSION = 1


def _encode_matrix(m: np.ndarray) -> list:
    return np.ascontiguousarray(m, dtype=complex).view(float).reshape(*m.shape, 2).tolist()


def _decode_entry(re, im) -> complex:
    z = complex(re, im)
    if isinstance(re, bool) or isinstance(im, bool) or not cmath.isfinite(z):
        raise ValidationError(f"matrix entry {[re, im]} is a boolean or not finite")
    return z


def encode_element(x: AlgebraElement) -> list:
    return x.algebra.per_block([_encode_matrix(s) for s in x.stacks])


@contextmanager
def _decoding(what: str):
    """Report the errors of decoding a malformed document as ValidationError."""
    try:
        yield
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError,
            ShapeMismatchError) as exc:
        raise ValidationError(f"malformed {what}: {exc!r}") from exc


def decode_element(alg: BlockAlgebra, data) -> AlgebraElement:
    """Decode the blocks of one element straight into its per-size stacks."""
    with _decoding("element"):
        mats = [[[_decode_entry(re, im) for re, im in row] for row in b] for b in data]
        if len(mats) != alg.num_blocks:
            raise ShapeMismatchError(f"element has {len(mats)} blocks, algebra has {alg.num_blocks}")
        return AlgebraElement.from_stacks(
            alg, [np.array([mats[k] for k in ks], dtype=complex) for ks in alg.members]
        )


def decode_elements(alg: BlockAlgebra, data) -> list[AlgebraElement]:
    with _decoding("element list"):
        return [decode_element(alg, e) for e in data]


@dataclass
class Instance:
    """One problem instance: algebra plus whichever objects a command needs."""

    algebra: BlockAlgebra
    state: State | None = None
    povm: Povm | None = None
    pvm_pair: tuple[Pvm, Pvm] | None = None
    functionals: FunctionalFamily | None = None
    metadata: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        doc = {
            "format": INSTANCE_FORMAT,
            "version": FORMAT_VERSION,
            "dims": list(self.algebra.dims),
            "metadata": self.metadata,
        }
        if self.state is not None:
            doc["state"] = encode_element(self.state.rho)
        if self.povm is not None:
            doc["povm"] = [encode_element(e) for e in self.povm.elements]
        if self.pvm_pair is not None:
            p, q = self.pvm_pair
            doc["pvm_pair"] = {
                "p": [encode_element(e) for e in p.elements],
                "q": [encode_element(e) for e in q.elements],
            }
        if self.functionals is not None:
            doc["functionals"] = [encode_element(e) for e in self.functionals.elements]
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "Instance":
        with _decoding("instance"):
            if doc.get("format") != INSTANCE_FORMAT:
                raise ValidationError(f"not an instance file (format={doc.get('format')!r})")
            if doc.get("version") != FORMAT_VERSION:
                raise ValidationError(f"unsupported instance version {doc.get('version')!r}")
            alg = BlockAlgebra(tuple(doc["dims"]))
            inst = cls(algebra=alg, metadata=doc.get("metadata", {}))
            if "state" in doc:
                inst.state = State(alg, decode_element(alg, doc["state"]))
            if "povm" in doc:
                inst.povm = Povm(alg, [decode_element(alg, e) for e in doc["povm"]])
            if "pvm_pair" in doc:
                pair = doc["pvm_pair"]
                inst.pvm_pair = tuple(Pvm(alg, decode_elements(alg, pair[k])) for k in "pq")
            if "functionals" in doc:
                inst.functionals = FunctionalFamily(decode_elements(alg, doc["functionals"]))
            return inst


def dumps(doc: dict) -> str:
    # No indent: with one, CPython falls back to its pure-Python encoder.
    # allow_nan=False keeps the files strict JSON; non-finite values must be
    # mapped to null by the caller before they reach serialization
    return json.dumps(doc, sort_keys=True, allow_nan=False) + "\n"


def save_instance(inst: Instance, path) -> None:
    Path(path).write_text(dumps(inst.to_json()))


def _read_json(path):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # unreadable path, bad UTF-8 or bad JSON
        raise ValidationError(f"cannot read {path}: {exc}") from exc


def load_instance(path) -> Instance:
    return Instance.from_json(_read_json(path))


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def make_report(
    command: str,
    input_digest: str,
    tol: Tolerances,
    result: dict,
    checks: list[BoundCheck],
    duration_s: float,
    metadata: dict | None = None,
) -> dict:
    return {
        "format": REPORT_FORMAT,
        "version": FORMAT_VERSION,
        "command": command,
        "input_digest": input_digest,
        "tolerances": tol.as_dict(),
        "result": result,
        "checks": [c.to_json() for c in checks],
        "pass": all(c.passed for c in checks),
        "duration_s": duration_s,
        "metadata": metadata or {},
    }


def save_report(doc: dict, path) -> None:
    Path(path).write_text(dumps(doc))


def load_report(path) -> dict:
    doc = _read_json(path)
    with _decoding("report"):
        if doc.get("format") != REPORT_FORMAT:
            raise ValidationError(f"not a report file (format={doc.get('format')!r})")
    return doc
