"""Instance and report files: versioned JSON with exact matrix round-trips.

A file is one compact JSON line.  An instance (version 2) stores each element
as one base64 string of its blocks' little-endian complex128 bytes, row-major,
in block order: ``np.frombuffer(base64.b64decode(s), "<c16")`` split by
``dims``.  Reports and version-1 instances store row-major [re, im] pairs in
shortest round-trip decimal.  This module only decodes.  An unreadable path or
a malformed document (not an object, a missing key, a matrix not of [re, im]
rows or not base64 of its length, a non-finite entry) is a ``ValidationError``,
raised here; the solver that reads a decoded object checks its invariants.
"""

from __future__ import annotations

import base64
import cmath
import hashlib
import json
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import partial
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
INSTANCE_VERSION, REPORT_VERSION = 2, 1


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


def _positions(alg: BlockAlgebra) -> list[np.ndarray]:
    """Per block size, the (count, d, d) positions of its entries in a version-2 element."""
    starts = np.cumsum([0, *(d * d for d in alg.dims)])
    return [starts[list(ks), None, None] + np.arange(d * d).reshape(d, d)
            for d, ks in zip(alg.sizes, alg.members)]


def _encode_binary(x: AlgebraElement) -> str:
    flat = np.empty(sum(d * d for d in x.algebra.dims), "<c16")
    for where, s in zip(_positions(x.algebra), x.stacks):
        flat[where] = s
    return base64.b64encode(flat.tobytes()).decode("ascii")


def _decode_binary(alg: BlockAlgebra, data) -> AlgebraElement:
    length = 4 * -(-16 * sum(d * d for d in alg.dims) // 3)  # checked before any allocation
    if not isinstance(data, str) or len(data) != length:
        raise ValidationError(f"element is not a base64 string of {length} characters")
    flat = np.frombuffer(base64.b64decode(data, validate=True), "<c16")
    if not np.isfinite(flat).all():
        raise ValidationError("element has an entry that is not finite")
    return AlgebraElement.from_stacks(alg, [flat[where] for where in _positions(alg)])


@dataclass
class Instance:
    """One problem instance: algebra plus whichever objects a command needs."""

    algebra: BlockAlgebra
    state: State | None = None
    povm: Povm | None = None
    pvm_pair: tuple[Pvm, Pvm] | None = None
    functionals: FunctionalFamily | None = None
    metadata: dict = field(default_factory=dict)
    digest: str = field(default="", compare=False)  # sha256 of the file it was loaded from

    def to_json(self) -> dict:
        doc = {
            "format": INSTANCE_FORMAT,
            "version": INSTANCE_VERSION,
            "dims": list(self.algebra.dims),
            "metadata": self.metadata,
        }
        if self.state is not None:
            doc["state"] = _encode_binary(self.state.rho)
        if self.povm is not None:
            doc["povm"] = [_encode_binary(e) for e in self.povm.elements]
        if self.pvm_pair is not None:
            p, q = self.pvm_pair
            doc["pvm_pair"] = {
                "p": [_encode_binary(e) for e in p.elements],
                "q": [_encode_binary(e) for e in q.elements],
            }
        if self.functionals is not None:
            doc["functionals"] = [_encode_binary(e) for e in self.functionals.elements]
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "Instance":
        with _decoding("instance"):
            if doc.get("format") != INSTANCE_FORMAT:
                raise ValidationError(f"not an instance file (format={doc.get('format')!r})")
            if doc.get("version") not in (1, 2):
                raise ValidationError(f"unsupported instance version {doc.get('version')!r}")
            alg = BlockAlgebra(tuple(doc["dims"]))
            inst = cls(algebra=alg, metadata=doc.get("metadata", {}))
            decode = partial(_decode_binary if doc["version"] == 2 else decode_element, alg)
            if "state" in doc:
                inst.state = State(alg, decode(doc["state"]))
            if "povm" in doc:
                inst.povm = Povm(alg, [decode(e) for e in doc["povm"]])
            if "pvm_pair" in doc:
                pair = doc["pvm_pair"]
                inst.pvm_pair = tuple(Pvm(alg, [decode(e) for e in pair[k]]) for k in "pq")
            if "functionals" in doc:
                inst.functionals = FunctionalFamily([decode(e) for e in doc["functionals"]])
            return inst


def dumps(doc: dict) -> str:
    # No indent: with one, CPython falls back to its pure-Python encoder.
    # allow_nan=False keeps the files strict JSON; non-finite values must be
    # mapped to null by the caller before they reach serialization
    return json.dumps(doc, sort_keys=True, allow_nan=False) + "\n"


def save_instance(inst: Instance, path) -> None:
    Path(path).write_text(dumps(inst.to_json()))


def _read_json(path) -> tuple[object, str]:  # the document and the sha256 of its bytes
    try:
        return json.loads(data := Path(path).read_bytes()), hashlib.sha256(data).hexdigest()
    except (OSError, ValueError) as exc:  # unreadable path, bad UTF-8 or bad JSON
        raise ValidationError(f"cannot read {path}: {exc}") from exc


def load_instance(path) -> Instance:
    doc, digest = _read_json(path)
    return replace(Instance.from_json(doc), digest=digest)


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
        "version": REPORT_VERSION,
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


def read_report(path) -> tuple[dict, str]:
    doc, digest = _read_json(path)
    with _decoding("report"):
        if doc.get("format") != REPORT_FORMAT:
            raise ValidationError(f"not a report file (format={doc.get('format')!r})")
    return doc, digest


def load_report(path) -> dict:
    return read_report(path)[0]
