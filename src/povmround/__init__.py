"""Rounding POVMs to projective measurements with certified error bounds.

Core entry points:

- :func:`povmround.orthogonalize.orthogonalize` rounds an almost-orthogonal
  POVM to a PVM with error at most nine times the orthogonality defect.
- :func:`povmround.repair.repair` turns an almost-commuting pair of PVMs
  into an exactly commuting one within ten times the commutation defect.
- :func:`povmround.majorant.minimal_majorant` computes the minimal trace
  majorant of a family of positive functionals and its dual POVM.
"""

from .algebra import (
    AlgebraElement,
    BlockAlgebra,
    Povm,
    PovmRoundError,
    PreconditionError,
    Pvm,
    ShapeMismatchError,
    SolverError,
    State,
    SubAlgebra,
    Tolerances,
    ValidationError,
    commutator_phi_norm_sq,
    defect,
    phi_norm_sq,
    spectral_clusters,
    validate_povm,
    validate_pvm,
    validate_state,
)
from .majorant import (
    FunctionalFamily,
    MajorantSolution,
    minimal_majorant,
    verify_majorant_certificate,
)
from .orthogonalize import (
    GeneratedAlgebra,
    OrthReport,
    SelectionResult,
    SymmetricOrthReport,
    complete_polar,
    decompose_generated_algebra,
    orthogonalize,
    orthogonalize_symmetry_preserving,
    select_projections,
)
from .repair import (
    CompressedPovm,
    RepairReport,
    UnitaryRepairReport,
    commutation_defect,
    compress_povm,
    pvm_to_unitary,
    repair,
    repair_unitary_pair,
    unitary_to_pvm,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraElement",
    "BlockAlgebra",
    "CompressedPovm",
    "FunctionalFamily",
    "GeneratedAlgebra",
    "MajorantSolution",
    "OrthReport",
    "Povm",
    "PovmRoundError",
    "PreconditionError",
    "Pvm",
    "RepairReport",
    "SelectionResult",
    "ShapeMismatchError",
    "SolverError",
    "State",
    "SubAlgebra",
    "SymmetricOrthReport",
    "Tolerances",
    "UnitaryRepairReport",
    "ValidationError",
    "commutation_defect",
    "commutator_phi_norm_sq",
    "complete_polar",
    "compress_povm",
    "decompose_generated_algebra",
    "defect",
    "minimal_majorant",
    "orthogonalize",
    "orthogonalize_symmetry_preserving",
    "phi_norm_sq",
    "pvm_to_unitary",
    "repair",
    "repair_unitary_pair",
    "select_projections",
    "spectral_clusters",
    "unitary_to_pvm",
    "validate_povm",
    "validate_pvm",
    "validate_state",
    "verify_majorant_certificate",
    "__version__",
]
