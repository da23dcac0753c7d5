"""Molecular Hamiltonians, evolution-time selection, and the energy oracle.

Energies are carried in hartree throughout and times in atomic units
(hbar = 1); there is no unit-conversion layer. The built-in system is the
two-configuration hydrogen-molecule matrix (STO-3G basis, bond length
1.4 a.u., electronic energy only).
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import qcore
from .errors import DegeneracyError, ParseError, TauRangeError, ValidationError

H2_MATRIX = np.array([[-1.8310, 0.1813], [0.1813, -0.2537]], dtype=complex)

GAP_TOL = 1e-9


@dataclass(frozen=True)
class MolecularHamiltonian:
    """Hermitian matrix in hartree plus a label and free-form metadata.

    Hermiticity is enforced at construction. A nondegenerate ground state
    is additionally required by ``spectrum`` and the preparation/estimation
    pipelines, which raise ``DegeneracyError`` when the gap closes. The
    matrix is read-only, so it is decomposed once and the result kept on
    the instance (``_eigen``), which ``spectrum``, ``choose_tau`` and the
    adiabatic sweep share.
    """

    matrix: np.ndarray
    label: str = ""
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        m = qcore.require_hermitian(self.matrix, name=f"Hamiltonian {self.label!r}")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def _eigen(self) -> qcore.EigenDecomposition:
        # written to the instance __dict__, so the frozen dataclass keeps it
        return qcore.hermitian_eig(self.matrix)


def build_h2() -> MolecularHamiltonian:
    """The 2x2 hydrogen-molecule Hamiltonian (STO-3G, R = 1.4 a.u.)."""
    return MolecularHamiltonian(
        matrix=H2_MATRIX,
        label="H2/STO-3G",
        metadata={"basis": "STO-3G", "nuclear_distance": "1.4 a.u."},
    )


def spectrum(h: MolecularHamiltonian) -> qcore.EigenDecomposition:
    """Exact diagonalization, computed once per Hamiltonian; fails, on every
    call, if the ground state is degenerate."""
    dec = h._eigen
    if h.dim >= 2 and dec.energies[1] - dec.energies[0] <= GAP_TOL:
        raise DegeneracyError(
            f"ground state of {h.label!r} is degenerate: gap "
            f"{dec.energies[1] - dec.energies[0]:.3e} <= {GAP_TOL:.1e} hartree"
        )
    return dec


def choose_tau(h: MolecularHamiltonian) -> float:
    """Evolution time pi / sqrt((2 H12)^2 + (H11 - H22)^2) for a 2x2 system.

    The denominator is the spectral spread, so the resulting ground-state
    phase -E0*tau/2pi lands inside one turn. Validated: if |E0|*tau >= 2pi
    the caller must supply tau explicitly.
    """
    if h.dim != 2:
        raise ValidationError(f"automatic tau is defined for 2x2 systems only, got dim {h.dim}")
    m = h.matrix
    spread = np.hypot(2.0 * abs(m[0, 1]), (m[0, 0] - m[1, 1]).real)
    if spread == 0.0:
        raise TauRangeError("degenerate 2x2 matrix: supply tau explicitly")
    tau = float(np.pi / spread)
    # the kept decomposition, not ``spectrum``: a near-degenerate system still gets its tau
    e0 = float(h._eigen.energies[0])
    if abs(e0) * tau >= 2.0 * np.pi:
        raise TauRangeError(
            f"|E0|*tau = {abs(e0) * tau:.6f} >= 2pi; phase would wrap, supply tau explicitly"
        )
    return tau


def load_hamiltonian(document: str) -> MolecularHamiltonian:
    """Parse a JSON Hamiltonian document.

    Schema: ``{"label": str, "dim": int, "matrix_re": [[...], ...],
    "matrix_im": [[...], ...], "metadata": {str: str}}`` with ``matrix_im``
    and ``metadata`` optional; rows are row-major, dim rows of dim numbers.
    """
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"document root must be an object, got {type(doc).__name__}")

    label = doc.get("label", "")
    if not isinstance(label, str):
        raise ParseError(f"field 'label' must be a string, got {type(label).__name__}")
    if "dim" not in doc:
        raise ParseError("missing required field 'dim'")
    dim = doc["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ParseError(f"field 'dim' must be a positive integer, got {dim!r}")

    re_part = _parse_rows(doc, "matrix_re", dim, required=True)
    im_part = _parse_rows(doc, "matrix_im", dim, required=False)

    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in metadata.items()
    ):
        raise ParseError("field 'metadata' must map strings to strings")

    return MolecularHamiltonian(matrix=re_part + 1j * im_part, label=label, metadata=dict(metadata))


def _parse_rows(doc: dict, key: str, dim: int, required: bool) -> np.ndarray:
    if key not in doc:
        if required:
            raise ParseError(f"missing required field {key!r}")
        return np.zeros((dim, dim))
    rows = doc[key]
    if not isinstance(rows, list) or len(rows) != dim:
        raise ParseError(f"field {key!r} must be a list of {dim} rows")
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise ParseError(f"field {key!r} row {i} must have {dim} numbers")
        for j, x in enumerate(row):
            if not isinstance(x, (int, float)) or isinstance(x, bool):
                raise ParseError(f"field {key!r} entry [{i}][{j}] is not a number: {x!r}")
    return np.array(rows, dtype=float)

