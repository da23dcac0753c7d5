"""Molecular Hamiltonians, evolution-time selection, and the energy oracle.

Energies are carried in hartree throughout and times in atomic units
(hbar = 1); there is no unit-conversion layer. The built-in system is the
two-configuration hydrogen-molecule matrix (STO-3G basis, bond length
1.4 a.u., electronic energy only).
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import qcore
from .errors import DegeneracyError, ParseError, ValidationError

H2_MATRIX = np.array([[-1.8310, 0.1813], [0.1813, -0.2537]], dtype=complex)

GAP_TOL = 1e-9


@dataclass(frozen=True)
class MolecularHamiltonian:
    """Hermitian matrix in hartree plus a label and free-form metadata.

    Hermiticity is enforced at construction. A nondegenerate ground state
    is additionally required by ``spectrum`` and the preparation/estimation
    pipelines, which raise ``DegeneracyError`` when the gap closes. The
    matrix is read-only; ``spectrum`` and the adiabatic sweep decompose it
    through ``qcore.hermitian_eig``, so every instance with equal entries
    shares one decomposition.
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


def build_h2() -> MolecularHamiltonian:
    """The 2x2 hydrogen-molecule Hamiltonian (STO-3G, R = 1.4 a.u.)."""
    return MolecularHamiltonian(
        matrix=H2_MATRIX,
        label="H2/STO-3G",
        metadata={"basis": "STO-3G", "nuclear_distance": "1.4 a.u."},
    )


def require_gap(e0: float, e1: float, name: str, *args) -> None:
    """Require a gap E1 - E0 above ``GAP_TOL`` for ``name % args``, formatted only to raise, as in
    ``logging``. Eigenvalues of entries within ``qcore.MAX_MAGNITUDE`` keep the gap below 2^505."""
    gap = e1 - e0
    if gap <= GAP_TOL:
        raise DegeneracyError(f"ground state of {name % args} is degenerate: gap {gap:.3e} <= {GAP_TOL:.1e} hartree")


def spectrum(h: MolecularHamiltonian) -> qcore.EigenDecomposition:
    """Exact diagonalization, shared by every Hamiltonian with equal entries
    (``qcore.hermitian_eig``); ``require_gap`` judges its gap on every call."""
    dec = qcore.hermitian_eig(h.matrix)
    if h.dim >= 2:
        require_gap(dec.energies[0], dec.energies[1], "%r", h.label)
    return dec


def choose_tau(h: MolecularHamiltonian) -> float:
    """Evolution time pi / sqrt((2 H12)^2 + (H11 - H22)^2) for a 2x2 system.

    The denominator is the spectral spread E1 - E0, so the ground phase
    -E0*tau/2pi = -E0 / (2 (E1 - E0)) lies inside one turn when
    -2 (E1 - E0) < E0 < 0. Nothing here decomposes h or judges that phase:
    the runs check it in ``ipea.require_ground_window``. A zero spread
    (h proportional to I) raises ``DegeneracyError``. Entries within
    ``qcore.MAX_MAGNITUDE`` keep the spread below 2^502; a tau past that
    bound, as from a subnormal spread, is the ``IterationConfig``'s to reject.
    """
    if h.dim != 2:
        raise ValidationError(f"automatic tau is defined for 2x2 systems only, got dim {h.dim}")
    m = h.matrix
    spread = np.hypot(2.0 * abs(m[0, 1]), (m[0, 0] - m[1, 1]).real)
    if spread == 0.0:
        raise DegeneracyError(f"ground state of {h.label!r} is degenerate: h is proportional to I, no spread sets tau")
    return np.pi / float(spread)  # inf, with no numpy overflow warning, for a subnormal spread


def load_hamiltonian(document: str) -> MolecularHamiltonian:
    """Parse a JSON Hamiltonian document.

    Schema: ``{"label": str, "dim": int, "matrix_re": [[...], ...],
    "matrix_im": [[...], ...], "metadata": {str: str}}`` with ``matrix_im``
    and ``metadata`` optional; rows are row-major, dim rows of dim numbers.
    """
    try:
        doc = json.loads(document, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except (RecursionError, ValueError) as exc:
        # nesting past the parser's recursion limit, an integer past
        # Python's digit limit for int(), or a NaN or Infinity token
        raise ParseError(f"unreadable JSON: {exc}") from None
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


def _reject_constant(token: str):
    raise ParseError(f"{token} is not a number")


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
    try:
        return np.array(rows, dtype=float)
    except OverflowError:
        raise ParseError(f"field {key!r} has an integer entry beyond float range") from None

