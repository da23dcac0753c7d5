"""Dense complex linear algebra for one to three qubits.

Everything here is exact eigendecomposition-based arithmetic on small
(dim <= 8) matrices: no sparsity, no iterative solvers. All functions are
pure. ``hermitian_eig`` keeps the last ``EIG_CACHE_SIZE`` decompositions,
keyed by the matrix's contents, and returns the same read-only
``EigenDecomposition`` for equal matrices; every other array returned is
freshly allocated. The shared arrays cannot be written and the cache is a
``functools.lru_cache``, so concurrent use is safe.

Conventions: basis index 0 is spin-up, matrices are row-major ndarrays of
complex128, and eigenvalues are always sorted ascending.
"""
from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ComputationError, ValidationError

MAX_DIM = 8

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

KET_PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)
KET_MINUS = np.array([1, -1], dtype=complex) / np.sqrt(2)

HERMITIAN_TOL = 1e-12
UNITARY_TOL = 1e-10
STATE_NORM_TOL = 1e-12

# Decompositions ``hermitian_eig`` keeps; 256 at dim 8 hold under 1 MB.
EIG_CACHE_SIZE = 256

# The largest magnitude of every real input, or part of a complex one, checked
# where it enters (NaN and +-inf fail it too). Every value formed inside is then
# finite: an eigenvalue at MAX_DIM is below 2^504, so E t < 2^1004, and so is a
# sum of MAX_DIM products of two entries.
MAX_MAGNITUDE = 2.0**500
# Numpy floats in which MAX_MAGNITUDE overflows to inf, so they are judged as a
# Python float, which holds them exactly.
_NARROW_FLOATS = (np.float16, np.float32)


def require_magnitude(name: str, value) -> None:
    """Reject a real ``value`` unless it is finite with magnitude at most ``MAX_MAGNITUDE``."""
    if isinstance(value, _NARROW_FLOATS):
        value = float(value)
    if not abs(value) <= MAX_MAGNITUDE:
        raise ValidationError(f"{name} must be finite with magnitude at most 2^500, got {_shown(value)}")


def require_positive(name: str, value) -> None:
    """``require_magnitude``, then reject a ``value`` that is not > 0."""
    require_magnitude(name, value)
    if not value > 0:
        raise ValidationError(f"{name} must be positive, got {value}")


def require_nonnegative(name: str, value) -> None:
    """``require_magnitude``, then reject a ``value`` that is not >= 0."""
    require_magnitude(name, value)
    if not value >= 0:
        raise ValidationError(f"{name} must be >= 0, got {value}")


def _shown(value) -> str:
    """``value`` as a message shows it; an int past the bound by its size, never in full."""
    if isinstance(value, int) and abs(value) > MAX_MAGNITUDE:
        return f"an integer of {value.bit_length()} bits"
    return str(value)


def as_complex_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a square complex matrix of dim <= 8 whose entries' parts are
    finite with magnitude at most ``MAX_MAGNITUDE``."""
    m = np.ascontiguousarray(a, dtype=complex)  # so that a transpose has a float view
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {m.shape}")
    if not 1 <= m.shape[0] <= MAX_DIM:
        raise ValidationError(f"{name} dimension {m.shape[0]} outside 1..{MAX_DIM}")
    parts = np.abs(m.view(float))
    if not parts.max() <= MAX_MAGNITUDE:
        i, j = np.argwhere(~(parts <= MAX_MAGNITUDE))[0] // (1, 2)
        raise ValidationError(f"{name} has a non-finite entry or one past 2^500 in magnitude: {m[i, j]} at [{i}][{j}]")
    return m


def require_integer(name: str, value, minimum: int, maximum: int | None = None) -> None:
    """Reject a count or seed that is not an integer in ``minimum``..``maximum``
    (no upper end when ``maximum`` is None); numpy integers pass, bools do not."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {_shown(value)}")
    if maximum is not None and value > maximum:
        raise ValidationError(f"{name} must be <= {maximum}, got {_shown(value)}")


def require_hermitian(a, name: str) -> np.ndarray:
    """Validate Hermiticity to ``HERMITIAN_TOL`` (max-norm), naming the worst entry pair."""
    m = as_complex_matrix(a, name)
    dev = np.abs(m - m.conj().T)
    if dev.max() > HERMITIAN_TOL:
        i, j = np.unravel_index(np.argmax(dev), dev.shape)
        raise ValidationError(
            f"{name} is not Hermitian: |A[{i}][{j}] - conj(A[{j}][{i}])| = {dev[i, j]:.3e}"
            f" > {HERMITIAN_TOL:.1e}"
        )
    return m


def require_unitary(a, name: str) -> np.ndarray:
    """Validate unitarity, max-norm of U†U - I below ``UNITARY_TOL``."""
    m = as_complex_matrix(a, name)
    dev = np.abs(m.conj().T @ m - np.eye(m.shape[0])).max()
    if dev > UNITARY_TOL:
        raise ValidationError(f"{name} is not unitary: max|U†U - I| = {dev:.3e} > {UNITARY_TOL:.1e}")
    return m


def power_chain(u: np.ndarray, times: int, count: int) -> np.ndarray:
    """The stack u^(2^(times r)) for r = 0 .. count - 1, by repeated squaring.

    A 2-D ``u`` is a matrix. A 1-D ``u`` is the diagonal of a diagonal
    unitary and is squared elementwise, which on a 2x2 diagonal rounds
    exactly as the matrix product does.

    Each round squares the previous power ``times`` times. Each squaring
    doubles the drift D = u†u - I that rounding leaves, so a long chain of
    squarings would leave the unitary group. One Newton-Schulz step
    u (3I - u†u) / 2 = u (I - D/2) after the squarings leaves the drift
    D^2 (D - 3I) / 4, about 3 D^2 / 4, and moves the eigenphases only at
    second order, so a coherent error in u still compounds as under
    physical repetition. The drift left by every round's step is checked
    once the chain is done; raises ``ComputationError``, naming the first
    round, when it exceeds ``UNITARY_TOL``.
    """
    if u.ndim == 1:
        mul, adjoint, eye = np.multiply, np.conj, 1.0
    else:
        mul, adjoint, eye = np.matmul, lambda m: m.conj().T, np.eye(u.shape[0])
    dtype = np.result_type(u, 0.5)
    powers = np.empty((count,) + u.shape, dtype)
    drifts = np.empty((count - 1,) + u.shape, dtype)
    powers[0] = m = u
    for r in range(1, count):
        for _ in range(times):
            m = mul(m, m)
        drifts[r - 1] = mul(adjoint(m), m) - eye
        m = mul(m, eye - 0.5 * drifts[r - 1])
        powers[r] = m
    axes = tuple(range(1, drifts.ndim))
    left = np.abs(mul(mul(drifts, drifts), drifts - 3.0 * eye)).max(axis=axes) / 4.0
    failed = np.flatnonzero(~(left <= UNITARY_TOL))
    if failed.size:
        r = failed[0]
        raise ComputationError(
            f"operator power of round {r + 1} left the unitary group:"
            f" max|U†U - I| = {np.abs(drifts[r]).max():.3e},"
            f" {left[r]:.3e} > {UNITARY_TOL:.1e} after one Newton-Schulz step"
        )
    return powers


def require_pure_state(v, name: str = "state", tol: float = STATE_NORM_TOL) -> np.ndarray:
    """Validate a normalized complex state vector."""
    s = np.asarray(v, dtype=complex).ravel()
    if not 2 <= s.size <= MAX_DIM:
        raise ValidationError(f"{name} dimension {s.size} outside 2..{MAX_DIM}")
    if not np.all(np.isfinite(s.view(float))):
        raise ValidationError(f"{name} contains non-finite amplitudes")
    norm_err = abs(np.vdot(s, s).real - 1.0)
    if norm_err > tol:
        raise ValidationError(f"{name} is not normalized: |<s|s> - 1| = {norm_err:.3e}")
    return s


class EigenDecomposition(NamedTuple):
    """Ascending eigenvalues (``energies``, hartree for a Hamiltonian) and the
    unitary whose columns are the eigenvectors."""

    energies: np.ndarray
    eigenvectors: np.ndarray

    @property
    def ground_energy(self) -> float:
        return float(self.energies[0])

    @property
    def ground_state(self) -> np.ndarray:
        return self.eigenvectors[:, 0].copy()

    def propagator(self, t: float) -> np.ndarray:
        """exp(-i h t) = V diag(exp(-i lambda t)) V† for the decomposed h."""
        require_magnitude("evolution time", t)
        v = self.eigenvectors
        return (v * phase_factors(self.energies, t)) @ v.conj().T


def phase_factors(energies, t) -> np.ndarray:
    """Evolution phases exp(-i E t) of real energies and times, broadcast. Every
    caller's E and t derive from inputs within ``MAX_MAGNITUDE``, so E t is
    below 2^1004 and finite."""
    return np.exp(-1j * (energies * t))


def hermitian_eig(h) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, deterministic for fixed input.

    Equal matrices (same shape, same complex128 entries) share one
    read-only decomposition while it is among the ``EIG_CACHE_SIZE`` most
    recently used: a repeat is neither validated again nor decomposed
    again. Input that fails validation, or whose eigenvalues do not
    converge, is never kept, so it raises ``ValidationError`` on every call.
    Entries within ``MAX_MAGNITUDE`` keep every eigenvalue below 2^504.
    """
    m = np.asarray(h, dtype=complex)
    return _decompose(m.shape, m.tobytes())


@lru_cache(maxsize=EIG_CACHE_SIZE)
def _decompose(shape: tuple[int, ...], data: bytes) -> EigenDecomposition:
    m = require_hermitian(np.frombuffer(data, dtype=complex).reshape(shape), "matrix")
    try:
        vals, vecs = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise ValidationError(f"matrix eigendecomposition failed: {exc}") from None
    vals.flags.writeable = False
    vecs.flags.writeable = False
    return EigenDecomposition(vals, vecs)


def expm_herm(h, t: float) -> np.ndarray:
    """exp(-i h t) for Hermitian h, via eigendecomposition (exactly unitary)."""
    return hermitian_eig(h).propagator(t)
