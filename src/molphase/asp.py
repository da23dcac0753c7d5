"""Adiabatic preparation of the target ground state.

The sweep deforms sigma_x into the target Hamiltonian through the linear
family H(s) = (1-s) sigma_x + s H, starting from |-> = (|up> - |down>)/
sqrt(2), the ground state of sigma_x. Discretization uses the symmetric
split

    exp(-i (d/2)(1-s) sigma_x) exp(-i s H d) exp(-i (d/2)(1-s) sigma_x)

whose per-step error is O(d^3). A schedule of M = ``steps`` slices
samples s_m = m/(M-1) for m = 0..M-1 (one slice jumps to s = 1), so the
sweep starts exactly at sigma_x and ends exactly at H.

One sweep evolves the states of many total times together, as a (2, T)
array in sigma_x's eigenbasis. There each sigma_x half is the elementwise
phase exp(-i E_x d (1-s)/2), and the middle factor is
B† diag(exp(-i E_H s d)) B with B = V_H† V_x fixed for the sweep, each
phase from ``qcore.phase_factors``; every 2x2 product is written out
elementwise, so a column rounds the same way whatever the batch. Sigma_x
and the target are diagonalised through ``qcore.hermitian_eig``, which
keeps their decompositions; the M interpolated H(s_m), whose ground
states and gaps do not depend on the total time, are decomposed in one
batched call per sweep. ``run_asp`` is the sweep over one time,
``scan_total_time`` the sweep over a grid, and ``trotter_step`` one slice.

Times are in inverse hartree; the hardware's millisecond clock is a
rescaling of the same dimensionless schedule, and ``scan_total_time``
locates the few-step high-fidelity regime directly.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import molham, qcore
from .errors import DegeneracyError, ValidationError
from .molham import MolecularHamiltonian

# The most slices in a schedule, and total times in a CLI scan. Peaks under
# tracemalloc: 11 MB for a 2^16-step scan (20 MB for run_asp, which keeps
# every step's state), 14 MB for a 6-step scan of 2^16 times.
MAX_POINTS = 2**16


@dataclass(frozen=True)
class AdiabaticSchedule:
    """Discrete sweep: M = ``steps`` slices over total time T."""

    steps: int
    total_time: float
    target: MolecularHamiltonian

    def __post_init__(self):
        qcore.require_integer("steps", self.steps, 1)
        if self.steps > MAX_POINTS:
            raise ValidationError(f"steps must lie in 1..{MAX_POINTS}, got {self.steps}")
        if not math.isfinite(self.total_time):
            raise ValidationError(f"total time must be finite, got {self.total_time}")
        if not self.total_time > 0:
            raise ValidationError(f"total time must be positive, got {self.total_time}")
        if self.target.dim != 2:
            raise ValidationError(f"adiabatic sweep targets 2x2 systems, got dim {self.target.dim}")

    def s_values(self) -> np.ndarray:
        """Interpolation parameters per step; a single step jumps to s = 1."""
        if self.steps == 1:
            return np.array([1.0])
        return np.arange(self.steps) / (self.steps - 1)


@dataclass(frozen=True)
class ASPResult:
    """Final state plus the fidelity against the instantaneous ground state
    recorded after every step (the last entry is the headline fidelity)."""

    final_state: np.ndarray
    fidelity: float
    per_step_fidelities: np.ndarray


def interpolated_hamiltonian(target: MolecularHamiltonian, s) -> np.ndarray:
    """(1-s) sigma_x + s H for a scalar s, or stacked, shape (M, 2, 2), for an array of M."""
    s = np.asarray(s, dtype=float)[..., None, None]
    outside = s[~((0.0 <= s) & (s <= 1.0))]
    if outside.size:
        raise ValidationError(f"interpolation parameter must lie in [0, 1], got {outside[0]}")
    if target.dim != 2:
        raise ValidationError(f"interpolation targets 2x2 systems, got dim {target.dim}")
    return (1.0 - s) * qcore.SIGMA_X + s * target.matrix


def trotter_step(target: MolecularHamiltonian, s_m: float, delta: float) -> np.ndarray:
    """One symmetric-split slice of duration ``delta`` at parameter ``s_m``.

    The sweep's slice kernel applied to the columns of V_x† (the
    computational basis, written in sigma_x's eigenbasis), then rotated
    back with V_x.
    """
    if target.dim != 2:
        raise ValidationError(f"trotter step targets 2x2 systems, got dim {target.dim}")
    if not (math.isfinite(delta) and delta > 0):
        raise ValidationError(f"step duration must be finite and positive, got {delta}")
    if not 0.0 <= s_m <= 1.0:
        raise ValidationError(f"interpolation parameter must lie in [0, 1], got {s_m}")
    energies, b, b_adj = _slice_inputs(target, np.array([s_m]))
    vx = qcore.hermitian_eig(qcore.SIGMA_X).eigenvectors
    return _mix(vx, _slice(vx.conj().T, energies[0], delta, b, b_adj))


def _slice_inputs(target: MolecularHamiltonian, s_values: np.ndarray):
    """Phase energies of every slice, shape (M, 4, 1), and B = V_H† V_x with B†.

    Slice m's energies are (E_x (1-s_m)/2, E_H s_m): a slice of duration d
    has the sigma_x half phases exp(-i energies[:2] d) and the middle
    phases exp(-i energies[2:] d).
    """
    x_dec, h_dec = qcore.hermitian_eig(qcore.SIGMA_X), qcore.hermitian_eig(target.matrix)
    s = s_values[:, None]
    energies = np.concatenate([0.5 * (1.0 - s) * x_dec.energies, s * h_dec.energies], axis=1)
    b = h_dec.eigenvectors.conj().T @ x_dec.eigenvectors
    return energies[:, :, None], b, b.conj().T


def _mix(m: np.ndarray, states: np.ndarray) -> np.ndarray:
    """``m @ states`` for a 2x2 ``m``, elementwise, so a column rounds alike in any batch."""
    return m[:, :1] * states[0] + m[:, 1:] * states[1]


def _slice(states: np.ndarray, energies: np.ndarray, deltas, b, b_adj) -> np.ndarray:
    """Apply one split slice to ``states``, with one step duration per column
    in ``deltas`` or one for all.

    ``states`` has shape (2, T) and holds its columns in sigma_x's
    eigenbasis. There each sigma_x half is the phase exp(-i E_x d (1-s)/2),
    and the middle factor is B† diag(exp(-i E_H s d)) B.
    """
    phases = qcore.phase_factors(energies, deltas)
    half, middle = phases[:2], phases[2:]
    return half * _mix(b_adj, middle * _mix(b, half * states))


def _ground_states(target: MolecularHamiltonian, s_values: np.ndarray) -> np.ndarray:
    """The ground state of each H(s_m), shape (M, 2).

    The M interpolated Hamiltonians are decomposed in one batched call and
    their gaps checked together. They need no Hermiticity check of their
    own: both terms already passed it.
    """
    energies, vectors = np.linalg.eigh(interpolated_hamiltonian(target, s_values))
    gaps = energies[:, 1] - energies[:, 0]
    degenerate = np.flatnonzero(gaps <= molham.GAP_TOL)
    if degenerate.size:
        m = degenerate[0]
        raise DegeneracyError(
            f"interpolated Hamiltonian is degenerate at s = {s_values[m]:.6f} (gap {gaps[m]:.3e})"
        )
    return vectors[:, :, 0]


def _sweep(
    target: MolecularHamiltonian, s_values: np.ndarray, total_times: np.ndarray
) -> Iterator[np.ndarray]:
    """Evolve |-> through the slices at ``s_values`` for every total time at once.

    Yields the states after each slice, shape (2, T), in sigma_x's
    eigenbasis; nothing is kept between slices, so a caller keeps only what
    it reads. Callers take the slices' ground states from
    ``_ground_states`` first, so every gap is checked before the first
    slice, and read fidelities with ``_fidelities``.
    """
    energies, b, b_adj = _slice_inputs(target, s_values)
    deltas = total_times / len(s_values)
    start = qcore.hermitian_eig(qcore.SIGMA_X).eigenvectors.conj().T @ qcore.KET_MINUS
    states = np.repeat(start[:, None], len(total_times), axis=1)
    for slice_energies in energies:
        states = _slice(states, slice_energies, deltas, b, b_adj)
        yield states


def _fidelities(grounds: np.ndarray, states: np.ndarray) -> np.ndarray:
    """|<g|psi>|^2 = |sum conj(V_x† g) psi|^2 per column, for states in sigma_x's eigenbasis.

    ``grounds`` holds one ground state per row, for one column of ``states``
    each or for all of them. Like the slice kernel this works column by
    column, so every number equals that of a sweep over its time alone.
    """
    weights = _mix(qcore.hermitian_eig(qcore.SIGMA_X).eigenvectors.conj().T, grounds.T).conj()
    return np.abs(weights[0] * states[0] + weights[1] * states[1]) ** 2


def run_asp(schedule: AdiabaticSchedule) -> ASPResult:
    """Evolve |-> through the discrete sweep, tracking instantaneous fidelity.

    This is the sweep of ``scan_total_time`` over the one total time of the
    schedule, with one batched decomposition of its M = ``steps`` slices;
    the final state is rotated back from sigma_x's eigenbasis with V_x.
    """
    s_values = schedule.s_values()
    grounds = _ground_states(schedule.target, s_values)
    sweep = _sweep(schedule.target, s_values, np.array([schedule.total_time]))
    states = np.concatenate(list(sweep), axis=1)  # (2, M): the state after each slice
    fidelities = _fidelities(grounds, states)
    return ASPResult(
        final_state=_mix(qcore.hermitian_eig(qcore.SIGMA_X).eigenvectors, states[:, -1:])[:, 0].copy(),
        fidelity=float(fidelities[-1]),
        per_step_fidelities=fidelities,
    )


def scan_total_time(
    target: MolecularHamiltonian, steps: int, t_grid
) -> list[tuple[float, float]]:
    """Fidelity of the ``steps``-slice sweep at each total time in the grid.

    One sweep evolves the states of every total time together, so a scan
    makes one batched decomposition of its M = ``steps`` slices, whatever
    the grid's length, and reads the fidelities after the last slice only.
    Each fidelity equals ``run_asp``'s at that time.
    """
    grid = np.asarray(t_grid, dtype=float)
    if grid.ndim != 1:
        raise ValidationError(f"time grid must be one-dimensional, got shape {grid.shape}")
    if grid.size == 0:
        raise ValidationError("time grid is empty")
    if not np.all(np.isfinite(grid)):
        raise ValidationError("time grid values must be finite")
    if np.any(grid <= 0):
        raise ValidationError("time grid values must be positive")
    if np.any(np.diff(grid) <= 0):
        raise ValidationError("time grid must be strictly ascending")
    # the schedule validates steps and the target's dimension
    schedule = AdiabaticSchedule(steps=steps, total_time=float(grid[0]), target=target)
    s_values = schedule.s_values()
    grounds = _ground_states(target, s_values)
    for states in _sweep(target, s_values, grid):
        pass
    return [(float(t), float(f)) for t, f in zip(grid, _fidelities(grounds[-1:], states))]
