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
elementwise, so a column rounds the same way whatever the batch. A sweep
asks ``qcore.hermitian_eig`` for sigma_x and the target once, decomposes
the M interpolated H(s_m) in one batched call, checking every gap before
the first slice, and returns the fidelities after the slices its caller
reads, keeping no other slice's states. ``run_asp`` is the sweep over one
time, reading every slice, ``scan_total_time`` the sweep over a grid,
reading the last, and ``trotter_step`` one slice.

Times are in inverse hartree; the hardware's millisecond clock is a
rescaling of the same dimensionless schedule, and ``scan_total_time``
locates the few-step high-fidelity regime directly. A sweep whose phase
scale max|E_slice| * max(T) passes 2^24 (T above about 9.06e6 for H2)
raises ``ValidationError``: float64 resolves its fidelity to 1e-9 only below.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import molham, qcore
from .errors import ValidationError
from .molham import MolecularHamiltonian

# The most slices in a schedule, and total times in a CLI scan. Peaks under
# tracemalloc: 9.5 MiB for a 2^16-step scan (15 MiB for run_asp, which keeps
# every step's state), 13 MiB for a 6-step scan of 2^16 times.
MAX_POINTS = 2**16
# The most slice-times (slices x total times) in one sweep, whose work grows
# with their product: 2^24 of them took 1.7-4.3 s on 2 shared CPUs, 2^16
# slices x 256 times the slowest; 2^16 x 2^16 would take about 20 minutes.
_MAX_SLICE_TIMES = 2**24
# The largest phase scale max|E_slice| * max(T) of a sweep. Against an 80-digit
# reference of the same sweep (2x2 targets, 1-200 slices) the fidelity's
# float64 error stayed below 3.1e-17 E T, so up to 2^24 it is below 1e-9; at
# 0.99 * 2^24 with 1000, 8192 and 2^16 slices it was at most 4.6e-11.
_MAX_ENERGY_TIME = 2.0**24


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
        qcore.require_positive("total time", self.total_time)
        if self.target.dim != 2:
            raise ValidationError(f"adiabatic sweep targets 2x2 systems, got dim {self.target.dim}")

    def s_values(self) -> np.ndarray:
        """Interpolation parameters per step; a single step jumps to s = 1."""
        if self.steps == 1:
            return np.array([1.0])
        return np.arange(self.steps) / (self.steps - 1)


class ASPResult(NamedTuple):
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
    qcore.require_positive("step duration", delta)
    if not 0.0 <= s_m <= 1.0:
        raise ValidationError(f"interpolation parameter must lie in [0, 1], got {s_m}")
    vx, energies, b, b_adj = _slice_inputs(target, np.array([s_m]))
    return _mix(vx, _slice(vx.conj().T, energies[0], delta, b, b_adj))


def _slice_inputs(target: MolecularHamiltonian, s_values: np.ndarray):
    """Sigma_x's eigenvectors V_x, the phase energies of every slice, shape
    (M, 4, 1), and B = V_H† V_x with B†.

    Slice m's energies are (E_x (1-s_m)/2, E_H s_m): a slice of duration d
    has the sigma_x half phases exp(-i energies[:2] d) and the middle
    phases exp(-i energies[2:] d).
    """
    x_dec, h_dec = qcore.hermitian_eig(qcore.SIGMA_X), qcore.hermitian_eig(target.matrix)
    s = s_values[:, None]
    energies = np.concatenate([0.5 * (1.0 - s) * x_dec.energies, s * h_dec.energies], axis=1)
    b = h_dec.eigenvectors.conj().T @ x_dec.eigenvectors
    return x_dec.eigenvectors, energies[:, :, None], b, b.conj().T


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


def _sweep(target: MolecularHamiltonian, s_values: np.ndarray, total_times: np.ndarray, read: slice):
    """Evolve |-> through the slices at ``s_values`` for every total time at
    once. Return V_x, the final states, shape (2, T), in sigma_x's
    eigenbasis, and the fidelities after the slices that ``read`` selects.

    The M interpolated H(s_m) are decomposed in one batched ``eigh``, so
    ``molham.require_gap`` judges every gap before any slice; more than
    ``_MAX_SLICE_TIMES`` slices x times raise before the ``eigh``. A state psi
    in sigma_x's eigenbasis has fidelity |w0 psi0 + w1 psi1|^2,
    w = conj(V_x† g_m). Only the read slices' states are kept: a caller
    reads one slice (the scan) or sweeps one total time (``run_asp``), so
    the kept states, side by side, give their fidelities in one row. A
    phase scale max|E_slice| * max(T) past ``_MAX_ENERGY_TIME`` raises
    before any slice.
    """
    if len(s_values) * len(total_times) > _MAX_SLICE_TIMES:
        raise ValidationError(
            f"a sweep of {len(s_values)} slices x {len(total_times)} total times"
            f" exceeds the {_MAX_SLICE_TIMES} slice-times one sweep may take"
        )
    levels, vectors = np.linalg.eigh(interpolated_hamiltonian(target, s_values))
    for m in range(len(s_values)):
        lo, hi = levels[m].tolist()
        molham.require_gap(lo, hi, "H(s) at s = %.6f", s_values[m])
    del levels  # freed, with vectors below, so that the batched eigh stays the peak
    vx, energies, b, b_adj = _slice_inputs(target, s_values)
    energy_time = max(energies.max(), -energies.min()) * total_times.max()
    if not energy_time <= _MAX_ENERGY_TIME:
        raise ValidationError(
            f"a sweep's max|E|*T = {energy_time:.6g} exceeds 2^24, past which float64"
            " cannot resolve its fidelity to 1e-9"
        )
    weights = _mix(vx.conj().T, vectors[read, :, 0].T).conj()
    del vectors
    deltas = total_times / len(s_values)
    reads = range(len(s_values))[read]
    states = np.repeat((vx.conj().T @ qcore.KET_MINUS)[:, None], len(total_times), axis=1)
    kept = []
    for m, slice_energies in enumerate(energies):
        states = _slice(states, slice_energies, deltas, b, b_adj)
        if m in reads:
            kept.append(states)
    del s_values, energies, slice_energies  # freed before the kept states are joined
    kept = np.concatenate(kept, axis=1)
    return vx, states, np.abs(weights[0] * kept[0] + weights[1] * kept[1]) ** 2


def run_asp(schedule: AdiabaticSchedule) -> ASPResult:
    """Evolve |-> through the discrete sweep, tracking instantaneous fidelity.

    This is the sweep of ``scan_total_time`` over the one total time of the
    schedule, reading the fidelity after every slice; the final state is
    rotated back from sigma_x's eigenbasis with V_x.
    """
    vx, states, fidelities = _sweep(schedule.target, schedule.s_values(), np.array([schedule.total_time]), slice(None))
    return ASPResult(
        final_state=_mix(vx, states)[:, 0].copy(),
        fidelity=float(fidelities[-1]),
        per_step_fidelities=fidelities,
    )


def scan_total_time(target: MolecularHamiltonian, steps: int, t_grid) -> list[tuple[float, float]]:
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
    qcore.require_magnitude("time grid values", np.abs(grid).max())
    if np.any(grid <= 0):
        raise ValidationError("time grid values must be positive")
    if np.any(np.diff(grid) <= 0):
        raise ValidationError("time grid must be strictly ascending")
    # the schedule validates steps and the target's dimension
    schedule = AdiabaticSchedule(steps=steps, total_time=float(grid[0]), target=target)
    _, _, fidelities = _sweep(target, schedule.s_values(), grid, slice(-1, None))
    return [(float(t), float(f)) for t, f in zip(grid, fidelities)]
