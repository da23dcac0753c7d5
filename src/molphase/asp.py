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
phase from ``qcore.phase_factors``, one call per block of slices; every
2x2 product is written out elementwise, so a column rounds the same way
whatever the batch. What a sweep needs of its target and step count alone
is planned once and kept for the next sweep of both: sigma_x and the target
asked of ``qcore.hermitian_eig`` once, the M interpolated H(s_m) decomposed
in one batched call, every gap checked before the first slice, and the
ground-state weights. A sweep returns the fidelities after the slices its
caller reads, keeping no other slice's states. ``run_asp`` is the sweep
over one time, reading every slice, ``scan_total_time`` the sweep over a
grid, and ``trotter_step`` one slice. A scan of at most
``_BLOCK_SLICE_TIMES`` slice-times reads every slice and keeps its final
states and fidelities in a read-only record, so the ``run_asp`` at one of
its times after it is served from the record and sweeps nothing; a longer
scan reads the last slice only, and shares its plan with the ``run_asp``
after it.

Times are in inverse hartree; the hardware's millisecond clock is a
rescaling of the same dimensionless schedule, and ``scan_total_time``
locates the few-step high-fidelity regime directly. A sweep whose phase
scale max|E_slice| * max(T) passes 2^24 (T above about 9.06e6 for H2)
raises ``ValidationError``: float64 resolves its fidelity to 1e-9 only below.
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import molham, qcore
from .errors import ValidationError
from .molham import MolecularHamiltonian

# The most slices in a schedule, and total times in a CLI scan. Peaks under
# tracemalloc, each from a cleared plan and record: 9.50 MiB for a 2^16-step
# scan and for run_asp, which keeps every step's state, 13.0 MiB for a 6-step
# scan of 2^16 times; both scans are past ``_BLOCK_SLICE_TIMES`` and keep
# no record.
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
# Sweep plans ``_plan`` keeps: the last is enough for a scan and a run_asp after it
# that the scan's record does not serve.
_PLAN_CACHE_SIZE = 1
# The most slice-times whose phases one ``qcore.phase_factors`` call forms in
# a sweep: 4 phases each, about 640 KiB with their temporaries. A scan of at
# most this many reads every slice and keeps them in ``_record``, at most
# 192 KiB.
_BLOCK_SLICE_TIMES = 2**12


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
        # a float32 or float16 time would round its slice durations in its own precision
        object.__setattr__(self, "total_time", float(self.total_time))

    def s_values(self) -> np.ndarray:
        """Interpolation parameters per step; a single step jumps to s = 1."""
        return _s_values(self.steps)


def _s_values(steps: int) -> np.ndarray:
    """s_m = m/(M-1) for m = 0..M-1, M = ``steps``; a single step is s = 1."""
    if steps == 1:
        return np.array([1.0])
    return np.arange(steps) / (steps - 1)


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
    return _interpolated(target.matrix, s)


def _interpolated(matrix: np.ndarray, s: np.ndarray) -> np.ndarray:
    """(1-s) sigma_x + s ``matrix``, for ``s`` shaped to broadcast against the 2x2 factors."""
    return (1.0 - s) * qcore.SIGMA_X + s * matrix


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
    vx, energies, b, b_adj = _slice_inputs(target.matrix, np.array([s_m]))
    return _mix(vx, _slice(vx.conj().T, qcore.phase_factors(energies[0], delta), b, b_adj))


def _slice_inputs(matrix: np.ndarray, s_values: np.ndarray):
    """Sigma_x's eigenvectors V_x, the phase energies of every slice, shape
    (M, 4, 1), and B = V_H† V_x with B†.

    Slice m's energies are (E_x (1-s_m)/2, E_H s_m): a slice of duration d
    has the sigma_x half phases exp(-i energies[:2] d) and the middle
    phases exp(-i energies[2:] d).
    """
    x_dec, h_dec = qcore.hermitian_eig(qcore.SIGMA_X), qcore.hermitian_eig(matrix)
    s = s_values[:, None]
    energies = np.concatenate([0.5 * (1.0 - s) * x_dec.energies, s * h_dec.energies], axis=1)
    b = h_dec.eigenvectors.conj().T @ x_dec.eigenvectors
    return x_dec.eigenvectors, energies[:, :, None], b, b.conj().T


def _mix(m: np.ndarray, states: np.ndarray) -> np.ndarray:
    """``m @ states`` for a 2x2 ``m``, elementwise, so a column rounds alike in any batch."""
    return m[:, :1] * states[0] + m[:, 1:] * states[1]


def _slice(states: np.ndarray, phases: np.ndarray, b, b_adj) -> np.ndarray:
    """Apply one split slice to ``states`` given its phases, shape (4, T) or
    (4, 1): the sigma_x halves exp(-i E_x d (1-s)/2) in rows 0-1 and the
    middle exp(-i E_H s d) in rows 2-3, one step duration d per column.

    ``states`` has shape (2, T) and holds its columns in sigma_x's
    eigenbasis. There each sigma_x half is an elementwise phase, and the
    middle factor is B† diag(middle) B.
    """
    half, middle = phases[:2], phases[2:]
    return half * _mix(b_adj, middle * _mix(b, half * states))


class _Plan(NamedTuple):
    """What a sweep of one target over M slices needs, whatever its total
    times: V_x, the slice energies, shape (M, 4, 1), B and B†, the
    ground-state weights w_m = conj(V_x† g_m), shape (2, M), the phase
    scale max|E_slice| and the start state V_x† |->."""

    vx: np.ndarray
    energies: np.ndarray
    b: np.ndarray
    b_adj: np.ndarray
    weights: np.ndarray
    scale: float
    start: np.ndarray


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _plan(data: bytes, steps: int) -> _Plan:
    """The read-only plan of the ``steps``-slice sweep of the 2x2 target
    whose complex128 entries are ``data``.

    The M interpolated H(s_m) are decomposed in one batched ``eigh``, so
    ``molham.require_gap`` judges every gap before any slice; a target it
    refuses raises on every call and is never kept.
    """
    matrix = np.frombuffer(data, dtype=complex).reshape(2, 2)
    s_values = _s_values(steps)
    levels, vectors = np.linalg.eigh(_interpolated(matrix, s_values[:, None, None]))
    for m in range(steps):
        lo, hi = levels[m].tolist()
        molham.require_gap(lo, hi, "H(s) at s = %.6f", s_values[m])
    ground = vectors[:, :, 0].copy()
    del levels, vectors  # freed before the slice inputs, so that the batched eigh stays the peak
    vx, energies, b, b_adj = _slice_inputs(matrix, s_values)
    weights = _mix(vx.conj().T, ground.T).conj()
    plan = _Plan(vx, energies, b, b_adj, weights, max(energies.max(), -energies.min()), vx.conj().T @ qcore.KET_MINUS)
    for array in (plan.energies, plan.b, plan.b_adj, plan.weights, plan.start):
        array.flags.writeable = False
    return plan


class _Record(NamedTuple):
    """What a scan that read every slice keeps for a ``run_asp`` at one of
    its times: the target's complex128 bytes, the step count, the grid's
    times, V_x, the final states in sigma_x's eigenbasis, shape (2, T), and
    the fidelities after every slice, shape (M, T); the arrays are read-only."""

    data: bytes
    steps: int
    times: tuple[float, ...]
    vx: np.ndarray
    states: np.ndarray
    fidelities: np.ndarray


# The record of the last scan that read every slice, replaced whole, never written.
_record: _Record | None = None


def _sweep(target: MolecularHamiltonian, steps: int, total_times: np.ndarray, read: slice):
    """Evolve |-> through the ``steps`` slices for every total time at once.
    Return V_x, the final states, shape (2, T), in sigma_x's eigenbasis, and
    the fidelities after the R slices that ``read`` selects, shape (R, T).

    More than ``_MAX_SLICE_TIMES`` slices x times raise before the plan
    (``_plan``, shared by every sweep of the same target and step count)
    is made, and a phase scale max|E_slice| * max(T) past
    ``_MAX_ENERGY_TIME`` raises before any slice. The phases are formed
    one ``qcore.phase_factors`` call per block of at most
    ``_BLOCK_SLICE_TIMES`` slice-times (one slice when the times alone are
    more), each block released before the next. A state psi in sigma_x's
    eigenbasis has fidelity |w0 psi0 + w1 psi1|^2. Only the read slices'
    states are kept, shape (2, R, T), and give their fidelities in one
    expression.
    """
    if steps * len(total_times) > _MAX_SLICE_TIMES:
        raise ValidationError(
            f"a sweep of {steps} slices x {len(total_times)} total times"
            f" exceeds the {_MAX_SLICE_TIMES} slice-times one sweep may take"
        )
    vx, energies, b, b_adj, weights, scale, start = _plan(target.matrix.tobytes(), steps)
    energy_time = scale * total_times.max()
    if not energy_time <= _MAX_ENERGY_TIME:
        raise ValidationError(
            f"a sweep's max|E|*T = {energy_time:.6g} exceeds 2^24, past which float64"
            " cannot resolve its fidelity to 1e-9"
        )
    deltas = total_times / steps
    reads = range(steps)[read]
    block = max(1, _BLOCK_SLICE_TIMES // len(total_times))
    states = np.repeat(start[:, None], len(total_times), axis=1)
    for first in range(0, steps, block):
        phases = qcore.phase_factors(energies[first : first + block], deltas)
        for m, slice_phases in enumerate(phases, first):
            states = _slice(states, slice_phases, b, b_adj)
            if m == reads.start:  # not before, so that it adds nothing to the unread slices' peak
                kept = np.empty((2, len(reads), len(total_times)), dtype=complex)
            if m in reads:
                kept[:, m - reads.start] = states
        del phases, slice_phases  # released before the next block is formed
    return vx, states, np.abs(weights[0, read, None] * kept[0] + weights[1, read, None] * kept[1]) ** 2


def _served(schedule: AdiabaticSchedule):
    """The record's V_x, final state, shape (2, 1), and fidelities, shape
    (M, 1), at the schedule's total time, or None unless the recorded scan
    swept this target at this step count through exactly that time.

    The scan passed every check the sweep would make: the same plan's gaps,
    the phase scale at its largest time, at least the schedule's, and the
    slice-time bound at M x T >= M.
    """
    record = _record
    if record is None or record.steps != schedule.steps or record.data != schedule.target.matrix.tobytes():
        return None
    t = bisect.bisect_left(record.times, schedule.total_time)
    if t == len(record.times) or record.times[t] != schedule.total_time:
        return None
    return record.vx, record.states[:, t : t + 1], record.fidelities[:, t : t + 1]


def run_asp(schedule: AdiabaticSchedule) -> ASPResult:
    """Evolve |-> through the discrete sweep, tracking instantaneous fidelity.

    This is the sweep of ``scan_total_time`` over the one total time of the
    schedule, reading the fidelity after every slice; the final state is
    rotated back from sigma_x's eigenbasis with V_x. When the last scan
    that read every slice had this target, step count and, exactly, this
    total time, the result is copied from its record, bit for bit what
    the sweep would give, and nothing is swept.
    """
    served = _served(schedule)
    if served is None:
        served = _sweep(schedule.target, schedule.steps, np.array([schedule.total_time]), slice(None))
    vx, states, fidelities = served
    return ASPResult(
        final_state=_mix(vx, states)[:, 0].copy(),
        fidelity=float(fidelities[-1, 0]),
        per_step_fidelities=fidelities[:, 0].copy(),
    )


def scan_total_time(target: MolecularHamiltonian, steps: int, t_grid) -> list[tuple[float, float]]:
    """Fidelity of the ``steps``-slice sweep at each total time in the grid.

    One sweep evolves the states of every total time together, so a scan
    makes one batched decomposition of its M = ``steps`` slices, whatever
    the grid's length. Each fidelity equals ``run_asp``'s at that time.
    A scan of at most ``_BLOCK_SLICE_TIMES`` slice-times reads the
    fidelities after every slice and records them with the final states,
    replacing the last record, so that a ``run_asp`` of the same target and
    steps at one of its times is served from them. A longer scan reads the
    last slice only, records nothing, and a ``run_asp`` after it reuses its
    plan. A refused scan leaves the record as it was.
    """
    global _record
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
    every = schedule.steps * grid.size <= _BLOCK_SLICE_TIMES
    vx, states, fidelities = _sweep(target, schedule.steps, grid, slice(None) if every else slice(-1, None))
    times = grid.tolist()
    if every:
        states.flags.writeable = fidelities.flags.writeable = False
        _record = _Record(target.matrix.tobytes(), schedule.steps, tuple(times), vx, states, fidelities)
    return list(zip(times, fidelities[-1].tolist()))
