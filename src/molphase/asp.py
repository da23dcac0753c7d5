"""Adiabatic preparation of the target ground state.

The sweep deforms sigma_x into the target Hamiltonian through the linear
family H(s) = (1-s) sigma_x + s H, starting from |-> = (|up> - |down>)/
sqrt(2), the ground state of sigma_x. Discretization uses the symmetric
split

    exp(-i (d/2)(1-s) sigma_x) exp(-i s H d) exp(-i (d/2)(1-s) sigma_x)

whose per-step error is O(d^3). A schedule of M = ``steps`` slices
samples s_m = m/(M-1) for m = 0..M-1 (one slice jumps to s = 1), so the
sweep starts exactly at sigma_x and ends exactly at H.

One sweep evolves the states of many total times together: sigma_x and H
are diagonalised once, and each H(s_m) once for its ground state and gap,
which do not depend on the total time. A sweep therefore makes 2 + M
eigendecompositions however many times it covers; ``run_asp`` is the sweep
over one time and ``scan_total_time`` the sweep over a grid.

Times are in inverse hartree; the hardware's millisecond clock is a
rescaling of the same dimensionless schedule, and ``scan_total_time``
locates the few-step high-fidelity regime directly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import molham, qcore
from .errors import DegeneracyError, ValidationError
from .molham import MolecularHamiltonian


@dataclass(frozen=True)
class AdiabaticSchedule:
    """Discrete sweep: M = ``steps`` slices over total time T."""

    steps: int
    total_time: float
    target: MolecularHamiltonian

    def __post_init__(self):
        if self.steps < 1:
            raise ValidationError(f"steps must be >= 1, got {self.steps}")
        if not math.isfinite(self.total_time):
            raise ValidationError(f"total time must be finite, got {self.total_time}")
        if not self.total_time > 0:
            raise ValidationError(f"total time must be positive, got {self.total_time}")
        if self.target.dim != 2:
            raise ValidationError(f"adiabatic sweep targets 2x2 systems, got dim {self.target.dim}")

    @property
    def step_duration(self) -> float:
        return self.total_time / self.steps

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
    schedule: AdiabaticSchedule


def interpolated_hamiltonian(target: MolecularHamiltonian, s: float) -> np.ndarray:
    """(1-s) sigma_x + s H."""
    if not 0.0 <= s <= 1.0:
        raise ValidationError(f"interpolation parameter must lie in [0, 1], got {s}")
    if target.dim != 2:
        raise ValidationError(f"interpolation targets 2x2 systems, got dim {target.dim}")
    return (1.0 - s) * qcore.SIGMA_X + s * target.matrix


def trotter_step(target: MolecularHamiltonian, s_m: float, delta: float) -> np.ndarray:
    """One symmetric-split slice of duration ``delta`` at parameter ``s_m``.

    The one-duration case of the slice kernel the sweep applies.
    """
    if not (math.isfinite(delta) and delta > 0):
        raise ValidationError(f"step duration must be finite and positive, got {delta}")
    if not 0.0 <= s_m <= 1.0:
        raise ValidationError(f"interpolation parameter must lie in [0, 1], got {s_m}")
    x_dec = qcore.hermitian_eig(qcore.SIGMA_X)
    h_dec = qcore.hermitian_eig(target.matrix)
    return _slices(x_dec, h_dec, s_m, np.array([delta]))[0]


def _slices(x_dec, h_dec, s_m: float, deltas: np.ndarray) -> np.ndarray:
    """Stack of split slices at ``s_m``, one per step duration in ``deltas``.

    ``x_dec`` and ``h_dec`` decompose sigma_x and the target; every slice
    is half @ middle @ half, with each factor V diag(exp(-i E t)) V†.
    """
    half = x_dec.propagator(0.5 * deltas * (1.0 - s_m))
    middle = h_dec.propagator(s_m * deltas)
    return half @ middle @ half


def _sweep(
    target: MolecularHamiltonian, s_values: np.ndarray, total_times: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Evolve |-> through the slices at ``s_values`` for every total time at once.

    Returns the final states, shape (T, 2, 1), and the fidelity after each
    slice, shape (T, M). Each fidelity is read with ``np.vdot`` on one
    state (other contractions round differently in the last bit), so every
    number equals that of a sweep over its time alone.
    """
    x_dec = qcore.hermitian_eig(qcore.SIGMA_X)
    h_dec = qcore.hermitian_eig(target.matrix)
    deltas = total_times / len(s_values)
    states = np.tile(qcore.KET_MINUS[:, None], (len(total_times), 1, 1))
    fidelities = np.empty((len(total_times), len(s_values)))
    for m, s_m in enumerate(s_values):
        states = _slices(x_dec, h_dec, s_m, deltas) @ states
        ground = _instantaneous_ground(target, s_m)
        fidelities[:, m] = [abs(np.vdot(ground, state)) ** 2 for state in states]
    return states, fidelities


def run_asp(schedule: AdiabaticSchedule) -> ASPResult:
    """Evolve |-> through the discrete sweep, tracking instantaneous fidelity.

    This is the sweep of ``scan_total_time`` over the one total time of the
    schedule: 2 + M eigendecompositions for M = ``steps`` slices.
    """
    states, fidelities = _sweep(
        schedule.target, schedule.s_values(), np.array([schedule.total_time])
    )
    return ASPResult(
        final_state=states[0, :, 0].copy(),
        fidelity=float(fidelities[0, -1]),
        per_step_fidelities=fidelities[0].copy(),
        schedule=schedule,
    )


def _instantaneous_ground(target: MolecularHamiltonian, s: float) -> np.ndarray:
    h_s = interpolated_hamiltonian(target, s)
    dec = qcore.hermitian_eig(h_s)
    gap = dec.energies[1] - dec.energies[0]
    if gap <= molham.GAP_TOL:
        raise DegeneracyError(f"interpolated Hamiltonian is degenerate at s = {s:.6f} (gap {gap:.3e})")
    return dec.ground_state


def scan_total_time(
    target: MolecularHamiltonian, steps: int, t_grid
) -> list[tuple[float, float]]:
    """Fidelity of the ``steps``-slice sweep at each total time in the grid.

    One sweep evolves the states of every total time together, so a scan
    makes 2 + M eigendecompositions for M = ``steps`` slices, whatever the
    grid's length. Each fidelity equals ``run_asp``'s at that time.
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
    _, fidelities = _sweep(target, schedule.s_values(), grid)
    return [(float(t), float(f)) for t, f in zip(grid, fidelities[:, -1])]
