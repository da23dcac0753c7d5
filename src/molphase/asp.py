"""Adiabatic preparation of the target ground state.

The sweep deforms sigma_x into the target Hamiltonian through the linear
family H(s) = (1-s) sigma_x + s H, starting from |-> = (|up> - |down>)/
sqrt(2), the ground state of sigma_x. Discretization uses the symmetric
split

    exp(-i (d/2)(1-s) sigma_x) exp(-i s H d) exp(-i (d/2)(1-s) sigma_x)

whose per-step error is O(d^3). A schedule of M = ``steps`` slices
samples s_m = m/(M-1) for m = 0..M-1 (one slice jumps to s = 1), so the
sweep starts exactly at sigma_x and ends exactly at H.

One sweep evolves the states of many total times together. Sigma_x is
diagonalised once per process and the target once per Hamiltonian (the
decomposition ``molham.spectrum`` keeps); each H(s_m) is diagonalised once
per sweep for its ground state and gap, which do not depend on the total
time. A sweep therefore makes M eigendecompositions however many times it
covers; ``run_asp`` is the sweep over one time and ``scan_total_time`` the
sweep over a grid.

Times are in inverse hartree; the hardware's millisecond clock is a
rescaling of the same dimensionless schedule, and ``scan_total_time``
locates the few-step high-fidelity regime directly.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cache

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
    return _slices(_sigma_x_eig(), target._eigen, s_m, np.array([delta]))[0]


@cache
def _sigma_x_eig() -> qcore.EigenDecomposition:
    # computed on first use, so importing the package makes no LAPACK call
    return qcore.hermitian_eig(qcore.SIGMA_X)


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
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Evolve |-> through the slices at ``s_values`` for every total time at once.

    After each slice yields the instantaneous ground state of H(s_m) and the
    states of every total time, shape (T, 2, 1); nothing is kept between
    slices, so a caller reads only the fidelities it returns. Read each with
    ``np.vdot`` on one state (other contractions round differently in the
    last bit), so every number equals that of a sweep over its time alone.
    """
    x_dec, h_dec = _sigma_x_eig(), target._eigen
    deltas = total_times / len(s_values)
    states = np.tile(qcore.KET_MINUS[:, None], (len(total_times), 1, 1))
    for s_m in s_values:
        states = _slices(x_dec, h_dec, s_m, deltas) @ states
        yield _instantaneous_ground(target, s_m), states


def run_asp(schedule: AdiabaticSchedule) -> ASPResult:
    """Evolve |-> through the discrete sweep, tracking instantaneous fidelity.

    This is the sweep of ``scan_total_time`` over the one total time of the
    schedule: M eigendecompositions for M = ``steps`` slices.
    """
    fidelities = []
    sweep = _sweep(schedule.target, schedule.s_values(), np.array([schedule.total_time]))
    for ground, states in sweep:
        fidelities.append(abs(np.vdot(ground, states[0])) ** 2)
    return ASPResult(
        final_state=states[0, :, 0].copy(),
        fidelity=float(fidelities[-1]),
        per_step_fidelities=np.array(fidelities),
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
    makes M eigendecompositions for M = ``steps`` slices, whatever the
    grid's length, and reads the fidelities after the last slice only.
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
    for ground, states in _sweep(target, schedule.s_values(), grid):
        pass  # every slice still checks its gap
    return [(float(t), float(abs(np.vdot(ground, state)) ** 2)) for t, state in zip(grid, states)]
