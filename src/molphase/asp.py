"""Adiabatic preparation of the target ground state.

The sweep deforms sigma_x into the target Hamiltonian through the linear
family H(s) = (1-s) sigma_x + s H, starting from |-> = (|up> - |down>)/
sqrt(2), the ground state of sigma_x. Discretization uses the symmetric
split

    exp(-i (d/2)(1-s) sigma_x) exp(-i s H d) exp(-i (d/2)(1-s) sigma_x)

whose per-step error is O(d^3). The schedule samples s_m = m/M for
m = 0..M so the sweep starts exactly at sigma_x and ends exactly at H.

Times are in inverse hartree; the hardware's millisecond clock is a
rescaling of the same dimensionless schedule, and ``scan_total_time``
locates the few-step high-fidelity regime directly.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import molham, qcore
from .errors import DegeneracyError, ValidationError
from .molham import MolecularHamiltonian


@dataclass(frozen=True)
class AdiabaticSchedule:
    """Discrete sweep: ``steps`` = M+1 slices over total time T."""

    steps: int
    total_time: float
    target: MolecularHamiltonian

    def __post_init__(self):
        if self.steps < 1:
            raise ValidationError(f"steps must be >= 1, got {self.steps}")
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
    """One symmetric-split slice of duration ``delta`` at parameter ``s_m``."""
    if not delta > 0:
        raise ValidationError(f"step duration must be positive, got {delta}")
    if not 0.0 <= s_m <= 1.0:
        raise ValidationError(f"interpolation parameter must lie in [0, 1], got {s_m}")
    half = qcore.expm_herm(qcore.SIGMA_X, 0.5 * delta * (1.0 - s_m))
    middle = qcore.expm_herm(target.matrix, s_m * delta)
    return half @ middle @ half


def run_asp(schedule: AdiabaticSchedule) -> ASPResult:
    """Evolve |-> through the discrete sweep, tracking instantaneous fidelity."""
    delta = schedule.step_duration
    state = qcore.KET_MINUS.copy()
    fidelities = []
    for s_m in schedule.s_values():
        state = trotter_step(schedule.target, s_m, delta) @ state
        ground = _instantaneous_ground(schedule.target, s_m)
        fidelities.append(abs(np.vdot(ground, state)) ** 2)
    return ASPResult(
        final_state=state,
        fidelity=float(fidelities[-1]),
        per_step_fidelities=np.array(fidelities),
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
    """Fidelity of the ``steps``-slice sweep at each total time in the grid."""
    grid = np.asarray(t_grid, dtype=float)
    if grid.size == 0:
        raise ValidationError("time grid is empty")
    if np.any(grid <= 0):
        raise ValidationError("time grid values must be positive")
    if np.any(np.diff(grid) <= 0):
        raise ValidationError("time grid must be strictly ascending")
    out = []
    for t in grid:
        result = run_asp(AdiabaticSchedule(steps=steps, total_time=float(t), target=target))
        out.append((float(t), result.fidelity))
    return out
