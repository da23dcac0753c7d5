"""Pulse-level two-spin backend.

The natural two-spin Hamiltonian is diagonal in the doubly rotating frame,

    H = (w_p/2) sz x I + (w_s/2) I x sz + (pi J / 2) sz x sz   [rad/s],

with both offsets zero by default (on resonance), so free evolution is a
pure J coupling. Pulses are instantaneous rotations about any transverse
axis; z rotations are composed from two pi pulses. The compiler reduces an
arbitrary controlled-U to single-spin pulses plus J-coupling delays of at
most 1/(2J) per entangling block and verifies the result against the exact
gate, up to global phase, before returning it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ipea, molham, probe, qcore
from .errors import CompilationError, ValidationError
from .ipea import IpeaResult, IterationConfig
from .molham import MolecularHamiltonian

SPINS = ("probe", "system", "both")
AXIS_TOL = 1e-12
ANGLE_TOL = 1e-12
COMPILE_FIDELITY_FLOOR = 1.0 - 1e-9

@dataclass(frozen=True)
class SpinSystem:
    """Rotating-frame offsets (rad/s) and the scalar J coupling (Hz)."""

    omega_probe: float = 0.0
    omega_system: float = 0.0
    j_coupling: float = 214.6


@dataclass(frozen=True)
class PulseEvent:
    """Instantaneous rotation exp(-i (angle/2) (cos(phase) sx + sin(phase) sy))
    on the addressed spin(s); ``phase`` picks the transverse axis."""

    spin: str
    phase: float
    angle: float

    def __post_init__(self):
        if self.spin not in SPINS:
            raise ValidationError(f"spin must be one of {SPINS}, got {self.spin!r}")


@dataclass(frozen=True)
class DelayEvent:
    """Free evolution exp(-i H duration) under the natural Hamiltonian."""

    duration: float

    def __post_init__(self):
        if self.duration < 0:
            raise ValidationError(f"delay must be >= 0, got {self.duration}")


@dataclass(frozen=True)
class PulseSequence:
    """Ordered events realizing ``intended_unitary`` to ``achieved_fidelity``."""

    events: tuple
    intended_unitary: np.ndarray
    achieved_fidelity: float


def nmr_hamiltonian(sys: SpinSystem) -> np.ndarray:
    """The diagonal 4x4 two-spin Hamiltonian in rad/s."""
    zz = np.kron(qcore.SIGMA_Z, qcore.SIGMA_Z)
    return (
        0.5 * sys.omega_probe * np.kron(qcore.SIGMA_Z, qcore.ID2)
        + 0.5 * sys.omega_system * np.kron(qcore.ID2, qcore.SIGMA_Z)
        + 0.5 * np.pi * sys.j_coupling * zz
    )


def transverse_rotation(phase: float, angle: float) -> np.ndarray:
    """Single-spin rotation about the transverse axis at azimuth ``phase``."""
    axis = np.cos(phase) * qcore.SIGMA_X + np.sin(phase) * qcore.SIGMA_Y
    return np.cos(angle / 2.0) * qcore.ID2 - 1j * np.sin(angle / 2.0) * axis


def event_unitary(event, sys: SpinSystem, over_rotation: float = 0.0) -> np.ndarray:
    """4x4 unitary of a single event; ``over_rotation`` scales pulse angles."""
    if isinstance(event, DelayEvent):
        return qcore.expm_herm(nmr_hamiltonian(sys), event.duration)
    if isinstance(event, PulseEvent):
        r = transverse_rotation(event.phase, event.angle * (1.0 + over_rotation))
        if event.spin == "probe":
            return np.kron(r, qcore.ID2)
        if event.spin == "system":
            return np.kron(qcore.ID2, r)
        return np.kron(r, r)
    raise ValidationError(f"unknown event type {type(event).__name__}")


def evolve_sequence(seq, sys: SpinSystem, over_rotation: float = 0.0) -> np.ndarray:
    """Ordered product of event unitaries (first event acts first)."""
    events = seq.events if isinstance(seq, PulseSequence) else tuple(seq)
    u = np.eye(4, dtype=complex)
    for event in events:
        u = event_unitary(event, sys, over_rotation) @ u
    return u


def gate_fidelity(intended: np.ndarray, realized: np.ndarray) -> float:
    """|Tr(A† B)| / dim, insensitive to global phase."""
    dim = intended.shape[0]
    return float(abs(np.trace(intended.conj().T @ realized)) / dim)


def _z_rotation_events(spin: str, angle: float) -> list:
    """Rz(angle) on one spin from two pi pulses about transverse axes.

    R_{phi2}(pi) R_{phi1}(pi) = Rz(2 (phi2 - phi1)) up to global phase.
    """
    a = (angle + np.pi) % (2.0 * np.pi) - np.pi
    if abs(a) < ANGLE_TOL:
        return []
    return [PulseEvent(spin, 0.0, np.pi), PulseEvent(spin, a / 2.0, np.pi)]


def _zz_block(zeta: float, j_coupling: float) -> list:
    """Events for exp(-i zeta sz x sz); negative zeta is sign-flipped by a
    pi-pulse sandwich on the probe. |zeta| <= pi/4 keeps the delay <= 1/(2J)."""
    if abs(zeta) < ANGLE_TOL:
        return []
    delay = DelayEvent(2.0 * abs(zeta) / (np.pi * j_coupling))
    if zeta >= 0.0:
        return [delay]
    return [PulseEvent("probe", 0.0, np.pi), delay, PulseEvent("probe", 0.0, np.pi)]


def _su2_factor(u: np.ndarray) -> tuple[float, float, np.ndarray]:
    """Split u = e^{i alpha} exp(-i (theta/2) n.sigma) with theta in [0, pi]."""
    alpha = 0.5 * np.angle(np.linalg.det(u))
    v = np.exp(-1j * alpha) * u
    if np.trace(v).real < 0.0:
        alpha += np.pi
        v = -v
    cos_half = np.trace(v).real / 2.0
    sin_vec = np.array([-v[0, 1].imag, -v[0, 1].real, -v[0, 0].imag])
    sin_half = np.linalg.norm(sin_vec)
    theta = 2.0 * np.arctan2(sin_half, cos_half)
    axis = sin_vec / sin_half if sin_half > AXIS_TOL else np.array([0.0, 0.0, 1.0])
    alpha = (alpha + np.pi) % (2.0 * np.pi) - np.pi
    return alpha, theta, axis


def compile_controlled_u(u, sys: SpinSystem) -> PulseSequence:
    """Compile |up><up| x I + |down><down| x u into pulses and delays.

    The rotation part of u is conjugated onto the z axis, its controlled
    half is realized by one J-coupling block, and the global phase of u
    becomes a probe z rotation. Raises if the verified fidelity falls
    below 1 - 1e-9.
    """
    m = qcore.require_unitary(u, name="target gate")
    if m.shape[0] != 2:
        raise ValidationError(f"pulse compiler targets single-qubit gates, got dim {m.shape[0]}")
    if not sys.j_coupling > 0:
        raise ValidationError(f"compilation needs a positive J coupling, got {sys.j_coupling}")

    alpha, theta, axis = _su2_factor(m)
    events: list = []
    if theta > ANGLE_TOL:
        nx, ny, nz = axis
        if abs(nx) < AXIS_TOL and abs(ny) < AXIS_TOL:
            # z-axis rotation: the coupling block alone does the controlled half
            sign = 1.0 if nz > 0 else -1.0
            events += _zz_block(-sign * theta / 4.0, sys.j_coupling)
            events += _z_rotation_events("system", sign * theta / 2.0)
        else:
            tilt = np.arccos(np.clip(nz, -1.0, 1.0))
            azimuth = np.arctan2(nx, -ny)
            events.append(PulseEvent("system", azimuth, -tilt))
            events += _zz_block(-theta / 4.0, sys.j_coupling)
            events += _z_rotation_events("system", theta / 2.0)
            events.append(PulseEvent("system", azimuth, tilt))
    events += _z_rotation_events("probe", alpha)

    intended = probe.controlled_u(m)
    realized = evolve_sequence(events, sys)
    fidelity = gate_fidelity(intended, realized)
    if fidelity < COMPILE_FIDELITY_FLOOR:
        residual = np.abs(realized - intended).max()
        raise CompilationError(
            f"compiled sequence fidelity {fidelity:.12f} < {COMPILE_FIDELITY_FLOOR}"
            f" (max residual {residual:.3e})"
        )
    return PulseSequence(events=tuple(events), intended_unitary=intended, achieved_fidelity=fidelity)


def run_pulse_backend(
    h: MolecularHamiltonian,
    config: IterationConfig,
    prep: np.ndarray | None = None,
    sys: SpinSystem | None = None,
    over_rotation: float = 0.0,
) -> IpeaResult:
    """Phase estimation with every controlled gate realized in pulses.

    The base controlled-U is compiled once; iteration k applies its evolved
    unitary 2^(n k) times, carried from round to round by n squarings
    (which compound any pulse imperfection exactly like physical
    repetition). The probe coherences of these realized powers on
    |+> x prep are the ``coherences`` input of ``ipea.run_ipea``, whose
    scalar clip phase acts as a receiver-frame rotation on the probe,
    applied in software the way a spectrometer's receiver phase is. Any
    injected pulse error therefore acts on U alone and its phase error
    scales with the operator power. Noiseless runs match the exact-gate
    engine to well below 1e-8.
    """
    if h.dim != 2:
        raise ValidationError(f"pulse backend handles 2x2 systems, got dim {h.dim}")
    spin_sys = sys if sys is not None else SpinSystem()
    spec = molham.spectrum(h)
    state = spec.ground_state if prep is None else prep
    joint = np.kron(qcore.KET_PLUS, qcore.require_pure_state(state, "prepared state"))
    sequence = compile_controlled_u(spec.propagator(config.tau), spin_sys)
    realized = evolve_sequence(sequence, spin_sys, over_rotation=over_rotation)
    coherences = []
    for k in range(config.iterations):
        if k > 0:
            realized = qcore.square_unitary(realized, config.bits_per_iteration)
        coherences.append(probe.probe_coherence(realized @ joint))
    return ipea.run_ipea(h, config, prep=state, coherences=coherences)


def sequence_text(seq: PulseSequence) -> str:
    """Line-oriented export: PULSE/DELAY events plus a trailing fidelity."""
    lines = []
    for event in seq.events:
        if isinstance(event, PulseEvent):
            lines.append(f"PULSE {event.spin} {event.phase:.17g} {event.angle:.17g}")
        else:
            lines.append(f"DELAY {event.duration:.17g}")
    lines.append(f"FIDELITY {seq.achieved_fidelity:.17g}")
    return "\n".join(lines) + "\n"
