"""Pulse-level two-spin backend.

Both spins are on resonance, so in the doubly rotating frame the natural
two-spin Hamiltonian is the J coupling alone,

    H = (pi J / 2) sz x sz   [rad/s],   J = probe.J_COUPLING_HZ,

and a delay is the phase diagonal exp(-i E t) of H's diagonal E. Pulses
are instantaneous rotations about any transverse axis; z rotations are
composed from two pi pulses. Each event acts on the running 4x4 product
of a sequence: a delay scales its rows by those phases, a pulse applies
its 2x2 rotation along its spin's axis, and no per-event 4x4 gate,
Kronecker product or eigendecomposition is built.
The compiler takes every controlled-U through one path: system pulses
tilt U's rotation axis onto z and back, and one J-coupling delay of at
most 1/(2J) between probe pi pulses does the controlled half. It checks
the realized product against u's blocks (I, u and zeros), up to global
phase, before returning the events; a run evolves them again at its own
over-rotation, zero included.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ipea, molham, probe, qcore
from .errors import CompilationError, ValidationError
from .ipea import IpeaResult, IterationConfig
from .molham import MolecularHamiltonian

SPINS = ("probe", "system")
COMPILE_FIDELITY_FLOOR = 1.0 - 1e-9

# Diagonal of the Hamiltonian (pi J / 2) sz x sz.
_ZZ_ENERGIES = 0.5 * np.pi * probe.J_COUPLING_HZ * np.array([1.0, -1.0, -1.0, 1.0])


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class PulseEvent:
    """Instantaneous rotation exp(-i (angle/2) (cos(phase) sx + sin(phase) sy))
    on the addressed spin; ``phase`` picks the transverse axis."""

    spin: str
    phase: float
    angle: float

    def __post_init__(self):
        if self.spin not in SPINS:
            raise ValidationError(f"spin must be one of {SPINS}, got {self.spin!r}")
        _require_finite("pulse phase", self.phase)
        _require_finite("pulse angle", self.angle)


@dataclass(frozen=True)
class DelayEvent:
    """Free evolution exp(-i H duration) under the natural Hamiltonian."""

    duration: float

    def __post_init__(self):
        if not (math.isfinite(self.duration) and self.duration >= 0):
            raise ValidationError(f"delay duration must be finite and >= 0, got {self.duration}")


@dataclass(frozen=True)
class PulseSequence:
    """Ordered events realizing the compiled controlled gate to
    ``achieved_fidelity``, as the compiler verified it without over-rotation."""

    events: tuple
    achieved_fidelity: float


def transverse_rotation(phase: float, angle: float) -> np.ndarray:
    """Single-spin rotation about the transverse axis at azimuth ``phase``."""
    _require_finite("rotation phase", phase)
    _require_finite("rotation angle", angle)
    c, s = math.cos(phase), math.sin(phase)
    ch, sh = math.cos(angle / 2.0), math.sin(angle / 2.0)
    return np.array([[ch, complex(-sh * s, -sh * c)], [complex(sh * s, -sh * c), ch]], dtype=complex)


def evolve_sequence(events, over_rotation: float = 0.0) -> np.ndarray:
    """Ordered product of event unitaries (first event acts first).

    A delay scales the rows of the running product u by exp(-i E duration);
    a pulse's rotation (angle scaled by 1 + ``over_rotation``) multiplies u
    along the probe axis, as (2, 8), or the system axis, as (2, 2, 4).
    """
    u = np.eye(4, dtype=complex)
    for event in events:
        if isinstance(event, DelayEvent):
            u = np.exp(-1j * _ZZ_ENERGIES * event.duration)[:, None] * u
        elif isinstance(event, PulseEvent):
            r = transverse_rotation(event.phase, event.angle * (1.0 + over_rotation))
            if event.spin == "probe":
                u = (r @ u.reshape(2, 8)).reshape(4, 4)
            else:
                u = (r @ u.reshape(2, 2, 4)).reshape(4, 4)
        else:
            raise ValidationError(f"unknown event type {type(event).__name__}")
    return u


def _z_rotation_events(spin: str, angle: float) -> list:
    """Rz(angle) on one spin from two pi pulses about transverse axes.

    R_{phi2}(pi) R_{phi1}(pi) = Rz(2 (phi2 - phi1)) up to global phase.
    """
    a = (angle + np.pi) % (2.0 * np.pi) - np.pi
    if a == 0.0:
        return []
    return [PulseEvent(spin, 0.0, np.pi), PulseEvent(spin, a / 2.0, np.pi)]


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
    axis = sin_vec / sin_half if sin_half > 0.0 else np.array([0.0, 0.0, 1.0])
    alpha = (alpha + np.pi) % (2.0 * np.pi) - np.pi
    return alpha, theta, axis


def compile_controlled_u(u) -> PulseSequence:
    """Compile |up><up| x I + |down><down| x u into pulses and delays.

    The rotation part of u, exp(-i (theta/2) n.sigma), is conjugated onto
    the z axis by a system pulse of angle arccos(n_z), exact for an axis at
    +z or -z too; its controlled half is realized by one J-coupling block,
    and the global phase of u becomes a probe z rotation. Raises if the
    fidelity, checked against u's blocks, falls below 1 - 1e-9.
    """
    m = qcore.require_unitary(u, name="controlled operator")
    if m.shape != (2, 2):
        raise ValidationError(f"pulse compiler targets single-qubit gates, got dim {m.shape[0]}")

    alpha, theta, axis = _su2_factor(m)
    events: list = []
    if theta > 0.0:
        nx, ny, nz = axis
        tilt = np.arccos(np.clip(nz, -1.0, 1.0))
        azimuth = np.arctan2(nx, -ny)
        # exp(-i zeta sz x sz), zeta < 0: the probe pi pulses flip its sign
        zeta = -theta / 4.0
        events = [
            PulseEvent("system", azimuth, -tilt),
            PulseEvent("probe", 0.0, np.pi),
            DelayEvent(2.0 * abs(zeta) / (np.pi * probe.J_COUPLING_HZ)),
            PulseEvent("probe", 0.0, np.pi),
            *_z_rotation_events("system", theta / 2.0),
            PulseEvent("system", azimuth, tilt),
        ]
    events += _z_rotation_events("probe", alpha)

    r = evolve_sequence(events)
    # |Tr(G† R)| / 4 for the realized product R and the gate G = diag(I, u)
    fidelity = float(abs(np.trace(r[:2, :2]) + np.vdot(m, r[2:, 2:])) / 4.0)
    if fidelity < COMPILE_FIDELITY_FLOOR:
        residual = max(np.abs(d).max() for d in (r[:2, :2] - np.eye(2), r[:2, 2:], r[2:, :2], r[2:, 2:] - m))
        raise CompilationError(
            f"compiled sequence fidelity {fidelity:.12f} < {COMPILE_FIDELITY_FLOOR}"
            f" (max residual {residual:.3e})"
        )
    return PulseSequence(events=tuple(events), achieved_fidelity=fidelity)


def run_pulse_backend(
    h: MolecularHamiltonian,
    config: IterationConfig,
    over_rotation: float = 0.0,
) -> IpeaResult:
    """Phase estimation with every controlled gate realized in pulses.

    The base controlled-U is compiled once; iteration k applies its
    sequence, evolved with every angle scaled by 1 + ``over_rotation``
    (exactly 1 at zero, so that product is the one the compiler verified),
    2^(n k) times, carried from round to round by n squarings in
    ``qcore.power_chain`` (which compound any pulse imperfection exactly
    like physical repetition). The probe coherences of these realized
    powers on |+> x |ground> go, with zero jitter draws, straight to
    ``ipea.estimate``, which subtracts the accumulated clip phase from the
    phase read off each coherence, the way a spectrometer's receiver phase
    is subtracted from its signal. Any injected pulse error therefore acts
    on U alone and its phase error scales with the operator power.

    Without over-rotation the realized gate equals the exact one to float64
    rounding, and at n = 3 its readings match the exact-gate engine's to
    about 1e-14 turns up to 12 iterations. Later rounds read powers up to
    2^(n (k-1)) that amplify this rounding: on H2-like 2x2 systems the
    readings differ by up to about 1e-5 turns at (n, k) = (3, 17) and 1e-3
    at (1, 52), while the rebuilt phase still holds its guaranteed bits.
    """
    if h.dim != 2:
        raise ValidationError(f"pulse backend handles 2x2 systems, got dim {h.dim}")
    _require_finite("over_rotation", over_rotation)
    spec = molham.spectrum(h)
    ipea.require_ground_window(config, spec.ground_energy)
    joint = np.outer(qcore.KET_PLUS, spec.ground_state).ravel()
    sequence = compile_controlled_u(spec.propagator(config.tau))
    realized = evolve_sequence(sequence.events, over_rotation=over_rotation)
    coherences = []
    for power in qcore.power_chain(realized, config.bits_per_iteration, config.iterations):
        s = power @ joint
        coherences.append(complex(np.vdot(s[:2], s[2:])))
    return ipea.estimate(coherences, [0.0] * config.iterations, config, spec.ground_energy)

