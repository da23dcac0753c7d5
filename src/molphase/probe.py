"""Interferometric measurement arm.

The probe spin is tensor factor 0 with spin-up at index 0, prepared in
|+> = (|up> + |down>)/sqrt(2). A controlled-U writes the system eigenphase
onto the probe's relative phase; quadrature readout recovers it from the
probe's off-diagonal coherence. For controlled-U on |+> x |psi> that
coherence is <psi|U|psi> / 2, which the estimation loop computes directly;
``coherence_readout``, a pure function, turns any coherence into a phase,
and the joint-state readouts go through it. Only the argument of the
coherence carries information, so every readout returns that phase as a
fraction of a turn. The estimation loop reads each coherence once this way
and subtracts its receiver phase from the reading.

Noise enters in two places: bounded jitter on the measured phase, drawn
uniformly on [-bound, bound) (the bound is the quantity of record), and,
on a 2x2 system, a coherent perturbation eps sz of the Hamiltonian whose
effect on the evolution operator compounds under powering. A run takes
its jitter as data, one seeded stream's draws
(``NoiseModel.jitter_draws``); ``NoiseModel()`` is the noiseless channel.

The probe and system spins of the NMR sample are coupled by
(pi J / 2) sz x sz with J = ``J_COUPLING_HZ``, so the probe's spectrum is
a doublet at +-J/2 Hz, which ``synthesize_spectrum`` draws.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import qcore
from .errors import ReadoutError, ValidationError
from .molham import MolecularHamiltonian

COHERENCE_TOL = 1e-6
J_COUPLING_HZ = 214.6
LINE_WIDTH_HZ = 2.0
SPECTRUM_POINTS = 4096
SPECTRAL_WIDTH_HZ = 2000.0


@dataclass(frozen=True)
class NoiseModel:
    """Bounded measurement jitter plus a coherent operator perturbation.

    ``phase_jitter_bound`` is in fractions of a turn (5 degrees = 5/360);
    ``coherent_epsilon`` is the strength in hartree of a perturbation along
    sigma_z, defined on 2x2 systems. Both zero, the default, reproduces the
    ideal channel exactly. ``rng_seed`` is an integer >= 0.
    """

    phase_jitter_bound: float = 0.0
    coherent_epsilon: float = 0.0
    rng_seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.phase_jitter_bound) and self.phase_jitter_bound >= 0):
            raise ValidationError(f"jitter bound must be finite and >= 0, got {self.phase_jitter_bound}")
        if not (math.isfinite(self.coherent_epsilon) and self.coherent_epsilon >= 0):
            raise ValidationError(f"coherent epsilon must be finite and >= 0, got {self.coherent_epsilon}")
        qcore.require_integer("rng seed", self.rng_seed, 0)

    def jitter_draws(self, count: int) -> list[float]:
        """``count`` uniform draws on [-bound, bound) from the stream seeded by
        ``rng_seed``. At bound zero every draw is -0.0 + 0.0 * u, which is +0.0;
        a bound of -0.0 is valid, but numpy rejects its high - low of -0.0."""
        bound = abs(self.phase_jitter_bound)
        return np.random.default_rng(self.rng_seed).uniform(-bound, bound, size=count).tolist()


def reduce_phase(x: float) -> float:
    """``x`` in [0, 1) turns; a tiny negative ``x`` goes to 1.0 and then to 0.0."""
    return x % 1.0 % 1.0


def controlled_u(u) -> np.ndarray:
    """|up><up| x I + |down><down| x U with the probe as the first factor."""
    m = qcore.require_unitary(u, name="controlled operator")
    d = m.shape[0]
    if 2 * d > qcore.MAX_DIM:
        raise ValidationError(f"system dimension {d} too large for a controlled gate")
    gate = np.zeros((2 * d, 2 * d), dtype=complex)
    gate[:d, :d] = np.eye(d)
    gate[d:, d:] = m
    return gate


def probe_coherence(state) -> complex:
    """Off-diagonal element rho_probe[down, up] of the reduced probe state.

    Long operator chains drift in norm at the 1e-12 level, so the
    normalization check here is relaxed to 1e-9; the extracted phase does
    not depend on the norm.
    """
    s = qcore.require_pure_state(state, "joint state", tol=1e-9)
    if s.size % 2 != 0:
        raise ValidationError(f"joint state dimension {s.size} is not probe x system")
    d = s.size // 2
    return complex(np.vdot(s[:d], s[d:]))


def coherence_readout(z: complex) -> float:
    """Phase arg(z) / 2 pi of coherence ``z`` in [0, 1) turns; |z| below
    ``COHERENCE_TOL`` has none."""
    if abs(z) < COHERENCE_TOL:
        raise ReadoutError(f"probe coherence {abs(z):.3e} below {COHERENCE_TOL:.1e}; phase undefined")
    return reduce_phase(cmath.phase(z) / (2.0 * math.pi))


def ideal_readout(state) -> float:
    """Extract the probe phase of a joint state.

    For (|up> + e^{i 2 pi phi} |down>)/sqrt(2) x |psi> this returns
    exactly phi.
    """
    return coherence_readout(probe_coherence(state))


def noisy_readout(state, draw: float) -> float:
    """Ideal readout of a joint state plus the jitter ``draw``, reduced into [0, 1)."""
    return reduce_phase(ideal_readout(state) + draw)


def perturbed_hamiltonian(h: MolecularHamiltonian, noise: NoiseModel) -> np.ndarray:
    """H + eps sz, the generator of the perturbed evolution of a 2x2 system."""
    if h.dim != 2:
        raise ValidationError(f"coherent error is defined on 2x2 systems, got dim {h.dim}")
    return h.matrix + noise.coherent_epsilon * qcore.SIGMA_Z


@dataclass(frozen=True)
class SpectrumTrace:
    """Complex absorption/dispersion trace on a uniform frequency grid (Hz)."""

    frequencies: np.ndarray
    complex_amplitudes: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.frequencies, dtype=float)
        a = np.asarray(self.complex_amplitudes, dtype=complex)
        if f.size != a.size:
            raise ValidationError(f"grid length {f.size} != amplitude length {a.size}")
        df = np.diff(f)
        if f.size > 1 and (df.min() <= 0 or abs(df.max() - df.min()) > 1e-9 * max(abs(df.max()), 1.0)):
            raise ValidationError("frequency grid must be strictly ascending and uniformly spaced")
        f.flags.writeable = False
        a.flags.writeable = False
        object.__setattr__(self, "frequencies", f)
        object.__setattr__(self, "complex_amplitudes", a)

    def line_integral(self) -> complex:
        df = float(self.frequencies[1] - self.frequencies[0]) if self.frequencies.size > 1 else 1.0
        return complex(self.complex_amplitudes.sum() * df)

    def csv_text(self) -> str:
        """Export as CSV: frequency_hz, amplitude_re, amplitude_im."""
        lines = ["frequency_hz,amplitude_re,amplitude_im"]
        for f, a in zip(self.frequencies, self.complex_amplitudes):
            lines.append(f"{f:.17g},{a.real:.17g},{a.imag:.17g}")
        return "\n".join(lines) + "\n"


def synthesize_spectrum(phase_fraction: float) -> SpectrumTrace:
    """Two-line doublet at +-J/2 Hz whose common phase is 2 pi phi.

    A decaying quadrature oscillation is Fourier-transformed so the complex
    line integral's argument recovers 2 pi phi; phi = 0 gives pure
    absorption, phi = 0.25 pure dispersion. The grid is ``SPECTRUM_POINTS``
    points over ``SPECTRAL_WIDTH_HZ`` and each line is ``LINE_WIDTH_HZ`` wide.
    """
    t = np.arange(SPECTRUM_POINTS) / SPECTRAL_WIDTH_HZ
    fid = (
        np.exp(2j * np.pi * phase_fraction)
        * (np.exp(1j * np.pi * J_COUPLING_HZ * t) + np.exp(-1j * np.pi * J_COUPLING_HZ * t))
        * np.exp(-np.pi * LINE_WIDTH_HZ * t)
    )
    amps = np.fft.fftshift(np.fft.fft(fid))
    freqs = np.fft.fftshift(np.fft.fftfreq(SPECTRUM_POINTS, d=1.0 / SPECTRAL_WIDTH_HZ))
    return SpectrumTrace(frequencies=freqs, complex_amplitudes=amps)


def extract_phase_from_spectrum(trace: SpectrumTrace, reference: SpectrumTrace) -> float:
    """Phase of one trace against a reference sharing its frequency grid."""
    if trace.frequencies.size != reference.frequencies.size or not np.allclose(
        trace.frequencies, reference.frequencies, atol=1e-9
    ):
        raise ValidationError("trace and reference frequency grids differ")
    ref = reference.line_integral()
    if abs(ref) < 1e-9:
        raise ReadoutError(f"reference line integral {abs(ref):.3e} below 1e-9")
    ratio = trace.line_integral() / ref
    return float(reduce_phase(np.angle(ratio) / (2.0 * np.pi)))
