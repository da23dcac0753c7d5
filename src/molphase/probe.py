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
The stream is molphase's own, written out here so that drawing loads no
``numpy.random``: SeedSequence's hash of the seed into four 64-bit words,
PCG64 (a 128-bit LCG with XSL-RR output, O'Neill 2014) seeded by them, and
low + (high - low) * (x >> 11) 2^-53 per output x. Today it equals numpy's
``default_rng(seed).uniform`` bit for bit; NumPy's NEP 19 fixes the bit
generator's stream but not ``uniform``, so the definition here is the one
of record.

The probe and system spins of the NMR sample are coupled by
(pi J / 2) sz x sz with J = ``J_COUPLING_HZ``, so the probe's spectrum is
a doublet at +-J/2 Hz, which ``synthesize_spectrum`` draws. Every spectrum
is a plain array of ``SPECTRUM_POINTS`` complex amplitudes on the one fixed
grid ``FREQUENCIES_HZ``.
"""
from __future__ import annotations

import cmath
import functools
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
# the ascending, uniform frequency grid (Hz) of every spectrum: the bytes of
# fftshift(fftfreq(SPECTRUM_POINTS, d=1 / SPECTRAL_WIDTH_HZ)), without numpy.fft
_BIN_HZ = 1.0 / (SPECTRUM_POINTS * (1.0 / SPECTRAL_WIDTH_HZ))
FREQUENCIES_HZ = (np.arange(SPECTRUM_POINTS) - SPECTRUM_POINTS // 2) * _BIN_HZ
FREQUENCIES_HZ.flags.writeable = False


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
        qcore.require_nonnegative("jitter bound", self.phase_jitter_bound)
        qcore.require_nonnegative("coherent epsilon", self.coherent_epsilon)
        qcore.require_integer("rng seed", self.rng_seed, 0)

    def jitter_draws(self, count: int) -> list[float]:
        """The first ``count`` draws on [-bound, bound) of the stream seeded by
        ``rng_seed`` (SeedSequence, PCG64, uniform; see the module docstring),
        equal to ``numpy.random.default_rng(rng_seed).uniform(-bound, bound,
        count)``. At bound zero every draw is -0.0 + 0.0 * u, and at bound
        -0.0 it is 0.0 + -0.0 * u: both are +0.0."""
        qcore.require_integer("draw count", count, 0)
        bound = self.phase_jitter_bound
        return _uniform_draws(int(self.rng_seed), -bound, bound, count)


_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK128 = (1 << 128) - 1
_PCG_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_state(seed: int) -> list[int]:
    """``SeedSequence(seed).generate_state(4, uint64)``: the seed's 32-bit
    words, low first, mixed into a pool of four, then hashed out as eight
    words read in little-endian pairs."""
    key, multiplier = 0x43B0D7E5, 0x931E8875

    def hashmix(value: int) -> int:
        nonlocal key
        value ^= key
        key = key * multiplier & _MASK32
        value = value * key & _MASK32
        return value ^ value >> 16

    def mix_into(dst: int, value: int) -> None:
        mixed = (0xCA01F9DD * pool[dst] - 0x4973F715 * hashmix(value)) & _MASK32
        pool[dst] = mixed ^ mixed >> 16

    words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    pool = [hashmix(word) for word in (words + [0, 0, 0])[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mix_into(dst, pool[src])
    for word in words[4:]:
        for dst in range(4):
            mix_into(dst, word)
    key, multiplier = 0x8B51F9DD, 0x58F38DED
    out = [hashmix(word) for word in pool + pool]
    return [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]


def _uniform_draws(seed: int, low: float, high: float, count: int) -> list[float]:
    """``count`` successive draws low + (high - low) u of PCG64 seeded from
    ``seed``, with u the top 53 bits of each 64-bit output times 2^-53."""
    s0, s1, i0, i1 = _seed_state(seed)
    inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
    # pcg64 srandom: step from state 0, add the initial state, step again
    state = ((inc + (s0 << 64 | s1)) * _PCG_MULTIPLIER + inc) & _MASK128
    span = high - low
    draws = []
    for _ in range(count):
        state = (state * _PCG_MULTIPLIER + inc) & _MASK128
        rot = state >> 122
        x = (state >> 64 ^ state) & _MASK64
        x = (x >> rot | x << (64 - rot)) & _MASK64
        draws.append(low + span * ((x >> 11) * 2.0**-53))
    return draws


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
    """Phase arg(z) / 2 pi of coherence ``z`` in [0, 1) turns; a non-finite
    z or |z| below ``COHERENCE_TOL`` has none."""
    if not cmath.isfinite(z):
        raise ReadoutError(f"probe coherence {z} is not finite; phase undefined")
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
    """H + eps sz, the generator of the perturbed evolution of a 2x2 system.
    Its entries are at most 2^501; ``qcore.hermitian_eig`` rejects one past
    ``qcore.MAX_MAGNITUDE`` as it would any matrix's."""
    if h.dim != 2:
        raise ValidationError(f"coherent error is defined on 2x2 systems, got dim {h.dim}")
    return h.matrix + noise.coherent_epsilon * qcore.SIGMA_Z


def _require_spectrum(amplitudes) -> np.ndarray:
    a = np.ascontiguousarray(amplitudes, dtype=complex)
    if a.shape != FREQUENCIES_HZ.shape:
        raise ValidationError(f"a spectrum holds {SPECTRUM_POINTS} amplitudes, got shape {a.shape}")
    qcore.require_magnitude("spectrum amplitudes", np.abs(a.view(float)).max())
    return a


def _line_integral(amplitudes) -> complex:
    """The sum of the amplitudes times the grid spacing; within ``qcore.MAX_MAGNITUDE`` it is below 2^513."""
    return complex(_require_spectrum(amplitudes).sum() * float(FREQUENCIES_HZ[1] - FREQUENCIES_HZ[0]))


@functools.cache
def _frequency_column() -> tuple[str, ...]:
    return tuple(f"{f:.17g}" for f in FREQUENCIES_HZ.tolist())


def spectrum_csv(amplitudes) -> str:
    """A spectrum as CSV: frequency_hz, amplitude_re, amplitude_im."""
    a = _require_spectrum(amplitudes)
    rows = map("{},{:.17g},{:.17g}".format, _frequency_column(), a.real.tolist(), a.imag.tolist())
    return "frequency_hz,amplitude_re,amplitude_im\n" + "\n".join(rows) + "\n"


def synthesize_spectrum(phase_fraction: float) -> np.ndarray:
    """Two-line doublet at +-J/2 Hz whose common phase is 2 pi phi, as its
    complex amplitudes on ``FREQUENCIES_HZ``.

    A decaying quadrature oscillation is Fourier-transformed so the complex
    line integral's argument recovers 2 pi phi; phi = 0 gives pure
    absorption, phi = 0.25 pure dispersion. Each line is ``LINE_WIDTH_HZ`` wide.
    phi is reduced to [0, 1) turns first; it must lie within ``qcore.MAX_MAGNITUDE``.
    """
    qcore.require_magnitude("phase fraction", phase_fraction)
    t = np.arange(SPECTRUM_POINTS) / SPECTRAL_WIDTH_HZ
    fid = (
        np.exp(2j * np.pi * reduce_phase(phase_fraction))
        * (np.exp(1j * np.pi * J_COUPLING_HZ * t) + np.exp(-1j * np.pi * J_COUPLING_HZ * t))
        * np.exp(-np.pi * LINE_WIDTH_HZ * t)
    )
    return np.fft.fftshift(np.fft.fft(fid))


def extract_phase_from_spectrum(trace, reference) -> float:
    """Phase of one spectrum against a reference, each ``SPECTRUM_POINTS``
    amplitudes on ``FREQUENCIES_HZ``, from the ratio of their line integrals."""
    ref = _line_integral(reference)
    if abs(ref) < 1e-9:
        raise ReadoutError(f"reference line integral {abs(ref):.3e} below 1e-9")
    ratio = _line_integral(trace) / ref
    return float(reduce_phase(np.angle(ratio) / (2.0 * np.pi)))
