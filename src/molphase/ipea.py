"""Iterative phase estimation with clipped-phase recursion.

Starting from U0 = exp(-i H tau), each iteration measures the probe phase
phi_k of the current operator on the prepared state, clips it by the
measurement error bound with a sign (``clip_phase``), and advances to
U_{k+1} = [exp(-i 2 pi phi'_k) U_k]^(2^n). A reading off by j_k leaves the
residual eigenphase 2^n (phi_errbd - j_k), so while |j_k| <= phi_errbd it
stays in [0, 2^n * 2 phi_errbd]. Readings of it then fall in the window
[0, (2^(n+1) + 1) phi_errbd] or, for a residual pushed below zero by the
jitter, in the wrapped band [1 - phi_errbd, 1); the two stay apart when
(2^(n+1) + 2) phi_errbd < 1. Every iteration then refines the estimate by
n bits and the recursive rebuild

    phi_c[i-1] = phi_c[i] / 2^n + phi'[i-1]

telescopes the per-iteration phases back into a single value whose error
contracts to phi_errbd * 2^(-n (k-1)).

The clip phases only ever multiply U by a scalar, so the loop carries
U_k = exp(-i 2 pi a_k) P_k as two parts: the power P_k = U^(2^(n k)),
which no measurement affects, and the offset a_{k+1} = 2^n (a_k + phi'_k)
mod 1, a float. The probe coherence after controlled-U_k on |+> x |psi> is
exp(-i 2 pi a_k) c_k with c_k = <psi|P_k|psi> / 2, so no controlled gate
or joint state is built, and its phase is arg(c_k) / 2 pi - a_k: the
offset is a receiver phase, subtracted from the reading of c_k.
``estimate``, the one loop, takes plain numbers: the seed-free c_k and one
jitter draw per reading, and after reading each c_k's phase once it runs
on floats alone. ``run_ipea`` feeds it exact coherences and the noise
model's draws (+0.0 each from the noiseless default ``NoiseModel()``), the
pulse backend those of its realized gate and zero draws.

P_k is held in the eigenbasis of the generator H (or H + eps V), where it
is diagonal, as the vector of its eigenphase factors; ``qcore.power_chain``
squares that vector n times per round and pulls it back onto the unitary
group with one Newton-Schulz step. Powers are never taken from
eigenphases as exp(-i 2^m theta): every power is a repeated square of the
factors of U, so a coherent error in U compounds exactly as it would
under physical repeated application. The basis keeps P_k an exact
function of U: squared in the computational basis, rounding that does
not commute with U grows with the power wherever U^(2^m) is proportional
to the identity, as it is for every 2x2 system at the automatic tau.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import molham, probe, qcore
from .errors import ReadoutError, TauRangeError, ValidationError
from .molham import MolecularHamiltonian
from .probe import NoiseModel

PREP_OVERLAP_FLOOR = 0.9
PREP_OVERLAP_WARN = 0.999
MAX_REPORT_BITS = 52
# float64 rounding allowance, in turns, of a rebuilt phase: it widens the
# error bound behind ``guaranteed_bits`` and keeps the ground phase that far
# inside the window ``estimate`` checks
PHASE_FLOOR = 2.0**-49


def phase_distance(a: float, b: float) -> float:
    """Distance between phases as fractions of a turn: min(|a-b|, 1-|a-b|)."""
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


@dataclass(frozen=True)
class IterationConfig:
    """Operating point of the iteration: n bits per round, k_max rounds.

    ``phase_error_bound`` (fraction of a turn) is the guaranteed bound on
    each phase measurement. Admissibility (2^(n+1) + 2) * bound < 1 keeps
    the readings of a residual phase, [0, (2^(n+1) + 1) * bound], below the
    band [1 - bound, 1) of wrapped readings (``is_wrapped``), and n * k_max
    may not exceed the ``MAX_REPORT_BITS`` a float64 phase holds. From the
    second iteration on, a reading also carries up to about 2^(n-51) turns
    of rounding (the n squarings of the power, the offset scaled by 2^n),
    so with more than one iteration the gap below 1 must exceed 2^(n-48),
    four times what the two sides of the ``is_wrapped`` split need.
    """

    bits_per_iteration: int = 3
    iterations: int = 6
    phase_error_bound: float = 5.0 / 360.0
    tau: float = 1.0

    def __post_init__(self):
        qcore.require_integer("bits per iteration", self.bits_per_iteration, 1)
        qcore.require_integer("iterations", self.iterations, 1)
        bits = self.bits_per_iteration * self.iterations
        if bits > MAX_REPORT_BITS:
            raise ValidationError(
                f"{self.bits_per_iteration} bits x {self.iterations} iterations = {bits} bits"
                f" exceeds the {MAX_REPORT_BITS} a float64 phase holds"
            )
        qcore.require_nonnegative("phase error bound", self.phase_error_bound)
        qcore.require_positive("tau", self.tau)
        n = self.bits_per_iteration
        limit = 1.0 - (2.0 ** (n - 48) if self.iterations > 1 else 0.0)
        if not (2.0 ** (n + 1) + 2.0) * self.phase_error_bound < limit:
            raise ValidationError(
                f"inadmissible config: (2^{n + 1} + 2) * {self.phase_error_bound} >= {limit!r}"
                " (the readings of a residual phase, rounding included, would reach the"
                " wrapped band; bits per iteration too ambitious for the bound)"
            )


class IterationRecord(NamedTuple):
    """Round k's measured/clipped phase pair, ``records[k]``; U_k held U^(2^(n k)).

    ``clipped_phase`` is the signed clip of ``clip_phase``, negative for a
    reading below the bound or a wrapped one.
    """

    measured_phase: float
    clipped_phase: float


class PhaseEstimate(NamedTuple):
    """Rebuilt phase with the recursion trace (phi_c[k] down to phi_c[0])."""

    value: float
    reconstruction_trace: np.ndarray
    binary_digits: str
    guaranteed_bits: int


class EnergyResult(NamedTuple):
    """Energy E = -2 pi phi / tau in hartree, with its distance |E - E0| from the oracle."""

    energy: float
    tau: float
    oracle_energy: float
    abs_error: float


class IpeaResult(NamedTuple):
    records: tuple[IterationRecord, ...]
    phase: PhaseEstimate
    energy: EnergyResult


def next_operator(u_k: np.ndarray, clipped_phase: float, n: int) -> np.ndarray:
    """[exp(-i 2 pi phi') U_k]^(2^n) by n repeated squarings.

    One round of the dense operator chain, with the clip phase folded into
    the matrix; ``run_ipea`` carries the same chain as a scalar and a power.
    """
    qcore.require_integer("n", n, 1)
    m = qcore.require_unitary(u_k, name="iteration operator")
    m = np.exp(-2j * np.pi * clipped_phase) * m
    for _ in range(n):
        m = m @ m
    return m


def is_wrapped(measured: float, error_bound: float, n: int) -> bool:
    """Whether a reading from the second iteration on is a wrapped small phase.

    There the true eigenphase lies in [0, 2^n * 2 * bound], so a reading
    lies in the window [0, (2^(n+1) + 1) * bound] or, for a small phase
    pushed below zero, in the wrapped band [1 - bound, 1). The test splits
    at the midpoint of the gap between the two, 0.5 * (1 + 2^(n+1) * bound),
    which leaves the widest margin on both sides for rounding.
    ``IterationConfig`` admissibility keeps the gap open.
    """
    qcore.require_nonnegative("phase error bound", error_bound)
    return measured > _wrap_split(n, error_bound)


def clip_phase(measured: float, error_bound: float, n: int | None = None) -> float:
    """Signed clip: measured - bound, or measured - 1 - bound for a reading
    wrapped (``is_wrapped``) from the second iteration on, where ``n`` is
    passed. With no clamp at zero the next residual is 2^n (bound - jitter),
    so a residual below zero is removed rather than carried on.
    """
    qcore.require_magnitude("measured phase", measured)
    qcore.require_nonnegative("phase error bound", error_bound)
    return _clip(measured, error_bound, math.inf if n is None else _wrap_split(n, error_bound))


def _require_bits(n: int) -> None:
    """A report helper's bits per iteration: an integer in 1..``MAX_REPORT_BITS``."""
    qcore.require_integer("n", n, 1, MAX_REPORT_BITS)


def _wrap_split(n: int, error_bound: float) -> float:
    """The reading above which ``is_wrapped`` holds; the caller checks the bound."""
    _require_bits(n)
    return 0.5 * (1.0 + 2.0 ** (n + 1) * error_bound)


def _clip(measured: float, error_bound: float, split: float) -> float:
    """``clip_phase`` for checked inputs, wrapping readings above ``split``."""
    if measured > split:
        return measured - 1.0 - error_bound
    return measured - error_bound


def _final_bound(n: int, iterations: int, error_bound: float) -> float:
    """The contracted bound g = bound * 2^(-n (k-1)) of a rebuilt phase, plus ``PHASE_FLOOR``."""
    return error_bound * 2.0 ** (-n * (iterations - 1)) + PHASE_FLOOR


def require_ground_window(config: IterationConfig, oracle_energy: float) -> None:
    """Raise ``TauRangeError`` unless the ground phase -E0 tau / 2 pi lies in
    [g, 1 - g], each end moved inward by ``PHASE_FLOOR``.

    A phase estimate names the energy E = -2 pi phi / tau in (-2 pi / tau, 0],
    and lands within g = bound * 2^(-n (k-1)) of the ground phase; outside
    the window it can alias by a whole turn and report a wrong energy. Every
    run checks this before it builds an operator, and nothing else judges it.
    """
    margin = _final_bound(config.bits_per_iteration, config.iterations, config.phase_error_bound)
    theta0 = -oracle_energy * config.tau / (2.0 * math.pi)
    if not margin <= theta0 <= 1.0 - margin:
        raise TauRangeError(
            f"ground phase -E0*tau/2pi = {theta0:.17g} (E0 = {oracle_energy:.17g}, tau = {config.tau:.17g})"
            f" lies outside the window [{margin:.6g}, 1 - {margin:.6g}] in which a phase names E0;"
            " it needs E0 < 0 and a tau that keeps it inside"
        )


def run_ipea(
    h: MolecularHamiltonian,
    config: IterationConfig,
    prep: np.ndarray | None = None,
    noise: NoiseModel = NoiseModel(),
) -> IpeaResult:
    """Run the full estimation loop and rebuild the phase and energy.

    ``prep`` defaults to the exact ground state; supplying a state with
    ground overlap below 0.999 warns, below 0.9 fails. ``noise`` defaults
    to the noiseless channel; the operator is built from the perturbed
    Hamiltonian when its coherent_epsilon is nonzero, and each readout takes
    one draw of ``noise.jitter_draws``.
    The coherences c_k = <prep|U^(2^(n k))|prep> / 2 come from the
    eigenbasis power chain. Jitter above ``phase_error_bound`` is rejected
    first, and a ground phase outside ``require_ground_window`` before any
    operator is built.
    """
    if noise.phase_jitter_bound > config.phase_error_bound:
        raise ValidationError(
            f"jitter bound {noise.phase_jitter_bound!r} exceeds the phase error bound {config.phase_error_bound!r}"
        )
    spec = molham.spectrum(h)
    require_ground_window(config, spec.ground_energy)
    if prep is None:
        # the kept decomposition's own eigenvector is normalized and has
        # ground overlap 1; only its size is checked
        if h.dim < 2:
            raise ValidationError(f"prepared state dimension {h.dim} outside 2..{qcore.MAX_DIM}")
        prep = spec.ground_state
    else:
        prep = qcore.require_pure_state(prep, "prepared state")
        if prep.size != h.dim:
            raise ValidationError(f"prepared state dim {prep.size} != Hamiltonian dim {h.dim}")
        overlap = float(abs(np.vdot(prep, spec.ground_state)) ** 2)
        if overlap < PREP_OVERLAP_FLOOR:
            raise ValidationError(
                f"prepared state overlaps ground state by {overlap:.4f} < {PREP_OVERLAP_FLOOR}"
            )
        if overlap < PREP_OVERLAP_WARN:
            warnings.warn(
                f"prepared state overlaps ground state by {overlap:.6f} < {PREP_OVERLAP_WARN};"
                " phase estimates inherit the preparation error",
                stacklevel=2,
            )

    k = config.iterations
    dec = spec
    if noise.coherent_epsilon > 0.0:
        dec = qcore.hermitian_eig(probe.perturbed_hamiltonian(h, noise))
    powers = qcore.power_chain(qcore.phase_factors(dec.energies, config.tau), config.bits_per_iteration, k)
    state = dec.eigenvectors.conj().T @ prep
    coherences = [complex(np.vdot(state, row)) / 2.0 for row in powers * state]
    return estimate(coherences, noise.jitter_draws(k), config, spec.ground_energy)


def estimate(
    coherences: Sequence[complex], jitter: Sequence[float], config: IterationConfig, oracle_energy: float
) -> IpeaResult:
    """Read, clip and advance once per coherence, then rebuild the phase and energy.

    Iteration k reads arg(``coherences[k]``) / 2 pi - a_k + ``jitter[k]``,
    reduced into [0, 1), where a_k is the accumulated clip phase, the
    receiver phase of round k. The arithmetic after each coherence's one
    phase readout is real.

    Before the first reading every |draw| must be at most the bound (so
    finite), and the ground phase inside ``require_ground_window``.
    """
    k_max = config.iterations
    if not len(coherences) == len(jitter) == k_max:
        raise ValidationError(f"{len(coherences)} coherences and {len(jitter)} draws for {k_max} iterations")
    n = config.bits_per_iteration
    errbd = config.phase_error_bound
    for k, draw in enumerate(jitter):
        if not abs(draw) <= errbd:
            raise ValidationError(f"iteration {k}: jitter draw {draw!r} outside the phase error bound {errbd!r}")
    require_ground_window(config, oracle_energy)
    offset = 0.0
    split = _wrap_split(n, errbd)
    records: list[IterationRecord] = []
    for k, (coherence, draw) in enumerate(zip(coherences, jitter)):
        try:
            phase = probe.coherence_readout(coherence)
        except ReadoutError as exc:
            raise ReadoutError(f"iteration {k}: {exc}") from exc
        measured = probe.reduce_phase(phase - offset + draw)
        clipped = _clip(measured, errbd, split if k > 0 else math.inf)
        records.append(IterationRecord(measured, clipped))
        offset = (2.0**n * (offset + clipped)) % 1.0

    phase_estimate = reconstruct(records, n, errbd)
    energy = energy_from_phase(phase_estimate, config.tau, oracle_energy)
    return IpeaResult(records=tuple(records), phase=phase_estimate, energy=energy)


def reconstruct(records: Sequence[IterationRecord], n: int, phase_error_bound: float) -> PhaseEstimate:
    """Rebuild the phase: phi_c[k] = phi_k, phi_c[i-1] = phi_c[i]/2^n + phi'[i-1].

    The recursion runs on the real line, seeded by the last measured phase.
    A wrapped final reading from the second iteration on (``is_wrapped``
    under ``phase_error_bound``, the bound the records were clipped by) is a
    near-zero phase and is unwound by one turn before seeding; only the
    final value is reduced into [0, 1).

    ``guaranteed_bits`` are the leading digits that hold within the
    contracted bound plus ``PHASE_FLOOR``, so rounding caps them at 48.
    """
    if not records:
        raise ValidationError("no iteration records to reconstruct from")
    qcore.require_nonnegative("phase error bound", phase_error_bound)
    split = _wrap_split(n, phase_error_bound)
    scale = 2.0**-n
    seed = records[-1].measured_phase
    if len(records) > 1 and seed > split:
        seed -= 1.0
    trace = [seed]
    for rec in reversed(records[:-1]):
        trace.append(trace[-1] * scale + rec.clipped_phase)
    _require_finite(trace[-1], records)
    value = probe.reduce_phase(trace[-1])

    digits = n * len(records)
    return PhaseEstimate(
        value=value,
        reconstruction_trace=np.array(trace),
        binary_digits=to_binary(value, digits),
        guaranteed_bits=min(_leading_bits(_final_bound(n, len(records), phase_error_bound)), digits),
    )


def _require_finite(result: float, records: Sequence[IterationRecord]) -> None:
    """Raise ``ValidationError`` when ``result``, computed from ``records``,
    is not finite, naming the first record with a phase that is not finite
    or past ``qcore.MAX_MAGNITUDE`` in magnitude: phases within it give a
    finite rebuild and finite phase errors, so there always is one."""
    if not math.isfinite(result):
        k = next(k for k, rec in enumerate(records) if not all(abs(p) <= qcore.MAX_MAGNITUDE for p in rec))
        raise ValidationError(f"iteration record {k} has a phase that is not finite or past 2^500: {records[k]}")


def _leading_bits(distance: float) -> int:
    """Leading binary digits a phase within ``distance`` of the truth gets
    right: the largest b <= ``MAX_REPORT_BITS`` with distance < 2^-b, which
    is b = -e for the exponent e of distance = m 2^e, m in [0.5, 1)."""
    if distance <= 0.0:
        return MAX_REPORT_BITS
    return min(max(-math.frexp(distance)[1], 0), MAX_REPORT_BITS)


def running_estimates(
    records: Sequence[IterationRecord], n: int, phase_error_bound: float
) -> list[PhaseEstimate]:
    """The estimate rebuilt from iterations 0..k, for each k in turn."""
    return [reconstruct(records[: k + 1], n, phase_error_bound) for k in range(len(records))]


def to_binary(value: float, digits: int) -> str:
    """Binary expansion of a phase in [0, 1) truncated to floor(value 2^digits), most significant first,
    to at most ``MAX_REPORT_BITS`` digits."""
    qcore.require_integer("digit count", digits, 1, MAX_REPORT_BITS)
    if not 0.0 <= value < 1.0:
        raise ValidationError(f"value must lie in [0, 1), got {value}")
    p, q = value.as_integer_ratio()
    return format((p << int(digits)) // q, f"0{digits}b")


def energy_from_phase(phase: PhaseEstimate, tau: float, oracle_energy: float) -> EnergyResult:
    """E = -2 pi phi / tau, with its absolute error |E - ``oracle_energy``|.

    The error is a difference of energies, not of phases, so an estimate a
    whole turn away from the oracle's phase shows as 2 pi / tau.
    """
    qcore.require_positive("tau", tau)
    energy = float(-2.0 * np.pi * phase.value / tau)
    abs_error = abs(energy - oracle_energy)
    if not math.isfinite(abs_error):
        raise ValidationError(
            f"energy -2 pi phi / tau = {energy} at tau = {tau}, or its distance from the oracle energy"
            f" {oracle_energy}, is not finite"
        )
    return EnergyResult(energy=energy, tau=float(tau), oracle_energy=oracle_energy, abs_error=abs_error)


def precision_report(estimate: PhaseEstimate, oracle_phase: float) -> int:
    """Count of leading binary digits within the oracle, by mod-1 distance."""
    if not 0.0 <= oracle_phase < 1.0:
        raise ValidationError(f"oracle phase must lie in [0, 1), got {oracle_phase}")
    return _leading_bits(phase_distance(estimate.value, oracle_phase))


def oracle_phase(h: MolecularHamiltonian, tau: float) -> float:
    """Exact ground-state phase fraction -E0 tau / 2 pi reduced mod 1."""
    qcore.require_magnitude("tau", tau)
    return probe.reduce_phase(-molham.spectrum(h).ground_energy * tau / (2.0 * np.pi))


def iteration_phase_errors(
    records: Sequence[IterationRecord], oracle_phase_0: float, n: int
) -> list[float]:
    """Per-iteration phase-shift error against the exact-U reference chain,
    the eigenphases theta_k an exact U would carry under the same clip
    history: theta_0 = ``oracle_phase_0`` and theta_{k+1} = 2^n (theta_k - phi'_k).

    With a coherent operator error this grows by roughly 2^n per iteration
    (the operator contains the 2^(n k)-th power of U) until it saturates.
    """
    _require_bits(n)
    qcore.require_magnitude("oracle phase", oracle_phase_0)
    errors = []
    theta = oracle_phase_0 % 1.0
    for rec in records:
        errors.append(phase_distance(rec.measured_phase, theta))
        theta = (2.0**n * (theta - rec.clipped_phase)) % 1.0
    _require_finite(sum(errors), records)
    return errors


def trace_csv(result: IpeaResult, running: Sequence[PhaseEstimate]) -> str:
    """Iteration trace as CSV, one row per iteration plus a summary row.

    Row k reports ``running[k]``, the estimate rebuilt from iterations
    0..k (``running_estimates`` under the run's bound): its digits, its
    energy and that energy's distance from ``result.energy.oracle_energy``.
    The rows show the estimate converging, and the last one reads as the
    ``final`` row.
    """
    records = result.records
    tau = result.energy.tau
    oracle_energy = result.energy.oracle_energy
    header = (
        "k,measured_phase,clipped_phase,operator_power,phi_c,"
        "cumulative_bits,energy_estimate,abs_error_vs_oracle"
    )
    lines = [header]
    trace = result.phase.reconstruction_trace
    n = len(running[0].binary_digits)  # the prefix of iteration 0 holds n digits
    for k, (rec, prefix) in enumerate(zip(records, running)):
        energy = energy_from_phase(prefix, tau, oracle_energy)
        phi_c = trace[len(records) - 1 - k]
        lines.append(
            f"{k},{rec.measured_phase:.17g},{rec.clipped_phase:.17g},"
            f"{2 ** (n * k)},{phi_c:.17g},{prefix.binary_digits},"
            f"{energy.energy:.17g},{energy.abs_error:.17g}"
        )
    lines.append(
        f"final,,,,{result.phase.value:.17g},{result.phase.binary_digits},"
        f"{result.energy.energy:.17g},{result.energy.abs_error:.17g}"
    )
    return "\n".join(lines) + "\n"
