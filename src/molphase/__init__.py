"""molphase: molecular ground-state energies by iterative phase estimation.

A small-system simulator of the full measurement pipeline: adiabatic
preparation of the molecular ground state, controlled-U interferometry on
a probe spin, clipped-phase iteration with recursive bit reconstruction,
bounded-noise and coherent-error models, and a pulse-level two-spin NMR
backend verified against the exact gates.
"""
from .asp import AdiabaticSchedule, ASPResult, interpolated_hamiltonian, run_asp, scan_total_time, trotter_step
from .errors import (
    CompilationError,
    ComputationError,
    DegeneracyError,
    MolphaseError,
    ParseError,
    ReadoutError,
    TauRangeError,
    ValidationError,
)
from .ipea import (
    EnergyResult,
    IpeaResult,
    IterationConfig,
    IterationRecord,
    PhaseEstimate,
    energy_from_phase,
    oracle_phase,
    phase_distance,
    precision_report,
    reconstruct,
    run_ipea,
    to_binary,
)
from .molham import (
    MolecularHamiltonian,
    build_h2,
    choose_tau,
    load_hamiltonian,
    spectrum,
)
from .nmrpulse import (
    DelayEvent,
    PulseEvent,
    PulseSequence,
    compile_controlled_u,
    evolve_sequence,
    run_pulse_backend,
)
from .probe import (
    NoiseModel,
    SpectrumTrace,
    extract_phase_from_spectrum,
    synthesize_spectrum,
)
from .qcore import (
    EigenDecomposition,
    expm_herm,
    hermitian_eig,
)

__version__ = "0.1.0"
