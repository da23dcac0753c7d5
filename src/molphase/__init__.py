"""molphase: molecular ground-state energies by iterative phase estimation.

A small-system simulator of the full measurement pipeline: adiabatic
preparation of the molecular ground state, controlled-U interferometry on
a probe spin, clipped-phase iteration with recursive bit reconstruction,
bounded-noise and coherent-error models, and a pulse-level two-spin NMR
backend verified against the exact gates.
"""
from . import asp, errors, ipea, molham, nmrpulse, probe, qcore
from .ipea import IterationConfig, run_ipea
from .molham import build_h2, choose_tau
from .probe import NoiseModel

__version__ = "0.1.0"
