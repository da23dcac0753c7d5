"""Exception hierarchy.

Two broad families: ``ValidationError`` for bad inputs or configuration
(caught before any computation starts) and ``ComputationError`` for
failures arising during a run. The CLI maps them to exit codes 2 and 1.
A degenerate ground state is bad input: it depends on the Hamiltonian
alone and is found before any run work, by ``molham.require_gap`` (in
``spectrum`` and the sweep) or ``choose_tau`` (h proportional to I).
"""


class MolphaseError(Exception):
    """Base class for all package errors."""


class ValidationError(MolphaseError, ValueError):
    """Input, configuration, or document failed validation."""


class ParseError(ValidationError):
    """A structured text document could not be parsed."""


class TauRangeError(ValidationError):
    """The ground phase -E0 tau / 2 pi lies outside the window in which a
    phase estimate names E0; ``ipea.require_ground_window``, which every
    run calls before it builds an operator, is its one raiser."""


class DegeneracyError(ValidationError):
    """Ground state is degenerate (or gap below tolerance)."""


class ComputationError(MolphaseError):
    """A computation failed on otherwise valid inputs."""


class ReadoutError(ComputationError):
    """Probe phase is undefined (vanishing coherence or reference)."""


class CompilationError(ComputationError):
    """Pulse compilation missed its fidelity target."""
