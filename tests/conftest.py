"""Shared fixtures and oracle values.

The frozen constants below were computed from the closed-form 2x2
eigenvalues of the built-in hydrogen matrix: E = mean -+ hypot(delta, H12)
with mean = (H11 + H22)/2 and delta = (H11 - H22)/2, and from
tau = pi / (2 * hypot(delta, H12)).
"""
import contextlib
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import settings

from molphase import asp, molham, probe, qcore

# Hypothesis imports libcst to write the patch of a failing example, and
# that import warns DeprecationWarning (from mypy_extensions). Under
# ``-W error`` the warning would abort the whole session instead of
# reporting the failure, so the module is imported here once, with only
# that import's DeprecationWarning ignored.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

# the long run of tests/test_contract.py, outside tier-1; registered here,
# before the Hypothesis plugin loads --hypothesis-profile
settings.register_profile("contract", max_examples=2000)

# closed-form oracle values for the built-in hydrogen system
H2_GROUND_ENERGY = -1.8515709293511877
H2_EXCITED_ENERGY = -0.23312907064881216
H2_TAU = 1.9411217256260538
H2_PHASE = 0.5720226894142891          # (-E0 * tau / 2pi) mod 1
H2_CLIPPED_PHASE_0 = 0.5581338005254003  # phase - 5/360
ERRBD_5DEG = 5.0 / 360.0
JITTER_FINAL_BOUND = ERRBD_5DEG * 8.0**-5  # ~4.2386e-7

# four-configuration model (hartree), run at tau 1.9
MATRIX_4X4 = np.array([
    [-1.85, 0.18, 0.06, 0.02],
    [0.18, -1.25, 0.09, 0.04],
    [0.06, 0.09, -0.90, 0.12],
    [0.02, 0.04, 0.12, -0.25],
])
TAU_4X4 = 1.9

# single-spin operators and kets that only the tests' reference products read
ID2 = np.eye(2, dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
KET_UP = np.array([1, 0], dtype=complex)
KET_DOWN = np.array([0, 1], dtype=complex)


@pytest.fixture
def h2():
    return molham.build_h2()


@pytest.fixture
def eigh_calls(monkeypatch):
    """The arguments of every ``np.linalg.eigh`` call the test makes, from an
    empty ``qcore.hermitian_eig`` cache, no kept sweep plan and no scan
    record, so that no decomposition or sweep an earlier test left there is
    counted out."""
    qcore._decompose.cache_clear()
    asp._plan.cache_clear()
    asp._record = None
    calls = []
    eigh = np.linalg.eigh

    def counted(*args, **kwargs):
        calls.append(args)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


def random_hermitian(rng, dim=2):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2.0


def random_unitary(rng, dim=2):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_negative_hamiltonian(rng):
    """Random 2x2 Hamiltonian with both energies negative and gap > 0.25.

    The shift keeps the automatic tau valid (|E0| tau < 2 pi) and the
    ground phase well inside (0, 1), the algorithm's operating regime.
    """
    while True:
        m = random_hermitian(rng)
        vals = np.linalg.eigvalsh(m)
        if vals[1] - vals[0] > 0.25:
            return molham.MolecularHamiltonian(
                m - (vals[1] + 0.2) * np.eye(2), label="random"
            )


def h2_like_targets(count, seed=2026, complex_coupling=False):
    """The built-in H2 and ``count`` 2x2 systems of the same sign pattern.

    The systems are real, unless ``complex_coupling`` gives each H12 a
    random phase.
    """
    rng = np.random.default_rng(seed)
    targets = [molham.build_h2()]
    for _ in range(count):
        h11, h22, h12 = rng.uniform(-2.2, -1.4), rng.uniform(-0.6, 0.0), rng.uniform(0.05, 0.4)
        if complex_coupling:
            h12 = h12 * np.exp(2j * np.pi * rng.uniform())
        matrix = np.array([[h11, h12], [np.conj(h12), h22]])
        targets.append(molham.MolecularHamiltonian(matrix, label="H2-like"))
    return targets


@dataclass(frozen=True)
class FixedJitter(probe.NoiseModel):
    """A test fake of the noise model whose jitter draws are given, for
    runs at chosen draws such as the +-bound extremes."""

    draws: tuple[float, ...] = ()

    def jitter_draws(self, count):
        return list(self.draws)
