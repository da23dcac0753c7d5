"""One guarantee for every path: a run that is not rejected reports bits that hold.

Hypothesis draws a system (H2, a random 2x2 whose ground energy has either
sign, or a random 3x3 or 4x4), a tau (automatic, or explicit and possibly
outside the window in which a phase names the ground energy), an operating
point (n, k, bound) that may be inadmissible, a jitter sequence (draws of
+-bound or inside it) and a path: ``run_ipea``, ``run_pulse_backend``
without over-rotation, or ``molphase ipea`` on a JSON document. Either the
run is rejected with ``ValidationError`` (exit 2, nothing written), or its
energy lies within (2 pi / tau) g of the oracle, g = bound * 2^(-n (k-1)),
up to float64 rounding, and its guaranteed bits are all correct.

Preparation leakage and the coherent error are outside the guarantee:
every path starts from the exact ground state with no coherent error,
which no drawn case can change.
"""
import contextlib
import io
import json
import tempfile
from pathlib import Path
from typing import NamedTuple

import numpy as np
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from molphase import cli, ipea, molham, nmrpulse
from molphase.errors import ValidationError

from conftest import H2_TAU, FixedJitter, random_unitary

# float64 rounding of a rebuilt phase below one, in turns
FLOAT_FLOOR = 8 * 2.0**-52
MIN_GAP = 0.05  # far above molham.GAP_TOL, so no drawn system is degenerate
PATHS = ("run_ipea", "pulse", "cli")


class Case(NamedTuple):
    matrix: np.ndarray
    tau: float | str  # "auto" for molham.choose_tau
    n: int
    k: int
    bound: float
    fractions: list[float]  # jitter draws as fractions of the bound
    path: str
    seed: int  # the jitter seed of the cli path, which draws uniformly


def final_bound(case):
    return case.bound * 2.0 ** (-case.n * (case.k - 1))


@st.composite
def systems(draw):
    """A Hermitian matrix with a known gap of at least ``MIN_GAP``."""
    kind = draw(st.sampled_from(["h2", "2x2", "larger"]))
    if kind == "h2":
        return molham.H2_MATRIX
    dim = 2 if kind == "2x2" else draw(st.sampled_from([3, 4]))
    e0 = draw(st.floats(-3.0, 3.0))
    gaps = draw(st.lists(st.floats(MIN_GAP, 3.0), min_size=dim - 1, max_size=dim - 1))
    energies = e0 + np.cumsum([0.0] + gaps)
    v = random_unitary(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), dim)
    return (v * energies) @ v.conj().T


@st.composite
def cases(draw):
    matrix = draw(systems())
    n = draw(st.integers(1, 5) | st.integers(1, 17) | st.integers(1, ipea.MAX_REPORT_BITS))
    # k past the 52-bit cap, and bounds at or past the admissibility edge, are rejected
    k = draw(st.integers(1, ipea.MAX_REPORT_BITS // n + 1))
    edge = 1.0 / (2.0 ** (n + 1) + 2.0)
    bound = edge * draw(st.sampled_from([0.0, 0.9999, 1.0 - 2.0**-20, 1.0, 1.5]) | st.floats(0.0, 1.0))
    g = bound * 2.0 ** (-n * (k - 1))
    e0 = float(np.linalg.eigvalsh(matrix)[0])
    # an explicit tau aims the ground phase -E0 tau / 2 pi at a drawn
    # target: at or near the window [g, 1 - g], past it, or anywhere
    targets = st.sampled_from([g, 2.0 * g, 1.0 - g, 1.0 - 2.0 * g, 0.0, 1.0, 1.5]) | st.floats(0.0, 1.0)
    tau = draw(st.just("auto") | targets.map(lambda t: 2.0 * np.pi * t / abs(e0) if e0 else 1.0))
    if tau != "auto" and not 0.0 < tau < 1e6:
        tau = draw(st.floats(0.01, 10.0))
    fractions = draw(st.lists(st.sampled_from([-1.0, 1.0]) | st.floats(-1.0, 1.0), min_size=k, max_size=k))
    path = draw(st.sampled_from(PATHS))
    return Case(matrix, tau, n, k, bound, fractions, path, draw(st.integers(0, 2**32 - 1)))


def run_library(case):
    """(tau, energy, oracle energy, guaranteed bits, correct bits) of a library run."""
    h = molham.MolecularHamiltonian(case.matrix, label="drawn")
    tau = molham.choose_tau(h) if case.tau == "auto" else case.tau
    config = ipea.IterationConfig(case.n, case.k, case.bound, tau)
    if case.path == "pulse":
        result = nmrpulse.run_pulse_backend(h, config)
    else:
        noise = FixedJitter(case.bound, draws=tuple(f * case.bound for f in case.fractions))
        result = ipea.run_ipea(h, config, noise=noise)
    oracle = ipea.oracle_phase(h, tau)
    correct = ipea.precision_report(result.phase, oracle)
    return tau, result.energy.energy, result.energy.oracle_energy, result.phase.guaranteed_bits, correct


def run_cli(case):
    """The same as ``run_library`` through ``molphase ipea``, which reports
    no guaranteed bits (0 here); None when it exits 2."""
    with tempfile.TemporaryDirectory() as tmp:
        doc = Path(tmp) / "h.json"
        doc.write_text(json.dumps({
            "label": "drawn", "dim": case.matrix.shape[0],
            "matrix_re": case.matrix.real.tolist(), "matrix_im": case.matrix.imag.tolist(),
        }))
        out = Path(tmp) / "out"
        args = [
            "ipea", "--hamiltonian", str(doc), "--out", str(out), "--tau", str(case.tau),
            "--bits", str(case.n), "--iterations", str(case.k),
            "--errbd", repr(case.bound), "--jitter", repr(case.bound), "--seed", str(case.seed),
        ]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(args)
        assert code in (0, 2), stderr.getvalue()
        if code == 2:
            assert not out.exists()
            return None
    lines = dict(line.split(": ", 1) for line in stdout.getvalue().splitlines())
    energy = float(lines["energy"].split()[0])
    oracle_energy = float(lines["oracle energy"].split()[0])
    tau = molham.choose_tau(molham.MolecularHamiltonian(case.matrix)) if case.tau == "auto" else case.tau
    return tau, energy, oracle_energy, 0, int(lines["correct bits vs oracle"])


def outcome(case):
    """The result tuple of the case's path, or None when it was rejected."""
    if case.path == "cli":
        return run_cli(case)
    try:
        return run_library(case)
    except ValidationError:
        return None


# the two runs that reported a wrong energy with full bits before the window check
POSITIVE_E0 = Case(np.diag([0.01, 1.01]), "auto", 3, 6, 5.0 / 360.0, [0.0] * 6, "cli", 0)
PAST_A_TURN = Case(np.diag([-5.0, -3.0, -1.0, -0.5]), 1.9, 3, 6, 5.0 / 360.0, [0.0] * 6, "run_ipea", 0)


class TestGuarantee:
    @settings(max_examples=150, deadline=None)
    @given(cases())
    @example(POSITIVE_E0)
    @example(POSITIVE_E0._replace(path="pulse"))
    @example(PAST_A_TURN)
    @example(PAST_A_TURN._replace(path="cli"))
    def test_rejected_or_within_the_contracted_bound(self, case):
        result = outcome(case)
        event(f"{case.path}: {'rejected' if result is None else 'ran'}")
        if result is None:
            return
        tau, energy, oracle_energy, guaranteed, correct = result
        limit = 2.0 * np.pi / tau * (final_bound(case) + FLOAT_FLOOR)
        assert abs(energy - oracle_energy) <= limit
        assert guaranteed <= correct

    def test_h2_runs_on_every_path(self):
        # the guarantee is not met by rejecting everything
        case = Case(molham.H2_MATRIX, "auto", 3, 6, 5.0 / 360.0, [1.0, -1.0] * 3, "run_ipea", 7)
        for path in PATHS:
            tau, energy, oracle_energy, guaranteed, correct = outcome(case._replace(path=path))
            assert tau == H2_TAU
            assert abs(energy - oracle_energy) <= 2.0 * np.pi / tau * final_bound(case)
            assert guaranteed == (0 if path == "cli" else 18)
            assert correct >= 18
