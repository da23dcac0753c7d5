"""Contract fuzzer: whatever the arguments or the document, the command line
classifies the outcome by its exit code, and the library raises only
``MolphaseError``.

Hypothesis draws a subcommand with flag values near the float limits and on
both sides of the input bound 2^500 (``qcore.MAX_MAGNITUDE``), and a JSON
document of dim 1..9, Hermitian or not, with entries from subnormals to the
largest float, 2^500 and the next float past it, ``NaN`` and ``Infinity``
tokens and integers past float range or past ``int()``'s digit limit. Each example runs
``cli.main`` in a fresh temporary directory with warnings as errors, and
- returns 0, 1 or 2, or exits 2 in argparse, and raises nothing else;
- returns 2 only on a ``ValidationError``, 1 only on another
  ``MolphaseError``;
- leaves the directory as it was unless it returns 0;
- writes no ``nan`` or ``inf`` to a file or to stdout when it returns 0.

The library twin draws the same kinds of matrices and operating points into
``run_ipea``, ``scan_total_time``, ``run_asp``, ``run_pulse_backend`` and
``compile_controlled_u``, extreme phases, amplitudes and digit counts
into ``synthesize_spectrum``, ``extract_phase_from_spectrum`` and
``to_binary``, and extreme n, bounds, taus and phases, with records of the
kind a run returns, into the report helpers ``reconstruct``,
``running_estimates``, ``clip_phase``, ``is_wrapped``,
``iteration_phase_errors``, ``oracle_phase`` and ``energy_from_phase``. A
spectrum, phase, phase error or rebuilt estimate it returns is finite, and a
bit string holds only binary digits.

Every drawn value is a plausible one or an extreme one, so that runs pass
validation often enough to reach the computation. A matrix's plain entries
come from one seeded ``Random`` and up to three of them are replaced by
drawn extremes, which keeps generation cheap. A sweep costs its slices
times its total times, a 2^16-slice one about 1.5 s, so slice counts stop
at 64 below the rejected ``MAX_POINTS + 1``; ``tests/test_asp.py`` runs the
largest sweep, and each test runs 75 examples, to keep the module near 2 s.
"""
import cmath
import contextlib
import io
import math
import re
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from molphase import asp, cli, ipea, molham, nmrpulse, probe
from molphase.errors import MolphaseError, ValidationError

# three quarters of the loaded profile's examples: 75 by default, 1500 under
# --hypothesis-profile=contract (registered in conftest.py)
FUZZ = settings(
    max_examples=settings.default.max_examples * 3 // 4, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

MAX = sys.float_info.max
# the largest accepted magnitude, qcore.MAX_MAGNITUDE, and the next float past it
AT_BOUND = [2.0**500, -(2.0**500), math.nextafter(2.0**500, math.inf), -math.nextafter(2.0**500, math.inf)]
EXTREME_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-300, 1e300, -1e300, 1e308, -1e308, 1.7e308, MAX, -MAX,
    *AT_BOUND,
]
EXTREME_ENTRIES = [repr(x) for x in EXTREME_FLOATS] + ["NaN", "Infinity", "-Infinity", "1" + "0" * 400, "9" * 5000]
EXTREME_NUMBERS = [
    "0", "-0", "-1", "1e-300", "5e-324", "1e300", "-1e300", "1e308", "-1e308", "1.7976931348623157e308", "1e999",
    "nan", "inf", "-inf", "x", "", *map(repr, AT_BOUND),
]
EXTREME_COUNTS = [-1, 0, 52, 53, asp.MAX_POINTS + 1, 2**63]
# bits per iteration past the cap, past 2^n's float range and of other types
EXTREME_BITS = [-2000, -1, 0, 52, 53, 1023, 2000, 2**63, True, 3.0, np.int64(3)]
NON_FINITE = [math.inf, -math.inf, math.nan]
NON_FINITE_TEXT = re.compile(r"(?<![a-z])(nan|inf|infinity)(?![a-z])", re.IGNORECASE)
# what cli.main calls that may raise: every subcommand and the --out check
RAISING = ("cmd_eig", "cmd_ipea", "cmd_asp", "cmd_noise_sweep", "cmd_spectra", "_require_out_dir")


def mostly(plausible, extreme):
    """A draw of ``plausible`` seven times in eight, else of ``extreme``."""
    return st.integers(0, 7).flatmap(lambda i: extreme if i == 7 else plausible)


def extreme_floats():
    return st.one_of(st.sampled_from(EXTREME_FLOATS), st.floats())


def matrix_rows(draw, size, entry, extreme):
    """size x size ``entry(rnd)`` values from one seeded ``Random``, up to
    three of them replaced by draws of ``extreme``."""
    rnd = draw(st.randoms(use_true_random=False))
    rows = [[entry(rnd) for _ in range(size)] for _ in range(size)]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        rows[draw(st.integers(0, size - 1))][draw(st.integers(0, size - 1))] = draw(extreme)
    return rows


def negated(text):
    return text[1:] if text.startswith("-") else text if text == "NaN" else "-" + text


@st.composite
def documents(draw):
    """A Hamiltonian document's text. Usually its rows match its dim; half the
    time it has an imaginary part, and half the time it is mirrored to be
    Hermitian."""
    size = draw(st.integers(1, 9))
    dim = draw(st.sampled_from([size] * 6 + [0, size + 1]))

    def entry(rnd):
        return repr(rnd.uniform(-4.0, 4.0)) if rnd.random() < 0.8 else str(rnd.randint(-3, 3))

    extreme = st.sampled_from(EXTREME_ENTRIES)
    re_rows = matrix_rows(draw, size, entry, extreme)
    im_rows = matrix_rows(draw, size, entry, extreme) if draw(st.booleans()) else None
    if draw(st.booleans()):
        for i in range(size):
            for j in range(i):
                re_rows[j][i] = re_rows[i][j]
                if im_rows is not None:
                    im_rows[j][i] = negated(im_rows[i][j])
            if im_rows is not None:
                im_rows[i][i] = "0"

    def rows(matrix):
        return "[" + ", ".join("[" + ", ".join(row) + "]" for row in matrix) + "]"

    imaginary = f', "matrix_im": {rows(im_rows)}' if im_rows is not None else ""
    return f'{{"dim": {dim}, "matrix_re": {rows(re_rows)}{imaginary}}}'


def number(low, high):
    return mostly(st.floats(low, high).map(repr), st.one_of(st.sampled_from(EXTREME_NUMBERS), st.floats().map(repr)))


def count(low, high, *extremes):
    return mostly(st.integers(low, high), st.sampled_from(EXTREME_COUNTS + list(extremes))).map(str)


ANGLE_EXTREMES = st.one_of(st.sampled_from(EXTREME_NUMBERS), st.sampled_from(EXTREME_NUMBERS).map(lambda t: t + "deg"))
FLAGS = {
    "tau": mostly(st.sampled_from(["auto", "1", "1.9"]), number(0.0, 4.0)),
    "bits": count(1, 4, "x"),
    "iterations": count(1, 8),
    "errbd": mostly(st.sampled_from(["5deg", "1deg", "0.01", "0"]), ANGLE_EXTREMES),
    "jitter": mostly(st.sampled_from(["0", "1deg", "5deg", "-0"]), ANGLE_EXTREMES),
    "seed": count(0, 100, 2**200),
    "steps": count(1, 64),
    "total-time": number(0.1, 20.0),
    "scan": mostly(
        st.tuples(number(0.1, 5.0), number(5.0, 20.0), number(0.1, 5.0)).map(":".join),
        st.sampled_from(["1:2", "1:2:1:1", "1:1:1"]),
    ),
    "epsilons": st.lists(number(0.0, 1e-2), min_size=1, max_size=3).map(",".join),
}
# asp takes one of --total-time and --scan; a group draws one of its flags
# seven times in eight, else none or both
SUBCOMMAND_FLAGS = {
    "eig": [],
    "ipea": ["tau", "bits", "iterations", "errbd", "jitter", "seed"],
    "asp": ["steps", ("total-time", "scan")],
    "noise-sweep": ["tau", "bits", "iterations", "errbd", "epsilons"],
    "spectra": ["tau", "bits", "iterations", "errbd", "jitter", "seed"],
}


def chosen_flags(draw, names):
    for name in names:
        if isinstance(name, tuple):
            yield from draw(mostly(st.sampled_from([[n] for n in name]), st.sampled_from([[], list(name)])))
        elif draw(st.booleans()):
            yield name


@st.composite
def invocations(draw):
    """A subcommand, a subset of its flags as ``--flag=value``, a document
    (or the built-in H2) and an --out: new, nested, an existing file or
    below one."""
    command = draw(st.sampled_from(sorted(SUBCOMMAND_FLAGS)))
    flags = [f"--{flag}={draw(FLAGS[flag])}" for flag in chosen_flags(draw, SUBCOMMAND_FLAGS[command])]
    document = draw(st.one_of(st.none(), documents()))
    out = draw(st.sampled_from(["o", "o", "a/b", "f", "f/o"]))
    return command, flags, document, out


def snapshot(root):
    return {str(p.relative_to(root)): p.read_text() if p.is_file() else None for p in sorted(root.rglob("*"))}


def run_cli(command, flags, document, out):
    """The exit code ("argparse" for argparse's exit), the exceptions that
    left a subcommand or the --out check, stdout, and the temporary
    directory's files before and after, each file's text keyed by its path."""
    raised = []

    def recording(function):
        def wrapper(*args):
            try:
                return function(*args)
            except BaseException as exc:
                raised.append(exc)
                raise

        return wrapper

    with tempfile.TemporaryDirectory(prefix="contract-") as tmp:
        root = Path(tmp)
        (root / "f").write_text("kept\n")
        source = "h2"
        if document is not None:
            (root / "doc.json").write_text(document)
            source = str(root / "doc.json")
        before = snapshot(root)
        argv = [command, *flags, "--hamiltonian", source, "--out", str(root / out)]
        stdout, stderr = io.StringIO(), io.StringIO()
        wrappers = {name: recording(getattr(cli, name)) for name in RAISING}
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), warnings.catch_warnings():
            warnings.simplefilter("error")
            with mock.patch.multiple(cli, **wrappers):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    assert exc.code == 2 and not raised, (argv, exc.code, stderr.getvalue())
                    code = "argparse"
        return code, raised, stdout.getvalue().replace(tmp, "<tmp>"), before, snapshot(root)


@FUZZ
@given(invocations())
def test_cli_exit_code_classifies_every_outcome(invocation):
    code, raised, stdout, before, after = run_cli(*invocation)
    assert code in (0, 1, 2, "argparse"), (invocation, code)
    if code == 0:
        assert not raised, (invocation, raised)
        written = [(path, after[path]) for path in sorted(after.keys() - before.keys())]
        for path, text in [("stdout", stdout), *written]:
            assert text is None or not NON_FINITE_TEXT.search(text), (invocation, path, text[:2000])
        return
    assert after == before, (invocation, code)
    if code == "argparse":
        return
    assert len(raised) == 1, (invocation, raised)
    assert isinstance(raised[0], MolphaseError), (invocation, raised)
    assert isinstance(raised[0], ValidationError) == (code == 2), (invocation, code, raised)


@st.composite
def unitaries(draw):
    """e^(i a) [[cos t, -e^(-i p) sin t], [e^(i p) sin t, cos t]], unitary to rounding."""
    a, t, p = (draw(st.floats(-10.0, 10.0)) for _ in range(3))
    c, s = math.cos(t), math.sin(t)
    return cmath.exp(1j * a) * np.array([[c, -cmath.exp(-1j * p) * s], [cmath.exp(1j * p) * s, c]])


@st.composite
def matrices(draw):
    """A complex matrix, 2x2 seven times in eight, else of dim 1..9, mirrored
    to be Hermitian seven times in eight."""
    size = draw(mostly(st.just(2), st.integers(1, 9)))
    extreme = extreme_floats()
    re_part = matrix_rows(draw, size, lambda rnd: rnd.uniform(-4.0, 4.0), extreme)
    im_part = matrix_rows(draw, size, lambda rnd: rnd.uniform(-4.0, 4.0), extreme)
    m = np.array([[complex(x, y) for x, y in zip(*rows)] for rows in zip(re_part, im_part)])
    if draw(mostly(st.just(True), st.just(False))):
        m = np.triu(m, 1) + np.diag(m.diagonal().real) + np.triu(m, 1).T.conj()
    return m


def phases():
    return mostly(st.floats(0.0, 1.0, exclude_max=True), st.one_of(extreme_floats(), st.sampled_from(NON_FINITE)))


@st.composite
def spectra(draw):
    """A synthesized spectrum, up to three of its amplitudes replaced by
    complex numbers of extreme, infinite or NaN parts."""
    amplitudes = probe.synthesize_spectrum(draw(st.floats(0.0, 1.0, exclude_max=True)))
    part = st.one_of(extreme_floats(), st.sampled_from(NON_FINITE))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        amplitudes[draw(st.integers(0, amplitudes.size - 1))] = complex(draw(part), draw(part))
    return amplitudes


def records():
    """Iteration records as a run returns them: a reading in [0, 1) and its
    signed clip, at most one bound and one turn below it."""
    record = st.builds(ipea.IterationRecord, st.floats(0.0, 1.0, exclude_max=True), st.floats(-1.5, 1.0))
    return st.lists(record, min_size=0, max_size=8)


REPORT_HELPERS = [
    "reconstruct", "running_estimates", "clip_phase", "is_wrapped", "iteration_phase_errors", "oracle_phase",
    "energy_from_phase",
]


def report_call(draw, name, real, tau):
    """(name, thunk) of one report helper on drawn records, n, bound, tau and phases."""
    rows = draw(records())
    n = draw(mostly(st.integers(1, 8), st.sampled_from(EXTREME_BITS)))
    bound = draw(mostly(st.sampled_from([5.0 / 360.0, 0.0, 0.01]), real))
    if name == "reconstruct":
        return name, lambda: ipea.reconstruct(rows, n, bound)
    if name == "running_estimates":
        return name, lambda: ipea.running_estimates(rows, n, bound)
    if name in ("clip_phase", "is_wrapped"):
        measured = draw(phases())
        if name == "is_wrapped":
            return name, lambda: ipea.is_wrapped(measured, bound, n)
        n = draw(st.one_of(st.none(), st.just(n)))
        return name, lambda: ipea.clip_phase(measured, bound, n)
    if name == "iteration_phase_errors":
        theta0 = draw(phases())
        return name, lambda: ipea.iteration_phase_errors(rows, theta0, n)
    matrix = draw(st.one_of(st.just(molham.H2_MATRIX), matrices()))
    if name == "oracle_phase":
        return name, lambda: ipea.oracle_phase(molham.MolecularHamiltonian(matrix), tau)
    value, oracle_energy = draw(phases()), draw(real)

    def energy():
        estimate = ipea.reconstruct([ipea.IterationRecord(value, value)], 3, 0.0)
        return ipea.energy_from_phase(estimate, tau, oracle_energy)

    return name, energy


@st.composite
def library_calls(draw):
    """(name, thunk) of one library call on drawn inputs; building the
    inputs is part of the call."""
    real = mostly(st.floats(-4.0, 4.0), extreme_floats())
    names = [
        "run_ipea", "scan_total_time", "run_asp", "run_pulse_backend", "compile_controlled_u",
        "synthesize_spectrum", "extract_phase_from_spectrum", "to_binary", *REPORT_HELPERS,
    ]
    name = draw(st.sampled_from(names))
    tau = draw(mostly(st.sampled_from([molham.choose_tau(molham.build_h2()), 1.0]), real))
    if name in REPORT_HELPERS:
        return report_call(draw, name, real, tau)
    if name == "synthesize_spectrum":
        phase = draw(phases())
        return name, lambda: probe.synthesize_spectrum(phase)
    if name == "extract_phase_from_spectrum":
        trace, reference = draw(spectra()), draw(spectra())
        return name, lambda: probe.extract_phase_from_spectrum(trace, reference)
    if name == "to_binary":
        value = draw(phases())
        counts = (st.integers(-2, 64), st.integers(1, 64).map(np.int64), st.booleans(), st.floats(-2.0, 64.0))
        digits = draw(st.one_of(*counts))
        return name, lambda: ipea.to_binary(value, digits)
    if name == "compile_controlled_u":
        matrix = draw(mostly(unitaries(), matrices()))
        return name, lambda: nmrpulse.compile_controlled_u(matrix)
    matrix = draw(st.one_of(st.just(molham.H2_MATRIX), matrices()))
    if name in ("scan_total_time", "run_asp"):
        steps = draw(mostly(st.integers(1, 64), st.sampled_from([-1, 0, asp.MAX_POINTS + 1])))
        times = sorted(draw(st.lists(mostly(st.floats(0.1, 20.0), real), min_size=1, max_size=8, unique=True)))
        if name == "run_asp":
            return name, lambda: asp.run_asp(asp.AdiabaticSchedule(steps, times[0], molham.MolecularHamiltonian(matrix)))
        return name, lambda: asp.scan_total_time(molham.MolecularHamiltonian(matrix), steps, times)
    n = draw(mostly(st.integers(1, 4), st.sampled_from(EXTREME_COUNTS[:-2])))
    k = draw(mostly(st.integers(1, 8), st.sampled_from(EXTREME_COUNTS[:-2])))
    bound = draw(mostly(st.sampled_from([5.0 / 360.0, 0.0]), real))
    if name == "run_pulse_backend":
        over = draw(mostly(st.sampled_from([0.0, 1e-3]), real))
        return name, lambda: nmrpulse.run_pulse_backend(
            molham.MolecularHamiltonian(matrix), ipea.IterationConfig(n, k, bound, tau), over
        )
    jitter = draw(mostly(st.sampled_from([0.0, bound / 2.0]), real))
    epsilon = draw(mostly(st.sampled_from([0.0, 1e-4]), real))
    seed = draw(mostly(st.integers(0, 100), st.sampled_from([-1, 2**200])))
    return name, lambda: ipea.run_ipea(
        molham.MolecularHamiltonian(matrix), ipea.IterationConfig(n, k, bound, tau),
        noise=probe.NoiseModel(jitter, epsilon, seed),
    )


@FUZZ
@given(library_calls())
def test_library_raises_only_molphase_errors(case):
    name, call = case
    result = None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.suppress(MolphaseError):
            result = call()
    if isinstance(result, ipea.PhaseEstimate):
        result = np.append(result.reconstruction_trace, result.value)
    if isinstance(result, ipea.EnergyResult):
        result = np.array(result)
    if isinstance(result, list) and all(isinstance(x, (float, ipea.PhaseEstimate)) for x in result):
        result = np.array([x if isinstance(x, float) else x.value for x in result])
    if isinstance(result, (float, np.ndarray)):
        assert np.isfinite(result).all(), (name, result)
    if isinstance(result, str):
        assert re.fullmatch("[01]+", result), (name, result)
