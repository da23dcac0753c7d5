"""The flat ``molphase`` namespace: the README example's names, the
submodules, each module's public names, and the functions the benchmark's
tracer wraps."""
import importlib
import importlib.util
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import molphase as mp

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "bench" / "spans.py"
MUTANTS = ROOT / "tools" / "mutants.py"
README = ROOT / "README.md"
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def test_readme_names_and_submodules_resolve():
    names = ["build_h2", "choose_tau", "IterationConfig", "NoiseModel", "run_ipea", "__version__"]
    modules = ["asp", "errors", "ipea", "molham", "nmrpulse", "probe", "qcore"]
    for name in names + modules:
        assert hasattr(mp, name), name
    for name in modules:
        assert getattr(mp, name).__name__ == f"molphase.{name}"


# Each module's public surface: for the package the names it re-exports, for
# a submodule the names it defines. A deletion or an addition shows here.
PUBLIC_NAMES = {
    "molphase": ["IterationConfig", "NoiseModel", "build_h2", "choose_tau", "run_ipea"],
    "molphase.asp": [
        "ASPResult", "AdiabaticSchedule", "MAX_POINTS", "interpolated_hamiltonian", "run_asp",
        "scan_total_time", "trotter_step",
    ],
    "molphase.cli": [
        "build_parser", "cmd_asp", "cmd_eig", "cmd_ipea", "cmd_noise_sweep", "cmd_spectra",
        "fit_growth_ratio", "load_source", "main", "parse_angle", "resolve_tau",
    ],
    "molphase.errors": [
        "CompilationError", "ComputationError", "DegeneracyError", "MolphaseError", "ParseError",
        "ReadoutError", "TauRangeError", "ValidationError",
    ],
    "molphase.ipea": [
        "EnergyResult", "IpeaResult", "IterationConfig", "IterationRecord", "MAX_REPORT_BITS",
        "PHASE_FLOOR", "PREP_OVERLAP_FLOOR", "PREP_OVERLAP_WARN", "PhaseEstimate", "clip_phase",
        "energy_from_phase", "energy_phase", "estimate", "is_wrapped", "iteration_phase_errors",
        "next_operator", "oracle_phase", "phase_distance", "precision_report", "reconstruct",
        "reference_chain_phases", "require_ground_window", "run_ipea", "running_estimates",
        "to_binary", "trace_csv",
    ],
    "molphase.molham": [
        "GAP_TOL", "H2_MATRIX", "MolecularHamiltonian", "build_h2", "choose_tau", "load_hamiltonian",
        "spectrum",
    ],
    "molphase.nmrpulse": [
        "COMPILE_FIDELITY_FLOOR", "DelayEvent", "PulseEvent", "PulseSequence", "SPINS",
        "compile_controlled_u", "evolve_sequence", "run_pulse_backend", "transverse_rotation",
    ],
    "molphase.probe": [
        "COHERENCE_TOL", "FREQUENCIES_HZ", "J_COUPLING_HZ", "LINE_WIDTH_HZ", "NoiseModel",
        "SPECTRAL_WIDTH_HZ", "SPECTRUM_POINTS", "coherence_readout", "controlled_u",
        "extract_phase_from_spectrum", "ideal_readout", "noisy_readout", "perturbed_hamiltonian",
        "probe_coherence", "reduce_phase", "spectrum_csv", "synthesize_spectrum",
    ],
    "molphase.qcore": [
        "EIG_CACHE_SIZE", "EigenDecomposition", "HERMITIAN_TOL", "KET_MINUS", "KET_PLUS", "MAX_DIM",
        "SIGMA_X", "SIGMA_Z", "STATE_NORM_TOL", "UNITARY_TOL", "as_complex_matrix", "expm_herm",
        "hermitian_eig", "power_chain", "require_hermitian", "require_integer", "require_pure_state",
        "require_unitary",
    ],
}


def test_public_names_are_pinned():
    for name, expected in PUBLIC_NAMES.items():
        module = importlib.import_module(name)
        public = sorted(
            n
            for n, v in vars(module).items()
            if not n.startswith("_")
            and not inspect.ismodule(v)
            and (module is mp or getattr(v, "__module__", name) == name)
        )
        assert public == expected, name


def test_import_does_not_load_numpy_fft():
    # only synthesize_spectrum transforms; the grid is written out in closed form
    env = dict(os.environ, PYTHONPATH=str(Path(mp.__file__).resolve().parent.parent))
    code = "import sys, molphase; print('numpy.fft' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


JITTERED_RUN = (
    "import molphase as mp; h = mp.build_h2();"
    " mp.run_ipea(h, mp.IterationConfig(tau=mp.choose_tau(h)), noise=mp.NoiseModel(5 / 360, rng_seed=7))"
)


@pytest.mark.parametrize(
    "args",
    [
        ["-c", JITTERED_RUN],
        ["-m", "molphase.cli", "ipea", "--jitter", "5deg", "--seed", "7", "--out"],
        ["-m", "molphase.cli", "spectra", "--jitter", "5deg", "--seed", "7", "--out"],
    ],
    ids=["run_ipea", "cli-ipea", "cli-spectra"],
)
def test_jittered_run_does_not_load_numpy_random(args, tmp_path):
    # the jitter stream is drawn in pure Python; numpy.random would pull in
    # secrets, hashlib and OpenSSL. -X importtime lists every import on stderr.
    env = dict(os.environ, PYTHONPATH=str(Path(mp.__file__).resolve().parent.parent))
    argv = [sys.executable, "-X", "importtime", *args] + ([str(tmp_path)] if args[-1] == "--out" else [])
    out = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    imported = [line.rsplit("|", 1)[-1].strip() for line in out.stderr.splitlines() if line.startswith("import time:")]
    assert "numpy" in imported
    assert not [name for name in imported if name.startswith("numpy.random")]


def test_benchmark_tracer_names_are_package_callables():
    # bench/spans.py wraps each TRACED name by module attribute; a renamed
    # or deleted function would otherwise fail only under the benchmark
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, names in spans.TRACED.items():
        for name in names:
            assert callable(getattr(getattr(mp, module), name, None)), f"{module}.{name}"


def test_mutant_old_texts_occur_once():
    # tools/mutants.py edits each old text in place; a refactor that moves
    # or duplicates one must update the list in the same change
    spec = importlib.util.spec_from_file_location("mutants", MUTANTS)
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
    for m in mutants.MUTANTS:
        assert (ROOT / m.path).read_text().count(m.old) == 1, m.name
        assert m.new != m.old, m.name


def test_readme_is_the_one_list_of_commands_and_demos():
    # tools/outputs.sh runs README's `molphase ...` and `python demos/...`
    # lines, and CI calls that script, so the workflow names neither
    subcommands = ["eig", "ipea", "asp", "noise-sweep", "spectra"]
    lines = README.read_text().splitlines()
    commands = [i for i, line in enumerate(lines) if line.startswith("molphase ")]
    assert [lines[i].split()[1] for i in commands] == subcommands
    opening = lines.index("```", lines.index("## Command line"))
    assert all(opening < i < lines.index("```", opening + 1) for i in commands)
    demos = sorted(line.split()[1] for line in lines if line.startswith("python demos/"))
    assert demos == sorted(f"demos/{path.name}" for path in (ROOT / "demos").glob("*.py"))
    workflow = WORKFLOW.read_text()
    assert "demos/" not in workflow
    for name in subcommands + [Path(d).stem for d in demos]:
        assert not re.search(rf"(?<![\w-]){re.escape(name)}(?![\w-])", workflow), name
