"""The flat ``molphase`` namespace: the README example's names, the
submodules, and the functions the benchmark's tracer wraps."""
import importlib.util
from pathlib import Path

import molphase as mp

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "bench" / "spans.py"
MUTANTS = ROOT / "tools" / "mutants.py"


def test_readme_names_and_submodules_resolve():
    names = ["build_h2", "choose_tau", "IterationConfig", "NoiseModel", "run_ipea", "__version__"]
    modules = ["asp", "errors", "ipea", "molham", "nmrpulse", "probe", "qcore"]
    for name in names + modules:
        assert hasattr(mp, name), name
    for name in modules:
        assert getattr(mp, name).__name__ == f"molphase.{name}"


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
