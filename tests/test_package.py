"""The flat ``molphase`` namespace: the README example's names, the
submodules, and the functions the benchmark's tracer wraps."""
import importlib.util
from pathlib import Path

import molphase as mp

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


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
