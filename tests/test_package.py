"""The flat ``molphase`` namespace: the README example's names and the submodules."""
import molphase as mp


def test_readme_names_and_submodules_resolve():
    names = ["build_h2", "choose_tau", "IterationConfig", "NoiseModel", "run_ipea", "__version__"]
    modules = ["asp", "errors", "ipea", "molham", "nmrpulse", "probe", "qcore"]
    for name in names + modules:
        assert hasattr(mp, name), name
    for name in modules:
        assert getattr(mp, name).__name__ == f"molphase.{name}"
