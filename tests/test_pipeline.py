"""End-to-end pipeline: adiabatic preparation feeding phase estimation."""
import warnings

import numpy as np
import pytest

from molphase import asp, ipea, molham, probe

from conftest import ERRBD_5DEG, H2_PHASE, H2_TAU, JITTER_FINAL_BOUND


@pytest.fixture(scope="module")
def prepared(h2_module):
    return asp.run_asp(asp.AdiabaticSchedule(steps=6, total_time=9.5, target=h2_module))


@pytest.fixture(scope="module")
def h2_module():
    return molham.build_h2()


def test_preparation_quality_triggers_warning(h2_module, prepared):
    assert 0.99 <= prepared.fidelity < 0.999
    with pytest.warns(UserWarning, match="overlap"):
        ipea.run_ipea(
            h2_module, ipea.IterationConfig(tau=H2_TAU), prep=prepared.final_state
        )


def test_leakage_is_phase_aligned_by_the_tau_choice(h2_module, prepared):
    # tau = pi / (E1 - E0): the leaked excited amplitude is anti-phased in
    # round 0 (shrinking coherence magnitude only) and re-phases onto the
    # ground phase once the operator is raised to 2^n, so the estimate is
    # exact despite the imperfect preparation
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, phase, energy = ipea.run_ipea(
            h2_module, ipea.IterationConfig(tau=H2_TAU), prep=prepared.final_state
        )
    assert ipea.phase_distance(phase.value, H2_PHASE) <= 1e-12
    assert energy.abs_error <= 1e-9
    spread_phase = (molham.spectrum(h2_module).energies[1]
                    - molham.spectrum(h2_module).energies[0]) * H2_TAU / (2 * np.pi)
    assert spread_phase == pytest.approx(0.5, abs=1e-12)


def test_full_pipeline_keeps_seventeen_bits_under_jitter(h2_module, prepared):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for seed in range(100):
            noise = probe.NoiseModel(phase_jitter_bound=ERRBD_5DEG, rng_seed=seed)
            _, phase, _ = ipea.run_ipea(
                h2_module,
                ipea.IterationConfig(tau=H2_TAU),
                prep=prepared.final_state,
                noise=noise,
            )
            assert ipea.phase_distance(phase.value, H2_PHASE) <= JITTER_FINAL_BOUND
            assert ipea.precision_report(phase, H2_PHASE) >= 17


def test_pipeline_spectra_round_trip(h2_module, prepared):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        records, _, _ = ipea.run_ipea(
            h2_module,
            ipea.IterationConfig(tau=H2_TAU),
            prep=prepared.final_state,
            noise=probe.NoiseModel(phase_jitter_bound=ERRBD_5DEG, rng_seed=5),
        )
    reference = probe.synthesize_spectrum(0.0)
    for rec in records:
        trace = probe.synthesize_spectrum(rec.measured_phase)
        got = probe.extract_phase_from_spectrum(trace, reference)
        assert ipea.phase_distance(got, rec.measured_phase) <= 0.0003


@pytest.mark.parametrize("times", [20, 59])
def test_prepared_chain_diagonalizes_the_target_once(eigh_calls, times):
    h = molham.MolecularHamiltonian(np.array([[-1.9, 0.2], [0.2, -0.3]]), label="H2-like")
    tau = molham.choose_tau(h)
    scan = asp.scan_total_time(h, 6, np.arange(1.0, 30.0 + 1e-9, 0.5)[:times])
    best_t = max(scan, key=lambda p: p[1])[0]
    prepared = asp.run_asp(asp.AdiabaticSchedule(steps=6, total_time=best_t, target=h))
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "prepared state overlaps", UserWarning)
        ipea.run_ipea(h, ipea.IterationConfig(tau=tau), prep=prepared.final_state)
    # sigma_x and the target once each, then one batched call per sweep (scan and run_asp)
    assert sorted(np.ndim(a[0]) for a in eigh_calls) == [2, 2, 3, 3]
