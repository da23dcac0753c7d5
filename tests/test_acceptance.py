"""Acceptance suite: every headline capability at its stated tolerance.

Each criterion prints one PASS/FAIL line (visible with ``pytest -v -s`` or
in the captured output of a failing run) and asserts the same condition.
Runtime budgets are checked with ``time.perf_counter`` after a warm-up of
the code path under test.
"""
import time

import numpy as np
import pytest

from molphase import asp, ipea, molham, nmrpulse, probe, qcore

from conftest import (
    ERRBD_5DEG,
    H2_GROUND_ENERGY,
    H2_PHASE,
    H2_TAU,
    JITTER_FINAL_BOUND,
    random_negative_hamiltonian,
    random_unitary,
)


def report(number: int, passed: bool, detail: str):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {number:2d}] {status}: {detail}")
    assert passed, f"criterion {number}: {detail}"


def default_config(tau=H2_TAU, iterations=6):
    return ipea.IterationConfig(
        bits_per_iteration=3, iterations=iterations, phase_error_bound=ERRBD_5DEG, tau=tau
    )


def test_criterion_1_eigensolver_oracle(h2):
    molham.spectrum(h2)  # warm up the code path
    t0 = time.perf_counter()
    energy = molham.spectrum(h2).ground_energy
    elapsed = time.perf_counter() - t0
    ok = abs(energy - (-1.8516)) <= 5e-5 and elapsed < 1e-3
    report(1, ok, f"ground energy {energy:.6f} vs -1.8516 (+-5e-5), runtime {elapsed * 1e6:.0f} us")


def test_criterion_2_tau_formula(h2):
    tau = molham.choose_tau(h2)
    ok = abs(tau - 1.941122) <= 1e-6
    report(2, ok, f"choose_tau = {tau:.7f} vs 1.941122 (+-1e-6)")


def test_criterion_3_noiseless_exactness(h2):
    config = default_config()
    ipea.run_ipea(h2, config)  # warm up
    t0 = time.perf_counter()
    _, phase, energy = ipea.run_ipea(h2, config)
    elapsed = time.perf_counter() - t0
    phase_err = ipea.phase_distance(phase.value, H2_PHASE)
    energy_err = abs(energy.energy - energy.oracle_energy)
    ok = phase_err <= 1e-12 and energy_err <= 1e-9 and elapsed < 10e-3
    report(
        3,
        ok,
        f"|dphi| = {phase_err:.2e} (<=1e-12), |dE| = {energy_err:.2e} (<=1e-9), "
        f"runtime {elapsed * 1e3:.2f} ms",
    )


def test_criterion_4_bounded_noise_precision(h2):
    config = default_config()
    t0 = time.perf_counter()
    worst = 0.0
    min_bits = 10**9
    for seed in range(1000):
        noise = probe.NoiseModel(phase_jitter_bound=ERRBD_5DEG, rng_seed=seed)
        _, phase, _ = ipea.run_ipea(h2, config, noise=noise)
        worst = max(worst, ipea.phase_distance(phase.value, H2_PHASE))
        min_bits = min(min_bits, ipea.precision_report(phase, H2_PHASE))
    elapsed = time.perf_counter() - t0
    ok = worst <= JITTER_FINAL_BOUND and min_bits >= 17 and elapsed < 5.0
    report(
        4,
        ok,
        f"1000 seeds: worst |dphi| = {worst:.3e} (<= {JITTER_FINAL_BOUND:.3e}), "
        f"min bits = {min_bits} (>=17), runtime {elapsed:.2f} s",
    )


def test_criterion_5_coherent_error_growth(h2):
    config = default_config()
    t0 = time.perf_counter()
    noise = probe.NoiseModel(coherent_epsilon=1e-4)
    records, _, _ = ipea.run_ipea(h2, config, noise=noise)
    errors = ipea.iteration_phase_errors(records, H2_PHASE, 3)
    ratios_ok = True
    steps = 0
    while steps + 1 < len(errors) and errors[steps] <= ERRBD_5DEG:
        ratios_ok &= 6.0 <= errors[steps + 1] / errors[steps] <= 10.0
        steps += 1
    exceeded = max(errors) > ERRBD_5DEG
    bits = []
    for k_max in (2, 4, 6):
        _, phase, _ = ipea.run_ipea(h2, default_config(iterations=k_max), noise=noise)
        bits.append(ipea.precision_report(phase, H2_PHASE))
    plateau = max(bits) - min(bits) <= 1
    elapsed = time.perf_counter() - t0
    ok = ratios_ok and steps >= 3 and exceeded and plateau and elapsed < 1.0
    report(
        5,
        ok,
        f"growth ratios in [6,10] for {steps} steps until > errbd (exceeded={exceeded}), "
        f"bits vs k_max {bits} plateau={plateau}, runtime {elapsed * 1e3:.0f} ms",
    )


def test_criterion_6_asp_fidelity(h2):
    t0 = time.perf_counter()
    scan = asp.scan_total_time(h2, 6, np.arange(1.0, 30.0 + 1e-9, 0.5))
    best = max(f for _, f in scan)
    dense = asp.run_asp(asp.AdiabaticSchedule(steps=200, total_time=50.0, target=h2)).fidelity
    elapsed = time.perf_counter() - t0
    ok = best >= 0.99 and dense >= 0.999 and elapsed < 5.0
    report(
        6,
        ok,
        f"6-step best fidelity {best:.4f} (>=0.99), 200-step T=50 fidelity {dense:.5f} "
        f"(>=0.999), runtime {elapsed:.2f} s",
    )


def test_criterion_7_trotter_order(h2):
    delta = 0.2
    exact = lambda d: qcore.expm_herm(asp.interpolated_hamiltonian(h2, 0.5), d)
    asp.trotter_step(h2, 0.5, delta)  # warm up
    t0 = time.perf_counter()
    err = np.abs(asp.trotter_step(h2, 0.5, delta) - exact(delta)).max()
    err_half = np.abs(asp.trotter_step(h2, 0.5, delta / 2) - exact(delta / 2)).max()
    elapsed = time.perf_counter() - t0
    ratio = err / err_half
    ok = 6.0 <= ratio <= 10.0 and elapsed < 0.1
    report(7, ok, f"step-error ratio on halving delta = {ratio:.3f} (in [6,10]), "
                  f"runtime {elapsed * 1e3:.1f} ms")


def test_criterion_8_pulse_backend_equivalence(h2):
    t0 = time.perf_counter()
    config = default_config(iterations=3)
    ideal = ipea.run_ipea(h2, config)
    pulsed = nmrpulse.run_pulse_backend(h2, config)
    worst_phase = max(
        ipea.phase_distance(a.measured_phase, b.measured_phase)
        for a, b in zip(ideal.records, pulsed.records)
    )
    rng = np.random.default_rng(1234)
    worst_fidelity = min(
        nmrpulse.compile_controlled_u(random_unitary(rng)).achieved_fidelity
        for _ in range(100)
    )
    elapsed = time.perf_counter() - t0
    ok = worst_phase <= 1e-8 and worst_fidelity >= 1.0 - 1e-9 and elapsed < 5.0
    report(
        8,
        ok,
        f"backend phase mismatch {worst_phase:.2e} (<=1e-8), worst compile fidelity "
        f"1-{1.0 - worst_fidelity:.2e} (>=1-1e-9), runtime {elapsed:.2f} s",
    )


def test_criterion_9_oracle_equivalence_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20250811)
    worst = 0.0
    for _ in range(100):
        h = random_negative_hamiltonian(rng)
        tau = molham.choose_tau(h)
        _, _, energy = ipea.run_ipea(h, default_config(tau=tau))
        tol = 2.0 * np.pi * 2.0**-18 / tau
        worst = max(worst, abs(energy.energy - energy.oracle_energy) / tol)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1.0 and elapsed < 10.0
    report(
        9,
        ok,
        f"100 random systems: worst |dE|/tolerance = {worst:.2e} (<=1), "
        f"runtime {elapsed:.2f} s",
    )


def test_criterion_10_spectrum_round_trip():
    t0 = time.perf_counter()
    reference = probe.synthesize_spectrum(0.0)
    worst = 0.0
    for phase in np.arange(0.0, 1.0, 1.0 / 64.0):
        got = probe.extract_phase_from_spectrum(probe.synthesize_spectrum(phase), reference)
        worst = max(worst, ipea.phase_distance(got, phase))
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.0003 and elapsed < 2.0
    report(10, ok, f"worst extraction error over 64-point grid = {worst:.2e} turns "
                   f"(<=0.0003), runtime {elapsed:.2f} s")
