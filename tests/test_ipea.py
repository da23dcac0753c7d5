"""Iteration engine: clipping, reconstruction, noise behavior, oracles."""
import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from molphase import ipea, molham, probe, qcore
from molphase.errors import ValidationError

from conftest import (
    ERRBD_5DEG,
    H2_CLIPPED_PHASE_0,
    H2_GROUND_ENERGY,
    H2_PHASE,
    H2_TAU,
    JITTER_FINAL_BOUND,
    MATRIX_4X4,
    TAU_4X4,
    random_negative_hamiltonian,
)

# 25-digit first-round readout from the reference hardware run, used as a
# format fixture: a single-record rebuild must reproduce its bits exactly
REFERENCE_BITSTRING_K0 = "0100011100100101100010010"


def h2_config(**kwargs):
    defaults = dict(bits_per_iteration=3, iterations=6, phase_error_bound=ERRBD_5DEG, tau=H2_TAU)
    defaults.update(kwargs)
    return ipea.IterationConfig(**defaults)


class TestIterationConfig:
    def test_defaults_are_admissible(self):
        cfg = h2_config()
        assert cfg.bits_per_iteration == 3
        assert cfg.iterations == 6

    def test_admissibility_enforced(self):
        # (2^4 + 2) * 0.1 >= 1
        with pytest.raises(ValidationError, match="inadmissible"):
            h2_config(phase_error_bound=0.1)

    @pytest.mark.parametrize("n, bound", [(1, 0.25), (2, 0.125)])
    def test_overlapping_windows_rejected(self, n, bound):
        # 2^-n = 2 * bound, but the window of readings of a residual,
        # [0, (2^(n+1) + 1) bound], reaches the wrapped band [1 - bound, 1)
        with pytest.raises(ValidationError, match="inadmissible"):
            h2_config(bits_per_iteration=n, phase_error_bound=bound)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(bits_per_iteration=0),
            dict(iterations=0),
            dict(tau=0.0),
            dict(phase_error_bound=-0.01),
            dict(phase_error_bound=math.nan),
            dict(tau=math.inf),
            dict(tau=math.nan),
        ],
    )
    def test_field_validation(self, kwargs):
        with pytest.raises(ValidationError):
            h2_config(**kwargs)

    def test_bit_count_capped_at_float64_precision(self):
        h2_config(bits_per_iteration=4, iterations=13)  # 52 bits: the cap itself
        with pytest.raises(ValidationError, match="52"):
            h2_config(bits_per_iteration=3, iterations=18)


class TestOperators:
    def test_base_operator_ground_eigenphase(self, h2):
        u = qcore.expm_herm(h2.matrix, H2_TAU)
        g = molham.spectrum(h2).ground_state
        phase = (np.angle(np.vdot(g, u @ g)) / (2 * np.pi)) % 1.0
        assert phase == pytest.approx(0.572022, abs=1e-6)

    def test_base_operator_zero_hamiltonian(self):
        h = molham.MolecularHamiltonian(np.zeros((2, 2)), label="zero")
        np.testing.assert_allclose(qcore.expm_herm(h.matrix, 1.0), np.eye(2), atol=0)

    def test_base_operator_unitary(self, h2):
        u = qcore.expm_herm(h2.matrix, H2_TAU)
        assert np.abs(u.conj().T @ u - np.eye(2)).max() <= 1e-10

    def test_next_operator_identity(self):
        np.testing.assert_allclose(ipea.next_operator(np.eye(2), 0.0, 3), np.eye(2), atol=0)

    def test_next_operator_diagonal_algebra(self):
        phi, clip, n = 0.3, 0.1, 2
        u = np.diag([1.0, np.exp(2j * np.pi * phi)])
        got = ipea.next_operator(u, clip, n)
        expected = np.diag(
            [np.exp(-2j * np.pi * clip * 2**n), np.exp(2j * np.pi * (phi - clip) * 2**n)]
        )
        np.testing.assert_allclose(got, expected, atol=1e-13)

    def test_h2_second_operator_eigenphase(self, h2):
        u1 = ipea.next_operator(qcore.expm_herm(h2.matrix, H2_TAU), H2_CLIPPED_PHASE_0, 3)
        g = molham.spectrum(h2).ground_state
        phase = (np.angle(np.vdot(g, u1 @ g)) / (2 * np.pi)) % 1.0
        assert phase == pytest.approx(0.111111, abs=1e-6)
        assert phase == pytest.approx(8.0 * (H2_PHASE - H2_CLIPPED_PHASE_0), abs=1e-9)


class TestClipPhase:
    def test_plain_clip(self):
        assert ipea.clip_phase(0.572022, ERRBD_5DEG) == pytest.approx(0.558133, abs=1e-6)

    def test_floor_at_zero(self):
        assert ipea.clip_phase(0.005, ERRBD_5DEG) == 0.0

    def test_fold_wrapped_reading(self):
        assert ipea.clip_phase(0.999, ERRBD_5DEG, 3) == 0.0
        assert ipea.clip_phase(0.999, ERRBD_5DEG) == pytest.approx(
            0.999 - ERRBD_5DEG
        )


class TestRunIdealReadout:
    def test_noiseless_chain_is_exact(self, h2):
        records, phase, energy = ipea.run_ipea(h2, h2_config())
        assert ipea.phase_distance(phase.value, H2_PHASE) <= 1e-12
        assert energy.energy == pytest.approx(H2_GROUND_ENERGY, abs=1e-9)
        assert energy.oracle_energy == pytest.approx(H2_GROUND_ENERGY, abs=1e-12)
        assert energy.abs_error <= 1e-9

    def test_record_invariants(self, h2):
        records, _, _ = ipea.run_ipea(h2, h2_config())
        for k, rec in enumerate(records):
            assert rec.k == k
            assert rec.operator_power == 2 ** (3 * k)
            assert rec.clipped_phase == pytest.approx(
                max(rec.measured_phase - ERRBD_5DEG, 0.0), abs=1e-15
            )

    def test_single_iteration_returns_first_phase(self, h2):
        records, phase, _ = ipea.run_ipea(h2, h2_config(iterations=1))
        assert phase.value == records[0].measured_phase

    @pytest.mark.parametrize("k_max", [1, 2, 3, 4, 5, 6])
    def test_exact_for_any_iteration_count(self, h2, k_max):
        _, phase, _ = ipea.run_ipea(h2, h2_config(iterations=k_max))
        assert ipea.phase_distance(phase.value, H2_PHASE) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_zero_bound_chain_is_exact(self, h2, n):
        # readings of a zero residual round to just below a full turn
        config = h2_config(bits_per_iteration=n, iterations=52 // n, phase_error_bound=0.0)
        _, phase, _ = ipea.run_ipea(h2, config)
        assert ipea.phase_distance(phase.value, H2_PHASE) <= 1e-15

    def test_measured_phases_match_clip_chain(self, h2):
        records, _, _ = ipea.run_ipea(h2, h2_config())
        assert records[0].measured_phase == pytest.approx(H2_PHASE, abs=1e-12)
        for rec in records[1:]:
            assert rec.measured_phase == pytest.approx(1.0 / 9.0, abs=1e-9)


class TestRunBoundedJitter:
    def test_every_seed_within_final_bound(self, h2):
        # acceptance runs 1000 seeds; this spot-checks a subset quickly
        for seed in range(100):
            noise = probe.NoiseModel(phase_jitter_bound=ERRBD_5DEG, rng_seed=seed)
            _, phase, _ = ipea.run_ipea(h2, h2_config(), noise=noise)
            assert ipea.phase_distance(phase.value, H2_PHASE) <= JITTER_FINAL_BOUND
            assert ipea.precision_report(phase, H2_PHASE) >= 17

    def test_deterministic_given_seed(self, h2):
        noise = probe.NoiseModel(phase_jitter_bound=ERRBD_5DEG, rng_seed=123)
        a = ipea.run_ipea(h2, h2_config(), noise=noise)
        b = ipea.run_ipea(h2, h2_config(), noise=noise)
        assert a.phase.value == b.phase.value
        assert [r.measured_phase for r in a.records] == [r.measured_phase for r in b.records]

    def test_error_contraction_over_random_systems(self):
        rng = np.random.default_rng(2025)
        for _ in range(100):
            h = random_negative_hamiltonian(rng)
            tau = molham.choose_tau(h)
            theta = ipea.oracle_phase(h, tau)
            for seed in range(10):
                noise = probe.NoiseModel(phase_jitter_bound=ERRBD_5DEG, rng_seed=seed)
                _, phase, _ = ipea.run_ipea(h, h2_config(tau=tau), noise=noise)
                assert ipea.phase_distance(phase.value, theta) <= JITTER_FINAL_BOUND + 1e-12

    def test_worst_case_jitter_never_wraps(self, h2):
        # the no-wraparound guarantee, instrumented at the +-bound extremes
        window = 2**3 * 2 * ERRBD_5DEG
        for sign in (+1.0, -1.0):
            noise = probe.NoiseModel(
                phase_jitter_bound=ERRBD_5DEG,
                jitter_law=lambda rng, b, s=sign: s * b,
            )
            records, phase, _ = ipea.run_ipea(h2, h2_config(), noise=noise)
            refs = ipea.reference_chain_phases(records, H2_PHASE, 3)
            for ref in refs[1:]:
                # distance of the true eigenphase from the admissible window
                assert min(ref, 1.0 - ref) <= window + 1e-9
            for rec, ref in zip(records, refs):
                # the reference recursion amplifies rounding by 8^k, give it 1e-9
                assert ipea.phase_distance(rec.measured_phase, ref) <= ERRBD_5DEG + 1e-9
            assert ipea.phase_distance(phase.value, H2_PHASE) <= JITTER_FINAL_BOUND + 1e-15


def dense_chain_phases(h, config, noise=None):
    """Measured phases of the dense chain: each round applies the 4x4
    controlled gate to kron(|+>, ground state), and the clip phase is folded
    into the operator before it is squared."""
    prep = molham.spectrum(h).ground_state
    if noise is not None and noise.coherent_epsilon > 0.0:
        u = qcore.expm_herm(probe.perturbed_hamiltonian(h, noise), config.tau)
    else:
        u = qcore.expm_herm(h.matrix, config.tau)
    rng = noise.make_rng() if noise is not None else None
    n = config.bits_per_iteration
    phases = []
    for k in range(config.iterations):
        final = probe.controlled_u(u) @ np.kron(qcore.KET_PLUS, prep)
        if noise is None:
            measured = probe.ideal_readout(final)
        else:
            measured = probe.noisy_readout(final, noise, rng)
        phases.append(measured)
        clipped = ipea.clip_phase(measured, config.phase_error_bound, n if k > 0 else None)
        u = ipea.next_operator(u, clipped, n)
    return phases


class TestScalarChainMatchesDenseChain:
    @pytest.mark.parametrize(
        "system, tau, epsilon",
        [("h2", H2_TAU, 0.0), ("4x4", TAU_4X4, 0.0), ("h2", H2_TAU, 1e-4)],
    )
    def test_per_round_phases_over_seeds(self, h2, system, tau, epsilon):
        h = h2 if system == "h2" else molham.MolecularHamiltonian(MATRIX_4X4, label="4x4")
        config = h2_config(tau=tau)
        worst = 0.0
        for seed in range(200):
            noise = probe.NoiseModel(
                phase_jitter_bound=ERRBD_5DEG, coherent_epsilon=epsilon, rng_seed=seed
            )
            records, _, _ = ipea.run_ipea(h, config, noise=noise)
            for rec, dense in zip(records, dense_chain_phases(h, config, noise)):
                worst = max(worst, ipea.phase_distance(rec.measured_phase, dense))
        assert worst <= 1e-12

    def test_noiseless(self, h2):
        records, _, _ = ipea.run_ipea(h2, h2_config())
        dense = dense_chain_phases(h2, h2_config())
        for rec, phase in zip(records, dense):
            assert ipea.phase_distance(rec.measured_phase, phase) <= 1e-12

    def test_backend_receives_power_and_scalar(self, h2):
        # round k reads exp(-i 2 pi a_k) c_k, a_k the accumulated clip phase;
        # here c_k comes from the dense power U^(8^k)
        g = molham.spectrum(h2).ground_state
        u = qcore.expm_herm(h2.matrix, H2_TAU)
        coherences = [np.vdot(g, np.linalg.matrix_power(u, 8**k) @ g) / 2.0 for k in range(6)]
        hooked, _, _ = ipea.run_ipea(h2, h2_config(), coherences=coherences)
        exact, _, _ = ipea.run_ipea(h2, h2_config())
        assert [rec.k for rec in hooked] == list(range(6))
        offset = 0.0
        for rec, z in zip(hooked, coherences):
            scalar = cmath.exp(-2j * math.pi * offset)
            assert abs(abs(scalar) - 1.0) <= 1e-15
            read = (cmath.phase(scalar * z) / (2.0 * math.pi)) % 1.0
            assert ipea.phase_distance(rec.measured_phase, read) <= 1e-15
            offset = (8.0 * (offset + rec.clipped_phase)) % 1.0
        # the exact engine's own coherences are those of U^(8^k)
        for a, b in zip(hooked, exact):
            assert ipea.phase_distance(a.measured_phase, b.measured_phase) <= 1e-12

    @pytest.mark.parametrize("count", [0, 5, 7])
    def test_coherence_count_must_match_iterations(self, h2, count):
        with pytest.raises(ValidationError, match="coherences"):
            ipea.run_ipea(h2, h2_config(), coherences=[0.5] * count)


class TestLongRuns:
    @pytest.mark.parametrize("n, k", [(1, 52), (2, 26), (3, 17), (4, 13), (5, 10)])
    def test_runs_to_the_precision_cap(self, h2, n, k):
        _, phase, _ = ipea.run_ipea(h2, h2_config(bits_per_iteration=n, iterations=k))
        assert ipea.precision_report(phase, H2_PHASE) >= 50


# Rounding floor of the final comparison: the oracle phase and the rebuilt
# value each carry a few float64 ulps of a number below one.
FLOAT_FLOOR = 8 * 2.0**-52


@st.composite
def admissible_runs(draw):
    """(n, k, bound, jitter fractions of the bound, system seed or None for H2).

    The bound is drawn up to 0.9 of the admissibility edge
    1 / (2^(n+1) + 2). Small n, bounds at 0.9 of the edge and jitter at
    +-bound, where the windows of readings come closest, are drawn often.
    """
    n = draw(st.integers(1, 5) | st.integers(1, ipea.MAX_REPORT_BITS))
    k = draw(st.integers(1, ipea.MAX_REPORT_BITS // n))
    bound = draw(st.just(0.9) | st.floats(0.0, 0.9)) / (2.0 ** (n + 1) + 2.0)
    jitter = st.sampled_from([-1.0, 1.0]) | st.floats(-1.0, 1.0)
    fractions = draw(st.lists(jitter, min_size=k, max_size=k))
    system = draw(st.none() | st.integers(0, 2**32 - 1))
    return n, k, bound, fractions, system


class TestJitterProperty:
    @settings(max_examples=150, deadline=None)
    @given(admissible_runs())
    def test_final_error_within_contracted_bound(self, run):
        # any jitter sequence within the bound, on H2 or a random 2x2 system
        # at the automatic tau whose phase keeps the first reading inside
        # one turn, for every admissible (n, k, bound) up to 52 bits
        n, k, bound, fractions, system = run
        if system is None:
            h = molham.build_h2()
        else:
            h = random_negative_hamiltonian(np.random.default_rng(system))
        tau = molham.choose_tau(h)
        theta = ipea.oracle_phase(h, tau)
        assume(bound <= theta <= 1.0 - bound)
        draws = iter([f * bound for f in fractions])
        noise = probe.NoiseModel(phase_jitter_bound=bound, jitter_law=lambda rng, b: next(draws))
        config = h2_config(bits_per_iteration=n, iterations=k, phase_error_bound=bound, tau=tau)
        _, phase, _ = ipea.run_ipea(h, config, noise=noise)
        limit = bound * 2.0 ** (-n * (k - 1))
        error = ipea.phase_distance(phase.value, theta)
        assert error <= limit + FLOAT_FLOOR


class TestOracleEquivalence:
    def test_random_two_by_two(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            h = random_negative_hamiltonian(rng)
            tau = molham.choose_tau(h)
            _, _, energy = ipea.run_ipea(h, h2_config(tau=tau))
            assert abs(energy.energy - energy.oracle_energy) <= 2 * np.pi * 2.0**-18 / tau

    def test_diagonal_four_by_four(self):
        rng = np.random.default_rng(8)
        done = 0
        while done < 20:
            d = np.sort(rng.uniform(-6.0, -0.1, size=4))
            if d[1] - d[0] < 1e-3:
                continue
            h = molham.MolecularHamiltonian(np.diag(d), label="diag4")
            _, _, energy = ipea.run_ipea(h, h2_config(tau=1.0))
            assert abs(energy.energy - energy.oracle_energy) <= 2 * np.pi * 2.0**-18
            done += 1


class TestCoherentError:
    def test_growth_factor_eight_until_bound(self, h2):
        noise = probe.NoiseModel(coherent_epsilon=1e-4)
        records, _, _ = ipea.run_ipea(h2, h2_config(), noise=noise)
        errors = ipea.iteration_phase_errors(records, H2_PHASE, 3)
        assert errors[0] == pytest.approx(3.01e-5, rel=0.05)
        k = 0
        while k + 1 < len(errors) and errors[k] <= ERRBD_5DEG:
            assert 6.0 <= errors[k + 1] / errors[k] <= 10.0
            k += 1
        assert k >= 3  # several clean eightfold steps before saturation
        assert max(errors) > ERRBD_5DEG  # the growth does break the bound

    def test_attainable_bits_plateau(self, h2):
        noise = probe.NoiseModel(coherent_epsilon=1e-4)
        bits = []
        for k_max in (2, 4, 6):
            _, phase, _ = ipea.run_ipea(h2, h2_config(iterations=k_max), noise=noise)
            bits.append(ipea.precision_report(phase, H2_PHASE))
        assert bits[0] == bits[1] == bits[2]  # more iterations stop helping

    def test_bits_decrease_with_epsilon(self, h2):
        bits = []
        for eps in (0.0, 1e-5, 1e-4, 1e-3):
            noise = probe.NoiseModel(coherent_epsilon=eps)
            _, phase, _ = ipea.run_ipea(h2, h2_config(), noise=noise)
            bits.append(ipea.precision_report(phase, H2_PHASE))
        assert all(a >= b for a, b in zip(bits, bits[1:]))
        assert bits[0] > bits[-1]


class TestReconstruct:
    def test_single_record(self):
        rec = ipea.IterationRecord(k=0, measured_phase=0.3, clipped_phase=0.28, operator_power=1)
        estimate = ipea.reconstruct([rec], 3)
        assert estimate.value == 0.3
        assert list(estimate.reconstruction_trace) == [0.3]

    def test_two_record_clipping_identity(self):
        records = [
            ipea.IterationRecord(0, H2_PHASE, H2_CLIPPED_PHASE_0, 1),
            ipea.IterationRecord(1, 8.0 * (H2_PHASE - H2_CLIPPED_PHASE_0), 0.0, 8),
        ]
        estimate = ipea.reconstruct(records, 3)
        assert estimate.value == pytest.approx(H2_PHASE, abs=1e-12)
        # the same identity at six-decimal precision
        assert 0.111111 / 8.0 + 0.558133 == pytest.approx(0.572022, abs=1e-6)

    def test_reconstruction_is_exact_algebra_for_any_clip(self):
        # with exact measurements the rebuilt value equals theta_0 regardless
        # of the clip sequence, as long as residuals stay inside one turn
        rng = np.random.default_rng(31)
        n = 3
        for _ in range(200):
            theta0 = rng.uniform(0.0, 1.0)
            theta = theta0
            records = []
            for k in range(6):
                clip = max(theta - rng.uniform(0.0, 2.0**-n), 0.0)
                records.append(ipea.IterationRecord(k, theta, clip, 2 ** (n * k)))
                theta = 2.0**n * (theta - clip)
                assert theta < 1.0 + 1e-12
                theta %= 1.0
            estimate = ipea.reconstruct(records, n)
            assert ipea.phase_distance(estimate.value, theta0) <= 1e-12

    def test_reference_bitstring_round_trip(self):
        phi0 = int(REFERENCE_BITSTRING_K0, 2) * 2.0 ** -len(REFERENCE_BITSTRING_K0)
        rec = ipea.IterationRecord(0, phi0, max(phi0 - ERRBD_5DEG, 0.0), 1)
        estimate = ipea.reconstruct([rec], 3)
        assert ipea.to_binary(estimate.value, 25) == REFERENCE_BITSTRING_K0

    def test_wrapped_final_reading_is_unwound(self):
        # a near-turn final reading is a wrapped small phase, not a large one
        records = [
            ipea.IterationRecord(0, 0.5, 0.5 - ERRBD_5DEG, 1),
            ipea.IterationRecord(1, 0.999, 0.0, 8),
        ]
        estimate = ipea.reconstruct(records, 3, phase_error_bound=ERRBD_5DEG)
        assert estimate.reconstruction_trace[0] == pytest.approx(-0.001, abs=1e-12)
        assert estimate.value == pytest.approx(0.5 - ERRBD_5DEG - 0.001 / 8.0, abs=1e-12)

    def test_contiguity_required(self):
        records = [ipea.IterationRecord(1, 0.1, 0.0, 8)]
        with pytest.raises(ValidationError, match="contiguous"):
            ipea.reconstruct(records, 3)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            ipea.reconstruct([], 3)

    def test_guaranteed_bits(self, h2):
        _, phase, _ = ipea.run_ipea(h2, h2_config())
        assert phase.guaranteed_bits == 18  # n * k_max, bound well below 2^-18
        assert phase.guaranteed_bits <= len(phase.binary_digits)


class TestToBinary:
    def test_half(self):
        assert ipea.to_binary(0.5, 3) == "100"

    def test_zero(self):
        assert ipea.to_binary(0.0, 5) == "00000"

    def test_h2_oracle_phase_expansion(self):
        expansion = ipea.to_binary(H2_PHASE, 25)
        assert expansion == "1001001001110000000101000"
        assert expansion[0] == "1"
        # independent integer-arithmetic oracle
        assert expansion == format(int(H2_PHASE * 2**25), "025b")

    def test_truncation_bound_property(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            value = rng.uniform(0.0, 1.0)
            digits = int(rng.integers(1, 30))
            bits = ipea.to_binary(value, digits)
            assert abs(value - int(bits, 2) * 2.0 ** -len(bits)) < 2.0**-digits

    def test_validation(self):
        with pytest.raises(ValidationError):
            ipea.to_binary(1.2, 4)
        with pytest.raises(ValidationError):
            ipea.to_binary(0.5, 0)


class TestEnergyFromPhase:
    def test_zero_phase(self):
        estimate = ipea.reconstruct([ipea.IterationRecord(0, 0.0, 0.0, 1)], 3)
        result = ipea.energy_from_phase(estimate, 2.0, 0.0)
        assert result.energy == 0.0
        assert result.abs_error == 0.0

    def test_h2_arithmetic(self):
        estimate = ipea.reconstruct([ipea.IterationRecord(0, H2_PHASE, 0.0, 1)], 3)
        result = ipea.energy_from_phase(estimate, H2_TAU, H2_GROUND_ENERGY)
        assert result.energy == pytest.approx(-1.851571, abs=1e-5)
        assert result.abs_error <= 1e-12

    def test_seventeen_bit_reference_energy_consistency(self):
        # an energy quoted to 17 correct phase bits must sit within the
        # 17-bit window of the exact value
        seventeen_bit_window = 2 * np.pi * 2.0**-17 / H2_TAU
        assert abs(-1.851569 - H2_GROUND_ENERGY) <= seventeen_bit_window

    def test_tau_validation(self):
        estimate = ipea.reconstruct([ipea.IterationRecord(0, 0.1, 0.0, 1)], 3)
        with pytest.raises(ValidationError):
            ipea.energy_from_phase(estimate, 0.0, H2_GROUND_ENERGY)


class TestPrecisionReport:
    def test_exact_match_hits_cap(self):
        estimate = ipea.reconstruct([ipea.IterationRecord(0, H2_PHASE, 0.0, 1)], 3)
        assert ipea.precision_report(estimate, H2_PHASE) >= 52

    def test_three_microturn_error_is_18_bits(self):
        estimate = ipea.reconstruct([ipea.IterationRecord(0, 0.25 + 3e-6, 0.0, 1)], 3)
        assert ipea.precision_report(estimate, 0.25) == 18

    def test_oracle_validation(self):
        estimate = ipea.reconstruct([ipea.IterationRecord(0, 0.25, 0.0, 1)], 3)
        with pytest.raises(ValidationError):
            ipea.precision_report(estimate, 1.5)


class TestPreparedState:
    def test_warns_below_point999(self, h2):
        g = molham.spectrum(h2).ground_state
        e = molham.spectrum(h2).energies
        excited = qcore.hermitian_eig(h2.matrix).eigenvectors[:, 1]
        prep = np.sqrt(0.995) * g + np.sqrt(0.005) * excited
        with pytest.warns(UserWarning, match="overlap"):
            ipea.run_ipea(h2, h2_config(), prep=prep)
        assert e[0] < e[1]

    def test_rejects_below_point9(self, h2):
        dec = qcore.hermitian_eig(h2.matrix)
        prep = np.sqrt(0.5) * dec.eigenvectors[:, 0] + np.sqrt(0.5) * dec.eigenvectors[:, 1]
        with pytest.raises(ValidationError, match="overlap"):
            ipea.run_ipea(h2, h2_config(), prep=prep)

    def test_dimension_checked(self, h2):
        with pytest.raises(ValidationError, match="dim"):
            ipea.run_ipea(h2, h2_config(), prep=np.array([1, 0, 0, 0], dtype=complex) )

    def test_default_prep_skips_the_state_checks(self, h2, monkeypatch):
        calls = []
        check = qcore.require_pure_state

        def counted(*args, **kwargs):
            calls.append(args)
            return check(*args, **kwargs)

        monkeypatch.setattr(qcore, "require_pure_state", counted)
        default = ipea.run_ipea(h2, h2_config())
        assert calls == []
        supplied = ipea.run_ipea(h2, h2_config(), prep=molham.spectrum(h2).ground_state)
        assert len(calls) == 1
        assert supplied.records == default.records

    def test_one_dimensional_system_rejected(self):
        h = molham.MolecularHamiltonian(np.array([[-1.0]]), label="d1")
        with pytest.raises(ValidationError, match="dimension 1"):
            ipea.run_ipea(h, h2_config(tau=0.5))

    def test_system_dimension_capped_by_probe_register(self):
        h = molham.MolecularHamiltonian(np.diag(np.arange(-8.0, 0.0)), label="d8")
        with pytest.raises(ValidationError, match="too large"):
            ipea.run_ipea(h, h2_config(tau=0.5))

    def test_readout_error_carries_iteration_index(self, h2):
        from molphase.errors import ReadoutError

        with pytest.raises(ReadoutError, match="iteration 0"):
            ipea.run_ipea(h2, h2_config(), coherences=[0j] * 6)


class TestTraceCsv:
    def test_shape_and_summary(self, h2):
        result = ipea.run_ipea(h2, h2_config())
        text = ipea.trace_csv(result, 3, ERRBD_5DEG)
        lines = text.strip().split("\n")
        assert lines[0].startswith("k,measured_phase,clipped_phase,operator_power,phi_c")
        assert len(lines) == 1 + 6 + 1
        assert all(len(line.split(",")) == 8 for line in lines[1:])
        final = lines[-1].split(",")
        assert final[0] == "final"
        assert float(final[6]) == result.energy.energy

    def test_determinism(self, h2):
        noise = probe.NoiseModel(phase_jitter_bound=ERRBD_5DEG, rng_seed=9)
        a = ipea.trace_csv(ipea.run_ipea(h2, h2_config(), noise=noise), 3, ERRBD_5DEG)
        b = ipea.trace_csv(ipea.run_ipea(h2, h2_config(), noise=noise), 3, ERRBD_5DEG)
        assert a == b

    def test_operator_power_column(self, h2):
        result = ipea.run_ipea(h2, h2_config())
        rows = ipea.trace_csv(result, 3, ERRBD_5DEG).strip().split("\n")[1:-1]
        powers = [int(r.split(",")[3]) for r in rows]
        assert powers == [8**k for k in range(6)]

    def test_last_row_reads_as_final_when_the_last_reading_wraps(self, h2):
        # seed 106 leaves a wrapped last reading; the last row's rebuild must
        # unwind it the way the final row's does
        noise = probe.NoiseModel(phase_jitter_bound=ERRBD_5DEG, rng_seed=106)
        result = ipea.run_ipea(h2, h2_config(), noise=noise)
        assert ipea.is_wrapped(result.records[-1].measured_phase, ERRBD_5DEG, 3)
        rows = ipea.trace_csv(result, 3, ERRBD_5DEG).strip().split("\n")
        last, final = (row.split(",") for row in rows[-2:])
        assert final[0] == "final"
        assert last[5:] == final[5:]
        assert float(final[7]) == result.energy.abs_error
        assert result.energy.abs_error <= JITTER_FINAL_BOUND * 2 * np.pi / H2_TAU
