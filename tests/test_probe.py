"""Controlled gates, phase readout, noise model, and spectrum synthesis."""
import math

import numpy as np
import pytest

from molphase import ipea, molham, probe, qcore
from molphase.errors import ReadoutError, ValidationError

from conftest import ERRBD_5DEG, H2_PHASE, H2_TAU, ID2, KET_DOWN, KET_UP, random_unitary


def kickback_state(phase):
    g = molham.spectrum(molham.build_h2()).ground_state
    probe_part = (KET_UP + np.exp(2j * np.pi * phase) * KET_DOWN) / np.sqrt(2)
    return np.kron(probe_part, g)


class TestControlledU:
    def test_identity(self):
        np.testing.assert_allclose(probe.controlled_u(ID2), np.eye(4), atol=0)

    def test_diagonal_phase_gate(self):
        theta = 0.8
        gate = probe.controlled_u(np.diag([1.0, np.exp(1j * theta)]))
        np.testing.assert_allclose(gate, np.diag([1, 1, 1, np.exp(1j * theta)]), atol=1e-15)

    def test_phase_kickback_on_ground_state(self, h2):
        u = qcore.expm_herm(h2.matrix, H2_TAU)
        g = molham.spectrum(h2).ground_state
        psi_in = np.kron(qcore.KET_PLUS, g)
        psi_f = probe.controlled_u(u) @ psi_in
        np.testing.assert_allclose(psi_f, kickback_state(H2_PHASE), atol=1e-12)

    def test_kickback_exactness_over_random_unitaries(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            u = random_unitary(rng)
            vals, vecs = np.linalg.eig(u)
            for j in range(2):
                v = vecs[:, j] / np.linalg.norm(vecs[:, j])
                state = probe.controlled_u(u) @ np.kron(qcore.KET_PLUS, v)
                expected = (np.angle(vals[j]) / (2 * np.pi)) % 1.0
                assert ipea.phase_distance(probe.ideal_readout(state), expected) <= 1e-10

    def test_coherence_is_half_the_system_expectation(self):
        # the identity the estimation loop relies on instead of the joint state
        rng = np.random.default_rng(29)
        for dim in (2, 4):
            for _ in range(20):
                u = random_unitary(rng, dim)
                psi = random_unitary(rng, dim)[:, 0]
                joint = probe.controlled_u(u) @ np.kron(qcore.KET_PLUS, psi)
                z = np.vdot(psi, u @ psi) / 2.0
                assert abs(probe.probe_coherence(joint) - z) <= 1e-15
                assert ipea.phase_distance(
                    probe.ideal_readout(joint), probe.coherence_readout(z)
                ) <= 1e-15

    @pytest.mark.parametrize("dim", [1, 2, 4])
    def test_matches_kron_reference(self, dim):
        # the gate as a sum of two Kronecker products, equal to the last bit
        rng = np.random.default_rng(31 + dim)
        up = np.outer(KET_UP, KET_UP.conj())
        down = np.outer(KET_DOWN, KET_DOWN.conj())
        for _ in range(10):
            u = random_unitary(rng, dim)
            reference = np.kron(up, np.eye(dim, dtype=complex)) + np.kron(down, u)
            assert (probe.controlled_u(u) == reference).all()

    def test_rejects_oversized_system(self):
        with pytest.raises(ValidationError):
            probe.controlled_u(np.eye(8))

    def test_rejects_non_unitary(self):
        with pytest.raises(ValidationError, match="unitary"):
            probe.controlled_u(np.array([[1.0, 0.0], [0.0, 2.0]]))


class TestIdealReadout:
    # the coherence of a kickback state is e^{i 2 pi phi} / 2
    def test_reference_state(self):
        state = kickback_state(0.0)
        assert 2.0 * probe.probe_coherence(state) == pytest.approx(1.0 + 0.0j, abs=1e-12)
        assert probe.ideal_readout(state) == pytest.approx(0.0, abs=1e-12)

    def test_quarter_turn(self):
        state = kickback_state(0.25)
        assert 2.0 * probe.probe_coherence(state) == pytest.approx(1j, abs=1e-12)
        assert probe.ideal_readout(state) == pytest.approx(0.25, abs=1e-12)

    def test_h2_ground_phase_expectation(self, h2):
        u = qcore.expm_herm(h2.matrix, H2_TAU)
        g = molham.spectrum(h2).ground_state
        state = probe.controlled_u(u) @ np.kron(qcore.KET_PLUS, g)
        expectation = 2.0 * probe.probe_coherence(state)
        assert expectation.real == pytest.approx(-0.8993, abs=1e-3)
        assert expectation.imag == pytest.approx(-0.4372, abs=1e-3)
        assert probe.ideal_readout(state) == pytest.approx(H2_PHASE, abs=1e-12)

    def test_vanishing_coherence(self, h2):
        g = molham.spectrum(h2).ground_state
        with pytest.raises(ReadoutError, match="coherence"):
            probe.ideal_readout(np.kron(KET_UP, g))

    def test_tiny_negative_phase_reduces_to_zero(self):
        # -1e-300 / 2pi % 1.0 rounds up to exactly 1.0, outside [0, 1)
        assert probe.coherence_readout(complex(1.0, -1e-300)) == 0.0

    @pytest.mark.parametrize(
        "z", [complex(math.nan, 0.0), complex(0.5, math.nan), complex(math.inf, 0.0), complex(math.inf, math.inf)]
    )
    def test_non_finite_coherence_has_no_phase(self, z):
        # NaN read as phase NaN, an infinite real part as phase 0.0
        with pytest.raises(ReadoutError, match="not finite"):
            probe.coherence_readout(z)


# jitter_draws(6) at bound 5/360, frozen by value: a given seed keeps its draws
PINNED_DRAWS = {
    0: ["0x1.f2a98b8c19070p-9", "-0x1.a3172adfebba3p-8", "-0x1.a1d0ebdee7ce8p-7",
        "-0x1.b81139ea662e7p-7", "0x1.1d2541ab4a32ep-7", "0x1.77b3053ec0e3ep-7"],
    7: ["0x1.c7756cff37678p-9", "0x1.698d862d196c2p-7", "0x1.f5ded7fd004e0p-8",
        "-0x1.f43ebb3a1262ap-8", "-0x1.6bc942dc0caf8p-8", "0x1.540442fd75406p-7"],
    123: ["0x1.4bf620b1e3384p-8", "-0x1.961f3cf3399e8p-7", "-0x1.fd11beb26c9d1p-8",
          "-0x1.1f4ab2df17cfep-7", "-0x1.26ff660d09395p-7", "0x1.1c134a7dae5aep-7"],
}


class TestNoisyReadout:
    def test_zero_bound_matches_ideal(self):
        # every draw at bound 0 is +0.0; 0.0 == -0.0 would hide a sign change
        state = kickback_state(0.3)
        for bound in (0.0, -0.0):
            for seed in range(300):
                draws = probe.NoiseModel(phase_jitter_bound=bound, rng_seed=seed).jitter_draws(6)
                assert [math.copysign(1.0, d) for d in draws] == [1.0] * 6
                assert draws == [0.0] * 6
                assert probe.noisy_readout(state, draws[0]) == probe.ideal_readout(state)

    def test_draw_is_added_to_the_reading(self):
        state = kickback_state(0.2)
        clean = probe.ideal_readout(state)
        assert probe.noisy_readout(state, 0.01) == pytest.approx(clean + 0.01, abs=1e-15)

    def test_deviation_within_bound_for_many_seeds(self):
        state = kickback_state(0.42)
        clean = probe.ideal_readout(state)
        for seed in range(200):
            noise = probe.NoiseModel(phase_jitter_bound=ERRBD_5DEG, rng_seed=seed)
            noisy = probe.noisy_readout(state, noise.jitter_draws(1)[0])
            assert ipea.phase_distance(noisy, clean) <= ERRBD_5DEG

    def test_uniform_law_statistics(self):
        state = kickback_state(0.5)
        clean = probe.ideal_readout(state)
        bound = 0.01
        noise = probe.NoiseModel(phase_jitter_bound=bound, rng_seed=8)
        draws = np.array(
            [probe.noisy_readout(state, draw) - clean for draw in noise.jitter_draws(10_000)]
        )
        assert np.abs(draws).max() <= bound
        # mean of UN(-b, b): sigma_mean = b / sqrt(3 N)
        assert abs(draws.mean()) <= 3.0 * bound / np.sqrt(3.0 * draws.size)

    def test_deterministic_given_seed(self):
        # one seed gives the same draws on every call; successive draws differ
        noise = probe.NoiseModel(phase_jitter_bound=0.01, rng_seed=5)
        first = noise.jitter_draws(3)
        assert noise.jitter_draws(3) == first
        assert len(set(first)) == 3

    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_uniform_draws_pinned_to_seed(self, seed):
        draws = probe.NoiseModel(phase_jitter_bound=ERRBD_5DEG, rng_seed=seed).jitter_draws(6)
        assert [d.hex() for d in draws] == PINNED_DRAWS[seed]

    @pytest.mark.parametrize("bound", [0.0, 5.0 / 360.0, 0.1, 1e-300])
    def test_stream_equals_numpy_default_rng(self, bound):
        # the stream is molphase's own; today it is numpy's SeedSequence ->
        # PCG64 -> uniform bit for bit, multi-word seeds included
        seeds = [*range(3000), 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**100 + 3, np.int64(7), np.uint64(2**64 - 1)]
        for seed in seeds:
            noise = probe.NoiseModel(phase_jitter_bound=bound, rng_seed=seed)
            for count in (0, 1, 6, 52):
                expected = np.random.default_rng(seed).uniform(-bound, bound, count).tolist()
                assert [d.hex() for d in noise.jitter_draws(count)] == [d.hex() for d in expected], (seed, count)

    @pytest.mark.parametrize("count", [-1, 1.0, True, "6", None, np.float64(6.0)])
    def test_count_must_be_a_non_negative_integer(self, count):
        # a negative count drew nothing where numpy raised
        with pytest.raises(ValidationError, match="draw count"):
            probe.NoiseModel(phase_jitter_bound=0.01).jitter_draws(count)

    @pytest.mark.parametrize("count", [np.int64(6), np.uint8(6)])
    def test_numpy_integer_counts_accepted(self, count):
        assert probe.NoiseModel(phase_jitter_bound=0.01).jitter_draws(count) == (
            probe.NoiseModel(phase_jitter_bound=0.01).jitter_draws(6)
        )

    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_jitter_draws_are_successive_draws_of_one_stream(self, seed):
        # the batched draw equals k scalar draws from one stream
        rng = np.random.default_rng(seed)
        scalar = [float(rng.uniform(-ERRBD_5DEG, ERRBD_5DEG)) for _ in range(6)]
        assert probe.NoiseModel(phase_jitter_bound=ERRBD_5DEG, rng_seed=seed).jitter_draws(6) == scalar


class TestNoiseModelValidation:
    def test_negative_bound(self):
        with pytest.raises(ValidationError):
            probe.NoiseModel(phase_jitter_bound=-0.1)

    def test_negative_epsilon(self):
        with pytest.raises(ValidationError):
            probe.NoiseModel(coherent_epsilon=-1e-4)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(phase_jitter_bound=np.nan),
            dict(phase_jitter_bound=np.inf),
            dict(phase_jitter_bound=1e308),  # drew inf: its span 2e308 overflows
            dict(coherent_epsilon=np.nan),
            dict(coherent_epsilon=np.inf),
        ],
    )
    def test_non_finite_rejected(self, kwargs):
        with pytest.raises(ValidationError, match="finite"):
            probe.NoiseModel(**kwargs)

    @pytest.mark.parametrize("bound", [0.0, 0.01])
    @pytest.mark.parametrize("seed", [-1, 1.5, True, "1", None, np.float64(2.0)])
    def test_seed_must_be_a_non_negative_integer(self, bound, seed):
        # -1 and 1.5 failed only when drawing, and at bound 0 not at all
        with pytest.raises(ValidationError, match="rng seed"):
            probe.NoiseModel(phase_jitter_bound=bound, rng_seed=seed)

    @pytest.mark.parametrize("seed", [0, 2**70, np.int64(7), np.uint8(7)])
    def test_integer_seeds_accepted(self, seed):
        noise = probe.NoiseModel(phase_jitter_bound=0.01, rng_seed=seed)
        assert noise.jitter_draws(2) == np.random.default_rng(int(seed)).uniform(-0.01, 0.01, 2).tolist()


class TestPerturbedU:
    def test_epsilon_zero_bit_for_bit(self, h2):
        noise = probe.NoiseModel(coherent_epsilon=0.0)
        ideal = qcore.expm_herm(h2.matrix, H2_TAU)
        perturbed = qcore.expm_herm(probe.perturbed_hamiltonian(h2, noise), H2_TAU)
        assert np.array_equal(perturbed, ideal)

    def test_first_order_eigenphase_shift(self, h2):
        eps = 1e-4
        noise = probe.NoiseModel(coherent_epsilon=eps)
        spec = molham.spectrum(h2)
        g = spec.ground_state
        u = qcore.expm_herm(probe.perturbed_hamiltonian(h2, noise), H2_TAU)
        shifted = (np.angle(np.vdot(g, u @ g)) / (2 * np.pi)) % 1.0
        shift = ipea.phase_distance(shifted, H2_PHASE)
        prediction = eps * H2_TAU * abs(np.vdot(g, qcore.SIGMA_Z @ g)) / (2 * np.pi)
        assert shift == pytest.approx(prediction, rel=1e-2)
        assert shift <= eps * H2_TAU

    def test_only_2x2_systems(self):
        h = molham.MolecularHamiltonian(np.diag([-2.0, -1.5, -1.0, -0.5]), label="d4")
        with pytest.raises(ValidationError, match="2x2"):
            probe.perturbed_hamiltonian(h, probe.NoiseModel(coherent_epsilon=1e-4))


def line_integral(amplitudes):
    return amplitudes.sum() * (probe.FREQUENCIES_HZ[1] - probe.FREQUENCIES_HZ[0])


class TestSpectra:
    def test_grid_is_fixed_and_read_only(self):
        grid = np.fft.fftshift(np.fft.fftfreq(probe.SPECTRUM_POINTS, d=1.0 / probe.SPECTRAL_WIDTH_HZ))
        assert probe.FREQUENCIES_HZ.tobytes() == grid.tobytes()
        assert probe.FREQUENCIES_HZ.dtype == np.float64
        assert not probe.FREQUENCIES_HZ.flags.writeable
        assert probe.synthesize_spectrum(0.1).shape == (probe.SPECTRUM_POINTS,)

    def test_reference_is_absorptive(self):
        integral = line_integral(probe.synthesize_spectrum(0.0))
        assert integral.real > 0
        assert abs(integral.imag) <= 1e-9 * abs(integral)

    def test_quarter_turn_is_dispersive(self):
        integral = line_integral(probe.synthesize_spectrum(0.25))
        assert integral.imag > 0
        assert abs(integral.real) <= 1e-9 * abs(integral)

    def test_lines_sit_at_half_j(self):
        mags = np.abs(probe.synthesize_spectrum(0.0))
        top_two = probe.FREQUENCIES_HZ[np.argsort(mags)[-2:]]
        np.testing.assert_allclose(sorted(top_two), [-107.3, 107.3], atol=0.5)
        assert probe.J_COUPLING_HZ == 214.6

    def test_round_trip_at_h2_phase(self):
        reference = probe.synthesize_spectrum(0.0)
        trace = probe.synthesize_spectrum(H2_PHASE)
        got = probe.extract_phase_from_spectrum(trace, reference)
        assert ipea.phase_distance(got, H2_PHASE) <= 0.0003

    def test_round_trip_over_phase_grid(self):
        reference = probe.synthesize_spectrum(0.0)
        for phase in np.arange(0.0, 1.0, 1.0 / 64.0):
            got = probe.extract_phase_from_spectrum(probe.synthesize_spectrum(phase), reference)
            assert ipea.phase_distance(got, phase) <= 0.0003

    def test_extract_self_is_zero(self):
        trace = probe.synthesize_spectrum(0.37)
        assert probe.extract_phase_from_spectrum(trace, trace) == pytest.approx(0.0, abs=1e-12)

    def test_tiny_negative_phase_reduces_to_zero(self):
        trace = np.zeros(probe.SPECTRUM_POINTS, dtype=complex)
        trace[0] = 1.0
        reference = np.zeros(probe.SPECTRUM_POINTS, dtype=complex)
        reference[0] = complex(1.0, 1e-300)
        assert probe.extract_phase_from_spectrum(trace, reference) == 0.0

    def test_wrong_length_rejected(self):
        good = probe.synthesize_spectrum(0.1)
        for shape in [(probe.SPECTRUM_POINTS // 2,), (probe.SPECTRUM_POINTS + 1,), (0,), (2, probe.SPECTRUM_POINTS // 2)]:
            bad = np.ones(shape, dtype=complex)
            for call in (
                lambda: probe.extract_phase_from_spectrum(good, bad),
                lambda: probe.extract_phase_from_spectrum(bad, good),
                lambda: probe.spectrum_csv(bad),
            ):
                with pytest.raises(ValidationError, match=f"{probe.SPECTRUM_POINTS} amplitudes, got shape"):
                    call()

    def test_weak_reference_rejected(self):
        a = probe.synthesize_spectrum(0.1)
        with pytest.raises(ReadoutError, match="reference"):
            probe.extract_phase_from_spectrum(a, np.zeros(probe.SPECTRUM_POINTS, dtype=complex))

    def test_csv_export(self):
        trace = probe.synthesize_spectrum(0.25)
        lines = probe.spectrum_csv(trace).strip().split("\n")
        assert lines[0] == "frequency_hz,amplitude_re,amplitude_im"
        assert len(lines) == probe.SPECTRUM_POINTS + 1
        freq, re, im = (float(x) for x in lines[1].split(","))
        assert freq == probe.FREQUENCIES_HZ[0]
        assert re == trace[0].real
        assert im == trace[0].imag

    def test_csv_equals_per_row_formatting(self):
        trace = probe.synthesize_spectrum(0.37)
        trace[:4] = [complex(-0.0, 0.0), complex(math.nan, -math.inf), 1e-300j, 5e-324]
        rows = [f"{f:.17g},{a.real:.17g},{a.imag:.17g}" for f, a in zip(probe.FREQUENCIES_HZ, trace)]
        assert probe.spectrum_csv(trace) == "frequency_hz,amplitude_re,amplitude_im\n" + "\n".join(rows) + "\n"
