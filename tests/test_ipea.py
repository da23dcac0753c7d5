"""Iteration engine: clipping, reconstruction, noise behavior, oracles."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from molphase import ipea, molham, probe, qcore
from molphase.errors import ReadoutError, TauRangeError, ValidationError

from conftest import (
    ERRBD_5DEG,
    FixedJitter,
    H2_CLIPPED_PHASE_0,
    H2_GROUND_ENERGY,
    H2_PHASE,
    H2_TAU,
    JITTER_FINAL_BOUND,
    MATRIX_4X4,
    TAU_4X4,
    random_negative_hamiltonian,
    random_unitary,
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
            # non-integer counts passed and then raised TypeError from range
            dict(bits_per_iteration=3.0),
            dict(iterations=6.0),
            dict(iterations=2.5),
            dict(bits_per_iteration=True),
            dict(iterations="6"),
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

    @pytest.mark.parametrize(
        "n, bound",
        [
            # (2^2 + 2) * bound = 1 - 2^-52: H2 at the automatic tau with
            # draws -bound, +bound read its second phase as wrapped and
            # reported -0.503 against -1.852 hartree
            (1, 0.16666666666666663),
            # within 2^-30 of the edge, 99 of 420 n = 26 runs on seven systems
            # with +-bound draws missed their bound; rounding there is ~2^-25 turns
            (26, (1.0 - 2.0**-30) / (2.0**27 + 2.0)),
        ],
    )
    def test_rounding_margin_below_the_edge(self, n, bound):
        with pytest.raises(ValidationError, match="inadmissible"):
            h2_config(bits_per_iteration=n, iterations=2, phase_error_bound=bound)
        # a single reading is never split into wrapped or not
        h2_config(bits_per_iteration=n, iterations=1, phase_error_bound=bound)

    def test_exactly_at_the_limit_rejected(self):
        # (2^2 + 2) * (1/6) rounds to exactly 1.0, the single-reading limit
        assert (2.0**2 + 2.0) * (1.0 / 6.0) == 1.0
        with pytest.raises(ValidationError, match="inadmissible"):
            ipea.IterationConfig(1, 1, 1.0 / 6.0)

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

    def test_no_floor_at_zero(self):
        # a reading below the bound clips to a negative phase
        assert ipea.clip_phase(0.005, ERRBD_5DEG) == 0.005 - ERRBD_5DEG

    def test_fold_wrapped_reading(self):
        # from the second iteration on a wrapped reading is unwound by a turn
        assert ipea.clip_phase(0.999, ERRBD_5DEG, 3) == 0.999 - 1.0 - ERRBD_5DEG
        assert ipea.clip_phase(0.999, ERRBD_5DEG) == 0.999 - ERRBD_5DEG


class TestReportHelperInputs:
    # an n past the float range of 2^n raised OverflowError, and a non-finite
    # tau, oracle phase or bound read as nan or as an estimate
    RECORDS = [ipea.IterationRecord(0.5, 0.49), ipea.IterationRecord(0.2, 0.19)]

    @pytest.mark.parametrize("n, message", [(2000, "n must be <= 52, got 2000"), (-2000, "n must be >= 1, got -2000")])
    def test_n_is_an_integer_in_1_to_max_report_bits(self, n, message):
        calls = [
            lambda: ipea.reconstruct(self.RECORDS, n, 0.01),
            lambda: ipea.running_estimates(self.RECORDS, n, 0.01),
            lambda: ipea.is_wrapped(0.5, 0.01, n),
            lambda: ipea.clip_phase(0.5, 0.01, n),
            lambda: ipea.iteration_phase_errors(self.RECORDS, 0.5, n),
        ]
        for call in calls:
            with pytest.raises(ValidationError, match=message):
                call()
        with pytest.raises(ValidationError, match="n must be an integer, got 3.0"):
            ipea.is_wrapped(0.5, 0.01, 3.0)

    def test_n_at_the_cap_runs(self):
        record = [ipea.IterationRecord(0.5, 0.5)]
        assert ipea.reconstruct(record, ipea.MAX_REPORT_BITS, 0.0).binary_digits == "1" + "0" * 51
        assert ipea.is_wrapped(0.9, 0.0, ipea.MAX_REPORT_BITS)

    @pytest.mark.parametrize("bound", [math.nan, math.inf, -0.01])
    def test_bound_is_finite_and_not_negative(self, bound):
        for call in (
            lambda: ipea.reconstruct(self.RECORDS, 3, bound),
            lambda: ipea.is_wrapped(0.5, bound, 3),
            lambda: ipea.clip_phase(0.5, bound),
            lambda: ipea.clip_phase(0.5, bound, 3),
        ):
            with pytest.raises(ValidationError, match="phase error bound must be"):
                call()

    @pytest.mark.filterwarnings("error")
    def test_times_and_phases_are_finite(self, h2):
        with pytest.raises(ValidationError, match="tau must be finite with magnitude at most 2\\^500, got inf"):
            ipea.oracle_phase(h2, math.inf)
        with pytest.raises(ValidationError, match="oracle phase must be finite"):
            ipea.iteration_phase_errors(self.RECORDS, math.inf, 3)
        with pytest.raises(ValidationError, match="measured phase must be finite"):
            ipea.clip_phase(math.nan, 0.01)
        # the energy read -0.0 at tau = inf
        estimate = ipea.reconstruct(self.RECORDS, 3, 0.01)
        with pytest.raises(ValidationError, match="tau must be finite"):
            ipea.energy_from_phase(estimate, math.inf, -1.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "records, first",
        [
            ([ipea.IterationRecord(0.5, math.inf), ipea.IterationRecord(0.3, 0.3)], 0),
            ([ipea.IterationRecord(0.5, 0.4), ipea.IterationRecord(0.2, math.nan), ipea.IterationRecord(0.3, 0.3)], 1),
        ],
    )
    def test_a_record_whose_phase_is_not_finite_is_named(self, records, first):
        # reconstruct raised "value must lie in [0, 1), got nan" from to_binary,
        # and iteration_phase_errors returned nan
        message = rf"iteration record {first} has a phase that is not finite or past 2\^500"
        with pytest.raises(ValidationError, match=message):
            ipea.reconstruct(records, 3, 0.01)
        with pytest.raises(ValidationError, match=message):
            ipea.iteration_phase_errors(records, 0.5, 3)

    @pytest.mark.filterwarnings("error")
    def test_a_finite_phase_past_the_bound_that_overflows_is_named(self):
        # 2^52 (theta - 1e300) is -inf, and the next error was nan
        records = [ipea.IterationRecord(0.5, 1e300), ipea.IterationRecord(0.3, 0.3)]
        with pytest.raises(ValidationError, match=r"iteration record 0 has a phase that is not finite or past 2\^500"):
            ipea.iteration_phase_errors(records, 0.5, 52)
        assert ipea.iteration_phase_errors(records, 0.5, 3) == [0.0, ipea.phase_distance(0.3, 0.0)]

    def test_a_non_finite_phase_the_rebuild_does_not_read_is_left_alone(self):
        # only the last reading and the earlier clips enter the rebuild
        records = [ipea.IterationRecord(math.nan, 0.25), ipea.IterationRecord(0.5, math.inf)]
        assert ipea.reconstruct(records, 3, 0.01).value == 0.5 / 8.0 + 0.25

    @pytest.mark.filterwarnings("error")
    def test_a_non_finite_energy_is_refused(self):
        # tau = 5e-324 gave energy=-inf and abs_error=inf
        estimate = ipea.reconstruct([ipea.IterationRecord(0.9, 0.9)], 3, 0.0)
        with pytest.raises(ValidationError, match=r"energy -2 pi phi / tau = -inf at tau = 5e-324"):
            ipea.energy_from_phase(estimate, 5e-324, -1.0)
        for oracle_energy in (math.nan, math.inf, 1.7e308):
            with pytest.raises(ValidationError, match="from the oracle energy .* is not finite"):
                ipea.energy_from_phase(estimate, 2.2250738585072014e-308, oracle_energy)
        assert math.isfinite(ipea.energy_from_phase(estimate, 1e-300, -1.0).abs_error)

    def test_next_operator_n_is_an_integer(self):
        # 2.0 passed the hand-written n < 1 and failed in range() with TypeError
        with pytest.raises(ValidationError, match="n must be an integer, got 2.0"):
            ipea.next_operator(np.eye(2), 0.0, 2.0)
        with pytest.raises(ValidationError, match="n must be >= 1, got 0"):
            ipea.next_operator(np.eye(2), 0.0, 0)


class TestRunIdealReadout:
    def test_noiseless_chain_is_exact(self, h2):
        records, phase, energy = ipea.run_ipea(h2, h2_config())
        assert ipea.phase_distance(phase.value, H2_PHASE) <= 1e-12
        assert energy.energy == pytest.approx(H2_GROUND_ENERGY, abs=1e-9)
        assert energy.oracle_energy == pytest.approx(H2_GROUND_ENERGY, abs=1e-12)
        assert energy.abs_error <= 1e-9

    def test_record_invariants(self, h2):
        records, _, _ = ipea.run_ipea(h2, h2_config())
        assert len(records) == 6
        assert ipea.IterationRecord._fields == ("measured_phase", "clipped_phase")
        for rec in records:
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

    def test_jitter_above_the_error_bound_rejected_before_the_power_chain(self, h2, monkeypatch):
        # 60 degrees of jitter against a 5 degree bound kept 2 of 18 bits
        def no_chain(*args):
            raise AssertionError("power chain built for a rejected config")

        monkeypatch.setattr(qcore, "power_chain", no_chain)
        for bound in (60.0 / 360.0, math.nextafter(ERRBD_5DEG, 1.0)):
            noise = probe.NoiseModel(phase_jitter_bound=bound, rng_seed=3)
            with pytest.raises(ValidationError, match="exceeds the phase error bound"):
                ipea.run_ipea(h2, h2_config(), noise=noise)

    def test_worst_case_jitter_never_wraps(self, h2):
        # the no-wraparound guarantee, instrumented at the +-bound extremes
        window = 2**3 * 2 * ERRBD_5DEG
        for sign in (+1.0, -1.0):
            noise = FixedJitter(ERRBD_5DEG, draws=(sign * ERRBD_5DEG,) * 6)
            records, phase, _ = ipea.run_ipea(h2, h2_config(), noise=noise)
            # the exact-U eigenphase each round carries under this clip history
            refs, theta = [], H2_PHASE
            for rec in records:
                refs.append(theta)
                theta = (2**3 * (theta - rec.clipped_phase)) % 1.0
            for ref in refs[1:]:
                assert min(ref, 1.0 - ref) <= window + 1e-9
            for error in ipea.iteration_phase_errors(records, H2_PHASE, 3):
                # the reference recursion amplifies rounding by 8^k, give it 1e-9
                assert error <= ERRBD_5DEG + 1e-9
            assert ipea.phase_distance(phase.value, H2_PHASE) <= JITTER_FINAL_BOUND + 1e-15


def dense_chain_phases(h, config, noise=probe.NoiseModel()):
    """Measured phases of the dense chain: each round applies the 4x4
    controlled gate to kron(|+>, ground state), and the clip phase is folded
    into the operator before it is squared."""
    prep = molham.spectrum(h).ground_state
    if noise.coherent_epsilon > 0.0:
        u = qcore.expm_herm(probe.perturbed_hamiltonian(h, noise), config.tau)
    else:
        u = qcore.expm_herm(h.matrix, config.tau)
    n = config.bits_per_iteration
    phases = []
    for k, draw in enumerate(noise.jitter_draws(config.iterations)):
        final = probe.controlled_u(u) @ np.kron(qcore.KET_PLUS, prep)
        measured = probe.noisy_readout(final, draw)
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
        # round k reads the phase of c_k less a_k, the accumulated clip
        # phase; here c_k comes from the dense power U^(8^k)
        g = molham.spectrum(h2).ground_state
        u = qcore.expm_herm(h2.matrix, H2_TAU)
        coherences = [np.vdot(g, np.linalg.matrix_power(u, 8**k) @ g) / 2.0 for k in range(6)]
        hooked, _, _ = ipea.estimate(coherences, [0.0] * 6, h2_config(), H2_GROUND_ENERGY)
        exact, _, _ = ipea.run_ipea(h2, h2_config())
        assert len(hooked) == 6
        offset = 0.0
        for rec, z in zip(hooked, coherences):
            assert rec.measured_phase == probe.reduce_phase(probe.coherence_readout(z) - offset)
            offset = (8.0 * (offset + rec.clipped_phase)) % 1.0
        # the exact engine's own coherences are those of U^(8^k)
        for a, b in zip(hooked, exact):
            assert ipea.phase_distance(a.measured_phase, b.measured_phase) <= 1e-12

    @pytest.mark.parametrize("count", [0, 5, 7])
    def test_coherence_count_must_match_iterations(self, count):
        with pytest.raises(ValidationError, match="coherences and 6 draws for 6 iterations"):
            ipea.estimate([0.5] * count, [0.0] * 6, h2_config(), H2_GROUND_ENERGY)

    @pytest.mark.parametrize("count", [0, 5, 7])
    def test_draw_count_must_match_iterations(self, count):
        with pytest.raises(ValidationError, match=f"6 coherences and {count} draws"):
            ipea.estimate([0.5] * 6, [0.0] * count, h2_config(), H2_GROUND_ENERGY)

    def test_jitter_applies_to_supplied_coherences(self):
        noise = probe.NoiseModel(phase_jitter_bound=ERRBD_5DEG, rng_seed=3)
        records, _, _ = ipea.estimate([0.5] * 6, noise.jitter_draws(6), h2_config(), H2_GROUND_ENERGY)
        assert records[0].measured_phase == noise.jitter_draws(1)[0] % 1.0

    @pytest.mark.parametrize("draw", [0.5, math.nextafter(ERRBD_5DEG, 1.0), -math.inf, math.nan])
    def test_draw_outside_the_bound_rejected_before_any_reading(self, monkeypatch, draw):
        # draws of 0.5 under a 5 degree bound returned 18 guaranteed bits, and
        # a NaN or infinite draw failed in to_binary with the wrong message
        def no_reading(z):
            raise AssertionError("read a coherence before the draws were checked")

        monkeypatch.setattr(probe, "coherence_readout", no_reading)
        draws = [0.0, 0.0, 0.0, draw, 0.0, 0.0]
        with pytest.raises(ValidationError, match="iteration 3: jitter draw"):
            ipea.estimate([0.5] * 6, draws, h2_config(), H2_GROUND_ENERGY)

    def test_draws_at_the_bound_accepted(self):
        for sign in (1.0, -1.0):
            records, _, _ = ipea.estimate([0.5] * 6, [sign * ERRBD_5DEG] * 6, h2_config(), H2_GROUND_ENERGY)
            assert len(records) == 6

    @pytest.mark.parametrize(
        "coherence", [complex(math.nan, 0.0), complex(0.0, math.nan), complex(math.inf, 0.0), complex(-math.inf, 1.0)]
    )
    def test_non_finite_coherence_is_a_readout_error(self, coherence):
        # a NaN coherence failed in to_binary with a ValidationError, and an
        # infinite one read as phase 0.0
        coherences = [0.5, 0.5, coherence, 0.5, 0.5, 0.5]
        with pytest.raises(ReadoutError, match="iteration 2: probe coherence .* not finite"):
            ipea.estimate(coherences, [0.0] * 6, h2_config(), H2_GROUND_ENERGY)

    def test_tiny_negative_reading_reduces_to_zero(self):
        # coherence 0.5 reads 0 turns; -1e-300 % 1.0 rounds up to exactly 1.0
        records, _, _ = ipea.estimate([0.5], [-1e-300], h2_config(iterations=1), H2_GROUND_ENERGY)
        assert records[0].measured_phase == 0.0


def batched_rounds(coherences, draws, n, bound):
    """Measured and clipped phases of every seed at once: the per-round
    recursion of ``ipea.estimate`` on a (seeds,) offset, with ``np.where``
    for the wrap fold. ``draws`` is (seeds, rounds)."""
    offset = np.zeros(draws.shape[0])
    measured, clipped = [], []
    for k, (z, draw) in enumerate(zip(coherences, draws.T)):
        reading = (probe.coherence_readout(z) - offset + draw) % 1.0 % 1.0
        clip = reading - bound
        if k > 0:
            wrapped = reading > 0.5 * (1.0 + 2.0 ** (n + 1) * bound)
            clip = np.where(wrapped, reading - 1.0 - bound, clip)
        offset = (2.0**n * (offset + clip)) % 1.0
        measured.append(reading)
        clipped.append(clip)
    return np.array(measured).T, np.array(clipped).T


def sign_law(seed, count, bound):
    """+-bound draws, each sign a fair coin flipped on the stream of ``seed``."""
    rng = np.random.default_rng(seed)
    return FixedJitter(bound, draws=tuple(bound if rng.random() < 0.5 else -bound for _ in range(count)))


def edge_bound(n):
    return 0.9999 / (2.0 ** (n + 1) + 2.0)


class TestSeedBatch:
    """The engine's rounds are real arithmetic, which numpy rounds the way
    Python does, so a seed-batched loop reproduces ``run_ipea`` exactly."""

    @pytest.mark.parametrize(
        "system, n, k, bound, law, seeds",
        [
            ("h2", 3, 6, ERRBD_5DEG, None, 1000),
            ("4x4", 3, 6, ERRBD_5DEG, None, 1000),
            ("h2", 1, 52, edge_bound(1), sign_law, 300),
            ("h2", 2, 26, edge_bound(2), sign_law, 300),
            ("h2", 3, 17, edge_bound(3), sign_law, 300),
        ],
    )
    def test_matches_run_ipea_bit_for_bit(self, h2, monkeypatch, system, n, k, bound, law, seeds):
        h, tau = (h2, H2_TAU) if system == "h2" else (molham.MolecularHamiltonian(MATRIX_4X4), TAU_4X4)
        config = h2_config(bits_per_iteration=n, iterations=k, phase_error_bound=bound, tau=tau)
        inputs = []
        engine = ipea.estimate

        def recorded(coherences, jitter, *args):
            inputs.append((coherences, jitter))
            return engine(coherences, jitter, *args)

        monkeypatch.setattr(ipea, "estimate", recorded)
        runs = []
        for s in range(seeds):
            noise = probe.NoiseModel(phase_jitter_bound=bound, rng_seed=s) if law is None else law(s, k, bound)
            runs.append(ipea.run_ipea(h, config, noise=noise))
        coherences = inputs[0][0]
        assert all(c == coherences for c, _ in inputs)  # seed-free
        measured, clipped = batched_rounds(coherences, np.array([j for _, j in inputs]), n, bound)
        assert measured.tolist() == [[r.measured_phase for r in run.records] for run in runs]
        assert clipped.tolist() == [[r.clipped_phase for r in run.records] for run in runs]


class TestLongRuns:
    @pytest.mark.parametrize("n, k", [(1, 52), (2, 26), (3, 17), (4, 13), (5, 10)])
    def test_runs_to_the_precision_cap(self, h2, n, k):
        _, phase, _ = ipea.run_ipea(h2, h2_config(bits_per_iteration=n, iterations=k))
        assert ipea.precision_report(phase, H2_PHASE) >= 50


# Rounding floor of the final comparison: the oracle phase and the rebuilt
# value each carry a few float64 ulps of a number below one.
FLOAT_FLOOR = 8 * 2.0**-52


# Largest fraction of the admissibility edge 1 / (2^(n+1) + 2) drawn.
EDGE_FRACTION = 1.0 - 2.0**-20


@st.composite
def admissible_runs(draw):
    """(n, k, bound, jitter fractions of the bound, system).

    The bound is drawn up to ``EDGE_FRACTION`` of the admissibility edge.
    The system is None for H2, an int seeding a random 2x2 system, or a
    float theta0 in [0, 1) for diag(-2 theta0, 1 - 2 theta0), whose ground
    phase at the automatic tau is theta0, so the ground phase can lie
    anywhere in the turn. Small n, bounds at the edge, jitter at +-bound
    and ground phases next to a full turn, where the windows of readings
    come closest, are drawn often.
    """
    n = draw(st.integers(1, 5) | st.integers(1, ipea.MAX_REPORT_BITS))
    k = draw(st.integers(1, ipea.MAX_REPORT_BITS // n))
    edge_fraction = st.sampled_from([0.9, 0.9999, EDGE_FRACTION]) | st.floats(0.0, EDGE_FRACTION)
    bound = draw(edge_fraction) / (2.0 ** (n + 1) + 2.0)
    jitter = st.sampled_from([-1.0, 1.0]) | st.floats(-1.0, 1.0)
    fractions = draw(st.lists(jitter, min_size=k, max_size=k))
    theta0 = st.sampled_from([0.0, 0.001, 0.995, 0.999]) | st.floats(0.0, 1.0, exclude_max=True)
    system = draw(st.none() | st.integers(0, 2**32 - 1) | theta0)
    return n, k, bound, fractions, system


class TestJitterProperty:
    @settings(max_examples=150, deadline=None)
    @given(admissible_runs())
    def test_final_error_within_contracted_bound(self, run):
        # any jitter sequence within the bound, on H2 or a 2x2 system at the
        # automatic tau with its ground phase anywhere in the turn, for every
        # admissible (n, k, bound) up to 52 bits
        n, k, bound, fractions, system = run
        if system is None:
            h = molham.build_h2()
        elif isinstance(system, int):
            h = random_negative_hamiltonian(np.random.default_rng(system))
        else:
            h = molham.MolecularHamiltonian(np.diag([-2.0 * system, 1.0 - 2.0 * system]), label="diag")
        try:
            tau = molham.choose_tau(h)
        except TauRangeError:
            # theta0 = 0: no tau names a ground energy >= 0
            assert molham.spectrum(h).ground_energy >= 0.0
            return
        theta = ipea.oracle_phase(h, tau)
        noise = FixedJitter(bound, draws=tuple(f * bound for f in fractions))
        config = h2_config(bits_per_iteration=n, iterations=k, phase_error_bound=bound, tau=tau)
        limit = bound * 2.0 ** (-n * (k - 1))
        # the ground phase must keep the contracted bound, plus a rounding
        # allowance, from a whole turn, or the run is rejected
        margin = limit + ipea.PHASE_FLOOR
        theta0 = -molham.spectrum(h).ground_energy * tau / (2.0 * np.pi)
        if not margin <= theta0 <= 1.0 - margin:
            with pytest.raises(TauRangeError, match="window"):
                ipea.run_ipea(h, config, noise=noise)
            return
        _, phase, _ = ipea.run_ipea(h, config, noise=noise)
        error = ipea.phase_distance(phase.value, theta)
        assert error <= limit + FLOAT_FLOOR

    @pytest.mark.parametrize("near_one", [False, True])
    def test_rounding_floor_narrows_the_window(self, near_one):
        # a ground phase inside [g, 1 - g] but within PHASE_FLOOR of either
        # end is rejected before the first reading
        config = h2_config(tau=1.0)
        g = config.phase_error_bound * 2.0 ** (-3 * 5)
        theta0 = g + 0.5 * ipea.PHASE_FLOOR
        if near_one:
            theta0 = 1.0 - theta0
        energy = -theta0 * 2.0 * math.pi / config.tau
        got = -energy * config.tau / (2.0 * math.pi)
        assert g <= got <= 1.0 - g
        assert not g + ipea.PHASE_FLOOR <= got <= 1.0 - g - ipea.PHASE_FLOOR
        with pytest.raises(TauRangeError, match="window"):
            ipea.estimate([0.5] * 6, [0.0] * 6, config, energy)

    @pytest.mark.filterwarnings("error")
    def test_window_checked_before_the_operator_overflows(self, h2, monkeypatch):
        # exp(-i tau E) overflowed to nan at tau 1.7e308, and the run failed in
        # the power chain; such a tau is now refused by the config, and at the
        # bound the window still rejects it before any operator is built
        def no_chain(*args):
            raise AssertionError("operator built for a ground phase outside the window")

        monkeypatch.setattr(qcore, "power_chain", no_chain)
        with pytest.raises(TauRangeError, match="window"):
            ipea.run_ipea(h2, h2_config(tau=qcore.MAX_MAGNITUDE))

    @pytest.mark.filterwarnings("error")
    def test_energy_whose_phase_overflows_rejected(self):
        # the ground phase 1 / pi is inside the window, but E1 tau = 2e308
        # made the power chain "leave the unitary group" with nan drift. The
        # energy is now refused where it enters; at the bound E1 tau is finite
        with pytest.raises(ValidationError, match=r"'huge' has .* past 2\^500 in magnitude: \(1e\+308\+0j\) at \[1\]\[1\]"):
            molham.MolecularHamiltonian(np.diag([-1.0, 1e308]), label="huge")
        h = molham.MolecularHamiltonian(np.diag([-1.0, qcore.MAX_MAGNITUDE]), label="huge")
        assert ipea.precision_report(ipea.run_ipea(h, h2_config(tau=2.0)).phase, 1.0 / np.pi) >= 18


class TestResidualBelowZero:
    """Runs whose residual goes below zero. With the clip clamped at zero
    the first two missed their contracted bound; the last must still
    rebuild a phase in [0, 1)."""

    def test_ground_phase_just_below_a_full_turn(self):
        # theta0 = 0.995 at the paper's operating point; the clamped clip
        # missed the bound in 319 of these runs, by up to 1.99 hartree
        h = molham.MolecularHamiltonian(np.diag([-1.99, -0.99]), label="theta0 0.995")
        tau = molham.choose_tau(h)
        theta = ipea.oracle_phase(h, tau)
        assert theta == pytest.approx(0.995, abs=1e-12)
        limit = JITTER_FINAL_BOUND + FLOAT_FLOOR
        for seed in range(1000):
            noise = probe.NoiseModel(phase_jitter_bound=ERRBD_5DEG, rng_seed=seed)
            _, phase, energy = ipea.run_ipea(h, h2_config(tau=tau), noise=noise)
            assert ipea.phase_distance(phase.value, theta) <= limit
            assert abs(energy.energy - energy.oracle_energy) <= 2.0 * np.pi * limit / tau

    @pytest.mark.parametrize("n, k", [(1, 52), (2, 26), (3, 17)])
    def test_h2_near_the_admissibility_edge(self, h2, n, k):
        # bound at 0.9999 of the edge, jitter drawn from {-bound, 0, +bound}
        bound = 0.9999 / (2.0 ** (n + 1) + 2.0)
        config = h2_config(bits_per_iteration=n, iterations=k, phase_error_bound=bound)
        limit = bound * 2.0 ** (-n * (k - 1)) + FLOAT_FLOOR
        for seed in range(300):
            rng = np.random.default_rng(seed)
            noise = FixedJitter(bound, draws=tuple(bound * float(rng.integers(-1, 2)) for _ in range(k)))
            _, phase, _ = ipea.run_ipea(h2, config, noise=noise)
            assert ipea.phase_distance(phase.value, H2_PHASE) <= limit

    def test_rebuilt_value_just_below_zero(self):
        # theta0 = 0 and a negative first clip: the rebuild rounds to just
        # below zero, which must reduce to a phase in [0, 1), not to 1.0.
        # The records are those this run produced before theta0 = 0, at the
        # edge of a whole turn, was rejected.
        h = molham.MolecularHamiltonian(np.diag([0.0, 1.0]), label="theta0 0")
        bound = 0.16665
        config = h2_config(bits_per_iteration=1, iterations=2, phase_error_bound=bound, tau=np.pi)
        with pytest.raises(TauRangeError, match="window"):
            ipea.run_ipea(h, config, noise=probe.NoiseModel(phase_jitter_bound=bound))
        records = [
            ipea.IterationRecord(float.fromhex("0x1.554c985f06f69p-4"), float.fromhex("-0x1.554c985f06f69p-4")),
            ipea.IterationRecord(float.fromhex("0x1.554c985f06f68p-3"), float.fromhex("-0x1.0p-55")),
        ]
        phase = ipea.reconstruct(records, 1, phase_error_bound=bound)
        assert phase.reconstruction_trace[-1] < 0.0
        assert phase.value == 0.0
        assert phase.binary_digits == "00"


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
        rec = ipea.IterationRecord(measured_phase=0.3, clipped_phase=0.28)
        estimate = ipea.reconstruct([rec], 3, 0.02)
        assert estimate.value == 0.3
        assert list(estimate.reconstruction_trace) == [0.3]

    def test_two_record_clipping_identity(self):
        records = [
            ipea.IterationRecord(H2_PHASE, H2_CLIPPED_PHASE_0),
            ipea.IterationRecord(8.0 * (H2_PHASE - H2_CLIPPED_PHASE_0), 0.0),
        ]
        estimate = ipea.reconstruct(records, 3, ERRBD_5DEG)
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
                records.append(ipea.IterationRecord(theta, clip))
                theta = 2.0**n * (theta - clip)
                assert theta < 1.0 + 1e-12
                theta %= 1.0
            # each clip lies up to 2^-n below its reading
            estimate = ipea.reconstruct(records, n, 2.0**-n)
            assert ipea.phase_distance(estimate.value, theta0) <= 1e-12

    def test_reference_bitstring_round_trip(self):
        phi0 = int(REFERENCE_BITSTRING_K0, 2) * 2.0 ** -len(REFERENCE_BITSTRING_K0)
        rec = ipea.IterationRecord(phi0, max(phi0 - ERRBD_5DEG, 0.0))
        estimate = ipea.reconstruct([rec], 3, ERRBD_5DEG)
        assert ipea.to_binary(estimate.value, 25) == REFERENCE_BITSTRING_K0

    def test_wrapped_final_reading_is_unwound(self):
        # a near-turn final reading is a wrapped small phase, not a large one
        records = [
            ipea.IterationRecord(0.5, 0.5 - ERRBD_5DEG),
            ipea.IterationRecord(0.999, 0.0),
        ]
        estimate = ipea.reconstruct(records, 3, ERRBD_5DEG)
        assert estimate.reconstruction_trace[0] == pytest.approx(-0.001, abs=1e-12)
        assert estimate.value == pytest.approx(0.5 - ERRBD_5DEG - 0.001 / 8.0, abs=1e-12)

    def test_bound_is_required(self):
        # without the bound the wrapped 0.999 was read as a large phase, 1/8
        # turn off, and every digit was still claimed
        b = ERRBD_5DEG
        records = [
            ipea.IterationRecord(0.5, 0.5 - b),
            ipea.IterationRecord(0.999, 0.999 - 1.0 - b),
        ]
        with pytest.raises(TypeError):
            ipea.reconstruct(records, 3)
        estimate = ipea.reconstruct(records, 3, b)
        assert estimate.value == pytest.approx(0.5 - b - 0.001 / 8.0, abs=1e-12)
        assert estimate.guaranteed_bits == 6

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            ipea.reconstruct([], 3, ERRBD_5DEG)

    def test_guaranteed_bits(self, h2):
        _, phase, _ = ipea.run_ipea(h2, h2_config())
        assert phase.guaranteed_bits == 18  # n * k_max, bound well below 2^-18
        assert phase.guaranteed_bits <= len(phase.binary_digits)

    def test_guaranteed_bits_count_rounding(self, h2):
        # a bound below half an ulp of the phase: the reading H2_PHASE - bound
        # rounds to 1.6e-16 off, so 51 digits are right, where 52 were claimed
        bound = 1.1101120023226938e-16
        noise = FixedJitter(bound, draws=(-bound,))
        config = h2_config(bits_per_iteration=52, iterations=1, phase_error_bound=bound)
        _, phase, _ = ipea.run_ipea(h2, config, noise=noise)
        assert ipea.precision_report(phase, H2_PHASE) == 51
        assert phase.guaranteed_bits == 48


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
        # 1.0 has no expansion in [0, 1); its 3 digits would read "1000"
        for value in (1.0, 1.2, -0.5, math.nan, math.inf):
            with pytest.raises(ValidationError, match="value must lie in"):
                ipea.to_binary(value, 3)
        with pytest.raises(ValidationError, match="digit count"):
            ipea.to_binary(0.5, 0)
        # True formatted as "01b" failed with ValueError, and 2.0 with TypeError
        for digits in (True, 2.0, "3"):
            with pytest.raises(ValidationError, match="digit count must be an integer"):
                ipea.to_binary(0.5, digits)
        # a count's time and memory grew with it: 10^10 digits would take about 11 GB
        for digits in (ipea.MAX_REPORT_BITS + 1, np.int64(10**10)):
            with pytest.raises(ValidationError, match=f"digit count must be <= 52, got {digits}"):
                ipea.to_binary(0.5, digits)

    def test_numpy_digit_count(self):
        # an np.int64 count shifted the phase's numerator in 64 bits: np.int64(60)
        # read "-000...1100000", and np.int64(52) reads -103 in 52 digits
        assert ipea.to_binary(0.1, np.int64(52)) == ipea.to_binary(0.1, 52)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1.0, exclude_max=True), st.integers(1, ipea.MAX_REPORT_BITS))
    @example(0.0, 52)
    @example(5e-324, 52)
    @example(2.2250738585072014e-308, 52)
    @example(math.nextafter(1.0, 0.0), 52)
    @example(H2_PHASE, 52)
    def test_equals_the_doubling_loop(self, value, digits):
        assert ipea.to_binary(value, digits) == to_binary_loop(value, digits)


def to_binary_loop(value, digits):
    """The digit-by-digit expansion ``to_binary`` replaced: each doubling and
    each subtraction of the integer part is exact in float64."""
    bits = []
    v = value
    for _ in range(digits):
        v *= 2.0
        b = int(v)
        bits.append("1" if b else "0")
        v -= b
    return "".join(bits)


def leading_bits_loop(distance):
    """The bit-by-bit count ``_leading_bits`` replaced."""
    bits = 0
    while bits < ipea.MAX_REPORT_BITS and distance < 2.0 ** -(bits + 1):
        bits += 1
    return bits


class TestLeadingBits:
    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.floats(min_value=0.0),
            st.floats(allow_nan=True, allow_infinity=True),
            st.integers(-1074, 1023).map(lambda e: math.ldexp(1.0, e)),
        )
    )
    @example(0.0)
    @example(-0.0)
    @example(5e-324)
    @example(math.inf)
    @example(math.nan)
    def test_equals_the_counting_loop(self, distance):
        assert ipea._leading_bits(distance) == leading_bits_loop(distance)

    def test_every_power_of_two_and_its_neighbours(self):
        # distance 2^-b holds b - 1 bits, the float just below it b
        for e in range(-1074, 3):
            power = math.ldexp(1.0, e)
            for distance in (math.nextafter(power, 0.0), power, math.nextafter(power, math.inf)):
                assert ipea._leading_bits(distance) == leading_bits_loop(distance), distance


class TestEnergyFromPhase:
    def test_zero_phase(self):
        estimate = ipea.reconstruct([ipea.IterationRecord(0.0, 0.0)], 3, 0.0)
        result = ipea.energy_from_phase(estimate, 2.0, 0.0)
        assert result.energy == 0.0
        assert result.abs_error == 0.0

    def test_h2_arithmetic(self):
        estimate = ipea.reconstruct([ipea.IterationRecord(H2_PHASE, H2_PHASE)], 3, 0.0)
        result = ipea.energy_from_phase(estimate, H2_TAU, H2_GROUND_ENERGY)
        assert result.energy == pytest.approx(-1.851571, abs=1e-5)
        assert result.abs_error <= 1e-12

    def test_seventeen_bit_reference_energy_consistency(self):
        # an energy quoted to 17 correct phase bits must sit within the
        # 17-bit window of the exact value
        seventeen_bit_window = 2 * np.pi * 2.0**-17 / H2_TAU
        assert abs(-1.851569 - H2_GROUND_ENERGY) <= seventeen_bit_window

    def test_tau_validation(self):
        estimate = ipea.reconstruct([ipea.IterationRecord(0.1, 0.1)], 3, 0.0)
        with pytest.raises(ValidationError):
            ipea.energy_from_phase(estimate, 0.0, H2_GROUND_ENERGY)

    def test_energy_phase_of_a_tiny_positive_energy(self):
        # -1e-18 / 2pi % 1.0 rounds up to exactly 1.0, outside [0, 1)
        h = molham.MolecularHamiltonian(np.diag([1e-18, 1.0]), label="tiny")
        assert ipea.oracle_phase(h, 1.0) == 0.0


class TestPrecisionReport:
    def test_exact_match_hits_cap(self):
        estimate = ipea.reconstruct([ipea.IterationRecord(H2_PHASE, H2_PHASE)], 3, 0.0)
        assert ipea.precision_report(estimate, H2_PHASE) >= 52

    def test_three_microturn_error_is_18_bits(self):
        estimate = ipea.reconstruct([ipea.IterationRecord(0.25 + 3e-6, 0.25 + 3e-6)], 3, 0.0)
        assert ipea.precision_report(estimate, 0.25) == 18

    def test_oracle_validation(self):
        estimate = ipea.reconstruct([ipea.IterationRecord(0.25, 0.25)], 3, 0.0)
        for oracle in (1.5, 1.0, -0.25):
            with pytest.raises(ValidationError, match="oracle phase"):
                ipea.precision_report(estimate, oracle)

    def test_oracle_phase_zero_accepted(self):
        estimate = ipea.reconstruct([ipea.IterationRecord(0.25, 0.25)], 3, 0.0)
        assert ipea.precision_report(estimate, 0.0) == 1


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

    @pytest.mark.parametrize("dim", [5, 8])
    def test_systems_past_4x4_run_within_the_contracted_bound(self, dim):
        # the eigenbasis engine builds no probe register, so a 5..8-dimensional
        # system runs like a 2x2 one (it was rejected as too large)
        rng = np.random.default_rng(dim)
        for seed in range(20):
            energies = -rng.uniform(0.2, 2.0, dim)
            v = random_unitary(rng, dim)
            h = molham.MolecularHamiltonian((v * energies) @ v.conj().T, label=f"d{dim}")
            noise = probe.NoiseModel(phase_jitter_bound=ERRBD_5DEG, rng_seed=seed)
            _, phase, _ = ipea.run_ipea(h, h2_config(tau=2.0), noise=noise)
            assert ipea.phase_distance(phase.value, ipea.oracle_phase(h, 2.0)) <= JITTER_FINAL_BOUND + 1e-12

    def test_readout_error_carries_iteration_index(self, h2):
        with pytest.raises(ReadoutError, match="iteration 0"):
            ipea.estimate([0j] * 6, [0.0] * 6, h2_config(), H2_GROUND_ENERGY)


def prefixes(result):
    return ipea.running_estimates(result.records, 3, ERRBD_5DEG)


class TestTraceCsv:
    def test_shape_and_summary(self, h2):
        result = ipea.run_ipea(h2, h2_config())
        text = ipea.trace_csv(result, prefixes(result))
        lines = text.strip().split("\n")
        assert lines[0].startswith("k,measured_phase,clipped_phase,operator_power,phi_c")
        assert len(lines) == 1 + 6 + 1
        assert all(len(line.split(",")) == 8 for line in lines[1:])
        final = lines[-1].split(",")
        assert final[0] == "final"
        assert float(final[6]) == result.energy.energy

    def test_determinism(self, h2):
        noise = probe.NoiseModel(phase_jitter_bound=ERRBD_5DEG, rng_seed=9)
        a, b = (ipea.run_ipea(h2, h2_config(), noise=noise) for _ in range(2))
        assert ipea.trace_csv(a, prefixes(a)) == ipea.trace_csv(b, prefixes(b))

    def test_operator_power_column(self, h2):
        result = ipea.run_ipea(h2, h2_config())
        rows = ipea.trace_csv(result, prefixes(result)).strip().split("\n")[1:-1]
        powers = [int(r.split(",")[3]) for r in rows]
        assert powers == [8**k for k in range(6)]
        # the power follows the run's n, read from the first prefix's digits
        result = ipea.run_ipea(h2, h2_config(bits_per_iteration=2, iterations=4))
        running = ipea.running_estimates(result.records, 2, ERRBD_5DEG)
        rows = ipea.trace_csv(result, running).strip().split("\n")[1:-1]
        assert [int(r.split(",")[3]) for r in rows] == [4**k for k in range(4)]

    def test_last_row_reads_as_final_when_the_last_reading_wraps(self, h2):
        # seed 106 leaves a wrapped last reading; the last row's rebuild must
        # unwind it the way the final row's does
        noise = probe.NoiseModel(phase_jitter_bound=ERRBD_5DEG, rng_seed=106)
        result = ipea.run_ipea(h2, h2_config(), noise=noise)
        assert ipea.is_wrapped(result.records[-1].measured_phase, ERRBD_5DEG, 3)
        rows = ipea.trace_csv(result, prefixes(result)).strip().split("\n")
        last, final = (row.split(",") for row in rows[-2:])
        assert final[0] == "final"
        assert last[5:] == final[5:]
        assert float(final[7]) == result.energy.abs_error
        assert result.energy.abs_error <= JITTER_FINAL_BOUND * 2 * np.pi / H2_TAU
