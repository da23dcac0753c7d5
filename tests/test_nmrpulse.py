"""Pulse backend: J-coupling Hamiltonian, sequence evolution, compiler, IPEA parity."""
import math

import numpy as np
import pytest

from molphase import ipea, molham, nmrpulse, probe, qcore
from molphase.errors import CompilationError, TauRangeError, ValidationError

from conftest import ERRBD_5DEG, H2_TAU, ID2, SIGMA_Y, random_negative_hamiltonian, random_unitary


J = probe.J_COUPLING_HZ
# angles (rad) between a gate's rotation axis and +z or -z
NEAR_Z_ANGLES = [0.0, 1e-14, 1e-12, 1e-9, 1e-6, 1e-3]
# (pi J / 2) sz x sz from the Kronecker product of Paulis.
KRON_HAMILTONIAN = 0.5 * np.pi * J * np.kron(qcore.SIGMA_Z, qcore.SIGMA_Z)


def pauli_rotation(phase, angle):
    """cos(angle/2) I - i sin(angle/2) (cos(phase) sx + sin(phase) sy)."""
    axis = np.cos(phase) * qcore.SIGMA_X + np.sin(phase) * SIGMA_Y
    return np.cos(angle / 2.0) * ID2 - 1j * np.sin(angle / 2.0) * axis


def random_events(rng, count):
    """``count`` events, each a delay or a pulse on a random spin with equal odds."""
    events = []
    for _ in range(count):
        if rng.random() < 0.5:
            events.append(nmrpulse.DelayEvent(float(rng.uniform(0, 2e-3))))
        else:
            spin = nmrpulse.SPINS[int(rng.integers(2))]
            events.append(
                nmrpulse.PulseEvent(spin, float(rng.uniform(0, 2 * np.pi)),
                                    float(rng.uniform(-np.pi, np.pi)))
            )
    return events


class TestNmrHamiltonian:
    def test_pure_j_coupling(self):
        half_pi_j = 0.5 * np.pi * 214.6
        np.testing.assert_allclose(
            nmrpulse._ZZ_ENERGIES, [half_pi_j, -half_pi_j, -half_pi_j, half_pi_j], atol=1e-12
        )

    def test_matches_kron_reference(self):
        assert (np.diag(nmrpulse._ZZ_ENERGIES) == KRON_HAMILTONIAN).all()


class TestEventUnitary:
    @pytest.mark.parametrize("over_rotation", [0.0, 1e-3])
    def test_pulse_matches_kron_reference(self, over_rotation):
        rng = np.random.default_rng(53)
        for _ in range(20):
            phase, angle = float(rng.uniform(0, 2 * np.pi)), float(rng.uniform(-np.pi, np.pi))
            r = pauli_rotation(phase, angle * (1.0 + over_rotation))
            references = {
                "probe": np.kron(r, ID2),
                "system": np.kron(ID2, r),
            }
            for spin, reference in references.items():
                event = nmrpulse.PulseEvent(spin, phase, angle)
                got = nmrpulse.evolve_sequence([event], over_rotation)
                assert (got == reference).all()

    def test_delay_matches_expm_herm(self):
        rng = np.random.default_rng(59)
        for duration in [0.0, 1.0 / (2.0 * J), *rng.uniform(0, 5e-3, size=100)]:
            got = nmrpulse.evolve_sequence([nmrpulse.DelayEvent(float(duration))])
            assert (got == qcore.expm_herm(KRON_HAMILTONIAN, duration)).all()

    @pytest.mark.filterwarnings("error")
    def test_delay_whose_phase_overflows_rejected(self):
        # numpy warned of an overflow and returned nan entries; such a delay is
        # now refused when it is built, and at the bound its phases are finite
        with pytest.raises(ValidationError, match=r"delay duration must be finite with magnitude at most 2\^500, got 1e\+308"):
            nmrpulse.DelayEvent(1e308)
        u = nmrpulse.evolve_sequence([nmrpulse.DelayEvent(qcore.MAX_MAGNITUDE)])
        assert np.abs(np.abs(np.diagonal(u)) - 1.0).max() <= 1e-15

    def test_non_finite_rotation_rejected(self):
        # an over-rotation past the bound is refused where it enters; within
        # it, a scaled angle past the bound is refused by the rotation
        event = nmrpulse.PulseEvent("probe", 0.0, np.pi)
        for over_rotation in (np.nan, np.inf, 1e308):
            with pytest.raises(ValidationError, match="over_rotation must be finite with magnitude at most 2\\^500"):
                nmrpulse.evolve_sequence([event], over_rotation=over_rotation)
        with pytest.raises(ValidationError, match="rotation angle must be finite with magnitude at most 2\\^500"):
            nmrpulse.evolve_sequence([event], over_rotation=qcore.MAX_MAGNITUDE)


class TestEvolveSequence:
    def test_empty_sequence(self):
        np.testing.assert_allclose(nmrpulse.evolve_sequence([]), np.eye(4), atol=0)

    def test_half_j_delay_gives_quarter_turn_coupling(self):
        got = nmrpulse.evolve_sequence([nmrpulse.DelayEvent(1.0 / (2.0 * 214.6))])
        zz = np.kron(qcore.SIGMA_Z, qcore.SIGMA_Z)
        expected = qcore.expm_herm((np.pi / 4.0) * zz, 1.0)
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_pi_pulse_on_probe(self):
        got = nmrpulse.evolve_sequence([nmrpulse.PulseEvent("probe", 0.0, np.pi)])
        np.testing.assert_allclose(got, np.kron(-1j * qcore.SIGMA_X, ID2), atol=1e-12)

    def test_event_order_matters(self):
        events = [nmrpulse.PulseEvent("probe", 0.0, np.pi / 2),
                  nmrpulse.PulseEvent("probe", np.pi / 2, np.pi / 2)]
        forward = nmrpulse.evolve_sequence(events)
        backward = nmrpulse.evolve_sequence(events[::-1])
        assert np.abs(forward - backward).max() > 0.1

    @pytest.mark.parametrize("over_rotation", [0.0, 1e-3])
    def test_mixed_sequence_matches_kron_product(self, over_rotation):
        # each event's gate as np.kron(r, I), np.kron(I, r) or expm_herm,
        # multiplied in order; swapping the probe and system axes fails this
        rng = np.random.default_rng(67)
        for _ in range(5):
            events = random_events(rng, 240)
            reference = np.eye(4, dtype=complex)
            for event in events:
                if isinstance(event, nmrpulse.DelayEvent):
                    gate = qcore.expm_herm(KRON_HAMILTONIAN, event.duration)
                else:
                    r = pauli_rotation(event.phase, event.angle * (1.0 + over_rotation))
                    gate = np.kron(r, ID2) if event.spin == "probe" else np.kron(ID2, r)
                reference = gate @ reference
            got = nmrpulse.evolve_sequence(events, over_rotation)
            assert np.abs(got - reference).max() <= 1e-13

    def test_unknown_event_rejected(self):
        with pytest.raises(ValidationError, match="unknown event type"):
            nmrpulse.evolve_sequence([nmrpulse.DelayEvent(1e-3), "pulse"])

    def test_long_random_sequence_stays_unitary(self):
        u = nmrpulse.evolve_sequence(random_events(np.random.default_rng(19), 10_000))
        assert np.abs(u.conj().T @ u - np.eye(4)).max() <= 1e-9

    def test_event_validation(self):
        for spin in ("electron", "both"):
            with pytest.raises(ValidationError, match="spin must be one of"):
                nmrpulse.PulseEvent(spin, 0.0, 1.0)
        with pytest.raises(ValidationError):
            nmrpulse.DelayEvent(-1e-3)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_events_rejected(self, value):
        with pytest.raises(ValidationError, match="delay duration must be finite"):
            nmrpulse.DelayEvent(value)
        with pytest.raises(ValidationError, match="pulse phase must be finite"):
            nmrpulse.PulseEvent("probe", value, 1.0)
        with pytest.raises(ValidationError, match="pulse angle must be finite"):
            nmrpulse.PulseEvent("system", 0.0, value)


class TestCompileControlledU:
    def test_identity_compiles_to_nothing(self):
        seq = nmrpulse.compile_controlled_u(ID2)
        assert seq.events == ()
        assert seq.achieved_fidelity == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_gate_uses_one_short_delay(self):
        theta = 1.1
        seq = nmrpulse.compile_controlled_u(np.diag([1.0, np.exp(1j * theta)]))
        delays = [e for e in seq.events if isinstance(e, nmrpulse.DelayEvent)]
        assert len(delays) == 1
        assert delays[0].duration <= 1.0 / (2.0 * 214.6) + 1e-15
        assert seq.achieved_fidelity >= 1.0 - 1e-9

    def test_h2_initial_operator_within_budget(self, h2):
        u0 = qcore.expm_herm(h2.matrix, H2_TAU)
        seq = nmrpulse.compile_controlled_u(u0)
        assert seq.achieved_fidelity >= 1.0 - 1e-9
        assert len(seq.events) <= 12
        delays = [e for e in seq.events if isinstance(e, nmrpulse.DelayEvent)]
        assert sum(d.duration for d in delays) <= 1.0 / (2.0 * 214.6) + 1e-15

    @pytest.mark.filterwarnings("error")
    def test_matrix_whose_product_is_nan_is_rejected(self):
        # U†U - I is NaN: this compiled to 9 events at fidelity 1.3e184. Such
        # entries are now refused, and at the bound U†U - I is finite
        with pytest.raises(ValidationError, match=r"controlled operator has .* past 2\^500 in magnitude: \(1e\+200\+0j\)"):
            nmrpulse.compile_controlled_u(np.array([[1e200, 1e200], [1e200, 1e200j]]))
        top = qcore.MAX_MAGNITUDE
        with pytest.raises(ValidationError, match=r"controlled operator is not unitary: max\|U†U - I\| = 2\.143e\+301"):
            nmrpulse.compile_controlled_u(np.array([[top, top], [top, top * 1j]]))

    def test_hundred_random_unitaries(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            seq = nmrpulse.compile_controlled_u(random_unitary(rng))
            assert seq.achieved_fidelity >= 1.0 - 1e-9

    def test_realized_matches_exact_gate(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            u = random_unitary(rng)
            seq = nmrpulse.compile_controlled_u(u)
            realized = nmrpulse.evolve_sequence(seq.events)
            intended = probe.controlled_u(u)
            # equal up to global phase
            overlap = abs(np.trace(intended.conj().T @ realized)) / 4.0
            assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_stored_fidelity_matches_recomputation(self):
        rng = np.random.default_rng(47)
        u = random_unitary(rng)
        seq = nmrpulse.compile_controlled_u(u)
        # |Tr(G† R)| / 4 over the whole 4x4 gate G
        recomputed = abs(np.vdot(probe.controlled_u(u), nmrpulse.evolve_sequence(seq.events))) / 4.0
        assert abs(seq.achieved_fidelity - recomputed) <= 1e-12

    def test_block_fidelity_equals_the_gate_overlap(self):
        # the check on u's blocks reads the 4x4 overlap to within rounding
        rng = np.random.default_rng(53)
        for _ in range(1000):
            u = random_unitary(rng)
            seq = nmrpulse.compile_controlled_u(u)
            overlap = abs(np.vdot(probe.controlled_u(u), nmrpulse.evolve_sequence(seq.events))) / 4.0
            assert abs(seq.achieved_fidelity - overlap) <= 1e-15

    def test_builds_no_controlled_gate(self, monkeypatch):
        def no_gate(u):
            raise AssertionError("built the 4x4 controlled gate")

        monkeypatch.setattr(probe, "controlled_u", no_gate)
        seq = nmrpulse.compile_controlled_u(random_unitary(np.random.default_rng(59)))
        assert seq.achieved_fidelity >= nmrpulse.COMPILE_FIDELITY_FLOOR

    @pytest.mark.parametrize("dim", [1, 4, 8])
    def test_rejects_gates_on_other_dimensions(self, dim):
        with pytest.raises(ValidationError, match=f"targets single-qubit gates, got dim {dim}"):
            nmrpulse.compile_controlled_u(np.eye(dim))

    def test_failed_check_names_the_largest_block_deviation(self, monkeypatch):
        # a sequence that realized the identity instead of controlled-sx:
        # fidelity |2 + 0| / 4, and R[2:, 2:] - sx deviates by 1
        monkeypatch.setattr(nmrpulse, "evolve_sequence", lambda events: np.eye(4, dtype=complex))
        with pytest.raises(CompilationError, match=r"fidelity 0\.500000000000 .*max residual 1\.000e\+00"):
            nmrpulse.compile_controlled_u(qcore.SIGMA_X)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("off_z", NEAR_Z_ANGLES)
    def test_axis_near_z_keeps_its_tilt(self, sign, off_z):
        # dropping the tilt of an axis 1e-6 rad off z costs ~1e-13 of fidelity
        theta, azimuth = 1.1, 0.7
        n = [np.sin(off_z) * np.cos(azimuth), np.sin(off_z) * np.sin(azimuth), sign * np.cos(off_z)]
        generator = n[0] * qcore.SIGMA_X + n[1] * SIGMA_Y + n[2] * qcore.SIGMA_Z
        u = np.exp(0.3j) * qcore.expm_herm(generator, theta / 2.0)
        seq = nmrpulse.compile_controlled_u(u)
        assert seq.achieved_fidelity >= nmrpulse.COMPILE_FIDELITY_FLOOR
        assert 1.0 - seq.achieved_fidelity <= 1e-15
        assert len(seq.events) == 9

    def test_rejects_non_unitary(self):
        with pytest.raises(ValidationError):
            nmrpulse.compile_controlled_u(np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestRunPulseBackend:
    @pytest.mark.parametrize("iterations", [3, 6, 8])
    def test_matches_ideal_engine(self, h2, iterations):
        config = ipea.IterationConfig(iterations=iterations, tau=H2_TAU)
        ideal = ipea.run_ipea(h2, config)
        pulsed = nmrpulse.run_pulse_backend(h2, config)
        for a, b in zip(ideal.records, pulsed.records):
            assert ipea.phase_distance(a.measured_phase, b.measured_phase) <= 1e-8
        assert ipea.phase_distance(ideal.phase.value, pulsed.phase.value) <= 1e-8

    def test_single_iteration(self, h2):
        config = ipea.IterationConfig(iterations=1, tau=H2_TAU)
        ideal = ipea.run_ipea(h2, config)
        pulsed = nmrpulse.run_pulse_backend(h2, config)
        assert ipea.phase_distance(
            ideal.records[0].measured_phase, pulsed.records[0].measured_phase
        ) <= 1e-8

    def test_over_rotation_error_compounds_with_operator_power(self, h2):
        theta0 = ipea.oracle_phase(h2, H2_TAU)
        config = ipea.IterationConfig(iterations=4, tau=H2_TAU)
        result = nmrpulse.run_pulse_backend(h2, config, over_rotation=1e-3)
        errors = ipea.iteration_phase_errors(result.records, theta0, 3)
        # pre-saturation growth tracks the 2^n amplification of the operator
        window = [e for e in errors if e < ERRBD_5DEG]
        assert len(window) >= 3
        assert 6.0 <= window[1] / window[0] <= 12.0
        fitted = (window[-1] / window[0]) ** (1.0 / (len(window) - 1))
        assert 4.0 <= fitted <= 16.0

    @pytest.mark.parametrize("over_rotation", [0.0, -0.0, 1e-3])
    def test_evolves_the_sequence_at_its_own_over_rotation(self, h2, monkeypatch, over_rotation):
        # the compiler verifies at 0, then the run evolves at its own value, zero included
        calls = []
        evolve = nmrpulse.evolve_sequence

        def recorded(events, over_rotation=0.0):
            calls.append(over_rotation)
            return evolve(events, over_rotation=over_rotation)

        monkeypatch.setattr(nmrpulse, "evolve_sequence", recorded)
        nmrpulse.run_pulse_backend(h2, ipea.IterationConfig(iterations=4, tau=H2_TAU), over_rotation=over_rotation)
        assert calls == [0.0, over_rotation]
        assert [math.copysign(1.0, x) for x in calls] == [1.0, math.copysign(1.0, over_rotation)]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("over_rotation", [1e308, -1e308, 1.7976931348623157e308])
    def test_huge_over_rotation_rejected_without_a_warning(self, h2, over_rotation):
        # the compiler's np.float64 angles times 1 + over_rotation warned
        # "overflow encountered in scalar multiply" before the angle check raised
        with pytest.raises(ValidationError, match="over_rotation must be finite with magnitude at most 2\\^500"):
            nmrpulse.run_pulse_backend(h2, ipea.IterationConfig(tau=H2_TAU), over_rotation=over_rotation)

    def test_diagonalizes_once_per_solve(self, eigh_calls):
        h = molham.MolecularHamiltonian(np.array([[-1.9, 0.2], [0.2, -0.3]]), label="H2-like")
        nmrpulse.run_pulse_backend(h, ipea.IterationConfig(tau=molham.choose_tau(h)))
        assert len(eigh_calls) == 1

    @pytest.mark.parametrize("over_rotation", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_over_rotation(self, h2, monkeypatch, over_rotation):
        def no_compile(*args, **kwargs):
            raise AssertionError("compiled before the over-rotation was checked")

        monkeypatch.setattr(nmrpulse, "compile_controlled_u", no_compile)
        with pytest.raises(ValidationError, match="over_rotation must be finite"):
            nmrpulse.run_pulse_backend(h2, ipea.IterationConfig(tau=H2_TAU), over_rotation=over_rotation)

    def test_rejects_larger_systems(self):
        h = molham.MolecularHamiltonian(np.diag([-2.0, -1.5, -1.0, -0.5]), label="d4")
        with pytest.raises(ValidationError, match="2x2"):
            nmrpulse.run_pulse_backend(h, ipea.IterationConfig(tau=1.0))

    def test_keeps_sub_picoradian_angles(self):
        # E0 + E1 = 3e-13 makes the probe's z rotation -1.5e-13 rad; dropped,
        # it moved the eigenphase by 2.4e-14 turns, and 45 bits were correct
        h = molham.MolecularHamiltonian(np.array([[-1.0, 0.3], [0.3, 1.0 + 3e-13]]), label="near traceless")
        config = ipea.IterationConfig(bits_per_iteration=1, iterations=52, phase_error_bound=0.1, tau=1.0)
        phase = nmrpulse.run_pulse_backend(h, config).phase
        assert ipea.precision_report(phase, ipea.oracle_phase(h, config.tau)) == 52

    @pytest.mark.parametrize("diagonal", [(-1.8, -0.25), (-0.25, -1.8)])
    @pytest.mark.parametrize("off_z", NEAR_Z_ANGLES)
    def test_gate_axis_near_z_holds_guaranteed_bits(self, diagonal, off_z):
        # H12 = tan(off_z) (H11 - H22) / 2 tilts the gate's axis off_z from +z or -z
        h11, h22 = diagonal
        h12 = np.tan(off_z) * (h11 - h22) / 2.0
        h = molham.MolecularHamiltonian(np.array([[h11, h12], [h12, h22]]), label="near diagonal")
        config = ipea.IterationConfig(tau=molham.choose_tau(h))
        phase = nmrpulse.run_pulse_backend(h, config).phase
        assert ipea.precision_report(phase, ipea.oracle_phase(h, config.tau)) >= phase.guaranteed_bits

    def test_rejects_a_positive_ground_energy(self):
        # E0 = 0.01 has ground phase -0.005: a phase of [0, 1) names only
        # E in (-2 pi / tau, 0], so the run would report -1.99 hartree
        h = molham.MolecularHamiltonian(np.diag([0.01, 1.01]), label="E0 > 0")
        with pytest.raises(TauRangeError, match="window"):
            nmrpulse.run_pulse_backend(h, ipea.IterationConfig(tau=molham.choose_tau(h)))

    @pytest.mark.filterwarnings("error")
    def test_rejects_an_energy_whose_phase_overflows(self):
        # the ground phase 1 / pi is inside the window, but E1 tau = 2e308;
        # such an energy is now refused where the Hamiltonian is built
        with pytest.raises(ValidationError, match=r"'huge' has .* past 2\^500 in magnitude: \(1e\+308\+0j\) at \[1\]\[1\]"):
            molham.MolecularHamiltonian(np.diag([-1.0, 1e308]), label="huge")

    @pytest.mark.filterwarnings("error")
    def test_rejects_a_tau_past_the_window_before_compiling(self, h2, monkeypatch):
        # tau 1.7e308 raised "controlled operator contains non-finite entries"
        # from the compiler; it is now refused by the config, and the window
        # rejects a tau at the bound before anything is compiled
        def no_compile(*args, **kwargs):
            raise AssertionError("compiled for a ground phase outside the window")

        monkeypatch.setattr(nmrpulse, "compile_controlled_u", no_compile)
        with pytest.raises(TauRangeError, match="window"):
            nmrpulse.run_pulse_backend(h2, ipea.IterationConfig(tau=qcore.MAX_MAGNITUDE))


class TestLongRuns:
    @pytest.mark.parametrize("n, k", [(3, 17), (1, 52), (2, 26)])
    def test_final_phase_matches_exact_engine(self, h2, n, k):
        # per-record phases carry the residual times 2^(n k), so last-bit
        # differences of the two squaring chains show there; the final
        # estimates must still agree to rounding
        bound = 0.25 / (2.0 ** (n + 1) + 2.0)
        rng = np.random.default_rng(59)
        for h in [h2] + [random_negative_hamiltonian(rng) for _ in range(20)]:
            config = ipea.IterationConfig(
                bits_per_iteration=n, iterations=k, phase_error_bound=bound, tau=molham.choose_tau(h)
            )
            exact = ipea.run_ipea(h, config).phase.value
            pulsed = nmrpulse.run_pulse_backend(h, config).phase.value
            theta = ipea.oracle_phase(h, config.tau)
            assert ipea.phase_distance(pulsed, exact) <= 1e-15
            assert ipea.phase_distance(exact, theta) <= 1e-15
            assert ipea.phase_distance(pulsed, theta) <= 1e-15
