"""Linear-algebra core: eigensolver, matrix exponential, unitary squaring, states."""
import numpy as np
import pytest

from molphase import qcore
from molphase.errors import ComputationError, ValidationError
from molphase.molham import H2_MATRIX

from conftest import H2_GROUND_ENERGY, H2_TAU, random_hermitian, random_unitary


class TestHermitianEig:
    def test_h2_ground_energy_matches_reported_value(self):
        dec = qcore.hermitian_eig(H2_MATRIX)
        assert dec.ground_energy == pytest.approx(-1.8516, abs=5e-5)

    def test_h2_against_closed_form(self):
        dec = qcore.hermitian_eig(H2_MATRIX)
        mean = (H2_MATRIX[0, 0] + H2_MATRIX[1, 1]).real / 2.0
        r = np.hypot((H2_MATRIX[0, 0] - H2_MATRIX[1, 1]).real / 2.0, H2_MATRIX[0, 1].real)
        np.testing.assert_allclose(dec.energies, [mean - r, mean + r], atol=1e-12)

    def test_identity_eigenvalues(self):
        dec = qcore.hermitian_eig(np.eye(2))
        np.testing.assert_allclose(dec.energies, [1.0, 1.0], atol=1e-14)

    def test_sigma_x_spectrum_and_ground_state(self):
        dec = qcore.hermitian_eig(qcore.SIGMA_X)
        np.testing.assert_allclose(dec.energies, [-1.0, 1.0], atol=1e-14)
        overlap = abs(np.vdot(dec.ground_state, qcore.KET_MINUS))
        assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_reconstruction_residual_over_random_matrices(self):
        rng = np.random.default_rng(11)
        for trial in range(1000):
            dim = int(rng.integers(2, 9))
            h = random_hermitian(rng, dim)
            dec = qcore.hermitian_eig(h)
            v = dec.eigenvectors
            assert np.abs((v * dec.energies) @ v.conj().T - h).max() <= 1e-11
            assert np.all(np.diff(dec.energies) >= -1e-14)
            gram = dec.eigenvectors.conj().T @ dec.eigenvectors
            assert np.abs(gram - np.eye(dim)).max() <= 1e-11

    def test_deterministic_for_identical_input(self):
        rng = np.random.default_rng(5)
        h = random_hermitian(rng, 4)
        a = qcore.hermitian_eig(h)
        b = qcore.hermitian_eig(h.copy())
        assert np.array_equal(a.energies, b.energies)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError, match="not Hermitian"):
            qcore.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_oversized(self):
        with pytest.raises(ValidationError):
            qcore.hermitian_eig(np.eye(16))


class TestExpmHerm:
    def test_zero_time_is_identity(self):
        np.testing.assert_allclose(qcore.expm_herm(H2_MATRIX, 0.0), np.eye(2), atol=1e-14)

    def test_sigma_z_analytic(self):
        np.testing.assert_allclose(
            qcore.expm_herm(qcore.SIGMA_Z, np.pi / 2), np.diag([-1j, 1j]), atol=1e-14
        )
        np.testing.assert_allclose(
            qcore.expm_herm(qcore.SIGMA_Z, np.pi), -np.eye(2), atol=1e-14
        )

    def test_h2_ground_eigenphase(self):
        u = qcore.expm_herm(H2_MATRIX, H2_TAU)
        g = qcore.hermitian_eig(H2_MATRIX).ground_state
        phase = np.vdot(g, u @ g)
        assert phase == pytest.approx(np.exp(-1j * H2_GROUND_ENERGY * H2_TAU), abs=1e-12)

    def test_unitary_and_inverse(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            h = random_hermitian(rng, int(rng.integers(2, 9)))
            t = rng.uniform(-3, 3)
            u = qcore.expm_herm(h, t)
            dim = h.shape[0]
            assert np.abs(u.conj().T @ u - np.eye(dim)).max() <= 1e-10
            assert np.abs(u @ qcore.expm_herm(h, -t) - np.eye(dim)).max() <= 1e-10

    def test_time_additivity(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            h = random_hermitian(rng, 2)
            t1, t2 = rng.uniform(-2, 2, size=2)
            lhs = qcore.expm_herm(h, t1 + t2)
            rhs = qcore.expm_herm(h, t1) @ qcore.expm_herm(h, t2)
            assert np.abs(lhs - rhs).max() <= 1e-10

    def test_rejects_nonfinite_time(self):
        with pytest.raises(ValidationError):
            qcore.expm_herm(H2_MATRIX, np.inf)

    def test_stacked_propagators_equal_single_ones(self):
        # a stack over times must round exactly like one time at a time
        rng = np.random.default_rng(29)
        for dim in (2, 4, 8):
            h = random_hermitian(rng, dim)
            times = rng.uniform(-30, 30, size=7)
            stack = qcore.hermitian_eig(h).propagator(times)
            assert stack.shape == (7, dim, dim)
            for t, u in zip(times, stack):
                assert np.array_equal(u, qcore.expm_herm(h, t))


class TestSquareUnitary:
    def test_matches_repeated_multiplication(self):
        rng = np.random.default_rng(13)
        for dim in (2, 4):
            u = random_unitary(rng, dim)
            expected = np.linalg.matrix_power(u, 8)
            assert np.abs(qcore.square_unitary(u, 3) - expected).max() <= 1e-13

    def test_step_restores_unitarity_and_keeps_eigenphases(self):
        rng = np.random.default_rng(17)
        u = random_unitary(rng)
        drifted = u * (1.0 + 1e-8)  # drift 2e-8, above UNITARY_TOL
        m = qcore.square_unitary(drifted, 0)
        assert np.abs(m.conj().T @ m - np.eye(2)).max() <= 1e-15
        phases = np.sort(np.angle(np.linalg.eigvals(m)))
        assert np.abs(phases - np.sort(np.angle(np.linalg.eigvals(u)))).max() <= 1e-15

    def test_long_chain_stays_unitary(self):
        m = qcore.expm_herm(H2_MATRIX, H2_TAU)
        for _ in range(17):
            m = qcore.square_unitary(m, 3)
        assert np.abs(m.conj().T @ m - np.eye(2)).max() <= 1e-15

    @pytest.mark.parametrize("m", [2.0 * np.eye(2), np.full((2, 2), np.nan)])
    def test_irrecoverable_drift_is_a_computation_error(self, m):
        with pytest.raises(ComputationError, match="unitary"):
            qcore.square_unitary(m, 1)
