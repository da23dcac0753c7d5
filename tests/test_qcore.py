"""Linear-algebra core: eigensolver, matrix exponential, power chain, states."""
import numpy as np
import pytest

from molphase import molham, qcore
from molphase.errors import ComputationError, ValidationError
from molphase.molham import H2_MATRIX

from conftest import (
    H2_GROUND_ENERGY,
    H2_TAU,
    MATRIX_4X4,
    TAU_4X4,
    h2_like_targets,
    random_hermitian,
    random_unitary,
)


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

    @pytest.mark.parametrize(
        "matrix, message",
        [
            (np.array([[0.0, 1.0], [0.0, 0.0]]), r"not Hermitian: \|A\[0\]\[1\] - conj\(A\[1\]\[0\]\)\| = 1.000e\+00"),
            (np.array([[np.nan, 0.0], [0.0, 1.0]]), "non-finite"),
            (np.eye(16), "dimension 16 outside 1..8"),
            (np.ones((2, 2, 2)), "must be square"),
        ],
    )
    def test_rejected_input_is_never_kept(self, matrix, message):
        before = qcore._decompose.cache_info().currsize
        for _ in range(3):
            with pytest.raises(ValidationError, match=message):
                qcore.hermitian_eig(matrix)
        assert qcore._decompose.cache_info().currsize == before

    def test_equal_contents_share_one_decomposition(self):
        rng = np.random.default_rng(17)
        for dim in range(1, 9):
            h = random_hermitian(rng, dim)
            dec = qcore.hermitian_eig(h)
            # any array with the same complex128 entries hits, and a hit is
            # the very result of eigh on those entries
            assert qcore.hermitian_eig(h.copy()) is dec
            vals, vecs = np.linalg.eigh(h)
            assert (dec.energies == vals).all() and (dec.eigenvectors == vecs).all()
            assert qcore.hermitian_eig(np.asfortranarray(h)) is dec
            assert not dec.energies.flags.writeable and not dec.eigenvectors.flags.writeable
        real = [[-1.0, 0.5], [0.5, 2.0]]
        assert qcore.hermitian_eig(real) is qcore.hermitian_eig(np.array(real, dtype=complex))

    def test_cache_is_bounded_and_evicted_content_decomposes_again(self):
        qcore._decompose.cache_clear()
        rng = np.random.default_rng(23)
        first = random_hermitian(rng, 8)
        kept = qcore.hermitian_eig(first)
        for _ in range(qcore.EIG_CACHE_SIZE):
            qcore.hermitian_eig(random_hermitian(rng, 8))
        assert qcore._decompose.cache_info().currsize == qcore.EIG_CACHE_SIZE
        again = qcore.hermitian_eig(first)
        assert again is not kept
        assert again.energies.tobytes() == kept.energies.tobytes()
        assert again.eigenvectors.tobytes() == kept.eigenvectors.tobytes()
        assert qcore._decompose.cache_info().currsize == qcore.EIG_CACHE_SIZE


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


# The chain's two forms: a matrix, and the diagonal of a diagonal matrix.
FORMS = {"matrix": lambda m: m, "diagonal": np.diagonal}


def unitarity_error(m):
    if m.ndim == 1:
        return np.abs(m.conj() * m - 1.0).max()
    return np.abs(m.conj().T @ m - np.eye(m.shape[0])).max()


def form_unitary(rng, form, dim=2):
    """A random unitary; for the diagonal form, a diagonal one."""
    if form == "diagonal":
        return np.diag(np.exp(2j * np.pi * rng.uniform(size=dim)))
    return random_unitary(rng, dim)


class TestPowerChain:
    @pytest.mark.parametrize("form", FORMS)
    def test_matches_repeated_multiplication(self, form):
        rng = np.random.default_rng(13)
        for dim in (2, 4):
            u = form_unitary(rng, form, dim)
            chain = qcore.power_chain(FORMS[form](u), 3, 3)
            assert chain.shape == (3,) + FORMS[form](u).shape
            assert np.array_equal(chain[0], FORMS[form](u))
            for r in (1, 2):
                expected = FORMS[form](np.linalg.matrix_power(u, 8**r))
                assert np.abs(chain[r] - expected).max() <= 1e-13

    @pytest.mark.parametrize("form", FORMS)
    def test_step_restores_unitarity_and_keeps_eigenphases(self, form):
        rng = np.random.default_rng(17)
        u = form_unitary(rng, form)
        drifted = FORMS[form](u) * (1.0 + 1e-8)  # drift 2e-8, above UNITARY_TOL
        m = qcore.power_chain(drifted, 0, 2)[1]
        assert unitarity_error(m) <= 1e-15
        eigenvalues = m if m.ndim == 1 else np.linalg.eigvals(m)
        phases = np.sort(np.angle(eigenvalues))
        assert np.abs(phases - np.sort(np.angle(np.linalg.eigvals(u)))).max() <= 1e-15

    @pytest.mark.parametrize("form", FORMS)
    def test_long_chain_stays_unitary(self, form):
        if form == "matrix":
            u = qcore.expm_herm(H2_MATRIX, H2_TAU)
        else:
            u = np.exp(-1j * H2_TAU * qcore.hermitian_eig(H2_MATRIX).energies)
        chain = qcore.power_chain(u, 3, 18)
        assert max(unitarity_error(m) for m in chain) <= 1e-15

    @pytest.mark.parametrize("form", FORMS)
    @pytest.mark.parametrize("m", [2.0 * np.eye(2), np.full((2, 2), np.nan)])
    def test_irrecoverable_drift_is_a_computation_error(self, form, m):
        with pytest.raises(ComputationError, match="round 1 left the unitary group"):
            qcore.power_chain(FORMS[form](m), 1, 2)

    @pytest.mark.parametrize("n, k", [(3, 17), (1, 52)])
    def test_diagonal_chain_equals_the_matrix_chain(self, n, k):
        # on 2x2 systems the elementwise square rounds exactly like the matrix
        # product, which keeps every output of the eigenbasis chain unchanged
        for h in h2_like_targets(20, seed=71):
            factors = np.exp(-1j * molham.choose_tau(h) * molham.spectrum(h).energies)
            matrices = qcore.power_chain(np.diag(factors), n, k)
            diagonal = np.diagonal(matrices, axis1=1, axis2=2)
            assert np.array_equal(qcore.power_chain(factors, n, k), diagonal)
            assert not np.any(matrices * (1.0 - np.eye(2)))

    @pytest.mark.parametrize("n, k", [(3, 17), (1, 52)])
    def test_diagonal_chain_matches_the_matrix_chain_on_4x4(self, n, k):
        # 4x4 matrix products round differently from the elementwise square,
        # and round r multiplies that difference by 2^(n r); the phase of U
        # that each power implies must still agree to rounding
        factors = np.exp(-1j * TAU_4X4 * qcore.hermitian_eig(MATRIX_4X4).energies)
        matrices = qcore.power_chain(np.diag(factors), n, k)
        diagonal = np.diagonal(matrices, axis1=1, axis2=2)
        gap = np.angle(qcore.power_chain(factors, n, k) * diagonal.conj()) / (2.0 * np.pi)
        assert np.abs(gap / 2.0 ** (n * np.arange(k)[:, None])).max() <= 1e-15
